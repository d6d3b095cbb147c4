"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (run pytest with
``-s`` to see the lines for passing tests too). The assertions are the
package's hard guarantees. Two of them hold a known gap of the paper in
view rather than hiding it:

* criteria 6 and 7: the paper's discord factor ``2 T^N / (1 + T^N)`` is the
  local quantum uncertainty only for N >= 2. At N = 1 the
  correlation-matrix maximum moves to the transverse directions and the
  exact value is ``1 - sqrt((1 - T) / (1 + T))`` (see the README's
  single-photon note). The N = 1 slice is checked against that value, and
  the identity residual there must equal the predicted gap; the verdict
  lines print the paper formula's worst N = 1 gap.
* criterion 8: the fidelity oracle takes the Bures distance directly, so
  at N >= 8 with |t|^2 = 0.1, where 1 - sqrt(F) is 1e-13 and below, it
  still meets the 1e-3 relative bound.
"""

import contextlib
import io
import time

import numpy as np

import qdiscord as qd
from qdiscord.cli import main as cli_main

from helpers import noon_family, random_pure, random_state, single_photon_lqu, uncertainty_term

GRID_T2 = tuple(float(t2) for t2 in np.linspace(0.0, 1.0, 11))
GRID_N = tuple(range(1, 11))


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# criteria 1 and 2 share one seeded ensemble
# ---------------------------------------------------------------------------

_CACHE = {}


def qubit_side_ensemble():
    """1000 random (state, basis, spectrum) cases with a two-level A side."""
    if "ensemble" not in _CACHE:
        rng = np.random.default_rng(20250814)
        cases = []
        for _ in range(1000):
            dim_b = int(rng.integers(2, 7))
            rho = random_state(2, dim_b, rng)
            basis = qd.VonNeumannBasis.from_seed(2, int(rng.integers(2**63)))
            v1 = float(rng.normal())
            step = 0.1 + abs(float(rng.normal()))
            v2 = v1 + step if rng.random() < 0.5 else v1 - step
            cases.append((rho, basis, qd.MeasurementSpectrum((v1, v2))))
        _CACHE["ensemble"] = cases
    return _CACHE["ensemble"]


def test_criterion_01_observable_uncertainty_proportionality():
    start = time.perf_counter()
    worst = 0.0
    for rho, basis, spectrum in qubit_side_ensemble():
        q = qd.measurement_uncertainty(rho, basis)
        u = qd.observable_uncertainty(rho, basis, spectrum)
        gap = spectrum.values[0] - spectrum.values[1]
        worst = max(worst, abs(u - 0.5 * gap * gap * q))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 60.0
    assert verdict(
        1,
        ok,
        "U = (gap^2/2) Q on 1000 random two-level-side cases "
        f"(max residual {worst:.2e}, {elapsed:.1f} s)",
    )


def test_criterion_02_pair_term_block_identity():
    worst = 0.0
    for rho, basis, _ in qubit_side_ensemble():
        t00 = uncertainty_term(rho, basis, 0, 0)
        t11 = uncertainty_term(rho, basis, 1, 1)
        t01 = uncertainty_term(rho, basis, 0, 1)
        worst = max(worst, abs(t00 - t11), abs(t00 - t01), abs(t11 - t01))
    ok = worst < 1e-10
    assert verdict(
        2,
        ok,
        "diagonal and off-diagonal pair terms coincide on a two-level side "
        f"(max spread {worst:.2e})",
    )


def test_criterion_03_pure_state_scan_bounds():
    rng = np.random.default_rng(3)
    worst_excess = 0.0
    largest = 0.0
    for dim_b in (2, 3, 4):
        state = random_pure(2, dim_b, rng)
        rho = qd.DensityMatrix.from_pure(state)
        s1 = float((qd.schmidt_decompose(state)[0] ** 2)[0])
        closed = 2.0 * s1 * (1.0 - s1)
        bounds = qd.minimize_uncertainty(rho, samples=10000, master_seed=20250814)
        assert bounds.minimum >= closed - 1e-9
        worst_excess = max(worst_excess, (bounds.minimum - closed) / closed)
        largest = max(largest, bounds.maximum)
    ok = worst_excess < 0.02 and largest <= 0.5 + 1e-9
    assert verdict(
        3,
        ok,
        "sampled min Q within 2% above 2 s1 (1 - s1), max below 1/2 "
        f"(worst excess {worst_excess:.2%}, max {largest:.10f})",
    )


def test_criterion_04_proportionality_fails_on_larger_side():
    rng = np.random.default_rng(20240817)
    rho = qd.DensityMatrix.from_pure(random_pure(3, 3, rng))
    spectrum = qd.MeasurementSpectrum((4, 3, 2))
    ratios = []
    for seed in (22, 31):
        basis = qd.VonNeumannBasis.from_seed(3, seed)
        q = qd.measurement_uncertainty(rho, basis)
        u = qd.observable_uncertainty(rho, basis, spectrum)
        ratios.append(u / q)
    spread = max(ratios) / min(ratios) - 1.0
    ok = spread > 0.10
    assert verdict(
        4,
        ok,
        "recorded three-level bases give U/Q ratios "
        f"{ratios[0]:.4f} vs {ratios[1]:.4f} (spread {spread:.0%})",
    )


def test_criterion_05_assignment_region_counts():
    start = time.perf_counter()
    labels_a = {row[2] for row in qd.run_fig2(qd.Fig2Config((2, 4, 1), 200))}
    labels_b = {row[2] for row in qd.run_fig2(qd.Fig2Config((4, 3, 2), 200))}
    elapsed = time.perf_counter() - start
    ok = len(labels_a) == 6 and len(labels_b) == 3 and elapsed < 60.0
    assert labels_a == {"012", "021", "102", "120", "201", "210"}
    assert labels_b == {"012", "021", "102"}
    assert verdict(
        5,
        ok,
        f"200x200 simplex maps have {len(labels_a)} and {len(labels_b)} "
        f"assignment regions ({elapsed:.1f} s)",
    )


def test_criterion_06_lossy_family_closed_forms():
    lqu_worst, lqu_worst_at = 0.0, None
    paper_gap, paper_gap_at = 0.0, None  # the paper formula's N = 1 miss
    qfi_worst = 0.0
    for n in GRID_N:
        for t2 in GRID_T2:
            params = qd.NoonChannelParams.from_transmittance(n, t2)
            rho = qd.noon_lossy_density(params)
            computed = qd.local_quantum_uncertainty(rho)
            if n == 1:
                expected = single_photon_lqu(params.transmittance)
                gap = abs(computed - qd.lqu_noon_closed(params))
                if gap > paper_gap:
                    paper_gap, paper_gap_at = gap, t2
            else:
                expected = qd.lqu_noon_closed(params)
            lqu_res = abs(computed - expected)
            qfi_res = abs(qd.qfi_noon_closed(params) - qd.qfi_noon_spectral(params))
            if lqu_res > lqu_worst:
                lqu_worst, lqu_worst_at = lqu_res, (n, t2)
            qfi_worst = max(qfi_worst, qfi_res)
    ok = lqu_worst < 1e-9 and qfi_worst < 1e-10
    assert verdict(
        6,
        ok,
        f"closed forms on the 10x11 grid: max lqu residual {lqu_worst:.2e} "
        f"at (N, t2) = ({lqu_worst_at[0]}, {lqu_worst_at[1]:.1f}) "
        "(N = 1 against 1 - sqrt((1 - T)/(1 + T)), where the paper's "
        f"2T/(1 + T) is off by {paper_gap:.2e} at t2 = {paper_gap_at:.1f}), "
        f"max Fisher route gap {qfi_worst:.2e}",
    )


def test_criterion_07_fisher_discord_identity():
    rows = [  # (N, t2, |F - DG * N^2|), one identity sweep per photon number
        (params.n, t2, residual)
        for n in GRID_N
        for t2, params, _, _, _, residual in qd.identity_sweep(n, GRID_T2)
    ]
    slope = qd.run_fig4(10, GRID_T2).slope
    slope_err = abs(slope - 100.0)
    tail_n, tail_t2, tail_worst = max((r for r in rows if r[0] >= 2), key=lambda r: r[2])
    single = [r for r in rows if r[0] == 1]
    # At N = 1 the identity F = DG * N^2 is false; its residual must be the
    # gap between F = 2T/(1 + T) and the exact single-photon LQU.
    gap_miss = max(
        abs(residual - abs(2.0 * t2 / (1.0 + t2) - single_photon_lqu(t2)))
        for _, t2, residual in single
    )
    _, paper_gap_t2, paper_gap = max(single, key=lambda r: r[2])
    ok = tail_worst <= 1e-9 and gap_miss <= 1e-9 and slope_err < 1e-6
    assert verdict(
        7,
        ok,
        f"F = DG * N^2 for N >= 2: max residual {tail_worst:.2e} at "
        f"(N, t2) = ({tail_n}, {tail_t2:.1f}); N = 1 residuals "
        f"match the predicted gap to {gap_miss:.2e} (paper formula off by "
        f"{paper_gap:.2e} at t2 = {paper_gap_t2:.1f}); "
        f"N = 10 slope off by {slope_err:.2e}",
    )


def test_criterion_08_fidelity_oracle_tracks_closed_form():
    violations = []
    worst_rel = 0.0
    for n in GRID_N:
        for t2 in GRID_T2:
            params = qd.NoonChannelParams.from_transmittance(n, t2)
            closed = qd.qfi_noon_closed(params)
            estimate = qd.qfi_fidelity_estimate(noon_family(n, t2), 0.0, 1e-3)
            if closed == 0.0:
                if abs(estimate) > 1e-9:
                    violations.append((n, t2, abs(estimate)))
                continue
            rel = abs(estimate - closed) / closed
            worst_rel = max(worst_rel, rel)
            if rel > 1e-3:
                violations.append((n, t2, rel))
    ok = not violations
    where = ", ".join(f"(N={n}, t2={t2:.1f}: {rel:.1e})" for n, t2, rel in violations)
    assert verdict(
        8,
        ok,
        "finite-difference oracle vs closed form within 1e-3 relative"
        + (f"; missed at {where}" if violations else f" (worst {worst_rel:.1e})"),
    )


def test_criterion_09_density_matches_traced_purification():
    worst = 0.0
    for n in GRID_N:
        for t2 in GRID_T2:
            for phi in (0.0, 0.9):
                params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
                amp = qd.noon_tripartite(params).reshape(-1)
                traced = qd.partial_trace(
                    np.outer(amp, amp.conj()), (2, n + 1, n + 1), (0, 1)
                )
                dev = float(
                    np.max(np.abs(traced - qd.noon_lossy_density(params).matrix))
                )
                worst = max(worst, dev)
    ok = worst < 1e-12
    assert verdict(
        9,
        ok,
        "explicit lossy density equals the traced-out three-part state "
        f"(max deviation {worst:.2e})",
    )


def test_criterion_10_fisher_negativity_nonlinearity():
    def ratio(t2):
        params = qd.NoonChannelParams.from_transmittance(10, t2)
        rho = qd.noon_lossy_density(params)
        return (qd.qfi_noon_closed(params) / 100.0) / (2.0 * qd.negativity(rho))

    lossy_dev = abs(ratio(0.1) - 1.0)
    clean_dev = abs(ratio(0.99) - 1.0)
    ok = lossy_dev > 0.10 and clean_dev < 0.02
    assert verdict(
        10,
        ok,
        "(F/N^2) / (2 negativity) deviates from 1 by "
        f"{lossy_dev:.1%} at t2 = 0.1 and {clean_dev:.2%} at t2 = 0.99",
    )


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    pairs = []

    fig1 = qd.Fig1Config(2, (0.3, 0.7), samples=25, seed=11)
    fig2 = qd.Fig2Config((2, 4, 1), resolution=21)
    for stem, write in (
        ("fig1", lambda p: qd.write_fig1(fig1, p)),
        ("fig2", lambda p: qd.write_fig2(fig2, p)),
        ("fig4", lambda p: qd.write_fig4(4, np.linspace(0.0, 1.0, 6), p)),
    ):
        first = tmp_path / f"{stem}_a.csv"
        second = tmp_path / f"{stem}_b.csv"
        write(first)
        write(second)
        pairs.append((stem, first, second))

    # the same guarantee, driven through the command line
    cli_first = tmp_path / "cli_a.csv"
    cli_second = tmp_path / "cli_b.csv"
    for out in (cli_first, cli_second):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(
                ["fig1", "--dimA", "2", "--s1", "0.4", "--samples", "10",
                 "--seed", "7", "--out", str(out)]
            )
        assert code == 0
    pairs.append(("fig1 via cli", cli_first, cli_second))

    mismatched = [
        stem for stem, a, b in pairs
        if a.read_bytes() != b.read_bytes()
        or a.with_suffix(".csv.json").read_bytes() != b.with_suffix(".csv.json").read_bytes()
    ]
    ok = not mismatched
    assert verdict(
        11,
        ok,
        f"{len(pairs)} rerun artifact pairs byte-identical (CSV and sidecar)"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
