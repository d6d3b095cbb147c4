import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdiscord as qd
from qdiscord import cli
from qdiscord.cli import main
from qdiscord.states import PROBE_MAX_N
from qdiscord.tables import format_number

from helpers import bell_state


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_after(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    raise AssertionError(f"no line starting with {prefix!r} in:\n{text}")


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    qd.save_density(bell_state(), path)
    return str(path)


@pytest.fixture(params=["qutrit-file", "qubit-noon"])
def discord_state(request, tmp_path):
    """``discord`` state arguments: a pure qutrit x qutrit file, which the
    command scans, or the N = 2 probe, whose two-level A side it does not."""
    if request.param == "qubit-noon":
        return ("--noon", "N=2", "t2=0.5")
    path = tmp_path / "qutrit.json"
    state = qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2])
    qd.save_density(qd.DensityMatrix.from_pure(state), path)
    return ("--file", str(path))


class TestDiscordCommand:
    def test_qubit_side_closed_form(self, capsys):
        code, out, err = invoke(capsys, "discord", "--noon", "N=2", "t2=0.5")
        assert code == 0 and err == ""
        assert "dimA = 2  dimB = 3" in out
        lqu = value_after(out, "LQU = ")
        gqd = value_after(out, "GQD = ")
        assert abs(gqd - 0.5 * lqu) < 1e-12

    def test_bell_file(self, capsys, bell_file):
        code, out, _ = invoke(capsys, "discord", "--file", bell_file)
        assert code == 0
        assert value_after(out, "LQU = ") == pytest.approx(1.0, abs=1e-10)
        assert value_after(out, "GQD = ") == pytest.approx(0.5, abs=1e-10)

    def test_larger_side_uses_sampled_scan(self, capsys, tmp_path):
        state = qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2])
        path = tmp_path / "qutrit.json"
        qd.save_density(qd.DensityMatrix.from_pure(state), path)
        code, out, _ = invoke(
            capsys, "discord", "--file", str(path), "--samples", "40", "--seed", "2"
        )
        assert code == 0
        assert "Q min = " in out and "basis seed" in out
        assert "samples = 40  master seed = 2" in out
        minimum = value_after(out, "Q min = ")
        assert minimum >= qd.geometric_discord_pure([0.5, 0.3, 0.2]) - 1e-9

    def test_spectrum_switches_to_observable_scan(self, capsys, tmp_path):
        state = qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2])
        path = tmp_path / "qutrit.json"
        qd.save_density(qd.DensityMatrix.from_pure(state), path)
        code, out, _ = invoke(
            capsys, "discord", "--file", str(path),
            "--samples", "25", "--spectrum", "4,3,2",
        )
        assert code == 0
        assert "U min = " in out and "U max = " in out

    def test_invalid_state_reports_error(self, capsys):
        code, _, err = invoke(capsys, "discord", "--noon", "N=0", "t2=0.5")
        assert code == 2
        assert err.startswith("error:")

    def test_negative_seed_is_invalid_input(self, capsys, discord_state):
        code, _, err = invoke(capsys, "discord", *discord_state, "--seed", "-1")
        assert code == 2
        assert err == "error: master_seed must be >= 0, got -1\n"

    def test_seed_beyond_uint64_is_invalid_input(self, capsys, discord_state):
        argv = ("discord", *discord_state, "--samples", "5", "--seed")
        code, _, err = invoke(capsys, *argv, "18446744073709551616")
        assert code == 2
        assert err == "error: master_seed must be below 2**64, got 18446744073709551616\n"
        code, out, err = invoke(capsys, *argv, "18446744073709551615")
        assert (code, err) == (0, "")
        scanned = discord_state[0] == "--file"
        assert ("master seed = 18446744073709551615" in out) == scanned

    @pytest.mark.parametrize("option", [
        ("--samples", "0"), ("--spectrum", "1,1"), ("--spectrum", "4,3,2"),
    ], ids=["samples-0", "degenerate-spectrum", "three-value-spectrum"])
    def test_qubit_side_checks_scan_arguments(self, capsys, option):
        # A two-level A side reads none of these, but they are checked as a
        # scan would check them, before anything is printed.
        code, out, err = invoke(capsys, "discord", "--noon", "N=2", "t2=0.5", *option)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("command, n, reason", [
        ("discord", PROBE_MAX_N + 1, "past TRACE_TOL / eps"),
        ("qfi", PROBE_MAX_N + 1, "past TRACE_TOL / eps"),
    ], ids=["discord", "qfi"])
    def test_large_photon_number_is_invalid_input(self, capsys, command, n, reason):
        # discord --noon and qfi's spectral route and oracle all read the block-form probe
        code, out, err = invoke(capsys, command, "--noon", f"N={n}", "t2=0.5")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: photon number {n} is too large: {reason}")

    def test_noon_runs_to_the_probe_limit(self, capsys):
        code, out, err = invoke(capsys, "discord", "--noon", f"N={PROBE_MAX_N}", "t2=0.999")
        assert (code, err) == (0, "")
        assert out.startswith(f"dimA = 2  dimB = {PROBE_MAX_N + 1}\n")

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_noon_prints_the_probe_lqu(self, capsys, n):
        params = qd.NoonChannelParams.from_transmittance(n, 0.7, 0.3)
        lqu = qd.local_quantum_uncertainty(qd.NoonProbe(params))
        code, out, err = invoke(capsys, "discord", "--noon", f"N={n}", "t2=0.7", "phi=0.3")
        assert (code, err) == (0, "")
        assert out == (f"dimA = 2  dimB = {n + 1}\nLQU = {format_number(lqu)}\n"
                       f"GQD = {format_number(0.5 * lqu)}\n")

    @pytest.mark.parametrize("command", ["discord", "qfi"])
    def test_overflowing_phase_is_invalid_input(self, capsys, command):
        # n * phi = inf used to reach np.exp and print RuntimeWarnings first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = invoke(capsys, command, "--noon", "N=2", "t2=0.5", "phi=1e308")
        assert (code, out, caught) == (2, "", [])
        assert err == "error: n * phi must be finite, got 2 * 1e+308\n"

    @pytest.mark.parametrize("text", ["2.0", "2.5"])
    def test_photon_number_must_be_an_integer_literal(self, capsys, text):
        code, out, err = invoke(capsys, "discord", "--noon", f"N={text}", "t2=0.5")
        assert code == 2
        assert out == ""
        assert err == f"error: N must be an integer, got '{text}'\n"

    def test_sources_are_mutually_exclusive(self, bell_file):
        with pytest.raises(SystemExit):
            main(["discord", "--noon", "N=2", "t2=0.5", "--file", bell_file])


class TestQfiCommand:
    def test_single_point_routes_agree(self, capsys):
        code, out, _ = invoke(capsys, "qfi", "--noon", "N=2", "t2=1")
        assert code == 0
        assert value_after(out, "F_closed = ") == pytest.approx(4.0, abs=1e-12)
        assert value_after(out, "F_spectral = ") == pytest.approx(4.0, abs=1e-10)
        assert value_after(out, "F_oracle = ") == pytest.approx(4.0, rel=1e-3)
        assert value_after(out, "|closed - spectral| = ") < 1e-10

    @pytest.mark.parametrize("n, message", [
        (10**155, f"photon number {10**155} is too large: 2 n^2 overflows a double"),
        (2**1100, "photon number must be finite, got an int beyond a double"),
    ], ids=["1e155", "2^1100"])
    def test_photon_number_past_a_double_is_invalid_input(self, capsys, n, message):
        # 2 n^2 in the closed form used to raise OverflowError, exit 1 with a traceback;
        # an n past a double fails as the params' photon number
        code, out, err = invoke(capsys, "qfi", "--noon", f"N={n}", "t2=0.5")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("t2, tol", [("0.999", ()), ("0.999999", ("--tol", "1e-11")), ("1", ("--tol", "1e-11"))])
    def test_runs_to_the_probe_limit(self, capsys, t2, tol):
        # The derived step keeps n delta = 0.01: the oracle is within its truncation
        # (n delta)^2 / 12 of the closed form, over its eps^2 / delta^2 roundoff floor where
        # F_Q is ~1e-184. Near T = 1, |closed - spectral| is ~n eps F_Q (0.35 at 0.999999),
        # yet below 1e-11 n^2, the scale of F.
        delta = 1e-2 / PROBE_MAX_N
        code, out, err = invoke(capsys, "qfi", "--noon", f"N={PROBE_MAX_N}", f"t2={t2}", *tol)
        assert (code, err) == (0, "")
        closed, oracle = value_after(out, "F_closed = "), value_after(out, "F_oracle = ")
        floor = 4.0 * np.finfo(float).eps ** 2 / delta ** 2
        assert abs(oracle - closed) <= 8.4e-6 * closed + floor

    @pytest.mark.parametrize("grid", [False, True], ids=["point", "grid"])
    def test_runs_past_a_thousand_photons(self, capsys, tmp_path, grid):
        # The derived step keeps n delta = 0.01 past n = 1000, far from aliasing at pi.
        path = tmp_path / "sweep.csv"
        argv = ("--grid", "3", "--out", str(path)) if grid else ("t2=0.5",)
        code, _, err = invoke(capsys, "qfi", "--noon", "N=2000", *argv)
        assert (code, err) == (0, "")

    def test_delta_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["qfi", "--noon", "N=2", "t2=0.5", "--delta", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --delta" in capsys.readouterr().err

    def test_single_point_tolerance_scales_with_n_squared(self, capsys, monkeypatch):
        # |closed - spectral| = 5.8e-10 here, roundoff on F ~ 1e6
        code, out, _ = invoke(capsys, "qfi", "--noon", "N=1000", "t2=0.9999")
        assert code == 0
        assert value_after(out, "|closed - spectral| = ") > 1e-10
        for miss, expected in ((0.5e-10, 0), (2e-10, 3)):
            monkeypatch.setattr(cli, "qfi_noon_spectral",
                                lambda params, miss=miss: qd.qfi_noon_closed(params) + miss * params.n ** 2)
            assert invoke(capsys, "qfi", "--noon", "N=1000", "t2=0.9999")[0] == expected

    @pytest.mark.parametrize("command", [
        ("qfi", "--noon", "N=1000", "--grid", "11"), ("fig4", "--N", "1000", "--grid", "11"),
    ], ids=["qfi", "fig4"])
    def test_grid_tolerance_scales_with_n_squared(self, capsys, tmp_path, monkeypatch, command):
        # a DG off by 2e-9 puts F - DG n^2 past the default 1e-9 n^2; one off by 0.5e-9 does not
        lqu = qd.metrology._lqu
        for miss, expected in ((0.0, 0), (0.5e-9, 0), (2e-9, 3)):
            monkeypatch.setattr(qd.metrology, "_lqu", lambda traces, miss=miss: lqu(traces) + miss)
            path = tmp_path / f"{miss}.csv"
            assert invoke(capsys, *command, "--out", str(path))[0] == expected, miss

    def test_grid_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys, "qfi", "--noon", "N=3", "--grid", "5", "--out", str(path)
        )
        assert code == 0
        assert f"wrote 5 rows to {path}" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "t2,F_closed,F_oracle,DG,residual"
        assert len(lines) == 6

    @pytest.mark.skipif(np.__version__ != "2.4.6",
                        reason="recorded on numpy 2.4.6; DG passes numpy's einsum, which may round otherwise")
    def test_grid_stdout_is_pinned(self, capsys, tmp_path):
        # the whole stdout, recorded before the command read its residuals from the table's column
        path = tmp_path / "qfi.csv"
        code, out, err = invoke(capsys, "qfi", "--noon", "N=10", "--grid", "11", "--out", str(path))
        assert (code, err) == (0, "")
        assert out == f"wrote 11 rows to {path}\nmax |F - DG*n^2| = 1.75762182586e-14\n"

    def test_grid_writes_stable_sidecar(self, capsys, tmp_path):
        runs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            argv = ("qfi", "--noon", "N=30", "phi=0.25", "--grid", "5",
                    "--tol", "1e-8", "--out", str(path))
            assert invoke(capsys, *argv)[0] == 0
            runs.append(Path(f"{path}.json").read_bytes())
        assert runs[0] == runs[1]
        meta = json.loads(runs[0])
        assert meta == {
            "command": "qfi",
            "n": 30,
            "phi": 0.25,
            "delta": 1e-2 / 30,  # the oracle's step, derived from n
            "tolerance": 1e-8,
            "t2_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
            "version": qd.__version__,
        }

    @pytest.mark.parametrize("t2", ["0.5", "7"])
    def test_grid_rejects_t2(self, capsys, tmp_path, t2):
        path = tmp_path / "sweep.csv"
        code, out, err = invoke(
            capsys, "qfi", "--noon", "N=4", f"t2={t2}", "--grid", "5", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: --grid sweeps t2 over [0, 1]; drop t2= from --noon\n"
        assert not path.exists()
        assert not Path(f"{path}.json").exists()

    def test_grid_requires_out(self, capsys):
        code, _, err = invoke(capsys, "qfi", "--noon", "N=3", "--grid", "5")
        assert code == 2
        assert "--out" in err

    def test_single_photon_grid_misses_tolerance(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys, "qfi", "--noon", "N=1", "--grid", "7", "--out", str(path)
        )
        assert code == 3
        assert value_after(out, "max |F - DG*n^2| = ") > 0.2

    def test_empty_grid_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = invoke(
            capsys, "qfi", "--noon", "N=3", "--grid", "0", "--out", str(path)
        )
        assert code == 2
        assert err == "error: the t2 grid is empty\n"

    def test_negative_grid_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = invoke(
            capsys, "qfi", "--noon", "N=2", "--grid", "-1", "--out", str(path)
        )
        assert code == 2
        assert err == "error: grid must be >= 0, got -1\n"
        assert not path.exists()

    # A single point takes t2=; a grid sweeps it.
    @pytest.mark.parametrize("grid", [["t2=0.5"], ["--grid", "3"]])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_invalid_input(self, capsys, tmp_path, grid, tol):
        path = tmp_path / "sweep.csv"
        code, out, err = invoke(
            capsys, "qfi", "--noon", "N=2", *grid, "--tol", tol, "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and >= 0")
        assert not path.exists()

    def test_zero_tolerance_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        for argv, prefix in (
            (("t2=0.5",), "|closed - spectral| = "),
            (("--grid", "3", "--out", str(path)), "max |F - DG*n^2| = "),
        ):
            code, out, err = invoke(capsys, "qfi", "--noon", "N=2", *argv, "--tol", "0")
            assert err == ""
            assert code == (0 if value_after(out, prefix) == 0.0 else 3)

    def test_out_needs_grid(self, capsys, tmp_path):
        path = tmp_path / "point.csv"
        code, out, err = invoke(capsys, "qfi", "--noon", "N=10", "t2=0.5", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: --out needs --grid\n"
        assert not path.exists()

    def test_grid_agrees_with_fig4_and_sweep(self, capsys, tmp_path):
        n, points = 3, 11
        grid = np.linspace(0.0, 1.0, points)
        path = tmp_path / "sweep.csv"
        code, _, _ = invoke(
            capsys, "qfi", "--noon", f"N={n}", "--grid", str(points),
            "--out", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            cells = [(r["t2"], r["F_closed"], r["DG"], r["residual"]) for r in csv.DictReader(fh)]
        fig4 = qd.run_fig4(n, grid)
        sweep = [(t2, f, dg, residual) for t2, _, _, f, dg, residual in qd.identity_sweep(n, grid)]
        assert [row[:3] for row in fig4.rows] == [point[:3] for point in sweep]
        assert fig4.max_residual == max(point[3] for point in sweep)
        assert cells == [tuple(format_number(x) for x in point) for point in sweep]

    def test_missing_required_key(self, capsys):
        code, _, err = invoke(capsys, "qfi", "--noon", "N=2")
        assert code == 2
        assert "t2" in err


class TestNegativityCommand:
    def test_lossless_state(self, capsys):
        code, out, _ = invoke(capsys, "negativity", "--noon", "N=4", "t2=1")
        assert code == 0
        assert value_after(out, "negativity = ") == pytest.approx(0.5, abs=1e-12)

    def test_bell_file(self, capsys, bell_file):
        code, out, _ = invoke(capsys, "negativity", "--file", bell_file)
        assert code == 0
        assert value_after(out, "negativity = ") == pytest.approx(0.5, abs=1e-12)

    def test_noon_runs_past_the_dense_limit(self, capsys):
        # C(1030, 515) overflows a double, so no dense state exists here. With
        # w_0 = 2^-1031 far below |c| = 2^-515, the value is |c| / 2 = 2^-516.
        code, out, err = invoke(capsys, "negativity", "--noon", "N=1030", "t2=0.5")
        assert code == 0 and err == ""
        assert value_after(out, "negativity = ") == pytest.approx(0.5 ** 516, rel=1e-11)

    def test_noon_past_the_probe_limit_is_invalid_input(self, capsys):
        code, out, err = invoke(capsys, "negativity", "--noon", "N=1000000000", "t2=0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: photon number 1000000000 is too large: past TRACE_TOL / eps")


class TestFigureCommands:
    def test_fig1(self, capsys, tmp_path):
        path = tmp_path / "fig1.csv"
        code, out, _ = invoke(
            capsys, "fig1", "--dimA", "2", "--s1", "0.3,0.7",
            "--samples", "4", "--out", str(path),
        )
        assert code == 0
        assert f"wrote 8 rows to {path}" in out
        assert path.read_text().splitlines()[0] == "s1,seed,Q,U"

    def test_fig1_three_level(self, capsys, tmp_path):
        path = tmp_path / "fig1.csv"
        code, out, _ = invoke(
            capsys, "fig1", "--dimA", "3", "--s1", "0.5", "--s2", "0.3",
            "--samples", "3", "--out", str(path),
        )
        assert code == 0
        assert "wrote 3 rows" in out

    def test_fig1_negative_seed_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "fig1.csv"
        code, _, err = invoke(
            capsys, "fig1", "--dimA", "2", "--s1", "0.5", "--seed", "-1", "--out", str(path),
        )
        assert code == 2
        assert err == "error: seed must be >= 0, got -1\n"
        assert not path.exists()

    def test_fig2(self, capsys, tmp_path):
        path = tmp_path / "fig2.csv"
        code, out, _ = invoke(
            capsys, "fig2", "--spectrum", "2,4,1",
            "--resolution", "11", "--out", str(path),
        )
        assert code == 0
        labels = out.split("assignments: ", 1)[1].split()
        assert "021" in labels
        assert all(sorted(label) == ["0", "1", "2"] for label in labels)

    def test_fig2_stdout_is_pinned(self, capsys, tmp_path):
        # the whole stdout, recorded before the command read its labels from the table's column
        path = tmp_path / "fig2.csv"
        code, out, err = invoke(
            capsys, "fig2", "--spectrum", "2,4,1", "--resolution", "200", "--out", str(path),
        )
        assert (code, err) == (0, "")
        assert out == f"wrote 20100 rows to {path}\nassignments: 012 021 102 120 201 210\n"

    def test_fig4_recovers_slope(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, out, _ = invoke(
            capsys, "fig4", "--N", "3", "--grid", "5", "--out", str(path)
        )
        assert code == 0
        assert value_after(out, "slope F vs DG = ") == pytest.approx(9.0, abs=1e-6)

    def test_fig4_past_the_probe_limit_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, out, err = invoke(capsys, "fig4", "--N", "1000000000", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: photon number 1000000000 is too large: past TRACE_TOL / eps")
        assert not path.exists()

    def test_fig4_negative_grid_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, _, err = invoke(capsys, "fig4", "--N", "2", "--grid", "-3", "--out", str(path))
        assert code == 2
        assert err == "error: grid must be >= 0, got -3\n"
        assert not path.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_fig4_bad_tolerance_is_invalid_input(self, capsys, tmp_path, tol):
        path = tmp_path / "fig4.csv"
        code, out, err = invoke(
            capsys, "fig4", "--N", "2", "--grid", "5", "--tol", tol, "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and >= 0")
        assert not path.exists()

    def test_fig4_tolerance_scales_with_n_squared(self, capsys, tmp_path):
        # max |F - DG*n^2| = 8e-9, roundoff on F ~ 1e8
        path = tmp_path / "fig4.csv"
        code, out, err = invoke(capsys, "fig4", "--N", "10000", "--grid", "1001", "--out", str(path))
        assert (code, err) == (0, "")
        assert float(out.split("max |F - DG*n^2| = ")[1]) > 1e-9

    def test_fig4_single_photon_flags_failure(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, _, _ = invoke(
            capsys, "fig4", "--N", "1", "--grid", "5", "--out", str(path)
        )
        assert code == 3


class TestValidateCommand:
    def test_valid_file(self, capsys, bell_file):
        code, out, err = invoke(capsys, "validate", "--file", bell_file)
        assert code == 0 and err == ""
        assert "dimA = 2  dimB = 2" in out
        assert out.rstrip().endswith("ok")

    def test_invalid_file_reports_each_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dimA": 2, "dimB": 2,'
            ' "re": [[0.6,0,0,0],[0,0.6,0,0],[0,0,-0.2,0],[0,0,0,0]],'
            ' "im": [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]}'
        )
        code, out, err = invoke(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "min eigenvalue = -0.2" in out
        assert err.splitlines() == ["error: PSD violated: min eigenvalue -0.2"]

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = invoke(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "cannot parse" in err

    @pytest.mark.parametrize("command", ["validate", "discord"])
    @pytest.mark.parametrize("entry", ["{}", '"x"', "[0.5]", '"0.5"', "true",
                                       pytest.param("1" + "0" * 400, id="int-beyond-a-double")])
    def test_malformed_matrix_is_invalid_input(self, capsys, tmp_path, command, entry):
        path = tmp_path / "malformed.json"
        path.write_text(
            f'{{"dimA": 2, "dimB": 1, "re": [[0.5, 0], [{entry}, 0.5]], "im": [[0, 0], [0, 0]]}}'
        )
        code, out, err = invoke(capsys, command, "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: density JSON 're' is not a matrix of numbers")
        assert err.count("\n") == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "validate", "--file", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")


class TestEntryPoint:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    @pytest.mark.skipif(
        shutil.which("qdiscord") is None,
        reason="no qdiscord console script on PATH (package not pip-installed)",
    )
    def test_installed_script(self):
        result = subprocess.run(
            ["qdiscord", "--version"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout.strip() == qd.__version__

    def test_module_entry_point(self):
        src = Path(qd.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-m", "qdiscord.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == qd.__version__

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_reused_parser_prints_what_fresh_parsers_print(self, capsys, monkeypatch, tmp_path, bell_file):
        # main() builds its parser once per process. Calls through it,
        # including argparse errors that exit 2, give the stdout, stderr and
        # exit codes of one fresh parser per call.
        state = qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2])
        qutrit = tmp_path / "qutrit.json"
        qd.save_density(qd.DensityMatrix.from_pure(state), qutrit)
        calls = [
            ["discord", "--file", bell_file],
            ["discord", "--noon", "N=2", "t2=0.5", "--file", bell_file],
            ["discord", "--file", str(qutrit), "--samples", "30", "--spectrum", "4,3,2"],
            ["validate"],
            ["discord", "--noon", "N=0", "t2=0.5"],
            ["negativity", "--noon", "N=2", "t2=0.5"],
            ["discord", "--file", str(qutrit), "--samples", "30", "--spectrum", "4,3,2"],
            ["--version"],
        ]

        def run_calls():
            results = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        assert cli._parser() is cli._parser()
        reused = run_calls()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert reused == run_calls()
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 2, 0, 0, 0]
        assert reused[2] == reused[6]
