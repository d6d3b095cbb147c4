"""Command line interface.

Subcommands::

    discord     discord-style measures of one state (closed form on a
                qubit side, seeded sampled bounds otherwise)
    qfi         Fisher-information routes for the lossy n-photon family,
                single point or a transmittance grid
    negativity  entanglement negativity of one state
    fig1        Q/U random-measurement scan dataset over Schmidt weights
    fig2        optimal-assignment region map over the 3-outcome simplex
    fig4        Fisher information vs discord vs negativity sweep
    validate    check a density-matrix JSON file and report violations

States come either from ``--noon N=... t2=... [phi=...]`` or from
``--file rho.json``. Exit codes: 0 on success, 2 on invalid input, 3 when
a Fisher identity's residual exceeds ``--tol`` times n^2, the largest F.
"""

import argparse
import sys
from functools import cache

import numpy as np

from .discord import (
    MeasurementSpectrum,
    _as_spectrum,
    local_quantum_uncertainty,
    minimize_uncertainty,
)
from .errors import InvalidInputError
from .experiments import Fig1Config, Fig2Config, write_fig1, write_fig2, write_fig4, write_qfi
from .linalg import as_count, as_seed, as_tolerance
from .metrology import negativity, qfi_noon_closed, qfi_noon_oracle, qfi_noon_spectral
from .states import NoonChannelParams, NoonProbe, load_density, load_matrix, validation_report
from .tables import format_number
from .version import __version__


def _parse_noon(tokens, sweep: bool = False) -> NoonChannelParams:
    """Parse ``N=.. t2=.. [phi=..]`` tokens into channel parameters; a
    ``--grid`` sweep takes no t2, and its params hold t2 = 1."""
    seen = {"t2": "1"} if sweep else {}
    for token in tokens:
        if "=" not in token:
            raise InvalidInputError(f"expected key=value, got '{token}'")
        key, _, value = token.partition("=")
        if key not in ("N", "t2", "phi"):
            raise InvalidInputError(f"unknown --noon key '{key}' (expected N, t2, phi)")
        if sweep and key == "t2":
            raise InvalidInputError("--grid sweeps t2 over [0, 1]; drop t2= from --noon")
        if key in seen:
            raise InvalidInputError(f"duplicate --noon key '{key}'")
        seen[key] = value
    for key in ("N", "t2"):
        if key not in seen:
            raise InvalidInputError(f"--noon needs {key}=...")
    try:  # count text is an integer literal, as for argparse type=int
        n = int(seen["N"])
    except ValueError:
        raise InvalidInputError(f"N must be an integer, got '{seen['N']}'") from None
    try:
        t2 = float(seen["t2"])
        phi = float(seen.get("phi", 0.0))
    except ValueError as exc:
        raise InvalidInputError(f"bad --noon value: {exc}") from exc
    return NoonChannelParams.from_transmittance(n, t2, phi)


def _parse_float_list(text) -> tuple:
    try:
        return tuple(float(p) for p in str(text).split(","))
    except ValueError as exc:
        raise InvalidInputError(f"expected comma-separated numbers, got '{text}'") from exc


def _parse_spectrum(text):
    """A ``--spectrum`` value as a MeasurementSpectrum, or None if not given."""
    return MeasurementSpectrum(_parse_float_list(text)) if text else None


def _cmd_discord(args) -> int:
    # --noon reads the probe's block traces, with no dense matrix, to n = PROBE_MAX_N.
    rho = NoonProbe(_parse_noon(args.noon)) if args.noon else load_density(args.file)
    # The scan's checks, made on every state, though a qubit side scans nothing.
    samples, seed = as_count(args.samples, "samples"), as_seed(args.seed, "master_seed")
    spectrum = _as_spectrum(_parse_float_list(args.spectrum), rho.dim_a) if args.spectrum else None
    print(f"dimA = {rho.dim_a}  dimB = {rho.dim_b}")
    if rho.dim_a == 2:
        lqu = local_quantum_uncertainty(rho)
        print(f"LQU = {format_number(lqu)}")
        print(f"GQD = {format_number(0.5 * lqu)}")
        return 0
    scan = minimize_uncertainty(rho, spectrum, samples, seed)
    name = "U" if spectrum is not None else "Q"
    print(f"{name} min = {format_number(scan.minimum)}  (basis seed {scan.argmin_seed})")
    print(f"{name} max = {format_number(scan.maximum)}")
    print(f"samples = {samples}  master seed = {seed}")
    return 0


def _t2_grid(points) -> np.ndarray:
    """``--grid`` points spread evenly over t2 in [0, 1]."""
    return np.linspace(0.0, 1.0, as_count(points, "grid", 0))


def _cmd_qfi(args) -> int:
    params = _parse_noon(args.noon, sweep=args.grid is not None)
    default_tol = 1e-10 if args.grid is None else 1e-9
    tol = as_tolerance(default_tol if args.tol is None else args.tol)
    if args.grid is None:
        if args.out:
            raise InvalidInputError("--out needs --grid")
        f_closed = qfi_noon_closed(params)
        f_spectral = qfi_noon_spectral(params)
        f_oracle = qfi_noon_oracle(params)
        residual = abs(f_closed - f_spectral)
        print(f"F_closed = {format_number(f_closed)}")
        print(f"F_spectral = {format_number(f_spectral)}")
        print(f"F_oracle = {format_number(f_oracle)}")
        print(f"|closed - spectral| = {format_number(residual)}")
        return 0 if residual <= tol * params.n ** 2 else 3

    if not args.out:
        raise InvalidInputError("--grid needs --out for the CSV")
    rows = write_qfi(params.n, _t2_grid(args.grid), params.phi, tol, args.out)
    max_residual = max(row[4] for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"max |F - DG*n^2| = {format_number(max_residual)}")
    return 0 if max_residual <= tol * params.n ** 2 else 3


def _cmd_negativity(args) -> int:
    # --noon reads the probe's closed form, the value fig4 prints, to n = PROBE_MAX_N.
    if args.noon:
        value = NoonProbe(_parse_noon(args.noon)).negativity()
    else:
        value = negativity(load_density(args.file))
    print(f"negativity = {format_number(value)}")
    return 0


def _cmd_fig1(args) -> int:
    config = Fig1Config(dim_a=args.dimA, s1_grid=_parse_float_list(args.s1), s2=args.s2,
                        spectrum=_parse_spectrum(args.spectrum), samples=args.samples, seed=args.seed)
    rows = write_fig1(config, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_fig2(args) -> int:
    rows = write_fig2(Fig2Config(_parse_spectrum(args.spectrum), args.resolution), args.out)
    labels = sorted({row[2] for row in rows})
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"assignments: {' '.join(labels)}")
    return 0


def _cmd_fig4(args) -> int:
    tol = as_tolerance(args.tol)
    result = write_fig4(args.N, _t2_grid(args.grid), args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    print(
        f"slope F vs DG = {format_number(result.slope)}  "
        f"max |F - DG*n^2| = {format_number(result.max_residual)}"
    )
    return 0 if result.max_residual <= tol * args.N ** 2 else 3


def _cmd_validate(args) -> int:
    matrix, dim_a, dim_b = load_matrix(args.file)
    report = validation_report(matrix, dim_a, dim_b)
    print(f"dimA = {report.dim_a}  dimB = {report.dim_b}")
    print(f"hermiticity deviation = {format_number(report.hermiticity_deviation)}")
    print(f"trace = {format_number(report.trace)}")
    print(f"min eigenvalue = {format_number(report.min_eigenvalue)}")
    if report.ok:
        print("ok")
        return 0
    for violation in report.violations:
        print(f"error: {violation}", file=sys.stderr)
    return 2


def _add_state_source(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--noon", nargs="+", metavar="KEY=VALUE",
        help="lossy n-photon state, e.g. --noon N=10 t2=0.5",
    )
    group.add_argument("--file", help="density-matrix JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Discord-style correlation measures and interferometer metrology.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discord", help="discord measures of one state")
    _add_state_source(p)
    p.add_argument("--samples", type=int, default=1000,
                   help="scan size when dimA > 2 (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="scan master seed")
    p.add_argument("--spectrum", help="comma-separated eigenvalues for a U scan")
    p.set_defaults(handler=_cmd_discord)

    p = sub.add_parser("qfi", help="Fisher-information routes for the lossy family")
    p.add_argument("--noon", nargs="+", required=True, metavar="KEY=VALUE",
                   help="lossy n-photon state, e.g. --noon N=10 t2=0.5")
    p.add_argument("--tol", type=float, default=None,
                   help="identity tolerance, times n^2 (default 1e-10 single point, 1e-9 grid)")
    p.add_argument("--grid", type=int, default=None,
                   help="sweep t2 over this many grid points instead")
    p.add_argument("--out", help="CSV path for --grid mode")
    p.set_defaults(handler=_cmd_qfi)

    p = sub.add_parser("negativity", help="entanglement negativity of one state")
    _add_state_source(p)
    p.set_defaults(handler=_cmd_negativity)

    p = sub.add_parser("fig1", help="Q/U scan dataset over Schmidt weights")
    p.add_argument("--dimA", type=int, required=True, help="2 or 3")
    p.add_argument("--s1", required=True, help="comma-separated s1 grid")
    p.add_argument("--s2", type=float, default=None, help="fixed s2 (dimA = 3)")
    p.add_argument("--spectrum", help="comma-separated eigenvalues")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(handler=_cmd_fig1)

    p = sub.add_parser("fig2", help="optimal-assignment region map")
    p.add_argument("--spectrum", required=True, help="three comma-separated eigenvalues")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(handler=_cmd_fig2)

    p = sub.add_parser("fig4", help="Fisher information vs discord sweep")
    p.add_argument("--N", type=int, required=True, help="photon number")
    p.add_argument("--grid", type=int, default=101, help="t2 grid points")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="tolerance on |F - DG*n^2| / n^2")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(handler=_cmd_fig4)

    p = sub.add_parser("validate", help="check a density-matrix JSON file")
    p.add_argument("--file", required=True, help="density-matrix JSON file")
    p.set_defaults(handler=_cmd_validate)

    return parser


#: main()'s parser, built once: the tree costs ~2 ms, mostly gettext lookups.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
