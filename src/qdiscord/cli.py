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
a checked identity misses its tolerance.
"""

import argparse
import sys

import numpy as np

from .discord import (
    MeasurementSpectrum,
    local_quantum_uncertainty,
    minimize_uncertainty,
)
from .errors import InvalidInputError
from .experiments import Fig1Config, Fig2Config, write_fig1, write_fig2, write_fig4
from .linalg import as_count
from .metrology import (
    _as_tolerance,
    identity_sweep,
    negativity,
    qfi_fidelity_estimate,
    qfi_noon_closed,
    qfi_noon_spectral,
)
from .states import (
    NoonChannelParams,
    load_density,
    load_matrix,
    noon_family,
    noon_lossy_density,
    validation_report,
)
from .tables import format_number, write_csv
from .version import __version__


def _fmt(x) -> str:
    return format_number(float(x))


def _parse_noon(tokens) -> NoonChannelParams:
    """Parse ``N=.. t2=.. [phi=..]`` tokens into channel parameters."""
    allowed = ("N", "t2", "phi")
    seen = {}
    for token in tokens:
        if "=" not in token:
            raise InvalidInputError(f"expected key=value, got '{token}'")
        key, _, value = token.partition("=")
        if key not in allowed:
            raise InvalidInputError(f"unknown --noon key '{key}' (expected N, t2, phi)")
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


def _state_from_args(args):
    if getattr(args, "noon", None):
        return noon_lossy_density(_parse_noon(args.noon))
    return load_density(args.file)


def _cmd_discord(args) -> int:
    rho = _state_from_args(args)
    print(f"dimA = {rho.dim_a}  dimB = {rho.dim_b}")
    if rho.dim_a == 2:
        lqu = local_quantum_uncertainty(rho)
        print(f"LQU = {_fmt(lqu)}")
        print(f"GQD = {_fmt(0.5 * lqu)}")
        return 0
    spectrum = _parse_spectrum(args.spectrum)
    scan = minimize_uncertainty(rho, spectrum, args.samples, args.seed)
    name = "U" if spectrum is not None else "Q"
    print(f"{name} min = {_fmt(scan.minimum)}  (basis seed {scan.argmin_seed})")
    print(f"{name} max = {_fmt(scan.maximum)}")
    print(f"samples = {args.samples}  master seed = {args.seed}")
    return 0


def _t2_grid(points) -> np.ndarray:
    """``--grid`` points spread evenly over t2 in [0, 1]."""
    return np.linspace(0.0, 1.0, as_count(points, "grid", 0))


def _cmd_qfi(args) -> int:
    params = _parse_noon(args.noon)
    default_tol = 1e-10 if args.grid is None else 1e-9
    tol = _as_tolerance(default_tol if args.tol is None else args.tol)
    if args.grid is None:
        f_closed = qfi_noon_closed(params)
        f_spectral = qfi_noon_spectral(params)
        f_oracle = qfi_fidelity_estimate(noon_family(params), params.phi, args.delta)
        residual = abs(f_closed - f_spectral)
        print(f"F_closed = {_fmt(f_closed)}")
        print(f"F_spectral = {_fmt(f_spectral)}")
        print(f"F_oracle = {_fmt(f_oracle)}")
        print(f"|closed - spectral| = {_fmt(residual)}")
        return 0 if residual <= tol else 3

    if not args.out:
        raise InvalidInputError("--grid needs --out for the CSV")
    sweep = identity_sweep(params.n, _t2_grid(args.grid), params.phi)
    rows = [
        (t2, f, qfi_fidelity_estimate(noon_family(point), point.phi, args.delta), dg, residual)
        for t2, point, _, f, dg, residual in sweep
    ]
    write_csv(args.out, ("t2", "F_closed", "F_oracle", "DG", "residual"), rows)
    max_residual = max(row[4] for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"max |F - DG*n^2| = {_fmt(max_residual)}")
    return 0 if max_residual <= tol else 3


def _cmd_negativity(args) -> int:
    rho = _state_from_args(args)
    print(f"negativity = {_fmt(negativity(rho))}")
    return 0


def _cmd_fig1(args) -> int:
    config = Fig1Config(
        dim_a=args.dimA,
        s1_grid=_parse_float_list(args.s1),
        s2=args.s2,
        spectrum=_parse_spectrum(args.spectrum),
        samples=args.samples,
        seed=args.seed,
    )
    rows = write_fig1(config, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_fig2(args) -> int:
    config = Fig2Config(
        spectrum=_parse_spectrum(args.spectrum),
        resolution=args.resolution,
    )
    rows = write_fig2(config, args.out)
    labels = sorted({row[2] for row in rows})
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"assignments: {' '.join(labels)}")
    return 0


def _cmd_fig4(args) -> int:
    tol = _as_tolerance(args.tol)
    result = write_fig4(args.N, _t2_grid(args.grid), args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    print(
        f"slope F vs DG = {_fmt(result.slope)}  "
        f"max |F - DG*n^2| = {_fmt(result.max_residual)}"
    )
    return 0 if result.max_residual <= tol else 3


def _cmd_validate(args) -> int:
    matrix, dim_a, dim_b = load_matrix(args.file)
    report = validation_report(matrix, dim_a, dim_b)
    print(f"dimA = {report.dim_a}  dimB = {report.dim_b}")
    print(f"hermiticity deviation = {_fmt(report.hermiticity_deviation)}")
    print(f"trace = {_fmt(report.trace)}")
    print(f"min eigenvalue = {_fmt(report.min_eigenvalue)}")
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
    p.add_argument("--delta", type=float, default=1e-3,
                   help="finite-difference step of the fidelity oracle")
    p.add_argument("--tol", type=float, default=None,
                   help="identity tolerance (default 1e-10 single point, 1e-9 grid)")
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
                   help="tolerance on |F - DG*n^2|")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(handler=_cmd_fig4)

    p = sub.add_parser("validate", help="check a density-matrix JSON file")
    p.add_argument("--file", required=True, help="density-matrix JSON file")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
