"""Deterministic dataset pipelines behind the package's three figures and
the ``qfi --grid`` table.

Each ``write_*`` function writes the CSV file plus a ``<csv>.json`` sidecar
recording the exact configuration and package version; fig1, fig2 and fig4
also have a ``run_*`` function returning the plain rows, and fig1 and fig2
a frozen config. Identical configs give byte-identical files. The qfi
sidecar records the step the fidelity oracle derived from n; no caller sets it.
"""

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .discord import (
    MeasurementSpectrum,
    _as_spectrum,
    _assignment_costs,
    derive_child_seeds,
    scan_uncertainty,
)
from .errors import InvalidInputError
from .linalg import as_count, as_real, as_reals, as_seed, as_tolerance
from .metrology import _oracle_step, identity_sweep, qfi_noon_oracle
from .states import DensityMatrix, PureBipartiteState, _schmidt_weights
from .tables import Coded, Columns, write_csv, write_sidecar

_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class Fig1Config:
    """Scan of Q and U over random measurements for Schmidt-diagonal states.

    For dim_a = 2 the state at grid value s1 has weights (s1, 1 - s1); for
    dim_a = 3 the weights are (s1, s2, 1 - s1 - s2) with a fixed s2. Each
    grid point gets its own derived master seed, so rows are reproducible
    point by point.
    """

    dim_a: int
    s1_grid: tuple
    s2: float = None
    spectrum: MeasurementSpectrum = None
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        dim_a = as_count(self.dim_a, "dim_a")
        if dim_a not in (2, 3):
            raise InvalidInputError(f"dim_a must be 2 or 3, got {dim_a}")
        if dim_a == 2 and self.s2 is not None:
            raise InvalidInputError("s2 only applies to dim_a = 3")
        if dim_a == 3 and self.s2 is None:
            raise InvalidInputError("dim_a = 3 needs a fixed s2")
        grid = tuple(as_reals(self.s1_grid, "s1_grid"))
        spectrum = MeasurementSpectrum.default(dim_a) if self.spectrum is None else self.spectrum
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "s1_grid", grid)
        object.__setattr__(self, "s2", None if self.s2 is None else as_real(self.s2, "s2"))
        object.__setattr__(self, "spectrum", _as_spectrum(spectrum, dim_a))
        object.__setattr__(self, "samples", as_count(self.samples, "samples"))
        object.__setattr__(self, "seed", as_seed(self.seed))
        for s1 in grid:
            self.probabilities(s1)  # raises for weights off the simplex

    def probabilities(self, s1: float) -> np.ndarray:
        """Schmidt weights at grid value s1, through the shared weight check."""
        if self.dim_a == 2:
            p = (s1, 1.0 - s1)
        else:
            p = (s1, self.s2, 1.0 - s1 - self.s2)
        return _schmidt_weights(p, f"weights at s1 = {s1}")

    def to_dict(self) -> dict:
        return {"command": "fig1", **vars(self), "spectrum": list(self.spectrum.values)}


def run_fig1(config: Fig1Config) -> list:
    """Rows (s1, basis seed, Q, U), one per sampled measurement."""
    point_seeds = derive_child_seeds(config.seed, len(config.s1_grid))
    rows = []
    for s1, point_seed in zip(config.s1_grid, point_seeds.tolist()):
        state = PureBipartiteState.from_probabilities(config.probabilities(s1))
        rho = DensityMatrix.from_pure(state)
        scan = scan_uncertainty(rho, config.spectrum, config.samples, point_seed)
        rows.extend(zip(
            repeat(s1), scan.seeds.tolist(), scan.q_values.tolist(), scan.u_values.tolist()
        ))
    return rows


def write_fig1(config: Fig1Config, path) -> list:
    rows = run_fig1(config)
    write_csv(path, ("s1", "seed", "Q", "U"), rows)
    write_sidecar(path, config.to_dict())
    return rows


@dataclass(frozen=True)
class Fig2Config:
    """Optimal-assignment region map over the three-outcome simplex.

    The grid covers all (s1, s2) with s1, s2 on a linspace over [0, 1] and
    s1 + s2 <= 1, with s3 = 1 - s1 - s2. No ordering between the weights is
    imposed; the label regions tile the full simplex.
    """

    spectrum: MeasurementSpectrum
    resolution: int = 200

    def __post_init__(self):
        object.__setattr__(self, "spectrum", _as_spectrum(self.spectrum, 3))
        object.__setattr__(self, "resolution", as_count(self.resolution, "resolution", 2))

    def to_dict(self) -> dict:
        return {"command": "fig2", **vars(self), "spectrum": list(self.spectrum.values)}


def _fig2_table(config: Fig2Config) -> Columns:
    """The rows of :func:`run_fig2` as columns coded by grid and label index."""
    grid = np.linspace(0.0, 1.0, config.resolution)
    i, j = np.nonzero(grid[:, None] + grid <= 1.0 + _SIMPLEX_TOL)  # simplex points, row-major
    s1, s2 = grid[i], grid[j]
    p = np.stack([s1, s2, np.maximum(1.0 - s1 - s2, 0.0)], axis=1)
    perms, cost = _assignment_costs(p, config.spectrum)
    labels = ["".join(map(str, perm)) for perm in perms.tolist()]
    best, values = np.argmin(cost, axis=0).tolist(), grid.tolist()
    return Columns(Coded(i.tolist(), values), Coded(j.tolist(), values), Coded(best, labels))


def run_fig2(config: Fig2Config) -> list:
    """Rows (s1, s2, label); label is the optimal assignment as digits.

    Digit j of the label is the spectrum index assigned to weight slot j,
    e.g. "021" places values (v0, v2, v1) on (s1, s2, s3).
    """
    return list(_fig2_table(config))


def write_fig2(config: Fig2Config, path) -> list:
    write_csv(path, ("s1", "s2", "assignment"), table := _fig2_table(config))
    write_sidecar(path, config.to_dict())
    return list(table)


class Fig4Result(NamedTuple):
    """Fisher-information / discord / negativity sweep over transmittance."""

    rows: list
    slope: float
    max_residual: float


def run_fig4(n: int, t2_grid) -> Fig4Result:
    """Rows (t2, F, DG, negativity) plus the fitted F-vs-DG slope.

    DG and the negativity come from the lossy state's block form
    (:class:`NoonProbe`), never a dense matrix. The slope of F against DG
    recovers n^2 wherever F = DG * n^2 holds; ``max_residual`` is the largest
    pointwise deviation from it on the grid. A grid on which every DG is
    equal leaves the slope undefined and raises :class:`InvalidInputError`.
    """
    points = [
        (t2, f, dg, probe.negativity(), residual)
        for t2, _, probe, f, dg, residual in identity_sweep(n, t2_grid)
    ]
    if len(points) < 2:
        raise InvalidInputError(f"t2 grid must have length >= 2, got {len(points)}")
    _, f_values, dg_values, _, residuals = zip(*points)
    if min(dg_values) == max(dg_values):
        raise InvalidInputError(
            "t2 grid needs at least two distinct DG values to fit the F-vs-DG slope"
        )
    slope = float(np.polyfit(dg_values, f_values, 1)[0])
    return Fig4Result([point[:4] for point in points], slope, max(residuals))


def write_fig4(n: int, t2_grid, path) -> Fig4Result:
    result = run_fig4(n, t2_grid)
    write_csv(path, ("t2", "F", "DG", "negativity"), result.rows)
    write_sidecar(path, {
        "command": "fig4", "n": as_count(n, "photon number"), "t2_grid": [row[0] for row in result.rows],
    })
    return result


def write_qfi(n: int, t2_grid, phi: float, tolerance: float, path) -> list:
    """Rows (t2, F_closed, F_oracle, DG, residual) of :func:`identity_sweep`
    with :func:`qfi_noon_oracle`, written to the CSV once every input has passed
    its check; the sidecar records n and phi as the sweep coerced them, the
    oracle's step ``delta``, and ``tolerance``, against which the caller checks
    the residuals over n^2."""
    tolerance = as_tolerance(tolerance)
    rows = []
    for t2, point, _, f, dg, residual in identity_sweep(n, t2_grid, phi):
        rows.append((t2, f, qfi_noon_oracle(point), dg, residual))
    write_csv(path, ("t2", "F_closed", "F_oracle", "DG", "residual"), rows)
    write_sidecar(path, {
        "command": "qfi", "n": point.n, "phi": point.phi, "delta": _oracle_step(point.n),
        "tolerance": tolerance, "t2_grid": [row[0] for row in rows],
    })
    return rows
