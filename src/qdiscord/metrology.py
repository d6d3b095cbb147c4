"""Phase-estimation metrology of the lossy interferometer family.

Three independent routes to the quantum Fisher information of the
N-photon lossy state are provided (closed form, spectral construction,
and a fidelity-based finite-difference oracle), together with the link
between the Fisher information and the qubit-side discord of the state,
and an entanglement monotone (negativity) for comparison.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discord import _clamp_uncertainty, _require_state, local_quantum_uncertainty
from .errors import InvalidInputError
from .linalg import as_matrix, partial_transpose, psd_sqrt, trace_norm
from .states import (
    DensityMatrix,
    NoonChannelParams,
    _coherent_branch,
    noon_eigenvalues,
    noon_lossy_density,
)

#: Loose absolute tolerance on trace(rho) = 1 for raw fidelity inputs.
_FIDELITY_TRACE_TOL = 1e-8


def qfi_noon_closed(params: NoonChannelParams) -> float:
    """Quantum Fisher information of the lossy state, closed form.

    F = n^2 * 2 T^n / (1 + T^n) with T the intensity transmittance; reduces
    to the Heisenberg value n^2 at T = 1 and vanishes with the surviving
    coherence as T -> 0.
    """
    n = params.n
    tn = params.transmittance ** n
    return n * n * 2.0 * tn / (1.0 + tn)


def qfi_noon_spectral(params: NoonChannelParams) -> float:
    """Quantum Fisher information via the spectral structure of the state.

    Only the coherent-block eigenvector carries the phase; every other
    eigenvalue and eigenvector is phase independent, so the full spectral
    expression collapses to lambda_1 times the pure-state Fisher
    information of that eigenvector. Both factors are evaluated
    numerically from the construction rather than from the closed form.
    """
    lam1 = float(noon_eigenvalues(params)[0])
    v = _coherent_branch(params)
    n_b = np.tile(np.arange(params.n + 1), 2)  # photon number in arm B
    norm = np.sqrt(np.vdot(v, v).real)
    u = v / norm
    du = 1j * n_b * v / norm  # d/dphi of e^(i n_B phi) u
    overlap = np.vdot(u, du)
    f1 = 4.0 * (np.vdot(du, du).real - abs(overlap) ** 2)
    return lam1 * float(f1)


def lqu_noon_closed(params: NoonChannelParams) -> float:
    """Closed-form qubit-side discord candidate 2 T^n / (1 + T^n).

    This is the longitudinal-direction value of the correlation-matrix
    construction. It is the true local quantum uncertainty for n >= 2; at
    n = 1 the transverse directions give the larger correlation
    sqrt((1 - T) / (1 + T)) and the true value is smaller, see
    :func:`local_quantum_uncertainty` for the exact optimum.
    """
    tn = params.transmittance ** params.n
    return 2.0 * tn / (1.0 + tn)


# ---------------------------------------------------------------------------
# Fidelity and the finite-difference oracle
# ---------------------------------------------------------------------------


def _density_array(x, name: str) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.matrix
    arr = as_matrix(x, name)
    tr = float(np.trace(arr).real)
    if abs(tr - 1.0) > _FIDELITY_TRACE_TOL:
        raise InvalidInputError(f"{name} must have unit trace, got {tr:.12g}")
    return arr


def _sqrt_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt of the Uhlmann fidelity, as the nuclear norm of sqrt(a) sqrt(b).

    The nuclear-norm form resolves small singular values at absolute
    machine precision, unlike eigenvalues of sqrt(a) b sqrt(a), whose
    squaring floors small weights at sqrt(eps). Identical inputs
    short-circuit to exactly 1, which keeps finite differences of constant
    families at exactly zero instead of a one-ulp artifact. Values a few
    ulps above 1 are clamped down to 1.
    """
    if a is b or np.array_equal(a, b):
        return 1.0
    sa = psd_sqrt(a, "rho")
    sb = psd_sqrt(b, "sigma")
    nuclear = float(np.linalg.svd(sa @ sb, compute_uv=False).sum())
    return min(nuclear, 1.0)


def uhlmann_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr |sqrt(rho) sqrt(sigma)|)^2 in [0, 1]."""
    a = _density_array(rho, "rho")
    b = _density_array(sigma, "sigma")
    return _sqrt_fidelity(a, b) ** 2


def _bures_distance_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Bures distance D^2 = 2 (1 - sqrt(F)), without subtracting from 1.

    D^2 = ||sqrt(a) - sqrt(b) W||_F^2 with W = U V^dagger the unitary polar
    factor of sqrt(b) sqrt(a) = U Sigma V^dagger (Uhlmann's optimal
    purification overlap). The Frobenius norm sums the differences
    themselves, so D^2 keeps its relative precision when sqrt(F) rounds
    to 1. Identical inputs short-circuit to exactly 0.
    """
    if a is b or np.array_equal(a, b):
        return 0.0
    sa = psd_sqrt(a, "rho")
    sb = psd_sqrt(b, "sigma")
    u, _, vh = np.linalg.svd(sb @ sa)
    diff = sa - sb @ (u @ vh)
    return float(np.vdot(diff, diff).real)


def qfi_fidelity_estimate(rho_of_phi, phi: float = 0.0, delta: float = 1e-3) -> float:
    """Finite-difference Fisher-information estimate from state fidelity.

    Uses F_Q ~ 8 (1 - sqrt(F(rho(phi), rho(phi + delta)))) / delta^2
    = 4 D^2 / delta^2, with the Bures distance D computed directly rather
    than as 1 - sqrt(F), which cancels once sqrt(F) is within a few ulps
    of 1. The error is the O(delta^2 F_Q) truncation, relative to F_Q,
    with no absolute roundoff floor; a phase-independent family gives
    exactly 0.
    """
    if not callable(rho_of_phi):
        raise InvalidInputError("rho_of_phi must be callable")
    delta = float(delta)
    if not 0.0 < delta <= 0.1:
        raise InvalidInputError(f"delta must lie in (0, 0.1], got {delta}")
    phi = float(phi)
    a = _density_array(rho_of_phi(phi), "rho(phi)")
    b = _density_array(rho_of_phi(phi + delta), "rho(phi + delta)")
    return 4.0 * _bures_distance_sq(a, b) / (delta * delta)


def negativity(rho: DensityMatrix, subsystem: int = 0) -> float:
    """Entanglement negativity, (||partial transpose||_1 - 1) / 2."""
    rho = _require_state(rho)
    pt = partial_transpose(rho.matrix, (rho.dim_a, rho.dim_b), subsystem)
    return _clamp_uncertainty(0.5 * (trace_norm(pt) - 1.0), "negativity")


# ---------------------------------------------------------------------------
# Fisher-information / discord identity
# ---------------------------------------------------------------------------


def _as_tolerance(tol) -> float:
    """An identity check's tolerance as a float; it must be finite and >= 0."""
    tol = float(tol)
    if not 0.0 <= tol < np.inf:
        raise InvalidInputError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


class IdentityRow(NamedTuple):
    """One grid point of the Fisher-vs-discord comparison."""

    n: int
    t2: float
    qfi: float
    discord: float
    residual: float


@dataclass(frozen=True)
class IdentityReport:
    """Result of checking F = discord * n^2 over a parameter grid."""

    rows: tuple
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    @property
    def worst(self) -> IdentityRow:
        return max(self.rows, key=lambda r: r.residual)


def identity_sweep(n: int, t2_grid, phi: float = 0.0):
    """Yield (t2, params, rho, F, DG, |F - DG * n^2|) over a transmittance grid.

    F is the closed-form Fisher information and DG the computed local
    quantum uncertainty of the lossy state (not the closed-form candidate),
    so each residual is a real cross-route comparison. Each state is built
    and validated once; callers that need more from it (negativity, the
    fidelity oracle) take ``params`` or ``rho`` from the yielded point.
    """
    grid = np.asarray(t2_grid, dtype=float).ravel()
    if grid.size == 0:
        raise InvalidInputError("the t2 grid is empty")
    for t2 in grid.tolist():
        params = NoonChannelParams.from_transmittance(n, t2, phi)
        rho = noon_lossy_density(params)
        f = qfi_noon_closed(params)
        dg = local_quantum_uncertainty(rho)
        yield t2, params, rho, f, dg, abs(f - dg * params.n * params.n)


def qfi_discord_identity_check(n_values, t2_values, tol: float = 1e-9) -> IdentityReport:
    """Compare closed-form Fisher information with discord * n^2 on a grid,
    one :func:`identity_sweep` per photon number."""
    tol = _as_tolerance(tol)
    rows = [
        IdentityRow(params.n, t2, f, dg, residual)
        for n in n_values
        for t2, params, _, f, dg, residual in identity_sweep(n, t2_values)
    ]
    if not rows:
        raise InvalidInputError("identity check needs at least one grid point")
    max_residual = max(r.residual for r in rows)
    return IdentityReport(tuple(rows), max_residual, tol)
