"""Phase-estimation metrology of the lossy interferometer family.

Three independent routes to the quantum Fisher information of the
N-photon lossy state are provided (closed form, spectral construction,
and a fidelity-based finite-difference oracle), together with the link
between the Fisher information and the qubit-side discord of the state,
and an entanglement monotone (negativity) for comparison. All three take
the channel parameters, and the spectral route and the oracle read the
block-form :class:`NoonProbe`; the oracle derives its step from n, so n delta
<= 0.01 at every n. The generic fidelity and
:func:`qfi_fidelity_estimate` take validated :class:`DensityMatrix`
states and read their roots ``sqrt``.

:func:`identity_sweep` yields the residuals of F = DG * n^2, with DG from one stacked LQU
kernel per block of grid points; it sets no tolerance, the command line's ``--tol`` does.
"""

import sys

import numpy as np

from .discord import _clamp_uncertainty, _lqu
from .errors import DimensionMismatchError, InvalidInputError
from .linalg import _eigh, _partial_transpose, as_real, as_reals
from .states import DensityMatrix, NoonChannelParams, NoonProbe, _core, _probe_traces, _require


def qfi_noon_closed(params: NoonChannelParams) -> float:
    """Quantum Fisher information of the lossy state, closed form.

    F = n^2 * 2 T^n / (1 + T^n) with T the intensity transmittance; reduces
    to the Heisenberg value n^2 at T = 1 and vanishes with the surviving
    coherence as T -> 0.
    """
    n = params.n
    if 2 * n * n > sys.float_info.max:  # before n * n * 2.0, which overflows
        raise InvalidInputError(f"photon number {n} is too large: 2 n^2 overflows a double")
    tn = params.transmittance ** n
    return n * n * 2.0 * tn / (1.0 + tn)


def qfi_noon_spectral(params: NoonChannelParams) -> float:
    """Quantum Fisher information via the spectral structure of the state.

    Only the coherent-block eigenvector carries the phase; every other
    eigenvalue and eigenvector is phase independent, so the full spectral
    expression collapses to lambda_1 = (1 + T^n) / 2 times the pure-state
    Fisher information of that eigenvector, (c, 1) on |0>_A |n>_B and
    |n>_A |0>_B with c the :class:`NoonProbe` coherence, whose photon
    numbers in arm B are (n, 0). Both factors are evaluated numerically
    from the construction rather than from the closed form.
    """
    c = NoonProbe(params).coherence
    lam1 = 0.5 * (1.0 + params.transmittance ** params.n)
    v = np.array([c, 1.0])
    n_b = np.array([params.n, 0])
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


def _uhlmann_overlap(sa: np.ndarray, sb: np.ndarray) -> tuple:
    """(sqrt F, D^2) of two states from their roots sa, sb, by one SVD
    sb sa = U Sigma V^dagger.

    sqrt F = Tr Sigma, clamped to 1, resolves small singular values at
    machine precision, where eigenvalues of sa sb^2 sa floor them at sqrt(eps).
    The squared Bures distance 2 (1 - sqrt F) is ||sa - sb W||_F^2 with the
    polar factor W = U V^dagger (Uhlmann's optimal purification overlap),
    which keeps its relative precision when sqrt F rounds to 1. Identical
    roots give exactly (1, 0), so constant families difference to zero.
    """
    if sa.shape != sb.shape:
        raise DimensionMismatchError(f"cannot compare states of sizes {sa.shape} and {sb.shape}")
    if sa is sb or np.array_equal(sa, sb):
        return 1.0, 0.0
    u, sigma, vh = np.linalg.svd(sb @ sa)
    diff = sa - sb @ (u @ vh)
    return min(float(sigma.sum()), 1.0), float(np.vdot(diff, diff).real)


def uhlmann_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr |sqrt(rho) sqrt(sigma)|)^2 in [0, 1]
    of two DensityMatrix states, from their own roots."""
    root_f, _ = _uhlmann_overlap(_require(rho, DensityMatrix).sqrt, _require(sigma, DensityMatrix).sqrt)
    return root_f ** 2


def qfi_fidelity_estimate(rho_of_phi, phi: float = 0.0, delta: float = 1e-3) -> float:
    """Finite-difference Fisher-information estimate from state fidelity,
    for a family ``rho_of_phi`` that maps a phase to a DensityMatrix.

    Uses F_Q ~ 8 (1 - sqrt(F(rho(phi), rho(phi + delta)))) / delta^2
    = 4 D^2 / delta^2, with the Bures distance D computed directly rather
    than as 1 - sqrt(F), which cancels once sqrt(F) is within a few ulps
    of 1. The error is the O(delta^2 F_Q) truncation, relative to F_Q,
    plus an absolute roundoff floor of order eps^2 / delta^2: at the
    default delta and n <= 100 the oracle reads up to ~2e-24 where F_Q is
    smaller. A phase-independent family gives exactly 0.
    """
    if not callable(rho_of_phi):
        raise InvalidInputError("rho_of_phi must be callable")
    delta = as_real(delta, "delta")
    if not 0.0 < delta <= 0.1:
        raise InvalidInputError(f"delta must lie in (0, 0.1], got {delta}")
    phi = as_real(phi, "phi")
    sa = _require(rho_of_phi(phi), DensityMatrix).sqrt
    sb = _require(rho_of_phi(phi + delta), DensityMatrix).sqrt
    return 4.0 * _uhlmann_overlap(sa, sb)[1] / (delta * delta)


def _oracle_step(n: int) -> float:
    """The lossy oracle's step, 1e-3 to n = 10 and 1e-2 / n past it, so n delta <= 0.01."""
    return min(1e-3, 1e-2 / n)


def qfi_noon_oracle(params: NoonChannelParams) -> float:
    """:func:`qfi_fidelity_estimate` of the lossy family at ``params``, phi -> phi + delta,
    from the two 2 x 2 core roots alone: the loss rows do not depend on phi, and fidelity
    is additive over a shared block decomposition (Jozsa, J. Mod. Opt. 41, 2315 (1994)),
    so they add exactly 0 to D^2. The second root is the core at c e^(i n delta), with c
    the probe's coherence at phi, so the phase step is n delta to a few ulps at any phi;
    fl(phi + delta) - phi is off delta by up to ulp(phi) / 2. Still one numerical SVD, not
    the closed form. The step delta = min(1e-3, 1e-2 / n) keeps n delta <= 0.01, so the
    relative truncation (n delta)^2 / 12 stays below (0.01)^2 / 12 ~ 8.4e-6 at every n,
    over an absolute roundoff floor of order eps^2 / delta^2.
    """
    c, delta = NoonProbe(params).coherence, _oracle_step(params.n)
    sb = _core(c * np.exp(1j * params.n * delta))[1]
    return 4.0 * _uhlmann_overlap(_core(c)[1], sb)[1] / (delta * delta)


def negativity(rho: DensityMatrix) -> float:
    """Entanglement negativity, (||rho^(T_A)||_1 - Tr rho) / 2; rho^(T_B) = rho^(T_A)^T.

    The trace norm is the sum of |eigenvalue| of the Hermitian part of the
    partial transpose, eigenvalues only, from :func:`_eigh`; :meth:`NoonProbe.negativity`
    gives the lossy probe's in closed form. The state's own trace, not 1, so a
    trace within TRACE_TOL of 1 never pushes the value below zero:
    ||X||_1 >= |Tr X| for Hermitian X.
    """
    rho = _require(rho, DensityMatrix)
    w = _eigh(_partial_transpose(rho.matrix, rho.dim_a, rho.dim_b), "partial transpose", vectors=False)
    norm = np.abs(w).sum()
    val = 0.5 * (norm - rho.matrix.trace().real)
    return _clamp_uncertainty(val, "negativity")


# ---------------------------------------------------------------------------
# Fisher-information / discord identity
# ---------------------------------------------------------------------------

#: Grid points per stacked LQU call of :func:`identity_sweep`, which bounds its memory.
_SWEEP_BLOCK = 1024


def identity_sweep(n: int, t2_grid, phi: float = 0.0):
    """Yield (t2, params, probe, F, DG, |F - DG * n^2|) over a transmittance grid.

    ``probe`` is the lossy state as a :class:`NoonProbe`, with no dense matrix. F is the
    closed-form Fisher information and DG the probe's :func:`local_quantum_uncertainty` from its
    block traces (not the closed-form candidate), so each residual is a real cross-route check:
    roundoff for n >= 2, the gap to the exact single-photon LQU at n = 1. The phase ``phi`` is a
    local unitary on B: F ignores it, DG to roundoff. Each block of ``_SWEEP_BLOCK`` points is
    validated whole before its first row, and takes its DGs from one stacked LQU kernel call.
    """
    grid = as_reals(t2_grid, "t2 grid", 0)
    if not grid:
        raise InvalidInputError("the t2 grid is empty")
    for start in range(0, len(grid), _SWEEP_BLOCK):
        block = grid[start:start + _SWEEP_BLOCK]
        probes = [NoonProbe(NoonChannelParams.from_transmittance(n, t2, phi)) for t2 in block]
        w0, loss, x = np.array([(p.w0, p.loss_total, abs(p.coherence) ** 2) for p in probes]).T
        for t2, probe, dg in zip(block, probes, _lqu(_probe_traces(w0, loss, x)).tolist()):
            f = qfi_noon_closed(probe.params)
            yield t2, probe.params, probe, f, dg, abs(f - dg * probe.params.n * probe.params.n)
