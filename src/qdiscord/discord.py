"""Uncertainty-based correlation measures for bipartite states.

A von Neumann measurement on subsystem A is represented by the unitary
whose columns are the measured directions. Two numbers are attached to a
measurement: the spectrum-free measurement uncertainty Q, built from the
off-diagonal blocks of sqrt(rho) in the measurement basis, and the
observable uncertainty U, which additionally weights each block pair by
the squared gap of the eigenvalues assigned to the two directions.
Minimizing either quantity over all measurements (exactly for a qubit on
side A, by seeded sampling otherwise) yields a discord-like measure of
quantum correlations.
"""

from dataclasses import dataclass
from itertools import combinations, permutations
from math import sqrt
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    InvalidInputError,
    NotPSDError,
)
from .linalg import (
    _haar_stack,
    _seeded_normals,
    _splitmix64,
    as_count,
    as_matrix,
    as_reals,
    as_seed,
    require_hermitian,
)
from .states import (
    DensityMatrix,
    NoonProbe,
    PureBipartiteState,
    _readonly,
    _require,
    _schmidt_weights,
    schmidt_decompose,
)

#: Assigned eigenvalues closer than this are rejected as indistinguishable.
MIN_SPECTRUM_GAP = 1e-9

#: Uncertainty values in [-NEGATIVE_UNCERTAINTY_TOL, 0) are roundoff and
#: clamped to zero; anything more negative signals a corrupt input.
NEGATIVE_UNCERTAINTY_TOL = 1e-12

#: Default observable spectrum for a qubit measurement. The gap is sqrt(2),
#: so the pair weight (gap^2)/2 is exactly 1 and U coincides with Q on
#: two-dimensional A.
DEFAULT_QUBIT_SPECTRUM = (sqrt(2.0) / 2.0, -sqrt(2.0) / 2.0)

#: Default observable spectrum for a qutrit measurement.
DEFAULT_QUTRIT_SPECTRUM = (4.0, 3.0, 2.0)

#: Pauli X, Y, Z on a two-level A, stacked along axis 0.
_PAULIS = np.array(
    [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]
)


def _clamp_uncertainty(value, what: str = "uncertainty"):
    """Clamp roundoff negatives in [-NEGATIVE_UNCERTAINTY_TOL, 0) to 0.0.

    Works elementwise on arrays; a float gives a float. NaN or a value
    below the tolerance raises :class:`NotPSDError`. -0.0 is kept as is.
    """
    if isinstance(value, float) and value >= -NEGATIVE_UNCERTAINTY_TOL:  # np.float64 is a float
        return 0.0 if value < 0.0 else float(value)
    arr = np.asarray(value, dtype=float)
    bad = ~(arr >= -NEGATIVE_UNCERTAINTY_TOL)
    if bad.any():
        raise NotPSDError(
            f"{what} evaluated to {arr[bad][0]:.3e}, beyond roundoff tolerance"
        )
    clamped = np.where(arr < 0.0, 0.0, arr)
    return clamped if clamped.ndim else float(clamped)


@dataclass(frozen=True)
class MeasurementSpectrum:
    """Eigenvalues assigned to the outcomes of a measurement on A, given as
    a list, tuple or 1-D array of real non-bool numbers; stored as floats."""

    values: tuple

    def __post_init__(self):
        vals = tuple(as_reals(self.values, "spectrum", 2))
        spread = float(np.ptp(vals))
        if not np.isfinite(spread * spread):
            raise InvalidInputError("spectrum values and their squared gaps must be finite")
        for a, b in combinations(vals, 2):
            if abs(a - b) <= MIN_SPECTRUM_GAP:
                raise DegenerateSpectrumError(
                    f"eigenvalues {a} and {b} differ by less than {MIN_SPECTRUM_GAP:.0e}"
                )
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return len(self.values)

    def gap_squared_matrix(self) -> np.ndarray:
        """Matrix of (v_j - v_k)^2 over all index pairs."""
        v = np.asarray(self.values)
        d = v[:, None] - v[None, :]
        return d * d

    @classmethod
    def default(cls, dim_a: int):
        """Package default spectrum for a measurement on a space of size dim_a."""
        if dim_a == 2:
            return cls(DEFAULT_QUBIT_SPECTRUM)
        if dim_a == 3:
            return cls(DEFAULT_QUTRIT_SPECTRUM)
        raise InvalidInputError(
            f"no default spectrum for dim_a = {dim_a}; pass one explicitly"
        )


def _as_spectrum(spectrum, size: int) -> MeasurementSpectrum:
    """Coerce to a MeasurementSpectrum that has exactly ``size`` values."""
    if not isinstance(spectrum, MeasurementSpectrum):
        spectrum = MeasurementSpectrum(spectrum)
    if spectrum.size != size:
        raise DimensionMismatchError(
            f"spectrum has {spectrum.size} values, expected {size}"
        )
    return spectrum


#: Max absolute entry of (U^dagger U - I) accepted as unitary.
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class VonNeumannBasis:
    """Orthonormal measurement basis on subsystem A, stored as a unitary.

    Column j of ``unitary`` is the j-th measured direction.
    """

    unitary: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.unitary, "basis")
        if u.size == 0:
            raise InvalidInputError("basis must be at least 1 x 1")
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        if not dev <= UNITARITY_TOL:
            raise InvalidInputError(
                f"basis is not unitary: max |U^dagger U - I| = {dev:.3e}"
            )
        object.__setattr__(self, "unitary", _readonly(u))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def projector(self, j: int) -> np.ndarray:
        """Rank-1 projector onto the j-th measured direction."""
        j = as_count(j, "direction index", 0)
        if j >= self.dim:
            raise IndexError(f"direction index {j} out of range for dim {self.dim}")
        col = self.unitary[:, j]
        return np.outer(col, col.conj())

    @classmethod
    def computational(cls, dim: int):
        return cls(np.eye(as_count(dim, "dim"), dtype=complex))

    @classmethod
    def from_seed(cls, dim: int, seed: int):
        """Reproducible Haar-random basis from a seed in [0, 2**64).

        This is the inverse of the seed bookkeeping in the scan routines: a
        recorded seed rebuilds exactly the basis that produced a scan row,
        as the scan draws each chunk with the same seeded-normal function.
        """
        dim, seed = as_count(dim, "dimension"), as_seed(seed)
        return cls(_haar_stack(_seeded_normals([seed], (2, dim, dim)))[0])


def _upper_pairs(dim: int) -> np.ndarray:
    """Row and column indices (i, j) of the entries above the diagonal."""
    return np.array(list(combinations(range(dim), 2)), dtype=int).reshape(-1, 2).T


def _hermitian_form(t: np.ndarray) -> tuple:
    """Per-state data (R, c, Tr rho_A) of the kernel, from the block traces.

    A Hermitian P on A has real coordinates h = (P_aa; Re P_ab; Im P_ab for
    a < b), so that P = sum_k h_k G_k with G = E_aa, E_ab + E_ba and
    i (E_ab - E_ba). Then Tr[S (P x I) S (P' x I)] = h R h' for the real
    symmetric R_kl = sum G_k[b, c] G_l[d, a] T[a, b, c, d], and
    Tr(rho_A P) = c . h. Both are gathers and sums of entries of T.
    """
    da = t.shape[0]
    d, (i, j) = np.arange(da), _upper_pairs(da)

    def coords(a):  # sum_pq G_k[p, q] a[p, q, ...] over the leading two axes
        return np.concatenate([a[d, d], a[i, j] + a[j, i], 1j * (a[i, j] - a[j, i])])

    r = coords(coords(t.transpose(1, 2, 3, 0)).transpose(1, 2, 0)).real.T
    return r, coords(np.einsum("abbd->da", t)).real, np.einsum("abba->", t).real


def _ordered_sum(x: np.ndarray, weights) -> np.ndarray:
    """sum_j weights[j] x[j] over axis 0, added in the order j = 0, 1, ..."""
    return sum((xj * wj for xj, wj in zip(x[1:], weights[1:])), x[0] * weights[0])


def _form_uncertainties(form: tuple, unitaries: np.ndarray, spectrum=None) -> tuple:
    """Clamped Q and, given a MeasurementSpectrum, U (else None) of each basis
    in a stack (n, dim_a, dim_a), from the :func:`_hermitian_form` of a state.

    With h_j the coordinates of the projector on column j,
    Q = Tr rho_A - sum_j h_j R h_j and U = sum_j v_j^2 c . h_j - z R z for
    z = sum_j v_j h_j, the coordinates of the observable. U ignores a
    common shift of the v_j, so they are centred on their midrange to keep
    its cancellation small. Every h is built elementwise, and every sum is
    an elementwise numpy add or a plain einsum, which runs its own loops in
    a fixed order (no BLAS), so a basis gives the same bits in any stack.
    """
    r, c, trace = form
    n, da = unitaries.shape[:2]
    i, j = _upper_pairs(da)
    m, cols = i.size, n * da
    # parts[:, a, k * n + s]: (Re, Im) of entry a of column k of basis s.
    parts = np.array([unitaries.real, unitaries.imag]).transpose(0, 2, 3, 1).reshape(2, da, cols)
    h = np.empty((da * da, cols if spectrum is None else cols + n))
    sq = parts * parts
    np.add(sq[0], sq[1], out=h[:da, :cols])
    p = parts[:, i] * parts[:, j]
    np.add(p[0], p[1], out=h[da:da + m, :cols])
    p = parts[::-1, i] * parts[:, j]
    np.subtract(p[0], p[1], out=h[da + m:, :cols])
    if spectrum is not None:
        v = np.subtract(spectrum.values, 0.5 * (max(spectrum.values) + min(spectrum.values)))
        h[:, cols:] = _ordered_sum(h[:, :cols].reshape(-1, da, n).transpose(1, 0, 2), v)
    # einsum keeps the column axis innermost and sums over k, l in order; a
    # lone column (only at dim_a = 1, in one-term sums) would reduce in SIMD.
    quad = np.einsum("km,km->m", h, np.einsum("kl,lm->km", r, h))
    q = trace - _ordered_sum(quad[:cols].reshape(da, n), np.ones(da))
    q = _clamp_uncertainty(q, "measurement uncertainty")
    if spectrum is None:
        return q, None
    u = _ordered_sum(np.einsum("k,km->m", c, h[:, :cols]).reshape(da, n), v * v) - quad[cols:]
    return q, _clamp_uncertainty(u, "observable uncertainty")


def _check_basis(rho, basis: VonNeumannBasis) -> DensityMatrix:
    rho = _require(rho, DensityMatrix)
    if _require(basis, VonNeumannBasis).dim != rho.dim_a:
        raise DimensionMismatchError(
            f"basis dimension {basis.dim} does not match dim_a = {rho.dim_a}"
        )
    return rho


def skew_information(rho, observable) -> float:
    """Skew information of the state with respect to a Hermitian observable.

    Defined as Tr(rho M^2) - Tr(sqrt(rho) M sqrt(rho) M); zero exactly when
    the observable commutes with the state, and bounded by the variance.
    Both terms read rho as sqrt(rho)^2, so the value is computed as
    ||[sqrt(rho), M]||_F^2 / 2 and is >= 0 for every validated state.
    """
    rho = _require(rho, DensityMatrix)
    m = require_hermitian(observable, name="observable")
    if m.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"observable dimension {m.shape[0]} does not match state dimension {rho.dim}"
        )
    sm = rho.sqrt @ m
    c = sm - sm.conj().T  # [sqrt(rho), M], as M sqrt(rho) = (sqrt(rho) M)^dagger
    return _clamp_uncertainty(0.5 * float(np.vdot(c, c).real), "skew information")


def measurement_uncertainty(rho, basis: VonNeumannBasis) -> float:
    """Total quantum uncertainty Q of a von Neumann measurement on A.

    Q = 2 * sum_{j<k} Tr_B[B_jk B_kj]; it vanishes exactly on
    classical-quantum states measured in their classical basis.
    """
    rho = _check_basis(rho, basis)
    return float(_form_uncertainties(_hermitian_form(rho.block_traces()), basis.unitary[None])[0][0])


def observable_uncertainty(rho, basis: VonNeumannBasis, spectrum) -> float:
    """Eigenvalue-weighted uncertainty U of a measured observable.

    U = sum_{j<k} (v_j - v_k)^2 Tr_B[B_jk B_kj] where v_j is the spectrum
    value assigned to direction j. Equals the skew information of the
    observable sum_j v_j |u_j><u_j| tensored with the identity on B.
    """
    rho = _check_basis(rho, basis)
    spectrum = _as_spectrum(spectrum, rho.dim_a)
    form = _hermitian_form(rho.block_traces())
    return float(_form_uncertainties(form, basis.unitary[None], spectrum)[1][0])


# ---------------------------------------------------------------------------
# Pure-state closed forms
# ---------------------------------------------------------------------------


def _as_probabilities(state) -> np.ndarray:
    """Schmidt probability weights: a PureBipartiteState's squared singular
    values, descending, or weights given directly, through the weight check."""
    if isinstance(state, PureBipartiteState):
        return schmidt_decompose(state)[0] ** 2
    return _schmidt_weights(state)


def geometric_discord_pure(state) -> float:
    """Minimal measurement uncertainty of a pure bipartite state.

    For pure states the minimum of Q over measurements is attained in the
    Schmidt basis and equals 2 * sum_{j<k} p_j p_k = 1 - sum_j p_j^2 with
    p the Schmidt probabilities. Accepts a PureBipartiteState or the
    probabilities directly.
    """
    p = _as_probabilities(state)
    return _clamp_uncertainty(float(1.0 - np.sum(p * p)))


class AssignmentResult(NamedTuple):
    """Minimal pure-state observable uncertainty and its optimal assignment.

    ``assignment[j]`` is the index into the spectrum of the eigenvalue
    placed on weight slot j, with slots in the order the weights were
    given (descending, then zeros up to dim_a, for a PureBipartiteState).
    """

    value: float
    assignment: tuple


def _assignment_costs(p: np.ndarray, spectrum: MeasurementSpectrum):
    """Orderings ``perms`` of the spectrum, in itertools.permutations order,
    and ``cost[i, r]``, the pure-state U of ``perms[i]`` at weight row p[r].

    Pairs are added in the order (0, 1), (0, 2), ..., (m-2, m-1), each term
    as (gap^2 * p_j) * p_k: at exact ties roundoff picks the minimum, so the
    order fixes the labels and must not change.
    """
    perms = np.array(list(permutations(range(spectrum.size))))
    gaps, rows = spectrum.gap_squared_matrix(), np.ascontiguousarray(p.T)
    cost, term = np.zeros((len(perms), len(p))), np.empty((len(perms), len(p)))
    for j, k in combinations(range(spectrum.size), 2):  # in place: no fresh (m!, len(p)) temporaries
        np.multiply(gaps[perms[:, j], perms[:, k]][:, None], rows[j], out=term)
        term *= rows[k]
        cost += term
    return perms, cost


def min_uncertainty_assignment(state, spectrum) -> AssignmentResult:
    """Minimize the pure-state observable uncertainty over eigenvalue orderings.

    In the Schmidt basis U reduces to sum_{j<k} (a_j - a_k)^2 p_j p_k where
    a is a permutation of the spectrum; the minimum over the measurement
    then only requires searching the permutations. Ties are resolved toward
    the lexicographically smallest assignment tuple, which makes region
    labels on probability grids deterministic. A PureBipartiteState
    measured on A has one weight per level of A, zero past its Schmidt rank.
    """
    p = _as_probabilities(state)
    if isinstance(state, PureBipartiteState):
        # Padded here only: past 8 entries, trailing zeros regroup np.sum's
        # partial sums and would move geometric_discord_pure's last bit.
        p = np.pad(p, (0, state.dim_a - p.size))
    perms, cost = _assignment_costs(p[None, :], _as_spectrum(spectrum, p.size))
    best = int(np.argmin(cost[:, 0]))
    return AssignmentResult(float(cost[best, 0]), tuple(perms[best].tolist()))


# ---------------------------------------------------------------------------
# Qubit-side closed forms
# ---------------------------------------------------------------------------


def local_quantum_uncertainty(rho) -> float:
    """Minimal observable uncertainty on a qubit A with a +/-1 spectrum.

    Closed form: Tr(sqrt(rho) sqrt(rho)) minus the largest eigenvalue of the
    3x3 real symmetric Pauli correlation matrix
    W_ij = Tr[sqrt(rho) (s_i x I) sqrt(rho) (s_j x I)], the skew information
    of the best unit Bloch direction. From the block traces T of a
    DensityMatrix or a NoonProbe, the trace is sum T_abba and
    W_ij = sum s_i[b,c] s_j[d,a] T_abcd. Only defined for dim_a = 2, where
    the minimization is exact. The value is :func:`_lqu` of the one state.
    """
    rho = _require(rho, DensityMatrix, NoonProbe)
    if rho.dim_a != 2:
        raise DimensionMismatchError(
            f"closed form requires dim_a = 2, got dim_a = {rho.dim_a}"
        )
    return _lqu(rho.block_traces())


def _lqu(t: np.ndarray):
    """Clamped :func:`local_quantum_uncertainty` of each state in a stack (..., 2, 2, 2, 2)
    of block traces, a float for one state. einsum sums in an order set by the memory layout,
    so T is taken C-contiguous; then each entry has the bits of its state alone, as eigvalsh
    (W is real symmetric; its top eigenvalue needs no eigenvectors) solves matrix by matrix."""
    t = np.ascontiguousarray(t)
    w = np.einsum("ibc,jda,...abcd->...ij", _PAULIS, _PAULIS, t).real
    top = np.linalg.eigvalsh(w)[..., -1]
    return _clamp_uncertainty(np.einsum("...abba->...", t).real - top, "local quantum uncertainty")


def geometric_discord_qubit(rho) -> float:
    """Minimal measurement uncertainty Q for a qubit on side A.

    For dim_a = 2 every observable spectrum gives U = (gap^2 / 2) * Q at
    fixed measurement, so the minimizers coincide and
    min Q = local_quantum_uncertainty / 2 exactly (the +/-1 spectrum has
    gap^2 / 2 = 2).
    """
    return 0.5 * local_quantum_uncertainty(rho)


# ---------------------------------------------------------------------------
# Seeded measurement scans
# ---------------------------------------------------------------------------


#: Bases per batch of a scan: one SplitMix64 pass, one Gram-Schmidt draw
#: and one quadratic-form evaluation per chunk. Whole scans (dB = 3, one
#: BLAS thread, medians of 30, us per basis at 128/256/512/1024): dA = 2
#: 3.2/2.1/1.6/1.4, dA = 3 5.1/3.6/3.1/3.3, dA = 4 7.8/5.9/5.6/6.1, dA = 6
#: 18.0/15.5/19.5/21.7; fig1_scan ran 9-14 % faster at 512 than at 256.
_SCAN_CHUNK = 512


def derive_child_seeds(master_seed: int, count: int) -> np.ndarray:
    """Per-sample seeds: outputs 1..count of SplitMix64 from state master_seed.

    Sample i gets the same seed however the scan is chunked, so recorded
    seeds reproduce their basis via :meth:`VonNeumannBasis.from_seed`, and
    the seeds are distinct, as SplitMix64's mix is a bijection. Each seed
    keys a SplitMix64 stream; two of n share words only if they differ by
    k gamma (its increment), |k| < 2 dim_a^2: odds ~n^2 2 dim_a^2 / 2**64.
    """
    master = np.array([as_seed(master_seed, "master_seed")], dtype=np.uint64)
    return _splitmix64(master, as_count(count, "count"))[0]


@dataclass(frozen=True)
class UncertaintyScan:
    """Record of a seeded random-measurement scan.

    ``q_values[i]`` is the measurement uncertainty for the basis rebuilt
    from ``seeds[i]``; ``u_values`` is present when a spectrum was scanned.
    The optimized quantity is U when a spectrum is present, Q otherwise.
    """

    dim_a: int
    dim_b: int
    master_seed: int
    spectrum: object
    seeds: np.ndarray
    q_values: np.ndarray
    u_values: object

    @property
    def samples(self) -> int:
        return self.seeds.size

    @property
    def values(self) -> np.ndarray:
        """The scanned objective: U if a spectrum was given, else Q."""
        return self.q_values if self.u_values is None else self.u_values

    @property
    def minimum(self) -> float:
        return float(self.values.min())

    @property
    def maximum(self) -> float:
        return float(self.values.max())

    @property
    def argmin_seed(self) -> int:
        return self.seeds[np.argmin(self.values)].item()


def scan_uncertainty(rho, spectrum=None, samples: int = 1000, master_seed: int = 0) -> UncertaintyScan:
    """Evaluate Q (and U, if a spectrum is given) over seeded random bases.

    Bases are Haar random on subsystem A, one per derived child seed, drawn
    from its SplitMix64 stream and evaluated in chunks of ``_SCAN_CHUNK``.
    Results are deterministic in (rho, spectrum, samples, master_seed) and
    independent of evaluation order: each chunk goes through the evaluator
    of :func:`measurement_uncertainty` and :func:`observable_uncertainty`
    (with the state's form built once), so each row is bitwise their value
    for the basis :meth:`VonNeumannBasis.from_seed` rebuilds.
    """
    rho = _require(rho, DensityMatrix)
    samples = as_count(samples, "samples")
    master_seed = as_seed(master_seed, "master_seed")
    spectrum = None if spectrum is None else _as_spectrum(spectrum, rho.dim_a)
    form = _hermitian_form(rho.block_traces())
    seeds = derive_child_seeds(master_seed, samples)
    shape = (2, rho.dim_a, rho.dim_a)
    draws = (_seeded_normals(seeds[i:i + _SCAN_CHUNK], shape) for i in range(0, samples, _SCAN_CHUNK))
    chunks = [_form_uncertainties(form, _haar_stack(draw), spectrum) for draw in draws]
    q_values = np.concatenate([q for q, _ in chunks])
    u_values = None if spectrum is None else np.concatenate([u for _, u in chunks])
    return UncertaintyScan(
        rho.dim_a, rho.dim_b, master_seed, spectrum, seeds, q_values, u_values
    )


def minimize_uncertainty(rho, spectrum=None, samples: int = 1000, master_seed: int = 0) -> UncertaintyScan:
    """Sampled minimum and maximum of Q (or U with a spectrum) over bases.

    Returns the scan, whose ``minimum``, ``maximum`` and ``argmin_seed``
    are the bounds and the child seed of the best basis, which
    :meth:`VonNeumannBasis.from_seed` turns back into the measurement. No
    convergence claim is made for dim_a >= 3; the minimum is an upper bound
    on the true minimum that improves with ``samples``.
    """
    return scan_uncertainty(rho, spectrum, samples, master_seed)
