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
    _hermitian_part,
    _seeded_normals,
    _split_eig,
    as_count,
    as_matrix,
    haar_unitary,
    require_hermitian,
)
from .states import (
    DensityMatrix,
    PureBipartiteState,
    SchmidtDecomposition,
    _schmidt_weights,
    schmidt_decompose,
)
from .tables import write_csv

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
    """Eigenvalues assigned to the outcomes of a measurement on A."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in np.asarray(self.values, dtype=float).ravel())
        if len(vals) < 2:
            raise InvalidInputError("spectrum needs at least two eigenvalues")
        spread = float(np.ptp(vals))
        if not np.isfinite(spread * spread):
            raise InvalidInputError("spectrum values and their squared gaps must be finite")
        for j in range(len(vals)):
            for k in range(j + 1, len(vals)):
                if abs(vals[j] - vals[k]) <= MIN_SPECTRUM_GAP:
                    raise DegenerateSpectrumError(
                        f"eigenvalues {vals[j]} and {vals[k]} differ by less than "
                        f"{MIN_SPECTRUM_GAP:.0e}"
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
        spectrum = MeasurementSpectrum(tuple(spectrum))
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
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def projector(self, j: int) -> np.ndarray:
        """Rank-1 projector onto the j-th measured direction."""
        if not 0 <= j < self.dim:
            raise IndexError(f"direction index {j} out of range for dim {self.dim}")
        col = self.unitary[:, j]
        return np.outer(col, col.conj())

    @classmethod
    def computational(cls, dim: int):
        return cls(np.eye(as_count(dim, "dim"), dtype=complex))

    @classmethod
    def haar_random(cls, dim: int, rng: np.random.Generator):
        return cls(haar_unitary(dim, rng))

    @classmethod
    def from_seed(cls, dim: int, seed: int):
        """Reproducible Haar-random basis from a seed in [0, 2**64).

        This is the inverse of the seed bookkeeping in the scan routines: a
        recorded seed rebuilds exactly the basis that produced a scan row,
        as the scan draws each chunk with the same seeded-normal function.
        """
        dim, seed = as_count(dim, "dimension"), as_count(seed, "seed", 0)
        if seed >= 2**64:
            raise InvalidInputError(f"seed must be below 2**64, got {seed}")
        return cls(_haar_stack(_seeded_normals([seed], (2, dim, dim)))[0])


def _require_state(rho) -> DensityMatrix:
    if not isinstance(rho, DensityMatrix):
        raise InvalidInputError(
            "expected a DensityMatrix (wrap raw arrays so dimensions are explicit)"
        )
    return rho


def _block_traces(rho: DensityMatrix) -> np.ndarray:
    """T[a, b, c, d] = Tr_B(S_ab S_cd) over the B-space blocks S_ab of sqrt(rho).

    Every pair trace below (Q, U, the scans and the qubit correlation
    matrix) is a contraction of T with operators on A alone, so B is traced
    out once per state, at O(dim_a^4 dim_b^2).
    """
    s4 = rho.sqrt.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return np.tensordot(s4, s4, axes=([1, 3], [3, 1]))


def _pair_trace_matrix(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Matrices of Tr[B_jk B_kj] over direction pairs, diagonals zeroed.

    ``u`` is a stack (n, dim_a, dim_a) of unitaries and the result has the
    same shape. B_jk = sum_ab conj(u_aj) u_bk S_ab is the B-space block
    <u_j| sqrt(rho) |u_k> in the measurement basis with columns u_j, so
    V_jk = sum conj(u_aj) u_bk conj(u_ck) u_dj T_abcd for the block traces
    T of :func:`_block_traces`. Each basis costs O(dim_a^5), against
    O(dim_a^3 dim_b^2) for contracting the blocks of sqrt(rho) directly;
    it is never slower when dim_b >= dim_a. The first contraction is one
    matrix product per basis, so a basis gives the same bits in a stack of
    any size; a single basis is a stack of one.
    """
    n, da = u.shape[:2]
    x = np.matmul(u.conj().transpose(0, 2, 1), t.reshape(da, -1))
    y = np.einsum("njbcd,ndj->njbc", x.reshape(n, da, da, da, da), u)
    v = np.einsum("njbc,nbk,nck->njk", y, u, u.conj()).real
    diag = np.arange(da)
    v[:, diag, diag] = 0.0
    return v


def _check_basis(rho: DensityMatrix, basis: VonNeumannBasis) -> None:
    if basis.dim != rho.dim_a:
        raise DimensionMismatchError(
            f"basis dimension {basis.dim} does not match dim_a = {rho.dim_a}"
        )


def skew_information(rho, observable) -> float:
    """Skew information of the state with respect to a Hermitian observable.

    Defined as Tr(rho M^2) - Tr(sqrt(rho) M sqrt(rho) M); zero exactly when
    the observable commutes with the state, and bounded by the variance.
    Both terms read rho as sqrt(rho)^2, so the value is computed as
    ||[sqrt(rho), M]||_F^2 / 2 and is >= 0 for every validated state.
    """
    rho = _require_state(rho)
    m = require_hermitian(observable, name="observable")
    if m.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"observable dimension {m.shape[0]} does not match state dimension {rho.dim}"
        )
    sm = rho.sqrt @ m
    c = sm - sm.conj().T  # [sqrt(rho), M], as M sqrt(rho) = (sqrt(rho) M)^dagger
    return _clamp_uncertainty(0.5 * float(np.vdot(c, c).real), "skew information")


def uncertainty_term(rho, basis: VonNeumannBasis, j: int, k: int) -> float:
    """B-traced uncertainty contribution of one direction pair.

    For j != k this is Tr_B[B_jk B_kj] with B_jk = <u_j|sqrt(rho)|u_k>.
    For j == k it is the per-projector quantity
    Tr_B[<u_j|rho|u_j> - B_jj^2], with rho read as sqrt(rho)^2 like the
    skew information, which for a two-dimensional A equals the
    off-diagonal term; that identity is what makes Q basis-block
    computable.
    """
    rho = _require_state(rho)
    _check_basis(rho, basis)
    da, db = rho.dim_a, rho.dim_b
    for idx in (j, k):
        if not 0 <= idx < da:
            raise IndexError(f"direction index {idx} out of range for dim_a = {da}")
    s4 = rho.sqrt.reshape(da, db, da, db)
    uj = basis.unitary[:, j]
    uk = basis.unitary[:, k]
    b_jk = np.einsum("a,abcd,c->bd", uj.conj(), s4, uk)
    if j != k:
        b_kj = np.einsum("a,abcd,c->bd", uk.conj(), s4, uj)
        val = np.trace(b_jk @ b_kj).real
    else:
        r4 = (rho.sqrt @ rho.sqrt).reshape(da, db, da, db)
        rho_jj = np.einsum("a,abcd,c->bd", uj.conj(), r4, uj)
        val = np.trace(rho_jj - b_jk @ b_jk).real
    return _clamp_uncertainty(float(val), "uncertainty term")


def measurement_uncertainty(rho, basis: VonNeumannBasis) -> float:
    """Total quantum uncertainty Q of a von Neumann measurement on A.

    Q = 2 * sum_{j<k} Tr_B[B_jk B_kj]; it vanishes exactly on
    classical-quantum states measured in their classical basis.
    """
    rho = _require_state(rho)
    _check_basis(rho, basis)
    v = _pair_trace_matrix(_block_traces(rho), basis.unitary[None])
    return _clamp_uncertainty(float(v.sum(axis=(1, 2))[0]), "measurement uncertainty")


def observable_uncertainty(rho, basis: VonNeumannBasis, spectrum) -> float:
    """Eigenvalue-weighted uncertainty U of a measured observable.

    U = sum_{j<k} (v_j - v_k)^2 Tr_B[B_jk B_kj] where v_j is the spectrum
    value assigned to direction j. Equals the skew information of the
    observable sum_j v_j |u_j><u_j| tensored with the identity on B.
    """
    rho = _require_state(rho)
    _check_basis(rho, basis)
    gaps = _as_spectrum(spectrum, rho.dim_a).gap_squared_matrix()
    v = _pair_trace_matrix(_block_traces(rho), basis.unitary[None])
    val = 0.5 * float((gaps * v).sum(axis=(1, 2))[0])
    return _clamp_uncertainty(val, "observable uncertainty")


# ---------------------------------------------------------------------------
# Pure-state closed forms
# ---------------------------------------------------------------------------


def _as_probabilities(state) -> np.ndarray:
    """Schmidt probability weights from any of the accepted state forms."""
    if isinstance(state, SchmidtDecomposition):
        return state.probabilities
    if isinstance(state, PureBipartiteState):
        return schmidt_decompose(state).probabilities
    p = np.asarray(state, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise InvalidInputError(
            "expected Schmidt data or a 1-D probability sequence of length >= 2"
        )
    return _schmidt_weights(p)


def geometric_discord_pure(state) -> float:
    """Minimal measurement uncertainty of a pure bipartite state.

    For pure states the minimum of Q over measurements is attained in the
    Schmidt basis and equals 2 * sum_{j<k} p_j p_k = 1 - sum_j p_j^2 with
    p the Schmidt probabilities. Accepts a SchmidtDecomposition, a
    PureBipartiteState, or the probabilities directly.
    """
    p = _as_probabilities(state)
    return _clamp_uncertainty(float(1.0 - np.sum(p * p)))


class AssignmentResult(NamedTuple):
    """Minimal pure-state observable uncertainty and its optimal assignment.

    ``assignment[j]`` is the index into the spectrum of the eigenvalue
    placed on weight slot j, with slots in the order the weights were
    given (descending when they come from a Schmidt decomposition).
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
    gaps = spectrum.gap_squared_matrix()
    cost = np.zeros((len(perms), len(p)))
    for j, k in combinations(range(spectrum.size), 2):
        cost += gaps[perms[:, j], perms[:, k]][:, None] * p[:, j] * p[:, k]
    return perms, cost


def min_uncertainty_assignment(state, spectrum) -> AssignmentResult:
    """Minimize the pure-state observable uncertainty over eigenvalue orderings.

    In the Schmidt basis U reduces to sum_{j<k} (a_j - a_k)^2 p_j p_k where
    a is a permutation of the spectrum; the minimum over the measurement
    then only requires searching the permutations. Ties are resolved toward
    the lexicographically smallest assignment tuple, which makes region
    labels on probability grids deterministic.
    """
    p = _as_probabilities(state)
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
    of the best unit Bloch direction. From the block traces T, the trace is
    sum T_abba and W_ij = sum s_i[b,c] s_j[d,a] T_abcd. Only defined for
    dim_a = 2, where the minimization is exact.
    """
    rho = _require_state(rho)
    if rho.dim_a != 2:
        raise DimensionMismatchError(
            f"closed form requires dim_a = 2, got dim_a = {rho.dim_a}"
        )
    t = _block_traces(rho)
    # Complex, so W takes the same zheevd as every other Hermitian matrix here.
    w = np.einsum("ibc,jda,abcd->ij", _PAULIS, _PAULIS, t).real.astype(complex)
    top = _split_eig(_hermitian_part(w), "correlation matrix").highest
    val = float(np.einsum("abba->", t).real - top)
    return _clamp_uncertainty(val, "local quantum uncertainty")


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


#: Bases per batch of a scan: one SplitMix64 pass, one QR and one
#: contraction with T per chunk (per basis at dA = dB = 3: 0.7, 1.4, 2.7 us).
#: Larger chunks run no faster and grow the k x dim_a^4 intermediate.
_SCAN_CHUNK = 256


def derive_child_seeds(master_seed: int, count: int) -> np.ndarray:
    """Stream of per-sample seeds derived from one master seed.

    Pure function of (master_seed, index): sample i always receives the
    same seed no matter how the scan is chunked, so recorded seeds
    reproduce their basis via :meth:`VonNeumannBasis.from_seed`. Each
    seed keys a SplitMix64 stream; two of n seeds share words only if they
    differ by k gamma (its increment), |k| < 2 dim_a^2: odds ~n^2 2 dim_a^2 / 2**64.
    """
    ss = np.random.SeedSequence(as_count(master_seed, "master_seed", 0))
    return ss.generate_state(as_count(count, "count"), dtype=np.uint64)


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

    def to_csv(self, path) -> None:
        """Write one row per sample: seed,Q[,U]."""
        columns = [self.seeds, self.q_values] + ([] if self.u_values is None else [self.u_values])
        write_csv(path, ("seed", "Q", "U")[: len(columns)], zip(*(c.tolist() for c in columns)))


def scan_uncertainty(rho, spectrum=None, samples: int = 1000, master_seed: int = 0) -> UncertaintyScan:
    """Evaluate Q (and U, if a spectrum is given) over seeded random bases.

    Bases are Haar random on subsystem A, one per derived child seed, drawn
    from its SplitMix64 stream and contracted with T in chunks of
    ``_SCAN_CHUNK``. Results are deterministic in (rho, spectrum, samples,
    master_seed) and independent of evaluation order: each row is bitwise
    the value that :func:`measurement_uncertainty` and
    :func:`observable_uncertainty` give for the basis
    :meth:`VonNeumannBasis.from_seed` rebuilds.
    """
    rho = _require_state(rho)
    samples = as_count(samples, "samples")
    master_seed = as_count(master_seed, "master_seed", 0)
    gaps = None
    if spectrum is not None:
        spectrum = _as_spectrum(spectrum, rho.dim_a)
        gaps = spectrum.gap_squared_matrix()
    t = _block_traces(rho)
    seeds = derive_child_seeds(master_seed, samples)
    q_values = np.empty(samples)
    u_values = np.empty(samples) if gaps is not None else None
    for start in range(0, samples, _SCAN_CHUNK):
        chunk = slice(start, start + _SCAN_CHUNK)
        draws = _seeded_normals(seeds[chunk], (2, rho.dim_a, rho.dim_a))
        v = _pair_trace_matrix(t, _haar_stack(draws))
        q_values[chunk] = v.sum(axis=(1, 2))
        if gaps is not None:
            u_values[chunk] = 0.5 * (gaps * v).sum(axis=(1, 2))
    q_values = _clamp_uncertainty(q_values, "measurement uncertainty")
    if gaps is not None:
        u_values = _clamp_uncertainty(u_values, "observable uncertainty")
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
