"""Dense linear algebra for small composite quantum systems.

All routines work on complex numpy arrays and are meant for the matrix
sizes that show up in this package (products of subsystem dimensions up
to a few dozen). Shared numerical tolerances live here so the rest of
the library agrees on what "Hermitian" or "positive" means.
"""

from math import prod
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    InvalidInputError,
    NotHermitianError,
    NotPSDError,
)

#: Maximum absolute entry of (m - m^dagger) accepted as Hermitian.
HERMITICITY_TOL = 1e-10

#: Eigenvalues in [-PSD_TOL, 0) are treated as roundoff and clamped to zero;
#: anything below -PSD_TOL fails positivity checks.
PSD_TOL = 1e-10

#: Relative Frobenius tolerance for decompose/reconstruct round trips.
RECONSTRUCT_TOL = 1e-9

#: Relative cutoff under which eigenvalues of a PSD matrix are treated as
#: exact zeros when taking square roots. Without this, eigensolver noise of
#: order eps on a singular matrix turns into sqrt(eps) ~ 1e-8 garbage in the
#: root, which is three orders of magnitude above RECONSTRUCT_TOL-level
#: agreement expected downstream.
ZERO_EIGENVALUE_CUTOFF = 64 * np.finfo(float).eps


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a square complex matrix, validating shape and finiteness."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"{name} must be square 2-D, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_count(value, name: str, minimum: int = 1) -> int:
    """Coerce a count, dimension or seed to a Python int >= ``minimum``.

    Python and numpy integers and integral floats (2.0) are accepted;
    bools, strings, non-integral or non-finite numbers and values below
    ``minimum`` raise :class:`InvalidInputError` naming the input.
    """
    if type(value) is not int:  # plain ints skip the type checks
        number = isinstance(value, (int, float, np.integer, np.floating))
        if isinstance(value, bool) or not number or not float(value).is_integer():
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return value


def hermiticity_deviation(m: np.ndarray) -> float:
    """Max absolute entry of m - m^dagger."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as an array after checking Hermiticity to ``tol``."""
    arr = as_matrix(m, name)
    dev = hermiticity_deviation(arr)
    if dev > tol:
        raise NotHermitianError(
            f"{name} is not Hermitian: max |m - m^dagger| = {dev:.3e} exceeds {tol:.1e}"
        )
    return arr


class HermitianEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column j of ``eigenvectors`` is
    the unit eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, name: str = "matrix") -> HermitianEig:
    """Eigendecompose a Hermitian matrix.

    Wraps :func:`numpy.linalg.eigh` with the package-wide Hermiticity check
    and converts convergence failures into :class:`EigensolverError`.
    """
    arr = require_hermitian(m, name=name)
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise EigensolverError(f"eigendecomposition of {name} failed: {exc}") from exc
    return HermitianEig(w, v)


def psd_sqrt(m, name: str = "matrix") -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; a value below -PSD_TOL
    raises :class:`NotPSDError`. Tiny positive eigenvalues below
    ``ZERO_EIGENVALUE_CUTOFF`` relative to the largest one are also clamped,
    see the constant's note. The result S satisfies S @ S = m to
    RECONSTRUCT_TOL in relative Frobenius norm.
    """
    w, v = hermitian_eig(m, name=name)
    lo = float(w[0])
    if lo < -PSD_TOL:
        raise NotPSDError(
            f"{name} is not positive semidefinite: min eigenvalue {lo:.3e}"
        )
    cut = ZERO_EIGENVALUE_CUTOFF * max(float(w[-1]), 0.0)
    w = np.where(w < cut, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(as_count(d, "subsystem dimension") for d in dims)
    total = prod(dims)
    if total != m.shape[0]:
        raise DimensionMismatchError(
            f"subsystem dimensions {dims} give total {total}, matrix has {m.shape[0]}"
        )
    return dims


def partial_trace(m, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out all subsystems except ``keep``.

    Parameters
    ----------
    m : array
        Matrix on the tensor product of the subsystems listed in ``dims``.
    dims : sequence of int
        Subsystem dimensions, in tensor order.
    keep : int or sequence of int
        Indices into ``dims`` of the subsystems to retain, in order.
    """
    arr = as_matrix(m, "matrix")
    dims = _check_dims(arr, dims)
    n = len(dims)
    keep = (keep,) if isinstance(keep, (int, np.integer)) else keep
    keep = tuple(int(k) for k in keep)
    for k in keep:
        if not 0 <= k < n:
            raise IndexError(f"keep index {k} out of range for {n} subsystems")
    if len(set(keep)) != len(keep):
        raise InvalidInputError(f"keep indices must be distinct, got {keep}")

    # Row labels 0..n-1, column labels n..2n-1; a traced subsystem's column
    # takes its row label, so einsum sums that pair.
    cols = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(arr.reshape(dims + dims), list(range(n)) + cols,
                    list(keep) + [n + k for k in keep])
    d_keep = prod(dims[k] for k in keep)
    return out.reshape(d_keep, d_keep)


def partial_transpose(m, dims: Sequence[int], subsystem: int = 0) -> np.ndarray:
    """Transpose one subsystem of a bipartite matrix.

    ``dims`` must have exactly two entries; ``subsystem`` selects which of
    the two factors is transposed.
    """
    arr = as_matrix(m, "matrix")
    dims = _check_dims(arr, dims)
    if len(dims) != 2:
        raise DimensionMismatchError(f"partial transpose needs two subsystems, got {len(dims)}")
    if subsystem not in (0, 1):
        raise IndexError(f"subsystem must be 0 or 1, got {subsystem}")
    da, db = dims
    t = arr.reshape(da, db, da, db)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return t.reshape(da * db, da * db)


def trace_norm(m) -> float:
    """Sum of singular values."""
    arr = as_matrix(m, "matrix")
    return float(np.linalg.svd(arr, compute_uv=False).sum())


def _hash_keys(init: int, mult: int, n: int) -> list:
    """(xor, mult) uint32 pairs of n successive SeedSequence hash steps.

    Step i XORs with the running hash constant, advances it by ``mult``
    and multiplies by the new value.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(consts, consts[1:])]


# numpy's SeedSequence with its default pool of 4 uint32 words: 16 hash
# steps mix the entropy into the pool, 8 more draw the 4 uint64 PCG64 words.
_POOL_KEYS = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_STATE_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG's 128-bit LCG
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, key) -> np.ndarray:
    xor, mult = key
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _pcg64_states(seeds) -> list:
    """``np.random.default_rng(seed).bit_generator.state`` for each seed.

    numpy's ``SeedSequence`` hash (NEP 19 keeps it and the PCG64 stream
    stable) run on uint32 lanes, one lane per seed, so a whole chunk of
    seeds is hashed in one pass; the PCG64 seeding steps then run on
    Python ints. Seeds are uint64: a seed below 2**32 has the high word 0,
    which the pool hashes exactly as it hashes its unfilled words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    low = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    # mix_entropy: hash the words into the pool, then mix each pool word
    # into every other one; generate_state then hashes 8 words off the pool.
    keys = iter(_POOL_KEYS)
    pool = [_hashmix(word, next(keys)) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], next(keys))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = np.stack([_hashmix(pool[i % 4], key) for i, key in enumerate(_STATE_KEYS)])
    words = words.astype(np.uint64)  # little-endian pairs make 4 uint64s
    halves = (words[0::2] | (words[1::2] << np.uint64(32))).T.tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in halves:
        # pcg64_set_seed(state word s, sequence word i): inc = 2i + 1, then
        # two LCG steps from 0 with s added in between.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _seeded_normals(seeds, shape: tuple) -> np.ndarray:
    """Stack (len(seeds), *shape) of standard normal draws, one per seed.

    Entry i is bitwise ``np.random.default_rng(seeds[i]).standard_normal(shape)``:
    one generator is reset to each seed's starting state in turn, so no
    per-seed ``SeedSequence`` or generator is built.
    """
    out = np.empty((len(seeds),) + tuple(shape))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for draw, state in zip(out, _pcg64_states(seeds)):
        bit_generator.state = state
        rng.standard_normal(out=draw)
    return out


def _haar_stack(draws: np.ndarray) -> np.ndarray:
    """Stack (k, dim, dim) of Haar unitaries from (k, 2, dim, dim) normals.

    QR of complex Ginibre matrices with the R diagonal phases divided out,
    which corrects the raw QR distribution to the uniform one (Mezzadri,
    Notices AMS 54, 2007). ``draws[i]`` holds the real then imaginary
    parts of matrix i, and all matrices share one batched QR, so each
    unitary is bitwise the one its draw gives alone.
    """
    q, r = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a dim x dim unitary from the Haar measure.

    The one-draw case of :func:`_haar_stack`, so it is bitwise the unitary
    a scan draws from a generator in the same state.
    """
    dim = as_count(dim, "dimension")
    return _haar_stack(rng.standard_normal((1, 2, dim, dim)))[0]
