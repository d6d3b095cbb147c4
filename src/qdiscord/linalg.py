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


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 as ``0.5 m + 0.5 m^dagger``: exactly Hermitian and,
    unlike the sum halved, finite for every finite ``m``. For normal entries
    the two forms are bitwise equal."""
    h = 0.5 * m
    h += 0.5 * m.conj().T
    return h


class SplitEig(NamedTuple):
    """Eigendecomposition of an exactly Hermitian matrix h in split form.

    ``core`` lists the rows of h with a nonzero off-diagonal entry and
    ``(w, v)`` is the ascending ``eigh`` of their principal submatrix. Each
    other row, listed in ``rest``, is its own unit eigenvector with its
    diagonal entry in ``d`` as eigenvalue.
    """

    core: np.ndarray
    w: np.ndarray
    v: np.ndarray
    rest: np.ndarray
    d: np.ndarray

    @property
    def lowest(self) -> float:
        """Smallest eigenvalue; +inf for the 0 x 0 matrix."""
        return float(min(self.w.min(initial=np.inf), self.d.min(initial=np.inf)))

    @property
    def highest(self) -> float:
        """Largest eigenvalue; -inf for the 0 x 0 matrix."""
        return float(max(self.w.max(initial=-np.inf), self.d.max(initial=-np.inf)))

    def full(self) -> HermitianEig:
        """The whole decomposition, eigenvalues ascending. With every row in
        the core it is bitwise the ``eigh`` of h."""
        k, n = self.core.size, self.core.size + self.rest.size
        values = np.concatenate([self.w, self.d])
        vectors = np.zeros((n, n), dtype=self.v.dtype)
        vectors[self.core[:, None], np.arange(k)] = self.v
        vectors[self.rest, np.arange(k, n)] = 1.0
        order = np.argsort(values, kind="stable")
        return HermitianEig(values[order], vectors[:, order])


def _split_eig(h: np.ndarray, name: str = "matrix") -> SplitEig:
    """Eigendecompose an exactly Hermitian ``h``, running ``eigh`` only on
    the rows that an exactly nonzero off-diagonal entry couples.

    ``h`` is not checked: build it with :func:`_hermitian_part` from a
    validated matrix. When every row is coupled the core is ``h`` itself and
    the call is ``np.linalg.eigh(h)``. Convergence failures raise
    :class:`EigensolverError`.
    """
    # A row is coupled when it has more nonzero entries than its diagonal one.
    coupled = np.count_nonzero(h, axis=1) > (h.diagonal() != 0)
    core, rest = coupled.nonzero()[0], (~coupled).nonzero()[0]
    try:
        w, v = np.linalg.eigh(h if rest.size == 0 else h[core[:, None], core])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise EigensolverError(f"eigendecomposition of {name} failed: {exc}") from exc
    return SplitEig(core, w, v, rest, h.real[rest, rest])


def hermitian_eig(m, name: str = "matrix") -> HermitianEig:
    """Eigendecompose a Hermitian matrix.

    Checks Hermiticity to the package tolerance and decomposes the Hermitian
    part (m + m^dagger) / 2 through :func:`_split_eig`; convergence failures
    raise :class:`EigensolverError`.
    """
    arr = require_hermitian(m, name=name)
    return _split_eig(_hermitian_part(arr), name).full()


def _psd_root(eig: SplitEig, name: str) -> np.ndarray:
    """V sqrt(W) V^dagger from a split eigendecomposition, clamping roundoff.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; a value below -PSD_TOL
    raises :class:`NotPSDError`. Tiny positive eigenvalues below
    ``ZERO_EIGENVALUE_CUTOFF`` relative to the largest one are also clamped,
    see the constant's note. Both bounds are taken over the whole spectrum.
    The root is built block by block: sqrt(d) on the split-off diagonal and
    V sqrt(W) V^dagger on the core. An empty spectrum gives the 0 x 0 root.
    """
    lo = eig.lowest
    if lo < -PSD_TOL:
        raise NotPSDError(
            f"{name} is not positive semidefinite: min eigenvalue {lo:.3e}"
        )
    cut = ZERO_EIGENVALUE_CUTOFF * max(eig.highest, 0.0)
    w = np.where(eig.w < cut, 0.0, eig.w)
    d = np.where(eig.d < cut, 0.0, eig.d)
    n = eig.core.size + eig.rest.size
    root = np.zeros((n, n), dtype=complex)
    root[eig.rest, eig.rest] = np.sqrt(d)
    root[eig.core[:, None], eig.core] = (eig.v * np.sqrt(w)) @ eig.v.conj().T
    return root


def psd_sqrt(m, name: str = "matrix") -> np.ndarray:
    """Principal square root S of a raw PSD Hermitian array, clamped as in
    :func:`_psd_root`; S @ S = m to RECONSTRUCT_TOL in relative Frobenius
    norm. A DensityMatrix carries its own root as ``sqrt``.

    The root is taken of the Hermitian part (m + m^dagger) / 2, the matrix
    DensityMatrix validates, not of the one triangle ``eigh`` reads; for
    exactly Hermitian ``m`` the two are bitwise equal."""
    arr = require_hermitian(m, name=name)
    return _psd_root(_split_eig(_hermitian_part(arr), name), name)


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


#: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment and
#: the finalizer's (shift, multiplier) steps, as uint64 so nothing promotes.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))


def _splitmix64(seeds: np.ndarray, count: int) -> np.ndarray:
    """Outputs j = 1..count of SplitMix64 from each uint64 state in ``seeds``,
    mix(seed + j gamma), as uint64 arrays, which wrap mod 2**64 silently."""
    z = seeds[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    for shift, mult in _MIX:
        z = (z ^ (z >> shift)) * mult
    return z ^ (z >> np.uint64(31))


def _seeded_normals(seeds, shape: tuple) -> np.ndarray:
    """Stack (len(seeds), *shape) of standard normals, one draw per uint64 seed.

    Draw i turns the first n = prod(shape) (even) SplitMix64 words from
    state ``seeds[i]`` into uniforms u = (w >> 11) 2**-53. Box-Muller maps
    pair l to r cos(theta) at flat entry l and r sin(theta) at l + n/2,
    with r = sqrt(-2 log1p(-u_2l)) and theta = 2 pi u_2l+1. Every step is
    elementwise, so a draw is bitwise the same in a stack of any size.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    u = (_splitmix64(seeds, prod(shape)) >> np.uint64(11)) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    theta = (2.0 * np.pi) * u[:, 1::2]
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return out.reshape((seeds.size,) + tuple(shape))


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
    """Draw a dim x dim unitary from the Haar measure with ``rng``.

    The one-draw case of :func:`_haar_stack`. Scans draw from seeds
    through :func:`_seeded_normals` instead, which ``from_seed`` rebuilds.
    """
    dim = as_count(dim, "dimension")
    return _haar_stack(rng.standard_normal((1, 2, dim, dim)))[0]
