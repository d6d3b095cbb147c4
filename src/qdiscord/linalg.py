"""Dense linear algebra for small composite quantum systems.

All routines work on complex numpy arrays and are meant for the matrix
sizes that show up in this package (products of subsystem dimensions up
to a few dozen). Every Hermitian matrix is decomposed by one ``eigh`` of
its Hermitian part (:func:`_eigh`), whatever its structure; the negativity's partial
transpose and the LQU's real 3x3 Pauli matrix take eigenvalues alone, from ``eigvalsh``.
The Hermiticity, positivity and square-root tolerances live here; each other
tolerance sits with the one module that checks it.
"""

import sys
from math import prod
from typing import Sequence

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


def _is_number(kind, dtype: type) -> bool:
    """The one number test, of an entry's type or an array's dtype ``kind``:
    numpy reads it as an int, an unsigned int, a float or, for a complex
    ``dtype``, a complex number; never a bool, a str or any other object."""
    return np.dtype(kind).kind in ("iufc" if dtype is complex else "iuf")


def as_number(value, name: str, dtype: type = complex):
    """``value`` as a Python ``dtype`` (float or complex) if its type passes
    :func:`_is_number`; any other value, or an int beyond a double, raises
    :class:`InvalidInputError` naming the input. NaN and inf pass, for each
    caller checks its own range."""
    if not _is_number(type(value), dtype):
        kind = "real number" if dtype is float else "number"
        raise InvalidInputError(f"{name} must be a {kind}, got {value!r}")
    try:
        return dtype(value)
    except OverflowError:
        raise InvalidInputError(f"{name} must be finite, got an int beyond a double") from None


def as_real(value, name: str) -> float:
    """:func:`as_number` for a Python or numpy int or float, as a float."""
    return as_number(value, name, float)


def as_2d(m, name: str, dtype: type = complex) -> np.ndarray:
    """``m`` as a 2-D array of ``dtype`` with finite entries that pass
    :func:`_is_number`, else :class:`InvalidInputError` naming the input (or
    :class:`DimensionMismatchError` if not 2-D); an array of ``dtype`` is not copied."""
    try:
        arr = m if isinstance(m, np.ndarray) else np.asarray(m, dtype=object)
        for kind in set(map(type, arr.flat)) if arr.dtype == object else (arr.dtype.type,):
            if not _is_number(kind, dtype):
                raise TypeError(f"an entry is a {kind.__name__}")
        arr = np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged rows; ints beyond a double
        raise InvalidInputError(f"{name} is not a matrix of numbers: {exc}") from None
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # a complex entry is finite when both parts are
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """:func:`as_2d` for a square complex matrix."""
    arr = as_2d(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square 2-D, got shape {arr.shape}")
    return arr


def as_reals(values, name: str, minimum: int = 1) -> list:
    """Coerce a list, tuple or 1-D array of at least ``minimum`` real
    numbers to a list of floats, each entry through :func:`as_real`."""
    seq = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(seq, (list, tuple)):
        raise InvalidInputError(f"{name} must be a list, tuple or 1-D array of reals: {values!r}")
    if len(seq) < minimum:
        raise InvalidInputError(f"{name} must have length >= {minimum}, got {len(seq)}")
    return [as_real(v, f"{name}[{i}]") for i, v in enumerate(seq)]


def as_count(value, name: str, minimum: int = 1) -> int:
    """Coerce a count, dimension, seed or index to a Python int >= ``minimum``:
    an :func:`as_real` with an integral value, such as 2 or 2.0, kept exact.
    Any other value, an int beyond a double too, raises :class:`InvalidInputError`
    naming the input."""
    if type(value) is not int or abs(value) > sys.float_info.max:  # plain ints in range skip the type checks
        if not as_real(value, name).is_integer():
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return value


def as_seed(value, name: str = "seed") -> int:
    """:func:`as_count` for a seed, which must also lie below 2**64."""
    if (seed := as_count(value, name, 0)) >= 2**64:
        raise InvalidInputError(f"{name} must be below 2**64, got {seed}")
    return seed


def as_tolerance(value) -> float:
    """:func:`as_real` for a residual tolerance, which must be finite and >= 0."""
    if not 0.0 <= (tol := as_real(value, "tolerance")) < np.inf:
        raise InvalidInputError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def hermiticity_deviation(m: np.ndarray) -> float:
    """Max absolute entry of m - m^dagger."""
    return float(abs(m - m.conj().T).max()) if m.size else 0.0


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as an array after checking Hermiticity to HERMITICITY_TOL."""
    arr = as_matrix(m, name)
    dev = hermiticity_deviation(arr)
    if dev > HERMITICITY_TOL:
        raise NotHermitianError(
            f"{name} is not Hermitian: max |m - m^dagger| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return arr


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 as ``0.5 m + 0.5 m^dagger``: exactly Hermitian and,
    unlike the sum halved, finite for every finite ``m``. For normal entries
    the two forms are bitwise equal."""
    h = 0.5 * m
    h += 0.5 * m.conj().T
    return h


def _eigh(m: np.ndarray, name: str = "matrix", vectors: bool = True):
    """(w, v), w ascending and column v[:, j] for w[j] (w alone, from ``eigvalsh``, without
    ``vectors``): the one ``np.linalg.eigh`` of every Hermitian matrix here, taken of the
    :func:`_hermitian_part` of a square ``m``, unchecked. Failures raise :class:`EigensolverError`."""
    try:
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(_hermitian_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise EigensolverError(f"eigendecomposition of {name} failed: {exc}") from exc


def hermitian_eig(m, name: str = "matrix") -> tuple:
    """(w, v) of a Hermitian matrix, w ascending, column v[:, j] for w[j]:
    :func:`_eigh` of (m + m^dagger) / 2 once Hermiticity passes the package tolerance."""
    return _eigh(require_hermitian(m, name=name), name)


def _psd_root(w: np.ndarray, v: np.ndarray, name: str) -> np.ndarray:
    """V sqrt(W) V^dagger from an ascending eigendecomposition (w, v), which it
    does not write to; an empty spectrum gives the 0 x 0 root.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; a value below -PSD_TOL
    raises :class:`NotPSDError`. Tiny positive eigenvalues below
    ``ZERO_EIGENVALUE_CUTOFF`` relative to the largest one are also clamped,
    see the constant's note.
    """
    if (lo := w.min(initial=np.inf)) < -PSD_TOL:
        raise NotPSDError(f"{name} is not positive semidefinite: min eigenvalue {lo:.3e}")
    kept = np.where(w < ZERO_EIGENVALUE_CUTOFF * w.max(initial=0.0), 0.0, w)
    return (v * np.sqrt(kept)) @ v.conj().T


def psd_sqrt(m, name: str = "matrix") -> np.ndarray:
    """Principal square root S of a raw PSD Hermitian array, clamped as in
    :func:`_psd_root`; S @ S = m to RECONSTRUCT_TOL in relative Frobenius
    norm. A DensityMatrix carries its own root as ``sqrt``.

    The root is that of :func:`hermitian_eig`, so of the Hermitian part
    (m + m^dagger) / 2, the matrix DensityMatrix validates, not of the one
    triangle ``eigh`` reads; for exactly Hermitian ``m`` the two are bitwise
    equal."""
    return _psd_root(*hermitian_eig(m, name), name)


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
    try:
        keep = tuple(keep)
    except TypeError:  # not iterable: one index
        keep = (keep,)
    keep = tuple(as_count(k, "keep index", 0) for k in keep)
    for k in keep:
        if k >= n:
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


def partial_transpose(m, dims: Sequence[int]) -> np.ndarray:
    """Transpose the first factor (A) of a bipartite matrix.

    ``dims`` must have exactly two entries. The transpose on B is the
    transpose of this result.
    """
    arr = as_matrix(m, "matrix")
    dims = _check_dims(arr, dims)
    if len(dims) != 2:
        raise DimensionMismatchError(f"partial transpose needs two subsystems, got {len(dims)}")
    return _partial_transpose(arr, *dims)


def _partial_transpose(arr: np.ndarray, da: int, db: int) -> np.ndarray:
    """:func:`partial_transpose` of an already checked (da db) x (da db) array."""
    return arr.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)


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


def _halving_sum(x: np.ndarray) -> np.ndarray:
    """Sum of ``x`` over axis 0, overwriting ``x``: each pass adds the back
    half onto the front half (an odd last term onto the front's last), so
    the order of the additions depends on len(x) alone."""
    n = x.shape[0]
    while n > 1:
        h = n // 2
        x[:h] += x[h:2 * h]
        if n % 2:
            x[h - 1] += x[2 * h]
        n = h
    return x[0]


def _haar_stack(draws: np.ndarray) -> np.ndarray:
    """Stack (k, dim, dim) of Haar unitaries from (k, 2, dim, dim) normals.

    ``draws[i]`` holds the real then imaginary parts of a complex Ginibre
    matrix A, whose Q factor with R's diagonal real and positive is Haar
    (Mezzadri, Notices AMS 54, 2007). Classical Gram-Schmidt applied twice
    (CGS2; Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069
    (2005)) yields that Q: for column j, r = Q_<j^H v and v -= Q_<j r,
    twice, then v /= |v|. Every product and sum is an elementwise float64
    operation over the stack, and every sum over a column runs through
    :func:`_halving_sum`, so no BLAS or LAPACK kernel is called and each
    unitary is bitwise the one its draw gives alone.
    """
    k, _, dim, _ = draws.shape
    # Column l of matrix n, as real rows (Re, Im), is q[l, 0, :, n]: column
    # l of A until step l turns it into column l of Q in place. Then
    # q[l, 1] gets i q_l = (-Im q_l, Re q_l), so one product with v gives
    # (Re, Im) of conj(q_l) . v. Each product is laid out with its summed
    # axis first.
    q = np.empty((dim, 2, 2 * dim, k))
    q[:, 0] = draws.transpose(3, 1, 2, 0).reshape(dim, 2 * dim, k)
    for j in range(dim):
        v = q[j, 0]
        for _ in range(2 if j else 0):
            terms = np.empty((2 * dim, j, 2, k))
            np.multiply(q[:j], v, out=terms.transpose(1, 2, 0, 3))
            r = _halving_sum(terms)
            v -= _halving_sum(q[:j].reshape(2 * j, 2 * dim, k) * r.reshape(2 * j, 1, k))
        v /= np.sqrt(_halving_sum(v * v))
        np.negative(v[dim:], out=q[j, 1, :dim])
        q[j, 1, dim:] = v[:dim]
    out = np.empty((k, dim, dim), dtype=complex)
    out.real = q[:, 0, :dim].transpose(2, 1, 0)
    out.imag = q[:, 0, dim:].transpose(2, 1, 0)
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a dim x dim unitary from the Haar measure with ``rng``.

    The one-draw case of :func:`_haar_stack`, on a (1, 2, dim, dim) normal
    draw from ``rng``. Scans draw from seeds through
    :func:`_seeded_normals` instead, which ``from_seed`` rebuilds.
    """
    dim = as_count(dim, "dimension")
    return _haar_stack(rng.standard_normal((1, 2, dim, dim)))[0]
