"""Bipartite states: density matrices, Schmidt data, and the lossy
two-mode interferometer family.

The density-matrix JSON interchange format is
``{"dimA": int, "dimB": int, "re": [[..]], "im": [[..]]}`` with ``re`` and
``im`` the real and imaginary parts of the full matrix, row-major.
"""

import cmath
import json
from dataclasses import dataclass, field
from math import comb, hypot, isfinite, sqrt

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    _eigh,
    _psd_root,
    as_2d,
    as_count,
    as_matrix,
    as_number,
    as_real,
    as_reals,
    hermiticity_deviation,
    partial_trace,
)

#: Absolute tolerance on trace(rho) = 1 and on unit norm of pure states.
TRACE_TOL = 1e-10
NORM_TOL = 1e-12

#: NoonProbe's photon-number limit, TRACE_TOL / eps: see its docstring.
PROBE_MAX_N = int(TRACE_TOL / np.finfo(float).eps)

#: Schmidt weights in [-WEIGHT_NEGATIVE_TOL, 0) are roundoff and clipped to
#: zero; the weights must sum to 1 within WEIGHT_SUM_TOL.
WEIGHT_NEGATIVE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _require(value, *classes: type):
    """``value`` if it is one of ``classes``; anything else, a raw array included,
    raises :class:`InvalidInputError` here instead of an AttributeError later."""
    if not isinstance(value, classes):
        names = " or ".join(cls.__name__ for cls in classes)
        raise InvalidInputError(f"expected a {names}, got {type(value).__name__}")
    return value


def _schmidt_weights(probabilities, name: str = "probabilities") -> np.ndarray:
    """Schmidt probability weights as a float array: a non-empty :func:`as_reals`
    sequence of finite, nonnegative numbers summing to 1, to the tolerances above."""
    p = np.array(as_reals(probabilities, name))
    if not np.all(np.isfinite(p)):
        raise InvalidInputError(f"{name} must be finite, got {p.tolist()}")
    if np.any(p < -WEIGHT_NEGATIVE_TOL):
        raise InvalidInputError(f"{name} must be nonnegative, got {p.tolist()}")
    if abs(p.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInputError(f"{name} must sum to 1, got {p.sum():.12g}")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class PureBipartiteState:
    """Pure state of an A x B system, stored as its coefficient matrix.

    ``coefficients[a, b]`` is the amplitude on basis ket |a>|b>. The matrix
    must have unit Frobenius norm.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = as_2d(self.coefficients, "coefficient matrix")
        norm = float(np.linalg.norm(c))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidInputError(
                f"pure state must have unit norm, got {norm:.12g}"
            )
        object.__setattr__(self, "coefficients", _readonly(c))

    @property
    def dim_a(self) -> int:
        return self.coefficients.shape[0]

    @property
    def dim_b(self) -> int:
        return self.coefficients.shape[1]

    @property
    def vector(self) -> np.ndarray:
        """State vector on the dim_a * dim_b product space."""
        return self.coefficients.reshape(-1)

    @classmethod
    def from_probabilities(cls, probabilities, dim_b: int | None = None):
        """Build a Schmidt-diagonal state with the given probability weights.

        ``probabilities`` must be finite, nonnegative and sum to 1. The state is
        sum_j sqrt(p_j) |j>|j> on an A x B space with dim_a = len(p) and
        dim_b = max(dim_b, dim_a).
        """
        p = _schmidt_weights(probabilities)
        da = p.size
        db = da if dim_b is None else as_count(dim_b, "dim_b")
        if db < da:
            raise DimensionMismatchError(f"dim_b = {db} cannot hold {da} Schmidt terms")
        c = np.zeros((da, db), dtype=complex)
        amp = np.sqrt(p)
        amp /= np.sqrt(np.sum(amp * amp))  # not np.linalg.norm, a BLAS dot
        c[np.arange(da), np.arange(da)] = amp
        return cls(c)


def schmidt_decompose(state: PureBipartiteState) -> tuple:
    """Schmidt-decompose a pure bipartite state via the SVD.

    Returns ``(coefficients, basis_a, basis_b)``: the min(dim_a, dim_b)
    Schmidt coefficients, descending, and in column j of each basis the local
    vector paired with coefficients[j]; ``(basis_a * coefficients) @ basis_b.T``
    rebuilds ``state.coefficients``.
    """
    if not isinstance(state, PureBipartiteState):
        state = PureBipartiteState(state)
    u, s, vh = np.linalg.svd(state.coefficients)
    r = s.size
    return s, u[:, :r], vh[:r, :].T


@dataclass(frozen=True)
class StateReport:
    """Validation findings for a candidate density matrix; ``eig`` is the
    ascending (w, v) of its Hermitian part (m + m^dagger) / 2 from
    :func:`_eigh`, which :class:`DensityMatrix` roots."""

    dim_a: int
    dim_b: int
    hermiticity_deviation: float
    trace: float
    min_eigenvalue: float
    violations: tuple = ()
    eig: tuple = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_state(matrix, dim_a: int, dim_b: int) -> tuple:
    """(m, dim_a, dim_b, hermiticity deviation, trace, violations) of a candidate
    density matrix, every check but positivity. A matrix that is not square,
    finite and numeric or does not match dim_a * dim_b raises; a Hermiticity
    or trace violation is listed in ``violations``, which the caller extends."""
    m = as_matrix(matrix, "density matrix")
    dim_a, dim_b = as_count(dim_a, "dim_a"), as_count(dim_b, "dim_b")
    if m.shape[0] != dim_a * dim_b:
        raise DimensionMismatchError(
            f"matrix of size {m.shape[0]} does not match dimA*dimB = {dim_a * dim_b}"
        )
    violations = []
    dev = hermiticity_deviation(m)
    if dev > HERMITICITY_TOL:
        violations.append(f"hermiticity violated: max |m - m^dagger| = {dev:.12g}")
    tr = float(m.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        violations.append(f"trace violated: trace = {tr:.12g}")
    return m, dim_a, dim_b, dev, tr, violations


def validation_report(matrix, dim_a: int, dim_b: int) -> StateReport:
    """Check a matrix against the density-matrix invariants.

    Structural problems (wrong shape for the declared dimensions) raise;
    quality problems (hermiticity, trace, positivity) are collected into the
    report so a caller can show all of them at once.
    """
    m, dim_a, dim_b, dev, tr, violations = _check_state(matrix, dim_a, dim_b)
    eig = _eigh(m, "density matrix")
    lo = float(eig[0][0])
    if lo < -PSD_TOL:
        violations.append(f"PSD violated: min eigenvalue {lo:.12g}")
    return StateReport(dim_a, dim_b, dev, tr, lo, tuple(violations), eig)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix on an A x B product space.

    Construction rejects anything that is not Hermitian, unit trace, and
    positive semidefinite (eigenvalues in [-PSD_TOL, 0) are accepted as
    roundoff). ``matrix`` is stored as given; ``sqrt`` is the principal
    root of its Hermitian part, built from the one ``eigh`` the positivity
    check made, so every measure of the state reads the root that check
    accepted. The rule is the same for every matrix: a row with no
    off-diagonal entry gets eigh's eigenvalue and cut, like any other row.
    Both arrays are read-only.

    :meth:`from_pure` and :func:`noon_lossy_density` know the exact root S
    in closed form and make no eigendecomposition: they run the same shape,
    finiteness, Hermiticity and trace checks, and prove positivity by
    ||m - S S^dagger||_F <= PSD_TOL, which also verifies the root. Since
    lambda_min((m + m^dagger) / 2) >= -||m - S S^dagger||_F, that accepts no
    matrix the eigenvalue check rejects.
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int
    sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        report = validation_report(self.matrix, self.dim_a, self.dim_b)
        if not report.ok:
            raise InvalidInputError("; ".join(report.violations))
        object.__setattr__(self, "dim_a", report.dim_a)
        object.__setattr__(self, "dim_b", report.dim_b)
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        root = _psd_root(*report.eig, "density matrix")
        root.setflags(write=False)
        object.__setattr__(self, "sqrt", root)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @classmethod
    def _from_root(cls, m: np.ndarray, dim_a: int, dim_b: int, root: np.ndarray):
        """The state ``m`` with the exact root ``root``, which its builder has
        made Hermitian and PSD; both complex arrays are the builder's, and are
        frozen here, not copied. Checked as the class docstring says: a root
        with ||m - root root^dagger||_F above PSD_TOL, or NaN, raises."""
        m, dim_a, dim_b, _, _, violations = _check_state(m, dim_a, dim_b)
        r = m - root @ root.conj().T
        err = sqrt(np.vdot(r, r).real)
        if not err <= PSD_TOL:
            violations.append(f"PSD violated: ||m - S S^dagger||_F = {err:.12g} for the root S")
        if violations:
            raise InvalidInputError("; ".join(violations))
        m.setflags(write=False)
        root.setflags(write=False)
        rho = object.__new__(cls)
        for name, value in (("matrix", m), ("dim_a", dim_a), ("dim_b", dim_b), ("sqrt", root)):
            object.__setattr__(rho, name, value)
        return rho

    @classmethod
    def from_pure(cls, state: PureBipartiteState):
        """|v><v|, validated through its exact root rho / |v| (rho^2 = |v|^2 rho)."""
        v = _require(state, PureBipartiteState).vector
        m = np.outer(v, v.conj())
        return cls._from_root(m, state.dim_a, state.dim_b, m / np.sqrt(np.trace(m).real))

    def block_traces(self) -> np.ndarray:
        """T[a, b, c, d] = Tr_B(S_ab S_cd) over the B-space blocks S_ab of sqrt(rho), as
        :meth:`NoonProbe.block_traces` gives it. Every pair trace of the discord measures
        contracts T with operators on A alone, so B is traced out once per state, at
        O(dim_a^4 dim_b^2), in einsum's own loops, not BLAS."""
        s4 = self.sqrt.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        return np.einsum("aibj,cjdi->abcd", s4, s4)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def reduced(self, subsystem: int) -> np.ndarray:
        """Reduced density matrix of subsystem 0 (A) or 1 (B)."""
        return partial_trace(self.matrix, (self.dim_a, self.dim_b), subsystem)


# ---------------------------------------------------------------------------
# Lossy two-mode interferometer family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoonChannelParams:
    """Parameters of an N-photon two-arm state with one lossy arm.

    ``n`` photons are prepared in an equal superposition of "all in arm A"
    and "all in arm B"; arm B passes a beam splitter with amplitude
    transmittance ``t`` (|t|^2 + |r|^2 = 1) and accumulates phase ``phi``
    per photon.
    """

    n: int
    t: complex
    r: complex
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "photon number"))
        t, r, phi = as_number(self.t, "t"), as_number(self.r, "r"), as_real(self.phi, "phi")
        if not (cmath.isfinite(t) and cmath.isfinite(r) and isfinite(phi)):
            raise InvalidInputError(f"t, r and phi must be finite, got {t}, {r}, {phi}")
        if not isfinite(self.n * phi):
            raise InvalidInputError(f"n * phi must be finite, got {self.n} * {phi}")
        total = abs(t) ** 2 + abs(r) ** 2
        if abs(total - 1.0) > NORM_TOL:
            raise InvalidInputError(
                f"|t|^2 + |r|^2 must equal 1, got {total:.12g}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_transmittance(cls, n: int, t2: float, phi: float = 0.0):
        """Build params from the intensity transmittance T = |t|^2."""
        t2 = as_real(t2, "transmittance")
        if not 0.0 <= t2 <= 1.0:
            raise InvalidInputError(f"transmittance must lie in [0, 1], got {t2}")
        return cls(n, sqrt(t2), sqrt(1.0 - t2), phi)

    @property
    def transmittance(self) -> float:
        return abs(self.t) ** 2


def _loss_weights(params: NoonChannelParams) -> np.ndarray:
    """Half-weights 0.5 C(n, k) T^k (1 - T)^(n - k) of k = 0..n photons surviving the lossy
    arm, C(n, k) exact; from n = 1030 on, where C(n, n/2) overflows a double, this raises."""
    n, tt, rr = params.n, abs(params.t) ** 2, abs(params.r) ** 2
    if n >= 1030:
        raise InvalidInputError(f"photon number {n} is too large: C(n, k) overflows a double")
    return np.array([0.5 * float(comb(n, k)) * tt ** k * rr ** (n - k) for k in range(n + 1)])


def _coherence(params: NoonChannelParams) -> complex:
    """c = t^n e^(i n phi), the coherent branch's amplitude on |0>_A |n>_B."""
    return (params.t ** params.n) * np.exp(1j * params.n * params.phi)


def _core(c: complex) -> tuple:
    """(rho, root) on the core rows n, n + 1 of the state and of its exact root: (1/2) v v^dagger
    and v v^dagger / sqrt(2 |v|^2) for v = (c, 1), the coherent branch |n>_A |0>_B + c |0>_A |n>_B."""
    v = np.array([c, 1.0])
    outer = np.outer(v, v.conj())
    return 0.5 * outer, outer * (1.0 / sqrt(2.0 * (1.0 + abs(c) ** 2)))


def noon_lossy_density(params: NoonChannelParams) -> DensityMatrix:
    """System density matrix after the environment is discarded.

    The coherent core :func:`_core` on rows n, n + 1 (off-diagonal weight
    t^n e^(i n phi) / 2) plus the photon-loss mixture w_k on |0>_A |k>_B for
    k < n; equals the purified three-part state traced over the environment.
    The two parts sit on disjoint rows, so the state's root is exact without
    an eigendecomposition: the core's root plus diag(sqrt(w_k)), which
    validates the state (:class:`DensityMatrix`).
    """
    n = params.n
    weights = _loss_weights(params)
    rho = np.zeros((2 * (n + 1), 2 * (n + 1)), dtype=complex)
    root = np.zeros_like(rho)
    core, k = slice(n, n + 2), np.arange(n)
    rho[core, core], root[core, core] = _core(_coherence(params))
    rho[k, k], root[k, k] = weights[:n], np.sqrt(weights[:n])
    return DensityMatrix._from_root(rho, 2, n + 1, root)


def _probe_weights(params: NoonChannelParams) -> tuple:
    """(w_0, sum_{k<n} w_k) of :func:`_loss_weights`: |r|^2n / 2 and ((|t|^2 + |r|^2)^n - T^n) / 2.
    |t|^2 + |r|^2 is kept as s + e, its rounded sum and that sum's exact error (Fast2Sum):
    (s + e)^n = s^n (1 + n e / s) to roundoff, where s^n alone can be n eps / 2 off the binomial sum."""
    n, tt, rr = params.n, abs(params.t) ** 2, abs(params.r) ** 2
    s = tt + rr
    e = (tt - s) + rr if tt >= rr else (rr - s) + tt
    return 0.5 * rr ** n, 0.5 * (s ** n * (1.0 + n * e / s) - tt ** n)


def _probe_traces(w0, loss, x) -> np.ndarray:
    """:meth:`NoonProbe.block_traces` (..., 2, 2, 2, 2) from w_0, the loss total and x = |c|^2,
    floats or equal-length arrays, by +, *, / and sqrt alone: correctly rounded at any SIMD level."""
    s2 = 2.0 * (1.0 + x)
    t = np.zeros(np.shape(x) + (2, 2, 2, 2))
    t[..., 0, 0, 0, 0], t[..., 1, 1, 1, 1] = loss + x * x / s2, 1.0 / s2
    t[..., 0, 0, 1, 1] = t[..., 1, 1, 0, 0] = np.sqrt(w0 / s2)
    t[..., 0, 1, 1, 0] = t[..., 1, 0, 0, 1] = x / s2
    return t


@dataclass(frozen=True)
class NoonProbe:
    """The state :func:`noon_lossy_density` builds, in block form and with no array:
    ``w0`` and ``loss_total``, w_0 and the sum of the w_k on rows |0>_A |k>_B, k < n
    (:func:`_probe_weights`), and the core (1/2) [[|c|^2, c], [c*, 1]] on rows n, n + 1,
    c = t^n e^(i n phi) (``coherence``). A weight below 0 or a ``trace`` off 1 by over
    TRACE_TOL raises InvalidInputError, as does n > PROBE_MAX_N = TRACE_TOL / eps, before any
    power: |t|^2 + |r|^2 is off 1 by up to eps (measured), so its n-th power moves the trace
    by up to n eps / 2, which is TRACE_TOL / 2 at that limit."""

    params: NoonChannelParams
    w0: float = field(init=False, repr=False, compare=False)
    loss_total: float = field(init=False, repr=False, compare=False)
    coherence: complex = field(init=False, repr=False, compare=False)
    trace: float = field(init=False, repr=False, compare=False)
    dim_a = 2  # a class attribute, not a field: read-only on the frozen instance

    def __post_init__(self):
        p = _require(self.params, NoonChannelParams)
        if p.n > PROBE_MAX_N:
            raise InvalidInputError(f"photon number {p.n} is too large: past TRACE_TOL / eps = "
                                    f"{PROBE_MAX_N}, (|t|^2 + |r|^2)^n can move the trace by TRACE_TOL / 2")
        (w0, loss), c = _probe_weights(p), complex(_coherence(p))
        trace = loss + 0.5 * abs(c) ** 2 + 0.5
        if not min(w0, loss) >= 0.0 or abs(trace - 1.0) > TRACE_TOL:
            raise InvalidInputError(f"not a state: min weight {min(w0, loss):.12g}, trace {trace:.12g}")
        for name, value in (("w0", w0), ("loss_total", loss), ("coherence", c), ("trace", trace)):
            object.__setattr__(self, name, value)

    @property
    def dim_b(self) -> int:
        return self.params.n + 1

    def block_traces(self) -> np.ndarray:
        """:meth:`DensityMatrix.block_traces` in O(1), from the exact root diag(sqrt(w_k))
        + [[|c|^2, c], [c*, 1]] / s, s^2 = 2 (1 + |c|^2), whose blocks S_00 =
        diag(sqrt(w_k), |c|^2 / s), S_11 = E_00 / s, S_01 = c E_n0 / s = S_10^dagger."""
        return _probe_traces(self.w0, self.loss_total, abs(self.coherence) ** 2)

    def core_root(self) -> np.ndarray:
        """The exact root's 2 x 2 core [[|c|^2, c], [c*, 1]] / s on rows n, n + 1, the one
        block of the state that depends on phi; :func:`noon_lossy_density` embeds the same."""
        return _core(self.coherence)[1]

    def negativity(self) -> float:
        """(||rho^(T_A)||_1 - Tr rho) / 2 = (hypot(w_0, |c|) - w_0) / 2, minus the lower
        eigenvalue of [[w_0, c*/2], [c/2, 0]] on rows 0, 2n + 1; the rest is diagonal, >= 0."""
        return 0.5 * (hypot(self.w0, abs(self.coherence)) - self.w0)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def matrix_from_json(data: dict) -> tuple:
    """Decode (matrix, dim_a, dim_b) from the JSON dict, without validation.

    Key errors, unequal ``re``/``im`` and parts that fail :func:`as_2d`
    raise; the size and state quality are left to :func:`validation_report`,
    which every path runs next, so a caller can report them all at once.
    """
    if not isinstance(data, dict):
        raise InvalidInputError("density JSON must be an object")
    for key in ("dimA", "dimB", "re", "im"):
        if key not in data:
            raise InvalidInputError(f"density JSON missing key '{key}'")
    dim_a = as_count(data["dimA"], "dimA")
    dim_b = as_count(data["dimB"], "dimB")
    re, im = (as_2d(data[key], f"density JSON '{key}'", float) for key in ("re", "im"))
    if re.shape != im.shape:
        raise DimensionMismatchError(
            f"re has shape {re.shape} but im has shape {im.shape}"
        )
    return re + 1j * im, dim_a, dim_b


def load_matrix(path) -> tuple:
    """Read (matrix, dim_a, dim_b) from a JSON file, without validation."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"cannot parse {path}: {exc}") from exc
    return matrix_from_json(data)


def load_density(path) -> DensityMatrix:
    """Read and validate a density matrix from a JSON file."""
    m, dim_a, dim_b = load_matrix(path)
    return DensityMatrix(m, dim_a, dim_b)


def save_density(rho: DensityMatrix, path) -> None:
    """Write a density matrix to a JSON file."""
    _require(rho, DensityMatrix)
    data = {"dimA": rho.dim_a, "dimB": rho.dim_b,
            "re": rho.matrix.real.tolist(), "im": rho.matrix.imag.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
