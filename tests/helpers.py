"""Shared state builders and loop references for the test suite."""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np

import qdiscord as qd
from qdiscord.cli import main
from qdiscord.discord import _clamp_uncertainty
from qdiscord.linalg import ZERO_EIGENVALUE_CUTOFF


def random_density_array(dim, rng, rank=None):
    """Random full-rank (or rank-limited) density matrix as a raw array."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(dim_a, dim_b, rng, rank=None):
    return qd.DensityMatrix(random_density_array(dim_a * dim_b, rng, rank), dim_a, dim_b)


def random_pure(dim_a, dim_b, rng):
    c = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
    return qd.PureBipartiteState(c / np.linalg.norm(c))


def bell_state():
    c = np.eye(2, dtype=complex) / np.sqrt(2.0)
    return qd.DensityMatrix.from_pure(qd.PureBipartiteState(c))


def classical_quantum_state(dim_a, dim_b, rng):
    """Block-diagonal sum_j p_j |j><j| x rho_j, zero discord in the j basis."""
    p = rng.dirichlet(np.ones(dim_a))
    m = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for j in range(dim_a):
        block = random_density_array(dim_b, rng)
        m[j * dim_b:(j + 1) * dim_b, j * dim_b:(j + 1) * dim_b] = p[j] * block
    return qd.DensityMatrix(m, dim_a, dim_b)


def noon_state(n, t2, phi=0.0):
    params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
    return params, qd.noon_lossy_density(params)


def noon_family(n, t2):
    """phi -> dense lossy DensityMatrix, the family qd.qfi_fidelity_estimate
    differentiates as the reference for qd.qfi_noon_oracle."""
    params = qd.NoonChannelParams.from_transmittance(n, t2)
    return lambda phi: qd.noon_lossy_density(replace(params, phi=phi))


def single_photon_lqu(transmittance):
    """Exact LQU of the N = 1 lossy state, 1 - sqrt((1 - T) / (1 + T)).

    At one photon the transverse Pauli correlation exceeds the longitudinal
    one, so this sits below the paper's 2T / (1 + T) at interior T.
    """
    return 1.0 - np.sqrt((1.0 - transmittance) / (1.0 + transmittance))


def loop_assignment(p, values):
    """Cheapest eigenvalue ordering by a pure-Python loop over orderings.

    The reference for the vectorised assignment costs: pairs are summed in
    the order (0, 1), (0, 2), ..., each term as gap * gap * p_j * p_k, and
    only a strictly smaller cost replaces the best, so ties keep the
    lexicographically first ordering. Returns (cost, ordering).
    """
    best_cost = np.inf
    best_perm = None
    for perm in permutations(range(len(values))):
        cost = 0.0
        for j in range(p.size):
            for k in range(j + 1, p.size):
                gap = values[perm[j]] - values[perm[k]]
                cost += gap * gap * p[j] * p[k]
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return best_cost, best_perm


def loop_region_map(values, resolution):
    """fig2 rows (s1, s2, label) from one loop_assignment call per simplex cell."""
    grid = np.linspace(0.0, 1.0, resolution)
    rows = []
    for s1 in grid:
        for s2 in grid:
            if s1 + s2 > 1.0 + 1e-12:
                continue
            s3 = max(1.0 - s1 - s2, 0.0)
            _, perm = loop_assignment(np.array([s1, s2, s3]), values)
            rows.append((float(s1), float(s2), "".join(str(i) for i in perm)))
    return rows


def scalar_splitmix64(seed, count):
    """First ``count`` SplitMix64 outputs from state ``seed``, on Python ints:
    the C reference (Steele, Lea & Flood, OOPSLA 2014) step by step."""
    mask = (1 << 64) - 1
    words = []
    for _ in range(count):
        seed = (seed + 0x9E3779B97F4A7C15) & mask
        z = seed
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


def scalar_normals(seed, shape):
    """One seed's draw of the scans, by Python floats and the math module:
    Box-Muller on word pairs, cosine branch in the first half of the flat
    draw and sine branch in the second. The reference for _seeded_normals."""
    n = math.prod(shape)
    u = [(w >> 11) * 2.0**-53 for w in scalar_splitmix64(seed, n)]
    cos_half, sin_half = [], []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log1p(-u1))
        theta = 2.0 * math.pi * u2
        cos_half.append(r * math.cos(theta))
        sin_half.append(r * math.sin(theta))
    return np.array(cos_half + sin_half).reshape(shape)


def loop_haar_unitary(draw):
    """Haar unitary from one (2, dim, dim) draw by LAPACK's QR with R's
    diagonal phases divided out: the reference for the Gram-Schmidt draw."""
    q, r = np.linalg.qr(draw[0] + 1j * draw[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def tensordot_block_traces(rho):
    """T[a, b, c, d] = Tr_B(S_ab S_cd) over the blocks of sqrt(rho) by one
    BLAS tensordot over the two B indices: the reference for the einsum of
    DensityMatrix.block_traces."""
    s4 = rho.sqrt.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return np.tensordot(s4, s4, axes=([1, 3], [3, 1]))


def pair_trace_matrix(t, u):
    """Matrices of Tr[B_jk B_kj] over direction pairs, diagonals zeroed.

    ``u`` is a stack (n, dim_a, dim_a) of unitaries and the result has the
    same shape. B_jk = sum_ab conj(u_aj) u_bk S_ab is the B-space block
    <u_j| sqrt(rho) |u_k> in the measurement basis with columns u_j, so
    V_jk = sum conj(u_aj) u_bk conj(u_ck) u_dj T_abcd for the block traces
    T of DensityMatrix.block_traces: the pair form of Q = sum V_jk and
    U = sum (v_j - v_k)^2 V_jk / 2, a sum of terms >= 0. The reference for
    the quadratic forms the library evaluates.
    """
    n, da = u.shape[:2]
    x = np.matmul(u.conj().transpose(0, 2, 1), t.reshape(da, -1))
    y = np.einsum("njbcd,ndj->njbc", x.reshape(n, da, da, da, da), u)
    v = np.einsum("njbc,nbk,nck->njk", y, u, u.conj()).real
    diag = np.arange(da)
    v[:, diag, diag] = 0.0
    return v


def uncertainty_term(rho, basis, j, k):
    """B-traced uncertainty contribution of one direction pair, by blocks.

    For j != k this is Tr_B[B_jk B_kj] with B_jk = <u_j|sqrt(rho)|u_k>.
    For j == k it is the per-projector quantity Tr_B[<u_j|rho|u_j> - B_jj^2],
    with rho read as sqrt(rho)^2 like the skew information; on a two-level
    A it equals the off-diagonal term. The direct block route, independent
    of the quadratic forms the library evaluates.
    """
    da, db = rho.dim_a, rho.dim_b
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


def loop_scan(rho, spectrum, samples, master_seed):
    """Seeded scan by a per-sample loop: one ``from_seed`` basis and one
    pair-trace matrix per sample.

    The reference for the batched scan's kernel: each basis is the library's
    own draw, so the comparison isolates the quadratic forms from the draw,
    which ``test_linalg`` checks against :func:`loop_haar_unitary`. Returns
    (seeds, q_values, u_values), with u_values None when no spectrum is
    given.
    """
    gaps = None
    if spectrum is not None:
        gaps = qd.MeasurementSpectrum(spectrum).gap_squared_matrix()
    t = rho.block_traces()
    seeds = qd.derive_child_seeds(master_seed, samples)
    q_values = np.empty(samples)
    u_values = np.empty(samples) if gaps is not None else None
    for i, seed in enumerate(seeds.tolist()):
        u = qd.VonNeumannBasis.from_seed(rho.dim_a, seed).unitary
        v = pair_trace_matrix(t, u[None])[0]
        q = float(v.sum())
        q_values[i] = 0.0 if q < 0.0 else q
        if gaps is not None:
            w = 0.5 * float((gaps * v).sum())
            u_values[i] = 0.0 if w < 0.0 else w
    return seeds, q_values, u_values


def loop_lossy_density(params):
    """Lossy-probe density matrix, as a raw array, built entry by entry:
    the coherent pair at index (dim_b, n) and one binomial loss weight per
    k < n on the diagonal. The reference for the table-based builder."""
    n = params.n
    dim_b = n + 1
    tt = abs(params.t) ** 2
    rr = abs(params.r) ** 2
    v = np.zeros(2 * dim_b, dtype=complex)
    v[dim_b] = 1.0
    v[n] = (params.t ** n) * np.exp(1j * n * params.phi)
    rho = 0.5 * np.outer(v, v.conj())
    for k in range(n):
        rho[k, k] += 0.5 * float(comb(n, k)) * (tt ** k) * (rr ** (n - k))
    return rho


def split_psd_sqrt(m):
    """Square root of a PSD Hermitian array that runs eigh on the rows an
    off-diagonal entry couples only, and takes the exact sqrt of each other
    row's diagonal entry. The 64 eps cut, relative to the largest eigenvalue,
    applies to the coupled rows. A reference for roots known in closed form,
    whose isolated rows keep their entries however small."""
    m = np.asarray(m, dtype=complex)
    off = m != 0
    np.fill_diagonal(off, False)
    coupled = off.any(axis=1)
    core, rest = coupled.nonzero()[0], (~coupled).nonzero()[0]
    w, v = np.linalg.eigh(m[np.ix_(core, core)])
    d = m.real[rest, rest]
    top = max(w.max(initial=0.0), d.max(initial=0.0))
    w = np.where(w < ZERO_EIGENVALUE_CUTOFF * top, 0.0, w)
    root = np.zeros(m.shape, dtype=complex)
    root[rest, rest] = np.sqrt(np.clip(d, 0.0, None))
    root[np.ix_(core, core)] = (v * np.sqrt(w)) @ v.conj().T
    return root


def loop_eigenvalues(params):
    """Coherent eigenvalue (1 + T^n)/2 and the n loss weights, descending,
    one weight per loop pass."""
    n = params.n
    tt = abs(params.t) ** 2
    rr = abs(params.r) ** 2
    vals = [0.5 * (1.0 + tt ** n)]
    vals += [0.5 * float(comb(n, k)) * (tt ** k) * (rr ** (n - k)) for k in range(n)]
    return np.sort(np.asarray(vals, dtype=float))[::-1]


def loop_tripartite(params):
    """Purified lossy amplitudes (2, n+1, n+1), one complex amplitude
    sqrt(C(n,k)) t^k r^(n-k) e^(i k phi) / sqrt(2) per loop pass."""
    n = params.n
    amp = np.zeros((2, n + 1, n + 1), dtype=complex)
    amp[1, 0, 0] = 1.0 / np.sqrt(2.0)
    for k in range(n + 1):
        amp[0, k, n - k] = (
            np.exp(1j * k * params.phi)
            * np.sqrt(float(comb(n, k))) * (params.t ** k) * (params.r ** (n - k))
            / np.sqrt(2.0)
        )
    return amp


def loop_qfi_spectral(params):
    """Spectral Fisher information with the coherent vector and its phase
    derivative written index by index: |n>_A|0>_B at dim_b, |0>_A|n>_B at n."""
    n = params.n
    dim_b = n + 1
    c = (params.t ** n) * np.exp(1j * n * params.phi)
    v = np.zeros(2 * dim_b, dtype=complex)
    v[dim_b] = 1.0
    v[n] = c
    norm2 = np.vdot(v, v).real
    lam1 = float(loop_eigenvalues(params)[0])
    u = v / np.sqrt(norm2)
    du = np.zeros_like(v)
    du[n] = 1j * n * c / np.sqrt(norm2)
    overlap = np.vdot(u, du)
    f1 = 4.0 * (np.vdot(du, du).real - abs(overlap) ** 2)
    return lam1 * float(f1)


def loop_partial_trace(m, dims, keep):
    """Partial trace by one np.trace per traced subsystem, last first, then
    a transpose of the kept subsystems into the requested order."""
    n = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2)
    for k in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    kept = sorted(keep)
    perm = [kept.index(k) for k in keep]
    t = t.transpose(perm + [p + len(kept) for p in perm])
    d = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d, d)


#: OpenBLAS core types the cross-kernel tests force, with the CPU flags (as
#: /proc/cpuinfo names them) their kernels need: numpy's import runs a BLAS
#: dot, which a kernel the CPU lacks would kill.
CORE_TYPE_FLAGS = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Prescott": {"pni"},
}


def forceable_core_types():
    """The core types of CORE_TYPE_FLAGS this machine can run, when numpy
    reports a DYNAMIC_ARCH OpenBLAS, whose kernels OPENBLAS_CORETYPE
    selects; else none. numpy before 1.25 has no dict mode."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        with open("/proc/cpuinfo") as fh:
            flags = next(set(line.split(":")[1].split()) for line in fh if line.startswith("flags"))
    except (TypeError, KeyError, OSError, StopIteration):
        return []
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return []
    return [core for core, need in CORE_TYPE_FLAGS.items() if need <= flags]


def simd_dispatch_levels():
    """NPY_DISABLE_CPU_FEATURES values, one per SIMD dispatch level of numpy this
    CPU runs: nothing disabled, then ever longer suffixes of the dispatched targets
    it supports, up to all of them, which leaves numpy's baseline. Baseline targets
    are never named (numpy refuses to disable them), and names come from numpy, as
    it ignores unknown ones silently."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [name for name in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(name) and name not in umath.__cpu_baseline__]
    return [" ".join(targets[k:]) for k in range(len(targets), -1, -1)]


def outputs_under(script, variable, values):
    """Set of the stripped stdouts of ``python -c script``, run once with the
    environment variable ``variable`` set to each of ``values``, with the
    package and this directory (so ``helpers``) on PYTHONPATH."""
    path = os.pathsep.join([str(Path(qd.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    outputs = set()
    for value in values:
        env = dict(os.environ, PYTHONPATH=path, **{variable: value})
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout.strip())
    return outputs


def outputs_under_core_types(script):
    """:func:`outputs_under` each of forceable_core_types() as OPENBLAS_CORETYPE."""
    return outputs_under(script, "OPENBLAS_CORETYPE", forceable_core_types())


#: CLI runs whose CSVs are hashed, without --out: fig1 and fig2 at the
#: sizes CI reruns, fig4 at N = 10 and at N = 50 (a 2 x 2 coherent core
#: in a 102 x 102 state), and the qfi grid, whose oracle reads that core.
PIPELINES = {
    "fig1": ["fig1", "--dimA", "3", "--s1", "0.1,0.3", "--s2", "0.2", "--samples", "2000"],
    "fig2": ["fig2", "--spectrum", "2,4,1", "--resolution", "200"],
    "fig4": ["fig4", "--N", "10", "--grid", "101"],
    "fig4_n50": ["fig4", "--N", "50", "--grid", "101"],
    "qfi": ["qfi", "--noon", "N=10", "--grid", "11"],
}


def pipeline_hashes():
    """SHA-256 of the CSV of each run in PIPELINES, written to a scratch
    directory through the CLI with its stdout discarded."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in PIPELINES.items():
            path = Path(tmp) / f"{name}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out", str(path)]) == 0
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests
