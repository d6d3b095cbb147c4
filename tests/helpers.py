"""Shared state builders and loop references for the test suite."""

import math
from itertools import permutations
from math import comb

import numpy as np

import qdiscord as qd
from qdiscord.discord import _block_traces
from qdiscord.linalg import _seeded_normals


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
    """phi -> DensityMatrix for the fidelity-based Fisher estimate."""
    return qd.noon_family(qd.NoonChannelParams.from_transmittance(n, t2))


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
    """Haar unitary from one (2, dim, dim) draw and one unbatched QR."""
    q, r = np.linalg.qr(draw[0] + 1j * draw[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def loop_scan(rho, spectrum, samples, master_seed):
    """Seeded scan by a per-sample loop: one seed's draw, one QR and one
    contraction with the block traces T per basis.

    The reference for the batched scan. Returns (seeds, q_values, u_values),
    with u_values None when no spectrum is given.
    """
    gaps = None
    if spectrum is not None:
        gaps = qd.MeasurementSpectrum(spectrum).gap_squared_matrix()
    t = _block_traces(rho)
    da = rho.dim_a
    seeds = qd.derive_child_seeds(master_seed, samples)
    q_values = np.empty(samples)
    u_values = np.empty(samples) if gaps is not None else None
    for i, seed in enumerate(seeds.tolist()):
        u = loop_haar_unitary(_seeded_normals([seed], (2, da, da))[0])
        x = np.tensordot(u.conj(), t, axes=(0, 0))
        y = np.einsum("jbcd,dj->jbc", x, u)
        v = np.einsum("jbc,bk,ck->jk", y, u, u.conj()).real
        np.fill_diagonal(v, 0.0)
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
