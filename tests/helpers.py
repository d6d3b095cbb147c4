"""Shared state builders for the test suite."""

import numpy as np

import qdiscord as qd


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
