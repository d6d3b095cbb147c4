"""A state that validation accepts passes through every measure.

States are pushed to the edge of each validation tolerance (trace,
Hermiticity, positivity); each measure must then return a finite value
>= 0 instead of rejecting roundoff that validation forgave.
"""

import numpy as np
import pytest

import qdiscord as qd
from qdiscord.linalg import HERMITICITY_TOL, PSD_TOL
from qdiscord.states import TRACE_TOL

from helpers import random_density_array, uncertainty_term

#: States the measures rejected although validation accepted them: an
#: asymmetric matrix whose Hermitian part has eigenvalue -9.0e-11, and a
#: trace 5e-11 above and below 1.
DEFECT_STATES = {
    "asymmetric": (np.array([[0.5, 0.5 + 4.1e-11], [0.5 + 1.39e-10, 0.5]]), 2, 1),
    "trace_above": (np.diag([1.0 + 5e-11, 0.0]), 2, 1),
    "trace_below": (np.diag([1.0 - 5e-11, 0.0, 0.0, 0.0]), 2, 2),
}


def measures(rho, rng):
    """Every measure of the package on ``rho``, by name."""
    da, db = rho.dim_a, rho.dim_b
    basis = qd.VonNeumannBasis.from_seed(da, int(rng.integers(2**63)))
    spectrum = np.arange(da, dtype=float)
    g = rng.standard_normal((rho.dim, rho.dim)) + 1j * rng.standard_normal((rho.dim, rho.dim))
    other = qd.DensityMatrix(random_density_array(rho.dim, rng), da, db)
    out = {
        "Q": qd.measurement_uncertainty(rho, basis),
        "U": qd.observable_uncertainty(rho, basis, spectrum),
        "scan": qd.scan_uncertainty(rho, spectrum, samples=20, master_seed=3).minimum,
        "skew": qd.skew_information(rho, g + g.conj().T),
        "negativity": qd.negativity(rho),
        "fidelity": qd.uhlmann_fidelity(rho, other),
        "self_fidelity": qd.uhlmann_fidelity(rho, rho),
    }
    for j in range(da):
        out[f"projector_skew_{j}"] = qd.skew_information(
            rho, np.kron(basis.projector(j), np.eye(db))
        )
        for k in range(da):
            out[f"term_{j}{k}"] = uncertainty_term(rho, basis, j, k)
    # The state's own eigenprojectors commute with it: values sit at 0, where
    # a measure that mixes rho with sqrt(rho)^2 goes negative.
    vectors = np.linalg.eigh(0.5 * (rho.matrix + rho.matrix.conj().T))[1]
    for i, v in enumerate(vectors.T):
        out[f"eigen_skew_{i}"] = qd.skew_information(rho, np.outer(v, v.conj()))
    if db == 1:
        eigenbasis = qd.VonNeumannBasis(vectors)
        for j in range(da):
            out[f"eigen_term_{j}"] = uncertainty_term(rho, eigenbasis, j, j)
    if da == 2:
        out["LQU"] = qd.local_quantum_uncertainty(rho)
        out["GQD"] = qd.geometric_discord_qubit(rho)
    return out


def edge_states(rng, dim_a, dim_b):
    """Random states at 0.9 of each tolerance, rank-deficient and full."""
    dim = dim_a * dim_b
    for rank in (1, dim):
        base = random_density_array(dim, rng, rank)
        for sign in (1.0, -1.0):
            yield f"trace {sign:+}", base * (1.0 + sign * 0.9 * TRACE_TOL)
        skewed = base.astype(complex)
        i, j = sorted(rng.choice(dim, size=2, replace=False))
        skewed[i, j] += 0.9 * HERMITICITY_TOL * np.exp(1j * rng.uniform(0, 2 * np.pi))
        yield "skew", skewed
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    w = rng.dirichlet(np.ones(dim - 1)) * (1.0 + 0.9 * PSD_TOL)
    w = np.concatenate(([-0.9 * PSD_TOL], w))
    yield "negative eigenvalue", (q * w) @ q.conj().T


@pytest.mark.parametrize("name", sorted(DEFECT_STATES))
def test_defect_states_pass_every_measure(name):
    rho = qd.DensityMatrix(*DEFECT_STATES[name])
    values = measures(rho, np.random.default_rng(5))
    assert all(np.isfinite(v) and v >= 0.0 for v in values.values()), values


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_states_at_each_tolerance_edge(dims):
    rng = np.random.default_rng(sum(dims) * 100 + dims[0])
    for _ in range(10):
        for edge, m in edge_states(rng, *dims):
            rho = qd.DensityMatrix(m, *dims)
            values = measures(rho, rng)
            bad = {k: v for k, v in values.items() if not (np.isfinite(v) and v >= 0.0)}
            assert not bad, (edge, bad)


def test_edges_are_at_the_tolerances():
    rng = np.random.default_rng(7)
    for edge, m in edge_states(rng, 2, 2):
        report = qd.validation_report(m, 2, 2)
        assert report.ok, (edge, report.violations)
        if edge.startswith("trace"):
            assert abs(abs(report.trace - 1.0) - 0.9 * TRACE_TOL) < 1e-14
        elif edge == "skew":
            assert abs(report.hermiticity_deviation - 0.9 * HERMITICITY_TOL) < 1e-16
        else:
            assert abs(report.min_eigenvalue + 0.9 * PSD_TOL) < 1e-14
