from itertools import combinations, permutations
from math import sqrt

import numpy as np
import pytest

import qdiscord as qd
from qdiscord.errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    InvalidInputError,
    NotPSDError,
)
from qdiscord.discord import (
    _assignment_costs,
    _clamp_uncertainty,
    _form_uncertainties,
    _hermitian_form,
    _lqu,
)
from qdiscord.linalg import _haar_stack, _seeded_normals
from qdiscord.states import _probe_traces

from helpers import (
    bell_state,
    classical_quantum_state,
    forceable_core_types,
    loop_assignment,
    loop_scan,
    noon_state,
    outputs_under_core_types,
    pair_trace_matrix,
    random_pure,
    random_state,
    tensordot_block_traces,
    uncertainty_term,
)


def pure_density(probabilities, dim_b=None):
    state = qd.PureBipartiteState.from_probabilities(probabilities, dim_b)
    return qd.DensityMatrix.from_pure(state)


class TestMeasurementSpectrum:
    def test_values_are_floats(self):
        s = qd.MeasurementSpectrum((2, 4, 1))
        assert s.values == (2.0, 4.0, 1.0)
        assert s.size == 3

    def test_gap_squared_matrix(self):
        s = qd.MeasurementSpectrum((2, 4, 1))
        expected = [[0, 4, 1], [4, 0, 9], [1, 9, 0]]
        assert np.array_equal(s.gap_squared_matrix(), expected)

    def test_rejects_single_value(self):
        with pytest.raises(InvalidInputError):
            qd.MeasurementSpectrum((1.0,))

    def test_rejects_near_degenerate_pair(self):
        with pytest.raises(DegenerateSpectrumError):
            qd.MeasurementSpectrum((1.0, 1.0 + 1e-10, 3.0))

    def test_rejects_non_finite(self):
        for values in ((1.0, np.inf), (np.nan, 1.0), (1.0, np.nan), (1e200, -1e200)):
            with pytest.raises(InvalidInputError, match="finite"):
                qd.MeasurementSpectrum(values)

    def test_rejects_ints_beyond_the_float_range(self):
        for values in ((10**400, 1.0), [1, -(10**400)]):
            with pytest.raises(InvalidInputError, match="finite"):
                qd.MeasurementSpectrum(values)

    @pytest.mark.parametrize("values", [
        "432", "4,3,2", None, 3.0, ("a", "b", "c"), (4, 3, 2j), (True, False, 2.0),
        (4.0, np.bool_(True), 2.0), [[4.0, 3.0, 2.0]], np.array([4.0, 3.0, 2j]),
    ])
    def test_rejects_anything_but_real_numbers(self, values):
        with pytest.raises(InvalidInputError, match="spectrum"):
            qd.MeasurementSpectrum(values)

    def test_accepts_real_sequences(self):
        for values in ([4, 3, 2], np.array([4.0, 3.0, 2.0]), (np.int64(4), np.float32(3.0), 2)):
            assert qd.MeasurementSpectrum(values).values == (4.0, 3.0, 2.0)

    def test_callers_reject_non_real_spectra(self):
        rho = random_state(3, 2, np.random.default_rng(0))
        basis = qd.VonNeumannBasis.computational(3)
        with pytest.raises(InvalidInputError, match="spectrum"):
            qd.scan_uncertainty(rho, "432", samples=2)
        with pytest.raises(InvalidInputError, match="spectrum"):
            qd.observable_uncertainty(rho, basis, None)

    def test_defaults(self):
        qubit = qd.MeasurementSpectrum.default(2)
        assert qubit.values == (sqrt(2) / 2, -sqrt(2) / 2)
        assert abs(qubit.gap_squared_matrix()[0, 1] - 2.0) < 1e-12
        assert qd.MeasurementSpectrum.default(3).values == (4.0, 3.0, 2.0)
        with pytest.raises(InvalidInputError):
            qd.MeasurementSpectrum.default(5)


class TestVonNeumannBasis:
    def test_computational(self):
        b = qd.VonNeumannBasis.computational(3)
        assert np.array_equal(b.unitary, np.eye(3))
        assert b.dim == 3

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidInputError, match="not unitary"):
            qd.VonNeumannBasis(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(InvalidInputError, match="basis contains non-finite"):
            qd.VonNeumannBasis(u)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            qd.VonNeumannBasis(np.ones((2, 3)))

    def test_rejects_empty_basis(self):
        with pytest.raises(InvalidInputError, match="basis must be at least 1 x 1"):
            qd.VonNeumannBasis(np.zeros((0, 0)))

    def test_projectors_resolve_identity(self):
        b = qd.VonNeumannBasis.from_seed(4, 99)
        total = sum(b.projector(j) for j in range(4))
        assert np.allclose(total, np.eye(4), atol=1e-12)
        p0 = b.projector(0)
        assert np.allclose(p0 @ p0, p0, atol=1e-12)

    def test_projector_index_range(self):
        b = qd.VonNeumannBasis.computational(2)
        with pytest.raises(IndexError):
            b.projector(2)

    @pytest.mark.parametrize("j", [True, np.bool_(False), 1.5, "1", None, -1])
    def test_projector_index_is_a_count(self, j):
        with pytest.raises(InvalidInputError, match="direction index"):
            qd.VonNeumannBasis.computational(2).projector(j)

    def test_projector_takes_integral_indices(self):
        b = qd.VonNeumannBasis.from_seed(3, 4)
        for j in (np.int64(1), 1.0):
            assert np.array_equal(b.projector(j), b.projector(1))

    def test_from_seed_is_deterministic(self):
        a = qd.VonNeumannBasis.from_seed(3, 7)
        b = qd.VonNeumannBasis.from_seed(3, 7)
        c = qd.VonNeumannBasis.from_seed(3, 8)
        assert np.array_equal(a.unitary, b.unitary)
        assert not np.allclose(a.unitary, c.unitary)

    def test_seeds_and_dimensions_are_counts(self):
        child = qd.derive_child_seeds(3, 2)[1]  # a numpy uint64
        assert child > 2**63
        assert np.array_equal(
            qd.VonNeumannBasis.from_seed(np.int64(3), child).unitary,
            qd.VonNeumannBasis.from_seed(3, int(child)).unitary,
        )
        assert qd.VonNeumannBasis.computational(np.int64(2)).dim == 2
        for bad in ((3, -1), (3, 1.5), (2.5, 1)):
            with pytest.raises(InvalidInputError):
                qd.VonNeumannBasis.from_seed(*bad)
        with pytest.raises(InvalidInputError, match="dim"):
            qd.VonNeumannBasis.computational(2.5)

    def test_seeds_span_uint64(self):
        top = qd.VonNeumannBasis.from_seed(2, 2**64 - 1).unitary
        assert np.array_equal(top, qd.VonNeumannBasis.from_seed(2, np.uint64(2**64 - 1)).unitary)
        with pytest.raises(InvalidInputError, match=r"seed must be below 2\*\*64, got 18446744073709551616"):
            qd.VonNeumannBasis.from_seed(2, 2**64)


class TestSeedRange:
    TOP = 2**64 - 1
    #: Each entry point that takes a seed, called with one.
    ENTRY_POINTS = {
        "derive_child_seeds": lambda seed: qd.derive_child_seeds(seed, 2),
        "scan_uncertainty": lambda seed: qd.scan_uncertainty(bell_state(), None, 2, seed),
        "Fig1Config": lambda seed: qd.Fig1Config(2, (0.5,), samples=2, seed=seed),
        "from_seed": lambda seed: qd.VonNeumannBasis.from_seed(2, seed),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_seeds_lie_below_2_to_the_64(self, entry):
        call = self.ENTRY_POINTS[entry]
        call(self.TOP)
        call(np.uint64(self.TOP))
        for seed in (2**64, 2.0**64, 2**80):
            with pytest.raises(InvalidInputError, match=r"must be below 2\*\*64"):
                call(seed)


class TestSkewInformation:
    def test_zero_when_commuting(self):
        rho = qd.DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), 2, 2)
        observable = np.diag([1.0, 2.0, 3.0, 4.0])
        assert qd.skew_information(rho, observable) < 1e-12

    def test_pure_state_gives_variance(self):
        rho = bell_state()
        sz = np.diag([1.0, -1.0])
        observable = np.kron(sz, np.eye(2))
        # <sz x I> = 0 and <(sz x I)^2> = 1 on the maximally entangled state
        assert abs(qd.skew_information(rho, observable) - 1.0) < 1e-12

    def test_maximally_mixed_state(self):
        rho = qd.DensityMatrix(np.eye(4) / 4, 2, 2)
        observable = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        assert qd.skew_information(rho, observable) < 1e-12

    def test_rejects_raw_arrays(self):
        with pytest.raises(InvalidInputError, match="DensityMatrix"):
            qd.skew_information(np.eye(4) / 4, np.eye(4))

    def test_rejects_non_hermitian_observable(self):
        rho = bell_state()
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(InvalidInputError):
            qd.skew_information(rho, m)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qd.skew_information(bell_state(), np.eye(6))


class TestUncertaintyTerm:
    def test_symmetric_in_pair(self):
        rng = np.random.default_rng(41)
        rho = random_state(3, 3, rng)
        basis = qd.VonNeumannBasis.from_seed(3, 5)
        for j, k in ((0, 1), (0, 2), (1, 2)):
            a = uncertainty_term(rho, basis, j, k)
            b = uncertainty_term(rho, basis, k, j)
            assert abs(a - b) < 1e-13

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 4)])
    def test_diagonal_term_is_projector_skew_information(self, dims):
        rng = np.random.default_rng(42)
        rho = random_state(*dims, rng)
        basis = qd.VonNeumannBasis.from_seed(dims[0], 11)
        eye_b = np.eye(dims[1])
        for j in range(dims[0]):
            direct = uncertainty_term(rho, basis, j, j)
            via_skew = qd.skew_information(rho, np.kron(basis.projector(j), eye_b))
            assert abs(direct - via_skew) < 1e-11


class TestMeasurementUncertainty:
    def test_bell_state(self):
        q = qd.measurement_uncertainty(bell_state(), qd.VonNeumannBasis.computational(2))
        assert abs(q - 0.5) < 1e-12

    def test_equals_pair_term_sum(self):
        rng = np.random.default_rng(43)
        rho = random_state(3, 3, rng)
        basis = qd.VonNeumannBasis.from_seed(3, 17)
        total = 2.0 * sum(
            uncertainty_term(rho, basis, j, k)
            for j in range(3)
            for k in range(j + 1, 3)
        )
        assert abs(qd.measurement_uncertainty(rho, basis) - total) < 1e-12

    def test_classical_quantum_state_in_classical_basis(self):
        rng = np.random.default_rng(44)
        rho = classical_quantum_state(3, 2, rng)
        q = qd.measurement_uncertainty(rho, qd.VonNeumannBasis.computational(3))
        assert q < 1e-10

    def test_pure_frozen_value(self):
        rho = pure_density([0.7, 0.2, 0.1])
        q = qd.measurement_uncertainty(rho, qd.VonNeumannBasis.computational(3))
        assert abs(q - 0.46) < 1e-12


class TestObservableUncertainty:
    def test_pure_frozen_value(self):
        rho = pure_density([0.7, 0.2, 0.1])
        basis = qd.VonNeumannBasis.computational(3)
        u = qd.observable_uncertainty(rho, basis, (2, 1, 4))
        assert abs(u - 0.60) < 1e-12

    def test_qubit_proportionality(self):
        rng = np.random.default_rng(45)
        rho = random_state(2, 4, rng)
        basis = qd.VonNeumannBasis.from_seed(2, 23)
        q = qd.measurement_uncertainty(rho, basis)
        for spectrum in ((1.0, -1.0), (5.0, 2.0), (0.25, -1.75)):
            gap2 = (spectrum[0] - spectrum[1]) ** 2
            u = qd.observable_uncertainty(rho, basis, spectrum)
            assert abs(u - 0.5 * gap2 * q) < 1e-12

    def test_matches_assembled_observable_skew_information(self):
        rng = np.random.default_rng(46)
        rho = random_state(3, 3, rng)
        basis = qd.VonNeumannBasis.from_seed(3, 29)
        values = (4.0, 3.0, 2.0)
        u = qd.observable_uncertainty(rho, basis, values)
        assembled = sum(v * basis.projector(j) for j, v in enumerate(values))
        via_skew = qd.skew_information(rho, np.kron(assembled, np.eye(3)))
        assert abs(u - via_skew) < 1e-11

    def test_spectrum_size_checked(self):
        with pytest.raises(DimensionMismatchError):
            qd.observable_uncertainty(
                bell_state(), qd.VonNeumannBasis.computational(2), (1.0, 2.0, 3.0)
            )


class TestPureClosedForms:
    def test_frozen_value_from_all_input_forms(self):
        probs = [0.7, 0.2, 0.1]
        state = qd.PureBipartiteState.from_probabilities(probs)
        for arg in (probs, state):
            assert abs(qd.geometric_discord_pure(arg) - 0.46) < 1e-12

    def test_product_state_has_no_discord(self):
        assert qd.geometric_discord_pure([1.0, 0.0]) == 0.0
        assert qd.geometric_discord_pure([1.0]) == 0.0  # one Schmidt weight

    def test_bell_state(self):
        assert abs(qd.geometric_discord_pure([0.5, 0.5]) - 0.5) < 1e-15

    def test_rejects_bad_probabilities(self):
        with pytest.raises(InvalidInputError):
            qd.geometric_discord_pure([0.7, 0.7])
        with pytest.raises(InvalidInputError):
            qd.geometric_discord_pure([[0.5, 0.5]])

    def test_rejects_non_finite_weights(self):
        for bad in ([np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]):
            with pytest.raises(InvalidInputError, match="finite"):
                qd.geometric_discord_pure(bad)
        with pytest.raises(InvalidInputError, match="finite"):
            qd.min_uncertainty_assignment([np.nan, 0.5, 0.5], (2, 4, 1))

    def test_clamp_rejects_nan(self):
        with pytest.raises(NotPSDError):
            _clamp_uncertainty(float("nan"))
        assert _clamp_uncertainty(-1e-13) == 0.0

    def test_clamp_on_arrays_keeps_the_scalar_rule(self):
        for bad in (np.nan, -2e-12):
            with pytest.raises(NotPSDError, match="beyond roundoff"):
                _clamp_uncertainty(np.array([0.5, bad, 0.1]))
        out = _clamp_uncertainty(np.array([-1e-13, -0.0, 0.25, -1e-12]))
        assert out.tolist() == [0.0, 0.0, 0.25, 0.0]
        assert not np.signbit(out[0]) and np.signbit(out[1]) and not np.signbit(out[3])
        scalar = _clamp_uncertainty(-0.0)
        assert type(scalar) is float and np.signbit(scalar)
        # floats and np.float64 skip the array round trip, with the same result
        values = [-1e-13, -0.0, 0.0, 0.25, -1e-12, 5e-324]
        for x, ref in zip(values, _clamp_uncertainty(np.array(values))):
            for scalar in (x, np.float64(x)):
                got = _clamp_uncertainty(scalar)
                assert type(got) is float and got == ref and np.signbit(got) == np.signbit(ref)
        for bad in (np.nan, -2e-12, -np.inf):
            with pytest.raises(NotPSDError) as from_array:
                _clamp_uncertainty(np.array([bad]))
            for scalar in (bad, np.float64(bad)):
                with pytest.raises(NotPSDError) as from_scalar:
                    _clamp_uncertainty(scalar)
                assert str(from_scalar.value) == str(from_array.value)

    def test_assignment_equals_loop_reference(self):
        # exact equality of value and ordering, including all-equal weights
        # where several orderings tie and roundoff picks the minimum
        rng = np.random.default_rng(57)
        for m in (2, 3, 4):
            for trial in range(60):
                if trial % 3 == 0:
                    p = np.full(m, 1.0 / m)
                else:
                    p = rng.dirichlet(np.ones(m))
                spectrum = qd.MeasurementSpectrum(3.0 * rng.standard_normal(m))
                result = qd.min_uncertainty_assignment(p, spectrum)
                expected = loop_assignment(p, spectrum.values)
                assert (result.value, result.assignment) == expected

    def test_assignment_costs_equal_the_broadcast_expression(self):
        # The in-place accumulation must give every cost bit for bit as the expression it
        # replaced, fresh temporaries and all, or argmin could break ties differently.
        def broadcast_costs(p, spectrum):
            perms = np.array(list(permutations(range(spectrum.size))))
            gaps = spectrum.gap_squared_matrix()
            cost = np.zeros((len(perms), len(p)))
            for j, k in combinations(range(spectrum.size), 2):
                cost += gaps[perms[:, j], perms[:, k]][:, None] * p[:, j] * p[:, k]
            return perms, cost

        rng = np.random.default_rng(36)
        grid = np.linspace(0.0, 1.0, 200)
        s1, s2 = (axis.ravel() for axis in np.meshgrid(grid, grid, indexing="ij"))
        inside = s1 + s2 <= 1.0 + 1e-12
        fig2 = np.stack([s1[inside], s2[inside], np.maximum(1.0 - s1[inside] - s2[inside], 0.0)], axis=1)
        edges = np.array([(s, 1.0 - s, 0.0) for s in grid] + [(0.0, s, 1.0 - s) for s in grid]
                         + [(1.0, 0.0, 0.0), (0.5, 0.0, 0.5)])
        cases = [(fig2, (2, 4, 1)), (fig2, (4, 3, 2)), (edges, (2, 4, 1)), (edges, (4, 3, 2))]
        for m in (2, 3, 4, 5):
            cases.append((np.full((1, m), 1.0 / m), 3.0 * rng.standard_normal(m)))
            cases.append((rng.dirichlet(np.ones(m), 500), 3.0 * rng.standard_normal(m)))
        for p, values in cases:
            spectrum = qd.MeasurementSpectrum(values)
            perms, cost = _assignment_costs(p, spectrum)
            ref_perms, ref_cost = broadcast_costs(p, spectrum)
            assert np.array_equal(perms, ref_perms) and np.array_equal(cost, ref_cost), values
            assert np.array_equal(np.argmin(cost, axis=0), np.argmin(ref_cost, axis=0))

    def test_assignment_frozen_example(self):
        result = qd.min_uncertainty_assignment([0.7, 0.2, 0.1], (2, 4, 1))
        assert abs(result.value - 0.60) < 1e-12
        assert result.assignment == (0, 2, 1)

    def test_assignment_cost_set(self):
        # all six orderings of the same example, as a cross-check that the
        # reported minimum really is the smallest of them
        p = [0.7, 0.2, 0.1]
        costs = []
        for a in ((2, 4, 1), (2, 1, 4), (4, 2, 1), (4, 1, 2), (1, 2, 4), (1, 4, 2)):
            cost = sum(
                (a[j] - a[k]) ** 2 * p[j] * p[k]
                for j in range(3)
                for k in range(j + 1, 3)
            )
            costs.append(round(cost, 12))
        assert sorted(costs) == [0.60, 0.81, 0.85, 1.21, 1.41, 1.56]
        assert min(costs) == qd.min_uncertainty_assignment(p, (2, 4, 1)).value

    def test_assignment_tie_breaks_lexicographically(self):
        third = 1.0 / 3.0
        result = qd.min_uncertainty_assignment([third, third, third], (2, 4, 1))
        assert result.assignment == (0, 1, 2)

    def test_assignment_size_checked(self):
        with pytest.raises(DimensionMismatchError):
            qd.min_uncertainty_assignment([0.5, 0.5], (1, 2, 3))

    def test_pure_state_has_one_weight_per_level_of_a(self):
        # A 3 x 2 state has two Schmidt weights on a three-level A: it takes a
        # 3-value spectrum, as its weights with a zero appended and its
        # density matrix do, and no sampled basis goes below its minimum.
        state = random_pure(3, 2, np.random.default_rng(26))
        weights = [*qd.schmidt_decompose(state)[0] ** 2, 0.0]
        best = qd.min_uncertainty_assignment(state, (4, 3, 2))
        assert best == qd.min_uncertainty_assignment(weights, (4, 3, 2))
        scan = qd.scan_uncertainty(qd.DensityMatrix.from_pure(state), (4, 3, 2), 2000, 26)
        assert scan.u_values.min() >= best.value - 1e-12
        with pytest.raises(DimensionMismatchError, match="expected 3"):
            qd.min_uncertainty_assignment(state, (4, 3))

    def test_pure_state_discord_sums_its_schmidt_weights_only(self):
        # Zeros padded past 8 entries would regroup np.sum's partial sums:
        # this 9 x 4 state's value would move by one bit.
        state = random_pure(9, 4, np.random.default_rng(17))
        weights = qd.schmidt_decompose(state)[0] ** 2
        assert qd.geometric_discord_pure(state) == qd.geometric_discord_pure(weights)


def isotropic_state(dim, weight=0.6):
    """weight |phi+><phi+| + (1 - weight) I / dim^2, invariant under U x U*."""
    phi = np.eye(dim).reshape(-1) / sqrt(dim)
    rho = weight * np.outer(phi, phi) + (1.0 - weight) * np.eye(dim * dim) / (dim * dim)
    return qd.DensityMatrix(rho, dim, dim)


def werner_state(dim):
    """(I - SWAP / 2) / Tr, invariant under U x U."""
    swap = np.eye(dim * dim).reshape(dim, dim, dim, dim).transpose(1, 0, 2, 3).reshape(dim * dim, -1)
    m = np.eye(dim * dim) - 0.5 * swap
    return qd.DensityMatrix(m / np.trace(m), dim, dim)


class TestBasisIndependentStates:
    """A local unitary on A of an isotropic or Werner state moves to B, where
    it commutes with P x I, so Q and U take one value in every basis: an exact
    gate on the scan at dim_a >= 3, with no sampling bound."""

    @pytest.mark.parametrize("make", [isotropic_state, werner_state], ids=["isotropic", "werner"])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_every_sampled_basis_gives_the_computational_value(self, make, dim):
        rho, spectrum = make(dim), tuple(range(dim, 0, -1))
        scan = qd.scan_uncertainty(rho, spectrum, samples=2000, master_seed=dim)
        basis = qd.VonNeumannBasis.computational(dim)
        q = qd.measurement_uncertainty(rho, basis)
        u = qd.observable_uncertainty(rho, basis, spectrum)
        assert q > 0.01 and u > 0.01
        assert np.ptp(scan.q_values) <= 1e-13 and np.ptp(scan.u_values) <= 1e-13
        assert np.abs(scan.q_values - q).max() <= 1e-13
        assert np.abs(scan.u_values - u).max() <= 1e-13


class TestQubitClosedForms:
    def test_bell_state(self):
        rho = bell_state()
        assert abs(qd.local_quantum_uncertainty(rho) - 1.0) < 1e-12
        assert abs(qd.geometric_discord_qubit(rho) - 0.5) < 1e-12

    def test_product_state(self):
        rho = pure_density([1.0, 0.0], dim_b=3)
        assert qd.local_quantum_uncertainty(rho) < 1e-10

    def test_matches_pure_state_closed_form(self):
        rng = np.random.default_rng(47)
        for dim_b in (2, 3, 5):
            state = random_pure(2, dim_b, rng)
            rho = qd.DensityMatrix.from_pure(state)
            lqu = qd.local_quantum_uncertainty(rho)
            assert abs(lqu - 2.0 * qd.geometric_discord_pure(state)) < 1e-10

    def test_bounded_on_mixed_states(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            rho = random_state(2, 3, rng)
            lqu = qd.local_quantum_uncertainty(rho)
            assert 0.0 <= lqu <= 1.0 + 1e-12

    def test_one_state_size_eigendecomposition(self, monkeypatch):
        # A dense state's positivity check and its root read one eigh of the
        # whole state. The lossy probe is validated against its exact root, so
        # it makes no eigh. Either LQU then reads one 3 x 3 eigvalsh.
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(("eigh", m.shape)) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(("eigvalsh", m.shape)) or eigvalsh(m))
        params = qd.NoonChannelParams.from_transmittance(4, 0.6)
        qd.local_quantum_uncertainty(qd.noon_lossy_density(params))
        assert calls == [("eigvalsh", (3, 3))]
        calls.clear()
        dense = random_state(2, 3, np.random.default_rng(48))
        qd.local_quantum_uncertainty(dense)
        assert calls == [("eigh", (dense.dim, dense.dim)), ("eigvalsh", (3, 3))]

    def test_requires_qubit_side(self):
        rng = np.random.default_rng(49)
        with pytest.raises(DimensionMismatchError):
            qd.local_quantum_uncertainty(random_state(3, 3, rng))

    def test_lower_bounds_sampled_scan(self):
        rng = np.random.default_rng(50)
        rho = random_state(2, 2, rng)
        lqu = qd.local_quantum_uncertainty(rho)
        bounds = qd.minimize_uncertainty(
            rho, spectrum=(1.0, -1.0), samples=400, master_seed=1
        )
        assert bounds.minimum >= lqu - 1e-9
        assert bounds.maximum >= bounds.minimum


class TestStackedLqu:
    """The LQU kernel over a stack of block traces, entry by entry, against
    local_quantum_uncertainty of each state alone, to the last bit."""

    @staticmethod
    def assert_entries_are_the_single_states(stack, states):
        singles = [qd.local_quantum_uncertainty(state).hex() for state in states]
        for part in (slice(0, 1), slice(None), slice(None, None, -1)):
            assert [v.hex() for v in _lqu(stack[part]).tolist()] == singles[part], part

    def test_dense_states(self):
        # DensityMatrix.block_traces need not be C-contiguous, as a stack is.
        rng = np.random.default_rng(53)
        states = [random_state(2, dim_b, rng, rank)
                  for dim_b in (1, 2, 3, 5, 8, 13) for rank in (1, 2, None)] * 3
        self.assert_entries_are_the_single_states(np.stack([s.block_traces() for s in states]), states)

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_probes(self, phi):
        probes = [qd.NoonProbe(qd.NoonChannelParams.from_transmittance(n, t2, phi))
                  for n in (1, 2, 10, 1030, qd.states.PROBE_MAX_N) for t2 in np.linspace(0.0, 1.0, 21)]
        w0, loss, x = np.array([(p.w0, p.loss_total, abs(p.coherence) ** 2) for p in probes]).T
        self.assert_entries_are_the_single_states(_probe_traces(w0, loss, x), probes)


class TestSeedDerivation:
    def test_prefix_stable(self):
        long = qd.derive_child_seeds(7, 10)
        short = qd.derive_child_seeds(7, 4)
        assert np.array_equal(long[:4], short)

    def test_deterministic(self):
        assert np.array_equal(qd.derive_child_seeds(123, 8), qd.derive_child_seeds(123, 8))

    def test_distinct_masters_differ(self):
        assert not np.array_equal(qd.derive_child_seeds(1, 8), qd.derive_child_seeds(2, 8))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            qd.derive_child_seeds(0, 0)


class TestUncertaintyScan:
    def test_rows_reproducible_from_recorded_seeds(self):
        rng = np.random.default_rng(51)
        for dim_a, spectrum in ((2, (1.5, -0.5)), (3, (4.0, 3.0, 2.0))):
            rho = random_state(dim_a, 2, rng)
            scan = qd.scan_uncertainty(rho, spectrum, samples=300, master_seed=9)
            for i in (0, 7, 255, 256, 299):
                basis = qd.VonNeumannBasis.from_seed(dim_a, int(scan.seeds[i]))
                assert qd.measurement_uncertainty(rho, basis) == scan.q_values[i]
                assert qd.observable_uncertainty(rho, basis, spectrum) == scan.u_values[i]

    def test_objective_selection(self):
        rng = np.random.default_rng(52)
        rho = random_state(2, 2, rng)
        plain = qd.scan_uncertainty(rho, samples=8, master_seed=3)
        assert plain.u_values is None
        assert plain.values is plain.q_values
        scored = qd.scan_uncertainty(rho, spectrum=(3.0, 1.0), samples=8, master_seed=3)
        assert scored.values is scored.u_values
        assert np.array_equal(plain.q_values, scored.q_values)
        assert np.allclose(scored.u_values, 2.0 * scored.q_values, atol=1e-12)

    def test_default_qubit_spectrum_reproduces_q(self):
        rng = np.random.default_rng(53)
        rho = random_state(2, 3, rng)
        scan = qd.scan_uncertainty(
            rho, spectrum=qd.MeasurementSpectrum.default(2), samples=8, master_seed=4
        )
        assert np.allclose(scan.u_values, scan.q_values, atol=1e-12)

    def test_extrema_and_argmin(self):
        rng = np.random.default_rng(54)
        rho = random_state(2, 2, rng)
        scan = qd.scan_uncertainty(rho, samples=32, master_seed=5)
        assert scan.minimum == scan.values.min()
        assert scan.maximum == scan.values.max()
        best = qd.VonNeumannBasis.from_seed(2, scan.argmin_seed)
        assert qd.measurement_uncertainty(rho, best) == scan.minimum

    @pytest.mark.parametrize("dim_a, dim_b, spectrum", [
        (2, 3, None), (3, 4, (4.0, 3.0, 2.0)), (4, 2, (0.0, 1.0, 3.0, 7.0)),
        (3, 1, (4.0, 3.0, 2.0)), (5, 3, (0.5, -2.0, 1.0, 3.5, 2.0)),
    ])
    def test_matches_loop_reference(self, dim_a, dim_b, spectrum):
        rng = np.random.default_rng(56)
        for rho in (random_state(dim_a, dim_b, rng), random_state(dim_a, dim_b, rng, rank=1)):
            scan = qd.scan_uncertainty(rho, spectrum, samples=600, master_seed=8)
            seeds, q_values, u_values = loop_scan(rho, spectrum, 600, 8)
            assert np.array_equal(scan.seeds, seeds)
            assert np.max(np.abs(scan.q_values - q_values)) <= 1e-14
            values = q_values
            if spectrum is not None:
                assert np.max(np.abs(scan.u_values - u_values)) <= 1e-14
                values = u_values
            assert scan.argmin_seed == seeds[np.argmin(values)].item()

    def test_one_direction_on_a_has_zero_q(self):
        # dA = 1: the only basis is a phase, and the kernel's
        # Tr rho_A - h R h must stay within roundoff of the loop's exact 0.
        rho = random_state(1, 3, np.random.default_rng(57))
        scan = qd.scan_uncertainty(rho, samples=300, master_seed=9)
        _, q_values, _ = loop_scan(rho, None, 300, 9)
        assert np.all(q_values == 0.0)
        assert np.max(scan.q_values) <= 1e-14

    @pytest.mark.parametrize("dim_a, spectrum", [
        (2, (1.0, -1.0)), (3, (4.0, 3.0, 2.0)), (4, (0.0, 1.0, 3.0, 7.0)),
    ])
    def test_rows_do_not_depend_on_chunking(self, dim_a, spectrum):
        rho = random_state(dim_a, 3, np.random.default_rng(57))
        full = qd.scan_uncertainty(rho, spectrum, samples=1000, master_seed=12)
        for samples in (1, 255, 256, 257, 513):
            prefix = qd.scan_uncertainty(rho, spectrum, samples=samples, master_seed=12)
            assert np.array_equal(prefix.seeds, full.seeds[:samples])
            assert np.array_equal(prefix.q_values, full.q_values[:samples])
            assert np.array_equal(prefix.u_values, full.u_values[:samples])

    def test_minimize_matches_scan(self):
        rng = np.random.default_rng(56)
        rho = random_state(2, 2, rng)
        scan = qd.scan_uncertainty(rho, samples=16, master_seed=8)
        result = qd.minimize_uncertainty(rho, samples=16, master_seed=8)
        assert (result.minimum, result.maximum, result.argmin_seed) == (
            scan.minimum,
            scan.maximum,
            scan.argmin_seed,
        )

    def test_rejects_bad_sample_count(self):
        for samples in (0, 2.5, True):
            with pytest.raises(InvalidInputError, match="samples"):
                qd.scan_uncertainty(bell_state(), samples=samples)
        with pytest.raises(InvalidInputError, match="master_seed"):
            qd.scan_uncertainty(bell_state(), None, 2, -1)
        scan = qd.scan_uncertainty(bell_state(), None, np.int64(3), 4.0)
        assert (scan.samples, scan.master_seed) == (3, 4)
        assert type(scan.master_seed) is int and type(scan.argmin_seed) is int

    def test_derive_child_seeds_rejects_bad_input(self):
        for args in ((-1, 2), (0, 0), (0.5, 2), (0, 2.5)):
            with pytest.raises(InvalidInputError):
                qd.derive_child_seeds(*args)
        same = qd.derive_child_seeds(np.uint64(5), 3.0)
        assert np.array_equal(same, qd.derive_child_seeds(5, 3))

    def test_rejects_raw_arrays(self):
        with pytest.raises(InvalidInputError, match="DensityMatrix"):
            qd.scan_uncertainty(np.eye(4) / 4, samples=2)


# ---------------------------------------------------------------------------
# Block-trace kernels against the dense constructions they replace
# ---------------------------------------------------------------------------

#: Absolute agreement required of the block-trace kernels, fixed in advance.
REFERENCE_TOL = 1e-13

PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def kron_correlation_matrix(rho):
    """Tr[sqrt(rho) (s_i x I) sqrt(rho) (s_j x I)] from dense Kronecker operators."""
    s = qd.psd_sqrt(rho.matrix)
    ops = [np.kron(p, np.eye(rho.dim_b, dtype=complex)) for p in PAULIS]
    mid = [s @ op @ s for op in ops]
    w = np.array([[np.trace(mid[i] @ ops[j]).real for j in range(3)] for i in range(3)])
    return 0.5 * (w + w.T)


def tensordot_pair_traces(rho, u):
    """Tr[B_jk B_kj] from the blocks of sqrt(rho) rotated by two tensordots."""
    s4 = qd.psd_sqrt(rho.matrix).reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    t1 = np.tensordot(u.conj().T, s4, axes=(1, 0))
    t2 = np.tensordot(t1, u, axes=(2, 0))
    blocks = t2.transpose(0, 1, 3, 2)
    v = np.einsum("jbkd,kdjb->jk", blocks, blocks).real
    np.fill_diagonal(v, 0.0)
    return v


def reference_states(dim_a, rng):
    """Random dim_a x B states for B in {2, 3, 5}, full rank and rank deficient."""
    for dim_b in (2, 3, 5):
        for rank in (None, 1, dim_b):
            yield random_state(dim_a, dim_b, rng, rank)


class TestBlockTraceKernels:
    def test_block_traces_match_tensordot(self):
        rng = np.random.default_rng(59)
        for dim_a in (2, 3, 4):
            for rho in reference_states(dim_a, rng):
                assert np.max(np.abs(rho.block_traces() - tensordot_block_traces(rho))) <= 1e-15
        for n in (2, 10, 50):
            rho = noon_state(n, 0.6)[1]
            assert np.max(np.abs(rho.block_traces() - tensordot_block_traces(rho))) <= 1e-15

    def test_lqu_matches_kron_correlation_matrix(self):
        rng = np.random.default_rng(60)
        for rho in reference_states(2, rng):
            w = np.linalg.eigvalsh(kron_correlation_matrix(rho))
            expected = max(1.0 - w[-1], 0.0)
            assert abs(qd.local_quantum_uncertainty(rho) - expected) < REFERENCE_TOL

    def test_q_and_u_match_tensordot_kernel(self):
        rng = np.random.default_rng(61)
        spectrum = qd.MeasurementSpectrum((4.0, 3.0, 2.0))
        for rho in reference_states(3, rng):
            basis = qd.VonNeumannBasis.from_seed(3, int(rng.integers(2**63)))
            v = tensordot_pair_traces(rho, basis.unitary)
            u_ref = 0.5 * float((spectrum.gap_squared_matrix() * v).sum())
            q = qd.measurement_uncertainty(rho, basis)
            u = qd.observable_uncertainty(rho, basis, spectrum)
            assert abs(q - float(v.sum())) < REFERENCE_TOL
            assert abs(u - u_ref) < REFERENCE_TOL

    def test_scan_rows_match_tensordot_kernel(self):
        rng = np.random.default_rng(62)
        rho = random_state(3, 4, rng, rank=2)
        scan = qd.scan_uncertainty(rho, (4.0, 3.0, 2.0), samples=20, master_seed=5)
        gaps = scan.spectrum.gap_squared_matrix()
        for seed, q, u in zip(scan.seeds, scan.q_values, scan.u_values):
            v = tensordot_pair_traces(rho, qd.VonNeumannBasis.from_seed(3, seed).unitary)
            assert abs(q - float(v.sum())) < REFERENCE_TOL
            assert abs(u - 0.5 * float((gaps * v).sum())) < REFERENCE_TOL


# ---------------------------------------------------------------------------
# Quadratic-form kernel against the pair form it replaces
# ---------------------------------------------------------------------------

#: Absolute agreement of the quadratic forms with the pair form, fixed in
#: advance: Tr rho - sum cancels where the pair form sums terms >= 0.
QUADRATIC_FORM_TOL = 1e-14


def seeded_bases(dim_a, count, master_seed):
    shape = (2, dim_a, dim_a)
    return _haar_stack(_seeded_normals(qd.derive_child_seeds(master_seed, count), shape))


class TestQuadraticFormKernel:
    @pytest.mark.parametrize("dim_a, dim_b", [(2, 5), (3, 3), (3, 16), (4, 4), (6, 4)])
    def test_matches_pair_form(self, dim_a, dim_b):
        rng = np.random.default_rng(70 + dim_a * dim_b)
        spectrum = qd.MeasurementSpectrum(tuple(float(v) for v in rng.permutation(dim_a) + 1))
        gaps = spectrum.gap_squared_matrix()
        bases = seeded_bases(dim_a, 200, dim_a * dim_b)
        for rank in (None, dim_b, 1):  # full rank, rank deficient, pure
            t = random_state(dim_a, dim_b, rng, rank).block_traces()
            v = pair_trace_matrix(t, bases)
            q, u = _form_uncertainties(_hermitian_form(t), bases, spectrum)
            assert np.max(np.abs(q - v.sum(axis=(1, 2)))) <= QUADRATIC_FORM_TOL
            assert np.max(np.abs(u - 0.5 * (gaps * v).sum(axis=(1, 2)))) <= QUADRATIC_FORM_TOL

    @pytest.mark.skipif(len(forceable_core_types()) < 2,
                        reason="no DYNAMIC_ARCH OpenBLAS with two core types this CPU runs")
    def test_one_hash_under_every_blas_core_type(self):
        # T comes from an explicit block loop over a seeded Hermitian S, so
        # only the kernel could reach BLAS; it does not, so forcing OpenBLAS
        # onto another core type's kernels leaves every bit of Q and U.
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "import qdiscord as qd\n"
            "from qdiscord.discord import _form_uncertainties, _hermitian_form\n"
            "from qdiscord.linalg import _haar_stack, _seeded_normals\n"
            "h = hashlib.sha256()\n"
            "for da, db in ((2, 3), (3, 3), (4, 2)):\n"
            "    g = _seeded_normals([da], (2, da * db, da * db))[0]\n"
            "    s = g[0] + 1j * g[1]\n"
            "    s4 = (s + s.conj().T).reshape(da, db, da, db)\n"
            "    t = np.empty((da,) * 4, dtype=complex)\n"
            "    for a, b, c, d in np.ndindex(t.shape):\n"
            "        t[a, b, c, d] = (s4[a, :, b, :] * s4[c, :, d, :].T).sum()\n"
            "    bases = _haar_stack(_seeded_normals(qd.derive_child_seeds(da, 600), (2, da, da)))\n"
            "    spectrum = qd.MeasurementSpectrum(tuple(float(v * v) for v in range(da)))\n"
            "    for values in _form_uncertainties(_hermitian_form(t), bases, spectrum):\n"
            "        h.update(values.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        assert len(outputs_under_core_types(script)) == 1

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 3), (3, 4), (4, 2), (6, 4)])
    def test_classical_quantum_state_in_its_classical_bases(self, dim_a, dim_b):
        # Q and U are exactly 0 in every basis that permutes and rephases the
        # classical one; the computed Tr rho - sum must stay within roundoff
        # of 0 and never reach the clamp's NotPSDError.
        rng = np.random.default_rng(80 + dim_a)
        spectrum = qd.MeasurementSpectrum(tuple(float(v) for v in range(dim_a, 0, -1)))
        eye = np.eye(dim_a)
        bases = np.stack([
            eye[:, rng.permutation(dim_a)] * np.exp(2j * np.pi * rng.random(dim_a))
            for _ in range(50)
        ])
        for _ in range(5):
            t = classical_quantum_state(dim_a, dim_b, rng).block_traces()
            q, u = _form_uncertainties(_hermitian_form(t), bases, spectrum)
            assert np.max(q) <= QUADRATIC_FORM_TOL
            assert np.max(u) <= QUADRATIC_FORM_TOL
