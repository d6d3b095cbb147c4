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
from qdiscord.discord import _clamp_uncertainty

from helpers import (
    bell_state,
    classical_quantum_state,
    loop_assignment,
    loop_scan,
    random_pure,
    random_state,
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
            a = qd.uncertainty_term(rho, basis, j, k)
            b = qd.uncertainty_term(rho, basis, k, j)
            assert abs(a - b) < 1e-13

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 4)])
    def test_diagonal_term_is_projector_skew_information(self, dims):
        rng = np.random.default_rng(42)
        rho = random_state(*dims, rng)
        basis = qd.VonNeumannBasis.from_seed(dims[0], 11)
        eye_b = np.eye(dims[1])
        for j in range(dims[0]):
            direct = qd.uncertainty_term(rho, basis, j, j)
            via_skew = qd.skew_information(rho, np.kron(basis.projector(j), eye_b))
            assert abs(direct - via_skew) < 1e-11

    def test_index_out_of_range(self):
        basis = qd.VonNeumannBasis.computational(2)
        with pytest.raises(IndexError):
            qd.uncertainty_term(bell_state(), basis, 0, 2)

    def test_basis_dimension_checked(self):
        basis = qd.VonNeumannBasis.computational(3)
        with pytest.raises(DimensionMismatchError):
            qd.uncertainty_term(bell_state(), basis, 0, 1)


class TestMeasurementUncertainty:
    def test_bell_state(self):
        q = qd.measurement_uncertainty(bell_state(), qd.VonNeumannBasis.computational(2))
        assert abs(q - 0.5) < 1e-12

    def test_equals_pair_term_sum(self):
        rng = np.random.default_rng(43)
        rho = random_state(3, 3, rng)
        basis = qd.VonNeumannBasis.from_seed(3, 17)
        total = 2.0 * sum(
            qd.uncertainty_term(rho, basis, j, k)
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
        dec = qd.schmidt_decompose(state)
        for arg in (probs, state, dec):
            assert abs(qd.geometric_discord_pure(arg) - 0.46) < 1e-12

    def test_product_state_has_no_discord(self):
        assert qd.geometric_discord_pure([1.0, 0.0]) == 0.0

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
        # The state's positivity check and every root read one eigh, of the
        # rows an off-diagonal entry couples: |0>|N> and |1>|0> for the
        # lossy probe, every row for a dense state.
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append("eigvalsh"))
        params = qd.NoonChannelParams.from_transmittance(4, 0.6)
        rho = qd.noon_lossy_density(params)
        qd.local_quantum_uncertainty(rho)
        assert "eigvalsh" not in calls
        assert calls.count((2, 2)) == 1
        assert (rho.dim, rho.dim) not in calls
        calls.clear()
        dense = random_state(2, 3, np.random.default_rng(48))
        qd.local_quantum_uncertainty(dense)
        assert "eigvalsh" not in calls
        assert calls.count((dense.dim, dense.dim)) == 1

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
        rho = random_state(3, 2, rng)
        scan = qd.scan_uncertainty(rho, samples=16, master_seed=9)
        for i in (0, 7, 15):
            basis = qd.VonNeumannBasis.from_seed(3, int(scan.seeds[i]))
            assert qd.measurement_uncertainty(rho, basis) == scan.q_values[i]

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
    ])
    def test_matches_loop_reference(self, dim_a, dim_b, spectrum):
        rng = np.random.default_rng(56)
        for rho in (random_state(dim_a, dim_b, rng), random_state(dim_a, dim_b, rng, rank=1)):
            scan = qd.scan_uncertainty(rho, spectrum, samples=600, master_seed=8)
            seeds, q_values, u_values = loop_scan(rho, spectrum, 600, 8)
            assert np.array_equal(scan.seeds, seeds)
            assert np.max(np.abs(scan.q_values - q_values)) <= 4.5e-16
            values = q_values
            if spectrum is not None:
                assert np.max(np.abs(scan.u_values - u_values)) <= 4.5e-16
                values = u_values
            assert scan.argmin_seed == seeds[np.argmin(values)].item()

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

    def test_csv_output(self, tmp_path):
        rng = np.random.default_rng(55)
        rho = random_state(2, 2, rng)
        scan = qd.scan_uncertainty(rho, spectrum=(1.0, -1.0), samples=4, master_seed=6)
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,Q,U"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert int(first[0]) == int(scan.seeds[0])
        assert float(first[1]) == pytest.approx(scan.q_values[0], abs=1e-11)
        qd.scan_uncertainty(rho, samples=4, master_seed=6).to_csv(path)
        plain = path.read_text().splitlines()
        assert plain == ["seed,Q"] + [",".join(line.split(",")[:2]) for line in lines[1:]]

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
            basis = qd.VonNeumannBasis.haar_random(3, rng)
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
