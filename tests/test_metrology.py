import sys
from math import isqrt, sqrt

import numpy as np
import pytest

import qdiscord as qd
from qdiscord.errors import DimensionMismatchError, InvalidInputError

from helpers import (
    bell_state,
    classical_quantum_state,
    loop_qfi_spectral,
    noon_family,
    noon_state,
    single_photon_lqu,
)


def _pauli_direction(theta, azimuth):
    """n . sigma for the Bloch unit vector at polar angle theta."""
    nx = np.sin(theta) * np.cos(azimuth)
    ny = np.sin(theta) * np.sin(azimuth)
    nz = np.cos(theta)
    return np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])


class TestClosedForms:
    def test_lossless_fisher_information(self):
        for n in (1, 2, 5, 10):
            params, _ = noon_state(n, 1.0)
            assert abs(qd.qfi_noon_closed(params) - n * n) < 1e-12

    def test_opaque_channel(self):
        params, _ = noon_state(4, 0.0)
        assert qd.qfi_noon_closed(params) == 0.0
        assert qd.lqu_noon_closed(params) == 0.0

    def test_frozen_interior_value(self):
        # 2 T^3 / (1 + T^3) = 2/9 at T = 1/2, times n^2 = 9
        params, _ = noon_state(3, 0.5)
        assert abs(qd.qfi_noon_closed(params) - 2.0) < 1e-12

    @pytest.mark.parametrize("n", [10**155, 2**1100], ids=["1e155", "2^1100"])
    def test_fisher_information_past_a_double_is_invalid_input(self, n):
        # raised before the power T^n, which itself overflows from n = 2**1024
        params = qd.NoonChannelParams.from_transmittance(n, 0.5)
        with pytest.raises(InvalidInputError, match=rf"photon number {n} is too large: 2 n\^2 overflows"):
            qd.qfi_noon_closed(params)

    def test_fisher_information_is_finite_up_to_its_limit(self):
        n = isqrt(int(sys.float_info.max) // 2)  # the largest n with 2 n^2 <= max
        for t2 in (0.0, 0.5, 1.0):
            assert np.isfinite(qd.qfi_noon_closed(qd.NoonChannelParams.from_transmittance(n, t2)))
        with pytest.raises(InvalidInputError, match="too large"):
            qd.qfi_noon_closed(qd.NoonChannelParams.from_transmittance(n + 1, 1.0))

    @pytest.mark.parametrize("n", [10**155, 2**1100], ids=["1e155", "2^1100"])
    def test_discord_candidate_past_a_double(self, n):
        # T^n used to raise the builtin OverflowError once n itself passes a double
        params = qd.NoonChannelParams.from_transmittance(n, 0.5)
        if n < sys.float_info.max:
            assert qd.lqu_noon_closed(params) == 0.0
        else:
            with pytest.raises(InvalidInputError, match=rf"photon number {n} is too large: n overflows"):
                qd.lqu_noon_closed(params)

    def test_spectral_route_agrees(self):
        for n in range(1, 11):
            for t2 in (0.1, 0.4, 0.75, 0.95):
                params, _ = noon_state(n, t2, phi=0.6)
                closed = qd.qfi_noon_closed(params)
                spectral = qd.qfi_noon_spectral(params)
                assert abs(closed - spectral) < 1e-10

    def test_spectral_route_equals_loop_reference(self):
        points = [qd.NoonChannelParams(3, 0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j), 0.25)]
        points += [
            qd.NoonChannelParams.from_transmittance(n, float(t2), phi)
            for n in (1, 2, 5, 13, 40, 200)
            for t2 in np.linspace(0.0, 1.0, 11)
            for phi in (0.0, 0.3, -2.1)
        ]
        for params in points:
            assert qd.qfi_noon_spectral(params) == loop_qfi_spectral(params), params

    def test_qubit_uncertainty_closed_form_from_two_photons_up(self):
        for n in range(2, 11):
            for t2 in (0.2, 0.5, 0.8):
                params, rho = noon_state(n, t2)
                computed = qd.local_quantum_uncertainty(rho)
                assert abs(computed - qd.lqu_noon_closed(params)) < 1e-9

    def test_single_photon_closed_form_overestimates(self):
        # With one photon the correlation-matrix maximum moves to the
        # transverse directions, so the computed value follows
        # 1 - sqrt((1 - T) / (1 + T)) and sits strictly below the
        # two-photon-and-up expression at interior transmittance.
        for t2 in (0.25, 0.5, 0.75):
            params, rho = noon_state(1, t2)
            computed = qd.local_quantum_uncertainty(rho)
            transverse = 1.0 - sqrt((1.0 - t2) / (1.0 + t2))
            assert abs(computed - transverse) < 1e-10
            assert qd.lqu_noon_closed(params) > computed + 0.05

    def test_single_photon_value_from_skew_information(self):
        # Independent of the block-trace kernels: the LQU on a qubit side is
        # the minimum of the skew information over local Pauli directions.
        # The transverse direction sigma_x attains 1 - sqrt((1 - T)/(1 + T)),
        # below the paper's 2T/(1 + T), and no direction goes lower.
        thetas = np.linspace(0.0, np.pi, 13)
        azimuths = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        eye_b = np.eye(2)
        sx = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), eye_b)
        for t2 in (0.3, 0.6):
            params, rho = noon_state(1, t2)
            exact = single_photon_lqu(t2)
            assert abs(qd.skew_information(rho, sx) - exact) < 1e-12
            assert qd.lqu_noon_closed(params) > exact + 0.05
            lowest = min(
                qd.skew_information(rho, np.kron(_pauli_direction(theta, azimuth), eye_b))
                for theta in thetas
                for azimuth in azimuths
            )
            assert lowest > exact - 1e-12

    def test_single_photon_endpoints_agree(self):
        for t2 in (0.0, 1.0):
            params, rho = noon_state(1, t2)
            computed = qd.local_quantum_uncertainty(rho)
            assert abs(computed - qd.lqu_noon_closed(params)) < 1e-9

    @pytest.mark.parametrize("t2", [1.0 - 1e-14, 1.0 - 1e-15])
    def test_single_photon_near_full_transmission(self, t2):
        # The loss weight w_0 = (1 - T) / 2 is an exact diagonal entry far
        # below 64 eps of the top eigenvalue; the dense root must keep it.
        _, rho = noon_state(1, t2)
        assert abs(qd.local_quantum_uncertainty(rho) - single_photon_lqu(t2)) <= 1e-15


class TestUhlmannFidelity:
    def test_identical_states_exactly_one(self):
        _, rho = noon_state(5, 0.3)
        assert qd.uhlmann_fidelity(rho, rho) == 1.0

    def test_equal_copies_exactly_one(self):
        # Two builds of one state through the same constructor give the same
        # root bits, whether exact (the probe builder) or from eigh.
        params, rho = noon_state(5, 0.3)
        assert qd.uhlmann_fidelity(rho, qd.noon_lossy_density(params)) == 1.0
        copies = [qd.DensityMatrix(rho.matrix.copy(), rho.dim_a, rho.dim_b) for _ in range(2)]
        assert qd.uhlmann_fidelity(*copies) == 1.0

    def test_orthogonal_pure_states(self):
        a = qd.DensityMatrix(np.diag([1.0, 0.0]), 2, 1)
        b = qd.DensityMatrix(np.diag([0.0, 1.0]), 2, 1)
        assert qd.uhlmann_fidelity(a, b) < 1e-12

    def test_pure_state_overlap(self):
        plus = qd.DensityMatrix(np.full((2, 2), 0.5), 2, 1)
        zero = qd.DensityMatrix(np.diag([1.0, 0.0]), 2, 1)
        assert abs(qd.uhlmann_fidelity(zero, plus) - 0.5) < 1e-12

    def test_classical_mixtures(self):
        # (sum_i sqrt(p_i q_i))^2 = 0.8 for these weights
        a = qd.DensityMatrix(np.diag([0.5, 0.5]), 2, 1)
        b = qd.DensityMatrix(np.diag([0.9, 0.1]), 2, 1)
        assert abs(qd.uhlmann_fidelity(a, b) - 0.8) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(61)
        a = classical_quantum_state(2, 2, rng)
        b = classical_quantum_state(2, 2, rng)
        f1 = qd.uhlmann_fidelity(a, b)
        f2 = qd.uhlmann_fidelity(b, a)
        assert abs(f1 - f2) < 1e-12
        assert 0.0 <= f1 <= 1.0

    def test_never_exceeds_one(self):
        _, rho = noon_state(8, 0.6)
        bumped = rho.matrix.copy()
        bumped[0, 0] += 1e-15
        bumped[-1, -1] -= 1e-15
        assert qd.uhlmann_fidelity(rho, qd.DensityMatrix(bumped, rho.dim_a, rho.dim_b)) <= 1.0

    def test_rejects_raw_arrays(self):
        _, rho = noon_state(2, 0.5)
        for a, b in ((rho, rho.matrix), (rho.matrix, rho)):
            with pytest.raises(InvalidInputError, match="DensityMatrix"):
                qd.uhlmann_fidelity(a, b)
        with pytest.raises(InvalidInputError, match="DensityMatrix"):
            qd.qfi_fidelity_estimate(lambda phi: rho.matrix)

    def test_states_of_different_sizes_are_rejected(self):
        a = qd.DensityMatrix(np.eye(2) / 2, 2, 1)
        with pytest.raises(DimensionMismatchError, match="sizes"):
            qd.uhlmann_fidelity(a, qd.DensityMatrix(np.eye(3) / 3, 3, 1))
        _, rho = noon_state(2, 0.5)
        with pytest.raises(DimensionMismatchError, match="sizes"):
            qd.uhlmann_fidelity(rho, a)


class TestFisherEstimate:
    def test_constant_family_is_exactly_zero(self):
        _, rho = noon_state(3, 0.4)
        assert qd.qfi_fidelity_estimate(lambda phi: rho) == 0.0

    def test_lossless_two_photons(self):
        estimate = qd.qfi_fidelity_estimate(noon_family(2, 1.0))
        assert abs(estimate - 4.0) / 4.0 < 1e-3

    def test_tracks_closed_form_midrange(self):
        for n, t2 in ((2, 0.5), (4, 0.7), (6, 0.9)):
            params, _ = noon_state(n, t2)
            closed = qd.qfi_noon_closed(params)
            estimate = qd.qfi_fidelity_estimate(noon_family(n, t2), phi=0.2)
            assert abs(estimate - closed) / closed < 1e-3

    def test_roundoff_floor_is_bounded(self):
        # Where F_Q is far below it (2e-28, 5e-47) the oracle reads the
        # floor, 2e-26 to 2e-24 under every BLAS core type, not F_Q.
        for n, t2 in ((10, 0.001), (50, 0.1), (100, 0.5)):
            params, _ = noon_state(n, t2)
            closed = qd.qfi_noon_closed(params)
            estimate = qd.qfi_fidelity_estimate(noon_family(n, t2))
            assert abs(estimate - closed) <= 1e-5 * closed + 1e-23

    def test_delta_validation(self):
        family = noon_family(2, 0.5)
        for delta in (0.0, -1e-3, 0.2):
            with pytest.raises(InvalidInputError, match="delta"):
                qd.qfi_fidelity_estimate(family, delta=delta)

    def test_family_changing_size_is_rejected(self):
        def family(phi):
            return noon_state(2 if phi == 0.0 else 3, 0.5)[1]

        with pytest.raises(DimensionMismatchError, match="sizes"):
            qd.qfi_fidelity_estimate(family)

    def test_rejects_non_callable(self):
        _, rho = noon_state(2, 0.5)
        with pytest.raises(InvalidInputError, match="callable"):
            qd.qfi_fidelity_estimate(rho)


class TestProbeOracle:
    """qfi_noon_oracle, from the two 2 x 2 core roots, against the dense oracle and the
    closed form, at its step delta = min(1e-3, 1e-2 / n)."""

    def test_matches_the_dense_oracle(self):
        # Both oracles take the phase step n delta exactly. The dense reference's second state is
        # its first under the local unitary exp(i delta n_B), with n_B arm B's photon number;
        # the family at fl(phi + delta) would be off that step by up to ulp(phi) / 2 (5.5e-13
        # of it at phi = 0.7 and delta = 1e-4), an error the probe oracle does not make.
        for n in (1, 2, 3, 5, 10, 20, 50, 100, 200):
            delta = min(1e-3, 1e-2 / n)
            floor = 1e-23 * (1e-3 / delta) ** 2  # the eps^2 / delta^2 roundoff floor, 1e-23 at 1e-3
            phase = np.exp(1j * delta * (np.arange(2 * (n + 1)) % (n + 1)))
            turn = np.outer(phase, phase.conj())  # U X U^dagger = X * turn for the diagonal U
            for t2 in np.linspace(0.0, 1.0, 21):
                for phi in (0.0, 0.7):
                    params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
                    rho = qd.noon_lossy_density(params)
                    turned = qd.DensityMatrix._from_root(rho.matrix * turn, 2, n + 1, rho.sqrt * turn)
                    dense = qd.qfi_fidelity_estimate(lambda x: rho if x == phi else turned, phi, delta)
                    assert abs(qd.qfi_noon_oracle(params) - dense) <= 1e-12 * dense + floor, (n, t2, phi)

    @pytest.mark.parametrize("n", [1, 5, 50])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_core_root_is_the_dense_roots_core(self, n, phi):
        for t2 in (0.0, 0.3, 0.9, 1.0):
            params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
            dense = qd.noon_lossy_density(params).sqrt[n:n + 2, n:n + 2]
            assert np.array_equal(qd.NoonProbe(params).core_root(), dense), t2

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 11, 50, 200, 1000, 10**4, 10**5, qd.states.PROBE_MAX_N])
    def test_within_its_truncation_at_every_photon_number(self, n):
        # n delta <= 0.01, so the relative truncation (n delta)^2 / 12 stays below 8.4e-6,
        # tight at n = 1000. Where F_Q is below it the oracle reads its roundoff floor:
        # up to 4 eps^2 / delta^2 under the AVX-512 OpenBLAS kernel, about 16 under Nehalem's.
        # The phase step is n delta at any phi, so the bound holds at large |phi| too.
        delta = min(1e-3, 1e-2 / n)
        floor = 64.0 * np.finfo(float).eps ** 2 / delta ** 2
        for t2 in np.linspace(0.0, 1.0, 101):
            for phi in (0.0, 0.7, 100.0, 1e4):
                params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
                closed = qd.qfi_noon_closed(params)
                assert abs(qd.qfi_noon_oracle(params) - closed) <= 8.4e-6 * closed + floor, (t2, phi)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 11, 50, 200, 1000, 10**4, 10**5, qd.states.PROBE_MAX_N])
    def test_matches_its_own_closed_form(self, n):
        # In exact arithmetic the two core roots lie D^2 = 4 x sin^2(n delta / 2) / ((1 + x) +
        # |1 + x e^(i n delta)|) apart, x = T^n = |c|^2, at every phi: the oracle reads 4 D^2 /
        # delta^2. Measured worst: 3.7e-13 relative, or 0.37 of this bound, over this grid.
        delta = min(1e-3, 1e-2 / n)
        floor = 64.0 * np.finfo(float).eps ** 2 / delta ** 2
        for t2 in np.linspace(0.0, 1.0, 101):
            x = t2 ** n
            d2 = 4.0 * x * np.sin(n * delta / 2) ** 2 / ((1.0 + x) + abs(1.0 + x * np.exp(1j * n * delta)))
            for phi in (0.0, 0.7, 100.0, 1e4):
                params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
                closed = 4.0 * d2 / delta ** 2
                assert abs(qd.qfi_noon_oracle(params) - closed) <= 1e-12 * closed + floor, (t2, phi)

    def test_past_the_probe_limit_is_invalid_input(self):
        params = qd.NoonChannelParams.from_transmittance(qd.states.PROBE_MAX_N + 1, 0.5)
        for route in (qd.qfi_noon_spectral, qd.qfi_noon_oracle):
            with pytest.raises(InvalidInputError, match="past TRACE_TOL / eps"):
                route(params)


class TestNegativity:
    def test_bell_state(self):
        assert abs(qd.negativity(bell_state()) - 0.5) < 1e-12

    def test_lossless_equals_maximally_entangled(self):
        _, rho = noon_state(4, 1.0)
        assert abs(qd.negativity(rho) - 0.5) < 1e-12

    def test_opaque_channel_is_separable(self):
        _, rho = noon_state(3, 0.0)
        assert qd.negativity(rho) == 0.0

    def test_classical_quantum_states_are_ppt(self):
        rng = np.random.default_rng(62)
        rho = classical_quantum_state(2, 3, rng)
        assert qd.negativity(rho) < 1e-10

    def test_frozen_baseline(self):
        _, rho = noon_state(10, 0.9)
        assert qd.negativity(rho) == pytest.approx(0.29524499997499953, abs=1e-10)

    def test_probe_matches_closed_form(self):
        # The partial transpose couples |0>|0> and |1>|N> only:
        # N = (sqrt(a^2 + T^N) - a) / 2 with a = (1 - T)^N / 2.
        for n in range(1, 51):
            for t2 in (0.0, 0.05, 0.3, 0.5, 0.8, 1.0):
                _, rho = noon_state(n, t2, 0.7)
                a = 0.5 * (1.0 - t2) ** n
                expected = 0.5 * (sqrt(a * a + t2 ** n) - a)
                assert abs(qd.negativity(rho) - expected) <= 1e-13, (n, t2)

    def test_rejects_raw_arrays(self):
        with pytest.raises(InvalidInputError, match="DensityMatrix"):
            qd.negativity(np.eye(4) / 4)


class TestIdentitySweep:
    def test_holds_from_two_photons_up(self):
        residuals = [
            point[5] for n in range(2, 5) for point in qd.identity_sweep(n, (0.3, 0.7))
        ]
        assert len(residuals) == 6
        assert max(residuals) < 1e-9

    def test_single_photon_gap_is_reported_not_hidden(self):
        [(_, _, _, _, _, residual)] = qd.identity_sweep(1, [0.5])
        assert residual == pytest.approx(0.2440169358562924, abs=1e-12)

    def test_points_carry_both_routes(self):
        [(_, _, _, f, dg, _)] = qd.identity_sweep(3, [0.5])
        assert abs(f - 2.0) < 1e-12
        assert abs(f - dg * 9.0) < 1e-9

    def test_phase_is_a_local_unitary_on_b(self):
        grid = (0.2, 0.5, 0.9)
        rotated = list(qd.identity_sweep(4, grid, 0.7))
        plain = list(qd.identity_sweep(4, grid))
        assert [point[1].phi for point in rotated] == [0.7] * 3
        assert [point[3] for point in rotated] == [point[3] for point in plain]
        for a, b in zip(rotated, plain):
            assert abs(a[4] - b[4]) <= 1e-14, a[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="empty"):
            list(qd.identity_sweep(2, []))

    def test_grid_longer_than_a_block(self):
        # Three stacked kernel calls, the last one short: every DG is the
        # probe's own LQU to the last bit.
        grid = np.linspace(0.0, 1.0, 2 * qd.metrology._SWEEP_BLOCK + 37)
        rows = list(qd.identity_sweep(10, grid, 0.7))
        assert [row[0] for row in rows] == grid.tolist()
        for t2, _, probe, _, dg, _ in rows:
            assert dg.hex() == qd.local_quantum_uncertainty(probe).hex(), t2

    def test_invalid_late_point_raises_before_any_row(self):
        # A block is validated whole before its first row is yielded.
        sweep = qd.identity_sweep(2, [0.1, 0.5, 0.9, 1.5])
        with pytest.raises(InvalidInputError, match="transmittance must lie in"):
            next(sweep)


class TestNoonProbe:
    """The block-form probe against the dense state it stands for."""

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_agrees_with_the_dense_state(self, n, phi):
        grid = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
        for t2, params, probe, _, dg, _ in qd.identity_sweep(n, grid, phi):
            rho = qd.noon_lossy_density(params)
            assert abs(dg - qd.local_quantum_uncertainty(rho)) <= 1e-12, t2
            assert abs(probe.negativity() - qd.negativity(rho)) <= 1e-12, t2
            assert abs(probe.trace - rho.matrix.trace().real) <= 1e-12, t2

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_block_traces_match_the_dense_state(self, n, phi):
        for t2 in np.linspace(0.0, 1.0, 21):
            params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
            probe, rho = qd.NoonProbe(params), qd.noon_lossy_density(params)
            assert (probe.dim_a, probe.dim_b) == (rho.dim_a, rho.dim_b) == (2, n + 1)
            assert np.max(np.abs(probe.block_traces() - rho.block_traces())) <= 1e-15, t2

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_sweep_dg_is_the_probe_lqu(self, phi):
        for n in (1, 2, 10, 1030, qd.states.PROBE_MAX_N):
            for t2, params, _, _, dg, _ in qd.identity_sweep(n, np.linspace(0.0, 1.0, 11), phi):
                lqu = qd.local_quantum_uncertainty(qd.NoonProbe(params))
                assert dg.hex() == lqu.hex(), (n, t2)

    def test_runs_past_the_dense_limit(self):
        params = qd.NoonChannelParams.from_transmittance(1030, 0.5)
        with pytest.raises(InvalidInputError, match="photon number 1030 is too large"):
            qd.noon_lossy_density(params)
        probe = qd.NoonProbe(params)
        assert abs(probe.trace - 1.0) <= 1e-12
        # w_0 = |r|^2060 / 2 is subnormal but kept; the loss rows hold the rest of 1/2
        assert probe.w0 == 0.5 * (abs(params.r) ** 2) ** 1030 > 0.0
        assert abs(probe.loss_total - 0.5) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200, 1029])
    def test_closed_forms_match_the_dense_weights(self, n):
        for t2 in (0.0, 0.1, 0.3, 0.36, 0.5, 0.7, 0.9, 0.99, 1.0):
            params = qd.NoonChannelParams.from_transmittance(n, t2)
            probe, weights = qd.NoonProbe(params), qd.states._loss_weights(params)
            assert probe.w0 == weights[0], t2
            assert abs(probe.loss_total - weights[:n].sum()) <= 1e-15, t2

    def test_holds_at_its_limit(self):
        limit = qd.states.PROBE_MAX_N
        assert limit == 450359  # TRACE_TOL / eps
        for phi in (0.0, 0.7):
            for t2 in np.linspace(0.0, 1.0, 101):
                probe = qd.NoonProbe(qd.NoonChannelParams.from_transmittance(limit, t2, phi))
                assert abs(probe.trace - 1.0) <= qd.states.TRACE_TOL, t2

    def test_rejects_photon_numbers_past_its_own_limit(self):
        params = qd.NoonChannelParams.from_transmittance(qd.states.PROBE_MAX_N + 1, 0.5)
        with pytest.raises(InvalidInputError, match=r"photon number 450360 is too large: past TRACE_TOL / eps = 450359"):
            qd.NoonProbe(params)

    @pytest.mark.parametrize("n", [10**9, 10**20, 2**1100], ids=["1e9", "1e20", "2^1100"])
    def test_rejects_photon_numbers_far_past_its_limit(self, n):
        # raised before any power: 10**9 would fail the trace check, and the
        # other two would raise OverflowError from a float power of n
        params = qd.NoonChannelParams.from_transmittance(n, 0.5)
        with pytest.raises(InvalidInputError, match=f"photon number {n} is too large: past TRACE_TOL / eps"):
            qd.NoonProbe(params)

    @pytest.mark.parametrize("change, message", [
        (lambda w: tuple(x * (1.0 + 1e-9) for x in w), "trace 1.0000000005"),
        (lambda w: (w[0], -w[1]), "min weight -"),
    ], ids=["trace", "negative-weight"])
    def test_checks_its_weights(self, monkeypatch, change, message):
        probe_weights = qd.states._probe_weights
        monkeypatch.setattr(qd.states, "_probe_weights", lambda params: change(probe_weights(params)))
        with pytest.raises(InvalidInputError, match=message):
            qd.NoonProbe(qd.NoonChannelParams.from_transmittance(10, 0.5))

    def test_rejects_raw_parameters(self):
        with pytest.raises(InvalidInputError, match="NoonChannelParams"):
            qd.NoonProbe((10, 0.5))
