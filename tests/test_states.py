import json
from dataclasses import FrozenInstanceError
from math import comb, sqrt

import numpy as np
import pytest

import qdiscord as qd
from qdiscord.errors import DimensionMismatchError, InvalidInputError
from qdiscord.linalg import RECONSTRUCT_TOL
from qdiscord.states import matrix_from_json

from helpers import (
    bell_state,
    loop_eigenvalues,
    loop_lossy_density,
    loop_tripartite,
    noon_state,
    random_pure,
    split_psd_sqrt,
)

EPS = np.finfo(float).eps

#: Probe parameters on which the loss-table builders are compared with the
#: per-k loop references; the first has complex t and r, whose phases the
#: amplitudes carry.
PROBE_POINTS = [qd.NoonChannelParams(3, 0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j), 0.25)] + [
    qd.NoonChannelParams.from_transmittance(n, float(t2), phi)
    for n in (1, 2, 3, 4, 7, 12, 30, 64)
    for t2 in np.linspace(0.0, 1.0, 11)
    for phi in (0.0, 0.3, -2.1)
]


class TestPureBipartiteState:
    def test_requires_unit_norm(self):
        with pytest.raises(InvalidInputError):
            qd.PureBipartiteState(np.ones((2, 2), dtype=complex))

    def test_from_probabilities_diagonal(self):
        state = qd.PureBipartiteState.from_probabilities([0.25, 0.75])
        expected = np.diag([0.5, sqrt(0.75)]).astype(complex)
        assert np.allclose(state.coefficients, expected, atol=1e-12)

    def test_from_probabilities_wide_b(self):
        state = qd.PureBipartiteState.from_probabilities([0.5, 0.5], dim_b=4)
        assert state.dim_a == 2 and state.dim_b == 4
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12

    def test_from_probabilities_validation(self):
        with pytest.raises(InvalidInputError):
            qd.PureBipartiteState.from_probabilities([0.4, 0.4])
        with pytest.raises(InvalidInputError):
            qd.PureBipartiteState.from_probabilities([1.2, -0.2])
        with pytest.raises(InvalidInputError, match="finite"):
            qd.PureBipartiteState.from_probabilities([np.nan, 0.5, 0.5])
        with pytest.raises(DimensionMismatchError):
            qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2], dim_b=2)
        for dim_b in (2.5, True, "3"):
            with pytest.raises(InvalidInputError, match="dim_b"):
                qd.PureBipartiteState.from_probabilities([0.5, 0.5], dim_b=dim_b)


class TestSchmidtDecomposition:
    def test_product_state(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 0] = 1.0
        coeff, _, _ = qd.schmidt_decompose(qd.PureBipartiteState(c))
        assert np.allclose(coeff ** 2, [1.0, 0.0], atol=1e-14)

    def test_bell_state(self):
        c = np.eye(2, dtype=complex) / sqrt(2.0)
        coeff, _, _ = qd.schmidt_decompose(qd.PureBipartiteState(c))
        assert np.allclose(coeff ** 2, [0.5, 0.5], atol=1e-12)

    def test_random_3x5_reconstruction(self):
        rng = np.random.default_rng(21)
        state = random_pure(3, 5, rng)
        coeff, basis_a, basis_b = qd.schmidt_decompose(state)
        assert np.all(np.diff(coeff) <= 1e-15)
        assert abs((coeff ** 2).sum() - 1.0) < 1e-12
        assert np.allclose((basis_a * coeff) @ basis_b.T, state.coefficients, atol=1e-10)

    def test_returns_the_svd_slices(self):
        state = random_pure(4, 3, np.random.default_rng(23))
        u, s, vh = np.linalg.svd(state.coefficients)
        for got, want in zip(qd.schmidt_decompose(state), (s, u[:, :3], vh[:3, :].T), strict=True):
            assert np.array_equal(got, want)

    def test_bases_orthonormal(self):
        rng = np.random.default_rng(22)
        coeff, basis_a, basis_b = qd.schmidt_decompose(random_pure(4, 3, rng))
        r = coeff.size
        assert np.allclose(
            basis_a.conj().T @ basis_a, np.eye(r), atol=1e-12
        )
        assert np.allclose(
            basis_b.conj().T @ basis_b, np.eye(r), atol=1e-12
        )


class TestDensityMatrix:
    def test_from_pure_product(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 0] = 1.0
        rho = qd.DensityMatrix.from_pure(qd.PureBipartiteState(c))
        assert np.allclose(rho.matrix, np.diag([1, 0, 0, 0]), atol=1e-14)

    def test_from_pure_bell(self):
        rho = bell_state()
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(rho.matrix, expected, atol=1e-14)
        assert abs(rho.purity() - 1.0) < 1e-12

    def test_from_pure_has_unit_trace(self):
        rng = np.random.default_rng(23)
        rho = qd.DensityMatrix.from_pure(random_pure(3, 4, rng))
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12

    def test_from_pure_root_squares_to_rho(self):
        rng = np.random.default_rng(24)
        for dims in ((2, 2), (3, 4), (4, 3)):
            state = random_pure(*dims, rng)
            rho = qd.DensityMatrix.from_pure(state)
            gap = np.linalg.norm(rho.sqrt @ rho.sqrt - rho.matrix) / np.linalg.norm(rho.matrix)
            assert gap <= RECONSTRUCT_TOL
            assert not rho.sqrt.flags.writeable

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidInputError, match="trace violated"):
            qd.DensityMatrix(np.eye(4), 2, 2)

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.3
        with pytest.raises(InvalidInputError, match="hermiticity violated"):
            qd.DensityMatrix(m, 2, 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.6, -0.2, 0.0])
        with pytest.raises(InvalidInputError, match="PSD violated"):
            qd.DensityMatrix(m, 2, 2)

    def test_dimensions_are_counts(self):
        with pytest.raises(InvalidInputError, match="dim_a"):
            qd.DensityMatrix(np.eye(4) / 4, 2.9, 2.1)
        rho = qd.DensityMatrix(np.eye(4) / 4, np.int64(2), 2.0)
        assert (rho.dim_a, rho.dim_b) == (2, 2)
        assert type(rho.dim_a) is int and type(rho.dim_b) is int

    def test_matrix_is_read_only(self):
        rho = bell_state()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_sqrt_is_read_only_psd_sqrt_of_matrix(self):
        # The probe's root is its closed form v v^dagger / (sqrt(2) |v|) +
        # diag(sqrt(w_k)), read off the matrix: rho = v v^dagger / 2 on rows
        # n, n + 1 and w_k on [k, k], k < n; it is psd_sqrt's to roundoff.
        n = 6
        _, rho = noon_state(n, 0.7)
        m = rho.matrix
        expected = (2.0 * m) * (1.0 / sqrt(2.0 * (1.0 + abs(2.0 * m[n, n + 1]) ** 2)))
        expected[np.arange(n), np.arange(n)] = np.sqrt(m.diagonal()[:n].real)
        assert rho.sqrt.tobytes() == expected.tobytes()
        assert np.abs(rho.sqrt - qd.psd_sqrt(m)).max() <= 4 * EPS
        with pytest.raises(ValueError):
            rho.sqrt[0, 0] = 2.0
        with pytest.raises(FrozenInstanceError):
            rho.sqrt = np.eye(rho.dim)

    def test_matrix_is_kept_as_given(self):
        m = np.array([[0.5, 0.5 + 4.1e-11], [0.5 + 1.39e-10, 0.5]])
        rho = qd.DensityMatrix(m, 2, 1)
        assert rho.matrix.tobytes() == m.astype(complex).tobytes()
        herm = 0.5 * (m + m.T)
        assert np.allclose(rho.sqrt @ rho.sqrt, herm, rtol=0.0, atol=1e-9)

    def test_reduced(self):
        rho = bell_state()
        assert np.allclose(rho.reduced(0), np.eye(2) / 2, atol=1e-12)
        assert np.allclose(rho.reduced(1), np.eye(2) / 2, atol=1e-12)

    def test_reduced_subsystem_is_an_index(self):
        rho = bell_state()
        for subsystem in (2.5, True, "1"):
            with pytest.raises(InvalidInputError, match="keep index"):
                rho.reduced(subsystem)
        with pytest.raises(IndexError):
            rho.reduced(2)


class TestExactRoot:
    """A builder that knows the root S checks ||m - S S^dagger||_F <= PSD_TOL
    in place of the eigendecomposition; the other checks are the constructor's."""

    def test_root_missing_by_more_than_psd_tol_raises(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        root = np.sqrt(m)
        root[2, 2] = 5e-6  # S S^dagger is off by 2.5e-11 at [2, 2]
        assert qd.DensityMatrix._from_root(m.copy(), 2, 2, root).sqrt is root
        root = np.sqrt(m)
        root[2, 2] = 2e-5  # 4e-10
        with pytest.raises(InvalidInputError, match="PSD violated"):
            qd.DensityMatrix._from_root(m, 2, 2, root)

    def test_no_root_proves_a_negative_eigenvalue(self):
        m = np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex)
        with pytest.raises(InvalidInputError, match="PSD violated"):
            qd.DensityMatrix._from_root(m, 2, 2, np.sqrt(np.abs(m)))

    def test_nan_root_raises(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        root = np.sqrt(m)
        root[3, 0] = np.nan
        with pytest.raises(InvalidInputError, match="PSD violated.*nan"):
            qd.DensityMatrix._from_root(m, 2, 2, root)

    def test_other_checks_are_the_constructors(self):
        m = np.diag([1.2, 0.6, -0.2, 0.0]).astype(complex)
        m[0, 1] = 0.5
        with pytest.raises(InvalidInputError) as err:
            qd.DensityMatrix._from_root(m, 2, 2, np.zeros((4, 4), dtype=complex))
        kinds = [v.split(" violated")[0] for v in str(err.value).split("; ")]
        assert kinds == ["hermiticity", "trace", "PSD"]
        with pytest.raises(DimensionMismatchError):
            qd.DensityMatrix._from_root(np.eye(4) / 4, 2, 3, np.eye(4) / 2)

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_probe_root_is_psd_sqrt(self, n):
        # The loss rows are isolated; a small weight w_k falls below psd_sqrt's
        # 64 eps eigenvalue cut, so the reference roots those rows exactly.
        for t2 in (0.0, 1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0):
            for phi in (0.0, 0.7):
                _, rho = noon_state(n, t2, phi)
                assert np.abs(rho.sqrt - split_psd_sqrt(rho.matrix)).max() <= 4 * EPS
                assert not (rho.matrix.flags.writeable or rho.sqrt.flags.writeable)

    def test_pure_root_is_psd_sqrt(self):
        rng = np.random.default_rng(25)
        states = [random_pure(*dims, rng) for dims in ((2, 1), (2, 2), (2, 5), (3, 3), (4, 3))]
        states += [qd.PureBipartiteState.from_probabilities(p, 3) for p in ([1.0, 0.0], [0.25, 0.75])]
        for state in states:
            rho = qd.DensityMatrix.from_pure(state)
            assert np.abs(rho.sqrt - qd.psd_sqrt(rho.matrix)).max() <= 4 * EPS


class TestValidationReport:
    def test_all_checks_pass(self):
        report = qd.validation_report(np.eye(4) / 4, 2, 2)
        assert report.ok
        assert report.violations == ()

    def test_psd_failure_message(self):
        report = qd.validation_report(np.diag([0.6, 0.6, -0.2, 0.0]), 2, 2)
        assert not report.ok
        assert "PSD violated: min eigenvalue -0.2" in report.violations

    def test_collects_multiple_violations(self):
        m = np.diag([1.2, 0.6, -0.2, 0.0]).astype(complex)
        m[0, 1] = 0.5
        report = qd.validation_report(m, 2, 2)
        kinds = [v.split(" violated")[0] for v in report.violations]
        assert kinds == ["hermiticity", "trace", "PSD"]

    def test_shape_errors_raise(self):
        with pytest.raises(DimensionMismatchError):
            qd.validation_report(np.eye(4) / 4, 2, 3)

    def test_min_eigenvalue_is_of_the_hermitian_part(self):
        m = np.array([[0.5, 0.5 + 4.1e-11], [0.5 + 1.39e-10, 0.5]])
        report = qd.validation_report(m, 2, 1)
        assert report.ok
        assert report.min_eigenvalue == qd.hermitian_eig(m)[0][0]
        assert abs(report.min_eigenvalue + 9.0e-11) < 1e-12

    def test_finite_entries_near_overflow_report_psd(self):
        # (m + m^dagger) / 2 overflows here; the halves form stays finite.
        m = [[0.5, 1e308], [1e308, 0.5]]
        report = qd.validation_report(m, 2, 1)
        assert report.violations == ("PSD violated: min eigenvalue -1e+308",)
        with pytest.raises(InvalidInputError, match="PSD violated"):
            qd.DensityMatrix(m, 2, 1)


class TestNoonChannelParams:
    def test_from_transmittance(self):
        p = qd.NoonChannelParams.from_transmittance(3, 0.25, 0.1)
        assert p.n == 3
        assert abs(p.transmittance - 0.25) < 1e-15
        assert abs(abs(p.t) ** 2 + abs(p.r) ** 2 - 1.0) < 1e-12

    def test_rejects_bad_photon_number(self):
        for n in (0, 2.5, True, "2"):
            with pytest.raises(InvalidInputError, match="photon number"):
                qd.NoonChannelParams.from_transmittance(n, 0.5)

    def test_integral_photon_numbers_are_accepted(self):
        for n in (2.0, np.int64(2), np.uint8(2)):
            p = qd.NoonChannelParams(n, 0.6, 0.8)
            assert p.n == 2 and type(p.n) is int

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(InvalidInputError):
            qd.NoonChannelParams(2, 0.9, 0.9)

    def test_rejects_out_of_range_transmittance(self):
        with pytest.raises(InvalidInputError):
            qd.NoonChannelParams.from_transmittance(2, 1.5)

    def test_rejects_non_finite_values(self):
        for args in ((2, np.nan, 0.5), (2, complex(0.6, np.nan), 0.8), (2, 0.6, 0.8, np.nan),
                     (2, 0.6, 0.8, 1e308), (3, 0.6, 0.8, -1e308)):
            with pytest.raises(InvalidInputError, match="finite"):
                qd.NoonChannelParams(*args)
        # the phase n * phi is what overflows, not phi
        assert qd.NoonChannelParams(1, 0.6, 0.8, 1e308).phi == 1e308
        # an n past a double fails as a count before n * phi is formed
        with pytest.raises(InvalidInputError, match="photon number must be finite, got an int beyond"):
            qd.NoonChannelParams(2**1100, 0.6, 0.8, 1.0)
        with pytest.raises(InvalidInputError, match="finite"):
            qd.NoonChannelParams.from_transmittance(2, 0.5, phi=np.nan)
        with pytest.raises(InvalidInputError):
            qd.NoonChannelParams.from_transmittance(2, np.nan)


class TestNoonTripartite:
    """The purification reference (helpers.loop_tripartite) that the dense
    density is traced from in test_matches_partial_trace_of_tripartite."""

    def test_lossless_limit(self):
        p = qd.NoonChannelParams.from_transmittance(3, 1.0, 0.4)
        amp = loop_tripartite(p)
        assert abs(amp[1, 0, 0] - 1 / sqrt(2)) < 1e-12
        assert abs(amp[0, 3, 0] - np.exp(3j * 0.4) / sqrt(2)) < 1e-12
        assert np.count_nonzero(np.abs(amp) > 1e-15) == 2

    def test_all_loss_limit_has_no_phase(self):
        p = qd.NoonChannelParams.from_transmittance(3, 0.0, 0.9)
        amp = loop_tripartite(p)
        assert abs(amp[1, 0, 0] - 1 / sqrt(2)) < 1e-12
        assert abs(amp[0, 0, 3] - 1 / sqrt(2)) < 1e-12
        assert np.count_nonzero(np.abs(amp) > 1e-15) == 2

    def test_binomial_amplitudes(self):
        p = qd.NoonChannelParams.from_transmittance(2, 0.5)
        amp = loop_tripartite(p)
        lossy = [abs(amp[0, k, 2 - k]) for k in range(3)]
        assert np.allclose(lossy, [0.3536, 0.5, 0.3536], atol=5e-5)

    def test_unit_norm(self):
        for n, t2 in ((1, 0.3), (4, 0.8), (7, 0.05)):
            p = qd.NoonChannelParams.from_transmittance(n, t2, 0.7)
            amp = loop_tripartite(p)
            assert abs(np.linalg.norm(amp.reshape(-1)) - 1.0) < 1e-12


class TestNoonLossyDensity:
    def test_lossless_is_pure(self):
        _, rho = noon(2, 1.0)
        assert abs(rho.purity() - 1.0) < 1e-12

    def test_all_loss_mixture(self):
        _, rho = noon(2, 0.0)
        dim_b = 3
        expected = np.zeros((6, 6))
        expected[dim_b, dim_b] = 0.5       # |n>_A |0>_B
        expected[0, 0] = 0.5               # |0>_A |0>_B
        assert np.allclose(rho.matrix, expected, atol=1e-14)
        assert abs(rho.purity() - 0.5) < 1e-12

    def test_coherence_weight(self):
        params, rho = noon(4, 0.6, 1.3)
        got = rho.matrix[4, 5]  # <0_A 4_B| rho |4_A 0_B>
        expected = 0.5 * (params.t ** 4) * np.exp(4j * 1.3)
        assert abs(got - expected) < 1e-12

    def test_matches_partial_trace_of_tripartite(self):
        for n, t2, phi in ((1, 0.5, 0.0), (3, 0.2, 1.1), (6, 0.85, -0.4)):
            params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
            amp = loop_tripartite(params).reshape(-1)
            full = np.outer(amp, amp.conj())
            reduced = qd.partial_trace(full, (2, n + 1, n + 1), (0, 1))
            dev = np.max(np.abs(reduced - qd.noon_lossy_density(params).matrix))
            assert dev < 1e-12

    def test_eigenvalues_match_structural_spectrum(self):
        params, rho = noon(5, 0.35)
        listed = np.sort(loop_eigenvalues(params))
        dense = np.linalg.eigvalsh(rho.matrix)
        assert abs(listed.sum() - 1.0) < 1e-12
        # the dense spectrum is the structural one padded with exact zeros
        assert np.allclose(dense[-listed.size:], listed, atol=1e-12)
        assert np.allclose(dense[: rho.dim - listed.size], 0.0, atol=1e-12)

    def test_purity_matches_structural_spectrum(self):
        for n, t2 in ((1, 0.3), (4, 0.6), (9, 0.95)):
            params, rho = noon(n, t2)
            lam = loop_eigenvalues(params)
            assert abs(rho.purity() - np.sum(lam ** 2)) < 1e-12

    def test_density_equals_loop_reference(self):
        for params in PROBE_POINTS:
            rho = qd.noon_lossy_density(params).matrix
            assert np.array_equal(rho, loop_lossy_density(params)), params

    def test_large_photon_number_is_invalid_input(self):
        # C(n, n/2) passes the largest double from n = 1030 on
        below = qd.NoonChannelParams.from_transmittance(1029, 0.5)
        assert abs(qd.states._loss_weights(below).sum() - 0.5) < 1e-12  # the half-weights
        params = qd.NoonChannelParams.from_transmittance(1030, 0.5)
        with pytest.raises(InvalidInputError, match="photon number 1030 is too large"):
            qd.noon_lossy_density(params)
        assert qd.qfi_noon_closed(params) == pytest.approx(1030**2 * 2 * 0.5**1030)

    def test_root_matches_closed_form(self):
        # sqrt of each loss weight on |0>_A |k>_B, k < n, however small (the
        # weights are exact diagonal entries, not eigensolver output), and the
        # rank-1 root P / sqrt(lambda) of the coherent block P = |v><v| / 2 on
        # rows n and n + 1.
        for n in range(1, 51):
            for t2 in (0.0, 0.05, 0.3, 0.5, 0.8, 1.0):
                params, rho = noon(n, t2, 0.7)
                lam = 0.5 * (1.0 + t2 ** n)
                weights = np.array([0.5 * comb(n, k) * t2 ** k * (1.0 - t2) ** (n - k)
                                    for k in range(n)])
                expected = np.zeros((rho.dim, rho.dim), dtype=complex)
                expected[range(n), range(n)] = np.sqrt(weights)
                v = np.array([params.t ** n * np.exp(1j * n * 0.7), 1.0])
                expected[n:n + 2, n:n + 2] = 0.5 * np.outer(v, v.conj()) / sqrt(lam)
                assert np.max(np.abs(rho.sqrt - expected)) <= 1e-14, (n, t2)

    def test_validates_on_grid(self):
        for n in range(1, 11):
            for t2 in np.linspace(0, 1, 11):
                _, rho = noon(n, float(t2))  # constructor validates
                assert rho.dim_a == 2 and rho.dim_b == n + 1


def noon(n, t2, phi=0.0):
    params = qd.NoonChannelParams.from_transmittance(n, t2, phi)
    return params, qd.noon_lossy_density(params)


class TestJsonInterchange:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        rho = qd.DensityMatrix.from_pure(random_pure(2, 3, rng))
        path = tmp_path / "state.json"
        qd.save_density(rho, path)
        back = qd.load_density(path)
        assert back.dim_a == 2 and back.dim_b == 3
        assert np.array_equal(back.matrix, rho.matrix)

    def test_missing_key(self):
        with pytest.raises(InvalidInputError, match="missing key"):
            matrix_from_json({"dimA": 2, "dimB": 2, "re": [[1]]})

    def test_dimensions_must_be_integers(self):
        base = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        for dims in ((2.9, 2.2), (True, 2), ("2", 2), (2, None), (0, 4)):
            data = dict(base, dimA=dims[0], dimB=dims[1])
            with pytest.raises(InvalidInputError, match="dimA|dimB"):
                matrix_from_json(data)
        rho = qd.DensityMatrix(*matrix_from_json(dict(base, dimA=2.0, dimB=2)))
        assert (rho.dim_a, rho.dim_b) == (2, 2)

    def test_mismatched_parts(self):
        with pytest.raises(DimensionMismatchError):
            matrix_from_json({"dimA": 1, "dimB": 1, "re": [[1.0]], "im": [[0.0], [0.0]]})

    def test_malformed_parts_are_invalid_input(self, tmp_path):
        good = [[0.5, 0.0], [0.0, 0.5]]
        for bad in ([[{}, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.5]], [["a", 0.0], [0.0, 0.5]],
                    [["0.5", "0"], ["0", "0.5"]], [[True, 0.0], [0.0, 0.5]], [[0.5, 0], [False, 0.5]],
                    [[10**400, 0], [0, 0.5]]):  # an int beyond a double
            for key in ("re", "im"):
                data = {"dimA": 2, "dimB": 1, "re": good, "im": good, key: bad}
                with pytest.raises(InvalidInputError, match=f"'{key}' is not a matrix of numbers"):
                    matrix_from_json(data)
                path = tmp_path / "malformed.json"
                path.write_text(json.dumps(data))
                with pytest.raises(InvalidInputError, match=f"'{key}' is not a matrix"):
                    qd.load_density(path)

    def test_wrong_matrix_size(self):
        with pytest.raises(DimensionMismatchError):
            qd.DensityMatrix(*matrix_from_json({"dimA": 2, "dimB": 2, "re": [[1.0]], "im": [[0.0]]}))

    def test_invalid_state_rejected(self):
        data = {
            "dimA": 2,
            "dimB": 2,
            "re": np.diag([0.6, 0.6, -0.2, 0.0]).tolist(),
            "im": np.zeros((4, 4)).tolist(),
        }
        with pytest.raises(InvalidInputError, match="PSD violated"):
            qd.DensityMatrix(*matrix_from_json(data))

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError, match="cannot parse"):
            qd.load_density(path)
