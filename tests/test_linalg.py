from itertools import permutations

import numpy as np
import pytest

import qdiscord as qd
from qdiscord.errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotHermitianError,
    NotPSDError,
)
from qdiscord.linalg import (
    ZERO_EIGENVALUE_CUTOFF,
    _haar_stack,
    _hermitian_part,
    _seeded_normals,
    _split_eig,
    _splitmix64,
    as_count,
    as_matrix,
    hermiticity_deviation,
    require_hermitian,
)

from helpers import (
    loop_haar_unitary,
    loop_partial_trace,
    random_density_array,
    scalar_normals,
    scalar_splitmix64,
)


class TestHermitianEig:
    def test_eigenvalues_ascending_and_reconstruct(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = m + m.conj().T
        w, v = qd.hermitian_eig(m)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose((v * w) @ v.conj().T, m, atol=1e-12)

    def test_density_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(2)
        rho = random_density_array(6, rng)
        w, _ = qd.hermitian_eig(rho)
        assert abs(w.sum() - 1.0) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            qd.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            qd.hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            qd.hermitian_eig(m)


def block_hermitian(sizes, rng):
    """Random Hermitian matrix with diagonal blocks of the given sizes,
    rows shuffled by a random permutation; size-1 blocks are isolated rows."""
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        m[start:start + size, start:start + size] = g + g.conj().T
        start += size
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


class TestSplitEig:
    def check_decomposition(self, m):
        w, v = qd.hermitian_eig(m)
        scale = max(np.linalg.norm(m), 1.0)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - np.linalg.eigvalsh(m))) <= 1e-14 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-14
        assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-14 * scale

    def test_block_matrices(self):
        rng = np.random.default_rng(101)
        for sizes in ((1,), (3,), (1, 1, 1), (2, 1, 3), (1, 4, 1, 1, 2), (5, 5, 1)):
            for _ in range(5):
                self.check_decomposition(block_hermitian(sizes, rng))

    def test_only_coupled_rows_reach_eigh(self):
        rng = np.random.default_rng(102)
        m = block_hermitian((2, 1, 3, 1), rng)
        split = _split_eig(_hermitian_part(m))
        rows = np.sort(np.concatenate([split.core, split.rest]))
        assert np.array_equal(rows, np.arange(7))
        assert split.core.size == 5 and split.w.shape == (5,)
        assert np.array_equal(split.d, np.diag(m).real[split.rest])

    def test_tiny_coupling_stays_in_core(self):
        m = np.diag([0.3, 0.5, 0.2]).astype(complex)
        m[0, 2] = m[2, 0] = 1e-300
        split = _split_eig(_hermitian_part(m))
        assert split.core.tolist() == [0, 2] and split.rest.tolist() == [1]
        self.check_decomposition(m)

    def test_zero_matrix(self):
        w, v = qd.hermitian_eig(np.zeros((4, 4)))
        assert np.array_equal(w, np.zeros(4))
        assert np.array_equal(v, np.eye(4))

    def test_one_by_one_and_empty(self):
        w, v = qd.hermitian_eig([[2.5]])
        assert w.tolist() == [2.5] and v.tolist() == [[1.0]]
        w, v = qd.hermitian_eig(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)

    def test_dense_state_is_bitwise_one_eigh(self):
        # With every row coupled, the report's eigendecomposition and the
        # root are bitwise those of one eigh of the Hermitian part.
        rng = np.random.default_rng(103)
        for dim_a, dim_b, rank in ((2, 2, None), (2, 3, 2), (3, 4, None), (3, 16, 16)):
            m = random_density_array(dim_a * dim_b, rng, rank)
            w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
            kept = np.where(w < ZERO_EIGENVALUE_CUTOFF * max(w.max(), 0.0), 0.0, w)
            root = (v * np.sqrt(kept)) @ v.conj().T
            report = qd.validation_report(m, dim_a, dim_b)
            assert report.eig.eigenvalues.tobytes() == w.tobytes()
            assert report.eig.eigenvectors.tobytes() == v.tobytes()
            assert qd.DensityMatrix(m, dim_a, dim_b).sqrt.tobytes() == root.tobytes()
            assert qd.psd_sqrt(m).tobytes() == root.tobytes()


class TestPsdSqrt:
    def test_projector_is_fixed_point(self):
        v = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
        p = np.outer(v, v.conj())
        assert np.allclose(qd.psd_sqrt(p), p, atol=1e-12)

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(3)
        rho = random_density_array(6, rng)
        s = qd.psd_sqrt(rho)
        rel = np.linalg.norm(s @ s - rho) / np.linalg.norm(rho)
        assert rel < 1e-9

    def test_singular_input_keeps_exact_zeros(self):
        # Rank-deficient input: the root must not pick up sqrt(eps)-size
        # garbage on the null space, or downstream 1e-9 contracts break.
        rng = np.random.default_rng(4)
        rho = random_density_array(8, rng, rank=3)
        s = qd.psd_sqrt(rho)
        w = np.linalg.eigvalsh(s)
        assert np.sum(np.abs(w) > 1e-12) == 3
        rel = np.linalg.norm(s @ s - rho) / np.linalg.norm(rho)
        assert rel < 1e-9

    def test_clamps_tiny_negative_eigenvalue(self):
        m = np.diag([1.0, -5e-11])
        s = qd.psd_sqrt(m)
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            qd.psd_sqrt(np.diag([1.0, -1e-9]))

    def test_empty_matrix_gives_empty_root(self):
        s = qd.psd_sqrt(np.zeros((0, 0)))
        assert s.shape == (0, 0)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(6)
        ra = random_density_array(2, rng)
        rb = random_density_array(3, rng)
        full = np.kron(ra, rb)
        assert np.allclose(qd.partial_trace(full, (2, 3), 0), ra, atol=1e-12)
        assert np.allclose(qd.partial_trace(full, (2, 3), 1), rb, atol=1e-12)

    def test_maximally_entangled_reduction(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
        rho = np.outer(v, v.conj())
        assert np.allclose(qd.partial_trace(rho, (2, 2), 0), np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        m = random_density_array(12, rng)
        out = qd.partial_trace(m, (2, 3, 2), (0, 2))
        assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_order_independent_over_disjoint_subsystems(self):
        rng = np.random.default_rng(8)
        m = random_density_array(12, rng)
        direct = qd.partial_trace(m, (2, 3, 2), 0)
        last_first = qd.partial_trace(
            qd.partial_trace(m, (2, 3, 2), (0, 1)), (2, 3), 0
        )
        middle_first = qd.partial_trace(
            qd.partial_trace(m, (2, 3, 2), (0, 2)), (2, 2), 0
        )
        assert np.allclose(direct, last_first, atol=1e-12)
        assert np.allclose(direct, middle_first, atol=1e-12)

    def test_keep_order_swaps_subsystems(self):
        rng = np.random.default_rng(9)
        ra = random_density_array(2, rng)
        rb = random_density_array(3, rng)
        full = np.kron(ra, rb)
        swapped = qd.partial_trace(full, (2, 3), (1, 0))
        assert np.allclose(swapped, np.kron(rb, ra), atol=1e-12)

    def test_every_keep_order_matches_loop_reference(self):
        rng = np.random.default_rng(10)
        for dims in ((2, 3), (2, 3, 2), (2, 1, 3, 2)):
            d = int(np.prod(dims))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for r in range(len(dims) + 1):
                for keep in permutations(range(len(dims)), r):
                    out = qd.partial_trace(m, dims, keep)
                    ref = loop_partial_trace(m, dims, keep)
                    assert out.shape == ref.shape
                    assert np.allclose(out, ref, rtol=0.0, atol=1e-13), (dims, keep)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qd.partial_trace(np.eye(5), (2, 3), 0)

    def test_keep_out_of_range(self):
        with pytest.raises(IndexError):
            qd.partial_trace(np.eye(6), (2, 3), 2)


class TestPartialTranspose:
    def test_product_state_transposes_one_factor(self):
        rng = np.random.default_rng(10)
        ra = random_density_array(2, rng)
        rb = random_density_array(3, rng)
        full = np.kron(ra, rb)
        assert np.allclose(
            qd.partial_transpose(full, (2, 3), 0), np.kron(ra.T, rb), atol=1e-14
        )
        assert np.allclose(
            qd.partial_transpose(full, (2, 3), 1), np.kron(ra, rb.T), atol=1e-14
        )

    def test_involution_is_exact(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        back = qd.partial_transpose(qd.partial_transpose(m, (2, 3), 0), (2, 3), 0)
        assert np.array_equal(back, m)

    def test_bell_minimum_eigenvalue(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
        pt = qd.partial_transpose(np.outer(v, v.conj()), (2, 2), 0)
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12

    def test_bad_subsystem(self):
        with pytest.raises(IndexError):
            qd.partial_transpose(np.eye(4), (2, 2), 2)


class TestTraceNorm:
    def test_identity(self):
        assert abs(qd.trace_norm(np.eye(3)) - 3.0) < 1e-12

    def test_sign_indifferent(self):
        assert abs(qd.trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-12

    def test_matches_eigenvalue_sum_for_hermitian(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = m + m.conj().T
        expected = np.abs(np.linalg.eigvalsh(m)).sum()
        assert abs(qd.trace_norm(m) - expected) < 1e-10


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(13)
        for dim in (1, 2, 5):
            u = qd.haar_unitary(dim, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10

    def test_dim_one_is_unit_modulus_scalar(self):
        u = qd.haar_unitary(1, np.random.default_rng(14))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_determinant_modulus_one(self):
        u = qd.haar_unitary(4, np.random.default_rng(15))
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10

    def test_first_entry_moment(self):
        # E|U_00|^2 = 1/dim under the Haar measure. One (n, 2, 2, 2) draw
        # reads the same stream as n haar_unitary calls on the generator.
        n = 100_000
        u = _haar_stack(np.random.default_rng(16).standard_normal((n, 2, 2, 2)))
        assert abs(np.mean(np.abs(u[:, 0, 0]) ** 2) - 0.5) < 0.01

    def test_deterministic_given_seed(self):
        u1 = qd.haar_unitary(3, np.random.default_rng(17))
        u2 = qd.haar_unitary(3, np.random.default_rng(17))
        assert np.array_equal(u1, u2)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_equals_per_seed_bases(self, dim):
        seeds = qd.derive_child_seeds(19, 300).tolist()
        stack = _haar_stack(_seeded_normals(seeds, (2, dim, dim)))
        assert stack.shape == (300, dim, dim)
        for seed, u in zip(seeds, stack):
            assert np.array_equal(u, qd.VonNeumannBasis.from_seed(dim, seed).unitary)
            draw = _seeded_normals([seed], (2, dim, dim))[0]
            assert np.array_equal(u, loop_haar_unitary(draw))

    def test_bad_dim(self):
        for dim in (0, 2.5, True, "2"):
            with pytest.raises(InvalidInputError, match="dimension"):
                qd.haar_unitary(dim, np.random.default_rng(18))


# Seeds at the ends of the uint32 and uint64 ranges; the Weyl step from
# the last one wraps mod 2**64.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.filterwarnings("error")
class TestSeededNormals:
    def test_words_equal_scalar_splitmix64(self):
        # SplitMix64's first outputs from state 0.
        assert scalar_splitmix64(0, 3) == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]
        children = qd.derive_child_seeds(23, 2000)  # uint64, as the scan passes them
        for seeds in (EDGE_SEEDS, children.tolist()):
            words = _splitmix64(np.array(seeds, dtype=np.uint64), 32)
            assert words.tolist() == [scalar_splitmix64(s, 32) for s in seeds]

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_draws_equal_per_seed_generators(self, dim):
        # The scalar generator takes log1p, cos and sin from the math
        # module, which may round differently from numpy's loops.
        seeds = EDGE_SEEDS + qd.derive_child_seeds(29, 200).tolist()
        draws = _seeded_normals(seeds, (2, dim, dim))
        assert draws.shape == (len(seeds), 2, dim, dim)
        for seed, draw in zip(seeds, draws):
            np.testing.assert_array_max_ulp(draw, scalar_normals(seed, (2, dim, dim)), maxulp=4)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_from_seed_rebuilds_edge_seed_bases(self, dim):
        stack = _haar_stack(_seeded_normals(EDGE_SEEDS, (2, dim, dim)))
        for seed, u in zip(EDGE_SEEDS, stack):
            assert np.array_equal(u, qd.VonNeumannBasis.from_seed(dim, seed).unitary)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_haar_moments_of_scan_draws(self, dim):
        # Standard normals, the cosine and sine halves uncorrelated, and
        # under the Haar measure E|U_00|^2 = 1/d, E|U_00|^4 = 2 / (d (d + 1)).
        draws = _seeded_normals(qd.derive_child_seeds(37, 100_000), (2, dim, dim))
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01
        assert abs(np.mean(draws[:, 0] * draws[:, 1])) < 0.005
        p = np.abs(_haar_stack(draws)[:, 0, 0]) ** 2
        assert abs(p.mean() - 1.0 / dim) < 0.01
        assert abs(np.mean(p * p) - 2.0 / (dim * (dim + 1))) < 0.01


class TestAsCount:
    def test_accepts_integers_and_integral_floats(self):
        for value in (3, np.int32(3), np.int64(3), np.uint64(3), 3.0, np.float64(3.0)):
            count = as_count(value, "count")
            assert count == 3 and type(count) is int
        assert as_count(np.uint64(2**64 - 1), "seed", 0) == 2**64 - 1
        assert as_count(0, "seed", minimum=0) == 0

    def test_rejects_non_integers_and_small_values(self):
        bad = (True, np.bool_(True), "2", None, 2.5, np.nan, np.inf, 0, -1, np.int64(0))
        for value in bad:
            with pytest.raises(InvalidInputError, match="widgets"):
                as_count(value, "widgets")
        with pytest.raises(InvalidInputError, match="widgets must be >= 2, got 1"):
            as_count(1, "widgets", minimum=2)


def test_hermiticity_helpers():
    m = np.array([[1.0, 1e-12j], [-1e-12j, 2.0]])
    assert hermiticity_deviation(np.asarray(m, complex)) < 1e-11
    require_hermitian(m)
    with pytest.raises(NotHermitianError):
        require_hermitian([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.zeros(3))
