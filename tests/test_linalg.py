import json
import re
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
    _eigh,
    _seeded_normals,
    _splitmix64,
    as_2d,
    as_count,
    as_matrix,
    as_number,
    as_real,
    as_reals,
    hermiticity_deviation,
    require_hermitian,
)

from helpers import (
    forceable_core_types,
    loop_haar_unitary,
    loop_partial_trace,
    noon_family,
    outputs_under_core_types,
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
    """Hermitian matrices of any block structure, each decomposed whole by one eigh."""

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

    def test_tiny_coupling_stays_in_core(self):
        m = np.diag([0.3, 0.5, 0.2]).astype(complex)
        m[0, 2] = m[2, 0] = 1e-300
        self.check_decomposition(m)

    def test_splits_the_hermitian_part_of_an_accepted_matrix(self):
        # Hermitian to HERMITICITY_TOL, not exactly: the decomposition is
        # that of the Hermitian part, bit for bit, not of the lower triangle.
        m = np.array([[0.5, 0.5 + 4.1e-11], [0.5 + 1.39e-10, 0.5]], dtype=complex)
        require_hermitian(m)
        got, want = _eigh(m), np.linalg.eigh(_hermitian_part(m))
        assert not np.array_equal(m, _hermitian_part(m))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got[0].tobytes() != np.linalg.eigh(m)[0].tobytes()

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
        # Whatever the structure (every row coupled, blocks with isolated
        # rows, a diagonal state), the report's eig, hermitian_eig, the
        # minimum eigenvalue and the root are bitwise those of one eigh of
        # the Hermitian part.
        rng = np.random.default_rng(103)
        cases = [(random_density_array(a * b, rng, rank), a, b)
                 for a, b, rank in ((2, 2, None), (2, 3, 2), (3, 4, None), (3, 16, 16))]
        for sizes in ((2, 1, 3), (1, 4, 1, 1, 2), (5, 1)):
            g = block_hermitian(sizes, rng)
            m = g @ g.conj().T  # PSD, with the blocks and isolated rows of g
            cases.append((m / np.trace(m).real, 1, sum(sizes)))
        cases.append((np.diag([1.0 - 1e-20, 1e-20, 0.0, 0.0]).astype(complex), 2, 2))
        for m, dim_a, dim_b in cases:
            w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
            kept = np.where(w < ZERO_EIGENVALUE_CUTOFF * max(w.max(), 0.0), 0.0, w)
            root = (v * np.sqrt(kept)) @ v.conj().T
            report = qd.validation_report(m, dim_a, dim_b)
            assert [a.tobytes() for a in report.eig] == [w.tobytes(), v.tobytes()]
            assert report.min_eigenvalue == w[0]
            assert [a.tobytes() for a in qd.hermitian_eig(m)] == [w.tobytes(), v.tobytes()]
            assert qd.DensityMatrix(m, dim_a, dim_b).sqrt.tobytes() == root.tobytes()
            assert qd.psd_sqrt(m).tobytes() == root.tobytes()
        # An isolated row gets eigh's eigenvalue and the 64 eps cut, not its entry.
        assert qd.DensityMatrix(np.diag([1.0 - 1e-20, 1e-20]), 2, 1).sqrt[1, 1] == 0.0


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

    @pytest.mark.parametrize("keep", [
        1.5, True, "0", [0.5], [True], ["0"], (0, -1), None, [[0], [0, 1]], [[0]], np.array([[0]]),
    ])
    def test_keep_indices_are_counts(self, keep):
        with pytest.raises(InvalidInputError, match="keep index"):
            qd.partial_trace(np.eye(6) / 6, (2, 3), keep)

    def test_keep_takes_integral_indices(self):
        m = random_density_array(6, np.random.default_rng(11))
        for keep in (np.int64(1), 1.0, [1.0], np.array([1]), range(1, 2)):
            assert np.array_equal(qd.partial_trace(m, (2, 3), keep), qd.partial_trace(m, (2, 3), 1))


class TestPartialTranspose:
    def test_product_state_transposes_one_factor(self):
        rng = np.random.default_rng(10)
        ra = random_density_array(2, rng)
        rb = random_density_array(3, rng)
        full = np.kron(ra, rb)
        assert np.allclose(
            qd.partial_transpose(full, (2, 3)), np.kron(ra.T, rb), atol=1e-14
        )
        assert np.allclose(
            qd.partial_transpose(full, (2, 3)).T, np.kron(ra, rb.T), atol=1e-14
        )

    def test_involution_is_exact(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        back = qd.partial_transpose(qd.partial_transpose(m, (2, 3)), (2, 3))
        assert np.array_equal(back, m)

    def test_bell_minimum_eigenvalue(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
        pt = qd.partial_transpose(np.outer(v, v.conj()), (2, 2))
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12


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


#: Agreement of the Gram-Schmidt draw with the LAPACK reference, and of
#: U^H U with the identity, fixed in advance at about 450 eps. The two
#: draws differ by up to about cond(A) eps, so a rare ill-conditioned
#: Ginibre matrix (cond 1,306 in 100k at dA = 3) reaches the bound; the
#: reference test's 300 seeds stay below 1e-14.
HAAR_REFERENCE_TOL = 1e-13


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
        # Bitwise the basis from_seed rebuilds; within HAAR_REFERENCE_TOL of
        # the LAPACK QR with its phase fix, a different algorithm for the
        # same unique QR factor.
        seeds = qd.derive_child_seeds(19, 300).tolist()
        stack = _haar_stack(_seeded_normals(seeds, (2, dim, dim)))
        assert stack.shape == (300, dim, dim)
        for seed, u in zip(seeds, stack):
            assert np.array_equal(u, qd.VonNeumannBasis.from_seed(dim, seed).unitary)
            draw = _seeded_normals([seed], (2, dim, dim))[0]
            assert np.max(np.abs(u - loop_haar_unitary(draw))) <= HAAR_REFERENCE_TOL

    @pytest.mark.parametrize("dim, count", [(3, 100_000), (6, 10_000)])
    def test_orthonormal(self, dim, count):
        u = _haar_stack(_seeded_normals(qd.derive_child_seeds(20, count), (2, dim, dim)))
        gram = np.matmul(u.conj().transpose(0, 2, 1), u)
        assert np.max(np.abs(gram - np.eye(dim))) <= HAAR_REFERENCE_TOL

    def test_draw_leaves_its_normals_unchanged(self):
        draws = _seeded_normals(qd.derive_child_seeds(21, 5), (2, 3, 3))
        for stack in (draws, draws[:1]):
            before = stack.copy()
            _haar_stack(stack)
            assert np.array_equal(stack, before)

    @pytest.mark.skipif(len(forceable_core_types()) < 2,
                        reason="no DYNAMIC_ARCH OpenBLAS with two core types this CPU runs")
    def test_one_hash_under_every_blas_core_type(self):
        # The draw calls no BLAS or LAPACK kernel, so forcing OpenBLAS onto
        # another core type's kernels leaves every bit of the stack in place.
        script = (
            "import hashlib\n"
            "import qdiscord as qd\n"
            "from qdiscord.linalg import _haar_stack, _seeded_normals\n"
            "h = hashlib.sha256()\n"
            "for dim in (3, 4):\n"
            "    seeds = qd.derive_child_seeds(43, 2000)\n"
            "    h.update(_haar_stack(_seeded_normals(seeds, (2, dim, dim))).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        assert len(outputs_under_core_types(script)) == 1

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

    def test_child_seeds_are_splitmix64_outputs(self):
        for master in EDGE_SEEDS:
            children = qd.derive_child_seeds(master, 64)
            assert children.dtype == np.uint64
            assert children.tolist() == scalar_splitmix64(master, 64)
            assert np.unique(qd.derive_child_seeds(master, 100_000)).size == 100_000

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


class TestAsReal:
    def test_accepts_python_and_numpy_reals(self):
        for value in (3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0), np.float64(3.0)):
            real = as_real(value, "x")
            assert real == 3.0 and type(real) is float
        assert np.isnan(as_real(np.nan, "x")) and as_real(-np.inf, "x") == -np.inf
        assert as_real(2**1023, "x") == 2.0**1023

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, 1j, [0.5],
                                       np.array(0.5)])
    def test_rejects_anything_else(self, value):
        with pytest.raises(InvalidInputError, match="widget must be a real number"):
            as_real(value, "widget")

    def test_rejects_ints_beyond_a_double(self):
        for value in (2**1024, -(10**400)):
            with pytest.raises(InvalidInputError, match="widget must be finite"):
                as_real(value, "widget")

    def test_reals_from_lists_tuples_and_1d_arrays(self):
        for values in ([1, 2.5], (np.int64(1), 2.5), np.array([1.0, 2.5]),
                       [np.int8(1), np.float32(2.5)]):
            out = as_reals(values, "xs")
            assert out == [1.0, 2.5] and all(type(v) is float for v in out)
        assert as_reals((), "xs", 0) == []

    @pytest.mark.parametrize("values, match", [
        (0.5, "xs must be a list, tuple or 1-D array"),
        ("0.5", "xs must be a list, tuple or 1-D array"),
        (np.array(0.5), "xs must be a list, tuple or 1-D array"),
        (range(2), "xs must be a list, tuple or 1-D array"),
        ([[0.5], [0.5]], re.escape("xs[0] must be a real number")),
        (np.ones((2, 2)), re.escape("xs[0] must be a real number")),
        ((0.5, True), re.escape("xs[1] must be a real number")),
        ([0.5, 10**400], re.escape("xs[1] must be finite")),
        ([0.5], "xs must have length >= 2, got 1"),
    ], ids=["scalar", "string", "0-d array", "range", "2-d list", "2-d array", "bool entry",
            "huge int entry", "too short"])
    def test_reals_reject_other_sequences(self, values, match):
        with pytest.raises(InvalidInputError, match=match):
            as_reals(values, "xs", 2)


_PHASE_FAMILY = noon_family(2, 0.5)

#: Every entry point that takes a real or a sequence of reals from a caller,
#: with a bool, a numeric string, an int beyond a double, and a scalar or
#: 2-D list where a sequence is expected: (test id, input name, call).
NON_REAL_INPUTS = [
    ("pure-discord-bool", "probabilities", lambda: qd.geometric_discord_pure([True, False])),
    ("pure-discord-string", "probabilities", lambda: qd.geometric_discord_pure(["0.5", "0.5"])),
    ("pure-discord-huge", "probabilities", lambda: qd.geometric_discord_pure([10**400, 0.0])),
    ("pure-discord-scalar", "probabilities", lambda: qd.geometric_discord_pure("ab")),
    ("assignment-string", "probabilities",
     lambda: qd.min_uncertainty_assignment(["0.5", "0.5"], (1.0, -1.0))),
    ("from-probabilities-bool", "probabilities",
     lambda: qd.PureBipartiteState.from_probabilities([True, False])),
    ("from-probabilities-string", "probabilities",
     lambda: qd.PureBipartiteState.from_probabilities(["0.5", "0.5"])),
    ("from-probabilities-huge", "probabilities",
     lambda: qd.PureBipartiteState.from_probabilities([10**400, 0.0])),
    ("noon-phi-bool", "phi", lambda: qd.NoonChannelParams(2, 0.6, 0.8, True)),
    ("noon-phi-string", "phi", lambda: qd.NoonChannelParams(2, 0.6, 0.8, "0.5")),
    ("noon-phi-huge", "phi", lambda: qd.NoonChannelParams(2, 0.6, 0.8, 10**400)),
    ("transmittance-bool", "transmittance",
     lambda: qd.NoonChannelParams.from_transmittance(2, True)),
    ("transmittance-string", "transmittance",
     lambda: qd.NoonChannelParams.from_transmittance(2, "0.5")),
    ("transmittance-huge", "transmittance",
     lambda: qd.NoonChannelParams.from_transmittance(2, 10**400)),
    ("s1-grid-bool", "s1_grid", lambda: qd.Fig1Config(2, (True,))),
    ("s1-grid-string", "s1_grid", lambda: qd.Fig1Config(2, ("0.5",))),
    ("s1-grid-huge", "s1_grid", lambda: qd.Fig1Config(2, (10**400,))),
    ("s1-grid-scalar", "s1_grid", lambda: qd.Fig1Config(2, 0.5)),
    ("s1-grid-scalar-string", "s1_grid", lambda: qd.Fig1Config(2, "0.5")),
    ("s1-grid-none", "s1_grid", lambda: qd.Fig1Config(2, None)),
    ("s1-grid-2d", "s1_grid", lambda: qd.Fig1Config(2, [[0.5]])),
    ("s2-bool", "s2", lambda: qd.Fig1Config(3, (0.0,), s2=True)),
    ("s2-string", "s2", lambda: qd.Fig1Config(3, (0.0,), s2="0.2")),
    ("s2-huge", "s2", lambda: qd.Fig1Config(3, (0.0,), s2=10**400)),
    ("fig4-bool", "t2 grid", lambda: qd.run_fig4(2, [True, False])),
    ("fig4-string", "t2 grid", lambda: qd.run_fig4(2, ["0.1", "0.2"])),
    ("fig4-huge", "t2 grid", lambda: qd.run_fig4(2, [10**400, 0.5])),
    ("fig4-2d", "t2 grid", lambda: qd.run_fig4(2, [[0.1, 0.2], [0.3, 0.4]])),
    ("sweep-bool", "t2 grid", lambda: list(qd.identity_sweep(2, [True, False]))),
    ("sweep-string", "t2 grid", lambda: list(qd.identity_sweep(2, ["0.5"]))),
    ("sweep-huge", "t2 grid", lambda: list(qd.identity_sweep(2, [10**400]))),
    ("sweep-2d", "t2 grid", lambda: list(qd.identity_sweep(2, [[0.5]]))),
    ("sweep-phi-bool", "phi", lambda: list(qd.identity_sweep(2, [0.5], phi=True))),
    ("fidelity-delta-string", "delta",
     lambda: qd.qfi_fidelity_estimate(_PHASE_FAMILY, 0.0, "0.001")),
    ("fidelity-delta-huge", "delta",
     lambda: qd.qfi_fidelity_estimate(_PHASE_FAMILY, 0.0, 10**400)),
    ("fidelity-phi-bool", "phi", lambda: qd.qfi_fidelity_estimate(_PHASE_FAMILY, True)),
    ("fidelity-phi-string", "phi", lambda: qd.qfi_fidelity_estimate(_PHASE_FAMILY, "0.0")),
    ("fidelity-phi-huge", "phi", lambda: qd.qfi_fidelity_estimate(_PHASE_FAMILY, 10**400)),
]


@pytest.mark.parametrize("name, call", [row[1:] for row in NON_REAL_INPUTS],
                         ids=[row[0] for row in NON_REAL_INPUTS])
def test_entry_points_reject_non_reals(name, call):
    with pytest.raises(InvalidInputError, match=re.escape(name)):
        call()


def test_hermiticity_helpers():
    m = np.array([[1.0, 1e-12j], [-1e-12j, 2.0]])
    assert hermiticity_deviation(np.asarray(m, complex)) < 1e-11
    require_hermitian(m)
    with pytest.raises(NotHermitianError):
        require_hermitian([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.zeros(3))


def _load_density(m, path):
    """Write ``m`` as the real part of a 2 x 1 density JSON and load it."""
    re_part = m.tolist() if isinstance(m, np.ndarray) else m
    path.write_text(json.dumps({"dimA": 2, "dimB": 1, "re": re_part, "im": [[0, 0], [0, 0]]}))
    return qd.load_density(path)


_QUBIT = qd.DensityMatrix(np.eye(2) / 2, 2, 1)

#: Every entry point that takes a matrix from a caller: (test id, input
#: name, call(m, path), an input the call accepts).
MATRIX_ENTRY_POINTS = [
    ("density-matrix", "density matrix", lambda m, _: qd.DensityMatrix(m, 2, 1),
     [[0.5, 0.0], [0.0, 0.5]]),
    ("pure-state", "coefficient matrix", lambda m, _: qd.PureBipartiteState(m),
     [[0.6, 0.0], [0.0, 0.8]]),
    ("basis", "basis", lambda m, _: qd.VonNeumannBasis(m), [[1.0, 0.0], [0.0, 1.0]]),
    ("skew-observable", "observable", lambda m, _: qd.skew_information(_QUBIT, m),
     [[1.0, 0.0], [0.0, -1.0]]),
    ("partial-trace", "matrix", lambda m, _: qd.partial_trace(m, (2, 1), 0),
     [[0.5, 0.0], [0.0, 0.5]]),
    ("partial-transpose", "matrix", lambda m, _: qd.partial_transpose(m, (2, 1)),
     [[0.5, 0.0], [0.0, 0.5]]),
    ("hermitian-eig", "matrix", lambda m, _: qd.hermitian_eig(m), [[0.5, 0.0], [0.0, 0.5]]),
    ("psd-sqrt", "matrix", lambda m, _: qd.psd_sqrt(m), [[0.5, 0.0], [0.0, 0.5]]),
    ("trace-norm", "matrix", lambda m, _: qd.trace_norm(m), [[0.5, 0.0], [0.0, 0.5]]),
    ("load-density", "density JSON 're'", _load_density, [[0.5, 0.0], [0.0, 0.5]]),
]


def _with_first(good, value):
    """The matrix ``good`` with its first entry replaced by ``value``."""
    return [[value] + good[0][1:]] + good[1:]


def _with_last(good, value):
    """The matrix ``good`` with its last entry replaced by ``value``."""
    return good[:-1] + [good[-1][:-1] + [value]]


def _ragged(good):
    """The matrix ``good`` with its last row one entry short."""
    return good[:-1] + [good[-1][:-1]]


#: Inputs no matrix entry point takes, each made from the accepted input
#: of a row: (test id, make(good)).
BAD_MATRICES = [
    ("strings", lambda g: np.array(g).astype(str).tolist()),
    ("bool-array", lambda g: np.array(g) != 0),
    ("bool-float-mix", lambda g: _with_first(g, True)),
    ("ragged-rows", _ragged),
    ("huge-int", lambda g: _with_last(g, 10**400)),
    ("nan", lambda g: _with_last(g, float("nan"))),
]


@pytest.mark.parametrize("name, call, good", [row[1:] for row in MATRIX_ENTRY_POINTS],
                         ids=[row[0] for row in MATRIX_ENTRY_POINTS])
@pytest.mark.parametrize("make", [row[1] for row in BAD_MATRICES],
                         ids=[row[0] for row in BAD_MATRICES])
def test_matrix_entry_points_reject_non_numbers(tmp_path, name, call, good, make):
    call(good, tmp_path / "good.json")
    with pytest.raises(InvalidInputError, match=re.escape(name)):
        call(make(good), tmp_path / "bad.json")


#: Matrices the coercion accepts: arrays of an integer, float or complex
#: dtype, nested lists of Python numbers or numpy scalars, and lists of rows.
ACCEPTED_MATRICES = {
    "complex-array": np.array([[0.5, 0.25j], [-0.25j, 0.5]]),
    "float-array": np.array([[0.5, 0.25], [0.25, 0.5]]),
    "float32-array": np.array([[0.5, 0.1], [0.1, 0.5]], dtype=np.float32),
    "int-array": np.array([[2, 1], [1, 2]]),
    "uint-array": np.array([[2, 1], [1, 2]], dtype=np.uint8),
    "list": [[0.5, 0.1], [0.1, 0.5]],
    "int-list": [[2, 1], [1, 2]],
    "complex-list": [[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]],
    "numpy-scalars": [[np.float64(0.5), np.int64(0)], [np.complex64(0.1j), np.float32(0.3)]],
    "array-rows": [np.array([0.5, 0.1]), np.array([0.1, 0.5])],
}


@pytest.mark.parametrize("m", ACCEPTED_MATRICES.values(), ids=ACCEPTED_MATRICES.keys())
def test_accepted_matrices_keep_their_bits(m):
    """The matrix coercion gives bitwise the array numpy's complex conversion
    gives, and returns a complex array itself, uncopied."""
    expected = np.asarray(m, dtype=complex)
    out = as_matrix(m)
    assert out.dtype == complex and out.tobytes() == expected.tobytes()
    assert (as_matrix(out) is out) and (as_2d(out, "m") is out)
    if not np.iscomplexobj(np.asarray(m)):
        real = as_2d(m, "m", float)
        assert real.dtype == float and real.tobytes() == np.asarray(m, dtype=float).tobytes()


def test_json_parts_keep_their_bits():
    rng = np.random.default_rng(5)
    re_part, im_part = rng.standard_normal((2, 6, 6))
    ints = rng.integers(-5, 5, (6, 6))
    for data in ({"re": re_part.tolist(), "im": im_part.tolist()},
                 {"re": ints.tolist(), "im": ints.T.tolist()}):
        m, _, _ = qd.states.matrix_from_json({"dimA": 2, "dimB": 3, **data})
        expected = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        assert m.tobytes() == expected.tobytes()


class TestAsNumber:
    def test_accepts_numbers(self):
        for value in (3, 3.0, 3 + 0j, np.int64(3), np.uint8(3), np.float32(3.0), np.complex64(3)):
            number = as_number(value, "z")
            assert number == 3 and type(number) is complex

    @pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, [1.0], np.array(1.0)])
    def test_rejects_anything_else(self, value):
        with pytest.raises(InvalidInputError, match="widget must be a number"):
            as_number(value, "widget")

    def test_rejects_ints_beyond_a_double(self):
        with pytest.raises(InvalidInputError, match="widget must be finite"):
            as_number(10**400, "widget")

    @pytest.mark.parametrize("args, name", [
        ((2, "1", 0), "t"), ((2, True, 0), "t"), ((2, 10**400, 0), "t"),
        ((2, 1, "0"), "r"), ((2, 1, False), "r"), ((2, 0.6, np.array([0.8])), "r"),
    ], ids=["t-string", "t-bool", "t-huge", "r-string", "r-bool", "r-array"])
    def test_noon_amplitudes(self, args, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be"):
            qd.NoonChannelParams(*args)

    def test_noon_amplitudes_accept_complex_numbers(self):
        params = qd.NoonChannelParams(2, np.complex128(0.6j), np.float64(0.8))
        assert params.t == 0.6j and type(params.t) is complex and type(params.r) is complex


@pytest.mark.parametrize("call, expected", [
    (lambda path: qd.measurement_uncertainty(_QUBIT, np.eye(2)), "VonNeumannBasis"),
    (lambda path: qd.observable_uncertainty(_QUBIT, np.eye(2), (1.0, -1.0)), "VonNeumannBasis"),
    (lambda path: qd.DensityMatrix.from_pure(np.eye(2)), "PureBipartiteState"),
    (lambda path: qd.save_density(np.eye(2) / 2, path), "DensityMatrix"),
    (lambda path: qd.local_quantum_uncertainty(np.eye(4) / 4), "DensityMatrix or NoonProbe"),
], ids=["measurement-uncertainty", "observable-uncertainty", "from-pure", "save-density", "lqu"])
def test_wrong_objects_are_invalid_input(tmp_path, call, expected):
    path = tmp_path / "rho.json"
    with pytest.raises(InvalidInputError, match=f"expected a {expected}, got ndarray"):
        call(path)
    assert not path.exists()
