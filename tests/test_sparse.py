import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpinv.errors import InputError
from dpinv.graphgen import random_graph
from dpinv.sparse import (Digraph, MvCounter, SparseMatrix, build_transition,
                          col_sums, is_strongly_connected, matvec,
                          matvec_transpose, row_sums, scale_rows_cols,
                          strong_connectivity_certificate)


def random_sparse(rng, n_rows, n_cols, density=0.3):
    mask = rng.random((n_rows, n_cols)) < density
    a = np.where(mask, rng.standard_normal((n_rows, n_cols)), 0.0)
    return SparseMatrix.from_dense(a), a


class TestSparseMatrix:
    def test_from_coo_merges_duplicates(self):
        m = SparseMatrix.from_coo(2, 2,
                                  np.array([0, 0, 1, 0]),
                                  np.array([1, 1, 0, 0]),
                                  np.array([2.0, 3.0, 4.0, 1.0]))
        assert m.nnz == 3
        expected = np.array([[1.0, 5.0], [4.0, 0.0]])
        np.testing.assert_array_equal(m.to_dense(), expected)

    def test_from_coo_sorts_columns(self):
        m = SparseMatrix.from_coo(1, 4, np.zeros(3, dtype=int),
                                  np.array([3, 0, 2]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(m.col_indices, [0, 2, 3])
        np.testing.assert_array_equal(m.values, [2.0, 3.0, 1.0])

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        m, a = random_sparse(rng, 7, 5)
        np.testing.assert_array_equal(m.to_dense(), a)

    def test_identity(self):
        np.testing.assert_array_equal(SparseMatrix.identity(4).to_dense(),
                                      np.eye(4))

    def test_diagonal(self):
        rng = np.random.default_rng(1)
        m, a = random_sparse(rng, 6, 6)
        np.testing.assert_array_equal(m.diagonal(), np.diag(a))

    def test_validation_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                         np.ones(2))

    def test_validation_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(1, 1, np.array([0]), np.array([0]),
                                  np.array([np.nan]))

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(2, 2, np.array([0]), np.array([2]),
                                  np.ones(1))

    @pytest.mark.parametrize("cols", [[1, 0, 1], [0, 0, 1]],
                             ids=["unsorted", "duplicate"])
    def test_validation_rejects_noncanonical_row(self, cols):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(2, 2, np.array([0, 2, 3]), np.array(cols), np.ones(3))

    def test_column_may_decrease_across_rows(self):
        # row 0 ends at column 2, row 1 is empty, row 2 restarts at column 0
        m = SparseMatrix(3, 3, np.array([0, 2, 2, 4]), np.array([1, 2, 0, 2]),
                         np.arange(1.0, 5.0))
        np.testing.assert_array_equal(
            m.to_dense(), [[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])

    def test_all_zero_sums(self):
        m = SparseMatrix.from_coo(3, 4, [], [], [])
        np.testing.assert_array_equal(row_sums(m), np.zeros(3))
        np.testing.assert_array_equal(col_sums(m), np.zeros(4))


class TestMatvec:
    def test_matches_dense(self):
        rng = np.random.default_rng(2)
        m, a = random_sparse(rng, 8, 6)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(matvec(m, x), a @ x, atol=1e-14)

    def test_transpose_matches_dense(self):
        rng = np.random.default_rng(3)
        m, a = random_sparse(rng, 8, 6)
        y = rng.standard_normal(8)
        np.testing.assert_allclose(matvec_transpose(m, y), a.T @ y, atol=1e-14)

    # products add entries in storage order, so outputs are reproducible bit
    # for bit against a bincount over the stored entries
    def test_rectangular_matvec_matches_dense_and_storage_order(self):
        rng = np.random.default_rng(13)
        m, a = random_sparse(rng, 13, 29)
        x = rng.standard_normal(29)
        np.testing.assert_allclose(matvec(m, x), a @ x, atol=1e-12)
        rows = np.repeat(np.arange(13), np.diff(m.row_offsets))
        assert np.array_equal(matvec(m, x), np.bincount(
            rows, weights=m.values * x[m.col_indices], minlength=13))

    def test_rectangular_matvec_transpose_matches_dense_and_storage_order(self):
        rng = np.random.default_rng(13)
        m, a = random_sparse(rng, 13, 29)
        y = rng.standard_normal(13)
        np.testing.assert_allclose(matvec_transpose(m, y), a.T @ y, atol=1e-12)
        rows = np.repeat(np.arange(13), np.diff(m.row_offsets))
        assert np.array_equal(matvec_transpose(m, y), np.bincount(
            m.col_indices, weights=m.values * y[rows], minlength=29))

    def test_empty_rows_and_unused_column(self):
        # rows 1 and 3 empty, column 0 never referenced
        m = SparseMatrix.from_coo(4, 3, [0, 2], [1, 2], [5.0, -3.0])
        assert np.array_equal(matvec(m, [1.0, 2.0, 3.0]), [10.0, 0.0, -9.0, 0.0])
        assert np.array_equal(matvec_transpose(m, np.ones(4)), [0.0, 5.0, -3.0])

    def test_block_operand_is_one_product_per_column(self):
        # an (n, k) operand gives the k column products, bit for bit, and
        # counts k products, for M and for Mᵀ alike
        rng = np.random.default_rng(14)
        m, a = random_sparse(rng, 13, 29)
        for product, dense, n_in in ((matvec, a, 29), (matvec_transpose, a.T, 13)):
            x = rng.standard_normal((n_in, 4))
            c = MvCounter()
            y = product(m, x, c)
            assert c.count == 4
            for k in range(4):
                assert np.array_equal(y[:, k], product(m, x[:, k]))
            np.testing.assert_allclose(y, dense @ x, atol=1e-12)
            with pytest.raises(ValueError):
                product(m, np.ones((n_in + 1, 4)))

    def test_counter_increments_once_per_product(self):
        rng = np.random.default_rng(4)
        m, _ = random_sparse(rng, 5, 5)
        c = MvCounter()
        matvec(m, np.ones(5), c)
        matvec(m, np.ones(5), c)
        matvec_transpose(m, np.ones(5), c)
        assert c.count == 3
        # one counter shared by both products counts block columns too
        matvec_transpose(m, np.ones((5, 2)), c)
        matvec(m, np.ones((5, 3)), c)
        assert c.count == 8

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.integers(2, 12))
    def test_transpose_adjoint_identity(self, seed, n_rows, n_cols):
        rng = np.random.default_rng(seed)
        m, _ = random_sparse(rng, n_rows, n_cols)
        x = rng.standard_normal(n_cols)
        y = rng.standard_normal(n_rows)
        # <y, Ax> == <ATy, x> up to roundoff
        assert abs(y @ matvec(m, x) - matvec_transpose(m, y) @ x) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_from_coo_agrees_with_dense_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 40))
        rows = rng.integers(0, 5, k)
        cols = rng.integers(0, 5, k)
        vals = rng.standard_normal(k)
        dense = np.zeros((5, 5))
        np.add.at(dense, (rows, cols), vals)
        m = SparseMatrix.from_coo(5, 5, rows, cols, vals)
        np.testing.assert_allclose(m.to_dense(), dense, atol=1e-12)


class TestTransforms:
    def test_scale_rows_cols(self):
        rng = np.random.default_rng(5)
        m, a = random_sparse(rng, 4, 4)
        left = rng.uniform(0.5, 2.0, 4)
        right = rng.uniform(0.5, 2.0, 4)
        scaled = scale_rows_cols(m, left, right)
        np.testing.assert_allclose(scaled.to_dense(),
                                   left[:, None] * a * right[None, :],
                                   atol=1e-14)

    def test_scale_rejects_nonpositive(self):
        m = SparseMatrix.identity(3)
        with pytest.raises(ValueError):
            scale_rows_cols(m, np.array([1.0, 0.0, 1.0]), np.ones(3))

    def test_row_col_sums(self):
        rng = np.random.default_rng(6)
        m, a = random_sparse(rng, 5, 7)
        np.testing.assert_allclose(row_sums(m), a.sum(axis=1), atol=1e-14)
        np.testing.assert_allclose(col_sums(m), a.sum(axis=0), atol=1e-14)


class TestDigraph:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InputError):
            Digraph(2, np.array([0]), np.array([1]), np.array([0.0]))

    def test_rejects_bad_endpoint(self):
        with pytest.raises(InputError):
            Digraph(2, np.array([0]), np.array([2]), np.ones(1))

    def test_adjacency_merges(self):
        g = Digraph(2, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(g.adjacency().to_dense(),
                                      [[0.0, 3.0], [0.0, 0.0]])

    def test_strong_connectivity(self, cycle3):
        assert is_strongly_connected(cycle3)
        assert strong_connectivity_certificate(cycle3) is None

    def test_certificate_names_unreachable_pair(self):
        # 0 -> 1 with no way back
        g = Digraph(2, np.array([0]), np.array([1]), np.ones(1))
        cert = strong_connectivity_certificate(g)
        assert cert is not None
        a, b = cert
        assert (a, b) in ((0, 1), (1, 0))

    @pytest.mark.parametrize("src,dst,n,expected", [
        # two 3-cycles, one arc from node 0's cycle into the other
        ([0, 1, 2, 3, 4, 5, 2], [1, 2, 0, 4, 5, 3, 3], 6, (3, 0)),
        # the same with the joining arc reversed
        ([0, 1, 2, 3, 4, 5, 3], [1, 2, 0, 4, 5, 3, 2], 6, (0, 3)),
        # a 3-cycle and an isolated node
        ([0, 1, 2], [1, 2, 0], 4, (0, 3)),
    ], ids=["arc-out", "arc-in", "isolated"])
    def test_certificate_pair_is_unreachable(self, src, dst, n, expected):
        g = Digraph(n, np.array(src), np.array(dst), np.ones(len(src)))
        reach = np.eye(n, dtype=bool)
        reach[g.src, g.dst] = True
        for _ in range(n):  # boolean closure of I + A
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        cert = strong_connectivity_certificate(g)
        assert cert == expected
        assert not reach[cert]

    def test_certificate_none_on_random_graphs(self):
        for seed in range(4):
            assert strong_connectivity_certificate(random_graph(60, seed=seed)) is None

    def test_build_transition_rows_sum_to_one(self, selfloop2):
        p, d = build_transition(selfloop2)
        np.testing.assert_allclose(row_sums(p), np.ones(2), atol=1e-15)
        np.testing.assert_array_equal(d, [2.0, 1.0])
        np.testing.assert_allclose(p.to_dense(),
                                   [[0.5, 0.5], [1.0, 0.0]], atol=1e-15)

    def test_build_transition_rejects_dead_node(self):
        g = Digraph(2, np.array([0]), np.array([1]), np.ones(1))
        with pytest.raises(InputError, match="zero out-degree"):
            build_transition(g)
