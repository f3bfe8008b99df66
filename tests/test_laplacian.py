"""Tests for Laplacian assembly, pseudo-inverse solves, and the general pipeline."""

import numpy as np
import pytest

import dpinv.krylov
import dpinv.laplacian
from dpinv.errors import GmresNonConvergenceError, InputError, NumericalError
from dpinv.graphgen import random_graph
from dpinv.krylov import POLY_SETUP_MV, GmresConfig
from dpinv.laplacian import (
    EulerianSystem,
    GeneralLaplacian,
    build_laplacian,
    check_eulerian,
    check_properties,
    eulerian_system,
    general_laplacian,
    general_pinv,
    pinv_apply,
    pinv_columns,
    pinv_rank1_general,
)
from dpinv.oracle import dense_pinv_reference, penrose_check
from dpinv.sparse import Digraph, SparseMatrix, build_transition
from dpinv.stationary import SubspaceConfig, stationary_distribution

TIGHT = GmresConfig(restart=50, tol=1e-12)


def graph_system(n, seed, extra=None):
    """A strongly connected test graph with its chain and converged pi."""
    g = random_graph(n, extra=n // 2 if extra is None else extra, seed=seed)
    p, d = build_transition(g)
    pi = stationary_distribution(p, SubspaceConfig(tol=1e-12, seed=seed)).pi
    return p, d, pi


def dense_chain(p):
    return p.to_dense()


class TestBuildLaplacian:
    def test_all_kinds_match_dense_formulas(self, selfloop2_p):
        p = selfloop2_p
        pd = p.to_dense()
        pi = np.array([2.0 / 3.0, 1.0 / 3.0])
        d = np.array([2.0, 1.0])
        np.testing.assert_allclose(
            build_laplacian(p, "r", pi=pi).to_dense(),
            np.diag(pi) - np.diag(pi) @ pd, atol=1e-15)
        np.testing.assert_allclose(
            build_laplacian(p, "a", d=d).to_dense(),
            np.diag(d) - np.diag(d) @ pd, atol=1e-15)
        np.testing.assert_allclose(
            build_laplacian(p, "p").to_dense(), np.eye(2) - pd, atol=1e-15)
        s = np.sqrt(pi)
        np.testing.assert_allclose(
            build_laplacian(p, "d", pi=pi).to_dense(),
            np.eye(2) - np.diag(s) @ pd @ np.diag(1.0 / s), atol=1e-15)

    def test_missing_arguments(self, cycle3_p):
        with pytest.raises(ValueError, match="stationary"):
            build_laplacian(cycle3_p, "r")
        with pytest.raises(ValueError, match="out-degree"):
            build_laplacian(cycle3_p, "a")
        with pytest.raises(ValueError, match="stationary"):
            build_laplacian(cycle3_p, "d")
        with pytest.raises(ValueError, match="unknown"):
            build_laplacian(cycle3_p, "z")


class TestCheckEulerian:
    def test_balanced_kinds_pass(self):
        p, _, pi = graph_system(20, seed=0)
        lr = build_laplacian(p, "r", pi=pi)
        ok, _ = check_eulerian(lr, np.ones(20))
        assert ok
        ld = build_laplacian(p, "d", pi=pi)
        ok, _ = check_eulerian(ld, np.sqrt(pi))
        assert ok

    def test_probabilistic_kind_fails_on_unbalanced(self, selfloop2_p):
        # I - P annihilates ones on the right but not on the left here
        lp = build_laplacian(selfloop2_p, "p")
        ok, (right, left) = check_eulerian(lp, np.ones(2))
        assert not ok
        assert right < 1e-15
        assert left > 0.1

    def test_scale_invariance(self):
        p, _, pi = graph_system(15, seed=1)
        lr = build_laplacian(p, "r", pi=pi)
        big = SparseMatrix(lr.n_rows, lr.n_cols, lr.row_offsets,
                           lr.col_indices, lr.values * 1e8)
        assert check_eulerian(lr, np.ones(15))[0]
        assert check_eulerian(big, np.ones(15))[0]


class TestEulerianSystem:
    def test_rejects_other_kinds(self, cycle3_p):
        pi = np.full(3, 1.0 / 3.0)
        for kind in ("a", "p"):
            with pytest.raises(ValueError, match="general_pinv"):
                eulerian_system(cycle3_p, pi, kind)

    def test_rejects_bad_pi(self, cycle3_p):
        with pytest.raises(ValueError, match="strictly positive"):
            eulerian_system(cycle3_p, np.array([0.5, 0.5, 0.0]), "r")
        with pytest.raises(ValueError, match="sum to 1"):
            eulerian_system(cycle3_p, np.array([0.5, 0.5, 0.5]), "r")
        with pytest.raises(ValueError, match="nonzero"):
            eulerian_system(cycle3_p, np.full(3, 1.0 / 3.0), "r", shift_alpha=0.0)

    def test_rejects_unconverged_pi(self, selfloop2_p):
        # swapping the true stationary entries leaves a large null defect
        with pytest.raises(NumericalError, match="not Eulerian"):
            eulerian_system(selfloop2_p, np.array([1.0 / 3.0, 2.0 / 3.0]), "r")

    def test_unit_null_vectors(self):
        p, _, pi = graph_system(12, seed=2)
        for kind in ("r", "d"):
            sysk = eulerian_system(p, pi, kind)
            assert abs(np.linalg.norm(sysk.u) - 1.0) < 1e-12
            assert sysk.u.min() > 0


class TestPinvColumns:
    @pytest.mark.parametrize("kind", ["r", "d"])
    @pytest.mark.parametrize("n,seed", [(10, 3), (30, 4)])
    def test_matches_dense_reference(self, kind, n, seed):
        p, _, pi = graph_system(n, seed=seed)
        sysk = eulerian_system(p, pi, kind)
        ref = dense_pinv_reference(sysk.l.to_dense(), sysk.u)
        block, reports = pinv_columns(sysk, range(n), cfg=TIGHT)
        assert np.max(np.abs(block - ref)) < 1e-8
        assert all(rep.final_residual < 1e-12 for rep in reports)

    @pytest.mark.parametrize("kind", ["r", "d"])
    def test_penrose_conditions(self, kind):
        p, _, pi = graph_system(25, seed=5)
        sysk = eulerian_system(p, pi, kind)
        block, _ = pinv_columns(sysk, range(25), cfg=TIGHT)
        rep = penrose_check(sysk.l.to_dense(), block)
        assert rep.ok(1e-6), rep

    def test_columns_orthogonal_to_null(self):
        p, _, pi = graph_system(20, seed=6)
        sysk = eulerian_system(p, pi, "d")
        block, _ = pinv_columns(sysk, range(20), cfg=TIGHT)
        assert np.max(np.abs(sysk.u @ block)) < 1e-10

    def test_shift_invariance(self):
        p, _, pi = graph_system(15, seed=7)
        cols = None
        for alpha in (0.5, 1.0, 2.0):
            sysk = eulerian_system(p, pi, "r", shift_alpha=alpha)
            block, _ = pinv_columns(sysk, [3], cfg=TIGHT)
            col = block[:, 0]
            if cols is None:
                cols = col
            else:
                assert np.max(np.abs(col - cols)) < 1e-9

    def test_apply_matches_matrix_action(self):
        p, _, pi = graph_system(18, seed=8)
        sysk = eulerian_system(p, pi, "r")
        ref = dense_pinv_reference(sysk.l.to_dense(), sysk.u)
        rng = np.random.default_rng(9)
        z = rng.normal(size=(18, 3))
        x, reports = pinv_apply(sysk, z, cfg=TIGHT)
        np.testing.assert_allclose(x, ref @ z, atol=1e-8)
        assert len(reports) == 3

    def test_rank_one_shift(self, monkeypatch):
        # the solves see x -> L x + alpha u (uᵀ x), one sparse product per block
        sysk = EulerianSystem("r", SparseMatrix.identity(3), np.array([1.0, 0.0, 0.0]),
                              np.full(3, 1.0 / 3.0), shift_alpha=2.0)
        applies, products = [], []
        inner = dpinv.laplacian.matvec

        def capture(apply, b, cfg=None, poly=None):
            applies.append(apply)
            return np.zeros_like(b), []

        def counting(m, x, counter=None):
            products.append(np.shape(x))
            return inner(m, x, counter)

        monkeypatch.setattr(dpinv.laplacian, "gmres_block", capture)
        monkeypatch.setattr(dpinv.laplacian, "matvec", counting)
        pinv_apply(sysk, np.zeros((3, 1)))
        x = np.array([[1.0, 0.0], [5.0, 1.0], [2.0, 3.0]])
        # I x + 2 u (u . x) = x + 2 x[0] e0
        np.testing.assert_allclose(applies[0](x), [[3.0, 0.0], [5.0, 1.0], [2.0, 3.0]])
        assert products == [(3, 2)]

    def test_apply_rejects_non_block(self):
        p, _, pi = graph_system(8, seed=11)
        sysk = eulerian_system(p, pi, "r")
        with pytest.raises(ValueError, match=r"\(8, k\) block"):
            pinv_apply(sysk, np.ones(8))
        with pytest.raises(ValueError, match=r"\(8, k\) block"):
            pinv_apply(sysk, np.ones((7, 2)))

    def test_bad_index_rejected(self):
        p, _, pi = graph_system(8, seed=11)
        sysk = eulerian_system(p, pi, "r")
        with pytest.raises(ValueError, match="out of range"):
            pinv_columns(sysk, [8])
        with pytest.raises(ValueError, match="out of range"):
            pinv_columns(sysk, [0, -1])


class TestBatchedColumns:
    """Columns are solved in lockstep batches sized by the basis budget."""

    COLS = [0, 3, 17, 42, 88, 120, 151, 199]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_width_does_not_change_columns(self, seed, monkeypatch):
        # results agree to the solve tolerance, not bit for bit: batched
        # Gram-Schmidt sums run in another order
        p, _, pi = graph_system(200, seed=seed, extra=200)
        sysk = eulerian_system(p, pi, "d")
        cfg = GmresConfig(tol=1e-12)
        assert dpinv.krylov.batch_width(200, cfg.restart) == 21
        ref, ref_reps = pinv_columns(sysk, self.COLS, cfg)
        for width in (1, 3):
            monkeypatch.setattr(dpinv.krylov, "_BASIS_BYTES",
                                width * 8 * (cfg.restart + 1) * 200)
            assert dpinv.krylov.batch_width(200, cfg.restart) == width
            block, reps = pinv_columns(sysk, self.COLS, cfg)
            assert np.max(np.abs(block - ref)) < 1e-10
            assert [r.mv_count for r in reps] == [r.mv_count for r in ref_reps]

    def test_reported_products_match_counted_operands(self, monkeypatch):
        p, _, pi = graph_system(120, seed=3, extra=120)
        sysk = eulerian_system(p, pi, "r")
        seen = []
        inner = dpinv.laplacian.matvec

        def counting(m, x, counter=None):
            seen.append(1 if np.ndim(x) == 1 else np.shape(x)[1])
            return inner(m, x, counter)

        monkeypatch.setattr(dpinv.laplacian, "matvec", counting)
        monkeypatch.setattr(dpinv.krylov, "_BASIS_BYTES", 7 * 8 * 31 * 120)
        _, reports = pinv_columns(sysk, range(0, 120, 5), GmresConfig(tol=1e-11))
        assert len(reports) == 24
        assert sum(r.mv_count for r in reports) == sum(seen)
        assert max(seen) == 7

    def test_one_polynomial_fit_per_request(self, monkeypatch):
        # a request split into several chunks fits p once, in 2 products
        # charged to its first report; the reports still sum to every
        # operand column the request applied
        p, _, pi = graph_system(120, seed=4, extra=120)
        sysk = eulerian_system(p, pi, "d")
        seen, fits = [], []
        inner = dpinv.laplacian.matvec
        fit = dpinv.laplacian.gmres_poly

        def counting(m, x, counter=None):
            seen.append(1 if np.ndim(x) == 1 else np.shape(x)[1])
            return inner(m, x, counter)

        def fitting(apply, n):
            before = sum(seen)
            poly = fit(apply, n)
            fits.append(sum(seen) - before)
            return poly

        monkeypatch.setattr(dpinv.laplacian, "matvec", counting)
        monkeypatch.setattr(dpinv.laplacian, "gmres_poly", fitting)
        monkeypatch.setattr(dpinv.laplacian, "_RHS_BYTES", 5 * 8 * 120)
        cols = list(range(0, 120, 6))
        block, reports = pinv_columns(sysk, cols, GmresConfig(tol=1e-11))
        assert fits == [POLY_SETUP_MV]
        assert len(reports) == 20
        assert sum(r.mv_count for r in reports) == sum(seen)
        # with the fit charged up front, every chunk's columns cost the
        # same as they do in one unchunked request
        monkeypatch.setattr(dpinv.laplacian, "_RHS_BYTES", 1 << 16)
        whole, whole_reps = pinv_columns(sysk, cols, GmresConfig(tol=1e-11))
        assert [r.mv_count for r in reports] == [r.mv_count for r in whole_reps]
        assert np.max(np.abs(block - whole)) < 1e-9

    def test_empty_request_makes_no_product(self, monkeypatch):
        p, _, pi = graph_system(30, seed=5)
        sysk = eulerian_system(p, pi, "d")
        seen = []
        inner = dpinv.laplacian.matvec

        def counting(m, x, counter=None):
            seen.append(np.shape(x))
            return inner(m, x, counter)

        monkeypatch.setattr(dpinv.laplacian, "matvec", counting)
        block, reports = pinv_columns(sysk, [])
        assert block.shape == (30, 0) and reports == [] and seen == []

    def test_unreachable_tolerance_stops_early(self, monkeypatch):
        # with z = 1e8 e0 the true residual floors near 1e-8 while the
        # recurrence falls below 1e-9: the solve must stop at the floor and
        # report the true residual, not run its 12-cycle cap. Whether the
        # re-check of cycle 3 or of cycle 4 is the first not to halve its
        # predecessor depends on rounding at the floor.
        p, _, pi = graph_system(300, seed=0, extra=300)
        sysk = eulerian_system(p, pi, "d")
        z = np.zeros((300, 1))
        z[0] = 1e8
        operands = []
        inner = dpinv.laplacian.matvec

        def recording(m, x, counter=None):
            operands.append(np.array(x))
            return inner(m, x, counter)

        monkeypatch.setattr(dpinv.laplacian, "matvec", recording)
        with pytest.raises(GmresNonConvergenceError, match="reachable floor") as exc:
            pinv_apply(sysk, z, GmresConfig(tol=1e-9, max_outer=12))
        rep = exc.value.report
        assert rep.outer_iterations <= 4
        # the last product is the failed re-check of the final iterate
        x = operands[-1]
        shifted = inner(sysk.l, x) + np.outer(sysk.u, sysk.shift_alpha * (sysk.u @ x))
        true = float(np.linalg.norm(z - shifted))
        assert rep.residual_history[-1] == pytest.approx(true, rel=1e-12)
        assert rep.residual_history[-1] >= 1e-9


class TestBorderedIdentities:
    """The pseudo-inverse of a nullity-one matrix through its {1}-inverses."""

    def _distinct_null_case(self, n, seed):
        p, d, pi = graph_system(n, seed=seed)
        la = build_laplacian(p, "a", d=d)
        a = la.to_dense()
        u = np.ones(n)
        v = pi / d
        v = v / float(v @ u)
        b = dense_pinv_reference(a, u, v)
        return a, b, u, v

    def test_reduced_roundtrip_distinct_nulls(self):
        # leading-block inverse to pseudo-inverse: the inverse of the
        # nonsingular leading block, padded with zeros, is a {1}-inverse,
        # A G A = A, and the projections give the pseudo-inverse
        a, b, u, v = self._distinct_null_case(12, 14)
        g = np.zeros((12, 12))
        g[:-1, :-1] = np.linalg.inv(a[:-1, :-1])
        np.testing.assert_allclose(a @ g @ a, a, atol=1e-9)
        full = pinv_rank1_general(lambda z: g @ z, u, v)
        np.testing.assert_allclose(full, b, atol=1e-8)

    def test_rank1_general_matches_reference(self):
        a, b, u, v = self._distinct_null_case(11, 16)
        c = a + np.outer(u, v)

        def solve_c(rhs):
            return np.linalg.solve(c, rhs)

        full = pinv_rank1_general(solve_c, u, v)
        np.testing.assert_allclose(full, b, atol=1e-9)
        some = pinv_rank1_general(solve_c, u, v, rhs_indices=[2, 5])
        np.testing.assert_allclose(some, full[:, [2, 5]], atol=1e-12)
        for bad in (-1, 11):
            with pytest.raises(ValueError, match="out of range"):
                pinv_rank1_general(solve_c, u, v, rhs_indices=[0, bad])

    def test_rank1_general_any_one_inverse(self):
        # G = A⁺ + u wᵀ + y vᵀ satisfies A G A = A; the projection undoes
        # both null-space terms, and the map is called once on [v | e_j...]
        a, b, u, v = self._distinct_null_case(10, 19)
        rng = np.random.default_rng(19)
        g = b + np.outer(u, rng.normal(size=10)) + np.outer(rng.normal(size=10), v)
        np.testing.assert_allclose(a @ g @ a, a, atol=1e-9)
        calls = []

        def apply_g(z):
            calls.append(z.copy())
            return g @ z

        some = pinv_rank1_general(apply_g, u, v, rhs_indices=[4, 0, 9])
        np.testing.assert_allclose(some, b[:, [4, 0, 9]], atol=1e-9)
        assert len(calls) == 1
        expected = np.zeros((10, 4))
        expected[:, 0] = v
        expected[[4, 0, 9], [1, 2, 3]] = 1.0
        np.testing.assert_array_equal(calls[0], expected)

    def test_rank1_general_projector_identities(self):
        a, _, u, v = self._distinct_null_case(10, 17)
        c = a + np.outer(u, v)
        full = pinv_rank1_general(lambda z: np.linalg.solve(c, z), u, v)
        n = a.shape[0]
        # A A+ projects out the left null direction, A+ A the right one
        np.testing.assert_allclose(
            a @ full, np.eye(n) - np.outer(v, v) / float(v @ v), atol=1e-8)
        np.testing.assert_allclose(
            full @ a, np.eye(n) - np.outer(u, u) / float(u @ u), atol=1e-8)


class TestCheckProperties:
    def _good_matrix(self, n=10, seed=18):
        p, d, _ = graph_system(n, seed=seed)
        return build_laplacian(p, "a", d=d)

    def test_valid_matrix_passes(self):
        la = self._good_matrix()
        rep = check_properties(la, np.ones(10))
        assert rep.ok and rep.irreducible and rep.sign_pattern and rep.null_vector
        assert rep.messages == []

    def test_disconnected_support_flagged(self):
        # two separate 2-node loops: off-diagonal support splits in half
        m = SparseMatrix.from_coo(
            4, 4,
            [0, 0, 1, 1, 2, 2, 3, 3],
            [0, 1, 1, 0, 2, 3, 3, 2],
            [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        rep = check_properties(m)
        assert not rep.irreducible
        assert any("(Pa)" in msg for msg in rep.messages)

    def test_bad_diagonal_flagged(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                                  [0.0, -1.0, -1.0, 1.0])
        rep = check_properties(m)
        assert not rep.sign_pattern
        assert any("(Pb)" in msg and "diagonal" in msg for msg in rep.messages)

    def test_positive_offdiagonal_flagged(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                                  [1.0, 1.0, -1.0, 1.0])
        rep = check_properties(m)
        assert not rep.sign_pattern
        assert any("(Pb)" in msg and "off-diagonal" in msg for msg in rep.messages)

    def test_nonpositive_x_flagged(self):
        la = self._good_matrix()
        x = np.ones(10)
        x[3] = 0.0
        rep = check_properties(la, x)
        assert rep.null_vector is False
        assert any("(Pc)" in msg for msg in rep.messages)

    def test_wrong_null_vector_flagged(self):
        la = self._good_matrix()
        x = np.ones(10)
        x[0] = 2.0
        rep = check_properties(la, x)
        assert rep.null_vector is False
        assert any("(Pc)" in msg for msg in rep.messages)

    def test_general_laplacian_raises_with_messages(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                                  [1.0, 1.0, -1.0, 1.0])
        with pytest.raises(InputError, match=r"\(Pb\)"):
            general_laplacian(m, np.ones(2))


class TestGeneralPinv:
    def test_symmetric_case_closed_form(self):
        # undirected graph: L is symmetric, pinv = inv(L + J/n) - J/n
        rng = np.random.default_rng(20)
        n = 12
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
        extra = rng.integers(0, n, size=(6, 2))
        for i, j in extra:
            if i != j:
                a[i, j] = a[j, i] = 1.0
        lap = np.diag(a.sum(axis=1)) - a
        lt = general_laplacian(SparseMatrix.from_dense(lap), np.ones(n))
        block, info = general_pinv(lt, cfg=TIGHT)
        jn = np.full((n, n), 1.0 / n)
        ref = np.linalg.inv(lap + jn) - jn
        assert np.max(np.abs(block - ref)) < 1e-7

    @pytest.mark.parametrize("n,seed", [(10, 21), (25, 22)])
    def test_directed_adjacency_kind(self, n, seed):
        p, d, pi = graph_system(n, seed=seed)
        la = build_laplacian(p, "a", d=d)
        lt = general_laplacian(la, np.ones(n))
        block, info = general_pinv(lt, cfg=TIGHT)
        ref = np.linalg.pinv(la.to_dense())
        assert np.max(np.abs(block - ref)) < 1e-6
        rep = penrose_check(la.to_dense(), block)
        assert rep.ok(1e-6), rep

    def test_probabilistic_kind(self, selfloop2_p):
        lp = build_laplacian(selfloop2_p, "p")
        lt = general_laplacian(lp, np.ones(2))
        block, _ = general_pinv(lt, cfg=TIGHT)
        np.testing.assert_allclose(block, np.linalg.pinv(lp.to_dense()), atol=1e-9)

    def test_left_null_vector_reported(self):
        p, d, pi = graph_system(15, seed=23)
        la = build_laplacian(p, "a", d=d)
        lt = general_laplacian(la, np.ones(15))
        _, info = general_pinv(lt, indices=[0], cfg=TIGHT)
        # v must annihilate the matrix from the left and pair to 1 with x
        defect = np.abs(info.v @ la.to_dense()).max()
        assert defect < 1e-8
        assert abs(float(info.v @ lt.x) - 1.0) < 1e-10

    def test_indices_subset_matches_full(self):
        p, d, _ = graph_system(12, seed=24)
        la = build_laplacian(p, "a", d=d)
        lt = general_laplacian(la, np.ones(12))
        full, _ = general_pinv(lt, cfg=TIGHT)
        some, _ = general_pinv(lt, indices=[1, 7, 11], cfg=TIGHT)
        np.testing.assert_allclose(some, full[:, [1, 7, 11]], atol=1e-10)

    def test_scaled_null_vector(self):
        # a non-constant right null vector exercises the column scaling
        p, d, _ = graph_system(11, seed=26)
        la = build_laplacian(p, "a", d=d)
        dense = la.to_dense()
        rng = np.random.default_rng(27)
        x = rng.uniform(0.5, 2.0, size=11)
        scaled = dense @ np.diag(1.0 / x)  # right null becomes x
        lt = general_laplacian(SparseMatrix.from_dense(scaled), x)
        block, _ = general_pinv(lt, cfg=TIGHT)
        ref = np.linalg.pinv(scaled)
        assert np.max(np.abs(block - ref)) < 1e-6

    def test_single_node_rejected(self):
        m = SparseMatrix.from_coo(1, 1, [0], [0], [0.0])
        lt = GeneralLaplacian(m, np.ones(1))
        with pytest.raises(InputError, match="1x1"):
            general_pinv(lt)


def two_cluster_laplacian(n, seed, decades=2.0):
    """Kind-a Laplacian of two random clusters joined by one arc each way,
    arc weights log-uniform over ``decades`` decades: a nearly reducible chain."""
    rng = np.random.default_rng(seed)
    half = n // 2
    ga = random_graph(half, extra=half // 2, seed=seed)
    gb = random_graph(n - half, extra=half // 2, seed=seed + 100)
    a, b = int(rng.integers(half)), int(rng.integers(half, n))
    src = np.concatenate([ga.src, gb.src + half, [a, b]])
    dst = np.concatenate([ga.dst, gb.dst + half, [b, a]])
    weight = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=src.size)
    p, d = build_transition(Digraph(n, src, dst, weight))
    return build_laplacian(p, "a", d=d)


class TestGeneralPinvNearReducible:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_dense_pinv(self, seed):
        la = two_cluster_laplacian(60, seed)
        dense = la.to_dense()
        ref = np.linalg.pinv(dense)
        lt = general_laplacian(la, np.ones(60))
        full, info = general_pinv(lt, cfg=TIGHT)
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(full - ref).max() <= 1e-8 * scale
        assert penrose_check(dense, full).max_residual <= 1e-6
        # the heaviest node of pi is solved like any other column
        idx = [int(np.argmax(info.pi)), 0, 59]
        some, info_some = general_pinv(lt, indices=idx, cfg=TIGHT)
        assert np.abs(some - ref[:, idx]).max() <= 1e-8 * scale
        assert len(info_some.column_reports) == len(idx)
        assert all(r.final_residual <= TIGHT.tol for r in info_some.column_reports)
        assert info_some.extra_report.final_residual <= TIGHT.tol
