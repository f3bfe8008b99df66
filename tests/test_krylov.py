"""Tests for the Krylov machinery: block Arnoldi and restarted GMRES."""

import numpy as np
import pytest

from dpinv.dense import hessenberg_lsq
from dpinv.errors import GmresNonConvergenceError, GmresStagnationError
from dpinv.graphgen import random_graph
from dpinv.krylov import (POLY_SETUP_MV, STALL_CYCLES, STALL_FACTOR, GmresConfig,
                          arnoldi_block, gmres_block)
from dpinv.laplacian import eulerian_system, pinv_columns
from dpinv.sparse import (MvCounter, SparseMatrix, build_transition, matvec,
                          matvec_transpose)
from dpinv.stationary import SubspaceConfig, stationary_distribution


def dense_operator(a, counter=None):
    """Block apply of a dense matrix that counts one product per column."""
    a = np.asarray(a, dtype=np.float64)
    counter = MvCounter() if counter is None else counter

    def apply(x):
        if x.ndim != 2 or x.shape[0] != a.shape[0]:
            raise ValueError(f"expected an ({a.shape[0]}, k) block, got {x.shape}")
        counter.add(x.shape[1])
        return a @ x

    apply.counter = counter
    return apply


def random_spd_operator(n, seed, counter=None):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = m @ m.T + n * np.eye(n)
    return dense_operator(a, counter), a


def arnoldi_one(op, v1, ell):
    """One-column block Arnoldi: (V, H, steps, broke) for the start vector v1."""
    V = np.zeros((1, ell + 1, v1.shape[0]))
    H = np.zeros((1, ell + 1, ell))
    V[0, 0] = v1
    steps, broke = arnoldi_block(op, V, H)
    return V[0], H[0], int(steps[0]), bool(broke[0])


def gmres_one(op, b, cfg=None):
    """One-column gmres_block: (x, report) for the right-hand side b."""
    x, reports = gmres_block(op, b[:, None], cfg)
    return x[:, 0], reports[0]


class TestLinearOperator:
    """The block-apply functions the solvers take: sparse products and the dense fake."""

    def test_from_sparse_and_transpose(self):
        m = SparseMatrix.from_coo(3, 3, [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        x = np.array([1.0, 10.0, 100.0])
        op = lambda z: matvec(m, z)
        opt = lambda z: matvec_transpose(m, z)
        np.testing.assert_allclose(op(x[:, None])[:, 0], [10.0, 200.0, 3.0])
        np.testing.assert_allclose(opt(x[:, None])[:, 0], [300.0, 1.0, 20.0])

    def test_shared_counter(self):
        counter = MvCounter()
        op1, _ = random_spd_operator(4, 0, counter)
        op2, _ = random_spd_operator(4, 1, counter)
        op1(np.ones((4, 1)))
        op2(np.ones((4, 1)))
        assert counter.count == 2

    def test_block_apply_counts_columns(self):
        counter = MvCounter()
        op, a = random_spd_operator(6, 2, counter)
        x = np.random.default_rng(3).normal(size=(6, 4))
        np.testing.assert_allclose(op(x), a @ x, atol=1e-12)
        assert counter.count == 4
        with pytest.raises(ValueError):
            op(np.ones(6))
        with pytest.raises(ValueError):
            op(np.ones((5, 2)))


class TestArnoldi:
    def test_relation_holds(self):
        op, a = random_spd_operator(20, 7)
        v1 = np.random.default_rng(8).normal(size=20)
        v1 /= np.linalg.norm(v1)
        V, H, steps, broke = arnoldi_one(op, v1, 8)
        assert steps == 8 and not broke
        V = V.T
        assert V.shape == (20, 9) and H.shape == (9, 8)
        np.testing.assert_allclose(a @ V[:, :8], V @ H, atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(9), atol=1e-12)

    def test_breakdown_on_identity(self):
        op = dense_operator(np.eye(5))
        v1 = np.zeros(5)
        v1[0] = 1.0
        V, H, steps, broke = arnoldi_one(op, v1, 4)
        # Krylov space of the identity closes after one step
        assert steps == 1 and broke
        # one basis vector and a 2 x 1 Hessenberg; nothing is written past them
        assert not V[1:].any() and not H[:, 1:].any() and not H[2:].any()
        assert abs(H[0, 0] - 1.0) < 1e-14 and abs(H[1, 0]) < 1e-14

    def test_breakdown_on_invariant_subspace(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        op = dense_operator(a)
        v1 = np.array([1.0, 1.0, 0.0, 0.0])
        v1 /= np.linalg.norm(v1)
        V, H, steps, broke = arnoldi_one(op, v1, 4)
        # the span of e0,e1 is invariant, so the basis closes after 2 steps
        assert steps == 2 and broke
        assert not V[2:].any()

    def test_block_freezes_broken_column(self):
        # the middle start vector spans an invariant subspace of dimension 2:
        # it stops after 2 steps and takes no product after that
        a = np.diag(np.arange(1.0, 9.0))
        a[0, 5] = a[6, 2] = 0.5
        counter = MvCounter()
        op = dense_operator(a, counter)
        rng = np.random.default_rng(10)
        starts = rng.normal(size=(3, 8))
        starts[1] = [1.0, 1.0, 0, 0, 0, 0, 0, 0]
        V = np.zeros((3, 6, 8))
        V[:, 0] = starts / np.linalg.norm(starts, axis=1)[:, None]
        H = np.zeros((3, 6, 5))
        steps, broke = arnoldi_block(op, V, H)
        assert list(steps) == [5, 2, 5] and list(broke) == [False, True, False]
        assert counter.count == 12
        for c, k in enumerate(steps):
            basis = V[c, :k + 1].T if not broke[c] else V[c, :k].T
            hbar = H[c, :k + 1, :k] if not broke[c] else H[c, :k, :k]
            np.testing.assert_allclose(a @ V[c, :k].T, basis @ hbar, atol=1e-12)
            np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert H[1, 2, 1] == 0.0

    def test_mv_count_one_per_step(self):
        op, _ = random_spd_operator(15, 9)
        v1 = np.ones(15) / np.sqrt(15.0)
        arnoldi_one(op, v1, 6)
        assert op.counter.count == 6


class TestGmres:
    def test_solves_spd_system(self):
        op, a = random_spd_operator(30, 12)
        b = np.random.default_rng(13).normal(size=30)
        x, rep = gmres_one(op, b, cfg=GmresConfig(restart=10, tol=1e-11))
        assert np.linalg.norm(b - a @ x) < 1e-11
        assert rep.final_residual < 1e-11

    def test_mv_count_inner_plus_one(self):
        # from the zero start the only products are the polynomial's setup,
        # two per inner step, and two for the final acceptance check of the
        # true residual
        op, a = random_spd_operator(25, 14)
        b = np.random.default_rng(15).normal(size=25)
        x, rep = gmres_one(op, b, cfg=GmresConfig(restart=7, tol=1e-10))
        assert rep.mv_count == 2 * rep.inner_iterations_total + 2 + POLY_SETUP_MV
        assert rep.mv_count == op.counter.count

    def test_history_starts_at_rhs_norm(self):
        op, _ = random_spd_operator(10, 16)
        b = np.random.default_rng(17).normal(size=10)
        _, rep = gmres_one(op, b, cfg=GmresConfig(restart=5, tol=1e-10))
        assert abs(rep.residual_history[0] - np.linalg.norm(b)) < 1e-14
        assert rep.residual_history[-1] < 1e-10
        # one history entry per completed cycle after the initial norm
        assert len(rep.residual_history) == rep.outer_iterations + 1

    def test_nonincreasing_within_tolerance(self):
        op, _ = random_spd_operator(40, 18)
        b = np.random.default_rng(19).normal(size=40)
        _, rep = gmres_one(op, b, cfg=GmresConfig(restart=4, tol=1e-10))
        h = rep.residual_history
        # restarted GMRES never increases the residual between cycles
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))

    def test_zero_rhs_trivial(self):
        op, _ = random_spd_operator(8, 20)
        x, rep = gmres_one(op, np.zeros(8), cfg=GmresConfig(tol=1e-12))
        np.testing.assert_allclose(x, 0.0)
        # only the polynomial's setup, charged to the call's first report
        assert rep.mv_count == POLY_SETUP_MV == op.counter.count
        assert rep.outer_iterations == 0

    def test_nonconvergence_carries_report(self):
        # GMRES(1) on an SPD diagonal of condition 100 cuts the residual by
        # a factor 0.35-0.91 per cycle: progress the stagnation stop leaves
        # alone, too slow to reach tol in 20 cycles. No cycle reaches tol, so
        # none re-checks its residual; the cap must quote the true residual
        # of the final iterate, made by two more counted products: A y for
        # x = p(A) y, then A x
        n = 10
        a = np.diag(np.geomspace(1.0, 100.0, n))
        b = np.random.default_rng(0).standard_normal(n)
        operands = []
        dense = dense_operator(a)

        def recording(x):
            operands.append(np.array(x))
            return dense(x)

        with pytest.raises(GmresNonConvergenceError) as exc:
            gmres_one(recording, b, cfg=GmresConfig(restart=1, tol=1e-12, max_outer=20))
        assert not isinstance(exc.value, GmresStagnationError)
        rep = exc.value.report
        assert rep.outer_iterations == 20
        assert rep.residual_history[-1] > 1e-12
        true = float(np.linalg.norm(b - a @ operands[-1][:, 0]))
        assert rep.residual_history[-1] == true
        assert f"residual {true:.3e}" in str(exc.value)
        assert rep.mv_count == 2 * rep.inner_iterations_total + 2 + POLY_SETUP_MV
        assert rep.mv_count == dense.counter.count
        assert len(rep.residual_history) == rep.outer_iterations + 1

    def test_flat_residual_stagnates(self):
        # GMRES(1) on a cyclic shift: each 1-dimensional Krylov correction is
        # orthogonal to the residual, which stays flat. The stop ends the
        # solve after STALL_CYCLES such cycles, long before the cap, and
        # quotes the true residual like the cap does
        n = 6
        perm = np.roll(np.eye(n), 1, axis=0)
        b = np.zeros(n)
        b[0], b[1] = 1.0, -1.0
        operands = []
        dense = dense_operator(perm)

        def recording(x):
            operands.append(np.array(x))
            return dense(x)

        with pytest.raises(GmresStagnationError, match="stagnated") as exc:
            gmres_one(recording, b, cfg=GmresConfig(restart=1, tol=1e-12, max_outer=300))
        rep = exc.value.report
        h = rep.residual_history
        assert rep.outer_iterations < 2 * STALL_CYCLES
        # the last entry is the true residual; the cycles before it each cut
        # the residual by less than STALL_FACTOR
        assert np.all(h[-STALL_CYCLES:-1] > STALL_FACTOR * h[-STALL_CYCLES - 1:-2])
        assert h[-1] == float(np.linalg.norm(b - perm @ operands[-1][:, 0]))
        assert rep.mv_count == 2 * rep.inner_iterations_total + 2 + POLY_SETUP_MV
        assert rep.mv_count == dense.counter.count

    def test_restart_one_still_converges_on_spd(self):
        op, a = random_spd_operator(10, 23)
        b = np.random.default_rng(24).normal(size=10)
        x, _ = gmres_one(op, b, cfg=GmresConfig(restart=1, tol=1e-9, max_outer=100000))
        assert np.linalg.norm(b - a @ x) < 1e-9

    def test_rank_one_shifted_solve(self):
        # the operator form used for the pseudo-inverse columns: a sparse
        # product plus alpha u uᵀ, applied to a block without forming it
        rng = np.random.default_rng(25)
        n = 15
        dense = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.4)
        a = dense + n * np.eye(n)
        m = SparseMatrix.from_dense(a)
        u = rng.normal(size=n)

        def op(x):
            return matvec(m, x) + 1.5 * np.outer(u, u @ x)

        b = rng.normal(size=n)
        x, _ = gmres_one(op, b, cfg=GmresConfig(restart=20, tol=1e-12))
        full = a + 1.5 * np.outer(u, u)
        np.testing.assert_allclose(full @ x, b, atol=1e-10)


class TestGmresBlock:
    def test_columns_match_one_column_solves(self):
        op, a = random_spd_operator(30, 26)
        b = np.random.default_rng(27).normal(size=(30, 5))
        cfg = GmresConfig(restart=6, tol=1e-11)
        x, reps = gmres_block(op, b, cfg)
        for c in range(5):
            xc, rc = gmres_one(dense_operator(a), b[:, c], cfg=cfg)
            np.testing.assert_allclose(x[:, c], xc, atol=1e-11)
            # each call charges its polynomial setup to its first report
            setup = POLY_SETUP_MV if c == 0 else 0
            assert reps[c].mv_count - setup == rc.mv_count - POLY_SETUP_MV
            assert reps[c].outer_iterations == rc.outer_iterations
        assert op.counter.count == sum(r.mv_count for r in reps)

    def test_eigenvector_breaks_down_inside_batch(self):
        # e0 is an exact eigenvector: its Krylov space closes after one step
        rng = np.random.default_rng(28)
        n = 20
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        a[1:, 0] = 0.0
        op = dense_operator(a)
        b = rng.normal(size=(n, 4))
        b[:, 2] = 0.0
        b[0, 2] = 3.0
        x, reps = gmres_block(op, b, GmresConfig(restart=8, tol=1e-10))
        assert np.max(np.linalg.norm(b - a @ x, axis=0)) < 1e-10
        assert reps[2].inner_iterations_total == 1
        assert reps[2].mv_count == 2 * 1 + 2
        assert all(r.final_residual < 1e-10 for r in reps)
        assert all(r.inner_iterations_total > 1 for c, r in enumerate(reps) if c != 2)

    def test_unconvergeable_column_raises_with_its_report(self):
        # the middle right-hand side lives in the first 6 coordinates, the
        # others in an SPD block. A rotation by 80 degrees in the plane of
        # e0 and e1 lets GMRES(1) cut that column's residual by only a
        # factor 0.982 per cycle, too slowly to reach tol in 300 cycles, and
        # the cap reports it; on a cyclic shift there its residual is flat,
        # and the stagnation stop reports it instead
        n = 16
        a = np.zeros((n, n))
        t = np.radians(80.0)
        a[:6, :6] = np.eye(6)
        a[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        a[6:, 6:] = random_spd_operator(n - 6, 29)[1]
        rng = np.random.default_rng(30)
        b = np.zeros((n, 3))
        b[6:, 0] = rng.normal(size=n - 6)
        b[0, 1], b[1, 1] = 1.0, -1.0
        b[6:, 2] = rng.normal(size=n - 6)
        cfg = GmresConfig(restart=1, tol=1e-12, max_outer=300)
        with pytest.raises(GmresNonConvergenceError) as exc:
            gmres_block(dense_operator(a), b, cfg)
        assert not isinstance(exc.value, GmresStagnationError)
        rep = exc.value.report
        assert rep.outer_iterations == 300
        assert abs(rep.residual_history[0] - np.sqrt(2.0)) < 1e-14
        assert rep.residual_history[-1] > 1e-12
        a[:6, :6] = np.roll(np.eye(6), 1, axis=0)
        with pytest.raises(GmresStagnationError) as exc:
            gmres_block(dense_operator(a), b, cfg)
        rep = exc.value.report
        assert rep.outer_iterations < 2 * STALL_CYCLES
        assert abs(rep.residual_history[0] - np.sqrt(2.0)) < 1e-14
        assert rep.residual_history[-1] > 1e-12

    def test_null_direction_stops_after_two_rechecks(self):
        # A b = 0: the Krylov space breaks down at step 1 and no correction
        # reduces the residual, so every restart would repeat the same cycle.
        # The column is re-checked like a converged one and ends on the stall
        # test after two cycles instead of running to max_outer
        n = 8
        a = random_spd_operator(n, 32)[1]
        a[:, 0] = 0.0
        op = dense_operator(a)
        b = np.zeros((n, 1))
        b[0, 0] = 2.0
        with pytest.raises(GmresNonConvergenceError, match="reachable floor") as exc:
            gmres_block(op, b, GmresConfig(restart=5, tol=1e-10))
        rep = exc.value.report
        assert rep.outer_iterations == 2 and rep.inner_iterations_total == 2
        assert rep.mv_count == 2 * 2 + 2 * 2 + POLY_SETUP_MV == op.counter.count
        assert list(rep.residual_history) == [2.0, 2.0, 2.0]

    def test_shape_checks(self):
        op, _ = random_spd_operator(5, 31)
        with pytest.raises(ValueError):
            gmres_block(op, np.ones(5))


def two_block_system():
    """A block-diagonal A with a near-identity block and an SPD block of
    condition 1e2, and one right-hand side in each: the first column
    converges in a few steps, the second needs more than one cycle of 30.
    Neither Krylov space closes within 30 steps."""
    rng = np.random.default_rng(40)
    n1, n2 = 40, 60
    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1] = np.eye(n1) + 0.01 * rng.normal(size=(n1, n1))
    q = np.linalg.qr(rng.normal(size=(n2, n2)))[0]
    a[n1:, n1:] = q @ np.diag(np.geomspace(1.0, 1e2, n2)) @ q.T
    b = np.zeros((n1 + n2, 2))
    b[:n1, 0] = rng.normal(size=n1)
    b[n1:, 1] = rng.normal(size=n2)
    return a, b


class TestInCycleStop:
    def test_early_column_stops_inside_its_cycle(self):
        a, b = two_block_system()
        op = dense_operator(a)
        x, (early, late) = gmres_block(op, b, GmresConfig(restart=30, tol=1e-10))
        assert early.outer_iterations == 1 and early.inner_iterations_total < 30
        assert early.mv_count == 2 * early.inner_iterations_total + 2 + POLY_SETUP_MV
        # the column beside it ran its whole first cycle and went on
        assert late.outer_iterations > 1 and late.inner_iterations_total > 30
        assert np.all(np.linalg.norm(b - a @ x, axis=0) < 1e-10)
        assert op.counter.count == early.mv_count + late.mv_count

    def test_stop_is_not_a_breakdown(self):
        a, b = two_block_system()
        op = dense_operator(a)
        beta = np.linalg.norm(b, axis=0)
        V = np.zeros((2, 31, a.shape[0]))
        V[:, 0] = (b / beta).T
        H = np.zeros((2, 31, 30))
        steps, broke = arnoldi_block(op, V, H, beta, 1e-10)
        assert steps[0] < 30 and steps[1] == 30
        assert not broke.any()
        assert op.counter.count == steps.sum()
        # the first column stops at the first step whose least-squares
        # residual is below tol; the estimate only triggers it
        _, res = hessenberg_lsq(H, beta, steps)
        assert res[0] < 1e-10 <= res[1]
        before = H[:1].copy()
        before[:, :, steps[0] - 1:] = 0.0
        _, res_before = hessenberg_lsq(before, beta[:1], [steps[0] - 1])
        assert res_before[0] >= 1e-10


class TestPreconditionedResidual:
    def test_nonnormal_returned_x_meets_tol(self):
        # a strongly nonnormal operator: each returned x is the one whose
        # true residual was re-checked, so b - A x, recomputed here with
        # the dense matrix, is below tol
        n = 40
        rng = np.random.default_rng(41)
        a = np.diag(np.linspace(1.0, 4.0, n)) + 2.0 * np.triu(rng.normal(size=(n, n)), 1)
        b = rng.normal(size=(n, 3))
        x, reps = gmres_block(dense_operator(a), b, GmresConfig(restart=30, tol=1e-10))
        assert np.all(np.linalg.norm(b - a @ x, axis=0) < 1e-10)
        assert all(r.final_residual < 1e-10 for r in reps)

    def test_no_floor_stall_on_criterion_4_graphs(self):
        # the attainable-accuracy floor of A p(A): criterion 4's 20 graphs,
        # both Eulerian kinds, three columns each, at the tolerance and
        # restart of criteria 3 and 6, all end below tol without a
        # reachable-floor or non-convergence error
        for idx, n in enumerate(np.linspace(10, 200, 20).astype(int)):
            n = int(n)
            p, _ = build_transition(random_graph(n, attach=2, extra=n, seed=400 + idx))
            pi = stationary_distribution(p, SubspaceConfig(tol=1e-10, seed=0)).pi
            for kind in ("r", "d"):
                sy = eulerian_system(p, pi, kind)
                _, reps = pinv_columns(sy, [0, n // 2, n - 1],
                                       GmresConfig(restart=60, tol=1e-13))
                assert all(r.final_residual < 1e-13 for r in reps), (n, kind)
