"""The oracles must themselves be trustworthy; these tests pin them down."""

import numpy as np
import pytest

from dpinv.errors import NumericalError
from dpinv.graphgen import random_graph
from dpinv.oracle import (
    dense_pinv_reference,
    hitting_times_direct,
    mc_walk,
    monte_carlo_walk,
    penrose_check,
    stationary_direct,
    symmetric_part_extremes,
)
from dpinv.sparse import build_transition


class TestStationaryDirect:
    def test_selfloop2(self, selfloop2_p):
        np.testing.assert_allclose(stationary_direct(selfloop2_p),
                                   [2 / 3, 1 / 3], atol=1e-14)

    def test_cycle3(self, cycle3_p):
        np.testing.assert_allclose(stationary_direct(cycle3_p),
                                   np.full(3, 1 / 3), atol=1e-14)

    def test_two_state_closed_form(self):
        # p01 = a, p10 = b  ->  pi = (b, a) / (a + b)
        a, b = 0.3, 0.7
        p = np.array([[1 - a, a], [b, 1 - b]])
        np.testing.assert_allclose(stationary_direct(p),
                                   [b / (a + b), a / (a + b)], atol=1e-14)

    def test_random_graph_fixed_point(self):
        p, _ = build_transition(random_graph(40, extra=10, seed=50))
        pi = stationary_direct(p)
        pd = p.to_dense()
        np.testing.assert_allclose(pd.T @ pi, pi, atol=1e-13)
        assert abs(pi.sum() - 1.0) < 1e-13
        assert pi.min() > 0


class TestPenroseCheck:
    def test_true_pinv_passes(self):
        rng = np.random.default_rng(51)
        a = rng.normal(size=(8, 5))
        rep = penrose_check(a, np.linalg.pinv(a))
        assert rep.ok(1e-12)

    def test_wrong_matrix_fails(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(6, 6))
        rep = penrose_check(a, np.linalg.inv(a) + 0.01)
        assert not rep.ok(1e-6)
        assert rep.max_residual > 1e-4

    def test_transpose_is_not_pinv_of_rank_deficient(self):
        a = np.ones((4, 4))
        rep = penrose_check(a, a.T)
        assert not rep.ok(1e-6)
        # but the correctly scaled version is: pinv of all-ones is a / 16
        rep2 = penrose_check(a, a / 16.0)
        assert rep2.ok(1e-12)


class TestHittingTimesDirect:
    def test_cycle3(self, cycle3_p):
        np.testing.assert_allclose(hitting_times_direct(cycle3_p, 0),
                                   [0.0, 2.0, 1.0], atol=1e-13)

    def test_selfloop2(self, selfloop2_p):
        np.testing.assert_allclose(hitting_times_direct(selfloop2_p, 1),
                                   [2.0, 0.0], atol=1e-13)

    def test_first_step_recurrence(self):
        # h(i,k) = 1 + sum_j p_ij h(j,k) for i != k
        p, _ = build_transition(random_graph(30, extra=15, seed=53))
        pd = p.to_dense()
        k = 12
        h = hitting_times_direct(p, k)
        for i in range(30):
            if i == k:
                continue
            hk = h.copy()
            hk[k] = 0.0
            assert abs(h[i] - 1.0 - pd[i] @ hk) < 1e-10


class TestMonteCarlo:
    def test_matches_exact_on_selfloop2(self, selfloop2_p):
        res = monte_carlo_walk(selfloop2_p, 0, 1, trials=40_000, seed=0)
        # h(0,1) = 2, commute = 3; allow 4 standard errors
        assert abs(res.h_est - 2.0) <= 4 * res.h_se
        assert abs(res.c_est - 3.0) <= 4 * res.c_se
        assert res.h_se < 0.02
        # visits to node 0 before reaching 1 is geometric: mean 2
        assert abs(res.visits_est[0] - 2.0) <= 4 * res.visits_se[0]
        assert res.visits_est[1] == 0.0

    def test_matches_exact_on_cycle3(self, cycle3_p):
        res = monte_carlo_walk(cycle3_p, 0, 2, trials=5_000, seed=1)
        # deterministic walk: no variance at all
        assert res.h_est == 2.0 and res.h_se == 0.0
        assert res.c_est == 3.0 and res.c_se == 0.0
        np.testing.assert_array_equal(res.visits_est, [1.0, 1.0, 0.0])

    def test_seed_reproducible(self, selfloop2_p):
        a = monte_carlo_walk(selfloop2_p, 0, 1, trials=5_000, seed=9)
        b = monte_carlo_walk(selfloop2_p, 0, 1, trials=5_000, seed=9)
        assert a.h_est == b.h_est and a.c_est == b.c_est

    def test_batching_does_not_change_totals(self, selfloop2_p):
        a = monte_carlo_walk(selfloop2_p, 0, 1, trials=6_000, seed=4, batch=1_000)
        b = monte_carlo_walk(selfloop2_p, 0, 1, trials=6_000, seed=4, batch=6_000)
        # same generator stream in a different batch split: estimates stay
        # within a few joint standard errors of each other
        assert abs(a.h_est - b.h_est) <= 4 * (a.h_se + b.h_se)

    def test_validation(self, selfloop2_p):
        with pytest.raises(ValueError, match="distinct"):
            monte_carlo_walk(selfloop2_p, 1, 1)
        with pytest.raises(ValueError, match="1000"):
            monte_carlo_walk(selfloop2_p, 0, 1, trials=10)


class TestMcWalk:
    """The walk kernel behind monte_carlo_walk, driven directly."""

    def cycle3_cum(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        return np.cumsum(p, axis=1)

    def test_deterministic_chain_exact_moments(self):
        # on the directed 3-cycle every 0 -> 1 walk is 1 step, return is 2
        cum = self.cycle3_cum()
        trials = 50
        randoms = np.random.default_rng(0).random(3 * trials)
        h_m = np.zeros(2)
        c_m = np.zeros(2)
        vs = np.zeros(3)
        vq = np.zeros(3)
        res = mc_walk(cum, 0, 1, trials, randoms, h_m, c_m, vs, vq)
        assert res == 3 * trials  # one random per step, three steps per trial
        assert np.array_equal(h_m, [trials, trials])
        assert np.array_equal(c_m, [3.0 * trials, 9.0 * trials])
        assert np.array_equal(vs, [trials, 0.0, 0.0])
        assert np.array_equal(vq, [trials, 0.0, 0.0])

    def test_budget_exhaustion_returns_sentinel(self):
        cum = self.cycle3_cum()
        out = mc_walk(cum, 0, 1, 1, np.random.default_rng(1).random(2),
                      np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(3))
        assert out == -1

    def test_estimates_match_exact_values(self):
        # two states: 0 -> {0, 1} each 1/2, 1 -> 0; h(0,1) = 2, c(0,1) = 3
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        cum = np.cumsum(p, axis=1)
        trials = 20_000
        randoms = np.random.default_rng(5).random(trials * 64)
        h_m = np.zeros(2)
        c_m = np.zeros(2)
        vs = np.zeros(2)
        vq = np.zeros(2)
        res = mc_walk(cum, 0, 1, trials, randoms, h_m, c_m, vs, vq)
        assert res > 0

        def mean_se(total, totalsq):
            mean = total / trials
            var = max(totalsq / trials - mean * mean, 0.0)
            return mean, np.sqrt(var / trials)

        h_est, h_se = mean_se(h_m[0], h_m[1])
        c_est, c_se = mean_se(c_m[0], c_m[1])
        v_est, v_se = mean_se(vs[0], vq[0])
        assert abs(h_est - 2.0) <= 4.0 * h_se
        assert abs(c_est - 3.0) <= 4.0 * c_se
        assert abs(v_est - 2.0) <= 4.0 * v_se
        assert vs[1] == 0.0  # the target is never occupied before absorption


class TestSymmetricPartExtremes:
    def test_matches_closed_form_on_random(self):
        # A = Q B Qᵀ with B block diagonal: 2x2 blocks [[a, b], [-b, a]] and
        # one 1x1 block d when n is odd. The symmetric part of each 2x2 block
        # is a I and each block is a scaled rotation, so λ_min((A+Aᵀ)/2) is
        # min(a..., d) and ‖A‖₂ is max(√(a²+b²)..., |d|).
        rng = np.random.default_rng(54)
        for n in (5, 20, 60):
            k = n // 2
            a_diag = rng.normal(size=k)
            b_off = rng.normal(size=k)
            bmat = np.zeros((n, n))
            for i in range(k):
                bmat[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[a_diag[i], b_off[i]],
                                                          [-b_off[i], a_diag[i]]]
            lam_ref = a_diag.min()
            norm_ref = np.hypot(a_diag, b_off).max()
            if n % 2:
                d = rng.normal()
                bmat[-1, -1] = d
                lam_ref = min(lam_ref, d)
                norm_ref = max(norm_ref, abs(d))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lam_min, norm2 = symmetric_part_extremes(q @ bmat @ q.T)
            assert abs(lam_min - lam_ref) < 1e-12 * max(1.0, abs(lam_ref))
            assert abs(norm2 - norm_ref) < 1e-12 * norm_ref

    def test_diagonal_matrix(self):
        a = np.diag([3.0, -1.0, 2.0])
        lam_min, norm2 = symmetric_part_extremes(a)
        assert abs(lam_min + 1.0) < 1e-12
        assert abs(norm2 - 3.0) < 1e-7

    def test_shifted_laplacian_definite(self):
        # the solver relies on this oracle to certify positive definiteness
        # of shifted Eulerian Laplacians; spot-check the sign on a real case
        from dpinv.laplacian import eulerian_system
        from dpinv.stationary import SubspaceConfig, stationary_distribution
        p, _ = build_transition(random_graph(25, extra=10, seed=55))
        pi = stationary_distribution(p, SubspaceConfig(tol=1e-12)).pi
        sysk = eulerian_system(p, pi, "d")
        c = sysk.l.to_dense() + np.outer(sysk.u, sysk.u)
        lam_min, _ = symmetric_part_extremes(c)
        assert lam_min > 0


class TestDensePinvReference:
    def test_matches_numpy_pinv_symmetric_null(self):
        rng = np.random.default_rng(56)
        n = 10
        u = rng.uniform(0.5, 1.5, size=n)
        u /= np.linalg.norm(u)
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
        # build a nullity-1 matrix with identical left/right null vector u
        proj = np.eye(n) - np.outer(u, u)
        a = proj @ rng.normal(size=(n, n)) @ proj
        b = dense_pinv_reference(a, u)
        np.testing.assert_allclose(b, np.linalg.pinv(a), atol=1e-9)

    def test_matches_numpy_pinv_distinct_nulls(self):
        p, d = build_transition(random_graph(12, extra=6, seed=57))
        from dpinv.laplacian import build_laplacian
        la = build_laplacian(p, "a", d=d).to_dense()
        pi = stationary_direct(p)
        v = pi / d
        v /= v.sum()
        b = dense_pinv_reference(la, np.ones(12), v)
        np.testing.assert_allclose(b, np.linalg.pinv(la), atol=1e-8)

    def test_self_check_rejects_wrong_null_vector(self):
        p, d = build_transition(random_graph(12, extra=6, seed=58))
        from dpinv.laplacian import build_laplacian
        la = build_laplacian(p, "a", d=d).to_dense()
        # ones is the right null vector but *not* the left one here
        with pytest.raises(NumericalError, match="failed its own check"):
            dense_pinv_reference(la, np.ones(12), np.ones(12) / 12.0)
