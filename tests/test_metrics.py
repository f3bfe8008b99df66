"""Tests for the random-walk metrics layer."""

import tracemalloc

import numpy as np
import pytest

from dpinv.errors import MissingColumnsError
from dpinv.graphgen import random_graph
from dpinv.krylov import GmresConfig
from dpinv.laplacian import eulerian_system, pinv_columns
from dpinv.metrics import (
    PinvBlock,
    augment_evaporating,
    commute_time,
    hitting_time,
    influence_scores,
    kemeny_constant,
    pass_probability,
    trust_score,
    visits,
    visits_matrix,
)
from dpinv.oracle import hitting_times_direct, stationary_direct
from dpinv.sparse import Digraph, build_transition
from dpinv.stationary import SubspaceConfig, stationary_distribution

TIGHT = GmresConfig(restart=50, tol=1e-12)


def blocks_for(p, seed=0):
    """Both metric-ready pseudo-inverse blocks of a chain, solved tightly."""
    pi = stationary_distribution(p, SubspaceConfig(tol=1e-12, seed=seed)).pi
    out = {}
    for kind in ("r", "d"):
        sysk = eulerian_system(p, pi, kind)
        m, _ = pinv_columns(sysk, range(p.n_rows), cfg=TIGHT)
        out[kind] = PinvBlock.from_full(kind, pi, m)
    return out["r"], out["d"], pi


def fundamental_matrix(p, k):
    """Expected-visits oracle: inv(I - P) with row and column k removed."""
    pd = p.to_dense()
    keep = [i for i in range(p.n_rows) if i != k]
    return np.linalg.inv(np.eye(len(keep)) - pd[np.ix_(keep, keep)]), keep


class TestPinvBlock:
    def test_missing_column_raises(self):
        block = PinvBlock("d", np.array([0.5, 0.5]), {0: np.zeros(2)})
        block.entry(1, 0)
        with pytest.raises(MissingColumnsError, match="column 1"):
            block.entry(0, 1)
        with pytest.raises(MissingColumnsError, match="full matrix"):
            block.full_matrix()

    def test_from_full_roundtrip(self):
        m = np.arange(9.0).reshape(3, 3)
        block = PinvBlock.from_full("r", np.full(3, 1 / 3), m)
        np.testing.assert_array_equal(block.full_matrix(), m)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            PinvBlock("a", np.array([1.0]))


class TestExactSmallCases:
    def test_cycle3_metrics(self, cycle3_p):
        br, bd, pi = blocks_for(cycle3_p)
        np.testing.assert_allclose(pi, np.full(3, 1 / 3), atol=1e-12)
        for block in (br, bd):
            assert abs(hitting_time(block, 0, 1) - 1.0) < 1e-9
            assert abs(hitting_time(block, 0, 2) - 2.0) < 1e-9
            assert hitting_time(block, 0, 0) == 0.0
            assert abs(commute_time(block, 0, 1) - 3.0) < 1e-9
            assert abs(visits(block, 0, 1, 2) - 1.0) < 1e-9
            assert abs(pass_probability(block, 0, 1, 2) - 1.0) < 1e-9
            assert abs(pass_probability(block, 1, 0, 2) - 0.0) < 1e-9
            assert abs(kemeny_constant(block) - 1.0) < 1e-9

    def test_selfloop2_metrics(self, selfloop2_p):
        br, bd, pi = blocks_for(selfloop2_p)
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-12)
        for block in (br, bd):
            # leaving node 0 takes a geometric number of half-chance steps
            assert abs(hitting_time(block, 0, 1) - 2.0) < 1e-9
            assert abs(hitting_time(block, 1, 0) - 1.0) < 1e-9
            assert abs(commute_time(block, 0, 1) - 3.0) < 1e-9
            assert abs(visits(block, 0, 0, 1) - 2.0) < 1e-9
            assert abs(kemeny_constant(block) - 2.0 / 3.0) < 1e-9

    def test_pass_probability_guards(self, cycle3_p):
        _, bd, _ = blocks_for(cycle3_p)
        with pytest.raises(ValueError, match="undefined"):
            pass_probability(bd, 0, 2, 2)


@pytest.fixture(scope="module")
def case():
    g = random_graph(20, extra=10, seed=40)
    p, _ = build_transition(g)
    br, bd, pi = blocks_for(p, seed=40)
    return p, br, bd, pi


class TestIdentities:
    def test_hitting_forms_agree(self, case):
        p, br, bd, _ = case
        for i, k in [(0, 5), (3, 19), (17, 2), (9, 9)]:
            assert abs(hitting_time(br, i, k) - hitting_time(bd, i, k)) < 1e-8

    def test_hitting_matches_oracle(self, case):
        p, br, bd, _ = case
        for k in (0, 7):
            ref = hitting_times_direct(p, k)
            for i in range(p.n_rows):
                assert abs(hitting_time(bd, i, k) - ref[i]) < 1e-8

    def test_kind_r_reads_no_full_matrix(self, case, monkeypatch):
        # w = M π for kind r is read entry by entry: many hitting times and
        # the Kemeny constant build no n x n copy of the block, and give the
        # values of the full-matrix formula
        p, br, _, pi = case
        m = br.full_matrix()
        w = m @ pi
        calls = []
        real = PinvBlock.full_matrix

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(PinvBlock, "full_matrix", counting)
        for i in range(p.n_rows):
            for k in range(p.n_rows):
                want = 0.0 if i == k else m[k, k] - m[i, k] + w[i] - w[k]
                assert abs(hitting_time(br, i, k) - want) < 1e-12
        assert abs(kemeny_constant(br) - (pi @ m.diagonal() - pi @ w)) < 1e-12
        assert calls == []
        partial = PinvBlock("r", pi, {j: m[:, j] for j in range(p.n_rows - 1)})
        with pytest.raises(MissingColumnsError, match="full matrix"):
            hitting_time(partial, 0, 1)

    def test_commute_is_symmetric_sum(self, case):
        p, br, bd, _ = case
        for block in (br, bd):
            for i, k in [(1, 4), (6, 12)]:
                expect = hitting_time(block, i, k) + hitting_time(block, k, i)
                assert abs(commute_time(block, i, k) - expect) < 1e-8
                assert abs(commute_time(block, k, i) - expect) < 1e-8

    def test_visits_forms_agree(self, case):
        p, br, bd, _ = case
        for i, j, k in [(0, 3, 9), (5, 5, 2), (14, 8, 0)]:
            assert abs(visits(br, i, j, k) - visits(bd, i, j, k)) < 1e-8

    def test_visits_match_fundamental_matrix(self, case):
        p, br, bd, _ = case
        k = 11
        nmat, keep = fundamental_matrix(p, k)
        for block in (br, bd):
            for a, i in enumerate(keep[:6]):
                for b, j in enumerate(keep[:6]):
                    assert abs(visits(block, i, j, k) - nmat[a, b]) < 1e-8

    def test_visits_row_sums_are_hitting_times(self, case):
        # every step of the walk occupies exactly one non-absorbed node
        p, br, bd, _ = case
        k = 4
        v = visits_matrix(bd, k)
        cols = [j for j in range(p.n_rows) if j != k]
        for i in (0, 8, 15):
            assert abs(v[i, cols].sum() - hitting_time(bd, i, k)) < 1e-7

    def test_self_visits_at_least_one(self, case):
        p, _, bd, _ = case
        for j in range(p.n_rows - 1):
            assert visits(bd, j, j, p.n_rows - 1) >= 1.0 - 1e-9

    def test_pass_probability_bounds_and_diagonal(self, case):
        p, _, bd, _ = case
        k = 19
        for i in (0, 3, 7):
            for j in (1, 5, 11):
                q = pass_probability(bd, i, j, k)
                assert 0.0 <= q <= 1.0
        assert pass_probability(bd, 6, 6, k) == 1.0

    def test_kemeny_start_invariance(self, case):
        p, br, bd, pi = case
        kc = kemeny_constant(bd)
        assert abs(kemeny_constant(br) - kc) < 1e-8
        for i in (0, 9, 18):
            total = sum(pi[k] * hitting_time(bd, i, k) for k in range(p.n_rows))
            assert abs(total - kc) < 1e-8


class TestVisitsMatrix:
    def test_matches_entrywise(self, cycle3_p, case):
        br, bd, _ = blocks_for(cycle3_p)
        for block in (br, bd):
            v = visits_matrix(block, 2)
            for i in range(3):
                for j in range(3):
                    assert abs(v[i, j] - visits(block, i, j, 2)) < 1e-12
        _, br20, bd20, _ = case
        for block in (br20, bd20):
            v = visits_matrix(block, 7)
            for i in range(20):
                for j in range(20):
                    assert abs(v[i, j] - visits(block, i, j, 7)) < 1e-12

    def test_block_columns_untouched(self, case):
        # the columns are views of one solved array, as the CLI builds them
        _, br, bd, pi = case
        for block in (br, bd):
            solved = block.full_matrix()
            before = solved.copy()
            views = PinvBlock(block.kind, pi,
                              {j: solved[:, j] for j in range(block.n)})
            visits_matrix(views, 5)
            influence_scores(views, 19)
            np.testing.assert_array_equal(solved, before)

    def test_influence_peak_memory(self):
        # one n x n block for V, plus n^2 bytes for the clamp mask
        g = augment_evaporating(random_graph(299, extra=150, seed=43), gamma=0.15)
        p, _ = build_transition(g)
        pi = stationary_direct(p)
        m = np.linalg.pinv(eulerian_system(p, pi, "d").l.to_dense())
        block = PinvBlock("d", pi, {j: m[:, j] for j in range(g.n)})
        tracemalloc.start()
        try:
            influence_scores(block, g.evaporating_node)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * g.n ** 2

    def test_large_negative_warns(self, cycle3_p):
        br, _, pi = blocks_for(cycle3_p)
        m = br.full_matrix()
        m[1, 0] -= 1e-5  # pushes the exact zero visits(1,0,2) negative
        bad = PinvBlock.from_full("r", pi, m)
        with pytest.warns(UserWarning, match="clamped"):
            v = visits_matrix(bad, 2)
        assert v[1, 0] == 0.0
        with pytest.warns(UserWarning, match="clamped"):
            assert visits(bad, 1, 0, 2) == 0.0

    def test_tiny_negative_clamped_silently(self, cycle3_p, recwarn):
        br, _, pi = blocks_for(cycle3_p)
        m = br.full_matrix()
        m[1, 0] -= 1e-13
        bad = PinvBlock.from_full("r", pi, m)
        assert visits(bad, 1, 0, 2) == 0.0
        assert not [w for w in recwarn if "clamped" in str(w.message)]


class TestAugmentEvaporating:
    def test_structure_with_dangling_node(self):
        g = Digraph(2, np.array([0]), np.array([1]), np.array([2.0]))
        aug = augment_evaporating(g, gamma=0.25)
        assert aug.n == 3
        assert aug.evaporating_node == 2
        a = aug.adjacency().to_dense()
        # node 0 keeps 75% of its weight and leaks 25% to the new node
        np.testing.assert_allclose(a[0], [0.0, 1.5, 0.5])
        # dangling node 1 sends everything to the new node
        np.testing.assert_allclose(a[1], [0.0, 0.0, 1.0])
        # the new node restarts uniformly over the original nodes
        np.testing.assert_allclose(a[2], [1.0, 1.0, 0.0])

    def test_custom_restart(self):
        g = Digraph(3, np.array([0, 1, 2]), np.array([1, 2, 0]), np.ones(3))
        aug = augment_evaporating(g, gamma=0.5, restart=np.array([0.0, 2.0, 1.0]))
        a = aug.adjacency().to_dense()
        np.testing.assert_allclose(a[3], [0.0, 2.0, 1.0, 0.0])

    def test_augmented_chain_is_stochastic_and_connected(self):
        g = random_graph(10, seed=41)
        aug = augment_evaporating(g, gamma=0.1)
        p, _ = build_transition(aug)
        from dpinv.sparse import is_strongly_connected
        assert is_strongly_connected(aug)
        np.testing.assert_allclose(p.to_dense().sum(axis=1), 1.0, atol=1e-14)

    def test_gamma_and_restart_validation(self):
        g = Digraph(2, np.array([0, 1]), np.array([1, 0]), np.ones(2))
        with pytest.raises(ValueError, match="gamma"):
            augment_evaporating(g, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            augment_evaporating(g, gamma=1.0)
        with pytest.raises(ValueError, match="restart"):
            augment_evaporating(g, gamma=0.5, restart=np.zeros(2))
        with pytest.raises(ValueError, match="restart"):
            augment_evaporating(g, gamma=0.5, restart=np.array([1.0, -1.0]))


def absorption_probability(p, i, j, k):
    """Oracle: chance a walk from i reaches j before k, by linear solve."""
    pd = p.to_dense()
    n = pd.shape[0]
    q = np.zeros(n)
    free = [m for m in range(n) if m not in (j, k)]
    a = np.eye(len(free)) - pd[np.ix_(free, free)]
    rhs = pd[free, j]
    sol = np.linalg.solve(a, rhs)
    q[free] = sol
    q[j] = 1.0
    return q[i]


@pytest.fixture(scope="module")
def augmented():
    g = random_graph(8, extra=4, seed=42)
    aug = augment_evaporating(g, gamma=0.2)
    p, _ = build_transition(aug)
    _, bd, _ = blocks_for(p, seed=42)
    return p, bd, aug.evaporating_node


class TestEvaporatingMetrics:
    def test_trust_matches_absorption_oracle(self, augmented):
        p, bd, evap = augmented
        for i, j in [(0, 3), (2, 7), (5, 1)]:
            ref = absorption_probability(p, i, j, evap)
            assert abs(trust_score(bd, i, j, evap) - ref) < 1e-8

    def test_trust_guards(self, augmented):
        _, bd, evap = augmented
        with pytest.raises(ValueError, match="original nodes"):
            trust_score(bd, evap, 0, evap)
        with pytest.raises(ValueError, match="original nodes"):
            trust_score(bd, 0, evap, evap)

    def test_influence_sums_pass_probabilities(self, augmented):
        p, bd, evap = augmented
        scores = influence_scores(bd, evap)
        n_orig = bd.n - 1
        assert scores.shape == (n_orig,)
        for j in range(n_orig):
            expect = sum(pass_probability(bd, i, j, evap) for i in range(n_orig))
            assert abs(scores[j] - expect) < 1e-8
        # the walk starting at j always reaches j, so influence is at least 1
        assert scores.min() >= 1.0 - 1e-9
        assert scores.max() <= n_orig + 1e-9
