"""Tests for the stationary distribution: shifted GMRES by default, blocked
subspace iteration at an explicit width."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpinv.stationary
from dpinv.cli import main
from dpinv.errors import NumericalError
from dpinv.graphgen import random_graph
from dpinv.io import read_vector, write_edge_list
from dpinv.oracle import stationary_direct
from dpinv.sparse import Digraph, SparseMatrix, build_transition
from dpinv.stationary import (SubspaceConfig, _ritz_vector, stationary_distribution,
                              stationary_residual)

from conftest import directed_cycle, lazy_cycle, weak_bridge_graph


def star_chain(n):
    """Hub 0 and n - 1 leaves, arcs both ways: P has rank 2, period 2."""
    leaves = np.arange(1, n)
    hub = np.zeros(n - 1, dtype=np.int64)
    g = Digraph(n, np.concatenate([hub, leaves]), np.concatenate([leaves, hub]),
                np.ones(2 * (n - 1)))
    return build_transition(g)[0]


def layered_chain(layers, width):
    """Complete bipartite arcs from each layer to the next, cyclically: P
    has rank ``layers`` and period ``layers``; π is uniform."""
    a, b = np.meshgrid(np.arange(width), np.arange(width), indexing="ij")
    src = np.concatenate([(l * width + a).ravel() for l in range(layers)])
    dst = np.concatenate([(((l + 1) % layers) * width + b).ravel()
                          for l in range(layers)])
    g = Digraph(layers * width, src, dst, np.ones(src.size))
    return build_transition(g)[0]


def hamiltonian_chain(n, extra, seed):
    """A random Hamiltonian cycle plus ``extra`` random arcs (self-loops and
    duplicates included), weights 10^U(-3, 3): strongly connected, often
    nearly reducible, and often with a rank-deficient P."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    src = np.concatenate([order, rng.integers(0, n, extra)])
    dst = np.concatenate([np.roll(order, -1), rng.integers(0, n, extra)])
    weight = 10.0 ** rng.uniform(-3.0, 3.0, src.size)
    return build_transition(Digraph(n, src, dst, weight))[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubspaceConfig(ell=1)
        with pytest.raises(ValueError):
            SubspaceConfig(tol=0.0)
        with pytest.raises(ValueError):
            SubspaceConfig(max_iterations=0)


class TestExactCases:
    def test_cycle3_uniform(self, cycle3_p):
        res = stationary_distribution(cycle3_p, SubspaceConfig(ell=4, tol=1e-12))
        np.testing.assert_allclose(res.pi, np.full(3, 1.0 / 3.0), atol=1e-12)
        assert res.residual <= 1e-12
        assert abs(res.pi.sum() - 1.0) < 1e-14

    def test_selfloop2_two_thirds(self, selfloop2_p):
        res = stationary_distribution(selfloop2_p, SubspaceConfig(ell=2, tol=1e-12))
        np.testing.assert_allclose(res.pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_selfloop2_uniform_candidate_residual(self, selfloop2_p):
        # P^T [1/2, 1/2] - [1/2, 1/2] = [1/4, -1/4], norm = 1/(2 sqrt 2)
        r = stationary_residual(selfloop2_p, np.array([0.5, 0.5]))
        assert abs(r - 1.0 / (2.0 * np.sqrt(2.0))) < 1e-14

    def test_single_state(self):
        p = SparseMatrix.identity(1)
        res = stationary_distribution(p)
        assert res.pi[0] == 1.0 and res.mv_count == 0


class TestValidation:
    def test_rejects_nonstochastic(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 0], [0.5, 0.6, 1.0])
        with pytest.raises(ValueError, match="sums to"):
            stationary_distribution(m)

    def test_rejects_negative(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 0], [1.5, -0.5, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            stationary_distribution(m)

    def test_rejects_nonsquare(self):
        m = SparseMatrix.from_coo(2, 3, [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="square"):
            stationary_distribution(m)


class TestAccounting:
    def test_mv_count_is_iterations_times_block(self):
        # each round applies P^T to ell block columns plus one residual check
        for seed in (0, 1, 2):
            g = random_graph(40, seed=seed)
            p, _ = build_transition(g)
            cfg = SubspaceConfig(ell=6, tol=1e-10, seed=seed)
            res = stationary_distribution(p, cfg)
            assert res.mv_count == res.iterations * (6 + 1)

    def test_history_length_matches_iterations(self):
        g = random_graph(30, seed=5)
        p, _ = build_transition(g)
        res = stationary_distribution(p, SubspaceConfig(ell=5, tol=1e-10))
        assert len(res.residual_history) == res.iterations
        assert res.residual_history[-1] == res.residual


class TestAgainstOracle:
    @pytest.mark.parametrize("n,seed", [(10, 0), (25, 1), (60, 2), (120, 3)])
    def test_matches_dense_solve(self, n, seed):
        g = random_graph(n, extra=n // 2, seed=seed)
        p, _ = build_transition(g)
        res = stationary_distribution(p, SubspaceConfig(tol=1e-11, seed=seed))
        ref = stationary_direct(p)
        assert np.max(np.abs(res.pi - ref)) < 1e-9
        assert res.pi.min() > 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_dense_solve_on_random_chains(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30), label="n")
        extra = data.draw(st.integers(min_value=0, max_value=3 * n), label="extra")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
        p = hamiltonian_chain(n, extra, seed)
        res = stationary_distribution(p, SubspaceConfig(tol=1e-11))
        assert np.max(np.abs(res.pi - stationary_direct(p))) <= 1e-8

    def test_seed_invariance_within_tolerance(self):
        g = random_graph(50, extra=20, seed=9)
        p, _ = build_transition(g)
        tol = 1e-10
        results = [
            stationary_distribution(p, SubspaceConfig(ell=8, tol=tol, seed=s)).pi
            for s in (0, 1, 2)
        ]
        for other in results[1:]:
            assert np.max(np.abs(results[0] - other)) < 10 * tol


class TestPeriodicChains:
    def test_block_width_at_period_fails(self, cycle3_p):
        # a 3-cycle has period 3; a width-2 block cannot isolate the
        # stationary direction and the iteration must report failure
        cfg = SubspaceConfig(ell=2, tol=1e-9, max_iterations=300, seed=0)
        with pytest.raises(NumericalError, match="did not converge in 300 rounds"):
            stationary_distribution(cycle3_p, cfg)

    def test_block_width_above_period_succeeds(self, cycle3_p):
        cfg = SubspaceConfig(ell=4, tol=1e-9, max_iterations=300, seed=0)
        res = stationary_distribution(cycle3_p, cfg)
        np.testing.assert_allclose(res.pi, np.full(3, 1.0 / 3.0), atol=1e-12)
        # ell clamps to n=3, making the projected step exact in one round
        assert res.iterations == 1
        assert res.mv_count == 4

    def test_convergence_rate_lazy_cycle(self):
        # lazy cycle on 24 states: eigenvalues (1 + e^{2 pi i k/24})/2 with
        # magnitude cos(pi k / 24), each k >= 1 appearing twice. Ranked by
        # magnitude the 6th is cos(3 pi / 24), so a width-5 block must shrink
        # the residual per round at least as fast as 0.8 * log|lambda_6|
        n, ell = 24, 5
        p = lazy_cycle(n)
        res = stationary_distribution(p, SubspaceConfig(ell=ell, tol=1e-10, seed=0))
        hist = res.residual_history
        assert len(hist) > 10
        slope = np.polyfit(np.arange(len(hist) - 2), np.log(hist[2:]), 1)[0]
        lam = np.cos(3.0 * np.pi / n)
        assert slope <= 0.8 * np.log(lam)

    def test_directed_cycle_large_block(self):
        p = directed_cycle(8)
        res = stationary_distribution(p, SubspaceConfig(ell=10, tol=1e-12, seed=0))
        np.testing.assert_allclose(res.pi, np.full(8, 0.125), atol=1e-12)


class TestAdaptiveWidth:
    """The chains that pinned the adaptive block width of the former
    subspace default, kept under their names on what replaced it: the
    default shifted GMRES path, which needs no width, and explicit widths."""

    @pytest.mark.parametrize("n", [5, 8, 29])
    def test_directed_cycle_widens_past_period(self, n):
        # a pure rotation of any period: c 1 solves the shifted system, so
        # one Arnoldi step is exact (2 setup + 2 step + 2 re-check + 1 check)
        res = stationary_distribution(directed_cycle(n))
        np.testing.assert_allclose(res.pi, np.full(n, 1.0 / n), atol=1e-12)
        assert res.mv_count == 7

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_width_stays_at_two_on_random_graphs(self, seed):
        # a width-2 block converges on aperiodic random graphs at 3
        # products per round
        p, _ = build_transition(random_graph(200, seed=seed))
        res = stationary_distribution(p, SubspaceConfig(ell=2, seed=seed))
        assert res.width == 2
        assert res.mv_count == 3 * res.iterations

    def test_mv_count_matches_products_while_growing(self, monkeypatch):
        # the count is of operand columns, not calls: polynomial setup,
        # GMRES steps and re-checks, and the final residual check, over
        # every re-solve of a rejected candidate
        seen = 0
        real = dpinv.stationary.matvec_transpose

        def counting(m, x, counter=None):
            nonlocal seen
            seen += 1 if np.ndim(x) == 1 else np.shape(x)[1]
            return real(m, x, counter)

        monkeypatch.setattr(dpinv.stationary, "matvec_transpose", counting)
        res = stationary_distribution(hamiltonian_chain(29, 22, 2024295644),
                                      SubspaceConfig(tol=1e-11))
        assert res.iterations > 1
        assert seen == res.mv_count


class TestShiftedGmres:
    @pytest.mark.parametrize("n", [40, 200])
    def test_default_solves_cycles_past_thirty(self, n):
        res = stationary_distribution(directed_cycle(n))
        np.testing.assert_allclose(res.pi, np.full(n, 1.0 / n), atol=1e-15)
        assert res.mv_count == 7

    def test_explicit_width_below_period_fails(self):
        cfg = SubspaceConfig(ell=30, max_iterations=60)
        with pytest.raises(NumericalError,
                           match="the block width 30 may not exceed the chain's period"):
            stationary_distribution(directed_cycle(40), cfg)

    def test_negative_candidate_is_solved_again(self):
        # the first candidate's entry 22 comes out -3.5e-14 against a true
        # 1.6e-17; corrections at tighter tolerances give it the right sign,
        # never a clamp
        p = hamiltonian_chain(29, 22, 2024295644)
        res = stationary_distribution(p, SubspaceConfig(tol=1e-11))
        ref = stationary_direct(p)
        assert res.pi.min() > 0
        assert res.residual <= 1e-11
        assert np.max(np.abs(res.pi - ref)) <= 1e-12
        # re-solving x from zero at each tighter tolerance took 36 + 40 + 44
        # products and 3 residual checks; a correction starts from a
        # residual that is already small
        assert res.mv_count < 123

    def test_unreachable_sign_names_the_entry(self):
        # a birth-death chain drifting 100:1 towards state 0: about 20 of its
        # entries lie below rounding, so no tolerance makes them all positive
        n = 30
        i = np.arange(n - 1)
        g = Digraph(n, np.concatenate([i, i + 1]), np.concatenate([i + 1, i]),
                    np.concatenate([np.full(n - 1, 1e-2), np.ones(n - 1)]))
        with pytest.raises(NumericalError,
                           match=r"entry \d+ of the candidate π is -.*reachable floor"):
            stationary_distribution(build_transition(g)[0])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_weak_bridge_chains(self, seed, tmp_path):
        # two clusters joined by bridges a thousand times weaker than their
        # 4-decade weights: GMRES takes up to tens of restart cycles here,
        # and must finish
        g = weak_bridge_graph(seed)
        graph, out = tmp_path / "g.tsv", tmp_path / "pi.txt"
        write_edge_list(g, graph)
        assert main(["stationary", str(graph), "--tol", "1e-12", "--out", str(out)]) == 0
        pi = read_vector(out)
        assert pi.min() > 0
        assert stationary_residual(build_transition(g)[0], pi) <= 1e-12


class TestStagnationFallback:
    """Two-cluster chains on which restarted GMRES(30) stagnates at tol 1e-11:
    seeds 13 and 6 sit flat at 5.8e-7 and 1.5e-8, and subspace iteration
    finishes them. Seed 10 is slow but keeps cutting its residual by 0.2-0.7%
    per cycle, which the stop leaves alone. Cycles are capped at 300, so a
    solve that neither stops nor converges ends in about a second."""

    @pytest.mark.parametrize("seed", [13, 6])
    def test_stalled_chain_falls_back_to_subspace(self, seed, monkeypatch):
        # the count covers both solvers' products
        seen = 0
        real = dpinv.stationary.matvec_transpose

        def counting(m, x, counter=None):
            nonlocal seen
            seen += 1 if np.ndim(x) == 1 else np.shape(x)[1]
            return real(m, x, counter)

        monkeypatch.setattr(dpinv.stationary, "matvec_transpose", counting)
        p = build_transition(weak_bridge_graph(seed))[0]
        res = stationary_distribution(p, SubspaceConfig(tol=1e-11, max_iterations=300))
        assert seen == res.mv_count
        assert res.path == "gmres+subspace" and res.width == 30
        assert res.pi.min() > 0
        assert stationary_residual(p, res.pi) <= 1e-11
        assert res.iterations < 300

    def test_slow_progress_is_not_a_stall(self):
        p = build_transition(weak_bridge_graph(10))[0]
        with pytest.raises(NumericalError, match="no convergence in 300 restart cycles"):
            stationary_distribution(p, SubspaceConfig(tol=1e-11, max_iterations=300))

    def test_cli_reports_the_path(self, tmp_path, capsys):
        g = weak_bridge_graph(13)
        graph, out = tmp_path / "g.tsv", tmp_path / "pi.txt"
        write_edge_list(g, graph)
        assert main(["stationary", str(graph), "--tol", "1e-11", "--max-iter", "300",
                     "--report", "--out", str(out)]) == 0
        assert "path=gmres+subspace" in capsys.readouterr().err
        pi = read_vector(out)
        assert pi.min() > 0
        assert stationary_residual(build_transition(g)[0], pi) <= 1e-11


class TestRitzVector:
    def test_mixed_spectrum(self):
        # real eigenvalues 0.2 and 2.5 and the pair 1 +/- 0.05j: the pair
        # lies nearer 1, but only a real eigenvalue may be chosen
        rng = np.random.default_rng(5)
        s = rng.normal(size=(4, 4))
        core = np.zeros((4, 4))
        core[:2, :2] = [[2.0, -1.0025], [1.0, 0.0]]  # x^2 - 2x + 1.0025
        core[2, 2], core[3, 3] = 0.2, 2.5
        b = s @ core @ np.linalg.inv(s)
        y = _ritz_vector(b)
        assert y.dtype == np.float64
        assert abs(np.linalg.norm(y) - 1.0) < 1e-12
        np.testing.assert_allclose(b @ y, 0.2 * y, atol=1e-10)

    def test_no_real_eigenvalue_returns_vector(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +/- i
        y = _ritz_vector(rot)
        assert y.shape == (2,) and y.dtype == np.float64
        assert np.all(np.isfinite(y))


class TestLowRankChains:
    # P maps a wide block into rank(P) directions; QR still returns an
    # orthonormal block whose span holds all of Pᵀq
    @pytest.mark.parametrize("ell", [None, 30])
    def test_star(self, ell):
        n = 50
        res = stationary_distribution(star_chain(n), SubspaceConfig(ell=ell))
        expected = np.full(n, 0.5 / (n - 1))
        expected[0] = 0.5
        np.testing.assert_allclose(res.pi, expected, atol=1e-15)

    @pytest.mark.parametrize("ell", [None, 30])
    def test_period_twenty_layers(self, ell):
        res = stationary_distribution(layered_chain(20, 20),
                                      SubspaceConfig(ell=ell))
        np.testing.assert_allclose(res.pi, np.full(400, 1.0 / 400), atol=1e-15)
        assert res.width == 30
