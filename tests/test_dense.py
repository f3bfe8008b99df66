"""Tests for the small dense factorization helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpinv.dense import hessenberg_lsq, lu_solve, ordered_schur_leading, orthogonalize
from dpinv.errors import NoRealEigenvalueError, NumericalError, RankDeficiencyError


class TestOrthogonalize:
    def test_already_orthonormal_unchanged(self):
        q0, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(7, 4)))
        q = orthogonalize(q0)
        assert np.allclose(q, q0, atol=1e-14)

    def test_single_vector_normalized(self):
        q = orthogonalize(np.array([3.0, 4.0]))
        assert q.shape == (2, 1)
        np.testing.assert_allclose(q[:, 0], [0.6, 0.8], atol=1e-15)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(40, 6))
        q = orthogonalize(v)
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-13)
        # span is preserved: original columns lie in the range of q
        proj = q @ (q.T @ v)
        np.testing.assert_allclose(proj, v, atol=1e-11)

    def test_rank_deficiency_raises(self):
        v = np.ones((5, 2))
        v[:, 1] = 2.0 * v[:, 0]
        with pytest.raises(RankDeficiencyError) as exc:
            orthogonalize(v)
        assert exc.value.column == 1

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize(np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
    def test_orthonormality_random(self, k, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(k + 3, k))
        try:
            q = orthogonalize(v)
        except RankDeficiencyError:
            return  # legitimately near-singular draw
        assert np.max(np.abs(q.T @ q - np.eye(k))) < 1e-12


def companion(coeffs):
    """Companion matrix of x^n + c[0] x^{n-1} + ... + c[n-1]."""
    n = len(coeffs)
    c = np.zeros((n, n))
    c[0, :] = -np.asarray(coeffs, dtype=float)
    c[1:, :-1] = np.eye(n - 1)
    return c


class TestOrderedSchur:
    def test_diagonal_promotes_closest(self):
        b = np.diag([3.0, -1.0, 0.5])
        u, t = ordered_schur_leading(b, target=0.4)
        assert abs(t[0, 0] - 0.5) < 1e-12
        np.testing.assert_allclose(u @ t @ u.T, b, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-13)

    def test_one_by_one(self):
        u, t = ordered_schur_leading(np.array([[2.5]]), target=0.0)
        assert u[0, 0] == 1.0 and t[0, 0] == 2.5

    def test_mixed_spectrum(self):
        # eigenvalues 1, 2, and the pair 0.3 +/- 0.9j via a companion block
        rng = np.random.default_rng(5)
        s = rng.normal(size=(4, 4))
        pair = companion([-0.6, 0.3**2 + 0.9**2])  # x^2 - 0.6x + 0.9
        core = np.zeros((4, 4))
        core[:2, :2] = pair
        core[2, 2], core[3, 3] = 1.0, 2.0
        b = s @ core @ np.linalg.inv(s)
        u, t = ordered_schur_leading(b, target=1.9)
        assert abs(t[0, 0] - 2.0) < 1e-8
        np.testing.assert_allclose(u @ t @ u.T, b, atol=1e-8)

    def test_no_real_eigenvalue_raises(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +/- i
        with pytest.raises(NoRealEigenvalueError):
            ordered_schur_leading(rot, target=1.0)

    def test_leading_eigenvalue_matches_eig_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            b = rng.normal(size=(6, 6))
            evals = np.linalg.eigvals(b)
            reals = np.sort(evals[np.abs(evals.imag) < 1e-9].real)
            if reals.size == 0:
                continue
            target = reals[-1] + 0.01
            u, t = ordered_schur_leading(b, target=target)
            assert abs(t[0, 0] - reals[-1]) < 1e-8

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            ordered_schur_leading(np.ones((2, 3)), target=0.0)


class TestHessenbergLsq:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(23)
        for k in (1, 2, 5, 9):
            h = np.triu(rng.normal(size=(k + 1, k)), k=-1)
            beta = float(rng.uniform(0.5, 2.0))
            y, res = hessenberg_lsq(h, beta)
            rhs = np.zeros(k + 1)
            rhs[0] = beta
            y_ref, *_ = np.linalg.lstsq(h, rhs, rcond=None)
            np.testing.assert_allclose(y, y_ref, atol=1e-10)
            assert abs(res - np.linalg.norm(rhs - h @ y_ref)) < 1e-10

    def test_one_column_closed_form(self):
        h1 = np.array([[3.0], [4.0]])
        y, res = hessenberg_lsq(h1, beta=5.0)
        # minimizer of ||5 e1 - h1 y||: y = 15/25 = 0.6, residual = 5*4/5 = 4
        assert abs(y[0] - 0.6) < 1e-14
        assert abs(res - 4.0) < 1e-14

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(29)
        k = 6
        h = np.triu(rng.normal(size=(5, k + 1, k)), k=-1)
        beta = rng.uniform(0.5, 2.0, size=5)
        ys, res = hessenberg_lsq(h, beta)
        for b in range(5):
            y1, r1 = hessenberg_lsq(h[b], beta[b])
            np.testing.assert_allclose(ys[b], y1, rtol=1e-13, atol=1e-14)
            assert abs(res[b] - r1) <= 1e-13 * max(r1, 1.0)

    def test_steps_pad_with_zero_columns(self):
        # a matrix using only its first s columns solves the s-column problem;
        # the zero pivots of the padding leave those entries of y at zero
        rng = np.random.default_rng(31)
        k = 7
        h = np.triu(rng.normal(size=(3, k + 1, k)), k=-1)
        steps = np.array([7, 3, 1])
        for b, s in enumerate(steps):
            h[b, :, s:] = 0.0
            h[b, s + 1:, :] = 0.0
        ys, res = hessenberg_lsq(h, np.ones(3), steps)
        for b, s in enumerate(steps):
            y1, r1 = hessenberg_lsq(h[b, :s + 1, :s], 1.0)
            np.testing.assert_allclose(ys[b, :s], y1, rtol=1e-13, atol=1e-14)
            assert np.all(ys[b, s:] == 0.0)
            assert abs(res[b] - r1) < 1e-13

    def test_not_hessenberg_rejected(self):
        h = np.ones((4, 3))
        with pytest.raises(ValueError):
            hessenberg_lsq(h, 1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            hessenberg_lsq(np.ones((3, 3)), 1.0)


class TestLuSolve:
    def test_matches_numpy(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=8)
        np.testing.assert_allclose(lu_solve(a, b), np.linalg.solve(a, b), atol=1e-10)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 3))
        np.testing.assert_allclose(lu_solve(a, b), np.linalg.solve(a, b), atol=1e-10)

    def test_singular_raises(self):
        a = np.ones((3, 3))
        with pytest.raises(NumericalError, match="singular"):
            lu_solve(a, np.ones(3))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            lu_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            lu_solve(np.eye(3), np.ones(4))
