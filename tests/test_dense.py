"""Tests for the small dense factorization helpers."""

import numpy as np
import pytest

from dpinv.dense import hessenberg_lsq, lu_solve
from dpinv.errors import NumericalError


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
        # the zero pivots of the padding leave those entries of y at zero. The
        # last matrix has a zero first column (A v0 = 0, an in-block zero
        # pivot at s = 1): nothing reduces its residual below beta.
        rng = np.random.default_rng(31)
        k = 30
        h = np.triu(rng.normal(size=(4, k + 1, k)), k=-1)
        h[3, :, 0] = 0.0
        beta = rng.uniform(0.5, 2.0, size=4)
        steps = np.array([1, 7, 30, 1])
        for b, s in enumerate(steps):
            h[b, :, s:] = 0.0
            h[b, s + 1:, :] = 0.0
        ys, res = hessenberg_lsq(h, beta, steps)
        for b, s in enumerate(steps):
            y1, r1 = hessenberg_lsq(h[b, :s + 1, :s], beta[b])
            np.testing.assert_allclose(ys[b, :s], y1, rtol=1e-13, atol=1e-14)
            assert abs(res[b] - r1) < 1e-13
            block = h[b, :s + 1, :s]
            rhs = np.zeros(s + 1)
            rhs[0] = beta[b]
            y_ref, *_ = np.linalg.lstsq(block, rhs, rcond=None)
            # normwise: the k = 30 matrix has condition number 1.3e4
            assert np.linalg.norm(ys[b, :s] - y_ref) <= 1e-11 * np.linalg.norm(y_ref)
            assert np.all(ys[b, s:] == 0.0)
            r_ref = np.linalg.norm(rhs - block @ y_ref)
            assert abs(res[b] - r_ref) <= 1e-13 * beta[b]
            assert abs(res[b] - np.linalg.norm(rhs - block @ ys[b, :s])) <= 1e-13 * beta[b]
        assert ys[3, 0] == 0.0 and res[3] == beta[3]

    def test_leading_block_matches_padded_stack(self):
        # GMRES hands over only the leading (m + 1, m) block, m the most
        # steps any matrix took: the same y and residuals as the zero-padded
        # 30-column stack, to rounding, with mixed steps and a zero pivot
        rng = np.random.default_rng(37)
        k = 30
        h = np.triu(rng.normal(size=(6, k + 1, k)), k=-1)
        h[4, :, 0] = 0.0
        beta = rng.uniform(0.5, 2.0, size=6)
        steps = np.array([3, 12, 1, 16, 5, 16])
        for b, s in enumerate(steps):
            h[b, :, s:] = 0.0
            h[b, s + 1:, :] = 0.0
        m = int(steps.max())
        y_full, res_full = hessenberg_lsq(h, beta, steps)
        y_lead, res_lead = hessenberg_lsq(h[:, :m + 1, :m], beta, steps)
        assert y_lead.shape == (6, m)
        np.testing.assert_allclose(y_lead, y_full[:, :m], rtol=1e-12, atol=1e-14)
        assert np.all(y_full[:, m:] == 0.0)
        np.testing.assert_allclose(res_lead, res_full, rtol=1e-12, atol=1e-15)
        assert res_lead[4] == beta[4]

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
