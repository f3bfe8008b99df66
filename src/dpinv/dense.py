"""Small dense factorizations used by the iterative solvers and the oracles.

Everything here works on plain numpy arrays of modest size (GMRES
Hessenberg matrices, oracle systems). The Hessenberg least-squares solve runs
its Givens rotations over a whole stack of matrices at once; the dense LU
solve is LAPACK's, with a pivot check that turns a singular system into
:class:`NumericalError`.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError

PIVOT_TOL = 1e-14


def hessenberg_lsq(h: np.ndarray, beta, steps=None):
    """Minimize ‖β e₁ − H y‖₂ for (k+1)×k upper Hessenberg H via Givens rotations.

    ``h`` may also be a stack of shape (b, k+1, k) with one ``beta`` per
    matrix; the rotation and back-substitution loops then run over the k
    columns, each step acting on the whole stack. ``steps`` gives, per
    matrix, how many leading columns are in use (the rest must be zero; the
    default is all k), and the residual is read at row ``steps``. Returns
    the minimizer and the exact residual norm of the minimized system, as
    arrays over the stack when ``h`` is one.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (2, 3) or h.shape[-2] != h.shape[-1] + 1:
        raise ValueError("expected a (k+1) x k matrix or a stack of them")
    if np.any(np.tril(h, -2)):
        raise ValueError("matrix is not upper Hessenberg")
    single = h.ndim == 2
    if single:
        h = h[None]
    b, k = h.shape[0], h.shape[2]
    # β e₁ rides along as column k, so each rotation is one 2x2 product
    hg = np.zeros((b, k + 1, k + 1))
    hg[:, :, :k] = h
    hg[:, 0, k] = beta
    rot = np.empty((b, 2, 2))
    for i in range(k):
        pair = hg[:, i:i + 2, i]
        r = np.hypot(pair[:, 0], pair[:, 1])
        if r.all():
            rot[:, 0] = pair / r[:, None]
        else:  # a zero pair needs no rotation: use the identity
            zero = r == 0.0
            rot[:, 0] = pair / np.where(zero, 1.0, r)[:, None]
            rot[zero, 0] = (1.0, 0.0)
        rot[:, 1, 0] = -rot[:, 0, 1]
        rot[:, 1, 1] = rot[:, 0, 0]
        hg[:, i:i + 2, i:] = rot @ hg[:, i:i + 2, i:]
    g = hg[:, :, k]
    # a zero pivot means this direction cannot reduce the residual: y stays 0
    pivot = hg[:, np.arange(k), np.arange(k)]
    pivot[pivot == 0.0] = np.inf
    y = np.zeros((b, k))
    for i in range(k - 1, -1, -1):
        y[:, i] = (g[:, i] - np.einsum("bj,bj->b", hg[:, i, i + 1:k], y[:, i + 1:])) / pivot[:, i]
    rows = np.full(b, k) if steps is None else np.asarray(steps)
    res = np.abs(g[np.arange(b), rows])
    if single:
        return y[0], float(res[0])
    return y, res


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense square system by LU with partial pivoting.

    A pivot below ``PIVOT_TOL`` times the largest entry of A raises
    :class:`NumericalError` rather than returning garbage.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side length mismatch")
    amax = float(np.abs(a).max()) if a.size else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, check_finite=True)
    pivots = np.abs(np.diag(lu))
    if amax == 0.0 or pivots.min() <= PIVOT_TOL * amax:
        raise NumericalError(
            f"matrix is singular to working precision (pivot {pivots.min():.3e})")
    return sla.lu_solve((lu, piv), b)
