"""Small dense factorizations used by the iterative solvers and the oracles.

Everything here works on plain numpy arrays of modest size (GMRES
Hessenberg matrices, oracle systems) and hands the arithmetic to LAPACK. The
Hessenberg least-squares solve factors a whole stack of matrices in one
R-only QR; the dense LU solve adds a pivot check that turns a singular
system into :class:`NumericalError`.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError

PIVOT_TOL = 1e-14


def hessenberg_lsq(h: np.ndarray, beta, steps=None):
    """Minimize ‖β e₁ − H y‖₂ for (k+1)×k upper Hessenberg H by one R-only QR.

    ``h`` may also be a stack of shape (b, k+1, k) with one ``beta`` per
    matrix; LAPACK then factors the whole stack in one call, and one stacked
    solve with the triangular factors gives every y. ``steps`` gives, per
    matrix, how many leading columns are in use (the rest must be zero; the
    default is all k), and the residual is read at row ``steps`` of R. A zero
    pivot marks a direction that cannot reduce the residual: that entry of y
    is exactly zero. Returns the minimizer and the residual norm, as arrays
    over the stack when ``h`` is one.
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
    # β e₁ rides along as column k, so R's last column is Qᵀ β e₁
    hg = np.zeros((b, k + 1, k + 1))
    hg[:, :, :k] = h
    hg[:, 0, k] = beta
    # mode "raw" leaves LAPACK's reflectors below the diagonal, cleared here
    # in place; mode "r" clears them in a fresh copy of the stack, which
    # measured slower (1.4-1.7 against 1.0 ms per call at stacks of 32)
    r = np.linalg.qr(hg, mode="raw")[0].swapaxes(1, 2)
    r[:, np.tri(k + 1, k + 1, -1, dtype=bool)] = 0.0
    tri, g = r[:, :k, :k], r[:, :k, k]
    zero = tri[:, np.arange(k), np.arange(k)] == 0.0
    rows = np.full(b, k) if steps is None else np.asarray(steps)
    # the reflections past a zero pivot never reach β e₁, so the residual
    # stays in the row of the first one
    rows = np.minimum(rows, np.where(zero.any(axis=1), zero.argmax(axis=1), k))
    res = np.abs(r[np.arange(b), rows, k])
    # a unit pivot over a zero right-hand side keeps that entry of y at zero
    c, i = np.nonzero(zero)
    tri[c, i, i] = 1.0
    g[c, i] = 0.0
    y = np.linalg.solve(tri, g[:, :, None])[:, :, 0]
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
