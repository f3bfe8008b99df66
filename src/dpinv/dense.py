"""Small dense factorizations used by the iterative solvers and the oracles.

Everything here works on plain 2-D numpy arrays of modest size (projected
blocks, oracle systems), so the heavy lifting is delegated to LAPACK where a
routine exists; the package-specific logic (rank signaling, eigenvalue
ordering, Hessenberg least squares) lives here.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import NoRealEigenvalueError, NumericalError, RankDeficiencyError

RANK_TOL = 1e-13
PIVOT_TOL = 1e-14


def orthogonalize(v: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of v by modified Gram-Schmidt.

    One full reorthogonalization pass keeps the result orthonormal to near
    machine precision. A column whose residual norm falls below ``RANK_TOL``
    signals a degenerate block via :class:`RankDeficiencyError`; callers
    typically reseed that column and retry.
    """
    q = np.array(v, dtype=np.float64, copy=True)
    if q.ndim == 1:
        q = q[:, None]
    n, k = q.shape
    if k > n:
        raise ValueError("more columns than rows cannot be orthonormalized")
    for j in range(k):
        w = q[:, j]
        for _ in range(2):
            if j:
                w -= q[:, :j] @ (q[:, :j].T @ w)
        nrm = np.linalg.norm(w)
        if nrm < RANK_TOL:
            raise RankDeficiencyError(column=j, norm=float(nrm))
        q[:, j] = w / nrm
    return q


def ordered_schur_leading(b: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur factorization B = U T Uᵀ with a chosen eigenvalue leading.

    The real eigenvalue closest to ``target`` is moved to T[0, 0]. If the
    spectrum holds no real eigenvalue (every eigenvalue sits in a complex
    pair) there is nothing valid to promote and
    :class:`NoRealEigenvalueError` is raised.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("expected a square matrix")
    m = b.shape[0]
    if m == 1:
        return np.ones((1, 1)), b.copy()
    scale = max(1.0, float(np.abs(b).max()))
    evals = np.linalg.eigvals(b)
    imag_tol = 1e-9 * scale
    real_mask = np.abs(evals.imag) <= imag_tol
    if not real_mask.any():
        raise NoRealEigenvalueError(
            f"no real eigenvalue within {imag_tol:.1e} of the real axis")
    reals = evals.real[real_mask]
    lam = float(reals[np.argmin(np.abs(reals - target))])

    def run(match_tol: float):
        def select(re, im):
            return abs(im) <= imag_tol and abs(re - lam) <= match_tol

        return sla.schur(b, output="real", sort=select)

    match_tol = max(1e-8 * scale, 1e-12)
    try:
        t, u, sdim = run(match_tol)
        if sdim < 1:
            t, u, sdim = run(match_tol * 1e4)
    except sla.LinAlgError as exc:  # pragma: no cover - QR failure is pathological
        raise NumericalError(f"Schur factorization failed: {exc}") from exc
    if sdim < 1:  # pragma: no cover - selection failed twice
        raise NumericalError("could not reorder the chosen eigenvalue to the front")
    return u, t


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
