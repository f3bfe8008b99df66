"""Restarted GMRES and friends for the shifted Laplacian systems.

The restart-cycle machinery is deliberately explicit: an Arnoldi loop with
reorthogonalization, a Givens-based Hessenberg least-squares solve, and a
residual carried between cycles through the Krylov basis so each cycle costs
exactly as many matrix products as it takes inner steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dense import hessenberg_lsq
from .errors import GmresNonConvergenceError, NumericalError
from .sparse import MvCounter, SparseMatrix, matvec, matvec_transpose

BREAKDOWN_TOL = 1e-14


class LinearOperator:
    """Square operator defined by its action; counts one product per apply."""

    def __init__(self, dimension: int, apply_fn=None, counter: MvCounter | None = None):
        self.dimension = int(dimension)
        self._apply_fn = apply_fn
        self.counter = counter if counter is not None else MvCounter()

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.dimension,):
            raise ValueError(f"operand must have shape ({self.dimension},)")
        self.counter.add()
        return self._raw_apply(x)

    def _raw_apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply_fn(x)

    @classmethod
    def from_sparse(cls, m: SparseMatrix, transpose: bool = False,
                    counter: MvCounter | None = None) -> "LinearOperator":
        if m.n_rows != m.n_cols:
            raise ValueError("operator requires a square matrix")
        fn = (lambda x: matvec_transpose(m, x)) if transpose else (lambda x: matvec(m, x))
        return cls(m.n_rows, fn, counter)


class RankOneShiftedOperator(LinearOperator):
    """x -> M x + alpha * u (vᵀ x) without forming the rank-one update."""

    def __init__(self, base: SparseMatrix, u: np.ndarray, v: np.ndarray,
                 alpha: float = 1.0, counter: MvCounter | None = None):
        if base.n_rows != base.n_cols:
            raise ValueError("operator requires a square matrix")
        super().__init__(base.n_rows, None, counter)
        self.base = base
        self.u = np.ascontiguousarray(u, dtype=np.float64)
        self.v = np.ascontiguousarray(v, dtype=np.float64)
        if self.u.shape != (self.dimension,) or self.v.shape != (self.dimension,):
            raise ValueError("shift vectors must match the operator dimension")
        self.alpha = float(alpha)

    def _raw_apply(self, x: np.ndarray) -> np.ndarray:
        return matvec(self.base, x) + (self.alpha * (self.v @ x)) * self.u


@dataclass
class GmresConfig:
    restart: int = 30           # inner steps per cycle
    tol: float = 1e-9           # absolute tolerance on the residual 2-norm
    max_outer: int = 10000

    def __post_init__(self) -> None:
        if self.restart < 1:
            raise ValueError("restart must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class SolveReport:
    outer_iterations: int
    inner_iterations_total: int
    mv_count: int
    residual_history: np.ndarray = field(repr=False)
    wall_time: float

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1])


def arnoldi(op: LinearOperator, v1: np.ndarray, ell: int):
    """Build an orthonormal Krylov basis: A V_k = V_{k+1} H.

    Returns ``(V, H, breakdown)`` where H is (k+1) x k upper Hessenberg and
    ``breakdown`` is the number of completed steps when the basis closed early
    (else None). Without breakdown V has k+1 columns; with breakdown, k.
    Projection coefficients get one full reorthogonalization pass.
    """
    v1 = np.asarray(v1, dtype=np.float64)
    n = op.dimension
    V = np.zeros((n, ell + 1))
    H = np.zeros((ell + 1, ell))
    V[:, 0] = v1
    for j in range(ell):
        w = op.apply(V[:, j])
        for _ in range(2):
            coeffs = V[:, :j + 1].T @ w
            w -= V[:, :j + 1] @ coeffs
            H[:j + 1, j] += coeffs
        hnext = np.linalg.norm(w)
        if hnext <= BREAKDOWN_TOL:
            return V[:, :j + 1].copy(), H[:j + 2, :j + 1].copy(), j + 1
        H[j + 1, j] = hnext
        V[:, j + 1] = w / hnext
    return V, H, None


def gmres_restarted(op: LinearOperator, b: np.ndarray,
                    x0: np.ndarray | None = None,
                    cfg: GmresConfig | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = b by restarted GMRES.

    Convergence is judged on the least-squares residual carried by the
    Hessenberg recurrence; on acceptance one explicit product re-checks the
    true residual (so a converged solve costs its inner steps plus one).
    Raises :class:`GmresNonConvergenceError` with the partial report when the
    outer-iteration cap is hit.
    """
    if cfg is None:
        cfg = GmresConfig()
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.dimension,):
        raise ValueError("right-hand side length mismatch")
    t0 = time.perf_counter()
    mv0 = op.counter.count
    if x0 is None:
        x = np.zeros(op.dimension)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - op.apply(x)
    beta = float(np.linalg.norm(r))
    history = [beta]
    inner_total = 0

    def report() -> SolveReport:
        return SolveReport(outer, inner_total, op.counter.count - mv0,
                           np.array(history), time.perf_counter() - t0)

    outer = 0
    if beta < cfg.tol:
        return x, report()
    while outer < cfg.max_outer:
        outer += 1
        V, Hbar, _ = arnoldi(op, r / beta, cfg.restart)
        k = Hbar.shape[1]
        inner_total += k
        y, rnorm = hessenberg_lsq(Hbar, beta)
        x = x + V[:, :k] @ y
        resid_coeffs = -(Hbar @ y)
        resid_coeffs[0] += beta
        r = V @ resid_coeffs[:V.shape[1]]
        if not np.isfinite(rnorm) or not np.all(np.isfinite(x)):
            raise NumericalError("GMRES iterate diverged (non-finite values)")
        history.append(rnorm)
        if rnorm < cfg.tol:
            r_true = b - op.apply(x)
            true_norm = float(np.linalg.norm(r_true))
            if true_norm < cfg.tol:
                history[-1] = true_norm
                return x, report()
            # recurrence was optimistic; restart from the true residual
            r = r_true
            beta = true_norm
            continue
        beta = float(np.linalg.norm(r))
        if beta == 0.0:
            beta = rnorm if rnorm > 0 else cfg.tol * 0.5
    raise GmresNonConvergenceError(
        f"no convergence in {cfg.max_outer} restart cycles "
        f"(residual {history[-1]:.3e}, tol {cfg.tol:.1e})", report())
