"""Restarted GMRES for the shifted Laplacian systems, many right-hand sides at once.

Columns are solved in lockstep batches. Each Arnoldi step makes one block
product over the batch's live columns and orthogonalizes by two classical
Gram-Schmidt passes as stacked matmuls on a (k, restart + 1, n) basis; each
cycle ends in one least-squares solve over the stack of Hessenbergs (one
LAPACK QR, then one stacked solve with the triangular factors). Every column
keeps its own convergence state, and its residual is carried between cycles
through the Krylov basis, so a column costs exactly as many matrix products
as it takes inner steps plus its true-residual re-checks, whatever its batch.

The operator is a callable ``apply`` that maps an (n, k) block to its image;
the solvers count one product per column they apply it to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dense import hessenberg_lsq
from .errors import GmresNonConvergenceError, NumericalError

BREAKDOWN_TOL = 1e-14
# Bytes one batch's Krylov basis may take; sets how many columns run in lockstep.
_BASIS_BYTES = 1 << 20


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


def batch_width(n: int, restart: int) -> int:
    """Columns per lockstep batch: as many as fit one basis in _BASIS_BYTES."""
    return max(1, _BASIS_BYTES // (8 * (restart + 1) * n))


def arnoldi_block(apply, V: np.ndarray, H: np.ndarray):
    """Arnoldi on a stack of start vectors: A V_c = V_c H_c for each column c.

    ``V`` is (k, ell + 1, n) with a unit start vector in each ``V[c, 0]``;
    ``H`` is a zeroed (k, ell + 1, ell) stack that receives the Hessenbergs.
    Each step makes one block product over the live columns and runs two
    classical Gram-Schmidt passes as stacked matmuls on views of ``V``. A
    column whose next vector has norm at most ``BREAKDOWN_TOL`` freezes with
    a zero subdiagonal entry and takes no further product. Returns the
    per-column step counts (one product per step) and the breakdown mask.
    """
    k, ell = H.shape[0], H.shape[2]
    steps = np.full(k, ell)
    live = np.ones(k, dtype=bool)
    for j in range(ell):
        if live.all():
            w = np.ascontiguousarray(apply(V[:, j].T).T)
        else:
            w = np.zeros((k, V.shape[2]))
            w[live] = apply(V[live, j].T).T
        basis = V[:, :j + 1]
        for _ in range(2):
            coeffs = np.matmul(basis, w[:, :, None])[:, :, 0]
            w -= np.matmul(coeffs[:, None, :], basis)[:, 0, :]
            H[:, :j + 1, j] += coeffs
        hnext = np.linalg.norm(w, axis=1)
        broke = live & (hnext <= BREAKDOWN_TOL)
        steps[broke] = j + 1
        live &= ~broke
        if not live.any():
            break
        H[live, j + 1, j] = hnext[live]
        V[live, j + 1] = w[live] / hnext[live, None]
    return steps, ~live


def gmres_block(apply, b: np.ndarray,
                cfg: GmresConfig | None = None) -> tuple[np.ndarray, list[SolveReport]]:
    """Solve A X = B column by column by restarted GMRES, in lockstep batches.

    ``apply`` maps an (n, k) block to A times it; ``b`` is (n, m) and the
    initial guess is zero. Columns run in batches of :func:`batch_width`;
    within a batch each Arnoldi step is one block product and each column
    keeps its own convergence state, products and report. Results agree
    across batch widths to rounding, not bit for bit: batched sums run in
    another order. ``SolveReport.wall_time`` is the wall time of the column's
    batch. Raises :class:`GmresNonConvergenceError` with the report of the
    first failing column, whose last history entry is its true residual, and
    :class:`NumericalError` when an iterate turns non-finite.
    """
    if cfg is None:
        cfg = GmresConfig()
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("right-hand sides must form an (n, k) block")
    n, m = b.shape
    width = batch_width(n, cfg.restart)
    # one basis for every batch and every restart
    V = np.zeros((min(width, m), cfg.restart + 1, n))
    H = np.empty((min(width, m), cfg.restart + 1, cfg.restart))
    x = np.empty((n, m))
    reports: list[SolveReport] = []
    for start in range(0, m, width):
        cols = slice(start, start + width)
        xb, reps = _gmres_batch(apply, b[:, cols].T, cfg, V, H)
        x[:, cols] = xb.T
        reports += reps
    return x, reports


def _gmres_batch(apply, b, cfg, V, H):
    """Restarted GMRES on the rows of ``b`` (k, n) in lockstep; see gmres_block.

    Convergence is judged on the least-squares residual carried by each
    Hessenberg recurrence; columns below tol get their true residual
    re-checked in one block product, and those that pass leave the batch.
    A failed re-check restarts the column from its true residual and records
    that residual; two failed re-checks in a row without halving it end the
    solve, since the tolerance then lies below the reachable floor.
    """
    t0 = time.perf_counter()
    k = b.shape[0]
    b = np.ascontiguousarray(b)
    mv = np.zeros(k, dtype=np.int64)
    x = np.zeros_like(b)
    r = b.copy()
    beta = np.linalg.norm(r, axis=1)
    history = [[float(v)] for v in beta]
    outer = np.zeros(k, dtype=np.int64)
    inner = np.zeros(k, dtype=np.int64)
    last_miss = np.full(k, np.inf)   # true residual of a failed re-check last cycle
    active = ~(beta < cfg.tol)

    def report(c: int, wall: float | None = None) -> SolveReport:
        wall = time.perf_counter() - t0 if wall is None else wall
        return SolveReport(int(outer[c]), int(inner[c]), int(mv[c]),
                           np.array(history[c]), wall)

    cycle = 0
    while active.any():
        act = np.flatnonzero(active)
        if cycle == cfg.max_outer:
            # quote the true residual: the last cycle may have made no re-check
            c = int(act[0])
            history[c][-1] = float(np.linalg.norm(b[c] - apply(x[c][:, None])[:, 0]))
            mv[c] += 1
            raise GmresNonConvergenceError(
                f"no convergence in {cfg.max_outer} restart cycles "
                f"(residual {history[c][-1]:.3e}, tol {cfg.tol:.1e})", report(c))
        cycle += 1
        Vb, Hb = V[:act.size], H[:act.size]
        Hb.fill(0.0)
        Vb[:, 0] = r[act] / beta[act, None]
        steps, broke = arnoldi_block(apply, Vb, Hb)
        outer[act] += 1
        inner[act] += steps
        mv[act] += steps
        y, rnorm = hessenberg_lsq(Hb, beta[act], steps)
        # y is zero past each column's steps, so stale basis rows add nothing
        x[act] += np.matmul(y[:, None, :], Vb[:, :-1])[:, 0]
        coeffs = -np.matmul(Hb, y[:, :, None])[:, :, 0]
        coeffs[:, 0] += beta[act]
        r_carried = np.matmul(coeffs[:, None, :], Vb)[:, 0]
        if not np.all(np.isfinite(rnorm)) or not np.all(np.isfinite(x[act])):
            raise NumericalError("GMRES iterate diverged (non-finite values)")
        for c, v in zip(act, rnorm):
            history[c].append(float(v))
        # a breakdown that left the residual where it was would repeat on
        # every restart: re-check it, and the stall test below ends the solve
        check = (rnorm < cfg.tol) | (broke & (rnorm >= beta[act]))
        go = act[~check]
        r[go] = r_carried[~check]
        beta[go] = np.linalg.norm(r[go], axis=1)
        last_miss[go] = np.inf
        for c, v in zip(go, rnorm[~check]):
            if beta[c] == 0.0:
                beta[c] = v if v > 0 else cfg.tol * 0.5
        chk = act[check]
        if chk.size == 0:
            continue
        r_true = b[chk] - apply(x[chk].T).T
        mv[chk] += 1
        true_norm = np.linalg.norm(r_true, axis=1)
        for c, v in zip(chk, true_norm):
            history[c][-1] = float(v)
        ok = true_norm < cfg.tol
        active[chk[ok]] = False
        miss = chk[~ok]
        for c, v in zip(miss, true_norm[~ok]):
            if v >= 0.5 * last_miss[c]:
                raise GmresNonConvergenceError(
                    f"true residual stalled at {v:.3e} over two re-checks in a row "
                    f"(tol {cfg.tol:.1e}): the tolerance is below the reachable floor",
                    report(int(c)))
        # the recurrence was optimistic; restart from the true residual
        r[miss] = r_true[~ok]
        beta[miss] = true_norm[~ok]
        last_miss[miss] = true_norm[~ok]
    wall = time.perf_counter() - t0
    return x, [report(c, wall) for c in range(k)]

