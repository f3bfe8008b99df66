"""Restarted GMRES for the shifted Laplacian and stationary systems, many
right-hand sides at once.

Each solve is right preconditioned by a polynomial: GMRES runs on A p(A)
and returns x = p(A) y. p(z) = c₀ + c₁z is fitted once per request, in 2
products, so that 1 − z p(z) is the degree-2 GMRES residual polynomial of a
fixed seeded vector; a caller that solves one operator in several calls
fits it once and passes it to each. An Arnoldi step costs 2 products, and
m steps build a residual polynomial of degree 2m in A on an m-vector basis,
so fewer steps, and less orthogonalization, reach the same tolerance.

Columns are solved in lockstep batches. Each Arnoldi step applies A p(A) to
the batch's live columns as a block and orthogonalizes by two classical
Gram-Schmidt passes as stacked matmuls on a (k, restart + 1, n) basis; a
column stops inside the cycle once its least-squares residual estimate falls
below tol, and the rest of the step's bookkeeping runs on the whole batch
with stopped columns masked out. Each cycle ends in one least-squares solve
over the stack of Hessenbergs, cut to the steps its longest column took (one
LAPACK QR, then one stacked solve with the triangular factors). A column
whose residual stops falling from one restart cycle to the next ends the
solve with :class:`GmresStagnationError`. Every column keeps its own
convergence state, and its residual is carried between cycles through the
Krylov basis, so a column costs exactly 2 products per Arnoldi step plus 2
per true-residual re-check, whatever its batch.

The operator is a callable ``apply`` that maps an (n, k) block to its image;
the solvers count one product per column they apply it to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dense import hessenberg_lsq
from .errors import GmresNonConvergenceError, GmresStagnationError, NumericalError

BREAKDOWN_TOL = 1e-14
# Bytes one batch's Krylov basis may take; sets how many columns run in lockstep.
_BASIS_BYTES = 1 << 20
# Seed of the unit vector the preconditioning polynomial is fitted on.
_POLY_SEED = 0
# Products that fit the polynomial.
POLY_SETUP_MV = 2
# A column stagnates when STALL_CYCLES restart cycles in a row each leave
# its residual above STALL_FACTOR times where the cycle started.
STALL_CYCLES = 10
STALL_FACTOR = 0.999


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
    """One column's solve.

    ``mv_count`` is 2 products per inner (Arnoldi) step plus 2 per
    true-residual re-check, including the one made at the restart-cycle cap
    or at a stagnation stop. The first report of each request also carries
    the request's 2 polynomial setup products, so the reports of a request
    sum to every product it made: a :func:`gmres_block` call that fits the
    polynomial itself, or a caller such as
    :func:`dpinv.laplacian.pinv_columns` that fits it once and passes it to
    each of its calls.
    """

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


def arnoldi_block(apply, V: np.ndarray, H: np.ndarray, beta=None, tol: float = 0.0):
    """Arnoldi on a stack of start vectors: A V_c = V_c H_c for each column c.

    ``V`` is (k, ell + 1, n) with a unit start vector in each ``V[c, 0]``;
    ``H`` is a zeroed (k, ell + 1, ell) stack that receives the Hessenbergs.
    Each step makes one block application of ``apply`` over the live columns
    and runs two classical Gram-Schmidt passes as stacked matmuls on views of
    ``V``. A column whose next vector has norm at most ``BREAKDOWN_TOL``
    freezes with a zero subdiagonal entry. Given the residual norms ``beta``
    of the start vectors, a column also stops once its least-squares
    residual estimate β/‖u‖ falls below ``tol``, where u is the left null
    vector of its leading Hessenberg with u₀ = 1; that stop is not a
    breakdown. A frozen column takes no further product. Returns the
    per-column step counts and the breakdown mask.
    """
    k, ell, n = H.shape[0], H.shape[2], V.shape[2]
    steps = np.full(k, ell)
    live = np.ones(k, dtype=bool)
    broken = np.zeros(k, dtype=bool)
    # a frozen column's row of w stays zero, which orthogonalizes to nothing
    w = np.zeros((k, n))
    if beta is not None:
        u = np.zeros((k, ell + 1))
        u[:, 0] = 1.0
        unorm2 = np.ones(k)
        # β/‖u‖ < tol once ‖u‖² exceeds (β/tol)²
        limit = (np.asarray(beta, dtype=np.float64) / tol) ** 2
    for j in range(ell):
        w[live] = apply(V[live, j].T).T
        basis = V[:, :j + 1]
        hcol = H[:, :, j]
        for _ in range(2):
            coeffs = np.matmul(basis, w[:, :, None])[:, :, 0]
            w -= np.matmul(coeffs[:, None, :], basis)[:, 0, :]
            hcol[:, :j + 1] += coeffs
        hnext = np.sqrt(np.einsum("cn,cn->c", w, w))
        broke = live & (hnext <= BREAKDOWN_TOL)
        if broke.any():
            steps[broke] = j + 1
            broken |= broke
            live &= ~broke
            hnext[broke] = 0.0
            w[broke] = 0.0
            if not live.any():
                break
        hcol[:, j + 1] = hnext
        np.divide(w, hnext[:, None], out=V[:, j + 1], where=live[:, None])
        if beta is None:
            continue
        # uᵀ H̄ = 0 fixes the next entry of u from column j of H; frozen
        # columns keep a zero entry
        unext = u[:, j + 1]
        np.divide(-np.einsum("ci,ci->c", u[:, :j + 1], hcol[:, :j + 1]), hnext,
                  out=unext, where=live)
        unorm2 += unext * unext
        done = live & (unorm2 > limit)
        if done.any():
            steps[done] = j + 1
            live &= ~done
            w[done] = 0.0
            if not live.any():
                break
    return steps, broken


def gmres_poly(apply, n: int) -> tuple[float, float]:
    """(c₀, c₁) of the preconditioning polynomial p(z) = c₀ + c₁z.

    They minimize ‖v − c₀Av − c₁A²v‖₂ for a fixed seeded unit vector v, so
    1 − z p(z) is the degree-2 GMRES residual polynomial of v. Makes 2
    products.
    """
    v = np.random.default_rng(_POLY_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    av = apply(v[:, None])
    krylov = np.hstack([av, apply(av)])
    if not np.all(np.isfinite(krylov)):
        raise NumericalError("GMRES polynomial fit met non-finite products")
    c, _, rank, _ = np.linalg.lstsq(krylov, v, rcond=None)
    if rank < 2:
        # v's Krylov space closes after one step: fit the exact degree-0 p
        av2 = float(av[:, 0] @ av[:, 0])
        c = np.array([float(av[:, 0] @ v) / av2 if av2 > 0 else 0.0, 0.0])
    if not np.any(c):
        # p = 0 would annihilate every direction; fall back to plain GMRES
        c = np.array([1.0, 0.0])
    return float(c[0]), float(c[1])


def gmres_block(apply, b: np.ndarray, cfg: GmresConfig | None = None,
                poly: tuple[float, float] | None = None
                ) -> tuple[np.ndarray, list[SolveReport]]:
    """Solve A X = B column by column by restarted GMRES, in lockstep batches.

    ``apply`` maps an (n, k) block to A times it; ``b`` is (n, m) and the
    initial guess is zero. GMRES runs on A p(A), with p the polynomial of
    :func:`gmres_poly`. Without ``poly`` it is fitted here and its 2
    products are charged to the first report; a caller that solves several
    blocks with one operator fits it once, passes it in, and charges those
    products itself. Columns run in batches of :func:`batch_width`; within a
    batch each Arnoldi step is two block products and each column keeps its
    own convergence state, products and report. Results agree across batch
    widths to rounding, not bit for bit: batched sums run in another order.
    ``SolveReport.wall_time`` is the wall time of the column's batch. Raises
    :class:`GmresNonConvergenceError` with the report of the first failing
    column, whose last history entry is its true residual
    (:class:`GmresStagnationError` when its residual has stopped falling),
    and :class:`NumericalError` when an iterate turns non-finite.
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
    if m == 0:
        # no report to charge the polynomial's setup products to
        return x, reports
    setup = 0
    if poly is None:
        poly, setup = gmres_poly(apply, n), POLY_SETUP_MV
    for start in range(0, m, width):
        cols = slice(start, start + width)
        xb, reps = _gmres_batch(apply, poly, b[:, cols].T, cfg, V, H,
                                setup if start == 0 else 0)
        x[:, cols] = xb.T
        reports += reps
    return x, reports


def _gmres_batch(apply, poly, b, cfg, V, H, setup_mv):
    """Restarted GMRES on the rows of ``b`` (k, n) in lockstep; see gmres_block.

    Arnoldi runs on A p(A) and accumulates y; convergence is judged on the
    least-squares residual carried by each Hessenberg recurrence. Columns
    below tol form x = p(A) y and get b − A x re-checked, 2 products each,
    and those that pass leave the batch with that x. A failed re-check
    restarts the column from its true residual and records that residual;
    two failed re-checks in a row without halving it end the solve, since
    the tolerance then lies below the reachable floor. So do STALL_CYCLES
    cycles in a row that each leave a column's residual above STALL_FACTOR
    times where the cycle started: restarted GMRES has stagnated there. The
    first column is charged ``setup_mv`` products.
    """
    t0 = time.perf_counter()
    c0, c1 = poly
    k = b.shape[0]
    b = np.ascontiguousarray(b)

    def precond(z):
        return apply(c0 * z + c1 * apply(z))

    def solution(rows):
        # x = p(A) y for (k, n) rows of y
        return c0 * rows + c1 * apply(rows.T).T

    mv = np.zeros(k, dtype=np.int64)
    mv[0] = setup_mv
    y_acc = np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    beta = np.linalg.norm(r, axis=1)
    history = [[float(v)] for v in beta]
    outer = np.zeros(k, dtype=np.int64)
    inner = np.zeros(k, dtype=np.int64)
    last_miss = np.full(k, np.inf)   # true residual of a failed re-check last cycle
    flat = np.zeros(k, dtype=np.int64)  # cycles in a row that missed STALL_FACTOR
    active = ~(beta < cfg.tol)

    def report(c: int, wall: float | None = None) -> SolveReport:
        wall = time.perf_counter() - t0 if wall is None else wall
        return SolveReport(int(outer[c]), int(inner[c]), int(mv[c]),
                           np.array(history[c]), wall)

    def fail(c: int, error, why: str):
        # quote the true residual: the last cycle may have made no re-check
        xc = solution(y_acc[c][None])
        history[c][-1] = float(np.linalg.norm(b[c] - apply(xc.T)[:, 0]))
        mv[c] += 2
        raise error(f"{why} (residual {history[c][-1]:.3e}, tol {cfg.tol:.1e})",
                    report(c))

    cycle = 0
    while active.any():
        act = np.flatnonzero(active)
        if cycle == cfg.max_outer:
            fail(int(act[0]), GmresNonConvergenceError,
                 f"no convergence in {cfg.max_outer} restart cycles")
        cycle += 1
        Vb, Hb = V[:act.size], H[:act.size]
        Hb.fill(0.0)
        Vb[:, 0] = r[act] / beta[act, None]
        steps, broke = arnoldi_block(precond, Vb, Hb, beta[act], cfg.tol)
        outer[act] += 1
        inner[act] += steps
        mv[act] += 2 * steps
        # only the leading (m + 1, m) block of the stack is in use
        m = int(steps.max())
        Hm = Hb[:, :m + 1, :m]
        yb, rnorm = hessenberg_lsq(Hm, beta[act], steps)
        # yb is zero past each column's steps, so stale basis rows add nothing
        y_acc[act] += np.matmul(yb[:, None, :], Vb[:, :m])[:, 0]
        coeffs = -np.matmul(Hm, yb[:, :, None])[:, :, 0]
        coeffs[:, 0] += beta[act]
        r_carried = np.matmul(coeffs[:, None, :], Vb[:, :m + 1])[:, 0]
        if not np.all(np.isfinite(rnorm)) or not np.all(np.isfinite(y_acc[act])):
            raise NumericalError("GMRES iterate diverged (non-finite values)")
        for c, v in zip(act, rnorm):
            history[c].append(float(v))
        # a breakdown that left the residual where it was would repeat on
        # every restart: re-check it, and the stall test below ends the solve
        check = (rnorm < cfg.tol) | (broke & (rnorm >= beta[act]))
        slow = ~check & (rnorm > STALL_FACTOR * beta[act])
        flat[act] = np.where(slow, flat[act] + 1, 0)
        stalled = act[flat[act] >= STALL_CYCLES]
        if stalled.size:
            fail(int(stalled[0]), GmresStagnationError,
                 f"stagnated: {STALL_CYCLES} restart cycles in a row each cut "
                 f"the residual by less than a factor {STALL_FACTOR}")
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
        x[chk] = solution(y_acc[chk])
        r_true = b[chk] - apply(x[chk].T).T
        mv[chk] += 2
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
