"""Independent verification oracles.

Everything here double-checks the iterative solvers through a different
route: dense LU solves, brute-force walk simulation, and LAPACK's symmetric
eigensolver and SVD. None of it shares code with the certified solve paths,
so agreement is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import lu_solve
from .errors import NumericalError
from .sparse import SparseMatrix

_ORACLE_MAX_N = 500
_SEED_STREAM_MC = 2


def _to_dense(p) -> np.ndarray:
    if isinstance(p, SparseMatrix):
        return p.to_dense()
    return np.asarray(p, dtype=np.float64)


def stationary_direct(p) -> np.ndarray:
    """Stationary distribution by one dense linear solve.

    Fixes the last coordinate to 1, solves the first n-1 balance equations,
    and normalizes. Only for small chains.
    """
    pd = _to_dense(p)
    n = pd.shape[0]
    if n > _ORACLE_MAX_N:
        raise ValueError(f"direct oracle is limited to n <= {_ORACLE_MAX_N}")
    if n == 1:
        return np.ones(1)
    a = np.eye(n - 1) - pd[:n - 1, :n - 1]
    y = np.linalg.solve(a.T, pd[n - 1, :n - 1])
    full = np.concatenate([y, [1.0]])
    return full / full.sum()


@dataclass
class PenroseReport:
    aba: float
    bab: float
    ab_symmetry: float
    ba_symmetry: float

    @property
    def max_residual(self) -> float:
        return max(self.aba, self.bab, self.ab_symmetry, self.ba_symmetry)

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def _rel(num: float, den: float) -> float:
    return num / max(den, 1e-300)


def penrose_check(a: np.ndarray, b: np.ndarray) -> PenroseReport:
    """The four pseudo-inverse conditions as relative Frobenius residuals."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = a @ b
    ba = b @ a
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return PenroseReport(
        _rel(float(np.linalg.norm(ab @ a - a)), na),
        _rel(float(np.linalg.norm(ba @ b - b)), nb),
        _rel(float(np.linalg.norm(ab.T - ab)), float(np.linalg.norm(ab))),
        _rel(float(np.linalg.norm(ba.T - ba)), float(np.linalg.norm(ba))),
    )


def hitting_times_direct(p, k: int) -> np.ndarray:
    """Expected steps to reach k from every node, by one dense solve."""
    pd = _to_dense(p)
    n = pd.shape[0]
    if n > _ORACLE_MAX_N:
        raise ValueError(f"direct oracle is limited to n <= {_ORACLE_MAX_N}")
    keep = [j for j in range(n) if j != k]
    sub = np.eye(n - 1) - pd[np.ix_(keep, keep)]
    h_sub = np.linalg.solve(sub, np.ones(n - 1))
    h = np.zeros(n)
    h[keep] = h_sub
    return h


@dataclass
class MCResult:
    h_est: float
    h_se: float
    c_est: float
    c_se: float
    visits_est: np.ndarray
    visits_se: np.ndarray
    trials: int


def mc_walk(cum_rows, start, target, trials, randoms,
            h_moments, c_moments, visit_sum, visit_sumsq):
    """Simulate ``trials`` round trips start -> target -> start on one stream.

    Each trial walks from ``start`` until it first reaches ``target`` (first
    leg, counting steps and per-node visits), then keeps walking until it
    returns to ``start`` (second leg, for round-trip times). ``cum_rows`` holds
    the cumulative row sums of the transition matrix; each step consumes one
    value of ``randoms``. All trials advance in lockstep, taking randoms in
    that order. Moments are added into the four accumulators. Returns the
    number of randoms used, or -1 when they run out (the step cap).
    """
    n = cum_rows.shape[0]
    pos = 0
    budget = randoms.shape[0]
    state = np.full(trials, start, dtype=np.int64)
    steps = np.zeros((2, trials))
    visits = np.zeros((trials, n))
    for leg, goal in enumerate((target, start)):
        alive = state != goal
        while alive.any():
            idx = np.nonzero(alive)[0]
            k = idx.shape[0]
            if pos + k > budget:
                return -1
            if leg == 0:
                np.add.at(visits, (idx, state[idx]), 1.0)
            r = randoms[pos:pos + k]
            pos += k
            nxt = np.empty(k, dtype=np.int64)
            for row in np.unique(state[idx]):
                sel = state[idx] == row
                nxt[sel] = np.searchsorted(cum_rows[row], r[sel])
            np.minimum(nxt, n - 1, out=nxt)
            state[idx] = nxt
            steps[leg, idx] += 1.0
            alive[idx] = nxt != goal
    steps1, steps2 = steps
    h_moments[0] += steps1.sum()
    h_moments[1] += (steps1 * steps1).sum()
    rt = steps1 + steps2
    c_moments[0] += rt.sum()
    c_moments[1] += (rt * rt).sum()
    visit_sum += visits.sum(axis=0)
    visit_sumsq += (visits * visits).sum(axis=0)
    return pos


def monte_carlo_walk(p, i: int, k: int, trials: int = 100_000,
                     seed: int = 0, batch: int = 10_000) -> MCResult:
    """Estimate hitting time, commute time, and visit counts by simulation.

    Walks i -> k (counting steps and per-node occupancies before absorption)
    then k -> i for the round trip. Runs in batches; a batch that exhausts
    its random budget is retried whole with a doubled budget so partial
    trials never leak into the moments.
    """
    pd = _to_dense(p)
    n = pd.shape[0]
    if not (0 <= i < n and 0 <= k < n) or i == k:
        raise ValueError("need distinct node indices inside the chain")
    if trials < 1000:
        raise ValueError("fewer than 1000 trials gives meaningless error bars")
    cum = np.cumsum(pd, axis=1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SEED_STREAM_MC]))
    h_tot = np.zeros(2)
    c_tot = np.zeros(2)
    vs_tot = np.zeros(n)
    vq_tot = np.zeros(n)
    done = 0
    while done < trials:
        t = min(batch, trials - done)
        budget = t * 512
        while True:
            randoms = rng.random(budget)
            h_m = np.zeros(2)
            c_m = np.zeros(2)
            vs = np.zeros(n)
            vq = np.zeros(n)
            res = mc_walk(cum, i, k, t, randoms, h_m, c_m, vs, vq)
            if res != -1:
                break
            budget *= 2
            if budget > 2 ** 26:
                raise NumericalError(
                    "walk simulation exhausted its step budget; the chain "
                    "mixes too slowly for a Monte Carlo check")
        h_tot += h_m
        c_tot += c_m
        vs_tot += vs
        vq_tot += vq
        done += t

    def _mean_se(total, totalsq, count):
        mean = total / count
        var = np.maximum(totalsq / count - mean * mean, 0.0) * count / (count - 1)
        return mean, np.sqrt(var / count)

    h_est, h_se = _mean_se(h_tot[0], h_tot[1], trials)
    c_est, c_se = _mean_se(c_tot[0], c_tot[1], trials)
    v_est, v_se = _mean_se(vs_tot, vq_tot, trials)
    return MCResult(float(h_est), float(h_se), float(c_est), float(c_se),
                    v_est, v_se, trials)


def symmetric_part_extremes(a: np.ndarray) -> tuple[float, float]:
    """(smallest eigenvalue of (A + Aᵀ)/2, spectral norm of A), both from LAPACK.

    The solvers never call a symmetric eigensolver or an SVD, so these two
    numbers do not share code with the paths they certify.
    """
    a = np.asarray(a, dtype=np.float64)
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[0]), float(np.linalg.norm(a, 2))


def dense_pinv_reference(a: np.ndarray, u: np.ndarray,
                         v: np.ndarray | None = None,
                         self_check_tol: float = 1e-10) -> np.ndarray:
    """Dense pseudo-inverse of a nullity-one matrix via a rank-one shift.

    Computes (I - u uᵀ/uᵀu) (A + u vᵀ)⁻¹ (I - v vᵀ/vᵀv) with a dense LU and
    refuses to return anything that does not satisfy the four pseudo-inverse
    conditions to ``self_check_tol``.
    """
    a = np.asarray(a, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = u if v is None else np.asarray(v, dtype=np.float64)
    n = a.shape[0]
    c = a + np.outer(u, v)
    cinv = lu_solve(c, np.eye(n))
    pu = np.eye(n) - np.outer(u, u) / float(u @ u)
    pv = np.eye(n) - np.outer(v, v) / float(v @ v)
    b = pu @ cinv @ pv
    rep = penrose_check(a, b)
    if not rep.ok(self_check_tol):
        raise NumericalError(
            f"dense reference pseudo-inverse failed its own check "
            f"(worst residual {rep.max_residual:.3e}); null vectors are "
            "probably wrong for this matrix")
    return b
