"""Stationary distributions of irreducible chains.

By default π solves one nonsingular linear system on the package's Krylov
engine, :func:`dpinv.krylov.gmres_block`, with its degree-2 polynomial and
its in-cycle stop. With c = 1/n the system

    (I − Pᵀ + c 1 1ᵀ) x = c 1

has exactly one solution for an irreducible P, and π = x / 1ᵀx. If r is the
GMRES residual, then x − Pᵀx = −(I − 1 1ᵀ/n) r, so ‖Pᵀπ − π‖₂ ≤ ‖r‖₂ / 1ᵀx.
GMRES therefore runs to tol/2, and one counted product checks
‖Pᵀπ − π‖₂ ≤ tol at the end. The polynomial is fitted once per π solve. A
candidate x with an entry that is not positive, or one that fails the check,
is corrected: GMRES solves A d = c 1 − A x to a tolerance 100 times below
both the last one and that residual, and x + d is the next candidate.
Entries are never clamped: when a correction does not bring the residual
below the tolerance it was solved to, the reachable floor is met, and the
solve fails with a message that names the entry. When GMRES stagnates (see
:class:`dpinv.errors.GmresStagnationError`), as restarted GMRES can on
nearly reducible chains, subspace iteration at width 30 takes over.

An explicit block width ``ell`` selects blocked subspace iteration instead.
Each round is textbook subspace iteration: apply Pᵀ to an orthonormal block
q, take the candidate π from a Rayleigh–Ritz step (q y, where y is the
eigenvector of the small matrix qᵀPᵀq whose eigenvalue is real and nearest
1), and orthonormalize Pᵀq by Householder QR for the next round. QR keeps an
orthonormal block even when Pᵀq is rank deficient, and the candidate does not
feed back into the block. The block width must exceed the period of the chain
for the Ritz direction to settle; widths are clamped to the state count, at
which point the step is exact. A round costs width + 1 products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GmresNonConvergenceError, GmresStagnationError, NumericalError
from .krylov import GmresConfig, gmres_block, gmres_poly
from .sparse import MvCounter, SparseMatrix, matvec_transpose, row_sums

_SEED_STREAM_START_BLOCK = 3
# Residual cut asked of each correction of a rejected candidate.
_RETRY_FACTOR = 100.0
# Block width of the subspace iteration that takes over when GMRES stagnates.
_FALLBACK_WIDTH = 30


@dataclass
class SubspaceConfig:
    # None solves π by shifted GMRES; an integer selects subspace iteration
    # with that fixed block width, clamped to the state count
    ell: int | None = None
    tol: float = 1e-9           # tolerance on ‖Pᵀπ − π‖₂
    # GMRES restart cycles per solve, and subspace rounds with ell or after
    # GMRES stagnates
    max_iterations: int = 10000
    seed: int = 0               # start block of subspace iteration; unused by GMRES

    def __post_init__(self) -> None:
        if self.ell is not None and self.ell < 2:
            raise ValueError("ell must be at least 2")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class StationaryResult:
    pi: np.ndarray
    residual: float
    iterations: int             # GMRES restart cycles plus subspace rounds
    mv_count: int
    wall_time: float
    # GMRES restart length, the most basis vectors a cycle builds; or the
    # subspace block width when subspace iteration ran
    width: int
    # the solver that gave π: "gmres", "subspace" (an explicit ell),
    # "gmres+subspace" (GMRES stagnated and subspace iteration finished), or
    # "none" for a one-state chain
    path: str
    # GMRES residual ‖c 1 − A x‖₂ after each cycle, then ‖Pᵀπ − π‖₂ after
    # each subspace round
    residual_history: np.ndarray = field(repr=False, default=None)


def stationary_residual(p: SparseMatrix, x: np.ndarray,
                        counter: MvCounter | None = None) -> float:
    """‖Pᵀx − x‖₂, the defect of x as a stationary candidate."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(matvec_transpose(p, x, counter) - x))


def _validate_stochastic(p: SparseMatrix) -> None:
    if p.n_rows != p.n_cols:
        raise ValueError("transition matrix must be square")
    rs = row_sums(p)
    bad = np.abs(rs - 1.0)
    if bad.max() > 1e-10:
        raise ValueError(
            f"row {int(bad.argmax())} sums to {rs[bad.argmax()]:.12f}, not 1")
    if p.values.size and p.values.min() < 0:
        raise ValueError("transition probabilities must be nonnegative")


def _start_block(n: int, ell: int, rng: np.random.Generator) -> np.ndarray:
    # strictly positive first column guarantees overlap with the stationary
    # direction; the rest is generic
    x = np.empty((n, ell))
    x[:, 0] = rng.uniform(0.5, 1.5, size=n)
    if ell > 1:
        x[:, 1:] = rng.standard_normal((n, ell - 1))
    return x


def _ritz_vector(b: np.ndarray) -> np.ndarray:
    """Unit eigenvector of b whose eigenvalue is real and nearest 1.

    An eigenvalue within 1e-9·max(1, max|b|) of the real axis counts as
    real. With none real, some eigenvector's real part is returned: the
    candidate built from it must still pass the residual check, and the
    next block does not depend on it.
    """
    evals, vecs = np.linalg.eig(b)
    real = np.abs(evals.imag) <= 1e-9 * max(1.0, float(np.abs(b).max()))
    pick = np.argmin(np.where(real, np.abs(evals.real - 1.0), np.inf))
    return vecs[:, pick].real


def stationary_distribution(p: SparseMatrix,
                            cfg: SubspaceConfig | None = None) -> StationaryResult:
    """Stationary distribution π of a row-stochastic, irreducible P.

    Returns π with positive entries summing to 1 and ‖Pᵀπ − π‖₂ ≤ tol.
    Raises :class:`NumericalError` when the solve fails: with ``cfg.ell``
    left at None when GMRES reaches its restart-cycle cap or cannot reach a
    tolerance that gives positive entries, or its subspace fallback fails;
    and with an explicit ``ell`` when the round cap is reached, which for a
    valid chain usually means the block width does not exceed the chain's
    period.
    """
    if cfg is None:
        cfg = SubspaceConfig()
    _validate_stochastic(p)
    t0 = time.perf_counter()
    if p.n_rows == 1:
        return StationaryResult(np.ones(1), 0.0, 0, 0, time.perf_counter() - t0,
                                1, "none", np.zeros(0))
    counter = MvCounter()
    solve = _shifted_gmres if cfg.ell is None else _subspace_iteration
    pi, res, iterations, width, history, path = solve(p, cfg, counter)
    return StationaryResult(pi, res, iterations, counter.count,
                            time.perf_counter() - t0, width, path, np.array(history))


def _shifted_gmres(p: SparseMatrix, cfg: SubspaceConfig, counter: MvCounter):
    """π from (I − Pᵀ + c 1 1ᵀ) x = c 1 by GMRES; see the module docstring."""
    n = p.n_rows
    c = 1.0 / n

    def apply(z):
        return z - matvec_transpose(p, z, counter) + c * z.sum(axis=0)

    b = np.full((n, 1), c)
    gcfg = GmresConfig(tol=0.5 * cfg.tol, max_outer=cfg.max_iterations)
    poly = gmres_poly(apply, n)
    x, r = np.zeros(n), b
    cycles, history, rejected = 0, [], None
    while True:
        try:
            d, (rep,) = gmres_block(apply, r, gcfg, poly)
        except GmresStagnationError as exc:
            history += list(exc.report.residual_history[1:])
            return _fallback(p, cfg, counter, cycles + exc.report.outer_iterations,
                             history, exc)
        except GmresNonConvergenceError as exc:
            if rejected is None:
                raise NumericalError(f"stationary solve: {exc}") from exc
            raise NumericalError(
                f"stationary solve: {rejected}, and its correction at GMRES "
                f"tolerance {gcfg.tol:.1e} failed: {exc}") from exc
        cycles += rep.outer_iterations
        history += list(rep.residual_history[1:])
        x += d[:, 0]
        total = x.sum()
        # at a tolerance above ‖c 1‖₂ GMRES returns x = 0, which is rejected
        pi = x / total if total > 0.0 else x
        res = stationary_residual(p, pi, counter)
        if total > 0.0 and pi.min() > 0.0 and res <= cfg.tol:
            return pi, res, cycles, gcfg.restart, history, "gmres"
        j = int(pi.argmin())
        if pi[j] <= 0.0:
            rejected = f"entry {j} of the candidate π is {pi[j]:.3e}"
        else:
            rejected = f"the candidate π has residual {res:.3e} > tol {cfg.tol:.1e}"
        # solve for the correction from the residual x leaves, at a tighter
        # tolerance, rather than for x again from zero
        r = b - apply(x[:, None])
        rnorm = float(np.linalg.norm(r))
        if not 0.0 < rnorm < gcfg.tol:
            raise NumericalError(
                f"stationary solve: {rejected}, and no correction can help (its "
                f"residual is {rnorm:.3e} against GMRES tolerance {gcfg.tol:.1e}): "
                "a tighter tolerance is below the reachable floor")
        gcfg = GmresConfig(tol=min(gcfg.tol, rnorm) / _RETRY_FACTOR,
                           max_outer=cfg.max_iterations)


def _fallback(p: SparseMatrix, cfg: SubspaceConfig, counter: MvCounter,
              cycles: int, history: list, stall: GmresStagnationError):
    """π by subspace iteration at width _FALLBACK_WIDTH once GMRES stagnated."""
    sub = replace(cfg, ell=_FALLBACK_WIDTH)
    try:
        pi, res, rounds, width, rounds_history, _ = _subspace_iteration(p, sub, counter)
    except NumericalError as exc:
        raise NumericalError(f"stationary solve: GMRES {stall}, and the subspace "
                             f"fallback failed: {exc}") from exc
    return pi, res, cycles + rounds, width, history + rounds_history, "gmres+subspace"


def _subspace_iteration(p: SparseMatrix, cfg: SubspaceConfig, counter: MvCounter):
    """π by fixed-width blocked subspace iteration; see the module docstring."""
    n = p.n_rows
    width = min(cfg.ell, n)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([cfg.seed, _SEED_STREAM_START_BLOCK])))
    q = np.linalg.qr(_start_block(n, width, rng))[0]
    history: list[float] = []
    for iteration in range(1, cfg.max_iterations + 1):
        w = matvec_transpose(p, q, counter)
        lead = q @ _ritz_vector(q.T @ w)
        if lead.sum() < 0.0:
            lead = -lead
        total = lead.sum()
        positive = bool(lead.min() > 0.0) and total > 0.0
        candidate = lead / total if positive else lead / np.linalg.norm(lead)
        res = stationary_residual(p, candidate, counter)
        history.append(res)
        if positive and res <= cfg.tol:
            return candidate, res, iteration, width, history, "subspace"
        q = np.linalg.qr(w)[0]
    raise NumericalError(
        f"stationary iteration did not converge in {cfg.max_iterations} rounds "
        f"(last residual {history[-1]:.3e}); the block width {width} may "
        "not exceed the chain's period, or the chain may be nearly reducible")
