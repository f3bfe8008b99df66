"""Stationary distributions of irreducible chains by blocked subspace iteration.

Each round is textbook subspace iteration: apply Pᵀ to an orthonormal block
q, take the candidate π from a Rayleigh–Ritz step (q y, where y is the
eigenvector of the small matrix qᵀPᵀq whose eigenvalue is real and nearest
1), and orthonormalize Pᵀq by Householder QR for the next round. QR keeps an
orthonormal block even when Pᵀq is rank deficient, and the candidate does not
feed back into the block. The block width must exceed the period of the chain
for the Ritz direction to settle; widths are clamped to the state count, at
which point the step is exact.

A fixed width costs width + 1 products per round whether or not the extra
columns speed convergence, and on most chains they do not. So by default the
block starts at width 2 and doubles, up to 30 columns, only when the residual
stops halving. A round stalls when its residual is not below half of the
reference residual; the first round at each width and every round that does
halve it set the reference. After 8 stalled rounds in a row the width doubles
and the new columns are fresh random draws. A periodic chain stalls at any
width up to its period, so it widens until the block exceeds the period.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .sparse import MvCounter, SparseMatrix, matvec_transpose, row_sums

_SEED_STREAM_START_BLOCK = 3
_START_WIDTH = 2
_MAX_WIDTH = 30
_STALL_ROUNDS = 8


@dataclass
class SubspaceConfig:
    # fixed block width, clamped to the state count; None starts at width 2
    # and doubles after _STALL_ROUNDS stalled rounds in a row, up to
    # _MAX_WIDTH columns (see the module docstring)
    ell: int | None = None
    tol: float = 1e-9           # tolerance on ‖Pᵀπ − π‖₂
    max_iterations: int = 10000
    seed: int = 0

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
    iterations: int
    mv_count: int
    wall_time: float
    width: int                  # block width of the last round
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
    Raises :class:`NumericalError` when the iteration cap is reached, which
    for a valid chain usually means the block width does not exceed the
    chain's period. With ``cfg.ell`` left at None the width grows on stalls
    as the module docstring describes.
    """
    if cfg is None:
        cfg = SubspaceConfig()
    _validate_stochastic(p)
    n = p.n_rows
    t0 = time.perf_counter()
    if n == 1:
        return StationaryResult(np.ones(1), 0.0, 0, 0, time.perf_counter() - t0,
                                1, np.zeros(0))
    if cfg.ell is None:
        width, max_width = min(_START_WIDTH, n), min(_MAX_WIDTH, n)
    else:
        width = max_width = min(cfg.ell, n)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([cfg.seed, _SEED_STREAM_START_BLOCK])))
    counter = MvCounter()
    q = np.linalg.qr(_start_block(n, width, rng))[0]
    history: list[float] = []
    ref, stalled = np.inf, 0
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
            return StationaryResult(candidate, res, iteration, counter.count,
                                    time.perf_counter() - t0, width,
                                    np.array(history))
        if res < 0.5 * ref:
            ref, stalled = res, 0
        else:
            stalled += 1
        if stalled == _STALL_ROUNDS and width < max_width:
            grown = min(2 * width, max_width)
            w = np.hstack([w, rng.standard_normal((n, grown - width))])
            width, ref, stalled = grown, np.inf, 0
        q = np.linalg.qr(w)[0]
    raise NumericalError(
        f"stationary iteration did not converge in {cfg.max_iterations} rounds "
        f"(last residual {history[-1]:.3e}); the final block width {width} may "
        "not exceed the chain's period, or the chain may be nearly reducible")
