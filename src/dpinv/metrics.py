"""Random-walk metrics evaluated from pseudo-inverse entries.

Each metric is one affine formula in N and w = N π. N is M = L⁺ itself for
the "r" Laplacian of a strongly connected chain and Π^{-1/2} M Π^{-1/2} for
the "d" one, Π = Diag(π). For kind "d" w is 0, so a metric reads only the
columns its query names; for kind "r" w needs every column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingColumnsError
from .sparse import Digraph

CLAMP_TOL = 1e-9


@dataclass
class PinvBlock:
    """A set of pseudo-inverse columns with the data needed to read metrics."""

    kind: str
    pi: np.ndarray
    columns: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("r", "d"):
            raise ValueError("metrics read kind 'r' or 'd' pseudo-inverses")
        self.pi = np.asarray(self.pi, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    @classmethod
    def from_full(cls, kind: str, pi: np.ndarray, m: np.ndarray) -> "PinvBlock":
        m = np.asarray(m, dtype=np.float64)
        cols = {j: m[:, j].copy() for j in range(m.shape[1])}
        return cls(kind, pi, cols)

    def entry(self, i: int, j: int) -> float:
        col = self.columns.get(j)
        if col is None:
            raise MissingColumnsError(
                f"column {j} of the {self.kind}-kind pseudo-inverse was not "
                "computed; request it first")
        return float(col[i])

    def full_matrix(self) -> np.ndarray:
        missing = [j for j in range(self.n) if j not in self.columns]
        if missing:
            raise MissingColumnsError(
                f"full matrix requires every column; missing {missing[:8]}"
                f"{'...' if len(missing) > 8 else ''}")
        m = np.empty((self.n, self.n))
        for j in range(self.n):
            m[:, j] = self.columns[j]
        return m


def _clamp_nonneg(value: float, what: str) -> float:
    if value >= 0.0:
        return value
    if value < -CLAMP_TOL:
        warnings.warn(f"{what} = {value:.3e} clamped to 0; this exceeds the "
                      f"noise floor {CLAMP_TOL:.0e} and may indicate an "
                      "unconverged solve", stacklevel=3)
    return 0.0


def _root(block: PinvBlock, idx) -> np.ndarray:
    """r[idx] in N_ij = M_ij / (r_i r_j): √π for kind "d", 1 for kind "r"."""
    pi = block.pi[idx]
    return np.sqrt(pi) if block.kind == "d" else np.ones_like(pi)


def _n_entry(block: PinvBlock, i: int, j: int) -> float:
    return block.entry(i, j) / _root(block, i) / _root(block, j)


def _w(block: PinvBlock) -> np.ndarray:
    """w = N π. For kind "d" it is exactly 0, since √π spans both null
    spaces of L_d⁺, so no column is read; for kind "r" it needs them all."""
    if block.kind == "d":
        return np.zeros(block.n)
    return block.full_matrix() @ block.pi


def hitting_time(block: PinvBlock, i: int, k: int) -> float:
    """Expected steps from i to the first arrival at k."""
    if i == k:
        return 0.0
    w = _w(block)
    return float(_n_entry(block, k, k) - _n_entry(block, i, k) + w[i] - w[k])


def commute_time(block: PinvBlock, i: int, k: int) -> float:
    """Expected round-trip steps i -> k -> i. Needs columns i and k only."""
    if i == k:
        return 0.0
    return float(_n_entry(block, i, i) + _n_entry(block, k, k)
                 - _n_entry(block, i, k) - _n_entry(block, k, i))


def visits(block: PinvBlock, i: int, j: int, k: int) -> float:
    """Expected number of visits to j on a walk from i absorbed at k.

    The occupancy at the start counts (so visits(j, j, k) >= 1); arrival at
    k ends the walk before it is counted.
    """
    raw = (_n_entry(block, i, j) - _n_entry(block, k, j)
           - _n_entry(block, i, k) + _n_entry(block, k, k)) * block.pi[j]
    return _clamp_nonneg(float(raw), f"visits({i},{j},{k})")


def pass_probability(block: PinvBlock, i: int, j: int, k: int) -> float:
    """Probability a walk from i reaches j before absorption at k."""
    if j == k:
        raise ValueError("pass probability to the absorbing node is undefined")
    num = visits(block, i, j, k)
    den = visits(block, j, j, k)
    if den <= 0.0:
        raise ValueError(f"visits({j},{j},{k}) must be at least 1; got {den}")
    return float(min(max(num / den, 0.0), 1.0))


def kemeny_constant(block: PinvBlock) -> float:
    """The Kemeny constant: pi-weighted mean hitting time from any start."""
    pi = block.pi
    r = _root(block, slice(None))
    diag = np.array([block.entry(j, j) for j in range(block.n)]) / r / r
    return float(pi @ diag - pi @ _w(block))


def visits_matrix(block: PinvBlock, k: int) -> np.ndarray:
    """All visit counts against absorbing node k, as a matrix V[i, j]."""
    v = block.full_matrix()  # a fresh array: N and then V are built in place
    r = _root(block, slice(None))
    v /= r[:, None]
    v /= r
    row, col, corner = v[k].copy(), v[:, k].copy(), v[k, k]
    v -= row
    v -= col[:, None]
    v += corner
    v *= block.pi
    bad = v < -CLAMP_TOL
    if bad.any():
        i, j = np.argwhere(bad)[0]
        warnings.warn(f"visits({int(i)},{int(j)},{k}) = {v[i, j]:.3e} clamped "
                      "to 0; may indicate an unconverged solve", stacklevel=2)
    return np.maximum(v, 0.0, out=v)


def augment_evaporating(g: Digraph, gamma: float,
                        restart: np.ndarray | None = None) -> Digraph:
    """Add an evaporating node that every walk leaks into at rate gamma.

    Each node keeps its arcs at weight (1 - gamma) w and gains an arc into
    the new node carrying gamma of its weight; a node with no outgoing arcs
    sends everything there. The new node restarts the walk according to
    ``restart`` (uniform over the original nodes by default).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    n = g.n
    if restart is None:
        restart = np.ones(n)
    restart = np.asarray(restart, dtype=np.float64)
    if restart.shape != (n,) or np.any(restart < 0) or restart.sum() <= 0:
        raise ValueError("restart must be a nonnegative distribution over "
                         "the original nodes with positive total mass")
    d = np.bincount(g.src, weights=g.weight, minlength=n)
    live = d > 0
    src = [g.src, np.nonzero(live)[0], np.nonzero(~live)[0]]
    dst = [g.dst, np.full(int(live.sum()), n), np.full(int((~live).sum()), n)]
    wgt = [g.weight * (1.0 - gamma), gamma * d[live], np.ones(int((~live).sum()))]
    keep = restart > 0
    src.append(np.full(int(keep.sum()), n))
    dst.append(np.nonzero(keep)[0])
    wgt.append(restart[keep])
    return Digraph(n + 1,
                   np.concatenate(src).astype(np.int64),
                   np.concatenate(dst).astype(np.int64),
                   np.concatenate(wgt),
                   evaporating_node=n)


def _require_evaporating(block: PinvBlock, absorbing: int) -> None:
    if not 0 <= absorbing < block.n:
        raise ValueError(f"absorbing node {absorbing} out of range")


def influence_scores(block: PinvBlock, absorbing: int) -> np.ndarray:
    """Per-node influence on an evaporating chain.

    influence(j) sums, over all start nodes i, the probability that a walk
    from i passes through j before evaporating. Requires the full matrix of
    the augmented chain; ``absorbing`` is the evaporating node index.
    """
    _require_evaporating(block, absorbing)
    v = visits_matrix(block, absorbing)
    v[absorbing] = 0.0  # no walk starts at the evaporating node
    den = v.diagonal().copy()
    den[absorbing] = 1.0  # its column is dropped below
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        raise ValueError(f"visits({int(bad[0])},{int(bad[0])},{absorbing}) "
                         "must be at least 1")
    v /= den
    np.minimum(v, 1.0, out=v)
    return np.delete(v.sum(axis=0), absorbing)


def trust_score(block: PinvBlock, i: int, j: int, absorbing: int) -> float:
    """Probability that a walk from i reaches j before evaporating."""
    _require_evaporating(block, absorbing)
    if i == absorbing or j == absorbing:
        raise ValueError("trust is defined between original nodes only")
    return pass_probability(block, i, j, absorbing)
