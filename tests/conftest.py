import numpy as np
import pytest

from dpinv.graphgen import random_graph
from dpinv.sparse import Digraph, SparseMatrix, build_transition


@pytest.fixture
def cycle3():
    """Directed 3-cycle 0 -> 1 -> 2 -> 0, all weights 1."""
    return Digraph(3, np.array([0, 1, 2]), np.array([1, 2, 0]), np.ones(3))


@pytest.fixture
def cycle3_p(cycle3):
    p, _ = build_transition(cycle3)
    return p


@pytest.fixture
def selfloop2():
    """Two nodes: 0 loops on itself or moves to 1; 1 always returns to 0."""
    return Digraph(2, np.array([0, 0, 1]), np.array([0, 1, 0]), np.ones(3))


@pytest.fixture
def selfloop2_p(selfloop2):
    p, _ = build_transition(selfloop2)
    return p


def lazy_cycle(n: int) -> SparseMatrix:
    """P = I/2 + C/2 for the directed n-cycle; aperiodic, slow mixing."""
    rows = np.concatenate([np.arange(n), np.arange(n)])
    cols = np.concatenate([np.arange(n), (np.arange(n) + 1) % n])
    vals = np.concatenate([np.full(n, 0.5), np.full(n, 0.5)])
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


def directed_cycle(n: int) -> SparseMatrix:
    """Pure rotation: period n."""
    return SparseMatrix.from_coo(n, n, np.arange(n), (np.arange(n) + 1) % n,
                                 np.ones(n))


def weak_bridge_graph(seed, n=250, decades=4.0, bridge=1e-3):
    """Two preferential-attachment clusters with arc weights 10^U(-d/2, d/2)
    over ``decades`` decades, joined by one arc each way whose weight is
    scaled by ``bridge``: strongly connected and nearly reducible."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = random_graph(half, extra=half, seed=2 * seed)
    b = random_graph(n - half, extra=n - half, seed=2 * seed + 1)
    u, v = rng.integers(0, half, 2), rng.integers(half, n, 2)
    src = np.concatenate([a.src, b.src + half, [u[0], v[1]]])
    dst = np.concatenate([a.dst, b.dst + half, [v[0], u[1]]])
    weight = 10.0 ** rng.uniform(-decades / 2, decades / 2, src.size)
    weight[-2:] *= bridge
    return Digraph(n, src, dst, weight)
