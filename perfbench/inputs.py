"""Seeded input generators and file writers for the benchmark workloads.

Kept independent of dpinv: a change to the program's own generator must not
change what the benchmark feeds it. Every function takes a numpy Generator,
so the same seed gives byte-identical input files.
"""

from __future__ import annotations

import numpy as np


def pa_digraph(rng: np.random.Generator, n: int, attach: int = 2,
               extra: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Preferential-attachment digraph: a symmetric backbone grown from a
    triangle (so it is strongly connected) plus ``extra`` one-way arcs
    (default n). Returns the (src, dst) arc arrays."""
    if extra is None:
        extra = n
    src = [0, 1, 1, 2, 0, 2]
    dst = [1, 0, 2, 1, 2, 0]
    pool = [0, 1, 1, 2, 0, 2]
    for v in range(3, n):
        chosen: set[int] = set()
        want = min(attach, v)
        while len(chosen) < want:
            chosen.add(pool[int(rng.integers(len(pool)))])
        for t in sorted(chosen):
            src += [v, t]
            dst += [t, v]
            pool += [v, t]
    a = rng.integers(0, n, size=extra)
    b = rng.integers(0, n - 1, size=extra)
    b = b + (b >= a)  # no self-loops among the one-way arcs
    return (np.concatenate([np.asarray(src), a]).astype(np.int64),
            np.concatenate([np.asarray(dst), b]).astype(np.int64))


def two_cluster_digraph(rng: np.random.Generator, n: int,
                        decades: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two preferential-attachment clusters joined by one arc each way, so
    the chain is nearly reducible.

    Arc weights, the two bridge arcs' included, are log-uniform over
    ``decades`` decades centred on 1. Returns (src, dst, weight).
    """
    half = n // 2
    sa, da = pa_digraph(rng, half)
    sb, db = pa_digraph(rng, n - half)
    a = rng.integers(0, half, size=2)
    b = rng.integers(half, n, size=2)
    src = np.concatenate([sa, sb + half, [a[0], b[1]]])
    dst = np.concatenate([da, db + half, [b[0], a[1]]])
    weight = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=src.size)
    return src, dst, weight


def write_edge_list(path, src, dst, weight=None) -> None:
    if weight is None:
        weight = np.ones(len(src))
    table = np.column_stack([src, dst, weight])
    np.savetxt(path, table, fmt=["%d", "%d", "%.17g"], delimiter="\t")


def write_laplacian_mm(path, n: int, src, dst, weight) -> None:
    """Unnormalized Laplacian Diag(d) - A in Matrix Market coordinates,
    with duplicate arcs left as separate entries (readers sum them)."""
    d = np.bincount(src, weights=weight, minlength=n)
    rows = np.concatenate([np.arange(n), src]) + 1
    cols = np.concatenate([np.arange(n), dst]) + 1
    vals = np.concatenate([d, -np.asarray(weight, dtype=np.float64)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n} {n} {rows.size}\n")
        np.savetxt(fh, np.column_stack([rows, cols, vals]),
                   fmt=["%d", "%d", "%.17g"], delimiter=" ")
