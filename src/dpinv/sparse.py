"""Compressed sparse row matrices, digraphs, and the operations built on them.

Storage is row-compressed only, validated here and held in a scipy CSR array
that shares the same three arrays. Assembly from coordinates, the
canonical-order check, dense conversion, the diagonal and products all run on
scipy.sparse; products with the transpose use its transposed (CSC) view, which
scatters over the same storage instead of materializing a second matrix.
Matrices and graphs are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_array, csc_array, csr_array
from scipy.sparse.csgraph import breadth_first_order

from .errors import InputError


class MvCounter:
    """Counts matrix-vector products. Incremented once per product."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, k: int = 1) -> None:
        self.count += k

    def __repr__(self) -> str:  # pragma: no cover
        return f"MvCounter(count={self.count})"


@dataclass
class SparseMatrix:
    """CSR matrix with float64 values and int64 indices.

    Within each row the column indices are strictly increasing; duplicate
    coordinates must be merged before construction (``from_coo`` does this).
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.row_offsets = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(self.col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if self.row_offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.col_indices.shape[0]:
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if self.col_indices.shape != self.values.shape:
            raise ValueError("col_indices and values must have equal length")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
        # scipy's canonical format: strictly increasing columns within each
        # row, which also rules out duplicates
        if not self.csr.has_canonical_format:
            raise ValueError("columns within a row must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix values must be finite")

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """Row index of each stored entry."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         np.diff(self.row_offsets))

    @cached_property
    def csr(self) -> csr_array:
        """The same storage as a scipy CSR array; no array is copied."""
        return csr_array((self.values, self.col_indices, self.row_offsets),
                         shape=(self.n_rows, self.n_cols), copy=False)

    @cached_property
    def csr_t(self) -> csc_array:
        """Transposed view of :attr:`csr`, built once per matrix."""
        return self.csr.T

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, vals) -> "SparseMatrix":
        """Build from coordinate triplets, merging duplicates by summation."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        merged = coo_array((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
        return cls(n_rows, n_cols, merged.indptr, merged.indices, merged.data)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(a) > 0.0)
        return cls.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def diagonal(self) -> np.ndarray:
        if self.n_rows != self.n_cols:
            raise ValueError("diagonal requires a square matrix")
        return self.csr.diagonal()


def _as_vector(x, n: int) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
    return x


def _product(a, x, n: int, counter: MvCounter | None) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = a @ (x if x.ndim == 2 and x.shape[0] == n else _as_vector(x, n))
    if counter is not None:
        counter.add(1 if x.ndim == 1 else x.shape[1])
    return out


def matvec(m: SparseMatrix, x, counter: MvCounter | None = None) -> np.ndarray:
    """y = M x for a vector, or for each column of an (n, k) block in one
    sparse product. Increments `counter` by one per column when supplied."""
    return _product(m.csr, x, m.n_cols, counter)


def matvec_transpose(m: SparseMatrix, x, counter: MvCounter | None = None) -> np.ndarray:
    """y = Mᵀ x without forming the transpose, for a vector or an (n, k)
    block as in :func:`matvec`. Increments `counter` by one per column."""
    return _product(m.csr_t, x, m.n_rows, counter)


def scale_rows_cols(m: SparseMatrix, left, right) -> SparseMatrix:
    """Diag(left) · M · Diag(right) as a new matrix with the same pattern."""
    left = _as_vector(left, m.n_rows)
    right = _as_vector(right, m.n_cols)
    if np.any(left <= 0) or np.any(right <= 0):
        raise ValueError("scale vectors must be strictly positive")
    vals = m.values * left[m.entry_rows] * right[m.col_indices]
    return SparseMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices, vals)


def row_sums(m: SparseMatrix) -> np.ndarray:
    return m.csr @ np.ones(m.n_cols)


def col_sums(m: SparseMatrix) -> np.ndarray:
    return m.csr_t @ np.ones(m.n_rows)


@dataclass
class Digraph:
    """Weighted directed graph as parallel arc arrays (weights > 0)."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    evaporating_node: int | None = None

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        self.weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        if not (self.src.shape == self.dst.shape == self.weight.shape):
            raise InputError("arc arrays must have equal length")
        if self.n <= 0:
            raise InputError("graph must have at least one node")
        if self.src.size:
            lo = min(self.src.min(), self.dst.min())
            hi = max(self.src.max(), self.dst.max())
            if lo < 0 or hi >= self.n:
                raise InputError("arc endpoint out of range")
        if np.any(~np.isfinite(self.weight)) or np.any(self.weight <= 0):
            raise InputError("arc weights must be finite and strictly positive")

    @property
    def arc_count(self) -> int:
        return int(self.src.shape[0])

    def adjacency(self) -> SparseMatrix:
        """Weighted adjacency matrix; duplicate arcs merge by weight sum."""
        return SparseMatrix.from_coo(self.n, self.n, self.src, self.dst, self.weight)


def strong_connectivity_certificate(g: Digraph, a: SparseMatrix | None = None
                                    ) -> tuple[int, int] | None:
    """None when strongly connected, else a pair (i, j) with no i -> j path.

    The pair is (0, j) for the first node j not reachable from node 0, else
    (i, 0) for the first node i that cannot reach node 0. ``a`` is g's
    adjacency when the caller has already built it.
    """
    if a is None:
        a = g.adjacency()
    for adj, forward in ((a.csr, True), (a.csr_t, False)):
        seen = np.zeros(g.n, dtype=bool)
        seen[breadth_first_order(adj, 0, return_predecessors=False)] = True
        if not seen.all():
            j = int(np.nonzero(~seen)[0][0])
            return (0, j) if forward else (j, 0)
    return None


def is_strongly_connected(g: Digraph) -> bool:
    return strong_connectivity_certificate(g) is None


def build_transition(g: Digraph, a: SparseMatrix | None = None
                     ) -> tuple[SparseMatrix, np.ndarray]:
    """Row-stochastic transition matrix P = D⁻¹A and the out-degree vector d.

    ``a`` is g's adjacency when the caller has already built it.
    """
    if a is None:
        a = g.adjacency()
    d = row_sums(a)
    dead = np.nonzero(d <= 0)[0]
    if dead.size:
        raise InputError(f"node {int(dead[0])} has zero out-degree")
    vals = a.values / d[a.entry_rows]
    p = SparseMatrix(g.n, g.n, a.row_offsets, a.col_indices, vals)
    return p, d
