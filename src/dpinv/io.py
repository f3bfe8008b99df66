"""Readers and writers for graphs, matrices, column blocks, and vectors.

Formats:

* Edge list: one arc per line, ``src<TAB>dst<TAB>weight`` with 0-based ids.
  The weight is optional (default 1.0) and ``#`` starts a comment.
* Matrix Market: coordinate format, 1-based indices, converted on read.
* Column blocks: CSV (row-major, 17 significant digits) or a raw stream of
  little-endian float64 values preceded by an 8-byte header (two little-endian
  uint32 words: row count, column count).
* Vectors: plain text, one value per line.

Edge lists and the entry blocks of general Matrix Market files are parsed in
one ``np.loadtxt`` pass; an input that pass refuses, or that fails a reader's
checks, is read again line by line, which alone reports ``file:line``
errors. Both routes accept the same inputs and return the same arrays.
Symmetric Matrix Market files and index triplet files are read line by line.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

from .errors import InputError
from .sparse import Digraph, SparseMatrix

_FMT = "%.17g"
# Bytes of float64 values formatted by one operation of the text writers.
_WRITE_BYTES = 1 << 16

# Row layouts of the one-pass parse: two int64 ids, then an optional value.
_IDS = np.dtype([("i", np.int64), ("j", np.int64)])
_IDS_VALUE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _load_table(fh, dtypes, comments=None, max_rows=None) -> np.ndarray | None:
    """The rest of text file ``fh`` parsed by one ``np.loadtxt`` call into
    rows of the first of ``dtypes`` that every line fits; ``fh`` is left
    where it was.

    Returns None when the text does not decode or is not ASCII, or when
    numpy refuses it or warns about it (no data; a blank line among the first
    ``max_rows``). The caller then reads it with its per-line loop.
    Non-ASCII text always goes that way: numpy's integer parser reads some
    non-ASCII characters as digits ("\u01ff0" is 4630) where ``int`` refuses
    them. On ASCII text its whitespace, comment and number rules are those
    of ``str.split``, ``int`` and ``float``.
    """
    start = fh.tell()
    try:
        ascii_only = fh.read().isascii()
    except UnicodeDecodeError:  # the per-line loop raises it from its own line
        return None
    finally:
        fh.seek(start)
    if not ascii_only:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dtype in dtypes:
            try:
                return np.loadtxt(fh, dtype=dtype, comments=comments,
                                  max_rows=max_rows, ndmin=1)
            except (ValueError, Warning):
                pass
            finally:
                fh.seek(start)
    return None


def read_edge_list(path) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        table = _load_table(fh, (_IDS_VALUE, _IDS), comments="#")
    if (table is None or len(table) == 0
            or min(table["i"].min(), table["j"].min()) < 0):
        return _read_edge_list_lines(path)
    src, dst = table["i"], table["j"]
    wgt = table["v"] if "v" in table.dtype.names else np.ones(len(table))
    return Digraph(int(max(src.max(), dst.max())) + 1, src, dst, wgt)


def _read_edge_list_lines(path) -> Digraph:
    src: list[int] = []
    dst: list[int] = []
    wgt: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise InputError(f"{path}:{lineno}: expected 'src dst [weight]'")
            try:
                s, t = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            if s < 0 or t < 0:
                raise InputError(f"{path}:{lineno}: negative node id in '{line}'")
            src.append(s)
            dst.append(t)
            wgt.append(w)
    if not src:
        raise InputError(f"{path}: no arcs found")
    n = max(max(src), max(dst)) + 1
    return Digraph(n, np.array(src), np.array(dst), np.array(wgt))


def write_edge_list(g: Digraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s, t, w in zip(g.src, g.dst, g.weight):
            fh.write(f"{s}\t{t}\t{_FMT % w}\n")


def read_matrix_market(path) -> SparseMatrix:
    """Matrix Market coordinate reader (real/integer/pattern, general/symmetric)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise InputError(f"{path}: missing MatrixMarket header")
        tokens = header.lower().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise InputError(f"{path}: only coordinate matrices are supported")
        value_type, symmetry = tokens[3], tokens[4]
        if value_type not in ("real", "integer", "pattern"):
            raise InputError(f"{path}: unsupported value type {value_type!r}")
        if symmetry not in ("general", "symmetric"):
            raise InputError(f"{path}: unsupported symmetry {symmetry!r}")
        lineno, line = 2, fh.readline()
        while line and line.lstrip().startswith("%"):
            lineno, line = lineno + 1, fh.readline()
        try:
            n_rows, n_cols, nnz = (int(v) for v in line.split())
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad size line") from exc
        if min(n_rows, n_cols, nnz) < 0:
            raise InputError(f"{path}:{lineno}: bad size line")
        table = None
        if symmetry == "general":
            table = _load_table(fh, (_IDS if value_type == "pattern" else _IDS_VALUE,),
                                max_rows=nnz)
        if (table is None or len(table) != nnz or nnz == 0
                or table["i"].min() < 1 or table["i"].max() > n_rows
                or table["j"].min() < 1 or table["j"].max() > n_cols):
            return _read_mm_entries_lines(fh, path, lineno, n_rows, n_cols, nnz,
                                          value_type, symmetry)
    rows, cols = table["i"] - 1, table["j"] - 1
    vals = table["v"] if value_type != "pattern" else np.ones(nnz)
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def _read_mm_entries_lines(fh, path, lineno, n_rows, n_cols, nnz, value_type,
                           symmetry) -> SparseMatrix:
    """The ``nnz`` entry lines after the size line (line ``lineno``)."""
    want = "row col" if value_type == "pattern" else "row col value"
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for lineno in range(lineno + 1, lineno + 1 + nnz):
        parts = fh.readline().split()
        if not parts:
            raise InputError(f"{path}:{lineno}: truncated entry list")
        if len(parts) < len(want.split()):
            raise InputError(f"{path}:{lineno}: expected '{want}'")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            v = float(parts[2]) if value_type != "pattern" else 1.0
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise InputError(f"{path}:{lineno}: index ({i + 1}, {j + 1}) outside "
                             f"the {n_rows} x {n_cols} matrix")
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def write_matrix_market(m: SparseMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{m.n_rows} {m.n_cols} {m.nnz}\n")
        for r, c, v in zip(m.entry_rows, m.col_indices, m.values):
            fh.write(f"{r + 1} {c + 1} {_FMT % v}\n")


def read_matrix_auto(path) -> SparseMatrix:
    """Detect Matrix Market by header; otherwise read whitespace triplets.

    Triplet files are 0-based ``row col value`` lines; dimensions are inferred
    from the largest index, so every trailing row/column must be touched.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith("%%MatrixMarket"):
        return read_matrix_market(path)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 'row col value'")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            if i < 0 or j < 0:
                raise InputError(f"{path}:{lineno}: negative index in '{line}'")
            rows.append(i)
            cols.append(j)
            vals.append(v)
    if not rows:
        raise InputError(f"{path}: no entries found")
    n = max(max(rows), max(cols)) + 1
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


def graph_from_matrix(m: SparseMatrix) -> Digraph:
    if m.n_rows != m.n_cols:
        raise InputError("adjacency matrix must be square")
    return Digraph(m.n_rows, m.entry_rows.copy(), m.col_indices.copy(),
                   m.values.copy())


def load_graph(path) -> Digraph:
    """Edge list or Matrix Market adjacency, detected by header."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith("%%MatrixMarket"):
        return graph_from_matrix(read_matrix_market(path))
    return read_edge_list(path)


def _write_rows(fh, block: np.ndarray) -> None:
    """Write the rows of a 2-D block, comma separated, or a vector one value
    per line, as "%.17g" text: one format operation per slice of about
    ``_WRITE_BYTES`` of values, so the text is never built whole."""
    block = np.asarray(block, dtype=np.float64)
    width = block.shape[1] if block.ndim == 2 else 1
    row = ",".join([_FMT] * width) + "\n"
    step = max(1, _WRITE_BYTES // (8 * max(width, 1)))
    for k in range(0, len(block), step):
        chunk = block[k:k + step]
        fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_columns_csv(block: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, np.atleast_2d(block))


def read_columns_csv(path) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty column block")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{path}: ragged rows in column block")
    return np.array(rows)


_RAW_HEADER = struct.Struct("<II")


def write_columns_raw(block: np.ndarray, path) -> None:
    # a no-op on a C-ordered little-endian float64 block, else one copy
    block = np.ascontiguousarray(np.atleast_2d(block), dtype="<f8")
    n, k = block.shape
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(n, k))
        fh.write(block.data)


def read_columns_raw(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_RAW_HEADER.size)
        if len(head) != _RAW_HEADER.size:
            raise InputError(f"{path}: truncated header")
        n, k = _RAW_HEADER.unpack(head)
        payload = fh.read()
    expected = n * k * 8
    if len(payload) != expected:
        raise InputError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f8").reshape(n, k).astype(np.float64)


def write_vector(x: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, x)


def read_vector(path) -> np.ndarray:
    vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals.append(float(line))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not vals:
        raise InputError(f"{path}: empty vector file")
    return np.array(vals)
