"""Round-trip and error-path tests for the file formats."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpinv.io
from dpinv.errors import InputError
from dpinv.graphgen import random_graph
from dpinv.io import (
    load_graph,
    read_columns_csv,
    read_columns_raw,
    read_edge_list,
    read_matrix_auto,
    read_matrix_market,
    read_vector,
    write_columns_csv,
    write_columns_raw,
    write_edge_list,
    write_matrix_market,
    write_vector,
)
from dpinv.sparse import Digraph, SparseMatrix


class TestEdgeList:
    def test_roundtrip_exact(self, tmp_path):
        g = random_graph(20, extra=10, seed=60)
        path = tmp_path / "g.tsv"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n == g.n
        np.testing.assert_array_equal(back.src, g.src)
        np.testing.assert_array_equal(back.dst, g.dst)
        np.testing.assert_array_equal(back.weight, g.weight)

    def test_default_weight_and_comments(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# a comment\n0 1\n1 0 2.5  # trailing\n\n")
        g = read_edge_list(path)
        assert g.n == 2
        np.testing.assert_array_equal(g.weight, [1.0, 2.5])

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "g.tsv"
        for text in ("0 1\n0 1 2 3\n", "0 1\n-1 0 1\n"):
            path.write_text(text)
            with pytest.raises(InputError, match=r"g\.tsv:2: "):
                read_edge_list(path)

    def test_non_numeric_reports_position(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0 one\n")
        with pytest.raises(InputError, match=r"g\.tsv:1"):
            read_edge_list(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(InputError, match="no arcs"):
            read_edge_list(path)


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path):
        m = SparseMatrix.from_coo(3, 3, [0, 1, 2, 0], [1, 2, 0, 2],
                                  [1.5, -2.0, 3.25, 0.125])
        path = tmp_path / "m.mtx"
        write_matrix_market(m, path)
        back = read_matrix_market(path)
        np.testing.assert_allclose(back.to_dense(), m.to_dense())

    def test_one_based_indices(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 5.0\n"
            "2 1 -1.0\n")
        m = read_matrix_market(path)
        np.testing.assert_allclose(m.to_dense(), [[5.0, 0.0], [-1.0, 0.0]])

    def test_pattern_and_symmetric(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment line\n"
            "3 3 2\n"
            "2 1\n"
            "3 3\n")
        m = read_matrix_market(path)
        expect = np.zeros((3, 3))
        expect[1, 0] = expect[0, 1] = 1.0
        expect[2, 2] = 1.0
        np.testing.assert_allclose(m.to_dense(), expect)

    def test_rejects_unknown_formats(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(InputError, match="coordinate"):
            read_matrix_market(path)
        path.write_text("%%MatrixMarket matrix coordinate complex general\n")
        with pytest.raises(InputError, match="value type"):
            read_matrix_market(path)
        path.write_text("not a header\n")
        with pytest.raises(InputError, match="header"):
            read_matrix_market(path)

    @pytest.mark.parametrize("size,entry,message", [
        ("2 3 2", "2 3", r"m\.mtx:4: expected 'row col value'"),
        ("2 3 2", "2 x 1.0", r"m\.mtx:4: invalid literal"),
        ("2 3 2", "3 1 1.0", r"m\.mtx:4: index \(3, 1\) outside the 2 x 3 matrix"),
        ("-3 3 2", "1 2 1.0", r"m\.mtx:3: bad size line"),
        ("3 3 -1", "1 2 1.0", r"m\.mtx:3: bad size line"),
    ], ids=["no-value", "bad-index", "out-of-range", "negative-size", "negative-count"])
    def test_bad_entry_reports_position(self, tmp_path, size, entry, message):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            f"{size}\n"
            f"{entry}\n"
            "1 1 5.0\n")
        with pytest.raises(InputError, match=message):
            read_matrix_market(path)

    def test_truncated_entries(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 5.0\n")
        with pytest.raises(InputError, match="truncated"):
            read_matrix_market(path)


class TestMatrixAuto:
    def test_detects_matrix_market(self, tmp_path):
        path = tmp_path / "m.any"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "2 2 7.0\n")
        m = read_matrix_auto(path)
        assert m.to_dense()[1, 1] == 7.0

    def test_reads_zero_based_triplets(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# triplets\n0 0 2.0\n1 0 -1.0\n1 1 2.0\n0 1 -1.0\n")
        m = read_matrix_auto(path)
        np.testing.assert_allclose(m.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_bad_triplet_line(self, tmp_path):
        path = tmp_path / "m.txt"
        for text, where in (("0 0\n", 1), ("0 0 1.0\n-1 1 -1.0\n", 2)):
            path.write_text(text)
            with pytest.raises(InputError, match=rf"m\.txt:{where}: "):
                read_matrix_auto(path)


class TestLoadGraph:
    def test_from_edge_list(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0 1 2.0\n1 0 1.0\n")
        g = load_graph(path)
        assert g.n == 2 and g.arc_count == 2

    def test_from_matrix_market(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.0\n"
            "2 1 3.0\n")
        g = load_graph(path)
        assert g.n == 2
        np.testing.assert_allclose(g.adjacency().to_dense(), [[0, 1], [3, 0]])


class TestColumnBlocks:
    def test_csv_roundtrip_17_digits(self, tmp_path):
        rng = np.random.default_rng(61)
        block = rng.normal(size=(7, 3))
        path = tmp_path / "b.csv"
        write_columns_csv(block, path)
        back = read_columns_csv(path)
        # 17 significant digits reproduce float64 exactly
        np.testing.assert_array_equal(back, block)

    def test_csv_ragged_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InputError, match="ragged"):
            read_columns_csv(path)

    def test_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("\n")
        with pytest.raises(InputError, match="empty"):
            read_columns_csv(path)

    def test_raw_roundtrip_bitwise(self, tmp_path):
        # values exact in float32, so every layout and width writes the same
        # float64 stream
        rng = np.random.default_rng(62)
        block = rng.normal(size=(11, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "b.raw"
        for given in (block, np.asfortranarray(block), block.astype(np.float32)):
            write_columns_raw(given, path)
            back = read_columns_raw(path)
            assert back.dtype == np.float64 and back.flags.c_contiguous
            np.testing.assert_array_equal(back, block)

    def test_raw_vector_promoted(self, tmp_path):
        path = tmp_path / "v.raw"
        write_columns_raw(np.array([1.0, 2.0, 3.0]), path)
        back = read_columns_raw(path)
        assert back.shape == (1, 3)

    def test_raw_truncation_detected(self, tmp_path):
        path = tmp_path / "b.raw"
        write_columns_raw(np.ones((4, 2)), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(InputError, match="payload"):
            read_columns_raw(path)
        path.write_bytes(data[:4])
        with pytest.raises(InputError, match="header"):
            read_columns_raw(path)


class TestVectors:
    def test_roundtrip_exact(self, tmp_path):
        x = np.array([1.0 / 3.0, -2.5e-17, 7.0])
        path = tmp_path / "v.txt"
        write_vector(x, path)
        np.testing.assert_array_equal(read_vector(path), x)

    def test_comments_and_errors(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# pi\n0.25\n0.75\n")
        np.testing.assert_allclose(read_vector(path), [0.25, 0.75])
        path.write_text("abc\n")
        with pytest.raises(InputError, match=r"v\.txt:1"):
            read_vector(path)
        path.write_text("")
        with pytest.raises(InputError, match="empty"):
            read_vector(path)


class TestTextWriters:
    """The text writers format a slice of values at a time; the bytes are
    those of formatting one value at a time."""

    @pytest.mark.parametrize("write_bytes", [64, 1 << 16])
    def test_tall_and_wide_blocks_byte_identical(self, tmp_path, monkeypatch,
                                                 write_bytes):
        monkeypatch.setattr(dpinv.io, "_WRITE_BYTES", write_bytes)
        rng = np.random.default_rng(64)
        tall = rng.standard_normal((3001, 7)) * 10.0 ** rng.integers(-300, 300, (3001, 7))
        tall[:3, 0] = [np.nan, -np.inf, -0.0]
        wide = rng.standard_normal((2, 9001))
        path = tmp_path / "b.csv"
        for block in (tall, wide):
            write_columns_csv(block, path)
            assert path.read_text() == "".join(
                ",".join("%.17g" % v for v in row) + "\n" for row in block)
        x = tall.ravel()
        write_vector(x, path)
        assert path.read_text() == "".join("%.17g\n" % v for v in x)

    @pytest.mark.parametrize("write_bytes", [64, 1 << 16])
    def test_edge_list_byte_identical(self, tmp_path, monkeypatch, write_bytes):
        monkeypatch.setattr(dpinv.io, "_WRITE_BYTES", write_bytes)
        rng = np.random.default_rng(65)
        m = 5003
        g = Digraph(10 ** 6, rng.integers(0, 10 ** 6, m), rng.integers(0, 10 ** 6, m),
                    10.0 ** rng.uniform(-300, 300, m))
        path = tmp_path / "g.tsv"
        write_edge_list(g, path)
        assert path.read_text() == "".join(
            f"{s}\t{t}\t{'%.17g' % w}\n" for s, t, w in zip(g.src, g.dst, g.weight))


# ---------------------------------------------------------------------------
# The one-pass parse against the per-line loops it falls back to.


def _loop_raises(*args, **kwargs):
    raise AssertionError("the per-line loop ran")


class TestOnePassParse:
    """Inputs the one-pass parse must take without the per-line loop."""

    @pytest.fixture()
    def no_loops(self, monkeypatch):
        for name in ("_read_edge_list_lines", "_read_mm_entries_lines"):
            monkeypatch.setattr(dpinv.io, name, _loop_raises)

    def test_benchmark_shaped_three_field_file(self, tmp_path, no_loops):
        # tab separated "%d %d %.17g" rows, as numpy.savetxt writes them
        rng = np.random.default_rng(63)
        src = rng.integers(0, 50, size=200)
        dst = rng.integers(0, 50, size=200)
        wgt = 10.0 ** rng.uniform(-1, 1, size=200)
        path = tmp_path / "g.tsv"
        np.savetxt(path, np.column_stack([src, dst, wgt]),
                   fmt=["%d", "%d", "%.17g"], delimiter="\t")
        g = read_edge_list(path)
        assert g.n == max(src.max(), dst.max()) + 1 and type(g.n) is int
        np.testing.assert_array_equal(g.src, src)
        np.testing.assert_array_equal(g.dst, dst)
        np.testing.assert_array_equal(g.weight, wgt)

    def test_uniform_two_field_file(self, tmp_path, no_loops):
        path = tmp_path / "g.tsv"
        path.write_text("# ring\n0 1\n1 2  # tail\n\n2 0\n")
        g = read_edge_list(path)
        assert g.n == 3
        np.testing.assert_array_equal(g.src, [0, 1, 2])
        np.testing.assert_array_equal(g.dst, [1, 2, 0])
        np.testing.assert_array_equal(g.weight, [1.0, 1.0, 1.0])

    def test_general_matrix_market(self, tmp_path, no_loops):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "3 3 4\n"
            "2 1 1.5\n"
            "3 3 -2.0\n"
            "3 2 0.25\n"
            "3 2 0.5\n")
        np.testing.assert_array_equal(read_matrix_market(path).to_dense(),
                                      [[0, 0, 0], [1.5, 0, 0], [0, 0.75, -2.0]])

    def test_symmetric_matrix_market_takes_the_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dpinv.io, "_load_table",
                            mock.Mock(side_effect=AssertionError("one-pass parse ran")))
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "2 1 1.5\n"
            "2 2 -2.0\n")
        np.testing.assert_array_equal(read_matrix_market(path).to_dense(),
                                      [[0, 1.5], [1.5, -2.0]])


class TestOnePassPitfalls:
    """Inputs numpy would read differently from the per-line loop."""

    def test_blank_line_among_matrix_market_entries(self, tmp_path):
        # loadtxt(max_rows=) skips the blank line and only warns
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 5.0\n"
            "\n"
            "2 2 1.0\n")
        with pytest.raises(InputError, match=r"m\.mtx:4: truncated entry list"):
            read_matrix_market(path)

    def test_non_ascii_digit_rejected(self, tmp_path):
        # numpy's integer parser reads "\u01ff0" as 4630
        path = tmp_path / "g.tsv"
        path.write_text("0 1\n\u01ff0 1\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"g\.tsv:2: invalid literal"):
            read_edge_list(path)

    def test_undecodable_bytes_after_the_entries(self, tmp_path):
        # the per-line reader decodes only the text chunks that hold the
        # nnz entry lines, so bytes far past them are never decoded
        path = tmp_path / "m.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                         b"1 1 1\n1 1 5.0\n" + b"%" * 65536 + b"\n\xff\xfe\n")
        assert read_matrix_market(path).to_dense()[0, 0] == 5.0


def _outcome(read, path):
    """What a reader returns, as comparable bytes, or the error it raises."""
    try:
        r = read(path)
    except (InputError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(r, SparseMatrix):
        arrays = (r.row_offsets, r.col_indices, r.values)
        shape = (r.n_rows, r.n_cols)
    else:
        arrays = (r.src, r.dst, r.weight)
        shape = (r.n, type(r.n))
    return shape, [(a.dtype.str, a.tobytes()) for a in arrays]


def _assert_same_as_loop(read, path):
    fast = _outcome(read, path)
    with mock.patch.object(dpinv.io, "_load_table", return_value=None):
        assert fast == _outcome(read, path)


_ODD_IDS = ["-1", "+3", "1_000", "007", "\u0663", "\u01ff0", "1.0", "x"]
_ODD_VALUES = ["2", "-0.0", "1e-3", "nan", "inf", "1_0", "+3", "0x10", "\u0663"]
_ODD_SEPARATORS = ["\xa0", "\x0b", "\x0c", "\u3000"]
_FAULTS = ["id", "value", "separator", "width", "blank", "line end", "tail"]


class _Text:
    """Draws one file: well formed, or with one odd form in one place (a
    token, a separator, a field count, a blank line, the line ends, or
    undecodable bytes at the end; for Matrix Market also the entry count or
    the matrix size)."""

    def __init__(self, data, faults=()):
        self.data = data
        self.fault = data.draw(st.sampled_from([None, *_FAULTS, *faults]), label="fault")

    def draw(self, strategy, label):
        return self.data.draw(strategy, label=label)

    def row(self, width, base, odd):
        """One data line of ``width`` fields: two ids, then values."""
        tokens = [str(self.draw(st.integers(base, base + 9), "id")) for _ in range(2)]
        tokens += ["%.17g" % self.draw(st.floats(1e-3, 1e3), "value")
                   for _ in range(width - 2)]
        sep = self.draw(st.sampled_from([" ", "\t", "  ", " \t"]), "separator")
        if odd == "id":
            tokens[self.draw(st.integers(0, 1), "which id")] = self.draw(
                st.sampled_from(_ODD_IDS), "odd id")
        elif odd == "value" and width > 2:
            tokens[-1] = self.draw(st.sampled_from(_ODD_VALUES), "odd value")
        elif odd == "separator":
            sep = self.draw(st.sampled_from(_ODD_SEPARATORS), "odd separator")
        return sep.join(tokens)

    def rows(self, widths, base, comment=None):
        """Data lines of one of the field counts ``widths`` allows, and one
        line of another count or of four fields as the odd form; with a
        comment mark, comments and blank lines among them, which that format
        allows."""
        width = self.draw(st.sampled_from(widths), "width")
        count = self.draw(st.integers(0, 8), "lines")
        at = self.draw(st.integers(0, max(count - 1, 0)), "odd line")
        lines = []
        for k in range(count):
            odd = self.fault if k == at else None
            if odd == "blank":
                lines.append(self.draw(st.sampled_from(["", " \t "]), "blank"))
            if comment and self.draw(st.booleans(), "comment line"):
                lines.append(self.draw(st.sampled_from(["", f"{comment} note"]), "extra"))
            w = width
            if odd == "width":
                w = self.draw(st.sampled_from([v for v in (2, 3, 4) if v != width]),
                              "width")
            line = self.row(w, base, odd)
            if comment and self.draw(st.booleans(), "trailing comment"):
                line += f" {comment} tail"
            lines.append(line)
        return lines

    def write(self, path, lines):
        end = "\n"
        if self.fault == "line end":
            end = self.draw(st.sampled_from(["\r\n", "\r"]), "line end")
        tail = b"\xff\n" if self.fault == "tail" else b""
        path.write_bytes("".join(line + end for line in lines).encode("utf-8") + tail)


class TestSameAsPerLineLoop:
    """On any text the public readers equal their per-line loops: the same
    arrays bit for bit, or the same error."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_edge_list(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "g.tsv"
        text = _Text(data)
        text.write(path, text.rows([2, 3], 0, "#"))
        _assert_same_as_loop(read_edge_list, path)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.data())
    def test_matrix_market(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "m.mtx"
        text = _Text(data, ["nnz", "size"])
        value_type = data.draw(st.sampled_from(["real", "integer", "pattern"]))
        symmetry = data.draw(st.sampled_from(["general", "symmetric"]))
        entries = text.rows([2] if value_type == "pattern" else [3], 1)
        # a blank line is not an entry: loadtxt(max_rows=) reads past it
        nnz, size = sum(1 for line in entries if line.strip()), 10
        if text.fault == "nnz":
            nnz = max(0, nnz + data.draw(st.sampled_from([-2, -1, 1, 2]), label="shift"))
        elif text.fault == "size":
            size = data.draw(st.integers(1, 9), label="size")
        text.write(path, [f"%%MatrixMarket matrix coordinate {value_type} {symmetry}",
                          "% a comment", f"{size} {size} {nnz}"] + entries)
        _assert_same_as_loop(read_matrix_market, path)
