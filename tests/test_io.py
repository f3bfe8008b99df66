"""Round-trip and error-path tests for the file formats."""

import numpy as np
import pytest

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
from dpinv.sparse import SparseMatrix


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
