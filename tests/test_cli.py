"""End-to-end CLI tests driven through main() with captured output."""

import numpy as np
import pytest

import dpinv.cli
import dpinv.krylov
import dpinv.sparse
import dpinv.stationary
from dpinv.cli import main
from dpinv.io import (read_columns_csv, read_columns_raw, read_edge_list, read_vector,
                      write_edge_list)
from dpinv.oracle import stationary_direct
from dpinv.sparse import build_transition

from conftest import weak_bridge_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.tsv"
    assert main(["gen", "--n", "30", "--extra", "15", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture()
def cycle3_file(tmp_path):
    path = tmp_path / "c3.tsv"
    path.write_text("0 1\n1 2\n2 0\n")
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _never_called(*args, **kwargs):
    raise AssertionError("a solver ran before the arguments were checked")


class TestGen:
    def test_stdout_tab_separated(self, capsys):
        code, out, _ = run(capsys, ["gen", "--n", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # directed triangle both ways
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_deterministic_file(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["gen", "--n", "40", "--seed", "5", "--out", str(a)]) == 0
        assert main(["gen", "--n", "40", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_stdout_matches_file(self, capsys, tmp_path):
        path = tmp_path / "g.tsv"
        assert run(capsys, ["gen", "--n", "40", "--seed", "5", "--out", str(path)])[0] == 0
        code, out, _ = run(capsys, ["gen", "--n", "40", "--seed", "5"])
        assert code == 0
        assert out == path.read_text()

    def test_too_small_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--n", "2"])
        assert code == 1
        assert "at least 3" in err


class TestAdjacencyOnce:
    @pytest.mark.parametrize("argv", [["stationary"], ["pinv", "--cols", "0,5"],
                                      ["metrics", "--pairs", "0:5"]],
                             ids=["stationary", "pinv", "metrics"])
    def test_one_adjacency_per_job(self, capsys, graph_file, monkeypatch, argv):
        # the connectivity check and the transition matrix share one build
        calls = []
        inner = dpinv.sparse.Digraph.adjacency

        def counting(g):
            calls.append(g.n)
            return inner(g)

        monkeypatch.setattr(dpinv.sparse.Digraph, "adjacency", counting)
        code, _, _ = run(capsys, [argv[0], str(graph_file), *argv[1:]])
        assert code == 0
        assert calls == [30]


class TestStationary:
    def test_matches_oracle(self, capsys, graph_file):
        code, out, _ = run(capsys, ["stationary", str(graph_file), "--tol", "1e-11"])
        assert code == 0
        pi = np.array([float(v) for v in out.split()])
        ref = stationary_direct(build_transition(read_edge_list(graph_file))[0])
        assert np.max(np.abs(pi - ref)) < 1e-9

    def test_report_goes_to_stderr(self, capsys, graph_file, tmp_path):
        out_file = tmp_path / "pi.txt"
        code, out, err = run(capsys, ["stationary", str(graph_file),
                                      "--report", "--out", str(out_file)])
        assert code == 0
        assert out == ""
        assert "iterations=" in err and "mv=" in err and "residual=" in err
        assert "width=" in err
        assert out_file.exists()

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["stationary", str(tmp_path / "absent.tsv")])
        assert code == 2
        assert "input error" in err

    def test_not_strongly_connected(self, capsys, tmp_path):
        path = tmp_path / "line.tsv"
        path.write_text("0 1\n")
        code, _, err = run(capsys, ["stationary", str(path)])
        assert code == 2
        assert "strongly connected" in err

    def test_periodic_small_block_hits_cap(self, capsys, cycle3_file):
        code, _, err = run(capsys, ["stationary", str(cycle3_file),
                                    "--ell", "2", "--max-iter", "50"])
        assert code == 3
        assert "numerical failure" in err

    def test_lapack_failure_is_numerical(self, capsys, graph_file, monkeypatch):
        # LinAlgError subclasses ValueError, which alone would mean bad input
        def broken(*_args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(dpinv.stationary, "_ritz_vector", broken)
        code, _, err = run(capsys, ["stationary", str(graph_file), "--ell", "4"])
        assert code == 3
        assert "numerical failure: Eigenvalues did not converge" in err
        # the default path's Hessenberg least squares
        monkeypatch.setattr(dpinv.krylov, "hessenberg_lsq", broken)
        code, _, err = run(capsys, ["stationary", str(graph_file)])
        assert code == 3
        assert "numerical failure: Eigenvalues did not converge" in err

    def test_long_cycle_solves(self, capsys, tmp_path):
        # period 200: a subspace block would need more than 200 columns
        path = tmp_path / "c200.tsv"
        path.write_text("".join(f"{i} {(i + 1) % 200}\n" for i in range(200)))
        code, out, _ = run(capsys, ["stationary", str(path)])
        assert code == 0
        np.testing.assert_allclose([float(v) for v in out.split()],
                                   np.full(200, 1.0 / 200), atol=1e-15)

    def test_cycle_cap_is_numerical(self, capsys, tmp_path):
        # the weak-bridge chain needs tens of GMRES restart cycles
        path = tmp_path / "bridge.tsv"
        write_edge_list(weak_bridge_graph(2), path)
        code, _, err = run(capsys, ["stationary", str(path), "--max-iter", "1"])
        assert code == 3
        assert "no convergence in 1 restart cycles" in err

    def test_matrix_market_entry_without_value(self, capsys, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 3\n1 2 1.0\n2 3\n3 1 1.0\n")
        code, _, err = run(capsys, ["stationary", str(path)])
        assert code == 2
        assert f"{path}:4: expected 'row col value'" in err
        assert "Traceback" not in err

    def test_zero_weight_arc_rejected(self, capsys, tmp_path):
        path = tmp_path / "dead.tsv"
        path.write_text("0 1\n1 0\n0 2\n1 2\n2 0 0.0\n")
        code, _, err = run(capsys, ["stationary", str(path)])
        assert code == 2
        assert "strictly positive" in err


class TestPinv:
    def test_csv_block_shape(self, capsys, graph_file):
        code, out, _ = run(capsys, ["pinv", str(graph_file), "--cols", "0,2,5"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 30 and all(len(r) == 3 for r in rows)

    def test_raw_and_csv_agree(self, graph_file, tmp_path):
        c, r = tmp_path / "b.csv", tmp_path / "b.raw"
        base = ["pinv", str(graph_file), "--cols", "0,1"]
        assert main(base + ["--out", str(c)]) == 0
        assert main(base + ["--format", "raw", "--out", str(r)]) == 0
        np.testing.assert_array_equal(read_columns_csv(c), read_columns_raw(r))

    def test_raw_to_stdout_rejected(self, capsys, graph_file):
        code, _, err = run(capsys, ["pinv", str(graph_file), "--format", "raw"])
        assert code == 2
        assert "--out" in err

    def test_bad_cols_rejected(self, capsys, graph_file):
        code, _, err = run(capsys, ["pinv", str(graph_file), "--cols", "0,99"])
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("extra, message", [
        (["--format", "raw"], "raw output needs --out"),
        (["--cols", "0,99"], "column 99 out of range"),
    ])
    def test_rejected_before_solving(self, capsys, graph_file, monkeypatch,
                                      extra, message):
        monkeypatch.setattr(dpinv.cli, "stationary_distribution", _never_called)
        code, _, err = run(capsys, ["pinv", str(graph_file)] + extra)
        assert code == 2
        assert message in err

    def test_report_counts(self, capsys, graph_file):
        code, _, err = run(capsys, ["pinv", str(graph_file), "--cols", "0,1",
                                    "--report"])
        assert code == 0
        assert "columns=2" in err and "mv_total=" in err


class TestGeneralPinv:
    def test_triplet_laplacian_ones_null(self, capsys, tmp_path):
        # unnormalized Laplacian of the undirected path 0-1-2
        lap = tmp_path / "lap.txt"
        lap.write_text("0 0 1\n0 1 -1\n1 0 -1\n1 1 2\n1 2 -1\n"
                       "2 1 -1\n2 2 1\n")
        code, out, _ = run(capsys, ["general-pinv", "--laplacian", str(lap),
                                    "--tol", "1e-12"])
        assert code == 0
        block = np.array([[float(v) for v in line.split(",")]
                          for line in out.strip().splitlines()])
        dense = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(block, np.linalg.pinv(dense), atol=1e-8)

    def test_nullvec_file(self, capsys, tmp_path):
        lap = tmp_path / "lap.txt"
        # the path Laplacian column-scaled by x = (1, 2, 1): null vector x
        dense = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        x = np.array([1.0, 2.0, 1.0])
        scaled = dense @ np.diag(1.0 / x)
        lines = []
        for i in range(3):
            for j in range(3):
                if scaled[i, j] != 0.0:
                    lines.append(f"{i} {j} {scaled[i, j]:.17g}")
        lap.write_text("\n".join(lines) + "\n")
        nv = tmp_path / "x.txt"
        nv.write_text("1\n2\n1\n")
        code, out, _ = run(capsys, ["general-pinv", "--laplacian", str(lap),
                                    "--nullvec", str(nv), "--tol", "1e-12"])
        assert code == 0
        block = np.array([[float(v) for v in line.split(",")]
                          for line in out.strip().splitlines()])
        np.testing.assert_allclose(block, np.linalg.pinv(scaled), atol=1e-8)

    def test_report_line(self, capsys, tmp_path):
        lap = tmp_path / "lap.txt"
        lap.write_text("0 0 1\n0 1 -1\n1 0 -1\n1 1 2\n1 2 -1\n"
                       "2 1 -1\n2 2 1\n")
        code, _, err = run(capsys, ["general-pinv", "--laplacian", str(lap),
                                    "--cols", "0,2", "--report"])
        assert code == 0
        assert "columns=2" in err
        assert "mv_total=" in err and "stationary_mv=" in err

    @pytest.mark.parametrize("extra, message", [
        (["--format", "raw"], "raw output needs --out"),
        (["--cols", "0,9"], "column 9 out of range"),
    ])
    def test_rejected_before_solving(self, capsys, tmp_path, monkeypatch,
                                      extra, message):
        lap = tmp_path / "lap.txt"
        lap.write_text("0 0 1\n0 1 -1\n1 0 -1\n1 1 2\n1 2 -1\n"
                       "2 1 -1\n2 2 1\n")
        monkeypatch.setattr(dpinv.cli, "general_pinv", _never_called)
        code, _, err = run(capsys, ["general-pinv", "--laplacian", str(lap)] + extra)
        assert code == 2
        assert message in err

    def test_property_violation_is_input_error(self, capsys, tmp_path):
        lap = tmp_path / "bad.txt"
        lap.write_text("0 0 1\n0 1 1\n1 0 -1\n1 1 1\n")
        code, _, err = run(capsys, ["general-pinv", "--laplacian", str(lap)])
        assert code == 2
        assert "(Pb)" in err


class TestMetrics:
    def test_cycle3_sections(self, capsys, cycle3_file):
        code, out, _ = run(capsys, ["metrics", str(cycle3_file),
                                    "--pairs", "0:1,0:2",
                                    "--triples", "0:1:2", "--kemeny"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,k,hitting,commute"
        h01 = lines[1].split(",")
        assert h01[0] == "0" and h01[1] == "1"
        assert abs(float(h01[2]) - 1.0) < 1e-9
        assert abs(float(h01[3]) - 3.0) < 1e-9
        assert abs(float(lines[2].split(",")[2]) - 2.0) < 1e-9
        assert lines[3] == "i,j,k,visits,pass_prob"
        v = lines[4].split(",")
        assert abs(float(v[3]) - 1.0) < 1e-9
        assert abs(float(v[4]) - 1.0) < 1e-9
        assert lines[5].startswith("kemeny,")
        assert abs(float(lines[5].split(",")[1]) - 1.0) < 1e-9

    def test_influence_with_gamma(self, capsys, cycle3_file):
        code, out, _ = run(capsys, ["metrics", str(cycle3_file), "--gamma", "0.3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,influence"
        scores = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(scores) == 3
        # symmetric by rotation, so all three scores coincide
        assert max(scores) - min(scores) < 1e-8
        assert all(1.0 - 1e-9 <= s <= 3.0 + 1e-9 for s in scores)

    def test_bad_pair_spec(self, capsys, cycle3_file):
        code, _, err = run(capsys, ["metrics", str(cycle3_file),
                                    "--pairs", "0-1"])
        assert code == 2
        assert "bad pair" in err
        code, _, err = run(capsys, ["metrics", str(cycle3_file),
                                    "--pairs", "0:x"])
        assert code == 2
        assert "bad pair '0:x'; use i:k" in err

    def test_bad_triple_item(self, capsys, cycle3_file):
        code, _, err = run(capsys, ["metrics", str(cycle3_file),
                                    "--triples", "0:1:2,1:y:0"])
        assert code == 2
        assert "bad triple '1:y:0'; use i:j:k" in err

    @pytest.mark.parametrize("argv,tol", [([], 1e-12), (["--tol", "1e-3"], 1e-3)],
                             ids=["default", "tol-1e-3"])
    def test_tol_reaches_solvers(self, capsys, cycle3_file, monkeypatch, argv, tol):
        seen = {}
        real_pinv, real_stat = dpinv.cli.pinv_columns, dpinv.cli.stationary_distribution

        def pinv_spy(sys_, cols, cfg=None):
            seen["gmres"] = cfg.tol
            return real_pinv(sys_, cols, cfg)

        def stat_spy(p, cfg=None):
            seen["stationary"] = cfg.tol
            return real_stat(p, cfg)

        monkeypatch.setattr(dpinv.cli, "pinv_columns", pinv_spy)
        monkeypatch.setattr(dpinv.cli, "stationary_distribution", stat_spy)
        code, _, _ = run(capsys, ["metrics", str(cycle3_file), "--pairs", "0:1"] + argv)
        assert code == 0
        assert seen == {"gmres": tol, "stationary": tol}

    def test_out_of_range_triple(self, capsys, cycle3_file):
        code, _, err = run(capsys, ["metrics", str(cycle3_file),
                                    "--triples", "0:1:9"])
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("extra, message", [
        ([], "nothing to compute"),
        (["--pairs", "0:2", "--triples", "1:2:0,0:1:1"],
         "triple 0:1:1: pass probability to the absorbing node is undefined"),
    ], ids=["no-request", "triple-j-equals-k"])
    def test_rejected_before_solving(self, capsys, cycle3_file, monkeypatch,
                                      extra, message):
        monkeypatch.setattr(dpinv.cli, "stationary_distribution", _never_called)
        code, out, err = run(capsys, ["metrics", str(cycle3_file)] + extra)
        assert code == 2
        assert message in err
        assert out == ""


class TestBench:
    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, ["bench", "--sizes", "32,64",
                                    "--seeds", "0,1", "--tol", "1e-8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,mv_pi,time_pi_ms,mv_col,time_col_ms"
        assert len(lines) == 3
        for line, n in zip(lines[1:], (32, 64)):
            fields = line.split(",")
            assert int(fields[0]) == n
            assert float(fields[1]) > 0 and float(fields[3]) > 0

    def test_empty_sizes_rejected(self, capsys):
        code, _, err = run(capsys, ["bench", "--sizes", ","])
        assert code == 2
        assert "at least one" in err


class TestVerify:
    def test_graph_battery_passes(self, capsys, graph_file):
        code, out, _ = run(capsys, ["verify", "--graph", str(graph_file)])
        assert code == 0
        assert "verification passed" in out
        assert "PASS graph stationary" in out
        assert "PASS graph pinv_r" in out
        assert "PASS graph pinv_d" in out
        assert "PASS graph hitting" in out
        assert "FAIL" not in out

    def test_suite_smoke(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "small-random",
                                    "--count", "2"])
        assert code == 0
        assert "graph[0]" in out and "graph[1]" in out
        assert "verification passed" in out

    def test_column_certificates(self, capsys, graph_file, tmp_path):
        block_file = tmp_path / "cols.csv"
        assert main(["pinv", str(graph_file), "--cols", "0,3", "--tol", "1e-11",
                     "--out", str(block_file)]) == 0
        code, out, _ = run(capsys, ["verify", "--graph", str(graph_file),
                                    "--columns", str(block_file),
                                    "--cols", "0,3", "--tol", "1e-8"])
        assert code == 0
        assert out.count("PASS column") == 2

    def test_corrupted_columns_fail(self, capsys, graph_file, tmp_path):
        block_file = tmp_path / "cols.csv"
        assert main(["pinv", str(graph_file), "--cols", "0,3", "--tol", "1e-11",
                     "--out", str(block_file)]) == 0
        block = read_columns_csv(block_file)
        block[5, 1] += 1e-3
        from dpinv.io import write_columns_csv
        write_columns_csv(block, block_file)
        code, out, err = run(capsys, ["verify", "--graph", str(graph_file),
                                      "--columns", str(block_file),
                                      "--cols", "0,3", "--tol", "1e-8"])
        assert code == 3
        assert "FAIL column 3" in out
        assert "verification failed" in err

    def test_shape_mismatch(self, capsys, graph_file, tmp_path):
        block_file = tmp_path / "cols.csv"
        assert main(["pinv", str(graph_file), "--cols", "0,3",
                     "--out", str(block_file)]) == 0
        code, _, err = run(capsys, ["verify", "--graph", str(graph_file),
                                    "--columns", str(block_file),
                                    "--cols", "0"])
        assert code == 2
        assert "expected" in err

    def test_nothing_to_verify(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 2
        assert "nothing to verify" in err

    def test_one_node_graph(self, capsys, tmp_path):
        # a single state has no pair to check hitting times on
        path = tmp_path / "one.tsv"
        path.write_text("0 0 1\n")
        code, out, _ = run(capsys, ["verify", "--graph", str(path)])
        assert code == 0
        assert "PASS graph hitting" in out
        assert "verification passed" in out

    def test_suite_count_below_one(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "small-random",
                                      "--count", "0"])
        assert code == 2
        assert "--count must be at least 1" in err
        assert "verification passed" not in out


class TestSeedEnv:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        a, b, c = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "c.tsv"
        monkeypatch.setenv("DPINV_SEED", "7")
        assert main(["gen", "--n", "20", "--out", str(a)]) == 0
        monkeypatch.delenv("DPINV_SEED")
        assert main(["gen", "--n", "20", "--seed", "7", "--out", str(b)]) == 0
        assert main(["gen", "--n", "20", "--out", str(c)]) == 0
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()

    def test_bad_env_seed(self, capsys, monkeypatch, cycle3_file):
        monkeypatch.setenv("DPINV_SEED", "not-a-number")
        code, _, err = run(capsys, ["stationary", str(cycle3_file)])
        assert code == 2
        assert "DPINV_SEED" in err

    def test_explicit_seed_wins(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        monkeypatch.setenv("DPINV_SEED", "9")
        assert main(["gen", "--n", "20", "--seed", "0", "--out", str(a)]) == 0
        monkeypatch.delenv("DPINV_SEED")
        assert main(["gen", "--n", "20", "--seed", "0", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0
        assert run(capsys, ["pinv", "--help"])[0] == 0


class TestParserOnce:
    def test_built_once_per_process(self, capsys, cycle3_file, monkeypatch):
        calls = []
        inner = dpinv.cli.build_parser

        def counting():
            calls.append(1)
            return inner()

        monkeypatch.setattr(dpinv.cli, "build_parser", counting)
        dpinv.cli._parser.cache_clear()
        assert run(capsys, ["metrics", str(cycle3_file), "--kemeny"])[0] == 0
        assert run(capsys, ["stationary", str(cycle3_file)])[0] == 0
        assert len(calls) == 1

    def test_no_argument_carries_over(self, capsys, cycle3_file, monkeypatch):
        parser = dpinv.cli._parser()
        seen = []
        inner = parser.parse_args

        def recording(argv):
            seen.append(inner(argv))
            return seen[-1]

        monkeypatch.setattr(parser, "parse_args", recording)
        code, out, _ = run(capsys, ["metrics", str(cycle3_file), "--gamma", "0.15"])
        assert code == 0 and "j,influence" in out
        code, out, _ = run(capsys, ["metrics", str(cycle3_file), "--kemeny"])
        assert code == 0 and "j,influence" not in out
        assert seen[0].gamma == 0.15 and seen[1].gamma is None

    def test_usage_error_after_a_job_exits_1(self, capsys, cycle3_file):
        assert run(capsys, ["metrics", str(cycle3_file), "--kemeny"])[0] == 0
        code, _, err = run(capsys, ["metrics", str(cycle3_file), "--gamma", "x"])
        assert code == 1 and "invalid float value" in err
        assert run(capsys, ["metrics"])[0] == 1
