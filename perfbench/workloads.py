"""The benchmark's workloads: seeded inputs, the CLI jobs run on them, and
the independent check of each job's output.

A workload's ``build(rng, workdir)`` writes its input files and returns
its job list, plus one tiny warm-up job per subcommand it uses. The list is
a run of blocks; each block covers the workload's whole range of sizes and
job kinds, in shuffled order, so any stretch of the list has about the
workload's mix. The timed loop takes jobs from the list in order. Checks
run after the timed loop. Each one rebuilds its reference from the input
files when it runs, and imports the checker only then: the checker loads
scipy.sparse and scipy.io, which dpinv does not, and must not count in the
timed loop's peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

# Agreement required of d-kind columns, relative to max(1, ||B||_inf): ten
# times the worst defect measured at the seed commit on each workload's
# inputs, rounded up. Columns inherit the error of pi (solved to 1e-10),
# which the chain's conditioning amplifies; the two-cluster chains amplify
# it about a thousandfold more than the PA digraphs. Worst measured: 3.1e-9
# over 56 PA digraphs, n = 1024; 4.8e-6 over 800 two-cluster digraphs,
# n 200-300, weights over 1-2 decades.
COLUMNS_LARGE_TOL = 5e-8
HETERO_TOL = 5e-5


@dataclass
class Job:
    kind: str                      # the dpinv subcommand
    argv: list[str]                # without --out
    out_suffix: str | None         # the job writes to --out <file><suffix>
    # receives the job's stdout and output file; returns the worst column
    # defect for column jobs, else None
    check: Callable[[str, Path | None], float | None]

    def full_argv(self, out: Path | None) -> list[str]:
        return self.argv + (["--out", str(out)] if out is not None else [])


@dataclass
class Workload:
    name: str
    build: Callable[[np.random.Generator, Path], tuple[list[Job], list[Job]]]
    # job_s.tail's percentile, fixed so the metric stays the same statistic
    # however many jobs a run fits: the highest whole percentile that leaves
    # at least ten jobs beyond it in a 24-second run at the seed commit.
    tail_pct: int


def _ladder(lo: float, hi: float, count: int, block: int) -> np.ndarray:
    """``count`` evenly spaced sizes or spans over [lo, hi) for one block.
    The ladder shifts by the golden ratio's fraction from block to block, so
    the first few blocks of a list already cover the range evenly and job
    times spread smoothly rather than in steps. The seed varies structure,
    weights and queries, not how big the inputs are, which keeps runs
    comparable."""
    shift = (block * 0.6180339887498949) % 1.0
    return lo + (hi - lo) * (np.arange(count) + shift) / count


def _shuffled(rng: np.random.Generator, jobs: list[Job]) -> list[Job]:
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _graph_file(workdir: Path, name: str, src, dst, weight=None) -> Path:
    path = workdir / f"{name}.tsv"
    inputs.write_edge_list(path, src, dst, weight)
    return path


def _stationary_job(graph: Path) -> Job:
    def verify(_stdout, out):
        import check
        check.check_pi(check.Chain(graph), out, tol=1e-9)
    return Job("stationary", ["stationary", str(graph)], ".txt", verify)


def _pinv_job(graph: Path, cols: list[int], tol: float) -> Job:
    def verify(_stdout, out):
        import check
        return check.check_columns_d(check.Chain(graph), cols, out, tol)
    argv = ["pinv", str(graph), "--kind", "d", "--cols", ",".join(map(str, cols)),
            "--format", "raw"]
    return Job("pinv", argv, ".raw", verify)


def _warm_graph(rng: np.random.Generator, workdir: Path) -> Path:
    src, dst = inputs.pa_digraph(rng, 64)
    return _graph_file(workdir, "warm", src, dst)


def build_stationary_large(rng, workdir, graphs: int, n: int):
    jobs = []
    for g in range(graphs):
        src, dst = inputs.pa_digraph(rng, n)
        jobs.append(_stationary_job(_graph_file(workdir, f"g{g}", src, dst)))
    return jobs, [_stationary_job(_warm_graph(rng, workdir))]


def build_columns_large(rng, workdir, graphs: int, n: int, cols: int):
    jobs = []
    stride = n // cols
    for g in range(graphs):
        src, dst = inputs.pa_digraph(rng, n)
        offset = int(rng.integers(stride))
        jobs.append(_pinv_job(_graph_file(workdir, f"g{g}", src, dst),
                              [offset + c * stride for c in range(cols)],
                              COLUMNS_LARGE_TOL))
    return jobs, [_pinv_job(_warm_graph(rng, workdir), [0, 9], COLUMNS_LARGE_TOL)]


def _metrics_jobs(rng, workdir: Path, name: str, n: int) -> list[Job]:
    src, dst = inputs.pa_digraph(rng, n)
    graph = _graph_file(workdir, name, src, dst)
    lap = workdir / f"{name}.mtx"
    inputs.write_laplacian_mm(lap, n, src, dst, np.ones(len(src)))
    nodes = lambda k: [int(v) for v in rng.choice(n, size=k, replace=False)]  # noqa: E731
    pairs = [tuple(nodes(2)) for _ in range(4)]
    triples = [tuple(nodes(3)) for _ in range(4)]
    triples += [(j, j, k) for j, k in (nodes(2) for _ in range(2))]
    spec = lambda items: ",".join(":".join(map(str, t)) for t in items)  # noqa: E731
    gamma = 0.15

    def verify_metrics(stdout, _out):
        import check
        check.check_metrics(check.Chain(graph), stdout, pairs, triples)

    def verify_influence(stdout, _out):
        import check
        check.check_influence(check.Chain(graph), gamma, stdout)

    def verify_penrose(_stdout, out):
        import check
        check.check_penrose(lap, out)

    return [
        Job("metrics", ["metrics", str(graph), "--pairs", spec(pairs),
                        "--triples", spec(triples), "--kemeny"], None, verify_metrics),
        Job("metrics", ["metrics", str(graph), "--gamma", str(gamma)], None,
            verify_influence),
        Job("general-pinv", ["general-pinv", "--laplacian", str(lap), "--format", "raw"],
            ".raw", verify_penrose),
    ]


def build_metrics_small(rng, workdir, blocks: int, graphs: int, sizes: tuple[int, int]):
    jobs = []
    for b in range(blocks):
        block = []
        for g, n in enumerate(_ladder(*sizes, graphs, b)):
            block += _metrics_jobs(rng, workdir, f"b{b}g{g}", int(round(n)))
        jobs += _shuffled(rng, block)
    return jobs, _metrics_jobs(rng, workdir, "warm", 24)


def build_hetero_weights(rng, workdir, blocks: int, graphs: int,
                         decades: tuple[float, float]):
    """Each block holds ``graphs`` digraphs, n and weight span rising
    together over [200, 300) and [decades[0], decades[1])."""
    jobs = []
    for b in range(blocks):
        block = []
        for g, (n, span) in enumerate(zip(_ladder(200, 300, graphs, b),
                                          _ladder(*decades, graphs, b))):
            n = int(round(n))
            src, dst, w = inputs.two_cluster_digraph(rng, n, float(span))
            path = _graph_file(workdir, f"b{b}g{g}", src, dst, w)
            cols = sorted(int(c) for c in rng.choice(n, size=8, replace=False))
            block += [_stationary_job(path), _pinv_job(path, cols, HETERO_TOL)]
        jobs += _shuffled(rng, block)
    warm = _warm_graph(rng, workdir)
    return jobs, [_stationary_job(warm), _pinv_job(warm, [0, 9], HETERO_TOL)]


WORKLOADS = {w.name: w for w in [
    Workload("stationary-large", partial(build_stationary_large, graphs=16, n=4096),
             tail_pct=75),
    Workload("columns-large", partial(build_columns_large, graphs=32, n=1024, cols=96),
             tail_pct=75),
    Workload("metrics-small",
             partial(build_metrics_small, blocks=8, graphs=4, sizes=(120, 140)),
             tail_pct=80),
    # Wider weight spans drive column defects past 1e-5 (9.4e-4 at 2-4
    # decades), where a check stops telling an inaccurate column from a
    # wrong one; see the README.
    Workload("hetero-weights",
             partial(build_hetero_weights, blocks=40, graphs=4, decades=(1.0, 2.0)),
             tail_pct=94),
]}
