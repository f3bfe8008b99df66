#!/usr/bin/env python3
"""dpinv benchmark: seeded CLI workloads, timed end to end, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dpinv source tree. The benchmark writes its inputs
under ``.perfbench_run/`` there, then calls ``dpinv.cli.main(argv)`` in
this process one job after another (a closed loop with one client). It takes
jobs from the workload's list in order, starting over at its end, and starts
none after ``--seconds`` have passed. The list is built in blocks that each
hold the workload's whole mix, so a run's jobs have about that mix. Each job
writes its own output file. Every job's output is checked by ``check.py``
after the timed loop, once its peak memory has been read.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` every job runs twice, once with
the layer wrappers of ``tracer.py`` installed, and the metrics are
per-layer figures per traced job plus the tracing overhead. The line before
the result holds the machine description and the failure breakdown.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(NPROC)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MAX_SECONDS = 60.0   # a run is at most this plus one job, inside 180 s
FAILURE_CLASSES = ("exit2", "exit3", "exit_other", "exception", "wrong_answer")


def harrell_davis(sorted_values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile: a Beta-weighted
    mean of all order statistics. It estimates the same percentile as a
    single order statistic (nearest rank) does, with less run-to-run
    variance, which matters when only ten or so jobs lie beyond it."""
    from scipy.special import betainc  # after the peak-memory reading

    import numpy as np

    n = len(sorted_values)
    p = pct / 100.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_values))


def machine_info() -> dict:
    import numpy as np
    import scipy

    import dpinv

    info = {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_thread_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "dpinv_backend": dpinv.active_backend(),
            "numba_present": importlib.util.find_spec("numba") is not None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
        info["l3"] = l3.read_text().strip() if l3.exists() else "unknown"
    except OSError:
        info.setdefault("cpu", "unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["git_commit"] = _git_commit()
    return info


def _git_commit() -> str:
    """HEAD of the source tree, read from .git without running git; the
    benchmark may run in an exported tree that has none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def measure_setup(warm_jobs, outdir: Path) -> list[float]:
    """Import dpinv and run the warm-up jobs in fresh processes; each
    sample is that process's own clock from before the import."""
    argvs = json.dumps([job.full_argv(output_file(outdir, i, job))
                        for i, job in enumerate(warm_jobs)])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), argvs],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if any(result["codes"]):
            raise RuntimeError(f"warm-up job exit codes {result['codes']}")
        samples.append(result["setup_s"])
    return samples


def run_job(cli, argv) -> tuple[str | None, float, str]:
    """One cli.main call, timed from argv to exit code. Returns the failure
    class (None on exit 0), the wall time and the captured stdout."""
    out, err = StringIO(), StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the benchmark must keep running and count it
        dt = perf_counter() - t0
        print(f"job {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return "exception", dt, out.getvalue()
    dt = perf_counter() - t0
    if code == 0:
        return None, dt, out.getvalue()
    print(f"job {argv} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return {2: "exit2", 3: "exit3"}.get(code, "exit_other"), dt, out.getvalue()


def output_file(outdir: Path, index: int, job) -> Path | None:
    return outdir / f"{index}{job.out_suffix}" if job.out_suffix else None


def timed_loop(cli, jobs, seconds: float, outdir: Path, tracer=None):
    """Run jobs from the list in order, starting over at its end, until
    ``seconds`` have passed. With a tracer every job runs twice, traced and
    untraced, in alternating order, so both halves see the same jobs.
    Returns the records, one ``[job, traced, seconds, failure class, stdout,
    output file]`` per job run, and the loop's wall time."""
    records = []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        job = jobs[i % len(jobs)]
        modes = ((i % 2 == 0, i % 2 == 1) if tracer else (False,))
        for traced in modes:
            out = output_file(outdir, len(records), job)
            if traced:
                tracer.job = len(records)
                tracer.install()
                span = tracer.begin("cli")
            try:
                failure, dt, stdout = run_job(cli, job.full_argv(out))
            finally:
                if traced:
                    tracer.end(span)
                    tracer.uninstall()
            records.append([job, traced, dt, failure, stdout, out])
        i += 1
    return records, perf_counter() - start


def check_outputs(records) -> float:
    """Check the output of every job that exited 0; a failed check makes it
    a wrong answer. Returns the worst d-kind column defect seen."""
    worst = 0.0
    for rec in records:
        job, _, _, failure, stdout, out = rec
        if failure is None:
            try:
                worst = max(worst, job.check(stdout, out) or 0.0)
            except Exception as exc:  # a malformed output is a wrong answer too
                print(f"job {job.full_argv(out)} wrong answer: {exc!r}", file=sys.stderr)
                rec[3] = "wrong_answer"
        if out is not None:
            out.unlink(missing_ok=True)
    return worst


def end_to_end(records, wall: float, tail_pct: int, setup: list[float],
               peak_kb: int) -> dict:
    times = sorted(r[2] for r in records)
    passed = sum(r[3] is None for r in records)
    return {
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (harrell_davis(times, tail_pct), "s"),
        "goodput_jobs_per_s": (passed / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(records, tracer) -> dict:
    traced = [r for r in records if r[1]]
    jobs = max(len(traced), 1)
    tot = tracer.layer_totals()
    per_job = lambda key: tot.get(key, 0.0) / jobs  # noqa: E731

    def mean_over(name, attr):
        vals = [getattr(rep, attr) for n, _, rep, _, _ in tracer.solver_reports if n == name]
        return statistics.fmean(vals) if vals else 0.0

    gmres = [(ok, direct) for n, _, _, ok, direct in tracer.solver_reports
             if n == "krylov.gmres"]
    rechecks = sum(direct for _, direct in gmres)
    accepted = sum(1 for ok, direct in gmres if ok and direct)
    untraced_p50 = statistics.median(r[2] for r in records if not r[1]) if len(records) > 1 else 0.0
    traced_p50 = statistics.median(r[2] for r in traced) if traced else 0.0
    spans = ["io.load_graph", "io.read_matrix", "io.write", "sparse.connectivity",
             "sparse.build_transition"]
    m = {f"{s}.s": (per_job(f"{s}.s"), "s/job") for s in spans}
    m.update({
        "sparse.spmv.calls": (per_job("sparse.spmv.calls"), "count/job"),
        "sparse.spmv.s": (per_job("sparse.spmv.s"), "s/job"),
        "sparse.spmv.bytes_computed": (tracer.spmv_bytes / jobs, "B/job"),
        "sparse.spmv.uncounted": (tracer.uncounted / jobs, "count/job"),
        "sparse.spmv.crosscheck_mismatches": (len(tracer.mismatches), "count"),
        "stationary.s": (per_job("stationary.s"), "s/job"),
        "stationary.self_s": (per_job("stationary.self_s"), "s/job"),
        "stationary.rounds": (mean_over("stationary", "iterations"), "count/solve"),
        "stationary.mv": (mean_over("stationary", "mv_count"), "count/solve"),
        "dense.orthogonalize.s": (per_job("dense.orthogonalize.s"), "s/job"),
        "dense.orthogonalize.calls": (per_job("dense.orthogonalize.calls"), "count/job"),
        "dense.schur.s": (per_job("dense.schur.s"), "s/job"),
        "dense.hessenberg_lsq.s": (per_job("dense.hessenberg_lsq.s"), "s/job"),
        "dense.hessenberg_lsq.calls": (per_job("dense.hessenberg_lsq.calls"), "count/job"),
        "krylov.gmres.s": (per_job("krylov.gmres.s"), "s/job"),
        "krylov.gmres.self_s": (per_job("krylov.gmres.self_s"), "s/job"),
        "krylov.arnoldi.self_s": (per_job("krylov.arnoldi.self_s"), "s/job"),
        "krylov.solves": (len(gmres) / jobs, "count/job"),
        "krylov.restarts": (mean_over("krylov.gmres", "outer_iterations"), "count/solve"),
        "krylov.inner_steps": (mean_over("krylov.gmres", "inner_iterations_total"),
                               "count/solve"),
        "krylov.mv": (mean_over("krylov.gmres", "mv_count"), "count/solve"),
        "krylov.recheck_accept_ratio": (accepted / rechecks if rechecks else 0.0, "ratio"),
        "laplacian.eulerian_system.s": (per_job("laplacian.eulerian_system.s"), "s/job"),
        "laplacian.pinv_columns.s": (per_job("laplacian.pinv_columns.s"), "s/job"),
        "laplacian.general_pinv.s": (per_job("laplacian.general_pinv.s"), "s/job"),
        "metrics.eval.s": (per_job("metrics.eval.s"), "s/job"),
        "metrics.visits_matrix.s": (per_job("metrics.visits_matrix.s"), "s/job"),
        "cli.s": (per_job("cli.s"), "s/job"),
        "cli.self_s": (per_job("cli.self_s"), "s/job"),
        "jobs.failed_frac": (sum(r[3] is not None for r in records) / len(records), "ratio"),
        "trace.overhead": (traced_p50 / untraced_p50 if untraced_p50 else 0.0, "ratio"),
    })
    return m


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")
    if not (SRC / "dpinv" / "cli.py").is_file():
        print(f"perfbench: no dpinv sources under {SRC}; run from a dpinv tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_run" / (workload.name + ("-trace" if args.trace else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    # the workload's name picks its stream, so adding a workload moves no inputs
    rng = np.random.default_rng(np.random.SeedSequence(
        [args.seed, zlib.crc32(workload.name.encode())]))
    jobs, warm_jobs = workload.build(rng, workdir)

    setup = measure_setup(warm_jobs, outdir)
    import dpinv.cli as cli
    for i, job in enumerate(warm_jobs):
        if run_job(cli, job.full_argv(output_file(outdir, i, job)))[0] is not None:
            print("perfbench: warm-up job failed", file=sys.stderr)
            return 3

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    records, wall = timed_loop(cli, jobs, args.seconds, outdir, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    column_defect = check_outputs(records)
    tail_pct = workload.tail_pct
    failures = {c: sum(r[3] == c for r in records) for c in FAILURE_CLASSES}
    metrics = per_layer(records, tracer) if tracer else end_to_end(
        records, wall, tail_pct, setup, peak_kb)
    if tracer:
        tracer.write(workdir / "spans.jsonl")
    kinds = sorted({r[0].kind for r in records})
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "jobs": len(records), "timed_wall_s": wall,
        "jobs_by_kind": {k: sum(r[0].kind == k for r in records) for k in kinds},
        "jobs_in_list": len(jobs), "tail_percentile": tail_pct,
        "jobs_beyond_tail": len(records) - math.ceil(tail_pct / 100 * len(records)),
        "failures": failures, "column_defect_max": column_defect,
        "setup_samples_s": setup,
        "machine": machine_info(),
    }
    if tracer:
        detail["traced_jobs"] = sum(r[1] for r in records)
        detail["crosscheck_mismatches"] = tracer.mismatches[:10]
    print(json.dumps({"detail": detail}))
    failed = sum(failures.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
