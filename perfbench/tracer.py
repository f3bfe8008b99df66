"""In-memory span tracing of dpinv's layers, from outside the package.

:class:`Tracer` replaces public functions with timing wrappers at the names
the calling modules look them up under (``dpinv.krylov.arnoldi``,
``dpinv.stationary.orthogonalize``, ...), and puts the originals back on
:meth:`Tracer.uninstall`. Functions that run thousands of times per job and
call no other traced function (sparse products, orthogonalization, Schur,
Hessenberg least squares) are leaves: their calls and time are summed into
the enclosing span instead of getting a span each.

A span is ``[name, start, end, parent, job, leaves]``. Spans are kept in
memory and written out as JSON lines by :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, JOB, LEAVES = range(6)

# (span name, [(module, attribute), ...]) for every wrapped boundary.
SPANS = [
    ("io.load_graph", [("dpinv.io", "load_graph")]),
    ("io.read_matrix", [("dpinv.io", "read_matrix_auto")]),
    ("io.write", [("dpinv.io", "write_vector"), ("dpinv.io", "write_columns_raw"),
                  ("dpinv.io", "write_columns_csv")]),
    ("sparse.connectivity", [("dpinv.cli", "strong_connectivity_certificate"),
                             ("dpinv.laplacian", "strong_connectivity_certificate")]),
    ("sparse.build_transition", [("dpinv.cli", "build_transition")]),
    ("stationary", [("dpinv.cli", "stationary_distribution"),
                    ("dpinv.laplacian", "stationary_distribution")]),
    ("krylov.gmres", [("dpinv.laplacian", "gmres_restarted")]),
    ("krylov.arnoldi", [("dpinv.krylov", "arnoldi")]),
    ("laplacian.eulerian_system", [("dpinv.cli", "eulerian_system"),
                                   ("dpinv.laplacian", "eulerian_system")]),
    ("laplacian.pinv_columns", [("dpinv.cli", "pinv_columns")]),
    ("laplacian.general_pinv", [("dpinv.cli", "general_pinv")]),
    ("metrics.eval", [("dpinv.cli", f) for f in (
        "hitting_time", "commute_time", "visits", "pass_probability",
        "kemeny_constant", "influence_scores")]),
    ("metrics.visits_matrix", [("dpinv.metrics", "visits_matrix")]),
]
LEAVES_WRAPPED = [
    ("sparse.spmv", [(m, f) for m in ("dpinv.krylov", "dpinv.stationary",
                                      "dpinv.laplacian", "dpinv.cli")
                     for f in ("matvec", "matvec_transpose")]),
    ("dense.orthogonalize", [("dpinv.stationary", "orthogonalize")]),
    ("dense.schur", [("dpinv.stationary", "ordered_schur_leading")]),
    ("dense.hessenberg_lsq", [("dpinv.krylov", "hessenberg_lsq")]),
]
# Solvers that report their own matrix-vector product count.
SOLVERS = ("stationary", "krylov.gmres")


def _spmv_bytes(m, x) -> int:
    """Bytes a CSR product must touch at least once: values, indices and
    offsets of the matrix, the operand and the result. Computed from array
    sizes, not measured."""
    return m.values.nbytes + m.col_indices.nbytes + m.row_offsets.nbytes + 2 * x.nbytes


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.job = -1
        self.spmv_total = 0
        self.spmv_bytes = 0
        self.uncounted = 0        # products outside any self-counting solver
        self.solver_depth = 0
        # (span name, job, report, returned normally, products made directly
        # in the span rather than in a child span)
        self.solver_reports: list[tuple[str, int, object, bool, int]] = []
        self.mismatches: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [name, perf_counter(), None, parent, self.job, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def _leaf(self, name: str, seconds: float) -> None:
        rec = self.stack[-1][LEAVES].get(name)
        if rec is None:
            self.stack[-1][LEAVES][name] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        solver = name in SOLVERS

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            mv0 = self.spmv_total
            if solver:
                self.solver_depth += 1
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                self.end(span)
                if solver:
                    self.solver_depth -= 1
                    self._account(name, span, result, ok, self.spmv_total - mv0)
        return wrapper

    def _account(self, name: str, span: list, result, ok: bool, seen: int) -> None:
        """Compare the products seen inside a solver span with its report."""
        if ok:
            report = result[1] if name == "krylov.gmres" else result
        else:
            report = getattr(result, "report", None)
        if report is None:
            return
        direct = span[LEAVES].get("sparse.spmv", (0, 0.0))[0]
        self.solver_reports.append((name, self.job, report, ok, direct))
        if report.mv_count != seen:
            self.mismatches.append(
                f"{name}: wrapper saw {seen} products, report says {report.mv_count}")

    def _leaf_wrapper(self, name: str, fn):
        spmv = name == "sparse.spmv"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, perf_counter() - t0)
                if spmv:
                    self.spmv_total += 1
                    x = args[1] if len(args) > 1 else kwargs.get("x")
                    self.spmv_bytes += _spmv_bytes(args[0], x)
                    if self.solver_depth == 0:
                        self.uncounted += 1
        return wrapper

    def install(self) -> None:
        """Wrap every listed name that exists; missing names are skipped."""
        for table, make in ((SPANS, self._span_wrapper),
                            (LEAVES_WRAPPED, self._leaf_wrapper)):
            for name, targets in table:
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, make(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s[PARENT])] if s[PARENT] is not None else None
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": parent, "job": s[JOB],
                                     "leaves": s[LEAVES]}) + "\n")

    def layer_totals(self) -> dict[str, float]:
        """Summed span time (``.s``), self time (``.self_s``) and leaf calls
        and time over all recorded jobs."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            dur = s[END] - s[START]
            out[s[NAME] + ".s"] += dur
            if s[PARENT] is not None:
                child_time[id(s[PARENT])] += dur
            for leaf, (calls, secs) in s[LEAVES].items():
                out[leaf + ".calls"] += calls
                out[leaf + ".s"] += secs
                child_time[id(s)] += secs
        for s in self.spans:
            out[s[NAME] + ".self_s"] += s[END] - s[START] - child_time[id(s)]
        return out
