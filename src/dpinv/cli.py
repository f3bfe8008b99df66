"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 invalid input (unreadable files,
bad graphs, bad arguments that parse), 3 numerical failure (non-convergence,
a failed LAPACK call or a failed verification).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io as dio
from .errors import DpinvError, InputError, NumericalError
from .graphgen import GenConfig, preferential_attachment_digraph, random_graph
from .krylov import GmresConfig
from .laplacian import (eulerian_system, general_laplacian, general_pinv,
                        pinv_columns)
from .metrics import (PinvBlock, augment_evaporating, commute_time,
                      hitting_time, influence_scores, kemeny_constant,
                      pass_probability, visits)
from .oracle import (dense_pinv_reference, hitting_times_direct,
                     penrose_check, stationary_direct)
from .sparse import (Digraph, SparseMatrix, build_transition, matvec,
                     strong_connectivity_certificate)
from .stationary import SubspaceConfig, stationary_distribution


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _env_seed() -> int:
    raw = os.environ.get("DPINV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"DPINV_SEED must be an integer, got {raw!r}")


def _gen_n(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 3:
        raise argparse.ArgumentTypeError("n must be at least 3")
    return value


def _require_sc(g: Digraph) -> SparseMatrix:
    """Reject a graph that is not strongly connected; returns its adjacency,
    built once for both this check and build_transition."""
    a = g.adjacency()
    cert = strong_connectivity_certificate(g, a)
    if cert is not None:
        raise InputError(
            f"graph is not strongly connected: no path from node {cert[0]} "
            f"to node {cert[1]}")
    return a


def _parse_cols(spec: str, n: int) -> list[int]:
    if spec == "all":
        return list(range(n))
    try:
        cols = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"bad column list {spec!r}; use 'all' or e.g. '0,3,7'")
    if not cols:
        raise InputError("empty column list")
    for j in cols:
        if not 0 <= j < n:
            raise InputError(f"column {j} out of range for n={n}")
    return cols


def _require_raw_out(args) -> None:
    """Reject raw output to stdout before any work is done."""
    if args.format == "raw" and args.out is None:
        raise InputError("raw output needs --out FILE")


def _write_block(block: np.ndarray, out: str | None, fmt: str) -> None:
    if out is None:
        dio._write_rows(sys.stdout, block)
    elif fmt == "raw":
        dio.write_columns_raw(block, out)
    else:
        dio.write_columns_csv(block, out)


def _sub_cfg(args, tol_cap: float | None = None) -> SubspaceConfig:
    tol = args.tol if tol_cap is None else min(args.tol, tol_cap)
    return SubspaceConfig(ell=args.ell, tol=tol,
                          max_iterations=args.max_iter, seed=args.seed)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_gen(args) -> int:
    cfg = GenConfig(args.n, args.attach, args.extra, args.seed)
    g = preferential_attachment_digraph(cfg)
    if args.out is None:
        dio._write_edges(sys.stdout, g)
    else:
        dio.write_edge_list(g, args.out)
    return 0


def cmd_stationary(args) -> int:
    g = dio.load_graph(args.graph)
    p, _ = build_transition(g, _require_sc(g))
    result = stationary_distribution(p, _sub_cfg(args))
    if args.report:
        print(f"iterations={result.iterations} mv={result.mv_count} "
              f"width={result.width} residual={result.residual:.3e} "
              f"time_ms={result.wall_time * 1e3:.2f}", file=sys.stderr)
    if args.out is None:
        dio._write_rows(sys.stdout, result.pi)
    else:
        dio.write_vector(result.pi, args.out)
    return 0


def cmd_pinv(args) -> int:
    _require_raw_out(args)
    g = dio.load_graph(args.graph)
    cols = _parse_cols(args.cols, g.n)
    p, _ = build_transition(g, _require_sc(g))
    # pi is driven tighter than the column tolerance: d-kind column accuracy
    # degrades with the stationary residual amplified by 1/sqrt(min pi)
    stat = stationary_distribution(p, _sub_cfg(args, tol_cap=1e-10))
    sys_ = eulerian_system(p, stat.pi, args.kind)
    cfg = GmresConfig(tol=args.tol)
    block, reports = pinv_columns(sys_, cols, cfg)
    if args.report:
        mv = sum(r.mv_count for r in reports)
        worst = max(r.final_residual for r in reports)
        print(f"columns={len(cols)} mv_total={mv} "
              f"worst_residual={worst:.3e}", file=sys.stderr)
    _write_block(block, args.out, args.format)
    return 0


def cmd_general_pinv(args) -> int:
    _require_raw_out(args)
    l = dio.read_matrix_auto(args.laplacian)
    cols = _parse_cols(args.cols, l.n_rows)
    if args.nullvec == "ones":
        x = np.ones(l.n_rows)
    else:
        x = dio.read_vector(args.nullvec)
    lt = general_laplacian(l, x)
    block, info = general_pinv(lt, cols, GmresConfig(tol=args.tol),
                               _sub_cfg(args, tol_cap=1e-9))
    if args.report:
        mv = sum(r.mv_count for r in info.column_reports) + info.extra_report.mv_count
        print(f"columns={len(cols)} mv_total={mv} "
              f"stationary_mv={info.stationary.mv_count}", file=sys.stderr)
    _write_block(block, args.out, args.format)
    return 0


def _parse_tuples(spec: str, arity: int) -> list[tuple[int, ...]]:
    """Comma separated i:k (arity 2) or i:j:k (arity 3) node tuples."""
    name, form = {2: ("pair", "i:k"), 3: ("triple", "i:j:k")}[arity]
    out = []
    for tok in spec.split(","):
        if tok.strip() == "":
            continue
        try:
            item = tuple(int(part) for part in tok.split(":"))
        except ValueError:
            item = ()
        if len(item) != arity:
            raise InputError(f"bad {name} {tok!r}; use {form}")
        out.append(item)
    return out


def cmd_metrics(args) -> int:
    if not (args.pairs or args.triples or args.kemeny or args.gamma is not None):
        raise InputError("nothing to compute; pass --pairs, --triples, "
                         "--kemeny or --gamma")
    g = dio.load_graph(args.graph)
    if args.gamma is not None:
        g = augment_evaporating(g, args.gamma)
    adjacency = _require_sc(g)
    n = g.n
    pairs = _parse_tuples(args.pairs, 2) if args.pairs else []
    triples = _parse_tuples(args.triples, 3) if args.triples else []
    for i, k in pairs:
        if not (0 <= i < n and 0 <= k < n):
            raise InputError(f"pair {i}:{k} out of range for n={n}")
    for i, j, k in triples:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise InputError(f"triple {i}:{j}:{k} out of range for n={n}")
        if j == k:
            raise InputError(f"triple {i}:{j}:{k}: pass probability to the "
                             "absorbing node is undefined")
    want_influence = args.gamma is not None
    p, _ = build_transition(g, adjacency)
    stat = stationary_distribution(p, _sub_cfg(args))
    sys_ = eulerian_system(p, stat.pi, "d")
    if want_influence or args.kemeny:
        needed = list(range(n))
    else:
        needed = sorted({k for _, k in pairs} | {i for i, _ in pairs}
                        | {j for _, j, _ in triples} | {k for _, _, k in triples})
    blockmat, _ = pinv_columns(sys_, needed, GmresConfig(tol=args.tol))
    block = PinvBlock("d", stat.pi, {j: blockmat[:, c] for c, j in enumerate(needed)})
    if pairs:
        print("i,k,hitting,commute")
        for i, k in pairs:
            print(f"{i},{k},{dio._FMT % hitting_time(block, i, k)},"
                  f"{dio._FMT % commute_time(block, i, k)}")
    if triples:
        print("i,j,k,visits,pass_prob")
        for i, j, k in triples:
            print(f"{i},{j},{k},{dio._FMT % visits(block, i, j, k)},"
                  f"{dio._FMT % pass_probability(block, i, j, k)}")
    if want_influence:
        scores = influence_scores(block, n - 1)
        print("j,influence")
        for j, s in enumerate(scores):
            print(f"{j},{dio._FMT % s}")
    if args.kemeny:
        print(f"kemeny,{dio._FMT % kemeny_constant(block)}")
    return 0


def cmd_bench(args) -> int:
    import statistics

    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
    if not sizes or not seeds:
        raise InputError("need at least one size and one seed")

    def run_one(n: int, seed: int):
        extra = n if args.extra == "n" else int(args.extra)
        g = random_graph(n, attach=args.attach, extra=extra, seed=seed)
        p, _ = build_transition(g)
        sub = SubspaceConfig(ell=args.ell, tol=args.tol, seed=seed)
        stat = stationary_distribution(p, sub)
        # benchmark-grade pi: relax the construction gate accordingly
        sys_ = eulerian_system(p, stat.pi, "d", null_tol=1e-4)
        blockmat, reports = pinv_columns(sys_, [0], GmresConfig(tol=args.tol))
        rep = reports[0]
        return (stat.mv_count, stat.wall_time * 1e3,
                rep.mv_count, rep.wall_time * 1e3)

    run_one(64, 0)  # untimed: lazy imports and first calls stay out of the timings
    lines = ["n,mv_pi,time_pi_ms,mv_col,time_col_ms"]
    for n in sizes:
        rows = [run_one(n, s) for s in seeds]
        med = [statistics.median(col) for col in zip(*rows)]
        lines.append(f"{n},{med[0]:g},{med[1]:.3f},{med[2]:g},{med[3]:.3f}")
    text = "\n".join(lines)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _verify_graph(g: Digraph, tol: float, label: str) -> bool:
    ok = True

    def check(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        status = "PASS" if passed else "FAIL"
        print(f"{status} {label} {name} {detail}")
        ok = ok and passed

    adjacency = _require_sc(g)
    if g.n > 300:
        raise InputError("verification battery is limited to n <= 300")
    p, _ = build_transition(g, adjacency)
    stat = stationary_distribution(p, SubspaceConfig(tol=1e-12))
    pi_ref = stationary_direct(p)
    err = float(np.abs(stat.pi - pi_ref).max())
    check("stationary", err <= 1e-8, f"max_err={err:.3e}")
    cfg = GmresConfig(tol=1e-12)
    for kind in ("r", "d"):
        sys_ = eulerian_system(p, stat.pi, kind)
        blockmat, _ = pinv_columns(sys_, list(range(g.n)), cfg)
        rep = penrose_check(sys_.l.to_dense(), blockmat)
        check(f"pinv_{kind}", rep.ok(tol), f"worst={rep.max_residual:.3e}")
        if kind == "d":
            block = PinvBlock.from_full("d", stat.pi, blockmat)
            k = int(np.argmax(stat.pi))
            href = hitting_times_direct(p, k)
            worst = max((abs(hitting_time(block, i, k) - href[i])
                         for i in range(g.n) if i != k), default=0.0)
            check("hitting", worst <= 1e-6, f"worst_abs={worst:.3e} target={k}")
    return ok


def _verify_columns(args) -> bool:
    g = dio.load_graph(args.graph)
    adjacency = _require_sc(g)
    if args.columns.endswith(".raw"):
        block = dio.read_columns_raw(args.columns)
    else:
        block = dio.read_columns_csv(args.columns)
    cols = _parse_cols(args.cols, g.n)
    if block.shape != (g.n, len(cols)):
        raise InputError(
            f"column block is {block.shape[0]}x{block.shape[1]}, expected "
            f"{g.n}x{len(cols)}; pass the matching --cols list")
    p, _ = build_transition(g, adjacency)
    stat = stationary_distribution(p, SubspaceConfig(tol=1e-12))
    sys_ = eulerian_system(p, stat.pi, args.kind)
    scale = max(float(np.abs(block).max()), 1.0)
    ok = True
    for c, j in enumerate(cols):
        b = block[:, c]
        # a true pseudo-inverse column solves L b = (I - u uT) e_j with uT b = 0
        e = np.zeros(g.n)
        e[j] = 1.0
        resid = float(np.abs(matvec(sys_.l, b) - (e - sys_.u * sys_.u[j])).max())
        null_part = abs(float(sys_.u @ b))
        passed = resid <= args.tol * scale and null_part <= args.tol * scale
        status = "PASS" if passed else "FAIL"
        print(f"{status} column {j} residual={resid:.3e} null={null_part:.3e}")
        ok = ok and passed
    return ok


def cmd_verify(args) -> int:
    if args.columns is not None:
        if args.graph is None:
            raise InputError("--columns needs --graph for the reference system")
        ok = _verify_columns(args)
    elif args.suite is not None:
        if args.suite != "small-random":
            raise InputError(f"unknown suite {args.suite!r}")
        if args.count < 1:
            raise InputError(f"--count must be at least 1, got {args.count}")
        ok = True
        sizes = (8, 13, 21, 34, 55)
        for c in range(args.count):
            g = random_graph(sizes[c % len(sizes)] + c, attach=2,
                             extra=3 + c, seed=args.seed + c)
            ok = _verify_graph(g, args.tol, f"graph[{c}]") and ok
    elif args.graph is not None:
        ok = _verify_graph(dio.load_graph(args.graph), args.tol, "graph")
    else:
        raise InputError("nothing to verify; pass --graph, --suite, or --columns")
    if not ok:
        raise NumericalError("verification failed")
    print("verification passed")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


_ELL_HELP = ("fixed subspace block width (default: start at 2 and double, "
             "up to 30, after 8 rounds in a row that fail to halve the "
             "residual)")


def _add_iter_args(p, tol_default=1e-9) -> None:
    p.add_argument("--ell", type=int, default=None, help=_ELL_HELP)
    p.add_argument("--tol", type=float, default=tol_default,
                   help=f"convergence tolerance (default {tol_default:g})")
    p.add_argument("--max-iter", type=int, default=10_000, dest="max_iter",
                   help="iteration cap (default 10000)")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: DPINV_SEED or 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="dpinv",
                     description="Stationary distributions, Laplacian "
                                 "pseudo-inverses, and random-walk metrics "
                                 "for strongly connected digraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a strongly connected digraph")
    p.add_argument("--n", type=_gen_n, required=True, help="node count (>= 3)")
    p.add_argument("--attach", type=int, default=2,
                   help="backbone attachments per node (default 2)")
    p.add_argument("--extra", type=int, default=0,
                   help="one-way arcs sprinkled on top (default 0)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="edge list path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stationary", help="stationary distribution of a graph")
    p.add_argument("graph", help="edge list or matrix market file")
    _add_iter_args(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--report", action="store_true",
                   help="print iteration statistics to stderr")
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("pinv", help="pseudo-inverse columns of a graph Laplacian")
    p.add_argument("graph")
    p.add_argument("--kind", choices=("r", "d"), default="d",
                   help="Laplacian flavor (default d)")
    p.add_argument("--cols", default="all",
                   help="'all' or a comma separated index list")
    _add_iter_args(p)
    p.add_argument("--format", choices=("csv", "raw"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=cmd_pinv)

    p = sub.add_parser("general-pinv",
                       help="pseudo-inverse of a general Laplacian-like matrix")
    p.add_argument("--laplacian", required=True,
                   help="matrix market or index triplet file")
    p.add_argument("--nullvec", default="ones",
                   help="right null vector file, or 'ones' (default)")
    p.add_argument("--cols", default="all")
    _add_iter_args(p)
    p.add_argument("--format", choices=("csv", "raw"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=cmd_general_pinv)

    p = sub.add_parser("metrics", help="random-walk metrics of a graph")
    p.add_argument("graph")
    p.add_argument("--pairs", default=None,
                   help="comma separated i:k pairs for hitting/commute times")
    p.add_argument("--triples", default=None,
                   help="comma separated i:j:k triples for visits/pass prob")
    p.add_argument("--kemeny", action="store_true")
    p.add_argument("--gamma", type=float, default=None,
                   help="evaporation rate; adds the evaporating node and "
                        "prints influence scores")
    _add_iter_args(p, tol_default=1e-12)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("bench", help="scaling benchmark over generated graphs")
    p.add_argument("--sizes", required=True, help="comma separated node counts")
    p.add_argument("--seeds", default="0,1,2",
                   help="seeds whose medians are reported (default 0,1,2)")
    p.add_argument("--attach", type=int, default=2)
    p.add_argument("--extra", default="n",
                   help="one-way arc count, or 'n' for one per node (default)")
    p.add_argument("--ell", type=int, default=None, help=_ELL_HELP)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check results against slow oracles")
    p.add_argument("--graph", default=None)
    p.add_argument("--suite", default=None, choices=("small-random",))
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--columns", default=None,
                   help="saved column block to certify against --graph")
    p.add_argument("--kind", choices=("r", "d"), default="d")
    p.add_argument("--cols", default="all")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser() once per process: parsing leaves the parser unchanged
    and each call gets a fresh namespace. The subcommand functions are bound
    when it is first built."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _env_seed()
        return args.func(args)
    except InputError as exc:
        print(f"dpinv: input error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:  # a ValueError, but raised by LAPACK
        print(f"dpinv: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"dpinv: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"dpinv: numerical failure: {exc}", file=sys.stderr)
        return 3
    except DpinvError as exc:
        print(f"dpinv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
