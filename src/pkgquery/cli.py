"""Command-line interface: partition | run | gen.

Exit codes for ``run``: 0 feasible, 1 bad input (a missing file, a query
that does not parse or validate, has unbounded repetition or cannot be
sketched, a malformed CSV or partitioning file, a partitioning file of
another format version (re-run ``partition`` to rebuild it) or of another
relation), 2 infeasible or a usage error, 3 time limit. ``partition``
and ``gen`` exit 0 on success and 2 on a usage error, a missing or
malformed input file, an output path that cannot be written, or settings
the partitioner or the generator rejects. ``partition`` prints the group
statistics and the milliseconds spent loading the CSV (``load_ms``),
partitioning (``partition_ms``) and saving the file (``save_ms``).
All randomness flows from --seed; identical invocations produce identical
status/objective output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import generate, paql
from .evaluate import (
    FEASIBLE,
    INFEASIBLE,
    METHOD_DIRECT,
    METHOD_SKETCHREFINE,
    TIME_LIMIT,
    EvalConfig,
    EvalError,
    UnsketchableQueryError,
    eval_direct,
    eval_sketchrefine,
)
from .ilp import IlpError, UnboundedModelError, ilp_to_paql, load_raw_ilp
from .partitioning import (
    PartitionError,
    PartitionParams,
    load_partitioning,
    partition,
    partition_with_epsilon,
    save_partitioning,
)
from .relation import RelationError, load_csv, save_csv


def _csv_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def cmd_partition(args) -> int:
    attrs = tuple(_csv_list(args.attrs))
    if args.epsilon is not None and args.direction is None:
        print("error: --epsilon needs --direction min|max", file=sys.stderr)
        return 2
    if args.epsilon is not None and args.omega is not None:
        print("error: --omega and --epsilon both set the radius limit; give one",
              file=sys.stderr)
        return 2
    if args.epsilon is None and args.direction is not None:
        print("error: --direction needs --epsilon", file=sys.stderr)
        return 2
    try:
        t0 = time.perf_counter()
        rel = load_csv(args.input)
        t1 = time.perf_counter()
        if args.epsilon is not None:
            p = partition_with_epsilon(rel, attrs, args.tau, args.epsilon, args.direction)
        else:
            omega = math.inf if args.omega is None else args.omega
            p = partition(rel, PartitionParams(attrs, args.tau, omega))
        t2 = time.perf_counter()
        save_partitioning(p, args.out)
        t3 = time.perf_counter()
    except (OSError, RelationError, PartitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "groups": p.m, "tau": p.tau,
        "omega": "inf" if math.isinf(p.omega) else p.omega,
        "max_radius": float(p.radii.max()) if p.m else 0.0,
        "degenerate_groups": len(p.degenerate),
        "load_ms": round((t1 - t0) * 1000.0, 3),
        "partition_ms": round((t2 - t1) * 1000.0, 3),
        "save_ms": round((t3 - t2) * 1000.0, 3), "out": args.out,
    }))
    return 0


def cmd_run(args) -> int:
    try:
        cfg = EvalConfig(seed=args.seed, time_limit=args.time_limit_s,
                         backtrack_limit=args.backtrack_limit,
                         recursion_threshold=args.recursion_threshold)
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.method == METHOD_SKETCHREFINE and not args.partitioning:
        print("error: --method sketchrefine requires --partitioning",
              file=sys.stderr)
        return 2
    try:
        q = paql.load_query(args.query)  # a bad query fails before the CSV load
        rel = load_csv(args.input)
        q = paql.validate(q, rel.schema)
        if args.method == METHOD_DIRECT:
            report = eval_direct(q, rel, cfg)
        else:
            p = load_partitioning(args.partitioning, rel)
            report = eval_sketchrefine(q, rel, p, cfg)
    except (OSError, paql.PaqlError, RelationError, PartitionError,
            UnboundedModelError, UnsketchableQueryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.to_json_dict(), indent=2))
    return {FEASIBLE: 0, INFEASIBLE: 2, TIME_LIMIT: 3}[report.status]


def cmd_gen(args) -> int:
    if args.rows is None and not args.workload and not args.from_ilp:
        print("error: nothing to generate (--rows, --workload, or --from-ilp)",
              file=sys.stderr)
        return 2
    try:
        if args.from_ilp:
            rel, q = ilp_to_paql(load_raw_ilp(args.from_ilp))
            save_csv(rel, args.out or "ilp_data.csv")
            out_query = args.out_query or "ilp_query.paql"
            with open(out_query, "w", encoding="utf-8") as fh:
                fh.write(paql.to_paql(q) + "\n")
            print(json.dumps({"csv": args.out or "ilp_data.csv", "query": out_query}))
            return 0
        rel = None
        if args.rows is not None:
            if not args.out:
                print("error: --rows needs --out for the CSV", file=sys.stderr)
                return 2
            rel = generate.gen_dataset(
                args.rows, args.cols, args.seed, dist=args.dist,
                low=args.low, high=args.high, mean=args.mean, sigma=args.sigma)
            save_csv(rel, args.out)
            print(json.dumps({"csv": args.out, "rows": rel.n,
                              "cols": len(rel.schema.attributes)}))
        if args.workload:
            if rel is None:
                if not args.input:
                    print("error: --workload needs --input or --rows", file=sys.stderr)
                    return 2
                rel = load_csv(args.input)
            queries = generate.gen_workload(
                rel, args.workload, args.seed, expected_size=args.expected_size,
                wide=args.wide)
            paths = generate.queries_to_files(queries, args.out_dir or "workload")
            print(json.dumps({"queries": paths}))
    except (OSError, RelationError, IlpError, generate.GenerateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkgquery",
        description="Evaluate package queries: declarative multiset answers "
                    "under collective constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="partition a dataset offline")
    p_part.add_argument("--input", required=True)
    p_part.add_argument("--attrs", required=True,
                        help="comma-separated numeric attributes")
    p_part.add_argument("--tau", type=int, required=True,
                        help="max tuples per group")
    p_part.add_argument("--omega", type=float, default=None,
                        help="radius limit (number or 'inf'; default inf)")
    p_part.add_argument("--epsilon", type=float, default=None,
                        help="derive the radius limit from this approximation target")
    p_part.add_argument("--direction", choices=["min", "max"], default=None)
    p_part.add_argument("--out", required=True)
    p_part.set_defaults(func=cmd_partition)

    p_run = sub.add_parser("run", help="evaluate one query")
    p_run.add_argument("--method", choices=[METHOD_DIRECT, METHOD_SKETCHREFINE],
                       required=True)
    p_run.add_argument("--query", required=True, help=".paql file")
    p_run.add_argument("--input", required=True, help="dataset CSV")
    p_run.add_argument("--partitioning", default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--time-limit-s", type=float, default=3600.0)
    p_run.add_argument("--backtrack-limit", type=int, default=None)
    p_run.add_argument("--recursion-threshold", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen", help="synthetic data / workloads / ILP pairs")
    p_gen.add_argument("--rows", type=int, default=None)
    p_gen.add_argument("--cols", type=int, default=4)
    p_gen.add_argument("--dist", choices=["uniform", "normal"], default="uniform")
    p_gen.add_argument("--low", type=float, default=0.0)
    p_gen.add_argument("--high", type=float, default=1.0)
    p_gen.add_argument("--mean", type=float, default=0.0)
    p_gen.add_argument("--sigma", type=float, default=1.0)
    p_gen.add_argument("--out", default=None, help="dataset CSV path")
    p_gen.add_argument("--workload", type=int, default=None,
                       help="number of random queries to emit")
    p_gen.add_argument("--expected-size", type=int, default=5)
    p_gen.add_argument("--wide", action="store_true",
                       help="loose low-selectivity constraint windows")
    p_gen.add_argument("--out-dir", default=None)
    p_gen.add_argument("--input", default=None,
                       help="existing dataset for workload generation")
    p_gen.add_argument("--from-ilp", default=None,
                       help="raw ILP JSON to convert into a (csv, paql) pair")
    p_gen.add_argument("--out-query", default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
