"""One workload of the benchmark, in a process of its own.

Started by ``run.py`` as ``python -m perfbench.worker`` from the checkout
root. It generates the inputs from the seed, times set-up, replays the
queries as a closed loop with one client, checks every answer and prints
the metrics. Each operation is: parse and validate the PaQL text, call
``eval_direct`` or ``eval_sketchrefine``, and build
``EvalReport.to_json_dict()``; it is timed by wall clock, and the answer
checks run outside the timed part.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "pkgquery" / "__init__.py").is_file():
    raise ImportError(f"no engine source at {SRC / 'pkgquery'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pkgquery  # noqa: E402
from pkgquery import evaluate, generate, paql, partitioning, relation, solver  # noqa: E402

from perfbench import check, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    COLS, DIRECT, EXPECTED_SIZE, HIGH, LOW, QUERIES, REPEAT_BELOW_S,
    SETUP_REPS, SETUP_SPACING, SKETCHREFINE, THREAD_VARS, TIME_LIMIT_S,
    WORKLOADS, Workload)

if Path(pkgquery.__file__).resolve().parent != (SRC / "pkgquery").resolve():
    raise ImportError(f"pkgquery imported from {pkgquery.__file__}, not {SRC}")

RELATION = "R"
EVALS = {DIRECT: evaluate.eval_direct, SKETCHREFINE: evaluate.eval_sketchrefine}
CSV_CHUNK_ROWS = 50_000
clock = time.perf_counter

# The metrics of the last output line. Method-specific metrics exist only
# where a workload runs that method, so the latency here is taken over all
# of a workload's operations; each gated workload runs one method, so it is
# that method's. The per-method split and the higher percentiles are
# printed beside it. The percentiles above p50 are not gated: they fall
# between the cost clusters of the five query shapes, or in the 1-5 s tail
# of capped queries, and jump from seed to seed. Peak memory over the whole
# run depends on the deepest branch-and-bound stack among the queries a
# seed draws, so the gate takes it at the end of set-up.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "setup_peak_rss_mb": "MB",
}
PER_LAYER = {
    "simplex.lp_calls": "count",
    "simplex.lp_ms": "ms",
    "simplex.ms_per_lp": "ms",
    "simplex.iterations": "count",
    "simplex.columns_per_lp": "count",
    "solver.solve_calls": "count",
    "solver.self_ms": "ms",
    "solver.nodes": "count",
    "solver.lp_iterations": "count",
    "solver.time_limit_hits": "count",
    "ilp.translate_ms": "ms",
    "ilp.translate_calls": "count",
    "ilp.vars_built": "count",
    "ilp.derive_bounds_ms": "ms",
    "ilp.feasible_ms": "ms",
    "ilp.package_from_solution_ms": "ms",
    "ilp.aggregate_value_ms": "ms",
    "ilp.predicate_linear_value_ms": "ms",
    "partitioning.in_query_ms": "ms",
    "paql.parse_ms": "ms",
    "paql.validate_ms": "ms",
    "evaluate.self_ms": "ms",
    "evaluate.sketch_solves": "count",
    "evaluate.refine_solves": "count",
    "evaluate.hybrid_solves": "count",
    "evaluate.backtracks": "count",
    "evaluate.refine_success_ratio": "ratio",
    "evaluate.reported_share": "ratio",
    "relation.load_csv_s": "s",
    "partitioning.partition_s": "s",
    "partitioning.save_s": "s",
    "partitioning.load_s": "s",
    "trace.wall_ms": "ms",
    "trace.outside_share": "ratio",
    "trace.overhead_share": "ratio",
}
SETUP_STEPS = ("relation.load_csv_s", "partitioning.partition_s",
               "partitioning.save_s", "partitioning.load_s")


@dataclass
class Inputs:
    columns: dict[str, np.ndarray]  # the data as generated: the checks' truth
    texts: list[str]                # PaQL text of each query
    specs: list[check.QuerySpec]    # the same queries as plain data


@dataclass
class Op:
    qi: int
    method: str
    wall_s: float
    status: str  # an EvalReport status, or "error" when the call raised
    objective: Optional[float] = None
    report: Optional[evaluate.EvalReport] = None
    problem: Optional[str] = None  # why the answer failed its check
    ratio: Optional[float] = None  # approximation ratio against Direct

    @property
    def failed(self) -> bool:
        return self.status in ("error", "time_limit") or self.problem is not None

    @property
    def verified(self) -> bool:
        return self.status == "feasible" and self.problem is None


def make_inputs(w: Workload, seed: int, csv_path: Path) -> Inputs:
    """Seeded data and queries; writes the CSV that set-up loads."""
    rel = generate.gen_dataset(w.rows, COLS, seed, low=LOW, high=HIGH,
                               grid=w.grid, name=RELATION)
    # one query in five is capped-knapsack, so twice QUERIES is plenty
    queries = generate.gen_workload(rel, 2 * QUERIES, seed,
                                    expected_size=EXPECTED_SIZE)
    if not w.capped:
        queries = [q for q in queries if not capped_knapsack(check.spec_of(q))]
    queries = queries[:QUERIES]
    columns = {a: rel.column(a) for a in rel.numeric_attrs()}
    write_csv(columns, csv_path)
    return Inputs(columns, [paql.to_paql(q) for q in queries],
                  [check.spec_of(q) for q in queries])


def capped_knapsack(spec: check.QuerySpec) -> bool:
    """A MAXIMIZE objective under a SUM <= cap: the generator's
    capped-knapsack shape."""
    return (spec.objective is not None and spec.objective[0] == "maximize"
            and any(kind == "sum" and op == "<=" for kind, _, op, _ in spec.predicates))


def write_csv(columns: dict[str, np.ndarray], path: Path) -> None:
    # %.17g round-trips every float64 exactly
    data = np.column_stack(list(columns.values()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(data), CSV_CHUNK_ROWS):
            np.savetxt(fh, data[start:start + CSV_CHUNK_ROWS], fmt="%.17g",
                       delimiter=",")


def set_up(w: Workload, csv_path: Path, part_path: Path):
    """The program's set-up before its first query: load the CSV, build
    the partitioning on every attribute, save it and load it back, as
    ``pkgquery partition`` followed by ``pkgquery run`` do."""
    times = {}
    t0 = clock()
    rel = relation.load_csv(csv_path, name=RELATION)
    t1 = clock()
    built = partitioning.partition(
        rel, partitioning.PartitionParams(rel.numeric_attrs(), w.tau))
    t2 = clock()
    partitioning.save_partitioning(built, part_path)
    t3 = clock()
    part = partitioning.load_partitioning(part_path, rel)
    t4 = clock()
    for name, seconds in zip(SETUP_STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
        times[name] = seconds
    return rel, part, times


class Session:
    """A set-up program and the queries to replay against it."""

    def __init__(self, w: Workload, seed: int, inputs: Inputs, rel, part):
        self.w = w
        self.inputs = inputs
        self.rel = rel
        self.part = part
        self.cfg = evaluate.EvalConfig(seed=seed, time_limit=TIME_LIMIT_S)

    def replay_traced(self, seconds: float, tracer: tracing.Tracer
                      ) -> tuple[list[Op], list[Op]]:
        """Closed loop, one client, each query run once untraced and once
        traced, in turns first or second so that both see the same
        conditions, over the queries again and again until ``seconds``
        have passed. Returns (untraced operations, traced operations),
        aligned by position."""
        plain: list[Op] = []
        traced: list[Op] = []
        start = clock()
        for i in itertools.count():
            if clock() - start >= seconds:
                break
            qi = i % len(self.inputs.texts)
            runs = [(plain, None), (traced, tracer)]
            for ops, tr in (runs if i % 2 == 0 else runs[::-1]):
                compare(self.inputs.specs[qi], self.run_query(qi, ops, tr))
        return plain, traced

    def replay_best_of(self, seconds: float, between_passes: Callable[[], None]
                       ) -> tuple[list[Op], list[Op]]:
        """Closed loop, one client: every method of the workload on query
        0, then on query 1, and so on to the last query; then passes over
        the operations that took less than REPEAT_BELOW_S, until
        ``seconds`` have passed. ``between_passes`` is called before a
        repeat pass that starts a SETUP_SPACING share of ``seconds`` or
        more after its last call.

        Returns (first pass, repeats); an operation's latency is its best
        run."""
        first: list[Op] = []
        start = clock()
        for qi in range(len(self.inputs.texts)):
            compare(self.inputs.specs[qi], self.run_query(qi, first))
        fast = [op for op in first if op.wall_s < REPEAT_BELOW_S]
        repeats: list[Op] = []
        last_call = None
        while fast and clock() - start < seconds:
            if last_call is None or clock() - last_call >= SETUP_SPACING * seconds:
                between_passes()
                last_call = clock()
            repeats += [self.operation(op.qi, op.method, EVALS[op.method], {})
                        for op in fast]
        return first, repeats

    def run_query(self, qi: int, ops: list[Op],
                  tracer: Optional[tracing.Tracer] = None) -> dict[str, Op]:
        """Every method of the workload on one query; appends to ``ops``."""
        evals = EVALS
        extra = {}
        pair = {}
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing.installed(tracer, (evaluate, solver, paql)))
                evals = {m: tracer.wrap(f"evaluate.{fn.__name__}", fn)
                         for m, fn in evals.items()}
                extra = {"solver_fn": tracer.solver_fn(solver.solve)}
            for method in self.w.methods:
                if tracer is not None:
                    tracer.op = len(ops)
                op = self.operation(qi, method, evals[method], extra)
                ops.append(op)
                pair[method] = op
        return pair

    def operation(self, qi: int, method: str, eval_fn, extra: dict) -> Op:
        t0 = clock()
        try:
            q = paql.validate(paql.parse(self.inputs.texts[qi]), self.rel.schema)
            if method == DIRECT:
                report = eval_fn(q, self.rel, self.cfg, **extra)
            else:
                report = eval_fn(q, self.rel, self.part, self.cfg, **extra)
            answer = report.to_json_dict()
        except Exception:
            wall = clock() - t0
            print(f"perfbench: query {qi} {method} raised:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            return Op(qi, method, wall, "error")
        wall = clock() - t0
        op = Op(qi, method, wall, answer["status"], answer["objective"], report)
        op.problem = check.check_answer(self.inputs.specs[qi], self.inputs.columns,
                                        self.rel.n, answer)
        if op.problem:
            print(f"perfbench: query {qi} {method}: {op.problem}", file=sys.stderr)
        return op

def compare(spec: check.QuerySpec, pair: dict[str, Op]) -> None:
    """SketchRefine against Direct's exact optimum on the same query.

    Direct is exact, so a verified SketchRefine package is a defect of
    Direct when Direct reports the query infeasible, and of SketchRefine
    when it beats Direct's objective."""
    d, s = pair.get(DIRECT), pair.get(SKETCHREFINE)
    if d is None or s is None or not s.verified:
        return
    if d.status == "infeasible":
        d.problem = "infeasible, but sketchrefine found a verified package"
        print(f"perfbench: query {d.qi} {DIRECT}: {d.problem}", file=sys.stderr)
        return
    if not d.verified:
        return
    s.problem = check.check_not_better(spec, d.objective, s.objective)
    if s.problem:
        print(f"perfbench: query {s.qi} {SKETCHREFINE}: {s.problem}",
              file=sys.stderr)
    elif spec.objective is not None:
        try:
            s.ratio = evaluate.approximation_ratio(
                d.report, s.report, spec.objective[0])
        except evaluate.RatioUndefinedError:
            pass


# ---------------------------------------------------------------------------
# Metrics


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _latency_metrics(ops: list[Op], best: dict, prefix: str = "") -> dict:
    walls_ms = [best[op.qi, op.method] * 1e3 for op in ops]
    verified = sum(op.verified for op in ops)
    return {
        f"{prefix}latency_p50_ms": _metric(float(np.percentile(walls_ms, 50)), "ms"),
        f"{prefix}latency_p75_ms": _metric(float(np.percentile(walls_ms, 75)), "ms"),
        f"{prefix}latency_p90_ms": _metric(float(np.percentile(walls_ms, 90)), "ms"),
        f"{prefix}queries_per_s": _metric(verified / sum(op.wall_s for op in ops), "1/s"),
        f"{prefix}ops": _metric(len(ops), "count"),
    }


def end_to_end(w: Workload, first: list[Op], repeats: list[Op],
               setup_s: float, setup_rss_mb: float, peak_mb: float) -> dict:
    """Every end-to-end metric, over all operations and per method.

    Latencies are each operation's best run; the other metrics count the
    first pass, which is the workload as a client sends it."""
    best = {(op.qi, op.method): op.wall_s for op in first}
    for op in repeats:
        best[op.qi, op.method] = min(best[op.qi, op.method], op.wall_s)
    out = {"setup_s": _metric(setup_s, "s")}
    out.update(_latency_metrics(first, best))
    out["failed_frac"] = _metric(sum(op.failed for op in first) / len(first), "ratio")
    out["setup_peak_rss_mb"] = _metric(setup_rss_mb, "MB")
    out["peak_rss_mb"] = _metric(peak_mb, "MB")
    by_method = {m: [op for op in first if op.method == m] for m in w.methods}
    for method, mops in by_method.items():
        out.update(_latency_metrics(mops, best, f"{method}."))
    if DIRECT in by_method and SKETCHREFINE in by_method:
        # time-limit results are not claims of infeasibility; failed_frac
        # counts them
        pairs = list(zip(by_method[DIRECT], by_method[SKETCHREFINE]))
        found = [(d, s) for d, s in pairs if d.verified]
        missed = sum(s.status == "infeasible" for _, s in found)
        out["sketchrefine.false_infeasible_frac"] = _metric(
            missed / len(found) if found else None, "ratio")
        ratios = [s.ratio for _, s in found if s.ratio is not None]
        out["sketchrefine.approx_ratio_p50"] = _metric(
            float(np.median(ratios)) if ratios else None, "ratio")
    return out


def _per_op_totals(spans: list[list], n_ops: int) -> list[dict]:
    """Per operation: self seconds and call count of every span name, and
    the sum of every count the span recorded."""
    totals = [defaultdict(float) for _ in range(n_ops)]
    for rec, own in zip(spans, tracing.self_times(spans)):
        acc = totals[rec[tracing.OP]]
        name = rec[tracing.NAME]
        acc[name + ":self"] += own
        acc[name + ":calls"] += 1
        for key, value in (rec[tracing.COUNTS] or {}).items():
            acc[f"{name}:{key}"] += value
    return totals


def layer_metrics(traced: list[Op], plain: list[Op], spans: list[list],
                  setup_steps: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metrics for all operations and per method: run totals
    divided by the number of operations. ``plain`` is the untraced replay
    of the same operations, which gives the tracing overhead."""
    totals = _per_op_totals(spans, len(traced))
    covered = tracing.covered_by_top_spans(spans)

    def summarize(idx: list[int]) -> dict:
        n = len(idx)

        def tot(key):
            return sum(totals[i][key] for i in idx)

        def per_op_ms(*names):
            return sum(tot(f"{name}:self") for name in names) * 1e3 / n

        lp_calls = tot("simplex.lp_solve:calls")
        refines = tot("evaluate.refine_group:calls")
        reports = [traced[i].report for i in idx if traced[i].report is not None]
        wall = sum(traced[i].wall_s for i in idx)
        plain_ops = [plain[i] for i in idx]
        reported_ms = sum(op.report.timings_ms.get("total_ms", 0.0)
                          for op in plain_ops if op.report is not None)
        # a time-limited operation takes the limit traced or not
        timed = [i for i in idx if "time_limit" not in (traced[i].status, plain[i].status)]
        traced_s = sum(traced[i].wall_s for i in timed)
        plain_s = sum(plain[i].wall_s for i in timed)
        values = {
            "simplex.lp_calls": lp_calls / n,
            "simplex.lp_ms": per_op_ms("simplex.lp_solve"),
            "simplex.ms_per_lp": tot("simplex.lp_solve:self") * 1e3 / max(lp_calls, 1),
            "simplex.iterations": tot("simplex.lp_solve:iterations") / n,
            "simplex.columns_per_lp": tot("simplex.lp_solve:columns") / max(lp_calls, 1),
            "solver.solve_calls": tot("solver.solve:calls") / n,
            "solver.self_ms": per_op_ms("solver.solve"),
            "solver.nodes": tot("solver.solve:nodes") / n,
            "solver.lp_iterations": tot("solver.solve:lp_iterations") / n,
            "solver.time_limit_hits": tot("solver.solve:time_limit") / n,
            "ilp.translate_ms": per_op_ms("ilp.translate"),
            "ilp.translate_calls": tot("ilp.translate:calls") / n,
            "ilp.vars_built": tot("ilp.translate:vars") / n,
            "ilp.derive_bounds_ms": per_op_ms("ilp.derive_bounds"),
            "ilp.feasible_ms": per_op_ms("ilp.feasible"),
            "ilp.package_from_solution_ms": per_op_ms("ilp.package_from_solution"),
            "ilp.aggregate_value_ms": per_op_ms("ilp.aggregate_value"),
            "ilp.predicate_linear_value_ms": per_op_ms("ilp.predicate_linear_value"),
            "partitioning.in_query_ms": per_op_ms(
                *(name for _, name in tracing.EVALUATE_IMPORTS
                  if name.startswith("partitioning."))),
            "paql.parse_ms": per_op_ms("paql.parse"),
            "paql.validate_ms": per_op_ms("paql.validate"),
            "evaluate.self_ms": per_op_ms("evaluate.eval_direct",
                                          "evaluate.eval_sketchrefine",
                                          "evaluate.refine_group"),
            "evaluate.sketch_solves": sum(r.subproblems.get("sketch", 0) for r in reports) / n,
            "evaluate.refine_solves": sum(r.subproblems.get("refine", 0) for r in reports) / n,
            "evaluate.hybrid_solves": sum(r.subproblems.get("hybrid", 0) for r in reports) / n,
            "evaluate.backtracks": sum(r.backtracks for r in reports) / n,
            # base: calls of the refine step; 0 without any
            "evaluate.refine_success_ratio":
                tot("evaluate.refine_group:accepted") / refines if refines else 0.0,
            "evaluate.reported_share": reported_ms / 1e3 / sum(op.wall_s for op in plain_ops),
            "trace.wall_ms": wall * 1e3 / n,
            "trace.outside_share": sum(traced[i].wall_s - covered.get(i, 0.0)
                                       for i in idx) / wall,
            "trace.overhead_share": traced_s / plain_s - 1.0 if plain_s else 0.0,
        }
        values.update(setup_steps)
        return {name: _metric(values[name], PER_LAYER[name]) for name in PER_LAYER}

    methods = sorted({op.method for op in traced})
    per_method = {m: summarize([i for i, op in enumerate(traced) if op.method == m])
                  for m in methods}
    return summarize(list(range(len(traced)))), per_method


# ---------------------------------------------------------------------------
# Run


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    try:
        # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "seed": seed,
        "time_limit_s": TIME_LIMIT_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def digest_lines(ops: list[Op]) -> list[str]:
    """(query, method, status, objective) per operation, for diffing the
    answers of two commits."""
    return [f"{op.qi}\t{op.method}\t{op.status}\t{op.objective!r}" for op in ops]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (report, last output line)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="data-", dir=out_dir))
    try:
        csv_path, part_path = work / "data.csv", work / "partitioning.json"
        inputs = make_inputs(w, seed, csv_path)
        setups = []
        for _ in range(SETUP_REPS):
            rel = part = None  # release the previous round before loading
            rel, part, times = set_up(w, csv_path, part_path)
            setups.append(times)
        setup_rss_mb = _peak_rss_mb()
        session = Session(w, seed, inputs, rel, part)
        if not trace:
            # more set-up rounds between the repeat passes, so that set-up,
            # like the queries, is timed across the whole run
            first, repeats = session.replay_best_of(
                seconds, lambda: setups.append(set_up(w, csv_path, part_path)[2]))
            setup_s = min(sum(t.values()) for t in setups)
            metrics = end_to_end(w, first, repeats, setup_s, setup_rss_mb,
                                 _peak_rss_mb())
            answers, ops = first, first + repeats
            last = {name: metrics[name] for name in END_TO_END}
            per_method = None
        else:
            tracer = tracing.Tracer()
            plain, traced = session.replay_traced(seconds, tracer)
            steps = {name: min(t[name] for t in setups) for name in SETUP_STEPS}
            metrics, per_method = layer_metrics(traced, plain, tracer.spans, steps)
            # each query ran twice; the untraced answers of the first
            # round over the queries stand for all
            answers, ops = plain[:len(inputs.texts) * len(w.methods)], plain + traced
            last = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = digest_lines(answers)
    (out_dir / "digest.tsv").write_text("\n".join(digest) + "\n", encoding="utf-8")
    failed = sum(op.failed for op in ops)
    correct = not any(op.problem or op.status == "error" for op in ops)
    report = {
        "workload": w.name,
        "trace": trace,
        "meta": metadata(seed),
        "metrics": metrics,
        "per_method": per_method,
        "digest_sha256": hashlib.sha256("\n".join(digest).encode()).hexdigest(),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    return report, {"correct": correct, "attempted": len(ops), "failed": failed,
                    "metrics": last}


def format_report(report: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"# workload {report['workload']}  trace={int(report['trace'])}",
             "# meta " + json.dumps(report["meta"], sort_keys=True)]
    sections = [("", report["metrics"])]
    for method, metrics in (report["per_method"] or {}).items():
        sections.append((f"{method}: ", metrics))
    for prefix, metrics in sections:
        for name, m in metrics.items():
            value = m["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"{prefix}{name} {shown} {m['unit']}")
    lines.append(f"# digest sha256 {report['digest_sha256']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report, last = run_workload(WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), out_dir)
    for line in format_report(report):
        print(line)
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
