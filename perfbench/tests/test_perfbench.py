"""Tests of the benchmark itself, on tiny configurations of each workload.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import check, worker
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

# importing the worker put this checkout's src/ on sys.path
from pkgquery import evaluate, generate, ilp, paql, partitioning, simplex, solver  # noqa: E402

# (rows, tau) small enough for a test; scale-500k keeps more groups than
# tau, so its sketch still recurses
TINY = {"accept-50k": (2000, 200), "accept-50k-direct": (2000, 200),
        "accept-50k-sketchrefine": (2000, 200), "scale-500k": (4000, 20),
        "branchy-50k": (2000, 200)}


GATED = ("accept-50k-direct", "accept-50k-sketchrefine")


def tiny(name):
    rows, tau = TINY[name]
    return replace(WORKLOADS[name], rows=rows, tau=tau)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    w = tiny(name)
    report, last = worker.run_workload(w, seed=3, seconds=0.3, trace=False,
                                       out_dir=tmp_path)
    assert last["correct"] is True
    assert last["attempted"] >= len(w.methods)
    assert {k: v["unit"] for k, v in last["metrics"].items()} == worker.END_TO_END
    names = set(report["metrics"])
    expected = {"setup_s", "failed_frac", "peak_rss_mb", "setup_peak_rss_mb"}
    for method in w.methods:
        expected |= {f"{method}.latency_p50_ms", f"{method}.latency_p90_ms",
                     f"{method}.queries_per_s"}
    if len(w.methods) == 2:
        expected |= {"sketchrefine.false_infeasible_frac",
                     "sketchrefine.approx_ratio_p50"}
    assert expected <= names
    lines = worker.format_report(report)
    for metric, m in report["metrics"].items():
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {m['unit']}")
                   for line in lines), metric
    # the digest holds the first pass; the repeats of fast operations only
    # refine their latencies
    first_pass = report["metrics"]["ops"]["value"]
    assert len((tmp_path / "digest.tsv").read_text().splitlines()) == first_pass
    assert last["attempted"] >= first_pass
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("data-")]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gated_workloads_leave_out_capped_knapsack_queries(name, tmp_path):
    inputs = worker.make_inputs(tiny(name), 3, tmp_path / "data.csv")
    capped = sum(map(worker.capped_knapsack, inputs.specs))
    assert (capped > 0) == WORKLOADS[name].capped
    assert WORKLOADS[name].capped == (name not in GATED)


def _engine_functions():
    return {
        "solver.lp_solve": solver.lp_solve,
        "paql.parse": paql.parse,
        "paql.validate": paql.validate,
        "evaluate._Refiner._refine_group": evaluate._Refiner._refine_group,
        **{f"evaluate.{attr}": getattr(evaluate, attr)
           for attr, _ in worker.tracing.EVALUATE_IMPORTS},
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_prints_every_layer_metric_and_removes_wrappers(name, tmp_path):
    before = _engine_functions()
    report, last = worker.run_workload(tiny(name), seed=3, seconds=0.5,
                                       trace=True, out_dir=tmp_path)
    assert _engine_functions() == before
    assert solver.lp_solve is simplex.lp_solve
    assert evaluate.translate is ilp.translate
    assert evaluate.partition is partitioning.partition
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == worker.PER_LAYER
    for metrics in report["per_method"].values():
        assert set(metrics) == set(worker.PER_LAYER)
    values = {k: v["value"] for k, v in last["metrics"].items()}
    assert values["solver.solve_calls"] >= 1
    assert values["ilp.translate_calls"] >= 1
    assert 0 <= values["trace.outside_share"] < 0.05


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = _engine_functions()
    with pytest.raises(RuntimeError):
        with worker.tracing.installed(worker.tracing.Tracer(),
                                      (evaluate, solver, paql)):
            assert solver.lp_solve is not simplex.lp_solve
            raise RuntimeError("boom")
    assert _engine_functions() == before


def test_self_times_add_up_to_the_top_span():
    tracer = worker.tracing.Tracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(10000)))
    outer = tracer.wrap("a.outer", lambda: [inner() for _ in range(3)])
    tracer.op = 0
    outer()
    own = worker.tracing.self_times(tracer.spans)
    top = tracer.spans[0]
    assert len(tracer.spans) == 4
    assert [rec[worker.tracing.PARENT] for rec in tracer.spans] == [-1, 0, 0, 0]
    assert sum(own) == pytest.approx(top[worker.tracing.END] - top[worker.tracing.START])
    assert worker.tracing.covered_by_top_spans(tracer.spans)[0] == pytest.approx(
        top[worker.tracing.END] - top[worker.tracing.START])


@pytest.fixture(scope="module")
def solved():
    """A query, its data and a feasible Direct answer."""
    rel = generate.gen_dataset(300, 4, seed=5, low=0.5, high=2.0, grid=1 / 64)
    q = generate.gen_workload(rel, 1, seed=5, expected_size=8)[0]
    answer = evaluate.eval_direct(q, rel).to_json_dict()
    assert answer["status"] == "feasible"
    columns = {a: rel.column(a) for a in rel.numeric_attrs()}
    return check.spec_of(q), columns, rel.n, answer


def test_checker_accepts_the_engine_answer(solved):
    spec, columns, n, answer = solved
    assert check.check_answer(spec, columns, n, answer) is None


def _tampered(answer):
    package = answer["package"]
    (t0, k0), rest = package[0], package[1:]
    outside = max(t for t, _ in package) + 1
    return {
        "repeated tuple": [(t0, k0 + 1)] + rest,
        "tuple listed twice": package + [(t0, k0)],
        "id out of range": [(10 ** 9, 1)] + rest,
        "dropped tuple": rest,
        "extra tuple": package + [(outside, 1)],
    }


def test_checker_rejects_tampered_packages(solved):
    spec, columns, n, answer = solved
    for what, package in _tampered(answer).items():
        bad = {**answer, "package": package}
        assert check.check_answer(spec, columns, n, bad) is not None, what


def test_checker_rejects_a_wrong_objective_and_a_status_mismatch(solved):
    spec, columns, n, answer = solved
    assert check.check_answer(spec, columns, n,
                              {**answer, "objective": answer["objective"] + 1}) is not None
    assert check.check_answer(spec, columns, n,
                              {**answer, "status": "infeasible"}) is not None
    assert check.check_answer(spec, columns, n,
                              {**answer, "status": "time_limit", "package": None,
                               "objective": None}) is None


def test_checker_flags_sketchrefine_beating_direct(solved):
    spec = solved[0]
    best = solved[3]["objective"]
    better = best + 1.0 if spec.objective[0] == "maximize" else best - 1.0
    worse = best - 1.0 if spec.objective[0] == "maximize" else best + 1.0
    assert check.check_not_better(spec, best, better) is not None
    assert check.check_not_better(spec, best, worse) is None
    assert check.check_not_better(spec, best, best) is None

    def pair(d_status, d_obj, s_obj):
        d = worker.Op(0, "direct", 0.1, d_status, d_obj)
        s = worker.Op(0, "sketchrefine", 0.1, "feasible", s_obj)
        worker.compare(spec, {"direct": d, "sketchrefine": s})
        return d, s

    d, s = pair("feasible", best, better)
    assert d.problem is None and s.problem is not None and s.failed
    # Direct is exact: "infeasible" beside a verified SketchRefine package
    # is Direct's defect
    d, s = pair("infeasible", None, worse)
    assert d.problem is not None and d.failed and s.problem is None
    d, s = pair("time_limit", None, worse)
    assert d.problem is None and s.problem is None


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    # accept-50k, scale-500k and branchy-50k run on request but are not gated
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in GATED}


def test_exits_nonzero_without_the_engine_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accept-50k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
