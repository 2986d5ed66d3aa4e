"""In-memory span tracer for the traced benchmark run.

Wrappers are installed only for the traced pass and removed afterwards.
Each wrapper replaces a function at the name its caller looks it up under
(for example ``pkgquery.evaluate.translate``, not ``pkgquery.ilp.translate``)
and records one span per call: name, operation id, parent span, start and
end. A layer's self time is a span's duration minus the time its child
spans cover, so the self times of one operation add up to the part of its
wall time that lies inside spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Optional

# (module attribute the caller looks up, span name); the prefix before the
# first dot is the layer, named after the engine's module
EVALUATE_IMPORTS = (
    ("translate", "ilp.translate"),
    ("derive_bounds", "ilp.derive_bounds"),
    ("feasible", "ilp.feasible"),
    ("package_from_solution", "ilp.package_from_solution"),
    ("aggregate_value", "ilp.aggregate_value"),
    ("predicate_linear_value", "ilp.predicate_linear_value"),
    ("group_means", "partitioning.group_means"),
    ("partition", "partitioning.partition"),
    ("restrict_to_ids", "partitioning.restrict_to_ids"),
)
PAQL_FUNCTIONS = (("parse", "paql.parse"), ("validate", "paql.validate"))

# span record fields
NAME, OP, PARENT, START, END, COUNTS = range(6)


def _lp_counts(args, kwargs, result):
    return {"iterations": result.iterations, "columns": len(args[0])}


def _translate_counts(args, kwargs, result):
    return {"vars": result.n_vars}


class Tracer:
    """Spans of the traced pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None

    def wrap(self, name: str, fn: Callable,
             counts: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[START] = t0
                stack.pop()
            if counts is not None:
                rec[COUNTS] = counts(args, kwargs, result)
            return result

        return traced

    def solver_fn(self, solve: Callable) -> Callable:
        """Traced stand-in for the ``solver_fn=`` argument of ``eval_*``."""
        return self.wrap("solver.solve", solve, _solve_counts)


def _solve_counts(args, kwargs, result):
    return {"nodes": result.stats.nodes,
            "lp_iterations": result.stats.lp_iterations,
            "time_limit": int(result.status == "time_limit")}


def _refine_counts(args, kwargs, result):
    # the refine step found a package for its group
    return {"accepted": int(result is not None)}


@contextmanager
def installed(tracer: Tracer, pkgquery_modules):
    """Install the wrappers for the duration of the block, then restore
    every original function, also when the block raises."""
    evaluate, solver, paql = pkgquery_modules
    patches = [(solver, "lp_solve", "simplex.lp_solve", _lp_counts)]
    patches += [(evaluate, attr, name,
                 _translate_counts if attr == "translate" else None)
                for attr, name in EVALUATE_IMPORTS]
    patches += [(paql, attr, name, None) for attr, name in PAQL_FUNCTIONS]
    # the refine step of SketchRefine, a method looked up on its class
    patches.append((evaluate._Refiner, "_refine_group", "evaluate.refine_group",
                    _refine_counts))
    saved = []
    try:
        for owner, attr, name, counts in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds of every span, aligned with ``spans``."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def covered_by_top_spans(spans: list[list]) -> dict[int, float]:
    """Per operation id, seconds covered by spans that have no parent."""
    out: dict[int, float] = {}
    for rec in spans:
        if rec[PARENT] < 0:
            out[rec[OP]] = out.get(rec[OP], 0.0) + rec[END] - rec[START]
    return out

