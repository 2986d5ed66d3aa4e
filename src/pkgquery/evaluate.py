"""Package-query evaluation: Direct and the sketch/refine method.

Direct translates the whole query into one ILP and hands it to the solver.
The scalable path sketches a package over per-group representative tuples
(capped by group capacities), then refines one group at a time, replacing
representatives with original tuples under bound-shifted subqueries, with
greedy backtracking over refinement orders. Every package returned here is
verified feasible for the original query before it leaves.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import paql
from .ilp import (
    IlpModel,
    aggregate_value,
    derive_bounds,
    feasible,
    package_from_solution,
    predicate_linear_value,
    translate,
)
from .partitioning import Partitioning, PartitionParams, group_means, partition, restrict_to_ids
from .relation import Relation, apply_base_predicate, from_columns
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    SolveResult,
    SolverConfig,
    solve,
)

METHOD_DIRECT = "direct"
METHOD_SKETCHREFINE = "sketchrefine"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"

SolverFn = Callable[[IlpModel, SolverConfig], SolveResult]


class EvalError(Exception):
    pass


class RatioUndefinedError(EvalError):
    """Approximation ratio with a zero denominator."""


@dataclass(frozen=True)
class EvalConfig:
    seed: int = 0
    time_limit: float = 3600.0
    backtrack_limit: Optional[int] = None      # None -> 10 * group count
    recursion_threshold: Optional[int] = None  # None -> partitioning tau
    max_recursion_depth: int = 3
    hybrid_sketch: bool = True
    integrality_tol: float = 1e-6
    feasibility_tol: float = 1e-9

    def solver_config(self, remaining: float) -> SolverConfig:
        return SolverConfig(
            time_limit=max(remaining, 0.0),
            integrality_tol=self.integrality_tol,
            feasibility_tol=self.feasibility_tol,
            seed=self.seed,
        )


@dataclass
class Package:
    """Answer multiset: tuple id -> multiplicity, objective by aggregation."""

    entries: dict[int, int]
    objective_value: float

    def total_count(self) -> int:
        return sum(self.entries.values())


@dataclass
class EvalReport:
    method: str
    status: str
    package: Optional[Package] = None
    objective: Optional[float] = None
    timings_ms: dict = field(default_factory=dict)
    backtracks: int = 0
    subproblems: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "objective": self.objective,
            "package": sorted(self.package.entries.items()) if self.package else None,
            "timings_ms": self.timings_ms,
            "backtracks": self.backtracks,
            "subproblems": self.subproblems,
            "flags": list(self.flags),
        }


def package_objective(q: paql.PackageQuery, rel: Relation,
                      entries: Mapping[int, int]) -> float:
    """Objective value by direct aggregation (0 for vacuous objectives)."""
    if q.objective is None:
        return 0.0
    return aggregate_value(q.objective.expr, rel, entries)


class _Timer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0


class _TimeExceeded(Exception):
    pass


class _BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Direct


def eval_direct(q: paql.PackageQuery, rel: Relation, cfg: EvalConfig = EvalConfig(),
                solver_fn: SolverFn = solve,
                ids: Optional[Sequence[int]] = None,
                upper_override: Optional[Mapping[int, float]] = None) -> EvalReport:
    """Translate the whole query to one ILP and solve it exactly."""
    if not q.validated:
        raise EvalError("query must be validated")
    t_translate = _Timer()
    model = derive_bounds(translate(q, rel, ids=ids, upper_override=upper_override))
    translate_ms = t_translate.ms()

    t_solve = _Timer()
    res = solver_fn(model, cfg.solver_config(cfg.time_limit))
    solve_ms = t_solve.ms()
    timings = {"translate_ms": translate_ms, "solve_ms": solve_ms,
               "total_ms": translate_ms + solve_ms}

    if res.status == STATUS_TIME_LIMIT:
        return EvalReport(METHOD_DIRECT, TIME_LIMIT, timings_ms=timings,
                          subproblems={"solves": 1})
    if res.status == STATUS_INFEASIBLE:
        return EvalReport(METHOD_DIRECT, INFEASIBLE, timings_ms=timings,
                          subproblems={"solves": 1})
    if res.status != STATUS_OPTIMAL:
        raise EvalError(f"unexpected solver status {res.status!r}")

    entries = package_from_solution(model, res.x)
    objective = package_objective(q, rel, entries)
    if abs(objective - res.objective) > 1e-6 * max(1.0, abs(objective)):
        raise EvalError(
            f"solver objective {res.objective} disagrees with recomputed "
            f"aggregate {objective}")
    return EvalReport(
        METHOD_DIRECT, FEASIBLE, package=Package(entries, objective),
        objective=objective, timings_ms=timings, subproblems={"solves": 1})


# ---------------------------------------------------------------------------
# Sketch


def build_sketch_query(q: paql.PackageQuery, p: Partitioning, rel: Relation
                       ) -> tuple[Relation, paql.PackageQuery, dict[int, float], tuple[str, ...]]:
    """Representative relation, rewritten query, and per-group capacities.

    The representative relation has one row per group (tuple id = 0-based
    group index) carrying group means for the partitioning attributes plus
    every attribute the query touches. Capacities bound each
    representative's multiplicity by group size times the repetition
    allowance; without a REPEAT clause there are no capacity bounds. Base
    predicates never reach this query: groups are built from the filtered
    relation instead.
    """
    if q.base_predicate is not None:
        raise EvalError("sketch queries operate on pre-filtered relations")
    flags: tuple[str, ...] = ()
    needed = sorted(set(p.attrs) | q.attrs_used())
    uncovered = sorted(q.attrs_used() - set(p.attrs))
    if uncovered:
        warnings.warn(
            f"query attributes {uncovered} are outside the partitioning "
            f"attributes; representatives approximate them but the "
            f"approximation guarantee does not cover them", stacklevel=2)
        flags = ("partial_coverage",)
    means = group_means(p, rel, needed)
    rep_rel = from_columns(
        "representatives", {a: means[:, i] for i, a in enumerate(needed)})
    sketch_q = paql.PackageQuery(
        relation_name="representatives",
        relation_alias="representatives",
        package_name=q.package_name,
        repeat=None,
        base_predicate=None,
        global_predicates=q.global_predicates,
        objective=q.objective,
    )
    sketch_q = paql.validate(sketch_q, rep_rel.schema)
    caps: dict[int, float] = {}
    if q.repeat is not None:
        caps = {g: float(p.sizes[g]) * (1 + q.repeat) for g in range(p.m)}
    return rep_rel, sketch_q, caps, flags


# ---------------------------------------------------------------------------
# Refine


def partial_shifts(q: paql.PackageQuery, rel: Relation,
                   orig_entries: Mapping[int, int], rep_rel: Relation,
                   rep_entries: Mapping[int, int]) -> list[float]:
    """Per-predicate linearized contribution of a partial package that mixes
    already-refined original tuples with still-unrefined representatives."""
    return [
        predicate_linear_value(g, rel, orig_entries)
        + predicate_linear_value(g, rep_rel, rep_entries)
        for g in q.global_predicates
    ]


def build_refine_query(q: paql.PackageQuery,
                       shifts: Sequence[float]) -> paql.PackageQuery:
    """Query for one group's tuples given the rest of the package.

    Each global predicate's bound is shifted by the partial package's
    contribution (carried in ``linear_shift`` and applied to the linearized
    right side at translation); the objective and REPEAT carry through.
    """
    preds = tuple(
        replace(g, linear_shift=g.linear_shift + s)
        for g, s in zip(q.global_predicates, shifts))
    return replace(q, base_predicate=None, global_predicates=preds)


class _Context:
    """Mutable evaluation state: deadline, budget, counters, rng."""

    def __init__(self, cfg: EvalConfig, m: int):
        self.cfg = cfg
        self.deadline = time.perf_counter() + cfg.time_limit
        self.budget = cfg.backtrack_limit if cfg.backtrack_limit is not None else 10 * max(m, 1)
        self.rng = random.Random(cfg.seed)
        self.refine_solves = 0
        self.sketch_solves = 0
        self.hybrid_solves = 0
        self.backtracks = 0

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise _TimeExceeded()
        return left

    def charge_refine(self):
        self.refine_solves += 1
        if self.refine_solves > self.budget:
            raise _BudgetExceeded()


def _solve_submodel(model: IlpModel, ctx: _Context, solver_fn: SolverFn) -> SolveResult:
    res = solver_fn(model, ctx.cfg.solver_config(ctx.remaining()))
    if res.status == STATUS_TIME_LIMIT:
        raise _TimeExceeded()
    return res


class _Refiner:
    """Greedy backtracking over group refinement orders (depth-first).

    Failure of a non-root refine propagates the failed group upward; the
    parent then prioritizes failed groups (most recent failure first) and
    retries. The total number of refine solves is capped by the budget.
    """

    def __init__(self, q, rel, rep_rel, p, ctx, solver_fn, upper_override):
        self.q = q
        self.rel = rel
        self.rep_rel = rep_rel
        self.p = p
        self.ctx = ctx
        self.solver_fn = solver_fn
        self.upper_override = upper_override

    def _refine_group(self, g: int, rep_part: dict, orig_part: dict
                      ) -> Optional[dict[int, int]]:
        """Solve the refine query for group g; None when infeasible."""
        others_rep = {h: mult for h, mult in rep_part.items() if h != g}
        partial_orig: dict[int, int] = {}
        for sol in orig_part.values():
            partial_orig.update(sol)
        shifts = partial_shifts(self.q, self.rel, partial_orig,
                                self.rep_rel, others_rep)
        refine_q = build_refine_query(self.q, shifts)
        members = self.p.groups[g]
        self.ctx.charge_refine()
        model = derive_bounds(translate(
            refine_q, self.rel, ids=members, upper_override=self.upper_override))
        res = _solve_submodel(model, self.ctx, self.solver_fn)
        if res.status != STATUS_OPTIMAL:
            return None
        return package_from_solution(model, res.x)

    def run(self, rep_part: dict[int, int], orig_part: dict[int, dict]
            ) -> Optional[dict[int, dict]]:
        # groups without representatives in the sketch need no refinement
        rep_part = {g: mult for g, mult in rep_part.items() if mult > 0}
        outcome = self._refine_rec(rep_part, orig_part, is_root=True)
        return outcome[1] if outcome[0] else None

    def _refine_rec(self, rep_part: dict[int, int], orig_part: dict[int, dict],
                    is_root: bool):
        if not rep_part:
            return True, orig_part
        queue = sorted(rep_part)
        self.ctx.rng.shuffle(queue)
        failed: list[int] = []
        while queue:
            g = queue.pop(0)
            solution = self._refine_group(g, rep_part, orig_part)
            if solution is None:
                if not is_root:
                    failed.append(g)
                    return False, failed
                continue
            rest = {h: mult for h, mult in rep_part.items() if h != g}
            ok, sub = self._refine_rec(
                rest, {**orig_part, g: solution}, is_root=False)
            if ok:
                return True, sub
            self.ctx.backtracks += 1
            failed.extend(sub)
            # most recent failures first, then the prior order
            recent = [h for h in reversed(sub) if h in queue]
            queue = recent + [h for h in queue if h not in recent]
        return False, failed


# ---------------------------------------------------------------------------
# Hybrid sketch fallback


def hybrid_sketch(q: paql.PackageQuery, p: Partitioning, rel: Relation,
                  rep_rel: Relation, caps: Mapping[int, float], ctx: _Context,
                  solver_fn: SolverFn
                  ) -> Optional[tuple[int, dict[int, int], dict[int, int]]]:
    """Try merging the sketch with one group's refine query.

    For each group in seeded-random order, solve over that group's original
    tuples plus the other groups' representatives (capacity-bounded). The
    first feasible solve wins and returns (group, its original-tuple
    package part, representative multiplicities for the other groups).
    """
    needed = [a for a, _ in rep_rel.schema.attributes]
    order = list(range(p.m))
    ctx.rng.shuffle(order)
    for g in order:
        members = p.groups[g]
        n_mem = len(members)
        others = [h for h in range(p.m) if h != g]
        cols = {}
        for attr in needed:
            mem_vals = rel.column(attr)[members]
            rep_vals = rep_rel.column(attr)[others] if others else np.zeros(0)
            cols[attr] = np.concatenate([mem_vals, rep_vals])
        mixed = from_columns("hybrid", cols)
        hybrid_q = paql.validate(
            replace(q, relation_name="hybrid", relation_alias="hybrid",
                    base_predicate=None, repeat=None, validated=False),
            mixed.schema)
        override: dict[int, float] = {}
        if q.repeat is not None:
            for i in range(n_mem):
                override[i] = q.repeat + 1
        for pos, h in enumerate(others):
            if h in caps:
                override[n_mem + pos] = caps[h]
        ctx.hybrid_solves += 1
        model = derive_bounds(translate(hybrid_q, mixed, upper_override=override))
        res = _solve_submodel(model, ctx, solver_fn)
        if res.status != STATUS_OPTIMAL:
            continue
        entries = package_from_solution(model, res.x)
        orig_part = {int(members[i]): mult for i, mult in entries.items() if i < n_mem}
        rep_part = {others[i - n_mem]: mult for i, mult in entries.items() if i >= n_mem}
        return g, orig_part, rep_part
    return None


# ---------------------------------------------------------------------------
# SketchRefine


def eval_sketchrefine(q: paql.PackageQuery, rel: Relation, p: Partitioning,
                      cfg: EvalConfig = EvalConfig(), solver_fn: SolverFn = solve,
                      _depth: int = 0,
                      _upper_override: Optional[Mapping[int, float]] = None
                      ) -> EvalReport:
    """Sketch over representatives, then refine group by group.

    The result package contains only original tuples and is verified
    feasible for the query's own ILP before being returned. Sketch or
    refinement failure yields an infeasible report (which may be a false
    negative); the hybrid fallback is tried when the plain sketch fails.
    """
    if not q.validated:
        raise EvalError("query must be validated")
    flags: list[str] = []

    q_work = q
    work_p = p
    if q.base_predicate is not None:
        survivors = apply_base_predicate(rel, q.base_predicate)
        work_p = restrict_to_ids(p, survivors)
        q_work = replace(q, base_predicate=None)

    ctx = _Context(cfg, work_p.m)
    timings = {"sketch_ms": 0.0, "refine_ms": 0.0, "total_ms": 0.0}
    if work_p.degenerate:
        flags.append("degenerate_groups")

    def report(status, package=None, objective=None):
        timings["total_ms"] = timings["sketch_ms"] + timings["refine_ms"]
        return EvalReport(
            METHOD_SKETCHREFINE, status, package=package, objective=objective,
            timings_ms=dict(timings), backtracks=ctx.backtracks,
            subproblems={"sketch": ctx.sketch_solves, "refine": ctx.refine_solves,
                         "hybrid": ctx.hybrid_solves},
            flags=tuple(flags))

    if work_p.m == 0:
        # nothing survives the base predicate; only constant constraints remain
        direct = eval_direct(q_work, rel, cfg, solver_fn, ids=[])
        return report(direct.status, direct.package, direct.objective)

    t_sketch = _Timer()
    rep_rel, sketch_q, caps, sketch_flags = build_sketch_query(q_work, work_p, rel)
    flags.extend(sketch_flags)
    if _upper_override is not None:
        # per-variable caps inherited from an enclosing sketch: a group's
        # representative cannot repeat past its members' total capacity
        for g in range(work_p.m):
            total = 0.0
            for t in work_p.groups[g]:
                cap = _upper_override.get(int(t), math.inf)
                total += cap
                if not math.isfinite(total):
                    break
            if math.isfinite(total):
                caps[g] = min(caps.get(g, math.inf), total)

    try:
        rep_part, orig_part = _solve_sketch(
            q_work, sketch_q, rep_rel, caps, work_p, rel, cfg, ctx, solver_fn,
            _depth, flags)
    except _TimeExceeded:
        timings["sketch_ms"] = t_sketch.ms()
        return report(TIME_LIMIT)
    timings["sketch_ms"] = t_sketch.ms()
    if rep_part is None:
        flags.append("sketch_infeasible")
        return report(INFEASIBLE)

    t_refine = _Timer()
    refiner = _Refiner(q_work, rel, rep_rel, work_p, ctx, solver_fn, _upper_override)
    try:
        refined = refiner.run(rep_part, orig_part)
    except _TimeExceeded:
        timings["refine_ms"] = t_refine.ms()
        return report(TIME_LIMIT)
    except _BudgetExceeded:
        timings["refine_ms"] = t_refine.ms()
        flags.append("backtrack_limit_exceeded")
        return report(INFEASIBLE)
    timings["refine_ms"] = t_refine.ms()
    if refined is None:
        flags.append("refine_exhausted")
        return report(INFEASIBLE)

    entries: dict[int, int] = {}
    for sol in refined.values():
        entries.update(sol)
    _verify_package(q, rel, entries, _upper_override, cfg.feasibility_tol * 10)
    objective = package_objective(q, rel, entries)
    return report(FEASIBLE, Package(entries, objective), objective)


def _verify_package(q: paql.PackageQuery, rel: Relation,
                    entries: Mapping[int, int],
                    upper_override: Optional[Mapping[int, float]],
                    tol: float) -> None:
    """Check a package against the query's ILP over the package's own
    tuples; the rest of the relation has multiplicity zero and adds nothing
    to any constraint, so this agrees with checking the whole model."""
    ids = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
    mult = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
    if len(ids) and (ids.min() < 0 or ids.max() >= rel.n):
        raise EvalError(
            "internal error: package holds a tuple id outside the relation")
    model = translate(q, rel, ids=ids, upper_override=upper_override)
    if model.n_vars != len(ids):
        raise EvalError(
            "internal error: package holds a tuple the base predicate drops")
    x = mult[np.argsort(ids)]  # ids are distinct
    if not feasible(model, x, tol=tol):
        raise EvalError("internal error: refined package violates the query")


def _solve_sketch(q_work, sketch_q, rep_rel, caps, work_p, rel, cfg, ctx,
                  solver_fn, depth, flags):
    """Solve the sketch query (recursively when it is itself too large).

    Returns (rep_part, orig_part): representative multiplicities per group,
    plus already-refined original tuples when the hybrid fallback ran.
    """
    threshold = cfg.recursion_threshold if cfg.recursion_threshold is not None \
        else work_p.tau
    if work_p.m > threshold and depth < cfg.max_recursion_depth:
        sub_tau = min(work_p.tau, rep_rel.n)
        sub_p = partition(rep_rel, PartitionParams(work_p.attrs, sub_tau, work_p.omega))
        # the recursion inherits whatever is left of the global time budget
        sub_cfg = replace(cfg, time_limit=ctx.remaining())
        sub = eval_sketchrefine(sketch_q, rep_rel, sub_p, sub_cfg, solver_fn,
                                _depth=depth + 1, _upper_override=caps)
        ctx.sketch_solves += sub.subproblems.get("sketch", 0)
        ctx.refine_solves += sub.subproblems.get("refine", 0)
        if sub.status == TIME_LIMIT:
            raise _TimeExceeded()
        if sub.status == FEASIBLE:
            rep_part = {g: int(m) for g, m in sub.package.entries.items()}
            return rep_part, {}
        res_status = STATUS_INFEASIBLE
    else:
        ctx.sketch_solves += 1
        model = derive_bounds(translate(sketch_q, rep_rel, upper_override=caps))
        res = _solve_submodel(model, ctx, solver_fn)
        if res.status == STATUS_OPTIMAL:
            entries = package_from_solution(model, res.x)
            return {g: int(m) for g, m in entries.items()}, {}
        res_status = res.status

    if res_status == STATUS_INFEASIBLE and cfg.hybrid_sketch:
        hybrid = hybrid_sketch(q_work, work_p, rel, rep_rel, caps, ctx, solver_fn)
        if hybrid is not None:
            g, orig_sol, rep_part = hybrid
            flags.append("hybrid_used")
            return rep_part, ({g: orig_sol} if orig_sol else {g: {}})
    return None, {}


# ---------------------------------------------------------------------------
# Quality metric


def approximation_ratio(direct: EvalReport, sketch: EvalReport,
                        direction: str) -> float:
    """Empirical quality of the scalable method relative to Direct:
    Obj_direct / Obj_sketch for maximization, the reciprocal arrangement
    for minimization. Values below 1 are legal."""
    if direct.status != FEASIBLE or sketch.status != FEASIBLE:
        raise EvalError("approximation ratio needs two feasible reports")
    if direction not in (paql.MAXIMIZE, paql.MINIMIZE, "max", "min"):
        raise EvalError(f"bad direction {direction!r}")
    if direction in (paql.MAXIMIZE, "max"):
        num, den = direct.objective, sketch.objective
    else:
        num, den = sketch.objective, direct.objective
    if den == 0:
        if num == 0:
            return 1.0
        raise RatioUndefinedError("zero denominator in approximation ratio")
    return num / den
