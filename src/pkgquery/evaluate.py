"""Package-query evaluation: Direct and the sketch/refine method.

Direct translates the whole query into one ILP and hands it to the solver.
The scalable path sketches a package over per-group representative tuples
(capped by group capacities), then refines one group at a time, replacing
representatives with original tuples, with greedy backtracking over
refinement orders. Each level translates its sketch once; a group's refine
model is the query's ILP over the group's tuples with each row's bounds
reduced by the fixed part's activity, and a hybrid model stacks the group's
columns beside the sketch columns of the other groups. A sketch with too
many groups is itself partitioned and solved by the same method, one level
deeper. Each evaluation, by either method, runs on one context: the
solver, the deadline (counted from the call), the solve counters and the
report flags; its ``solve`` is the one solve step. Each SketchRefine level
is one ``_Refiner``, which keeps its own budget, rng and phase timings;
since the levels below a level run before its refine phase, its budget
also counts their refine and hybrid solves.
Every package returned here is verified feasible for the original query
before it leaves.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from . import paql
from .ilp import (
    IlpModel,
    activity,
    aggregate_value,
    derive_bounds,
    feasible,
    hstack,
    package_from_solution,
    predicate_linear_value,  # noqa: F401 -- ``perfbench`` traces this name
    shift_rhs,
    translate,
)
from .partitioning import Partitioning, PartitionParams, group_means, partition, restrict_to_ids
from .relation import Relation, apply_base_predicate, from_columns
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    SolveResult,
    SolveStats,
    solve,
)

METHOD_DIRECT = "direct"
METHOD_SKETCHREFINE = "sketchrefine"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"

SolverFn = Callable[[IlpModel, float], SolveResult]

MAX_RECURSION_DEPTH = 3  # sketches of sketches, at most this deep
VERIFY_TOL = 1e-8  # row slack allowed when a returned package is checked


class EvalError(Exception):
    pass


class RatioUndefinedError(EvalError):
    """Approximation ratio with a zero denominator."""


class UnsketchableQueryError(EvalError):
    """A query SketchRefine cannot evaluate; the direct method can."""


@dataclass(frozen=True)
class EvalConfig:
    seed: int = 0
    time_limit: float = 3600.0
    backtrack_limit: Optional[int] = None      # None -> 10 * group count
    recursion_threshold: Optional[int] = None  # None -> partitioning tau

    def __post_init__(self):
        if not self.time_limit >= 0:  # NaN included: it would never expire
            raise EvalError(f"time limit must be >= 0 seconds, got {self.time_limit}")
        for name in ("backtrack_limit", "recursion_threshold"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise EvalError(f"{name} must be >= 0, got {value}")


@dataclass
class EvalReport:
    method: str
    status: str
    package: Optional[dict[int, int]] = None  # tuple id -> multiplicity
    objective: Optional[float] = None  # by aggregation over the package
    timings_ms: dict = field(default_factory=dict)
    backtracks: int = 0
    subproblems: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    solver: SolveStats = field(default_factory=SolveStats)  # summed over every solve

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "objective": self.objective,
            "package": None if self.package is None else sorted(self.package.items()),
            "timings_ms": self.timings_ms,
            "backtracks": self.backtracks,
            "subproblems": self.subproblems,
            "flags": list(self.flags),
            "solver": {"nodes": self.solver.nodes,
                       "lp_iterations": self.solver.lp_iterations},
        }


def package_objective(q: paql.PackageQuery, rel: Relation,
                      entries: Mapping[int, int]) -> float:
    """Objective value by direct aggregation (0 for vacuous objectives)."""
    if q.objective is None:
        return 0.0
    return aggregate_value(q.objective.expr, rel, entries)


class _TimeExceeded(Exception):
    pass


class _BudgetExceeded(Exception):
    pass


class _Context:
    """State one evaluation shares across its solves (and SketchRefine's
    levels): the solver, the deadline, the solve counters and the report
    flags."""

    def __init__(self, cfg: EvalConfig, solver_fn: SolverFn, kinds: tuple[str, ...]):
        self.cfg = cfg
        self.solver_fn = solver_fn
        self.deadline = time.perf_counter() + cfg.time_limit
        self.solves = dict.fromkeys(kinds, 0)  # the solves that ran, by kind
        self.backtracks = 0
        self.stats = SolveStats()
        self.flags: list[str] = []

    def solve(self, model: IlpModel, *, kind: str) -> Optional[SolveResult]:
        """Derive the bounds and solve within what is left of the deadline,
        counting the solve under ``kind``: the result when optimal, None when
        infeasible; raises ``_TimeExceeded`` at the deadline, ``EvalError`` on
        other statuses."""
        model = derive_bounds(model)  # unbounded repetition raises even past the deadline
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise _TimeExceeded()
        self.solves[kind] += 1
        res = self.solver_fn(model, left)
        self.stats.nodes += res.stats.nodes
        self.stats.lp_iterations += res.stats.lp_iterations
        if res.status == STATUS_OPTIMAL:
            return res
        if res.status == STATUS_INFEASIBLE:
            return None
        if res.status == STATUS_TIME_LIMIT:
            raise _TimeExceeded()
        raise EvalError(f"unexpected solver status {res.status!r}")


# ---------------------------------------------------------------------------
# Direct


def eval_direct(q: paql.PackageQuery, rel: Relation, cfg: EvalConfig = EvalConfig(),
                solver_fn: SolverFn = solve) -> EvalReport:
    """Translate the whole query to one ILP, solve it exactly and verify
    the package against the query."""
    if not q.validated:
        raise EvalError("query must be validated")
    ctx = _Context(cfg, solver_fn, ("solves",))
    status, entries, objective = INFEASIBLE, None, None
    t0 = time.perf_counter()
    model = translate(q, rel)
    t1 = time.perf_counter()
    try:
        res = ctx.solve(model, kind="solves")
    except _TimeExceeded:
        status, res = TIME_LIMIT, None
    t2 = time.perf_counter()
    if res is not None:
        status = FEASIBLE
        entries = package_from_solution(model, res.x)
        _verify_package(q, rel, entries, None)
        objective = package_objective(q, rel, entries)
        if abs(objective - res.objective) > 1e-6 * max(1.0, abs(objective)):
            raise EvalError(
                f"solver objective {res.objective} disagrees with recomputed "
                f"aggregate {objective}")
    timings = {"translate_ms": (t1 - t0) * 1000.0, "solve_ms": (t2 - t1) * 1000.0}
    timings["total_ms"] = timings["translate_ms"] + timings["solve_ms"]
    return EvalReport(
        METHOD_DIRECT, status, package=entries, objective=objective,
        timings_ms=timings, subproblems=ctx.solves, solver=ctx.stats)


# ---------------------------------------------------------------------------
# Sketch


def build_sketch_query(q: paql.PackageQuery, p: Partitioning, rel: Relation,
                       upper: Optional[np.ndarray] = None
                       ) -> tuple[Relation, paql.PackageQuery, np.ndarray, tuple[str, ...]]:
    """Representative relation, rewritten query, and per-group capacities.

    The representative relation has one row per group (tuple id = 0-based
    group index) carrying group means for the partitioning attributes plus
    every attribute the query touches, under the same names: ``p.rep_rel``
    itself, plus the per-query means of any other attribute. The sketch
    query is the validated query without its REPEAT bound, evaluated over
    that relation, so a filtered count counts a representative by its own
    (mean) values: its coefficient is the indicator of the group mean, not
    the mean of the members' indicators. Capacities (one per group,
    ``np.inf`` for none) bound each representative's multiplicity by group
    size times the repetition allowance, and by the members' total of
    ``upper``, the per-tuple caps an enclosing sketch puts on ``rel``. Base
    predicates never reach this query: groups are built from the filtered
    relation instead.
    """
    if q.base_predicate is not None:
        raise EvalError("sketch queries operate on pre-filtered relations")
    used = q.attrs_used()
    categorical = sorted(used - set(rel.numeric_attrs()))
    if categorical:
        raise UnsketchableQueryError(
            f"cannot sketch categorical attribute(s) {categorical}: a group "
            f"representative holds means; use the direct method")
    flags: tuple[str, ...] = ()
    rep_rel = p.rep_rel
    uncovered = sorted(used.difference(p.attrs))
    if uncovered:
        warnings.warn(
            f"query attributes {uncovered} are outside the partitioning "
            f"attributes; representatives approximate them but the "
            f"approximation guarantee does not cover them", stacklevel=2)
        flags = ("partial_coverage",)
        means = dict(zip(uncovered, group_means(p, rel, uncovered).T))
        rep_rel = from_columns("representatives", {**rep_rel.columns, **means})
    sketch_q = replace(q, repeat=None)
    caps = np.full(p.m, np.inf) if q.repeat is None else p.sizes * float(1 + q.repeat)
    if upper is not None:  # integral or inf, so each sum is exact in any order
        caps = np.minimum(caps, [upper[g].sum() for g in p.groups])
    return rep_rel, sketch_q, caps, flags


# ---------------------------------------------------------------------------
# Refine


def fixed_activity(refined: Iterable[np.ndarray], sketch: IlpModel,
                   rep_part: Mapping[int, int]) -> np.ndarray:
    """Row activity of the part held fixed while one group is refined: the
    refined groups' stored activities, plus the sketch columns of the other
    unrefined groups (``rep_part``) times their multiplicities."""
    total = np.zeros(len(sketch.rows))
    for act in refined:
        total += act
    if rep_part:
        idx = np.fromiter(rep_part.keys(), dtype=np.int64, count=len(rep_part))
        mult = np.fromiter(rep_part.values(), dtype=np.float64, count=len(rep_part))
        total += activity(sketch, idx, mult)
    return total


def _solved_part(model: IlpModel, x: np.ndarray) -> tuple[dict[int, int], np.ndarray]:
    """A solved group's package entries and their row activity, rounded once."""
    k = np.rint(x)
    keep = np.nonzero(k > 0)[0]
    mult = k[keep]
    return (dict(zip(model.var_ids[keep].tolist(), mult.astype(np.int64).tolist())),
            activity(model, keep, mult))


# ---------------------------------------------------------------------------
# SketchRefine


class _Refiner:
    """One SketchRefine level: sketch the groups of ``p``, which hold only
    tuples that pass q's base predicate, refine them into tuples of ``rel``
    and check the package against ``q`` under ``upper``, the per-tuple caps
    of an enclosing sketch. The level translates its sketch once and keeps
    its own budget, rng (seeded on first use) and phase timings.

    Refining is greedy backtracking over group orders (depth-first). Failure
    of a non-root refine propagates the failed group upward; the parent then
    prioritizes failed groups (most recent failure first) and retries. A
    refined group is kept as (package entries, row activity).
    """

    sketch: IlpModel  # set by ``run``; its upper bounds are the capacities

    def __init__(self, q: paql.PackageQuery, rel: Relation, p: Partitioning,
                 upper: Optional[np.ndarray], ctx: _Context, depth: int):
        self.q, self.rel, self.p, self.upper, self.ctx, self.depth = q, rel, p, upper, ctx, depth
        # the groups are pre-filtered, so the level's models drop the base predicate
        self.level_q = q if q.base_predicate is None else replace(q, base_predicate=None)
        # refine and hybrid solves, this level's and those below it
        self.budget = ctx.cfg.backtrack_limit if ctx.cfg.backtrack_limit is not None \
            else 10 * p.m
        self.timings = {"sketch_ms": 0.0, "refine_ms": 0.0}  # each written once, on phase exit

    @cached_property
    def rng(self) -> random.Random:
        return random.Random(self.ctx.cfg.seed)

    def run(self) -> Optional[dict[int, int]]:
        """Returns the package entries, or None after adding a flag that
        says why; raises ``_TimeExceeded`` at the deadline."""
        ctx = self.ctx
        if self.p.degenerate:
            ctx.flags.append("degenerate_groups")
        t0 = time.perf_counter()
        try:
            rep_rel, sketch_q, caps, sketch_flags = build_sketch_query(
                self.level_q, self.p, self.rel, self.upper)
            ctx.flags.extend(sketch_flags)
            self.sketch = translate(sketch_q, rep_rel, upper_override=caps)
            found = self._solve_sketch(sketch_q, rep_rel)
        finally:
            self.timings["sketch_ms"] = (time.perf_counter() - t0) * 1000.0
        if found is None:
            ctx.flags.append("sketch_infeasible")
            return None

        t0 = time.perf_counter()
        try:
            ok, refined = self._refine_rec(*found, is_root=True)
        except _BudgetExceeded:
            ctx.flags.append("backtrack_limit_exceeded")
            return None
        finally:
            self.timings["refine_ms"] = (time.perf_counter() - t0) * 1000.0
        if not ok:
            ctx.flags.append("refine_exhausted")
            return None

        entries: dict[int, int] = {}
        for sol, _ in refined.values():
            entries.update(sol)
        _verify_package(self.q, self.rel, entries, self.upper)
        return entries

    def _solve_sketch(self, sketch_q: paql.PackageQuery, rep_rel: Relation
                      ) -> Optional[tuple[dict[int, int], dict[int, tuple]]]:
        """Solve the sketch, as a SketchRefine level one deeper when it has
        too many groups, and fall back to the hybrid sketch when it finds no
        package.

        Returns (rep_part, orig_part): representative multiplicities per
        group, plus the refined part of one group when the hybrid ran; None
        when neither found a package.
        """
        ctx, p = self.ctx, self.p
        threshold = ctx.cfg.recursion_threshold if ctx.cfg.recursion_threshold is not None \
            else p.tau
        if p.m > threshold and self.depth < MAX_RECURSION_DEPTH:
            sub_p = partition(rep_rel, PartitionParams(p.attrs, min(p.tau, rep_rel.n), p.omega))
            entries = _Refiner(sketch_q, rep_rel, sub_p, self.sketch.upper, ctx,
                               self.depth + 1).run()
        else:
            res = ctx.solve(self.sketch, kind="sketch")
            entries = None if res is None else package_from_solution(self.sketch, res.x)
        if entries is not None:  # every multiplicity in it is positive
            return entries, {}
        try:
            hybrid = self._hybrid_sketch()
        except _BudgetExceeded:
            ctx.flags.append("backtrack_limit_exceeded")
            return None
        if hybrid is not None:
            ctx.flags.append("hybrid_used")
        return hybrid

    def _hybrid_sketch(self) -> Optional[tuple[dict[int, int], dict[int, tuple]]]:
        """Try merging the sketch with one group's refine problem: for each
        group in seeded-random order, solve its translated columns beside the
        other groups' sketch columns (bounds derived on the stack), checking
        the level's budget. The first feasible solve wins; returns (rep_part,
        orig_part) as ``_solve_sketch`` does."""
        m = self.p.m
        order = list(range(m))
        self.rng.shuffle(order)
        for g in order:
            self._check_budget()
            group = self._group_model(g)
            others = np.delete(np.arange(m), g)
            res = self.ctx.solve(hstack(group, self.sketch, others), kind="hybrid")
            if res is None:
                continue
            n = group.n_vars
            k = np.rint(res.x[n:])
            rep_part = {int(h): int(mult) for h, mult in zip(others, k) if mult > 0}
            return rep_part, {g: _solved_part(group, res.x[:n])}
        return None

    def _refine_rec(self, rep_part: dict[int, int], orig_part: dict[int, tuple],
                    is_root: bool):
        """Extends ``orig_part`` in place; returns it as it was on failure."""
        if not rep_part:
            return True, orig_part
        queue = sorted(rep_part)
        if len(queue) > 1:  # shuffling one group draws nothing from the rng
            self.rng.shuffle(queue)
        failed: list[int] = []
        while queue:
            g = queue.pop(0)
            rest = {h: mult for h, mult in rep_part.items() if h != g}
            solution = self._refine_group(g, rest, orig_part)
            if solution is None:
                if not is_root:
                    failed.append(g)
                    return False, failed
                continue
            orig_part[g] = solution
            ok, sub = self._refine_rec(rest, orig_part, is_root=False)
            if ok:
                return True, sub
            del orig_part[g]
            self.ctx.backtracks += 1
            failed.extend(sub)
            # most recent failures first, then the prior order
            recent = [h for h in reversed(sub) if h in queue]
            queue = recent + [h for h in queue if h not in recent]
        return False, failed

    # ``perfbench`` wraps this method by name to count refine solves
    def _refine_group(self, g: int, others: dict, orig_part: dict
                      ) -> Optional[tuple[dict[int, int], np.ndarray]]:
        """Solve group g's refine model beside the fixed part; None when infeasible."""
        self._check_budget()
        model = self._group_model(g)
        if others or orig_part:  # a part is held fixed: shift the rows by its activity
            model = shift_rhs(model, fixed_activity(
                (act for _, act in orig_part.values()), self.sketch, others))
        res = self.ctx.solve(model, kind="refine")
        return None if res is None else _solved_part(model, res.x)

    def _group_model(self, g: int) -> IlpModel:
        """The query's ILP over group g's tuples."""
        return translate(self.level_q, self.rel, ids=self.p.groups[g],
                         upper_override=self.upper)

    def _check_budget(self) -> None:
        """Raise ``_BudgetExceeded`` when the refine and hybrid solves that
        ran use up the level's budget. The counters also hold the solves of
        the levels below it: they all ran before this level's first check."""
        solves = self.ctx.solves
        if solves["refine"] + solves["hybrid"] >= self.budget:
            raise _BudgetExceeded()


def eval_sketchrefine(q: paql.PackageQuery, rel: Relation, p: Partitioning,
                      cfg: EvalConfig = EvalConfig(), solver_fn: SolverFn = solve
                      ) -> EvalReport:
    """Sketch over representatives, then refine group by group.

    The result package contains only original tuples and is verified
    feasible for the query's own ILP before being returned. Sketch or
    refinement failure yields an infeasible report (which may be a false
    negative); the hybrid fallback is tried when the plain sketch fails.
    """
    if not q.validated:
        raise EvalError("query must be validated")
    ctx = _Context(cfg, solver_fn, ("sketch", "refine", "hybrid"))
    if q.base_predicate is not None:
        p = restrict_to_ids(p, rel, apply_base_predicate(rel, q.base_predicate))
    top = _Refiner(q, rel, p, None, ctx, 0)
    status, entries, objective = INFEASIBLE, None, None
    try:
        entries = top.run()
    except _TimeExceeded:
        status = TIME_LIMIT
    else:
        if entries is not None:  # {} is a feasible empty package
            status = FEASIBLE
            objective = package_objective(q, rel, entries)
    timings = top.timings
    return EvalReport(
        METHOD_SKETCHREFINE, status, package=entries, objective=objective,
        timings_ms={**timings, "total_ms": timings["sketch_ms"] + timings["refine_ms"]},
        backtracks=ctx.backtracks,
        subproblems=ctx.solves,
        flags=tuple(dict.fromkeys(ctx.flags)), solver=ctx.stats)


def _verify_package(q: paql.PackageQuery, rel: Relation,
                    entries: Mapping[int, int],
                    upper_override: Optional[np.ndarray]) -> None:
    """Check a package against the query's ILP over the package's own
    tuples; the rest of the relation has multiplicity zero and adds nothing
    to any constraint, so this agrees with checking the whole model."""
    ids = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
    mult = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
    order = ids.argsort()  # ids are distinct; translate keeps them ascending
    ids, x = ids[order], mult[order]
    if len(ids) and (ids[0] < 0 or ids[-1] >= rel.n):
        raise EvalError(
            "internal error: package holds a tuple id outside the relation")
    model = translate(q, rel, ids=ids, upper_override=upper_override)
    if model.n_vars != len(ids):
        raise EvalError(
            "internal error: package holds a tuple the base predicate drops")
    if not feasible(model, x, tol=VERIFY_TOL):
        raise EvalError("internal error: package violates the query")


# ---------------------------------------------------------------------------
# Quality metric


def approximation_ratio(direct: EvalReport, sketch: EvalReport,
                        direction: str) -> float:
    """Empirical quality of the scalable method relative to Direct:
    Obj_direct / Obj_sketch for maximization, the reciprocal arrangement
    for minimization. Values below 1 are legal."""
    if direct.status != FEASIBLE or sketch.status != FEASIBLE:
        raise EvalError("approximation ratio needs two feasible reports")
    if direction not in (paql.MAXIMIZE, paql.MINIMIZE):
        raise EvalError(f"bad direction {direction!r}")
    if direction == paql.MAXIMIZE:
        num, den = direct.objective, sketch.objective
    else:
        num, den = sketch.objective, direct.objective
    if den == 0:
        if num == 0:
            return 1.0
        raise RatioUndefinedError("zero denominator in approximation ratio")
    return num / den
