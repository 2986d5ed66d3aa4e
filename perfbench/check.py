"""Answer checks that do not go through the engine's own ILP code.

Every returned package is checked with numpy on the relation columns as
generated: tuple ids in range, REPEAT multiplicities, each global predicate
and the reported objective recomputed from scratch. Across methods, a
SketchRefine package may never beat Direct's objective on the same query,
because Direct is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

STATUSES = ("feasible", "infeasible", "time_limit")
PRED_TOL = 1e-6      # relative to max(1, |bound|)
OBJECTIVE_TOL = 1e-6  # relative to max(1, |objective|)
BEATS_TOL = 1e-6      # relative to max(1, |Direct objective|)


@dataclass(frozen=True)
class QuerySpec:
    """What a package must satisfy, as plain data.

    ``predicates`` holds (aggregate, attribute or None, op, bound) with
    aggregate 'count' or 'sum' and op one of '<=', '>=', '='.
    """

    repeat: Optional[int]
    predicates: tuple[tuple[str, Optional[str], str, float], ...]
    objective: Optional[tuple[str, str, Optional[str]]]  # (direction, aggregate, attr)


def spec_of(q) -> QuerySpec:
    """Plain-data copy of a validated query AST as built by the generator.

    Raises ValueError for anything the generator does not produce (base
    predicates, AVG, filtered counts), so the checker never guesses.
    """
    if q.base_predicate is not None:
        raise ValueError("checker supports no WHERE clause")
    preds = []
    for g in q.global_predicates:
        if (g.lhs.kind not in ("count", "sum") or g.op not in ("<=", ">=", "=")
                or not isinstance(g.rhs, float) or g.linear_shift != 0):
            raise ValueError(f"checker cannot evaluate predicate {g!r}")
        preds.append((g.lhs.kind, g.lhs.attr, g.op, float(g.rhs)))
    objective = None
    if q.objective is not None:
        expr = q.objective.expr
        if expr.kind not in ("count", "sum"):
            raise ValueError(f"checker cannot evaluate objective {expr!r}")
        objective = (q.objective.direction, expr.kind, expr.attr)
    return QuerySpec(q.repeat, tuple(preds), objective)


def _aggregate(kind: str, attr: Optional[str], columns: Mapping[str, np.ndarray],
               ids: np.ndarray, mult: np.ndarray) -> float:
    if kind == "count":
        return float(mult.sum())
    return float(columns[attr][ids] @ mult)


def check_answer(spec: QuerySpec, columns: Mapping[str, np.ndarray], n: int,
                 answer: dict) -> Optional[str]:
    """Problem with one ``EvalReport.to_json_dict()`` answer, or None."""
    status, package, objective = answer["status"], answer["package"], answer["objective"]
    if status not in STATUSES:
        return f"unknown status {status!r}"
    if status != "feasible":
        return None if package is None else f"{status} answer carries a package"
    if package is None or objective is None:
        return "feasible answer without package or objective"
    if not package:
        ids = np.zeros(0, dtype=np.int64)
        mult = np.zeros(0)
    else:
        ids = np.asarray([t for t, _ in package])
        mult = np.asarray([k for _, k in package])
        if ids.dtype.kind != "i" or mult.dtype.kind != "i":
            return "package ids and multiplicities must be integers"
        if len(np.unique(ids)) != len(ids):
            return "package lists a tuple id twice"
        if ids.min() < 0 or ids.max() >= n:
            return "package tuple id out of range"
        if mult.min() < 1:
            return "package multiplicity below 1"
        if spec.repeat is not None and mult.max() > spec.repeat + 1:
            return f"multiplicity {int(mult.max())} exceeds REPEAT {spec.repeat}"
        mult = mult.astype(np.float64)
    for i, (kind, attr, op, bound) in enumerate(spec.predicates):
        value = _aggregate(kind, attr, columns, ids, mult)
        tol = PRED_TOL * max(1.0, abs(bound))
        ok = (value <= bound + tol if op == "<=" else
              value >= bound - tol if op == ">=" else abs(value - bound) <= tol)
        if not ok:
            return f"predicate {i} violated: {kind}({attr}) = {value!r} {op} {bound!r} fails"
    if spec.objective is not None:
        _, kind, attr = spec.objective
        value = _aggregate(kind, attr, columns, ids, mult)
        if abs(value - objective) > OBJECTIVE_TOL * max(1.0, abs(value)):
            return f"reported objective {objective!r} != recomputed {value!r}"
    return None


def check_not_better(spec: QuerySpec, direct_objective: float,
                     sketch_objective: float) -> Optional[str]:
    """Problem when SketchRefine beats Direct's exact optimum, or None."""
    if spec.objective is None:
        return None
    tol = BEATS_TOL * max(1.0, abs(direct_objective))
    better = (sketch_objective > direct_objective + tol
              if spec.objective[0] == "maximize"
              else sketch_objective < direct_objective - tol)
    if better:
        return (f"sketchrefine objective {sketch_objective!r} beats direct "
                f"optimum {direct_objective!r}")
    return None
