"""Independent oracles for the test suite.

Everything here evaluates queries by direct aggregation with exact
rational arithmetic, deliberately bypassing the translation and solver
machinery it is used to check; ``highs_optimum`` solves a translated model
with scipy's HiGHS instead of the engine's solver. ``reference_load_csv``
reads a CSV file cell by cell with ``csv.reader`` and ``float()``.
"""

import csv
import math
from fractions import Fraction
from itertools import product

import numpy as np

from pkgquery import paql
from pkgquery.relation import CATEGORICAL, NUMERIC, Relation, RelationError, Schema


def reference_load_csv(path, schema_hints=None) -> list:
    """``[(attr, kind, values)]`` as ``load_csv`` should read the file, or the
    RelationError it should raise; numeric values as a float64 array."""
    hints = dict(schema_hints or {})
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise RelationError(f"{path}: empty file, expected a header row")
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise RelationError(f"{path}: duplicate column name in header")
    for attr in hints:
        if attr not in header:
            raise RelationError(f"{path}: schema hint for unknown column {attr!r}")
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise RelationError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    out = []
    for j, attr in enumerate(header):
        cells = [row[j] for row in body]
        floats = []
        for cell in cells:
            try:
                floats.append(float(cell))
            except ValueError:
                floats.append(None)
        kind = hints.get(attr, CATEGORICAL if None in floats else NUMERIC)
        if kind != NUMERIC:
            out.append((attr, kind, cells))
            continue
        for lineno, (cell, value) in enumerate(zip(cells, floats), start=2):
            if value is None:
                raise RelationError(f"{path}:{lineno}: non-numeric cell {cell!r} "
                                    f"in numeric column {attr!r}")
            if not math.isfinite(value):
                raise RelationError(
                    f"{path}:{lineno}: non-finite value in numeric column {attr!r}")
        out.append((attr, kind, np.array(floats, dtype=np.float64)))
    Schema("R", tuple((attr, kind) for attr, kind, _ in out))  # its own checks
    return out


def tuple_passes(rel: Relation, pred: paql.BasePredicate, tid: int) -> bool:
    """Re-evaluate a conjunctive predicate on one tuple, scalar-by-scalar."""
    for c in pred.conjuncts:
        kind = rel.schema.kind_of(c.attr)
        if kind == NUMERIC:
            v = float(rel.column(c.attr)[tid])
            ok = {
                "=": v == c.value, "!=": v != c.value,
                "<": v < c.value, "<=": v <= c.value,
                ">": v > c.value, ">=": v >= c.value,
            }[c.op]
        else:
            v = rel.categorical(c.attr)[tid]
            ok = (v == c.value) if c.op == "=" else (v != c.value)
        if not ok:
            return False
    return True


def _agg_exact(expr: paql.AggregateExpr, rel: Relation, package) -> Fraction:
    """Exact COUNT/SUM/FILTERED_COUNT of a package (AVG handled by caller)."""
    total = Fraction(0)
    for tid, mult in package.items():
        if expr.kind == paql.COUNT:
            total += mult
        elif expr.kind == paql.SUM:
            total += Fraction(float(rel.column(expr.attr)[tid])) * mult
        elif expr.kind == paql.FILTERED_COUNT:
            if tuple_passes(rel, expr.filter, tid):
                total += mult
        else:
            raise AssertionError(f"unexpected aggregate {expr.kind}")
    return total


def predicate_holds(g: paql.GlobalPredicate, rel: Relation, package) -> bool:
    """Direct-aggregation truth of one validated global predicate.

    AVG over the empty package follows the linearized convention (the
    zero form satisfies <=, >=, and =). ``linear_shift`` contributes to
    the linearized left side exactly as in translation.
    """
    shift = Fraction(g.linear_shift)
    if isinstance(g.rhs, paql.AggregateExpr):
        lhs = _agg_exact(g.lhs, rel, package) - _agg_exact(g.rhs, rel, package)
        rhs = Fraction(0)
    elif g.lhs.kind == paql.AVG:
        v = Fraction(float(g.rhs))
        lhs = sum(
            ((Fraction(float(rel.column(g.lhs.attr)[tid])) - v) * mult
             for tid, mult in package.items()),
            Fraction(0))
        rhs = Fraction(0)
    else:
        lhs = _agg_exact(g.lhs, rel, package)
        rhs = Fraction(float(g.rhs))
    lhs += shift
    if g.op == "<=":
        return lhs <= rhs
    if g.op == ">=":
        return lhs >= rhs
    return lhs == rhs


def package_satisfies(q: paql.PackageQuery, rel: Relation, package) -> bool:
    """Whole-query check: base predicate per tuple, repetition bound,
    every global predicate by direct aggregation."""
    for tid, mult in package.items():
        if mult < 0:
            return False
        if q.repeat is not None and mult > q.repeat + 1:
            return False
        if q.base_predicate is not None and not tuple_passes(
                rel, q.base_predicate, tid):
            return False
    return all(predicate_holds(g, rel, package) for g in q.global_predicates)


def objective_exact(q: paql.PackageQuery, rel: Relation, package) -> Fraction:
    if q.objective is None:
        return Fraction(0)
    return _agg_exact(q.objective.expr, rel, package)


def enumerate_vectors(uppers):
    """All multiplicity vectors with 0 <= x_i <= uppers[i]."""
    return product(*(range(int(u) + 1) for u in uppers))


def best_package_by_enumeration(q: paql.PackageQuery, rel: Relation,
                                uppers) -> tuple:
    """(status, best objective, best package) by exhaustive enumeration."""
    best = None
    feasible_seen = False
    for vec in enumerate_vectors(uppers):
        package = {i: m for i, m in enumerate(vec) if m > 0}
        if not package_satisfies(q, rel, package):
            continue
        feasible_seen = True
        val = objective_exact(q, rel, package)
        if best is None:
            best = (val, package)
        elif q.objective is not None:
            if q.objective.direction == paql.MAXIMIZE and val > best[0]:
                best = (val, package)
            elif q.objective.direction == paql.MINIMIZE and val < best[0]:
                best = (val, package)
    if not feasible_seen:
        return "infeasible", None, None
    return "feasible", best[0], best[1]


def dyadic(rng: np.random.Generator, lo: float, hi: float, size=None,
           denom: int = 64) -> np.ndarray:
    """Uniform values snapped to the 1/denom grid: exact in float64."""
    raw = rng.uniform(lo, hi, size=size)
    return np.round(raw * denom) / denom


def highs_optimum(m) -> tuple:
    """("optimal", objective) or ("infeasible", None) of an ``IlpModel``
    with finite upper bounds, by scipy's HiGHS MILP with no gap allowed."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    sign = 1.0 if m.maximize else -1.0
    res = milp(-sign * m.objective, integrality=np.ones(m.n_vars),
               bounds=Bounds(0.0, m.upper),
               constraints=LinearConstraint(m.rows, m.row_lo, m.row_hi),
               options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return "infeasible", None
    assert res.status == 0, f"reference solver status {res.status}: {res.message}"
    return "optimal", sign * -res.fun
