"""Independent oracles for the test suite.

Everything here evaluates queries by direct aggregation with exact
rational arithmetic, deliberately bypassing the translation and solver
machinery it is used to check; ``highs_optimum`` solves a translated model
with scipy's HiGHS instead of the engine's solver. ``reference_load_csv``
reads a CSV file cell by cell with ``csv.reader`` and ``float()``. The
engine has no use for the last three: ``lp_relax`` (a model's LP bound in
its own sense), ``verify_result`` (a solve's vector checked against its
model) and ``var_index`` (tuple id -> variable position).
``partition_reference`` is the quad-tree split loop as it stood before
``partition`` gathered each node's points once and sorted narrow codes;
``partition`` must return exactly what it returns.
"""

import csv
import math
from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np

from pkgquery import paql
from pkgquery.ilp import feasible
from pkgquery.partitioning import (
    PartitionError,
    PartitionParams,
    Partitioning,
    _attr_matrix,
)
from pkgquery.relation import CATEGORICAL, NUMERIC, Relation, RelationError, Schema
from pkgquery.simplex import lp_solve


def reference_load_csv(path) -> list:
    """``[(attr, kind, values)]`` as ``load_csv`` should read the file, or the
    RelationError it should raise; numeric values as a float64 array."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # a cell longer than csv.field_size_limit()
            raise RelationError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise RelationError(f"{path}: empty file, expected a header row")
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise RelationError(f"{path}: duplicate column name in header")
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
        if None in floats:
            out.append((attr, CATEGORICAL, cells))
            continue
        for lineno, value in enumerate(floats, start=2):
            if not math.isfinite(value):
                raise RelationError(
                    f"{path}:{lineno}: non-finite value in numeric column {attr!r}")
        out.append((attr, NUMERIC, np.array(floats, dtype=np.float64)))
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
            v = rel.columns[c.attr][tid]
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


def lp_relax(m):
    """The continuous relaxation of an ``IlpModel`` with finite upper bounds,
    by the engine's simplex, with its objective in the model's own sense:
    it bounds the integer optimum."""
    sign = 1.0 if m.maximize else -1.0
    res = lp_solve(sign * m.objective, m.rows, m.row_lo, m.row_hi,
                   np.zeros(m.n_vars), m.upper)
    if res.objective is not None:
        res.objective *= sign
    return res


def verify_result(m, res, tol: float = 1e-6) -> bool:
    """An optimal ``SolveResult``'s vector is integral and feasible for the
    model; any other result carries no vector."""
    if res.status != "optimal":
        return res.x is None
    if np.any(np.abs(res.x - np.round(res.x)) > tol):
        return False
    return feasible(m, np.round(res.x), tol=tol)


def var_index(m) -> dict:
    """{tuple id: variable position} of an ``IlpModel``."""
    return {int(t): i for i, t in enumerate(m.var_ids)}


def _reference_group_stats(points: np.ndarray, ids: np.ndarray):
    sub = points[ids]
    centroid = sub.mean(axis=0)
    radius = float(np.abs(sub - centroid).max()) if len(ids) else 0.0
    return centroid, radius


def partition_reference(rel: Relation, params: PartitionParams) -> Partitioning:
    """``partition`` with one gather per statistic, a radius for every node
    and int64 quadrant codes."""
    if params.tau > max(rel.n, 1):
        raise PartitionError(
            f"size threshold {params.tau} exceeds relation size {rel.n}")
    points = _attr_matrix(rel, params.attrs)

    k = len(params.attrs)
    weights = 1 << np.arange(k)
    queue = deque()
    if rel.n:
        queue.append(np.arange(rel.n, dtype=np.int64))
    final: list[tuple[np.ndarray, np.ndarray, float, bool]] = []
    while queue:
        members = queue.popleft()
        centroid, radius = _reference_group_stats(points, members)
        if len(members) <= params.tau and radius <= params.omega:
            final.append((members, centroid, radius, False))
            continue
        codes = (points[members] >= centroid) @ weights
        order = np.argsort(codes, kind="stable")
        codes_sorted = codes[order]
        cuts = np.nonzero(np.diff(codes_sorted))[0] + 1
        if len(cuts) == 0:
            # all members share a quadrant: identical points, cannot split
            final.append((members, centroid, radius, True))
            continue
        for part in np.split(members[order], cuts):
            queue.append(part)

    gid = np.zeros(rel.n, dtype=np.int64)
    groups, sizes, radii, reps, degenerate = [], [], [], [], set()
    for g, (members, centroid, radius, degen) in enumerate(final):
        members = np.sort(members)
        gid[members] = g + 1
        groups.append(members)
        sizes.append(len(members))
        radii.append(radius)
        reps.append(centroid)
        if degen:
            degenerate.add(g)
    return Partitioning(
        attrs=params.attrs, tau=params.tau, omega=params.omega, gid=gid,
        groups=tuple(groups), sizes=np.asarray(sizes, dtype=np.int64),
        radii=np.asarray(radii), degenerate=frozenset(degenerate),
        representatives=np.asarray(reps).reshape(len(final), k),
        points=points)
