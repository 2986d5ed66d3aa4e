"""Translation of validated package queries into integer linear programs.

Variables are nonnegative integers, one per tuple surviving the base
predicate; x_i counts how often tuple i appears in the answer package.
Constraint coefficients are kept as dense float64 vectors aligned with the
model's variable order (``var_ids`` maps position -> tuple id).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import paql
from .relation import Relation, apply_base_predicate, from_columns

FEAS_TOL = 1e-9


class IlpError(Exception):
    pass


class UnboundedModelError(IlpError):
    """No finite upper bound can be derived for some variable."""


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: np.ndarray  # aligned with IlpModel.var_ids
    op: str             # '<=', '>=', '='
    rhs: float
    provenance: str = ""

    def satisfied_by(self, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
        lhs = float(self.coeffs @ x)
        if self.op == "<=":
            return lhs <= self.rhs + tol
        if self.op == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass(frozen=True)
class IlpModel:
    var_ids: np.ndarray          # tuple ids, ascending
    lower: np.ndarray            # int-valued float64, all zeros today
    upper: np.ndarray            # float64; np.inf until derive_bounds
    constraints: tuple[LinearConstraint, ...]
    objective: np.ndarray        # coefficient per variable
    maximize: bool = True        # vacuous objective = all-zero maximize

    @property
    def n_vars(self) -> int:
        return len(self.var_ids)

    def var_index(self) -> dict[int, int]:
        return {int(t): i for i, t in enumerate(self.var_ids)}


def _aggregate_coeffs(expr: paql.AggregateExpr, rel: Relation,
                      ids: np.ndarray) -> np.ndarray:
    if expr.kind == paql.COUNT:
        return np.ones(len(ids))
    if expr.kind == paql.SUM:
        return rel.column(expr.attr)[ids].astype(np.float64)
    if expr.kind == paql.FILTERED_COUNT:
        member = np.zeros(rel.n, dtype=bool)
        member[apply_base_predicate(rel, expr.filter)] = True
        return member[ids].astype(np.float64)
    raise IlpError(f"no linear coefficients for aggregate {expr.kind!r}")


def _predicate_row(g: paql.GlobalPredicate, rel: Relation,
                   ids: np.ndarray) -> tuple[np.ndarray, str, float]:
    """Linearize one global predicate into (coeffs, op, rhs)."""
    if isinstance(g.rhs, paql.AggregateExpr):
        # filtered-count vs filtered-count: indicator difference against 0
        coeffs = _aggregate_coeffs(g.lhs, rel, ids) - _aggregate_coeffs(g.rhs, rel, ids)
        rhs = 0.0
    elif g.lhs.kind == paql.AVG:
        # AVG(attr) op v  <=>  sum((attr - v) * x) op 0
        v = float(g.rhs)
        coeffs = rel.column(g.lhs.attr)[ids] - v
        rhs = 0.0
    else:
        coeffs = _aggregate_coeffs(g.lhs, rel, ids)
        rhs = float(g.rhs)
    return coeffs, g.op, rhs - g.linear_shift


def aggregate_value(expr: paql.AggregateExpr, rel: Relation,
                    package: Mapping[int, int]) -> float:
    """Direct aggregation of COUNT/SUM/FILTERED_COUNT over a package."""
    if not package:
        return 0.0
    ids = np.fromiter(package.keys(), dtype=np.int64)
    mult = np.fromiter(package.values(), dtype=np.float64)
    return float(_aggregate_coeffs(expr, rel, ids) @ mult)


def predicate_linear_value(g: paql.GlobalPredicate, rel: Relation,
                           package: Mapping[int, int]) -> float:
    """A package's contribution to the linearized left side of a predicate.

    For COUNT/SUM/filtered-count-vs-constant this is the plain aggregate;
    AVG and indicator comparisons contribute through their linearized
    coefficient form. Unused by the engine; ``perfbench`` traces it."""
    if not package:
        return 0.0
    ids = np.fromiter(package.keys(), dtype=np.int64)
    mult = np.fromiter(package.values(), dtype=np.float64)
    coeffs, _, _ = _predicate_row(
        paql.GlobalPredicate(g.lhs, g.op, g.rhs), rel, ids)
    return float(coeffs @ mult)


def translate(q: paql.PackageQuery, rel: Relation,
              ids: Optional[Sequence[int]] = None,
              upper_override: Optional[np.ndarray] = None) -> IlpModel:
    """Build the ILP for a validated query over a relation (or tuple subset).

    ``ids`` restricts the variable set to a subset of tuple ids (used for
    per-group subproblems). ``upper_override`` holds one cap per tuple id of
    the relation (``np.inf`` for none); each variable takes the minimum of
    its cap and the repetition bound.
    """
    if not q.validated:
        raise IlpError("query must be validated before translation")

    if ids is None:
        pool = np.arange(rel.n, dtype=np.int64)
    else:
        pool = np.sort(np.asarray(ids, dtype=np.int64))
    if q.base_predicate is not None:
        keep = np.zeros(rel.n, dtype=bool)
        keep[apply_base_predicate(rel, q.base_predicate)] = True
        pool = pool[keep[pool]]

    n = len(pool)
    upper = np.full(n, np.inf)
    if q.repeat is not None:
        upper[:] = q.repeat + 1
    if upper_override is not None:
        upper = np.minimum(upper, upper_override[pool])

    constraints = []
    for k, g in enumerate(q.global_predicates):
        coeffs, op, rhs = _predicate_row(g, rel, pool)
        constraints.append(LinearConstraint(coeffs, op, rhs, provenance=f"global[{k}]"))

    maximize = True
    if q.objective is not None:
        objective = _aggregate_coeffs(q.objective.expr, rel, pool)
        maximize = q.objective.direction == paql.MAXIMIZE
    else:
        objective = np.zeros(n)

    return IlpModel(pool, np.zeros(n), upper, tuple(constraints), objective, maximize)


def constraint_matrix(m: IlpModel) -> np.ndarray:
    """The k x n coefficient matrix, one row per constraint."""
    return np.array([c.coeffs for c in m.constraints],
                    dtype=np.float64).reshape(len(m.constraints), m.n_vars)


def activity(m: IlpModel, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's left side over the columns at positions ``cols`` with
    multiplicities ``x`` (one dot product per row)."""
    return np.array([c.coeffs[cols] @ x for c in m.constraints], dtype=np.float64)


def shift_rhs(m: IlpModel, fixed: np.ndarray) -> IlpModel:
    """The model with each row's right side reduced by ``fixed``, the row
    activity of a package part held outside the model's variables."""
    return replace(m, constraints=tuple(
        replace(c, rhs=c.rhs - float(f)) for c, f in zip(m.constraints, fixed)))


def hstack(left: IlpModel, right: IlpModel, cols: np.ndarray) -> IlpModel:
    """The columns of ``left`` followed by those of ``right`` at positions
    ``cols``, over the rows of ``left``; variable ids are column positions."""
    return IlpModel(
        np.arange(left.n_vars + len(cols), dtype=np.int64),
        np.concatenate([left.lower, right.lower[cols]]),
        np.concatenate([left.upper, right.upper[cols]]),
        tuple(replace(c, coeffs=np.concatenate([c.coeffs, r.coeffs[cols]]))
              for c, r in zip(left.constraints, right.constraints)),
        np.concatenate([left.objective, right.objective[cols]]), left.maximize)


def derive_bounds(m: IlpModel) -> IlpModel:
    """Tighten infinite variable upper bounds from the constraints.

    A constraint sum(a_i x_i) <= U with every a_i >= 0 implies
    x_i <= floor(U / a_i) wherever a_i > 0; '=' constraints imply their
    '<=' half, and '>=' constraints with nonpositive coefficients are
    normalized by negation. Fails if any variable stays unbounded.
    """
    upper = m.upper.copy()
    unbounded = ~np.isfinite(upper)
    if not unbounded.any():
        return m
    for c in m.constraints:
        coeffs, rhs = c.coeffs, c.rhs
        if c.op == ">=":
            coeffs, rhs = -coeffs, -rhs
        elif c.op not in ("<=", "="):
            continue
        if len(coeffs) == 0 or coeffs.min() < 0:
            continue
        pos = coeffs > 0
        if not pos.any():
            continue
        # nudge before floor so 2.999...9 float noise does not lose a unit;
        # erring large keeps the bound valid
        implied = np.floor(rhs / coeffs[pos] + 1e-9)
        take = unbounded & pos
        upper[take] = np.minimum(upper[take], implied[take[pos]])
    if not np.all(np.isfinite(upper)):
        raise UnboundedModelError(
            "unbounded repetition: add REPEAT or a bounding global constraint")
    return replace(m, upper=upper)


def feasible(m: IlpModel, x: Sequence[float], tol: float = FEAS_TOL) -> bool:
    """Whether a multiplicity vector satisfies all bounds and constraints."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.n_vars,):
        raise IlpError(
            f"multiplicity vector length {x.shape} != variable count {m.n_vars}")
    if np.any(x < m.lower - tol) or np.any(x > m.upper + tol):
        return False
    return all(c.satisfied_by(x, tol) for c in m.constraints)


def package_from_solution(m: IlpModel, x: Sequence[float]) -> dict[int, int]:
    """Multiplicity map {tuple_id: count} from an integral solution vector.

    Entries round half to even, like Python's ``round``; keys and counts
    are plain Python ints in variable order."""
    k = np.rint(np.asarray(x, dtype=np.float64))
    keep = np.nonzero(k > 0)[0]
    return dict(zip(m.var_ids[keep].tolist(), k[keep].astype(np.int64).tolist()))


# ---------------------------------------------------------------------------
# Generic-ILP reduction (test generator)


@dataclass(frozen=True)
class RawIlp:
    """max a.x s.t. b[i] . x <= c (columnwise: sum_i b[i][j] x_i <= c[j]),
    x integer >= 0."""

    a: tuple[float, ...]               # objective, length n
    b: tuple[tuple[float, ...], ...]   # n rows of k coefficients
    c: tuple[float, ...]               # constraint bounds, length k

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def k(self) -> int:
        return len(self.c)


def load_raw_ilp(path) -> RawIlp:
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    raw = RawIlp(tuple(d["a"]), tuple(tuple(r) for r in d["b"]), tuple(d["c"]))
    if raw.n != d["n"] or raw.k != d["k"]:
        raise IlpError(f"{path}: inconsistent n/k fields")
    return raw


def save_raw_ilp(raw: RawIlp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": raw.n, "k": raw.k, "a": list(raw.a),
                   "b": [list(r) for r in raw.b], "c": list(raw.c)}, fh)


def ilp_to_paql(raw: RawIlp) -> tuple[Relation, paql.PackageQuery]:
    """Map a generic ILP to an equivalent relation and package query.

    Tuple i carries its objective coefficient plus its column of the
    constraint matrix; each constraint becomes a SUM(...) <= c_j predicate
    and the objective becomes MAXIMIZE SUM(attr_obj). No REPEAT clause:
    variables are unbounded integers, exactly like the source program.
    """
    if raw.n < 1:
        raise IlpError("ILP instance needs at least one variable")
    for row in raw.b:
        if len(row) != raw.k:
            raise IlpError("constraint matrix row length != k")
    cols = {"attr_obj": list(raw.a)}
    for j in range(raw.k):
        cols[f"attr_{j + 1}"] = [raw.b[i][j] for i in range(raw.n)]
    rel = from_columns("R", cols)

    preds = tuple(
        paql.GlobalPredicate(
            paql.AggregateExpr(paql.SUM, attr=f"attr_{j + 1}"), "<=", float(raw.c[j]))
        for j in range(raw.k))
    q = paql.PackageQuery(
        relation_name="R",
        relation_alias="R",
        package_name="P",
        global_predicates=preds,
        objective=paql.Objective(
            paql.MAXIMIZE, paql.AggregateExpr(paql.SUM, attr="attr_obj")),
    )
    return rel, paql.validate(q, rel.schema)


def model_from_raw(raw: RawIlp) -> IlpModel:
    """Direct model of a RawIlp, bypassing the query layer (oracle path)."""
    n = raw.n
    constraints = tuple(
        LinearConstraint(
            np.asarray([raw.b[i][j] for i in range(n)], dtype=np.float64),
            "<=", float(raw.c[j]), provenance=f"raw[{j}]")
        for j in range(raw.k))
    return IlpModel(
        np.arange(n, dtype=np.int64), np.zeros(n), np.full(n, np.inf),
        constraints, np.asarray(raw.a, dtype=np.float64), maximize=True)
