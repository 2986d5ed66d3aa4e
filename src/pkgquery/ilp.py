"""Translation of validated package queries into integer linear programs.

Variables are nonnegative integers, one per tuple surviving the base
predicate; x_i counts how often tuple i appears in the answer package.
A model is  max (or min) c.x  s.t.  row_lo <= A x <= row_hi,  0 <= x <= u,
with A a dense k x n float64 matrix, one row per global predicate, whose
columns follow the model's variable order (``var_ids`` maps position ->
tuple id). A '<=' row has only an upper bound, a '>=' row only a lower one
(the other is infinite), and an '=' row two equal ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import paql
from .relation import Relation, from_columns, predicate_mask

FEAS_TOL = 1e-9


class IlpError(Exception):
    pass


class UnboundedModelError(IlpError):
    """No finite upper bound can be derived for some variable."""


@dataclass(frozen=True)
class IlpModel:
    var_ids: np.ndarray   # tuple ids, ascending
    upper: np.ndarray     # float64; np.inf until derive_bounds
    rows: np.ndarray      # k x n coefficient matrix, C order
    row_lo: np.ndarray    # per-row lower bound, -inf for none
    row_hi: np.ndarray    # per-row upper bound, inf for none
    objective: np.ndarray  # coefficient per variable
    maximize: bool = True  # vacuous objective = all-zero maximize

    @property
    def n_vars(self) -> int:
        return len(self.var_ids)


def _column(rel: Relation, attr: str, ids: Optional[np.ndarray],
            gathered: Optional[dict] = None) -> np.ndarray:
    """A numeric column at ``ids``; for None, the relation's own array.
    ``gathered`` keeps each attribute's gather for the next read."""
    col = rel.column(attr)
    if ids is None:
        return col
    if gathered is None:
        return col[ids]
    if attr not in gathered:
        gathered[attr] = col[ids]
    return gathered[attr]


def _aggregate_coeffs(expr: paql.AggregateExpr, rel: Relation,
                      ids: Optional[np.ndarray],
                      gathered: Optional[dict] = None) -> np.ndarray:
    """One coefficient per id in ``ids``, or per tuple for None; a SUM over
    the whole relation is the relation's column itself."""
    if expr.kind == paql.COUNT:
        return np.ones(rel.n if ids is None else len(ids))
    if expr.kind == paql.SUM:
        return _column(rel, expr.attr, ids, gathered)
    if expr.kind == paql.FILTERED_COUNT:
        return predicate_mask(rel, expr.filter, ids).astype(np.float64)
    raise IlpError(f"no linear coefficients for aggregate {expr.kind!r}")


def _predicate_row(g: paql.GlobalPredicate, rel: Relation,
                   ids: Optional[np.ndarray],
                   gathered: Optional[dict] = None) -> tuple[np.ndarray, str, float]:
    """Linearize one global predicate into (coeffs, op, rhs)."""
    if isinstance(g.rhs, paql.AggregateExpr):
        # filtered-count vs filtered-count: indicator difference against 0
        coeffs = _aggregate_coeffs(g.lhs, rel, ids) - _aggregate_coeffs(g.rhs, rel, ids)
        rhs = 0.0
    elif g.lhs.kind == paql.AVG:
        # AVG(attr) op v  <=>  sum((attr - v) * x) op 0
        v = float(g.rhs)
        coeffs = _column(rel, g.lhs.attr, ids, gathered) - v
        rhs = 0.0
    else:
        coeffs = _aggregate_coeffs(g.lhs, rel, ids, gathered)
        rhs = float(g.rhs)
    return coeffs, g.op, rhs


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
    coeffs, _, _ = _predicate_row(g, rel, ids)
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

    if ids is not None:
        pool = np.asarray(ids, dtype=np.int64)
        if not (pool[1:] >= pool[:-1]).all():  # groups come ascending already
            pool = np.sort(pool)
        if q.base_predicate is not None:
            pool = pool[predicate_mask(rel, q.base_predicate, pool)]
    elif q.base_predicate is not None:
        pool = np.flatnonzero(predicate_mask(rel, q.base_predicate))
    else:
        pool = None  # every tuple: the columns are read in place
    var_ids = np.arange(rel.n, dtype=np.int64) if pool is None else pool

    n = len(var_ids)
    upper = np.empty(n)
    upper.fill(np.inf if q.repeat is None else q.repeat + 1)
    if upper_override is not None:
        upper = np.minimum(upper, upper_override if pool is None else upper_override[pool])

    k = len(q.global_predicates)
    rows = np.empty((k, n))
    row_lo, row_hi = [-np.inf] * k, [np.inf] * k
    gathered: dict = {}  # one gather per attribute: a window reads its column twice
    for i, g in enumerate(q.global_predicates):
        rows[i], op, rhs = _predicate_row(g, rel, pool, gathered)
        if op != ">=":
            row_hi[i] = rhs
        if op != "<=":
            row_lo[i] = rhs

    maximize = True
    if q.objective is not None:
        objective = _aggregate_coeffs(q.objective.expr, rel, pool, gathered)
        if pool is None and q.objective.expr.kind == paql.SUM:
            objective = objective.copy()  # a model never holds a relation column
        maximize = q.objective.direction == paql.MAXIMIZE
    else:
        objective = np.zeros(n)

    return IlpModel(var_ids, upper, rows, np.array(row_lo), np.array(row_hi),
                    objective, maximize)


def activity(m: IlpModel, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's left side over the columns at positions ``cols`` with
    multiplicities ``x`` (one dot product per row)."""
    return np.array([a[cols] @ x for a in m.rows], dtype=np.float64)


def shift_rhs(m: IlpModel, fixed: np.ndarray) -> IlpModel:
    """The model with both bounds of each row reduced by ``fixed``, the row
    activity of a package part held outside the model's variables."""
    return replace(m, row_lo=m.row_lo - fixed, row_hi=m.row_hi - fixed)


def hstack(left: IlpModel, right: IlpModel, cols: np.ndarray) -> IlpModel:
    """The columns of ``left`` followed by those of ``right`` at positions
    ``cols``, over the row bounds of ``left``; variable ids are column
    positions."""
    return IlpModel(
        np.arange(left.n_vars + len(cols), dtype=np.int64),
        np.concatenate([left.upper, right.upper[cols]]),
        np.hstack([left.rows, right.rows[:, cols]]), left.row_lo, left.row_hi,
        np.concatenate([left.objective, right.objective[cols]]), left.maximize)


def derive_bounds(m: IlpModel) -> IlpModel:
    """Tighten infinite variable upper bounds from the rows.

    A row sum(a_i x_i) <= U with every a_i >= 0 implies x_i <= floor(U / a_i)
    wherever a_i > 0; a row sum(a_i x_i) >= L with every a_i <= 0 is the
    same rule for -a and -L. Fails if any variable stays unbounded.
    """
    finite = np.isfinite(m.upper)
    if finite.all():
        return m
    upper, unbounded = m.upper.copy(), ~finite
    for a, lo, hi in zip(m.rows, m.row_lo, m.row_hi):
        for coeffs, cap in ((a, hi), (-a, -lo)):
            if not np.isfinite(cap) or np.any(coeffs < 0):
                continue
            pos = coeffs > 0
            # nudge before floor so 2.999...9 float noise does not lose a
            # unit; erring large keeps the bound valid
            implied = np.floor(cap / coeffs[pos] + 1e-9)
            take = unbounded & pos
            upper[take] = np.minimum(upper[take], implied[take[pos]])
    if not np.all(np.isfinite(upper)):
        raise UnboundedModelError(
            "unbounded repetition: add REPEAT or a bounding global constraint")
    return replace(m, upper=upper)


def feasible(m: IlpModel, x: Sequence[float], tol: float = FEAS_TOL) -> bool:
    """Whether a multiplicity vector satisfies all bounds and rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.n_vars,):
        raise IlpError(
            f"multiplicity vector length {x.shape} != variable count {m.n_vars}")
    if np.any(x < -tol) or np.any(x > m.upper + tol):
        return False
    lhs = m.rows @ x
    return bool(np.all(lhs <= m.row_hi + tol) and np.all(lhs >= m.row_lo - tol))


def package_from_solution(m: IlpModel, x: Sequence[float]) -> dict[int, int]:
    """Multiplicity map {tuple_id: count} from an integral solution vector.

    Entries round half to even, like Python's ``round``; keys and counts
    are plain Python ints in variable order."""
    k = np.rint(np.asarray(x, dtype=np.float64))
    keep = np.nonzero(k > 0)[0]
    return dict(zip(m.var_ids[keep].tolist(), k[keep].astype(np.int64).tolist()))


# ---------------------------------------------------------------------------
# Generic-ILP reduction: the `pkgquery gen --from-ilp` file format


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        raw = RawIlp(tuple(d["a"]), tuple(tuple(r) for r in d["b"]), tuple(d["c"]))
        n, k = d["n"], d["k"]
    except (KeyError, TypeError, ValueError) as exc:  # a JSON syntax error is a ValueError
        raise IlpError(
            f"{path}: malformed ILP file ({type(exc).__name__}: {exc})") from None
    if raw.n != n or raw.k != k:
        raise IlpError(f"{path}: inconsistent n/k fields")
    if len(raw.b) != n:
        raise IlpError(f"{path}: b has {len(raw.b)} rows, expected n = {n}")
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
