"""Independent oracles for the test suite.

Everything here evaluates queries by direct aggregation with exact
rational arithmetic, deliberately bypassing the translation and solver
machinery it is used to check; ``highs_optimum`` solves a translated model
with scipy's HiGHS instead of the engine's solver, and ``brute_force``
enumerates every multiplicity vector in a model's bound box.
``gen_raw_ilp`` draws small random ILP instances and ``model_from_raw``
builds their models without the query layer. ``reference_load_csv``
reads a CSV file cell by cell with ``csv.reader`` and ``float()``. The
engine has no use for the last three: ``lp_relax`` (a model's LP bound in
its own sense), ``verify_result`` (a solve's vector checked against its
model) and ``var_index`` (tuple id -> variable position).
``partition_reference`` is the quad-tree split loop as it stood before
``partition`` gathered each node's points once and sorted narrow codes;
``partition`` must return exactly what it returns. ``restrict_reference``
is ``restrict_to_ids`` as it stood when a partitioning kept an n x k copy
of its attributes' values; ``restrict_to_ids`` must agree with it exactly.
``lp_solve_reference`` is the revised simplex as it stood before the basis
inverse absorbed the row signs and ``LpResult`` carried its basis, and
``tokenize_reference`` the PaQL tokenizer before whitespace was folded into
each token's match; ``lp_solve`` and ``paql._tokenize`` must agree with them
exactly.
"""

import csv
import math
import re
from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np

from pkgquery import paql
from pkgquery.ilp import IlpModel, RawIlp, feasible
from pkgquery.partitioning import (
    PartitionError,
    PartitionParams,
    Partitioning,
    _attr_matrix,
)
from pkgquery.relation import CATEGORICAL, NUMERIC, Relation, RelationError, Schema
from pkgquery.solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolveResult,
    SolverError,
    SolveStats,
)
from pkgquery.simplex import (
    _ARGMAX_PICKS,
    _ENTER_TOL,
    _PHASE1_WEIGHT,
    _PIVOT_TOL,
    _PRICE_CHUNK,
    _STALL_LIMIT,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    SimplexError,
    lp_solve,
)


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
    zero form satisfies <=, >=, and =).
    """
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


_BRUTE_SPACE_LIMIT = 10_000_000
_CHUNK = 1 << 18


def brute_force(m: IlpModel) -> SolveResult:
    """Exhaustive enumeration of every multiplicity vector in the bound box.

    Independent of the LP machinery; requires the search space to hold at
    most 10^7 vectors. Ties keep the enumeration-first vector (all-zeros
    first), matching the solver's vacuous-objective behavior.
    """
    if m.n_vars == 0:
        if not feasible(m, np.zeros(0)):
            return SolveResult(STATUS_INFEASIBLE, None, None)
        return SolveResult(STATUS_OPTIMAL, np.zeros(0), 0.0)
    if not np.all(np.isfinite(m.upper)):
        raise SolverError("brute_force requires finite variable bounds")
    hi = np.floor(m.upper + 1e-9).astype(np.int64)
    if np.any(hi < 0):
        return SolveResult(STATUS_INFEASIBLE, None, None)
    sizes = hi + 1
    space = float(np.prod(sizes.astype(np.float64)))
    if space > _BRUTE_SPACE_LIMIT:
        raise SolverError(
            f"search space too large for brute force ({space:.3g} > "
            f"{_BRUTE_SPACE_LIMIT})")
    total = int(round(space))

    n = m.n_vars
    strides = np.ones(n, dtype=np.int64)
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    sign = 1.0 if m.maximize else -1.0

    best_val = -math.inf
    best_x = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        Xf = ((idx[:, None] // strides[None, :]) % sizes[None, :]).astype(np.float64)
        ok = np.ones(len(idx), dtype=bool)
        for a, row_lo, row_hi in zip(m.rows, m.row_lo, m.row_hi):
            lhs = Xf @ a
            ok &= (lhs <= row_hi + 1e-9) & (lhs >= row_lo - 1e-9)
        if not ok.any():
            continue
        vals = sign * (Xf[ok] @ m.objective)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = Xf[ok][k]
    stats = SolveStats(nodes=total)
    if best_x is None:
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)
    return SolveResult(STATUS_OPTIMAL, best_x, sign * best_val, stats)


def gen_raw_ilp(seed: int) -> RawIlp:
    """Random small integer program, always bounded.

    It has 1-10 variables and 1-4 constraints, with integer coefficients
    in [-5, 5]. One constraint row is a cardinality cap (all-ones
    coefficients with a bound of 1-3) so that every variable has a
    derivable finite upper bound.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    k = int(rng.integers(1, 5))
    a = rng.integers(-5, 6, size=n).astype(float)
    b = rng.integers(-5, 6, size=(n, k)).astype(float)
    c = rng.integers(-3, 16, size=k).astype(float)
    bound_j = int(rng.integers(0, k))
    b[:, bound_j] = 1.0
    c[bound_j] = float(rng.integers(1, 4))
    return RawIlp(tuple(a), tuple(tuple(row) for row in b), tuple(c))


def model_from_raw(raw: RawIlp) -> IlpModel:
    """Direct model of a RawIlp, bypassing the query layer (oracle path)."""
    n, k = raw.n, raw.k
    cols = np.asarray(raw.b, dtype=np.float64).reshape(n, k)
    return IlpModel(
        np.arange(n, dtype=np.int64), np.full(n, np.inf),
        np.ascontiguousarray(cols.T), np.full(k, -np.inf),
        np.asarray(raw.c, dtype=np.float64), np.asarray(raw.a, dtype=np.float64),
        maximize=True)


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

    groups, sizes, radii, reps, degenerate = [], [], [], [], set()
    for g, (members, centroid, radius, degen) in enumerate(final):
        members = np.sort(members)
        groups.append(members)
        sizes.append(len(members))
        radii.append(radius)
        reps.append(centroid)
        if degen:
            degenerate.add(g)
    return Partitioning(
        attrs=params.attrs, tau=params.tau, omega=params.omega, n=rel.n,
        groups=tuple(groups), sizes=np.asarray(sizes, dtype=np.int64),
        radii=np.asarray(radii), degenerate=frozenset(degenerate),
        representatives=np.asarray(reps).reshape(len(final), k))


def restrict_reference(p: Partitioning, points: np.ndarray, keep_ids) -> Partitioning:
    """``restrict_to_ids`` reading the members' values from ``points``, the
    n x k matrix of ``p.attrs`` over the relation."""
    keep = np.zeros(p.n, dtype=bool)
    keep[np.asarray(keep_ids, dtype=np.int64)] = True
    groups, sizes, radii, reps, degenerate = [], [], [], [], set()
    for members in p.groups:
        members = members[keep[members]]
        if len(members) == 0:
            continue
        g = len(groups)
        centroid, radius = _reference_group_stats(points, members)
        groups.append(members)
        sizes.append(len(members))
        radii.append(radius)
        reps.append(centroid)
        if len(members) > p.tau or radius > p.omega * (1 + 1e-12):
            degenerate.add(g)
    return Partitioning(
        attrs=p.attrs, tau=p.tau, omega=p.omega, n=p.n,
        groups=tuple(groups), sizes=np.asarray(sizes, dtype=np.int64),
        radii=np.asarray(radii), degenerate=frozenset(degenerate),
        representatives=np.asarray(reps).reshape(len(groups), len(p.attrs)))


def _pricing_order_reference(idx, mag, chunk=_PRICE_CHUNK):
    """Yield ``idx[np.argsort(-mag, kind="stable")]`` one sorted chunk at a
    time: the ``chunk`` largest magnitudes plus all ties with the smallest
    of them, found by ``np.partition``. A pricing pass usually stops at its
    first candidate, so later chunks (each twice the size) are only cut
    when bound flips retire every candidate before them."""
    while len(idx) > chunk:
        cut = len(mag) - chunk
        top = mag >= np.partition(mag, cut)[cut]
        sel = idx[top]
        yield from sel[np.argsort(-mag[top], kind="stable")]
        idx, mag = idx[~top], mag[~top]
        chunk *= 2
    yield from idx[np.argsort(-mag, kind="stable")]


def _entering_order_reference(s, bland):
    """Yield the columns with gain ``s > _ENTER_TOL``, largest first with
    ties to the lowest index (under Bland's rule: by index).

    The first ``_ARGMAX_PICKS`` are argmax picks, which relies on the caller
    negating ``s[e]`` when ``e`` flips; the rest come from one lazy sort of
    what is left, in the same order."""
    if not bland:
        for _ in range(_ARGMAX_PICKS):
            e = int(s.argmax())
            if not s[e] > _ENTER_TOL:
                return
            yield e
    idx = np.nonzero(s > _ENTER_TOL)[0]
    yield from (idx if bland else _pricing_order_reference(idx, s[idx]))


class _RevisedReference:
    """One LP in revised form: the rows ``flip * A`` with a slack per
    inequality row and an artificial per row that is not '<=' (unit
    columns), the basis inverse, and each column's pricing direction.

    Columns are numbered structurals first, then slacks, then artificials;
    each row's '<=' slack or artificial starts basic, so the first inverse is I.
    ``direction`` is +1 for a column that may enter from its lower bound,
    -1 from its upper bound and 0 when it is basic or barred (numbered
    ``barred`` or more). The n-length work buffers are allocated here, once."""

    def __init__(self, A, flip, slacks, arts, upper, lower, b):
        """``slacks``: (row, sign) per inequality row, -1 for '>='; ``arts``:
        the rows that are not '<='. Rows are few, so this is Python work."""
        m, n = A.shape
        self.A, self.flip, self.n = A, np.array(flip), n
        self.art0 = n + len(slacks)
        units = slacks + [(i, 1.0) for i in arts]
        self.units = np.zeros((m, len(units)))  # the unit columns, dense
        self.basis = basis = [0] * m  # the basic column of each row
        for j, (i, sign) in enumerate(units):  # an artificial overrides a '>=' slack
            self.units[i, j] = sign
            basis[i] = n + j
        n_total = self.barred = n + len(units)
        self.ub = np.empty(n_total)  # upper bounds after the shift to 0
        np.subtract(upper, lower, out=self.ub[:n])
        self.ub[n:] = np.inf
        self.binv = np.eye(m)
        self.xB = b  # basic values as Python floats: k is small
        self.direction = np.ones(n_total)
        self.direction[basis] = 0.0
        self.c = np.empty(n_total)  # the phase's objective
        self.s = np.empty(n_total)  # the pricing buffer

    def reduced_costs(self):
        """c - c_B B^-1 [flip * A, units], in the pricing buffer."""
        n, s = self.n, self.s
        y = self.cB @ self.binv
        np.matmul(y * self.flip, self.A, out=s[:n])
        np.matmul(y, self.units, out=s[n:])
        np.subtract(self.c, s, out=s)
        return s

    def column(self, e):
        """Column ``e`` of B^-1 [flip * A, units]."""
        if e < self.n:
            return self.binv @ (self.flip * self.A[:, e])
        return self.binv @ self.units[:, e - self.n]

    def run(self, max_iter):
        """Pivot to optimality for max c.x; returns ('optimal'|'unbounded',
        iterations). Reduced costs depend only on the basis, so every bound
        flip of a pricing round shares its buffer; a pivot ends the round."""
        direction, ub, basis, xB = self.direction, self.ub, self.basis, self.xB
        self.cB = cB = self.c[basis]  # the objective's basic entries
        ub_basic = ub[basis].tolist()
        rounds = 0
        iters = 0
        bland = False
        stall = 0
        while True:
            rounds += 1
            if rounds > max_iter:
                raise SimplexError("simplex iteration cap exceeded (cycling?)")
            s = self.reduced_costs()
            s *= direction  # each column's gain: eligible where s > tol
            entered = False
            for e in _entering_order_reference(s, bland):
                entered = True
                iters += 1
                alpha = self.column(e)
                up = direction[e] > 0  # entering from its lower bound
                dy = (alpha if up else -alpha).tolist()

                # largest step before a basic variable hits one of its bounds
                lim = [max(x, 0.0) / d if d > _PIVOT_TOL else
                       max(u - x, 0.0) / -d if d < -_PIVOT_TOL else math.inf
                       for d, x, u in zip(dy, xB, ub_basic)]
                t_row = min(lim, default=math.inf)
                t_flip = float(ub[e])  # internal lower bounds are all 0
                t = min(t_row, t_flip)
                if not math.isfinite(t):
                    return UNBOUNDED, max(iters, rounds)

                if t_flip <= t_row:
                    # bound flip: cross to the other bound, reduced costs intact
                    xB[:] = [x - t_flip * d for x, d in zip(xB, dy)]
                    direction[e] = -direction[e]
                    s[e] = -s[e]
                    continue

                if t <= _PIVOT_TOL:
                    stall += 1
                    if stall > _STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

                # pivot: among limiting rows pick the smallest variable index
                r = min((i for i, v in enumerate(lim) if v <= t_row + _PIVOT_TOL),
                        key=basis.__getitem__)
                leaving = basis[r]
                hit_upper = dy[r] < 0  # leaving variable rose to its upper bound

                xB[:] = [x - t * d for x, d in zip(xB, dy)]
                piv = alpha[r]
                if abs(piv) < _PIVOT_TOL:
                    raise SimplexError("near-singular pivot element")
                binv = self.binv
                binv[r] /= piv
                alpha[r] = 0.0
                binv -= alpha[:, None] * binv[r]

                if leaving < self.barred:
                    direction[leaving] = -1.0 if hit_upper else 1.0
                xB[r] = t if up else t_flip - t
                basis[r] = e
                cB[r] = self.c[e]
                ub_basic[r] = t_flip
                direction[e] = 0.0
                break  # basis changed; reprice
            else:
                if not entered:
                    return OPTIMAL, max(iters, rounds)


def lp_solve_reference(obj, A, row_lo, row_hi, lower, upper) -> LpResult:
    """Maximize obj.x over the bounded LP; returns structural solution and
    objective. No input array is modified.

    A: k x n coefficient matrix (k may be 0); row_lo/row_hi: per-row
    bounds, one of them infinite or both equal; lower/upper: per-variable
    bounds, upper may be +inf.
    """
    obj = np.asarray(obj, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    n, m = len(obj), len(row_lo)
    A = np.asarray(A, dtype=np.float64).reshape(m, n)

    # each row's op: '<=' has only row_hi, '>=' only row_lo, '=' both equal
    ops, b = [], []
    for lo_i, hi_i in zip(map(float, row_lo), map(float, row_hi)):
        has_lo, has_hi = math.isfinite(lo_i), math.isfinite(hi_i)
        if not (has_lo or has_hi) or (has_lo and has_hi and lo_i != hi_i):
            raise SimplexError("each row needs exactly one finite bound or two equal ones")
        ops.append((has_lo, has_hi))
        b.append(hi_i if has_hi else lo_i)

    if (lower > upper + 1e-12).any():
        return LpResult(INFEASIBLE, None, None, 0)

    # shift to zero lower bounds: y = x - l
    b_shift = (np.array(b) - A @ lower).tolist()
    const = float(obj @ lower)

    # rows with a negative right side are negated, which swaps '<=' and '>='
    flip, rhs, slacks, arts = [], [], [], []
    for i, ((has_lo, has_hi), b_i) in enumerate(zip(ops, b_shift)):
        neg = b_i < 0
        flip.append(-1.0 if neg else 1.0)
        rhs.append(-b_i if neg else b_i)
        le = has_lo != has_hi and (has_lo if neg else has_hi)
        if has_lo != has_hi:
            slacks.append((i, 1.0 if le else -1.0))
        if not le:
            arts.append(i)
    lp = _RevisedReference(A, flip, slacks, arts, upper, lower, rhs)
    n_total, art0 = lp.barred, lp.art0
    span = lp.ub[:n]

    max_iter = 20000 + 10 * (m + n_total)
    total_iters = 0

    if art0 < n_total:
        top = max(float(obj.max(initial=0.0)), -float(obj.min(initial=0.0)))
        lp.c[n:art0] = 0.0
        lp.c[art0:] = -1.0
        # steered by the objective first, then, if that stops short of a
        # feasible point, pure from the basis it reached
        for weight in ((_PHASE1_WEIGHT / top, 0.0) if top > 0 else (0.0,)):
            np.multiply(obj, weight, out=lp.c[:n])
            status, it = lp.run(max_iter)
            total_iters += it
            art_basic = [r for r, j in enumerate(lp.basis) if j >= art0]
            if status == OPTIMAL and sum(lp.xB[r] for r in art_basic) <= 1e-7:
                break
        else:
            if status != OPTIMAL:
                raise SimplexError("phase 1 terminated abnormally")
            return LpResult(INFEASIBLE, None, None, total_iters)
        for r in art_basic:
            lp.xB[r] = 0.0
        # freeze artificials at zero; they may linger in the basis at value 0
        lp.ub[art0:] = 0.0
        lp.direction[art0:] = 0.0
        lp.barred = art0

    lp.c[:n] = obj
    lp.c[n:] = 0.0
    status, it = lp.run(max_iter)
    total_iters += it
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, total_iters)

    at_upper = lp.direction[:n] < 0
    x = np.where(at_upper, span, 0.0)
    basic = [(j, v) for j, v in zip(lp.basis, lp.xB) if j < n]
    for j, v in basic:
        x[j] = v
    objective = float(obj @ x) + const
    # the last round priced this basis: its gains are d * direction, and
    # direction is +-1 off the basis, so one more product gives d back
    d = lp.s[:n]
    d *= lp.direction[:n]
    for j, v in basic:  # nonbasic values already lie on their bounds
        x[j] = min(max(v, 0.0), span[j])
        d[j] = 0.0
    x += lower
    return LpResult(OPTIMAL, x, objective, total_iters,
                    reduced_costs=d, at_upper=at_upper)


_TOKEN_RE_REFERENCE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|[<>=(),.*;+-])
    """,
    re.VERBOSE,
)


def tokenize_reference(text: str) -> list:
    tokens = []
    pos = 0
    for m in _TOKEN_RE_REFERENCE.finditer(text):
        if m.start() != pos:  # a gap: no token matches at pos
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        lexeme = m.group()
        if kind == "ident":
            upper = lexeme.upper()
            if upper in paql._KEYWORDS:
                kind, lexeme = "kw", upper
        elif kind == "string":
            lexeme = lexeme[1:-1].replace("''", "'")
        elif lexeme == "<>":
            lexeme = "!="
        tokens.append((kind, lexeme, m.start()))
    if pos != len(text):
        raise paql.ParseError(f"unexpected character {text[pos]!r}", text, pos)
    tokens.append(("eof", "", pos))
    return tokens
