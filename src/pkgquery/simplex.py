"""Dense bounded-variable primal simplex, two-phase, in revised form.

Solves  max c.x  s.t.  row_lo <= A x <= row_hi,  l <= x <= u; each row has
one finite bound (a '<=' or '>=' row) or two equal ones (an '=' row).
It keeps the k x k basis inverse, with the row signs folded into its
columns, and reads A in place: a pivot costs O(k^2) and a pricing round
one pass over A.
Variable bounds are handled implicitly (nonbasic variables sit at either
bound), so branch-and-bound can tighten bounds without growing the problem.
Dantzig pricing with a switch to Bland's rule after a degenerate stall.

Phase 1 is composite (Wolfe's composite simplex): besides the artificials'
-1 it prices each structural column at its true objective times
``_PHASE1_WEIGHT / max|obj|``. Package rows such as a COUNT give every
column the same phase-1 gain, and the objective breaks those ties, so phase
1 ends near the optimum and phase 2 has few swaps left. Should the steered
phase stop unbounded or short of feasibility, the structural costs drop to
0 and pure phase 1 continues from its basis; only the pure phase declares
an LP infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-9
_STALL_LIMIT = 120
_PRICE_CHUNK = 64
# argmax picks per round (one pass over the gains each) before one sort of the
# rest: the benchmark's LPs need at most 16, a loose COUNT bound thousands
_ARGMAX_PICKS = 32
# phase 1's weight on the true objective, relative to max|obj|: small
# against the artificials' -1, enough to break ties between phase-1 gains
_PHASE1_WEIGHT = 1e-6


class SimplexError(Exception):
    """Numerical failure (singular pivot, cycling past the iteration cap)."""


@dataclass
class LpResult:
    status: str
    x: Optional[np.ndarray]  # structural variables only
    objective: Optional[float]
    iterations: int
    # optimal-basis sensitivity for the structural variables (maximize
    # sense): reduced cost per variable and whether it sits at its upper
    # bound; basic variables carry ~0 reduced cost
    reduced_costs: Optional[np.ndarray] = None
    at_upper: Optional[np.ndarray] = None
    # the basic structural columns, ascending (at most one per row); every
    # other structural sits exactly on one of its bounds
    basic: Optional[np.ndarray] = None


def _pricing_order(idx, mag, chunk=_PRICE_CHUNK):
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


def _entering_order(s, bland):
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
    yield from (idx if bland else _pricing_order(idx, s[idx]))


class _Revised:
    """One LP in revised form: the rows ``flip * A`` with a slack per
    inequality row and an artificial per row that is not '<=' (unit
    columns), the basis inverse, and each column's pricing direction.

    Columns are numbered structurals first, then slacks, then artificials;
    each row's '<=' slack or artificial starts basic, so the first inverse is I.
    ``binv`` holds B^-1 diag(flip): a sign change is exact, so products with
    it equal those of B^-1 with ``flip * A`` bit for bit, and A is read as
    it is. ``direction`` is +1 for a column that may enter from its lower
    bound, -1 from its upper bound and 0 when it is basic or barred
    (numbered ``barred`` or more). The n-length work buffers are allocated
    here, once."""

    def __init__(self, A, flip, slacks, arts, upper, lower, b):
        """``slacks``: (row, sign) per inequality row, -1 for '>='; ``arts``:
        the rows that are not '<='. Rows are few, so this is Python work."""
        m, n = A.shape
        self.A, self.n = A, n
        self.art0 = n + len(slacks)
        units = slacks + [(i, 1.0) for i in arts]
        # unit column j is sign * e_row; against B^-1 diag(flip) it reads
        # column ``row`` times ``flip[row] * sign``
        self.units = [(i, flip[i] * sign) for i, sign in units]
        self.basis = basis = [0] * m  # the basic column of each row
        for j, (i, _) in enumerate(units):  # an artificial overrides a '>=' slack
            basis[i] = n + j
        n_total = self.barred = n + len(units)
        self.ub = np.empty(n_total)  # upper bounds after the shift to 0
        np.subtract(upper, lower, out=self.ub[:n])
        self.ub[n:] = np.inf
        self.binv = np.diag(flip)
        self.xB = b  # basic values as Python floats: k is small
        self.direction = np.empty(n_total)
        self.direction.fill(1.0)
        self.direction[basis] = 0.0
        self.c = np.empty(n_total)  # the phase's objective
        self.s = np.empty(n_total)  # the pricing buffer

    def reduced_costs(self):
        """c - c_B B^-1 [flip * A, units], in the pricing buffer."""
        n, s = self.n, self.s
        y = self.cB @ self.binv
        np.matmul(y, self.A, out=s[:n])
        y = y.tolist()
        s[n:] = [y[i] * sign for i, sign in self.units]  # priced by row: few
        np.subtract(self.c, s, out=s)
        return s

    def column(self, e):
        """Column ``e`` of B^-1 [flip * A, units]."""
        if e < self.n:
            return self.binv @ self.A[:, e]
        i, sign = self.units[e - self.n]
        return self.binv[:, i] * sign

    def run(self, max_iter):
        """Pivot to optimality for max c.x; returns ('optimal'|'unbounded',
        iterations). Reduced costs depend only on the basis, so every bound
        flip of a pricing round shares its buffer; a pivot ends the round.
        A round's first candidate is its argmax; ``_entering_order`` yields
        the rest only after a bound flip."""
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
            if bland:
                order = _entering_order(s, True)
                e = next(order, -1)
            else:
                order = None
                e = int(s.argmax())
                if not s[e] > _ENTER_TOL:
                    e = -1
            if e < 0:
                return OPTIMAL, max(iters, rounds)
            while e >= 0:
                iters += 1
                alpha = self.column(e)
                up = direction[e] > 0  # entering from its lower bound
                dy = (alpha if up else -alpha).tolist()

                # largest step before a basic variable hits one of its bounds
                lim = []
                for d, x, u in zip(dy, xB, ub_basic):
                    if d > _PIVOT_TOL:
                        lim.append(max(x, 0.0) / d)
                    elif d < -_PIVOT_TOL:
                        lim.append(max(u - x, 0.0) / -d)
                    else:
                        lim.append(math.inf)
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
                    if order is None:
                        order = _entering_order(s, False)
                    e = next(order, -1)
                    continue

                if t <= _PIVOT_TOL:
                    stall += 1
                    if stall > _STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

                # pivot: among limiting rows pick the smallest variable index
                cut = t_row + _PIVOT_TOL
                r = -1
                for i, v in enumerate(lim):
                    if v <= cut and (r < 0 or basis[i] < basis[r]):
                        r = i
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


def lp_solve(obj, A, row_lo, row_hi, lower, upper) -> LpResult:
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

    # shift to zero lower bounds: y = x - l
    shifted = lower.any()
    shift = (A @ lower).tolist() if shifted else [0.0] * m
    const = float(obj @ lower) if shifted else 0.0

    # a '<=' row has only row_hi, '>=' only row_lo, '=' both equal; one whose
    # shifted right side is negative is negated, which swaps '<=' and '>='
    flip, rhs, slacks, arts = [], [], [], []
    for i, (lo_i, hi_i, s_i) in enumerate(zip(map(float, row_lo), map(float, row_hi),
                                              shift)):
        has_lo, has_hi = math.isfinite(lo_i), math.isfinite(hi_i)
        if not (has_lo or has_hi) or (has_lo and has_hi and lo_i != hi_i):
            raise SimplexError("each row needs exactly one finite bound or two equal ones")
        b_i = (hi_i if has_hi else lo_i) - s_i
        neg = b_i < 0
        flip.append(-1.0 if neg else 1.0)
        rhs.append(-b_i if neg else b_i)
        le = has_lo != has_hi and (has_lo if neg else has_hi)
        if has_lo != has_hi:
            slacks.append((i, 1.0 if le else -1.0))
        if not le:
            arts.append(i)
    if (lower > upper + 1e-12).any():
        return LpResult(INFEASIBLE, None, None, 0)
    lp = _Revised(A, flip, slacks, arts, upper, lower, rhs)
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
    basic = sorted((j, v) for j, v in zip(lp.basis, lp.xB) if j < n)
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
                    reduced_costs=d, at_upper=at_upper,
                    basic=np.array([j for j, _ in basic], dtype=np.intp))
