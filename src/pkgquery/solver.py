"""Exact ILP solving by branch-and-bound over the LP relaxation.

``solve`` is the default black-box solver behind both evaluation methods;
anything with the same (IlpModel, time limit in seconds) -> SolveResult
signature can stand in for it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ilp import IlpModel, feasible
from .simplex import INFEASIBLE, OPTIMAL, LpResult, lp_solve

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIME_LIMIT = "time_limit"

_BOUND_TOL = 1e-9
_INTEGRALITY_TOL = 1e-6  # an LP value this close to an integer is integral
_FEASIBILITY_TOL = 1e-9  # row slack allowed in a rounded candidate


class SolverError(Exception):
    pass


@dataclass
class SolveStats:
    nodes: int = 0
    lp_iterations: int = 0


@dataclass
class SolveResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    stats: SolveStats = field(default_factory=SolveStats)


def _round_candidates(x: np.ndarray, frac_idx, lo: np.ndarray,
                      hi: np.ndarray, A: np.ndarray, row_lo: np.ndarray,
                      row_hi: np.ndarray, c: np.ndarray):
    """Best feasible floor/ceil rounding of an LP point's fractional
    entries ``frac_idx`` (ascending); every other entry of ``x`` is integral.

    A basic LP solution has at most one fractional variable per constraint
    row, so the 2^f combinations stay tiny and are scored on Python floats
    as deltas from the all-floor base. Ties go to the lowest combination
    number (bit j set: entry frac_idx[j] rounds up). Returns the best
    vector in the caller's objective sense, or None.
    """
    f = len(frac_idx)
    if f > 12:
        return None
    floor = [math.floor(v) for v in x[frac_idx].tolist()]
    base = x.copy()
    base[frac_idx] = floor
    lhs0 = (A @ base).tolist()
    val0 = float(c @ base)
    # bit j may be clear only if the floor lies in the box, set only if the ceil does
    must_up = no_up = 0
    for j, (i, fl) in enumerate(zip(frac_idx, floor)):
        if not lo[i] <= fl <= hi[i]:
            must_up |= 1 << j
        if not lo[i] <= fl + 1 <= hi[i]:
            no_up |= 1 << j
    cols = A[:, frac_idx].T.tolist()  # per fractional entry, its row coefficients
    c_f = c[frac_idx].tolist()
    bounds = [(l - _FEASIBILITY_TOL, b, h + _FEASIBILITY_TOL)
              for l, b, h in zip(row_lo.tolist(), lhs0, row_hi.tolist())]
    # each combination's deltas: its highest bit added to those of the rest
    deltas = [([0.0] * len(lhs0), 0.0)]
    best, best_val = -1, -math.inf
    for combo in range(1 << f):
        if combo:
            high = combo.bit_length() - 1
            rows, val = deltas[combo ^ (1 << high)]
            deltas.append(([d + a for d, a in zip(rows, cols[high])], val + c_f[high]))
        if combo & no_up or combo & must_up != must_up:
            continue
        rows, val = deltas[combo]
        val += val0
        if val > best_val and all(lo_i <= b + d <= hi_i
                                  for (lo_i, b, hi_i), d in zip(bounds, rows)):
            best, best_val = combo, val
    if best < 0:
        return None
    for j in range(f):
        if best >> j & 1:
            base[frac_idx[j]] += 1.0
    return base


def _objective_grid(c: np.ndarray) -> Optional[float]:
    """Largest power-of-two grid (down to 2^-24) that every objective
    coefficient lies on exactly, or None. Integer coefficients yield 1.0."""
    scaled = np.abs(c)
    scaled *= 2.0 ** 24  # exact
    if not (scaled <= 2.0 ** 24 * 1e12).all():  # below 2^64; also catches nan
        return None
    ints = scaled.astype(np.uint64)
    if not (ints == scaled).all():  # off the 2^-24 grid
        return None
    # the grid is 2^-24 times the lowest set bit any scaled value has
    low = int(np.bitwise_or.reduce(ints))
    if low == 0:
        return 1.0
    return 2.0 ** -(24 - min((low & -low).bit_length() - 1, 24))


class _Search:
    """Branch-and-bound state in maximize space.

    Every LP is solved by ``node``, over the free core of the current box:
    the variables that reduced-cost fixing has not pinned. Pinned variables
    are folded into the row bounds and put back at their values in each
    candidate; while nothing is pinned, the core is the model's own arrays.
    """

    def __init__(self, m: IlpModel, time_limit: float):
        self.deadline = time.perf_counter() + time_limit
        self.m = m
        self.sign = 1.0 if m.maximize else -1.0
        self.c_model = self.sign * m.objective
        self.grid = _objective_grid(self.c_model)
        self.stats = SolveStats()
        self.best_val = -math.inf
        self.best_x: Optional[np.ndarray] = None
        self.hit_limit = False
        # integral bounds: an integer variable loses nothing, and every
        # nonbasic LP value is then integral
        self.set_box(np.zeros(m.n_vars), np.floor(m.upper + 1e-9))

    def set_box(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Make [lo, hi] (model coordinates) the box and build its core."""
        m, free = self.m, hi > lo + 0.5
        if free.all():
            self.free, self.const = None, 0.0
            self.A, self.row_lo, self.row_hi = m.rows, m.row_lo, m.row_hi
            self.c, self.lo, self.hi = self.c_model, lo, hi
            return
        self.free, self.box_lo = free, lo
        pinned = lo[~free]
        shift = m.rows[:, ~free] @ pinned
        self.A = m.rows[:, free].copy()
        self.row_lo, self.row_hi = m.row_lo - shift, m.row_hi - shift
        self.c = self.c_model[free]
        self.const = float(self.c_model[~free] @ pinned)
        self.lo, self.hi = lo[free], hi[free]

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """A core vector in model coordinates, pinned variables at their values."""
        if self.free is None:
            return vec
        full = self.box_lo.copy()
        full[self.free] = vec
        return full

    def snap(self, v):
        # integral solutions live on the objective-coefficient grid, so dual
        # bounds (scalar or array) round down to it without losing any
        if self.grid is None:
            return v
        return np.floor(v / self.grid + 1e-6) * self.grid

    def offer(self, vec: np.ndarray) -> None:
        """Record a feasible integral candidate (core coordinates)."""
        full = self.embed(vec)
        val = float(self.c_model @ full)
        if val > self.best_val:
            self.best_val = val
            self.best_x = full.copy()

    def node(self, lo: np.ndarray, hi: np.ndarray) -> Optional[LpResult]:
        """Solve the node [lo, hi] of the core and harvest an incumbent.

        Checks the time limit, solves the LP, prunes by bound, and offers an
        integral LP point as it is or a fractional one's best rounding.
        Returns the LP if the node is still open, else None."""
        if time.perf_counter() > self.deadline:
            self.hit_limit = True
            return None
        self.stats.nodes += 1
        res = lp_solve(self.c, self.A, self.row_lo, self.row_hi, lo, hi)
        self.stats.lp_iterations += res.iterations
        if res.status == INFEASIBLE:
            return None
        if res.status != OPTIMAL:
            raise SolverError("unbounded relaxation under finite bounds")
        # const is a grid multiple, so snapping commutes with the shift
        bound = self.snap(res.objective + self.const)
        if bound <= self.best_val + _BOUND_TOL:
            return None
        # the box is integral, so only basic entries can be fractional
        vec = res.x.copy()
        frac_idx = []
        for j, v in zip(res.basic.tolist(), res.x[res.basic].tolist()):
            r = round(v)
            if abs(v - r) > _INTEGRALITY_TOL:
                frac_idx.append(j)
            else:
                vec[j] = r
        if not frac_idx:
            # integral solutions beneath a node never beat its bound
            if float(self.c @ vec) + self.const > bound + 1e-6:
                raise SolverError("integral LP point exceeds its node bound")
            self.offer(vec)
            return None
        rounded = _round_candidates(vec, frac_idx, lo, hi, self.A, self.row_lo,
                                    self.row_hi, self.c)
        if rounded is not None:
            self.offer(rounded)
            if bound <= self.best_val + _BOUND_TOL:
                return None
        return res

    def fix_by_reduced_costs(self, res: LpResult) -> bool:
        """Pin the core variables whose move off their LP bound provably
        cannot beat the incumbent (which stays recorded), and make the rest
        the new core. False if nothing was pinned."""
        d, at_ub = res.reduced_costs, res.at_upper
        margin = 1e-9 * max(1.0, abs(self.best_val))
        worse = self.snap(res.objective + self.const + np.where(at_ub, -d, d))
        fixable = (worse <= self.best_val + margin) & (np.abs(d) > 1e-12)
        if not fixable.any():
            return False
        lo, hi = self.lo.copy(), self.hi.copy()
        hi[fixable & ~at_ub] = lo[fixable & ~at_ub]
        lo[fixable & at_ub] = hi[fixable & at_ub]
        self.set_box(self.embed(lo), self.embed(hi))
        return True

    def dfs(self, res: LpResult) -> None:
        """Depth-first search below the open root ``res`` of the core,
        round-down child first, most-fractional branching with lowest-index
        tie-break."""
        lo, hi = self.lo, self.hi
        stack = []
        while True:
            if res is not None:
                # the most fractional basic entry; the lowest index on ties
                j, most = -1, _INTEGRALITY_TOL
                for i, v in zip(res.basic.tolist(), res.x[res.basic].tolist()):
                    frac = abs(v - round(v))
                    if frac > most:
                        j, most = i, frac
                v = float(res.x[j])
                down_hi = hi.copy()
                down_hi[j] = math.floor(v)
                up_lo = lo.copy()
                up_lo[j] = math.ceil(v)
                stack.append((up_lo, hi))
                stack.append((lo, down_hi))  # LIFO: round-down child first
            if not stack or self.hit_limit:
                return
            lo, hi = stack.pop()
            res = self.node(lo, hi)


def solve(m: IlpModel, time_limit: float = 3600.0) -> SolveResult:
    """Exact branch-and-bound over the LP relaxation, within ``time_limit``
    seconds.

    The root is the first node; every node offers its integral LP point, or
    the best feasible floor/ceil rounding of a fractional one, as an
    incumbent. One round of reduced-cost fixing then pins the variables
    that cannot move, one more node solves the smaller core, and
    depth-first search branches from the last open node. Deterministic;
    the reported objective is exact to 1e-6 absolute / 1e-9 relative.
    """
    if not time_limit >= 0:  # NaN included: it would never expire
        raise SolverError(f"time limit must be >= 0 seconds, got {time_limit}")
    if m.n_vars == 0:
        if not feasible(m, np.zeros(0)):
            return SolveResult(STATUS_INFEASIBLE, None, None)
        return SolveResult(STATUS_OPTIMAL, np.zeros(0), 0.0)
    if not np.isfinite(m.upper).all():
        raise SolverError("solve requires finite variable bounds; run derive_bounds")

    s = _Search(m, time_limit)
    res = s.node(s.lo, s.hi)  # the root
    if res is not None and s.best_x is not None and s.fix_by_reduced_costs(res):
        res = s.node(s.lo, s.hi)  # the smaller core
    if res is not None:
        s.dfs(res)
    if s.best_x is None:
        status = STATUS_TIME_LIMIT if s.hit_limit else STATUS_INFEASIBLE
        return SolveResult(status, None, None, s.stats)
    status = STATUS_TIME_LIMIT if s.hit_limit else STATUS_OPTIMAL
    return SolveResult(status, s.best_x, s.sign * s.best_val, s.stats)
