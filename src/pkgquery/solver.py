"""Exact ILP solving: branch-and-bound, brute-force oracle, LP relaxation.

``solve`` is the default black-box solver behind both evaluation methods;
anything with the same (IlpModel, SolverConfig) -> SolveResult signature
can stand in for it. ``brute_force`` enumerates the whole multiplicity box
and is the independent oracle used throughout the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ilp import IlpModel, feasible
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, lp_solve

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_TIME_LIMIT = "time_limit"

_BOUND_TOL = 1e-9
_INTEGRALITY_TOL = 1e-6  # an LP value this close to an integer is integral
_FEASIBILITY_TOL = 1e-9  # row slack allowed in a rounded candidate


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class SolverConfig:
    time_limit: float = 3600.0

    def __post_init__(self):
        if not self.time_limit >= 0:  # NaN included: it would never expire
            raise SolverError(f"time limit must be >= 0 seconds, got {self.time_limit}")


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


def _round_candidates(x: np.ndarray, frac_idx: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, A: np.ndarray, row_lo: np.ndarray,
                      row_hi: np.ndarray, c: np.ndarray, tol: float):
    """Best feasible floor/ceil rounding of an LP point's fractional support.

    A basic LP solution has at most one fractional variable per constraint
    row, so the 2^f combinations stay tiny; deltas are evaluated against
    the all-floor base instead of re-scoring full vectors. Returns the
    best vector in the caller's objective sense, or None.
    """
    f = len(frac_idx)
    if f > 12:
        return None
    base = np.round(x)  # near-integral entries become exactly integral
    base[frac_idx] = np.floor(x[frac_idx])
    lhs_base = A @ base
    val_base = float(c @ base)
    cols = A[:, frac_idx]
    best = None
    for mask in range(1 << f):
        bits = np.array([(mask >> j) & 1 for j in range(f)], dtype=np.float64)
        cand_vals = np.floor(x[frac_idx]) + bits
        if np.any(cand_vals < lo[frac_idx]) or np.any(cand_vals > hi[frac_idx]):
            continue
        lhs = lhs_base + cols @ bits
        if np.any(lhs > row_hi + tol) or np.any(lhs < row_lo - tol):
            continue
        val = val_base + float(c[frac_idx] @ bits)
        if best is None or val > best[0]:
            vec = base.copy()
            vec[frac_idx] = cand_vals
            best = (val, vec)
    return None if best is None else best[1]


def _feasible_after(lhs: np.ndarray, cols: np.ndarray, row_lo: np.ndarray,
                    row_hi: np.ndarray, tol: float) -> np.ndarray:
    """Mask of unit moves (lhs + cols[:, j]) that keep every row feasible."""
    ok = np.ones(cols.shape[1], dtype=bool)
    for lhs_i, a, lo_i, hi_i in zip(lhs, cols, row_lo - tol, row_hi + tol):
        new = lhs_i + a
        ok &= (new <= hi_i) & (new >= lo_i)
    return ok


def _greedy_improve(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    A: np.ndarray, row_lo: np.ndarray, row_hi: np.ndarray,
                    c: np.ndarray, tol: float, max_steps: int = 400) -> np.ndarray:
    """Climb from a feasible integral point with unit add/drop moves.

    Each step applies the single feasibility-preserving +-1 move with the
    best objective gain (maximize sense, ties to the lowest index). Keeps
    the point feasible throughout, so the result can always be offered."""
    if len(A) == 0:  # no rows: every variable goes to its better bound
        out = x.copy()
        out[c > 0] = hi[c > 0]
        out[c < 0] = lo[c < 0]
        return out
    x = x.copy()
    lhs = A @ x
    for _ in range(max_steps):
        add_ok = (x < hi - 0.5) & (c > 1e-12) & _feasible_after(lhs, A, row_lo, row_hi, tol)
        drop_ok = (x > lo + 0.5) & (c < -1e-12) & _feasible_after(lhs, -A, row_lo, row_hi, tol)
        best_gain = 0.0
        move = None
        if add_ok.any():
            j = int(np.argmax(np.where(add_ok, c, -np.inf)))
            best_gain, move = c[j], (j, 1.0)
        if drop_ok.any():
            j = int(np.argmax(np.where(drop_ok, -c, -np.inf)))
            if -c[j] > best_gain:
                best_gain, move = -c[j], (j, -1.0)
        if move is None or best_gain <= 1e-12:
            return x
        j, step = move
        x[j] += step
        lhs += step * A[:, j]
    return x


def _objective_grid(c: np.ndarray) -> Optional[float]:
    """Largest power-of-two grid (down to 2^-24) that every objective
    coefficient lies on exactly, or None. Integer coefficients yield 1.0."""
    scaled = np.abs(c)
    if not scaled.max(initial=0.0) <= 1e12:  # also catches nan
        return None
    scaled *= 2.0 ** 24  # exact, and below 2^64
    if not np.all(scaled == np.rint(scaled)):
        return None
    # the grid is 2^-24 times the lowest set bit any scaled value has
    low = int(np.bitwise_or.reduce(scaled.astype(np.uint64)))
    if low == 0:
        return 1.0
    return 2.0 ** -(24 - min((low & -low).bit_length() - 1, 24))


def _empty_model_result(m: IlpModel) -> SolveResult:
    if not feasible(m, np.zeros(0)):
        return SolveResult(STATUS_INFEASIBLE, None, None)
    return SolveResult(STATUS_OPTIMAL, np.zeros(0), 0.0)


def lp_relax(m: IlpModel) -> LpResult:
    """Continuous relaxation; its objective bounds the integer optimum."""
    if m.n_vars == 0:
        r = _empty_model_result(m)
        return LpResult(OPTIMAL if r.status == STATUS_OPTIMAL else INFEASIBLE,
                        r.x, r.objective, 0)
    if not np.all(np.isfinite(m.upper)):
        raise SolverError("lp_relax requires finite variable bounds")
    return lp_solve(m.objective, m.rows, m.row_lo, m.row_hi, np.zeros(m.n_vars),
                    m.upper, maximize=m.maximize)


class _Search:
    """Shared branch-and-bound state in maximize space."""

    def __init__(self, m: IlpModel, cfg: SolverConfig):
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.A, self.row_lo, self.row_hi = m.rows, m.row_lo, m.row_hi
        self.sign = 1.0 if m.maximize else -1.0
        self.c = self.sign * m.objective
        self.lo0 = np.zeros(m.n_vars)
        self.hi0 = m.upper.copy()
        self.grid = _objective_grid(self.c)
        self.stats = SolveStats()
        self.best_val = -math.inf
        self.best_x: Optional[np.ndarray] = None
        self.hit_limit = False

    def snap(self, v: float) -> float:
        # integral solutions live on the objective-coefficient grid, so a
        # dual bound rounds down to it without losing any solution
        if self.grid is None:
            return v
        return math.floor(v / self.grid + 1e-6) * self.grid

    def out_of_budget(self) -> bool:
        if time.perf_counter() - self.t0 > self.cfg.time_limit:
            self.hit_limit = True
        return self.hit_limit

    def offer(self, vec: np.ndarray) -> None:
        """Record a feasible integral candidate (root-box coordinates)."""
        val = float(self.c @ vec)
        if val > self.best_val:
            self.best_val = val
            self.best_x = vec.copy()

    def node_heuristics(self, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
        """Harvest an incumbent from an LP point; True if it was integral."""
        frac = np.abs(x - np.round(x))
        frac_idx = np.nonzero(frac > _INTEGRALITY_TOL)[0]
        if len(frac_idx) == 0:
            self.offer(np.round(x))
            return True
        rounded = _round_candidates(x, frac_idx, lo, hi, self.A, self.row_lo,
                                    self.row_hi, self.c, _FEASIBILITY_TOL)
        if rounded is not None:
            self.offer(_greedy_improve(rounded, self.lo0, self.hi0, self.A, self.row_lo,
                                       self.row_hi, self.c, _FEASIBILITY_TOL))
        return False

    def fix_variables(self, res) -> tuple[np.ndarray, np.ndarray]:
        """Root reduced-cost fixing: variables whose move away from their
        bound provably cannot beat the incumbent get pinned there.

        Iterates because each re-solve tightens the bound. Only removes
        solutions no better than the incumbent, which stays recorded, so
        the final answer is unaffected."""
        lo, hi = self.lo0.copy(), self.hi0.copy()
        for _ in range(4):
            if self.best_x is None or res.reduced_costs is None:
                break
            bound = res.objective
            if self.snap(bound) <= self.best_val + _BOUND_TOL:
                break  # incumbent already optimal for this box
            d = res.reduced_costs
            at_ub = res.at_upper
            margin = 1e-9 * max(1.0, abs(self.best_val))
            open_ = hi > lo + 0.5
            worse = bound + np.where(at_ub, -d, d)
            if self.grid is not None:
                worse = np.floor(worse / self.grid + 1e-6) * self.grid
            fixable = open_ & (worse <= self.best_val + margin) & (np.abs(d) > 1e-12)
            if not fixable.any():
                break
            to_lb = fixable & ~at_ub
            to_ub = fixable & at_ub
            hi[to_lb] = lo[to_lb]
            lo[to_ub] = hi[to_ub]
            res = lp_solve(self.c, self.A, self.row_lo, self.row_hi, lo, hi,
                           maximize=True)
            self.stats.lp_iterations += res.iterations
            if res.status != OPTIMAL:
                # no solution better than the incumbent survives in the box
                hi[:] = lo
                break
            self.node_heuristics(res.x, lo, hi)
        return lo, hi

    def dfs(self, lo0: np.ndarray, hi0: np.ndarray) -> None:
        """Depth-first search over the free core, round-down child first,
        most-fractional branching with lowest-index tie-break, incumbent
        pruning with a 1e-9 bound tolerance. Pinned variables are folded
        into the row bounds and put back at their values in each candidate."""
        free = hi0 > lo0 + 0.5
        if not free.any():
            return
        pinned = lo0[~free]
        shift = self.A[:, ~free] @ pinned
        A = self.A[:, free].copy()
        row_lo, row_hi = self.row_lo - shift, self.row_hi - shift
        c = self.c[free]
        const = float(self.c[~free] @ pinned)
        core_lo, core_hi = lo0[free], hi0[free]
        full = lo0.copy()

        def offer_local(vec):
            full[free] = _greedy_improve(vec, core_lo, core_hi, A, row_lo,
                                         row_hi, c, _FEASIBILITY_TOL)
            self.offer(full)

        stack = [(core_lo, core_hi)]
        while stack:
            if self.out_of_budget():
                return
            lo, hi = stack.pop()
            self.stats.nodes += 1
            if np.any(lo > hi):
                continue
            res = lp_solve(c, A, row_lo, row_hi, lo, hi, maximize=True)
            self.stats.lp_iterations += res.iterations
            if res.status == INFEASIBLE:
                continue
            if res.status == UNBOUNDED:
                raise SolverError("unbounded relaxation under finite bounds")
            # const is a grid multiple, so snapping commutes with the shift
            node_bound = self.snap(res.objective + const) - const
            if node_bound + const <= self.best_val + _BOUND_TOL:
                continue
            x = res.x
            frac = np.abs(x - np.round(x))
            if np.all(frac <= _INTEGRALITY_TOL):
                # integral solutions beneath a node never beat its bound
                if float(c @ np.round(x)) > node_bound + 1e-6:
                    raise SolverError(
                        "integral LP point exceeds its node bound")
                offer_local(np.round(x))
                continue
            frac_idx = np.nonzero(frac > _INTEGRALITY_TOL)[0]
            rounded = _round_candidates(x, frac_idx, lo, hi, A, row_lo, row_hi,
                                        c, _FEASIBILITY_TOL)
            if rounded is not None:
                offer_local(rounded)
                if node_bound + const <= self.best_val + _BOUND_TOL:
                    continue
            # branch on the variable closest to half-integrality
            dist = np.minimum(x - np.floor(x), np.ceil(x) - x)
            dist[frac <= _INTEGRALITY_TOL] = -1.0
            j = int(np.argmax(dist))  # argmax keeps the lowest index on ties
            down_hi = hi.copy()
            down_hi[j] = math.floor(x[j])
            up_lo = lo.copy()
            up_lo[j] = math.ceil(x[j])
            stack.append((up_lo, hi))
            stack.append((lo, down_hi))  # LIFO: round-down child first


def solve(m: IlpModel, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Exact branch-and-bound over the LP relaxation.

    Solves the root LP and rounds its fractional support into an
    incumbent, climbing from it with feasible unit moves; the same
    rounding runs at every node. Then pins the variables that reduced costs
    prove cannot move (shrinking the branching core) and runs depth-first
    search. Deterministic for a fixed config; the reported objective is
    exact to 1e-6 absolute / 1e-9 relative.
    """
    t0 = time.perf_counter()
    if m.n_vars == 0:
        return _empty_model_result(m)
    if not np.all(np.isfinite(m.upper)):
        raise SolverError("solve requires finite variable bounds; run derive_bounds")

    if time.perf_counter() - t0 > cfg.time_limit:
        return SolveResult(STATUS_TIME_LIMIT, None, None)

    s = _Search(m, cfg)
    root = lp_solve(s.c, s.A, s.row_lo, s.row_hi, s.lo0, s.hi0, maximize=True)
    s.stats.nodes += 1
    s.stats.lp_iterations += root.iterations
    if root.status == INFEASIBLE:
        return SolveResult(STATUS_INFEASIBLE, None, None, s.stats)
    if root.status == UNBOUNDED:
        return SolveResult(STATUS_UNBOUNDED, None, None, s.stats)

    integral = s.node_heuristics(root.x, s.lo0, s.hi0)
    root_bound = s.snap(root.objective)
    if integral or (s.best_x is not None and root_bound <= s.best_val + _BOUND_TOL):
        return SolveResult(STATUS_OPTIMAL, s.best_x, s.sign * s.best_val, s.stats)

    s.dfs(*s.fix_variables(root))
    if s.best_x is not None:
        status = STATUS_TIME_LIMIT if s.hit_limit else STATUS_OPTIMAL
        return SolveResult(status, s.best_x, s.sign * s.best_val, s.stats)
    if s.hit_limit:
        return SolveResult(STATUS_TIME_LIMIT, None, None, s.stats)
    return SolveResult(STATUS_INFEASIBLE, None, None, s.stats)


_BRUTE_SPACE_LIMIT = 10_000_000
_CHUNK = 1 << 18


def brute_force(m: IlpModel) -> SolveResult:
    """Exhaustive enumeration of every multiplicity vector in the bound box.

    Independent of the LP machinery; requires the search space to hold at
    most 10^7 vectors. Ties keep the enumeration-first vector (all-zeros
    first), matching the solver's vacuous-objective behavior.
    """
    if m.n_vars == 0:
        return _empty_model_result(m)
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
    stats = SolveStats()
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
    stats.nodes = total
    if best_x is None:
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)
    return SolveResult(STATUS_OPTIMAL, best_x, sign * best_val, stats)


def verify_result(m: IlpModel, res: SolveResult, tol: float = 1e-6) -> bool:
    """Sanity check: an optimal result's vector is integral and feasible."""
    if res.status != STATUS_OPTIMAL:
        return res.x is None
    x = res.x
    if np.any(np.abs(x - np.round(x)) > tol):
        return False
    return feasible(m, np.round(x), tol=tol)
