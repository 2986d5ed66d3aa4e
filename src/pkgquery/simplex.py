"""Dense bounded-variable primal simplex, two-phase.

Solves  max c.x  s.t.  row_lo <= A x <= row_hi,  l <= x <= u  with a full
tableau; each row has one finite bound (a '<=' or '>=' row) or two equal
ones (an '=' row).
Variable bounds are handled implicitly (nonbasic variables sit at either
bound), so branch-and-bound can tighten bounds without growing the tableau.
Dantzig pricing with a switch to Bland's rule after a degenerate stall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_LB, _UB, _BASIC = 0, 1, 2

_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-9
_STALL_LIMIT = 120
_PRICE_CHUNK = 64


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


def _simplex_loop(T, xB, basis, stat, ub, c, allowed, max_iter):
    """Run pivots to optimality for max c.x; mutates all tableau state.

    ``allowed`` masks columns eligible to enter (artificials stay out).
    Returns ('optimal'|'unbounded', iterations).

    Reduced costs depend only on the basis, not on the basic values, so
    every bound flip under one pricing pass shares the same reduced-cost
    vector; flips are swept in bulk and the pass ends at the first pivot.
    """
    m = T.shape[0]
    rounds = 0
    iters = 0
    bland = False
    stall = 0
    while True:
        rounds += 1
        if rounds > max_iter:
            raise SimplexError("simplex iteration cap exceeded (cycling?)")
        cB = c[basis] if m else np.zeros(0)
        d = c - cB @ T if m else c.copy()
        at_lb = (stat == _LB) & allowed & (d > _ENTER_TOL)
        at_ub = (stat == _UB) & allowed & (d < -_ENTER_TOL)
        eligible = at_lb | at_ub
        if not eligible.any():
            return OPTIMAL, max(iters, rounds)
        idx = np.nonzero(eligible)[0]
        if bland:
            order = idx
        else:
            order = _pricing_order(idx, np.abs(d[idx]))

        for e_ in order:
            e = int(e_)
            # a flip earlier in this sweep may have retired this candidate
            if stat[e] == _LB:
                if d[e] <= _ENTER_TOL:
                    continue
                delta = 1.0
            elif stat[e] == _UB:
                if d[e] >= -_ENTER_TOL:
                    continue
                delta = -1.0
            else:
                continue
            iters += 1
            dy = delta * T[:, e]

            # largest step before a basic variable hits one of its bounds
            lim = np.full(m, np.inf)
            ubB = ub[basis] if m else np.zeros(0)
            pos = dy > _PIVOT_TOL
            if pos.any():
                lim[pos] = np.maximum(xB[pos], 0.0) / dy[pos]
            neg = dy < -_PIVOT_TOL
            if neg.any():
                lim[neg] = np.maximum(ubB[neg] - xB[neg], 0.0) / (-dy[neg])

            t_row = lim.min() if m else np.inf
            t_flip = ub[e]  # internal lower bounds are all 0
            t = min(t_row, t_flip)
            if not np.isfinite(t):
                return UNBOUNDED, max(iters, rounds)

            if t_flip <= t_row:
                # bound flip: cross to the other bound, reduced costs intact
                xB -= t_flip * dy
                stat[e] = _UB if stat[e] == _LB else _LB
                continue

            if t <= _PIVOT_TOL:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0

            # pivot: among limiting rows pick the smallest variable index
            cand = np.nonzero(lim <= t_row + _PIVOT_TOL)[0]
            r = int(cand[np.argmin(basis[cand])])
            leaving = basis[r]
            hit_upper = dy[r] < 0  # leaving variable rose to its upper bound

            xB -= t * dy
            entering_value = t if delta > 0 else ub[e] - t

            piv = T[r, e]
            if abs(piv) < _PIVOT_TOL:
                raise SimplexError("near-singular pivot element")
            T[r, :] /= piv
            col = T[:, e].copy()
            col[r] = 0.0
            T -= np.outer(col, T[r, :])
            T[:, e] = 0.0
            T[r, e] = 1.0

            stat[leaving] = _UB if hit_upper else _LB
            xB[r] = entering_value
            basis[r] = e
            stat[e] = _BASIC
            break  # basis changed; reprice


def lp_solve(obj, A, row_lo, row_hi, lower, upper) -> LpResult:
    """Maximize obj.x over the bounded LP; returns structural solution and
    objective.

    A: k x n coefficient matrix (k may be 0); row_lo/row_hi: per-row
    bounds, one of them infinite or both equal; lower/upper: per-variable
    bounds, upper may be +inf.
    """
    obj = np.asarray(obj, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    row_lo = np.asarray(row_lo, dtype=np.float64)
    row_hi = np.asarray(row_hi, dtype=np.float64)
    n = len(obj)
    m = len(row_lo)
    A = np.asarray(A, dtype=np.float64).reshape(m, n)

    # each row's op: '<=' has only row_hi, '>=' only row_lo, '=' both equal
    has_lo, has_hi = np.isfinite(row_lo), np.isfinite(row_hi)
    eq = has_lo & has_hi
    if np.any(eq & (row_lo != row_hi)) or np.any(~has_lo & ~has_hi):
        raise SimplexError("each row needs exactly one finite bound or two equal ones")
    b = np.where(has_hi, row_hi, row_lo)

    if np.any(lower > upper + 1e-12):
        return LpResult(INFEASIBLE, None, None, 0)

    # shift to zero lower bounds: y = x - l
    span = upper - lower
    b_shift = b - A @ lower
    const = float(obj @ lower)

    # rows with a negative right side are negated, which swaps '<=' and '>='
    neg = b_shift < 0
    flip = np.where(neg, -1.0, 1.0)
    le = np.where(neg, has_lo, has_hi) & ~eq
    A2 = A * flip[:, None]
    b2 = b_shift * flip

    # a slack per inequality row, an artificial per row that is not '<=';
    # each numbered in row order
    slack_rows = np.nonzero(~eq)[0]
    art_rows = np.nonzero(~le)[0]
    n_slack, n_art = len(slack_rows), len(art_rows)
    n_total = n + n_slack + n_art

    T = np.zeros((m, n_total))
    T[:, :n] = A2
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)
    T[slack_rows, slack_cols] = np.where(le[slack_rows], 1.0, -1.0)
    T[art_rows, art_cols] = 1.0
    ub_all = np.concatenate([span, np.full(n_slack + n_art, np.inf)])
    basis = np.empty(m, dtype=np.int64)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols  # '>=' rows start from their artificial
    stat = np.full(n_total, _LB, dtype=np.int8)
    stat[basis] = _BASIC
    xB = b2.copy()

    max_iter = 20000 + 10 * (m + n_total)
    total_iters = 0

    if n_art:
        c1 = np.zeros(n_total)
        c1[n + n_slack:] = -1.0
        allowed = np.ones(n_total, dtype=bool)
        status, it = _simplex_loop(T, xB, basis, stat, ub_all, c1, allowed, max_iter)
        total_iters += it
        if status != OPTIMAL:
            raise SimplexError("phase 1 terminated abnormally")
        art_basic = basis >= n + n_slack
        residual = float(xB[art_basic].sum()) if art_basic.any() else 0.0
        also = stat[n + n_slack:] == _UB
        if residual > 1e-7 or also.any():
            return LpResult(INFEASIBLE, None, None, total_iters)
        xB[art_basic] = 0.0
        # freeze artificials at zero; they may linger in the basis at value 0
        ub_all[n + n_slack:] = 0.0

    c2 = np.zeros(n_total)
    c2[:n] = obj
    allowed = np.ones(n_total, dtype=bool)
    allowed[n + n_slack:] = False
    status, it = _simplex_loop(T, xB, basis, stat, ub_all, c2, allowed, max_iter)
    total_iters += it
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, total_iters)

    x_all = np.zeros(n_total)
    x_all[stat == _UB] = ub_all[stat == _UB]
    x_all[basis] = xB
    y = x_all[:n]
    x = np.clip(y, 0.0, span) + lower
    objective = float(obj @ y) + const
    d_all = c2 - (c2[basis] @ T if m else 0.0)
    d_all[basis] = 0.0
    return LpResult(OPTIMAL, x, objective, total_iters,
                    reduced_costs=d_all[:n], at_upper=stat[:n] == _UB)
