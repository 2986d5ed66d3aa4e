from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force, dyadic, lp_relax, verify_result
from pkgquery import paql, solver
from pkgquery.ilp import IlpModel, derive_bounds, package_from_solution, translate
from pkgquery.relation import from_columns
from pkgquery.solver import (
    SolverError,
    _objective_grid,
    solve,
)


def q_of(text, rel):
    return paql.validate(paql.parse(text), rel.schema)


def equality_model():
    # maximize x1 subject to 3 x1 + 2 x2 = 7, 0 <= x <= 3
    return IlpModel(np.arange(2), np.array([3.0, 3.0]), np.array([[3.0, 2.0]]),
                    np.array([7.0]), np.array([7.0]), np.array([1.0, 0.0]), True)


def knapsack_model():
    # one knapsack row over 10 binary columns; the root's rounded incumbent
    # lets reduced-cost fixing pin 7 of them, and the search goes on
    return IlpModel(np.arange(10), np.ones(10),
                    np.array([[3.0, 6, 8, 16, 9, 2, 7, 12, 16, 14]]),
                    np.array([-np.inf]), np.array([37.0]),
                    np.array([29.0, 6, 26, 2, 17, 8, 6, 20, 9, 17]), True)


def record_lps(monkeypatch):
    """(columns, lower, upper) of every LP that ``solve`` hands the simplex."""
    calls = []
    real = solver.lp_solve

    def recording(obj, A, row_lo, row_hi, lower, upper, **kwargs):
        calls.append((len(obj), lower.copy(), upper.copy()))
        return real(obj, A, row_lo, row_hi, lower, upper, **kwargs)

    monkeypatch.setattr(solver, "lp_solve", recording)
    return calls


class TestSolveExamples:
    def test_meal_planner_matches_hand_enumeration(self, recipes, meal_query):
        kcal = recipes.column("kcal")
        fat = recipes.column("saturated_fat")
        best = min(
            (subset for subset in combinations(range(5), 3)
             if 2.0 <= kcal[list(subset)].sum() <= 2.5),
            key=lambda subset: fat[list(subset)].sum())
        m = derive_bounds(translate(meal_query, recipes))
        res = solve(m)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(fat[list(best)].sum())
        assert package_from_solution(m, res.x) == {i: 1 for i in best}

    def test_infeasible_count(self):
        rel = from_columns("T", {"x": [1.0, 2.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R REPEAT 0 SUCH THAT COUNT(P.*) = 3", rel), rel))
        assert solve(m).status == "infeasible"

    def test_vacuous_objective_returns_all_zero(self):
        rel = from_columns("T", {"x": [1.0, 2.0, 3.0, 4.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R REPEAT 0", rel), rel))
        res = solve(m)
        assert res.status == "optimal"
        assert res.objective == 0.0
        assert res.x.tolist() == [0.0] * 4

    def test_zero_variable_model(self):
        rel = from_columns("T", {"x": [1.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM T R REPEAT 0 SUCH THAT COUNT(P.*) >= 1", rel)
        m = derive_bounds(translate(q, rel, ids=[]))
        assert solve(m).status == "infeasible"
        q2 = q_of("SELECT PACKAGE(R) AS P FROM T R REPEAT 0 SUCH THAT COUNT(P.*) <= 2", rel)
        res = solve(derive_bounds(translate(q2, rel, ids=[])))
        assert res.status == "optimal" and res.objective == 0.0

    def test_requires_finite_bounds(self):
        rel = from_columns("T", {"x": [1.0]})
        m = translate(q_of("SELECT PACKAGE(R) AS P FROM T R MAXIMIZE SUM(P.x)", rel), rel)
        with pytest.raises(SolverError, match="finite"):
            solve(m)

    def test_time_limit_zero(self, recipes, meal_query):
        m = derive_bounds(translate(meal_query, recipes))
        res = solve(m, 0.0)
        assert res.status == "time_limit"

    def test_bad_time_limit_rejected(self):
        m = equality_model()
        for limit in (float("nan"), -1.0):  # a NaN limit would never expire
            with pytest.raises(SolverError, match="must be >= 0"):
                solve(m, limit)
        solve(m, 0.0)

    def test_equality_row_that_rounding_never_meets(self, monkeypatch):
        # no floor/ceil rounding of any LP point meets the equality, so the
        # search alone finds (1, 2); depth-first from the root's LP, that
        # takes 7 nodes
        m = equality_model()
        rounded = []
        real = solver._round_candidates

        def recording(*args):
            rounded.append(real(*args))
            return rounded[-1]

        monkeypatch.setattr(solver, "_round_candidates", recording)
        res = solve(m)
        oracle = brute_force(m)
        assert rounded and all(r is None for r in rounded)
        assert res.status == oracle.status == "optimal"
        assert res.x.tolist() == oracle.x.tolist() == [1.0, 2.0]
        assert res.objective == oracle.objective == 1.0
        assert res.stats.nodes == 7

    def test_lps_after_fixing_run_over_the_core(self, monkeypatch):
        calls = record_lps(monkeypatch)
        m = knapsack_model()
        res = solve(m)
        assert res.objective == brute_force(m).objective
        cols = [n for n, _, _ in calls]
        # the root sees the whole model; fixing pins columns at the root, so
        # its re-solve and every node after it see only the core
        assert cols[0] == m.n_vars and len(cols) > 2
        assert all(n < m.n_vars for n in cols[1:])

    @pytest.mark.parametrize("model", [equality_model, knapsack_model])
    def test_no_lp_is_solved_twice_in_a_row(self, monkeypatch, model):
        # the search branches from the LP it is handed; it does not solve
        # its root again
        calls = record_lps(monkeypatch)
        m = model()
        assert solve(m).objective == brute_force(m).objective
        assert len(calls) > 2
        for (n1, lo1, hi1), (n2, lo2, hi2) in zip(calls, calls[1:]):
            assert not (n1 == n2 and np.array_equal(lo1, lo2)
                        and np.array_equal(hi1, hi2))


class TestBruteForce:
    def test_knapsack_example(self):
        rel = from_columns("T", {"w": [1.0, 2.0, 3.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R REPEAT 0 "
            "SUCH THAT COUNT(P.*) <= 2 MAXIMIZE SUM(P.w)", rel), rel))
        res = brute_force(m)
        assert res.status == "optimal"
        assert res.objective == 5.0
        assert res.x.tolist() == [0.0, 1.0, 1.0]

    def test_infeasible(self):
        rel = from_columns("T", {"x": [1.0, 2.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R REPEAT 0 SUCH THAT COUNT(P.*) = 5", rel), rel))
        assert brute_force(m).status == "infeasible"

    def test_minimize_positive_prefers_empty(self):
        rel = from_columns("T", {"x": [1.0, 2.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R REPEAT 0 "
            "SUCH THAT COUNT(P.*) <= 2 MINIMIZE SUM(P.x)", rel), rel))
        res = brute_force(m)
        assert res.objective == 0.0
        assert res.x.tolist() == [0.0, 0.0]

    def test_space_guard(self):
        rel = from_columns("T", {"x": np.ones(30)})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R REPEAT 3 "
            "SUCH THAT COUNT(P.*) <= 90 MAXIMIZE SUM(P.x)", rel), rel))
        with pytest.raises(SolverError, match="too large"):
            brute_force(m)


class TestLpRelax:
    def test_simple_bound(self):
        from pkgquery.ilp import IlpModel

        m = IlpModel(
            var_ids=np.array([0]), upper=np.array([10.0]), rows=np.array([[1.0]]),
            row_lo=np.array([-np.inf]), row_hi=np.array([2.5]),
            objective=np.array([1.0]), maximize=True)
        res = lp_relax(m)
        assert res.objective == pytest.approx(2.5)
        assert res.x[0] == pytest.approx(2.5)

    def test_integral_relaxation_equals_ilp(self):
        rel = from_columns("T", {"x": [1.0, 1.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R REPEAT 0 "
            "SUCH THAT COUNT(P.*) <= 2 MAXIMIZE COUNT(P.*)", rel), rel))
        assert lp_relax(m).objective == pytest.approx(2.0)
        assert solve(m).objective == pytest.approx(2.0)


def random_model(seed):
    """Small random model with bounded box for oracle comparisons."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    rel = from_columns("T", {
        "x": dyadic(rng, -2, 2, n),
        "y": dyadic(rng, 0.25, 2, n),
    })
    repeat = int(rng.integers(0, 3))
    parts = [f"COUNT(P.*) <= {int(rng.integers(1, 5))}"]
    if rng.integers(0, 2):
        parts.append(f"SUM(P.y) {'<=' if rng.integers(0, 2) else '>='} "
                     f"{rng.integers(0, 17) / 4.0}")
    if rng.integers(0, 2):
        parts.append(f"AVG(P.x) {'<=' if rng.integers(0, 2) else '>='} "
                     f"{rng.integers(-4, 5) / 4.0}")
    direction = "MAXIMIZE" if rng.integers(0, 2) else "MINIMIZE"
    attr = "x" if rng.integers(0, 2) else "y"
    text = (f"SELECT PACKAGE(R) AS P FROM T R REPEAT {repeat} SUCH THAT "
            f"{' AND '.join(parts)} {direction} SUM(P.{attr})")
    return derive_bounds(translate(q_of(text, rel), rel))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_equivalence(seed):
    m = random_model(seed)
    exact = solve(m)
    oracle = brute_force(m)
    assert exact.status == oracle.status
    if exact.status == "optimal":
        assert exact.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert verify_result(m, exact)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_lp_bound_dominates_ilp(seed):
    m = random_model(seed)
    oracle = brute_force(m)
    lp = lp_relax(m)
    if oracle.status != "optimal":
        return
    assert lp.status == "optimal"
    if m.maximize:
        assert lp.objective >= oracle.objective - 1e-7
    else:
        assert lp.objective <= oracle.objective + 1e-7


def test_determinism(recipes, meal_query):
    m = derive_bounds(translate(meal_query, recipes))
    runs = [solve(m) for _ in range(3)]
    assert len({r.status for r in runs}) == 1
    assert len({r.objective for r in runs}) == 1
    assert all(np.array_equal(runs[0].x, r.x) for r in runs)


def objective_grid_reference(c):
    """The scan ``_objective_grid`` replaced: try each power of two."""
    nz = c[c != 0]
    if nz.size == 0:
        return 1.0
    if np.abs(nz).max() > 1e12:
        return None
    for k in range(0, 25):
        g = 2.0 ** -k
        scaled = nz / g
        if np.all(scaled == np.round(scaled)):
            return g
    return None


GRID_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(float),                       # integers
    st.tuples(st.integers(-10**6, 10**6), st.integers(0, 30))
      .map(lambda t: t[0] / 2.0 ** t[1]),                         # dyadic grids
    st.floats(-1e6, 1e6, allow_nan=False),                        # off-grid
    st.floats(1e12, 1e15).map(lambda v: float(np.round(v))),      # above 1e12
    st.just(0.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(GRID_VALUES, min_size=0, max_size=12), st.booleans())
def test_objective_grid_matches_scan(values, negate):
    c = np.asarray(values, dtype=np.float64)
    if negate:
        c = -c
    assert _objective_grid(c) == objective_grid_reference(c)


def test_objective_grid_examples():
    for c, grid in (([0.0, 0.0], 1.0), ([], 1.0), ([3.0, -7.0], 1.0),
                    ([0.5, 0.25, 1.0], 0.25), ([1 / 64, 2.0], 1 / 64),
                    ([2.0 ** -24], 2.0 ** -24), ([2.0 ** -25], None),
                    ([0.1], None), ([2e12], None), ([1e12, 0.5], 0.5),
                    ([np.nan, 1.0], None), ([np.inf], None)):
        c = np.asarray(c, dtype=np.float64)
        assert _objective_grid(c) == objective_grid_reference(c) == grid


def round_reference(x, frac_idx, lo, hi, A, row_lo, row_hi, c):
    """Floor/ceil rounding written plainly: every combination is built and
    scored as a whole vector, the best wins and ties go to the lowest
    combination number (bit j set: entry frac_idx[j] rounds up)."""
    best = None
    for mask in range(1 << len(frac_idx)):
        vec = np.round(x)
        for j, i in enumerate(frac_idx):
            vec[i] = np.floor(x[i]) + ((mask >> j) & 1)
        if np.any(vec[frac_idx] < lo[frac_idx]) or np.any(vec[frac_idx] > hi[frac_idx]):
            continue
        lhs = A @ vec
        if np.any(lhs > row_hi + 1e-9) or np.any(lhs < row_lo - 1e-9):
            continue
        if best is None or c @ vec > best[0]:
            best = (c @ vec, vec)
    return None if best is None else best[1]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_round_candidates_matches_reference(seed):
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 4)), int(rng.integers(1, 10))
    A = rng.integers(-3, 5, size=(k, n)) / 4.0  # quantized: ties are common
    c = rng.integers(-4, 5, size=n) / 2.0
    lo = rng.integers(0, 2, size=n).astype(float)
    hi = lo + rng.integers(1, 3, size=n)
    x = np.array([float(rng.integers(lo[j], hi[j] + 1)) for j in range(n)])
    frac_idx = np.sort(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False))
    f = len(frac_idx)
    x[frac_idx] = lo[frac_idx] + rng.integers(0, 2, size=f) + 0.25 * rng.integers(1, 4, size=f)
    lhs = A @ np.round(x)
    row_lo = np.where(rng.random(k) < 0.5, -np.inf, lhs - rng.integers(0, 3, size=k))
    row_hi = np.where(np.isfinite(row_lo) & (rng.random(k) < 0.5), np.inf,
                      lhs + rng.integers(0, 3, size=k))
    got = solver._round_candidates(x, frac_idx, lo, hi, A, row_lo, row_hi, c)
    want = round_reference(x, frac_idx, lo, hi, A, row_lo, row_hi, c)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("model", [
    # no rows: the LP point sits at the fractional upper bounds, off the basis
    IlpModel(np.arange(3), np.array([2.5, 1.75, 0.5]), np.zeros((0, 3)),
             np.zeros(0), np.zeros(0), np.array([1.0, 2.0, 3.0]), True),
    # a knapsack row and a minimized cover row over fractional caps
    IlpModel(np.arange(4), np.array([1.5, 2.25, 3.999, 0.75]),
             np.array([[2.0, 3.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]),
             np.array([-np.inf, 3.0]), np.array([9.5, np.inf]),
             np.array([3.0, 4.0, 1.0, 5.0]), True),
    IlpModel(np.arange(4), np.array([1.5, 2.25, 3.999, 0.75]),
             np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([4.0]), np.array([np.inf]),
             np.array([3.0, 4.0, 1.0, 5.0]), False),
], ids=["no-rows", "knapsack", "cover"])
def test_fractional_upper_bounds_match_brute_force(model):
    # only the basic LP entries are read as fractional, so the root box
    # must be integral: its upper bounds are floored as brute_force floors them
    res, oracle = solve(model), brute_force(model)
    assert res.status == oracle.status == "optimal"
    assert res.objective == oracle.objective
    assert res.x.tolist() == oracle.x.tolist()
