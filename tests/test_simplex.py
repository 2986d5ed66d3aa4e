import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgquery import simplex
from pkgquery.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, SimplexError, lp_solve


def row_bounds(ops, rhs):
    """(row_lo, row_hi) of rows written as '<='/'>='/'=' against rhs."""
    rhs = np.asarray(rhs, float)
    ops = np.asarray(ops, dtype=str)
    return (np.where(ops == "<=", -np.inf, rhs),
            np.where(ops == ">=", np.inf, rhs))


def solve(c, rows, ops, rhs, lo, hi):
    return lp_solve(np.asarray(c, float), np.asarray(rows, float).reshape(len(ops), len(c)),
                    *row_bounds(ops, rhs), np.asarray(lo, float), np.asarray(hi, float))


class TestBasics:
    def test_single_cap(self):
        res = solve([1.0], [[1.0]], ["<="], [2.5], [0.0], [10.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(2.5)
        assert res.x[0] == pytest.approx(2.5)

    def test_upper_bound_binds(self):
        res = solve([3.0], [[1.0]], ["<="], [99.0], [0.0], [2.0])
        assert res.objective == pytest.approx(6.0)

    def test_minimize(self):
        # min x0 + x1 s.t. x0 + x1 >= 3 is max -(x0 + x1), whose optimum is -3
        res = solve([-1.0, -1.0], [[1.0, 1.0]], [">="], [3.0],
                    [0.0, 0.0], [5.0, 5.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-3.0)

    def test_equality_row(self):
        res = solve([1.0, 2.0], [[1.0, 1.0]], ["="], [4.0], [0, 0], [10, 10])
        assert res.objective == pytest.approx(8.0)
        assert res.x.tolist() == pytest.approx([0.0, 4.0])

    def test_infeasible(self):
        res = solve([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0], [0.0], [9.0])
        assert res.status == INFEASIBLE

    def test_infeasible_by_bounds(self):
        res = solve([1.0], [[1.0]], [">="], [5.0], [0.0], [2.0])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = solve([1.0], np.zeros((0, 1)), [], [], [0.0], [np.inf])
        assert res.status == UNBOUNDED

    @pytest.mark.parametrize("c, row, hi", [
        ([1.0, 0.0], [1.0, -1.0], [np.inf, np.inf]),  # max x0, x0 - x1 >= 1
        ([1.0, 1.0], [1.0, 1.0], [np.inf, 5.0]),      # max x0 + x1, x0 + x1 >= 1
    ], ids=["difference", "sum"])
    def test_unbounded_while_phase_1_is_steered(self, c, row, hi, monkeypatch):
        # the objective's ray opens before phase 1 ends, so the steered
        # phase stops unbounded; pure phase 1 and then phase 2 finish
        statuses = []
        real = simplex._Revised.run

        def recording(lp, max_iter):
            out = real(lp, max_iter)
            statuses.append(out[0])
            return out

        monkeypatch.setattr(simplex._Revised, "run", recording)
        res = solve(c, [row], [">="], [1.0], [0.0, 0.0], hi)
        assert res.status == UNBOUNDED
        assert statuses == [UNBOUNDED, OPTIMAL, UNBOUNDED]

    def test_no_constraints_hits_bounds(self):
        res = solve([2.0, -1.0], np.zeros((0, 2)), [], [], [0.0, 0.0], [3.0, 4.0])
        assert res.objective == pytest.approx(6.0)
        assert res.x.tolist() == pytest.approx([3.0, 0.0])

    def test_shifted_lower_bounds(self):
        res = solve([1.0, 1.0], [[1.0, 1.0]], ["<="], [10.0], [2.0, 3.0], [9.0, 9.0])
        assert res.objective == pytest.approx(10.0)
        assert res.x.sum() == pytest.approx(10.0)
        assert np.all(res.x >= [2.0, 3.0])

    def test_negative_rhs_normalization(self):
        res = solve([-1.0], [[-1.0]], ["<="], [-2.0], [0.0], [10.0])
        # -x <= -2 means x >= 2; maximize -x picks x = 2
        assert res.objective == pytest.approx(-2.0)

    def test_ranged_row_rejected(self):
        for lo, hi in (([0.0], [5.0]), ([6.0], [5.0])):  # also when lower > upper
            with pytest.raises(SimplexError, match="finite bound"):
                lp_solve([1.0], [[1.0]], [1.0], [2.0], lo, hi)

    def test_free_row_rejected(self):
        for lo, hi in (([0.0], [5.0]), ([6.0], [5.0])):  # also when lower > upper
            with pytest.raises(SimplexError, match="finite bound"):
                lp_solve([1.0], [[1.0]], [-np.inf], [np.inf], lo, hi)

    def test_reduced_costs_exposed(self):
        res = solve([1.0, 3.0], [[1.0, 1.0]], ["<="], [1.0], [0, 0], [5, 5])
        assert res.reduced_costs is not None
        assert res.at_upper is not None
        # x0 is dominated: strictly negative reduced cost at its lower bound
        assert res.reduced_costs[0] < -1e-9


class TestAgainstScipy:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_instances(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, 4))
        c = rng.integers(-5, 6, size=n).astype(float)
        A = rng.integers(-4, 5, size=(k, n)).astype(float)
        ops = [str(rng.choice(["<=", ">=", "="])) for _ in range(k)]
        b = rng.integers(-6, 12, size=k).astype(float)
        lo = np.zeros(n)
        hi = rng.integers(1, 6, size=n).astype(float)

        mine = solve(c, A, ops, b, lo, hi)

        rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
        for i, op in enumerate(ops):
            if op == "<=":
                rows_ub.append(A[i]); rhs_ub.append(b[i])
            elif op == ">=":
                rows_ub.append(-A[i]); rhs_ub.append(-b[i])
            else:
                rows_eq.append(A[i]); rhs_eq.append(b[i])
        ref = linprog(
            -c,
            A_ub=np.vstack(rows_ub) if rows_ub else None,
            b_ub=np.asarray(rhs_ub) if rows_ub else None,
            A_eq=np.vstack(rows_eq) if rows_eq else None,
            b_eq=np.asarray(rhs_eq) if rows_eq else None,
            bounds=list(zip(lo, hi)), method="highs")

        if ref.status == 2:
            assert mine.status == INFEASIBLE
        else:
            assert ref.status == 0
            assert mine.status == OPTIMAL
            assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)


def full_sort_order(idx, mag):
    return idx[np.argsort(-mag, kind="stable")]


class TestPricingOrder:
    """The lazily sorted pricing order equals one full stable argsort."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 700),
           st.sampled_from([1, 3, 8, simplex._PRICE_CHUNK]),
           st.sampled_from([None, 0.25, 2.0]))
    def test_matches_stable_argsort(self, seed, n, chunk, quantum):
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(3 * n + 1, size=n, replace=False))
        mag = rng.uniform(1e-6, 10.0, size=n)
        if quantum is not None:
            mag = np.ceil(mag / quantum) * quantum  # many exact ties
        got = np.fromiter(simplex._pricing_order(idx, mag, chunk), dtype=np.int64)
        assert np.array_equal(got, full_sort_order(idx, mag))

    def test_ties_straddle_chunk_boundary(self):
        # the chunk of 4 ends inside a run of ten tied magnitudes: the
        # whole run joins it, in ascending index order
        mag = np.array([1.0, 3.0, 5.0, 3.0, 3.0, 5.0, 3.0, 3.0, 3.0, 3.0,
                        1.0, 3.0, 3.0, 5.0, 3.0])
        idx = np.arange(len(mag)) * 2
        lazy = simplex._pricing_order(idx, mag, 4)
        got = [int(next(lazy)) for _ in range(13)]
        assert got == [4, 10, 26, 2, 6, 8, 12, 14, 16, 18, 22, 24, 28]
        assert [int(e) for e in lazy] == [0, 20]

    def test_longer_than_one_chunk(self):
        rng = np.random.default_rng(5)
        n = 10 * simplex._PRICE_CHUNK + 3
        idx = np.arange(n)
        mag = rng.integers(1, 6, size=n).astype(float)
        got = np.fromiter(simplex._pricing_order(idx, mag), dtype=np.int64)
        assert np.array_equal(got, full_sort_order(idx, mag))


def _flip_heavy_lp(seed):
    """Few rows, many columns, small integer bounds and quantized
    coefficients: pricing meets many ties and long bound-flip sweeps."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    n = int(rng.integers(200, 2001))
    c = rng.integers(1, 17, size=n) / 4.0
    A = rng.integers(1, 9, size=(k, n)) / 4.0
    ops = [str(rng.choice(["<=", ">="])) for _ in range(k)]
    ops[0] = "<="
    row_sums = A.sum(axis=1)
    b = np.where(np.array(ops) == "<=", 0.4, 0.1) * row_sums
    hi = rng.integers(1, 4, size=n).astype(float)
    maximize = bool(rng.integers(0, 2))  # else minimize c.x as max of -c.x
    return (c if maximize else -c, A, *row_bounds(ops, b), np.zeros(n), hi)


class TestLazyPricingPath:
    """Argmax picks, then the lazy sort: every pricing round offers its
    columns in the order of one full stable argsort of its eligible gains."""

    def test_same_path_as_full_sort(self, monkeypatch):
        real = simplex._entering_order
        rounds = []

        def recording(s, bland):
            idx = np.nonzero(s > simplex._ENTER_TOL)[0]
            want = idx if bland else full_sort_order(idx, s[idx])
            got = []
            rounds.append((want, got))
            for e in real(s, bland):
                got.append(int(e))
                yield e

        monkeypatch.setattr(simplex, "_entering_order", recording)
        for seed in range(8):
            res = lp_solve(*_flip_heavy_lp(seed))
            assert res.status == OPTIMAL
        assert rounds
        for want, got in rounds:
            assert got == [int(e) for e in want[:len(got)]]
        # some round took more candidates than argmax picks, so its tail
        # came from the lazy sort
        assert max(len(got) for _, got in rounds) > simplex._ARGMAX_PICKS

    def test_argmax_and_sort_give_the_same_lp(self, monkeypatch):
        for seed in range(8):
            lp = _flip_heavy_lp(seed)
            base = lp_solve(*lp)
            for picks in (0, 10**9):  # only the sort, only argmax
                monkeypatch.setattr(simplex, "_ARGMAX_PICKS", picks)
                other = lp_solve(*lp)
                assert other.status == base.status == OPTIMAL
                assert np.array_equal(other.x, base.x)
                assert other.objective == base.objective
                assert other.iterations == base.iterations
                assert np.array_equal(other.reduced_costs, base.reduced_costs)
                assert np.array_equal(other.at_upper, base.at_upper)
            monkeypatch.undo()


class TestSteeredPhase1:
    @pytest.mark.parametrize("sense", [1.0, -1.0], ids=["max", "min"])
    def test_fewer_iterations_than_pure_phase_1(self, sense, monkeypatch):
        # every column has the same gain on a COUNT row, so pure phase 1
        # ends at the lowest-numbered columns and phase 2 swaps them out
        rng = np.random.default_rng(0)
        n = 20_000
        c, a = np.round(rng.uniform(0.5, 2.0, size=(2, n)) * 64) / 64
        A = np.vstack([np.ones(n), np.ones(n), a])
        lp = (sense * c, A, *row_bounds([">=", "<=", "<="], [6.0, 10.0, 9.0]),
              np.zeros(n), np.ones(n))
        steered = lp_solve(*lp)
        monkeypatch.setattr(simplex, "_PHASE1_WEIGHT", 0.0)
        pure = lp_solve(*lp)
        assert steered.status == pure.status == OPTIMAL
        assert steered.objective == pytest.approx(pure.objective, abs=1e-9)
        assert steered.iterations < pure.iterations


def _package_lp(seed, quantized):
    """An LP of the shape Direct solves: k = 2-5 rows (a count, sums and
    AVG-style rows with coefficients of both signs) over 1k-20k columns
    with upper bounds 1-3; values on the 1/64 grid or unquantized."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    n = int(rng.integers(1_000, 20_001))
    vals = rng.uniform(0.5, 2.0, size=(k + 1, n))
    if quantized:
        vals = np.round(vals * 64) / 64
    size = float(rng.integers(4, 21))
    c = vals[0] if rng.integers(0, 2) else -vals[0]
    rows, ops, rhs = [np.ones(n)], [str(rng.choice(["<=", ">=", "="]))], [size]
    for a in vals[1:]:
        op = str(rng.choice(["<=", ">="]))
        if rng.integers(0, 2):  # SUM(a) against a window around its mean
            rows.append(a)
            rhs.append(size * float(rng.uniform(0.8, 1.4)))
        else:  # AVG(a) op v, as SUM(a - v) op 0
            v = float(rng.uniform(1.0, 1.5))
            rows.append(a - v)
            rhs.append(0.0)
        ops.append(op)
    hi = rng.integers(1, 4, size=n).astype(float)
    return (c, np.array(rows), *row_bounds(ops, rhs), np.zeros(n), hi), ops


def _highs(c, A, row_lo, row_hi, lo, hi):
    from scipy.optimize import linprog

    ub = np.isfinite(row_hi) & ~np.isfinite(row_lo)
    lb = np.isfinite(row_lo) & ~np.isfinite(row_hi)
    eq = np.isfinite(row_lo) & np.isfinite(row_hi)
    A_ub = np.vstack([A[ub], -A[lb]])
    b_ub = np.concatenate([row_hi[ub], -row_lo[lb]])
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    return linprog(-c, A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                   A_eq=A[eq] if eq.any() else None, b_eq=row_lo[eq] if eq.any() else None,
                   bounds=np.column_stack([lo, hi]), method="highs", options=tol)


class TestPackageRegime:
    """Differential test against HiGHS in the regime the engine runs in:
    few rows, many columns, small upper bounds."""

    @pytest.mark.parametrize("quantized", [True, False], ids=["grid64", "unquantized"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_highs_with_a_certificate(self, seed, quantized):
        _check_against_highs(*_package_lp(seed, quantized))

    @pytest.mark.parametrize("quantized", [True, False], ids=["grid64", "unquantized"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_highs_when_the_objective_outweighs_phase_1(
            self, seed, quantized, monkeypatch):
        # a weight this large trades artificials for objective, so phase 1
        # ends short of feasibility on about half of these LPs and only the
        # pure fallback phase finds the feasible point
        monkeypatch.setattr(simplex, "_PHASE1_WEIGHT", 10.0)
        _check_against_highs(*_package_lp(seed, quantized))


def _check_against_highs(lp, ops):
    """lp_solve leaves its inputs alone, agrees with HiGHS on status and
    objective, and returns a feasible x with a valid reduced-cost
    certificate."""
    before = [a.copy() for a in lp]
    res = lp_solve(*lp)
    for a, b in zip(lp, before):  # no input array is modified
        assert np.array_equal(a, b)

    ref = _highs(*lp)
    if ref.status == 2:
        assert res.status == INFEASIBLE
        return
    assert ref.status == 0
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-ref.fun, abs=1e-7)

    c, A, row_lo, row_hi, lo, hi = lp
    x, d, up = res.x, res.reduced_costs, res.at_upper
    assert np.all((x >= lo) & (x <= hi))
    lhs = A @ x
    assert np.all((lhs >= row_lo - 1e-9) & (lhs <= row_hi + 1e-9))
    assert res.objective == pytest.approx(float(c @ x), rel=1e-12, abs=1e-9)
    # optimality: no column gains by leaving its bound (basic ones carry 0)
    tol = simplex._ENTER_TOL
    assert np.all(d[~up] <= tol)
    assert np.all(d[up] >= -tol)
    assert np.all(x[up] == hi[up])
    # at most one basic (possibly fractional) column per row
    assert np.count_nonzero((x > lo) & (x < hi)) <= len(ops)


def _shaped_lp(seed):
    """A package-shaped LP: k = 0-5 COUNT, SUM, AVG-style and window rows
    ('<=', '>=', '=' and a '>='/'<=' pair) over 1 to about 3,200 columns;
    right sides that go negative after the shift, so rows flip; REPEAT 0 or
    finite caps as upper bounds, and branch-and-bound child boxes with
    nonzero lower bounds; values on the 1/64 grid or unquantized."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 6))
    n = int(np.exp(rng.uniform(0.0, np.log(3_200))))
    quantized = bool(rng.integers(0, 2))

    def values():
        v = rng.uniform(0.5, 2.0, size=n)
        return np.round(v * 64) / 64 if quantized else v

    size = float(rng.integers(1, 12))
    rows, ops, rhs = [], [], []
    while len(rows) < k:
        shape = int(rng.integers(0, 3))
        if shape == 0:  # COUNT
            a, center = np.ones(n), size
        elif shape == 1:  # SUM
            a, center = values(), 1.25 * size
        else:  # AVG(a) op v, as SUM(a - v) op 0; a negative side flips
            a, center = values() - float(rng.uniform(0.8, 1.6)), float(rng.uniform(-2, 2))
        op = str(rng.choice(["<=", ">=", "=", "window"]))
        if op == "window" and len(rows) + 2 <= k:
            rows += [a, a]
            ops += [">=", "<="]
            rhs += [center - float(rng.uniform(0, 2)), center + float(rng.uniform(0, 2))]
        else:
            rows.append(a)
            ops.append("=" if op == "window" else op)
            rhs.append(center * float(rng.uniform(0.5, 1.5)))
    A = np.array(rows).reshape(k, n)
    repeat = int(rng.integers(0, 3))
    hi = (np.ones(n) if repeat == 0 else
          rng.integers(1, 2 + 2 * repeat, size=n).astype(float))
    lo = np.zeros(n)
    if rng.integers(0, 2):  # a child box: some bounds moved by branching
        moved = rng.random(n) < 0.3
        lo[moved] = np.minimum(hi[moved], rng.integers(0, 3, size=n)[moved])
        pinned = rng.random(n) < 0.1
        hi[pinned] = lo[pinned]
    c = values() * float(rng.choice([1.0, -1.0]))
    if rng.integers(0, 8) == 0:
        c = np.zeros(n)  # a vacuous objective
    return c, A, *row_bounds(ops, rhs), lo, hi


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRevisedIdentity:
    """``lp_solve`` gives the same LpResult, bit for bit, as the revised
    simplex before B^-1 absorbed the row signs (tests/helpers.py)."""

    def test_matches_reference(self):
        from helpers import lp_solve_reference

        statuses = set()
        shift_flips = 0  # LPs whose lower bounds turn a right side negative
        for seed in range(120):
            lp = _shaped_lp(seed)
            got, want = lp_solve(*lp), lp_solve_reference(*lp)
            statuses.add(want.status)
            c, A, row_lo, row_hi, lo, hi = lp
            b = np.where(np.isfinite(row_hi), row_hi, row_lo)
            shift_flips += bool(np.any((b >= 0) & (b - A @ lo < 0)))
            assert got.status == want.status, seed
            assert got.iterations == want.iterations, seed
            assert _same_bits(got.objective, want.objective), seed
            for field in ("x", "reduced_costs", "at_upper"):
                assert _same_bits(getattr(got, field), getattr(want, field)), (seed, field)
        assert statuses == {OPTIMAL, INFEASIBLE}
        assert shift_flips >= 20

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_flip_heavy_lps(self, seed):
        from helpers import lp_solve_reference

        lp = _flip_heavy_lp(seed)
        got, want = lp_solve(*lp), lp_solve_reference(*lp)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        for field in ("x", "objective", "reduced_costs", "at_upper"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field


def _stalling_lp(seed):
    """A package LP whose first pivots are degenerate: a COUNT '=' row and
    an AVG-style row with right side 0 over 20-400 columns on the 1/64 grid,
    upper bounds 1-3."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    vals = np.round(rng.uniform(0.5, 2.0, size=(2, n)) * 64) / 64
    size = float(rng.integers(2, 12))
    A = np.vstack([np.ones(n), vals[1] - float(rng.uniform(0.9, 1.6))])
    ops = ["=", str(rng.choice(["<=", ">="]))]
    c = vals[0] * float(rng.choice([1.0, -1.0]))
    hi = rng.integers(1, 4, size=n).astype(float)
    return c, A, *row_bounds(ops, [size, 0.0]), np.zeros(n), hi


class TestBlandsRule:
    def test_matches_reference_and_highs(self, monkeypatch):
        # with no stall allowed, the first degenerate pivot switches pricing
        # to Bland's rule for the rest of the phase
        import helpers

        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
        monkeypatch.setattr(helpers, "_STALL_LIMIT", 0)  # imported by value
        modes = []
        real_order = simplex._entering_order
        monkeypatch.setattr(simplex, "_entering_order",
                            lambda s, bland: modes.append(bland) or real_order(s, bland))
        reached = 0
        for seed in range(60):
            modes.clear()
            lp = _stalling_lp(seed)
            got, want = lp_solve(*lp), helpers.lp_solve_reference(*lp)
            reached += True in modes
            for f in dataclasses.fields(LpResult):
                if f.name != "basic":  # the reference predates the field
                    assert _same_bits(getattr(got, f.name), getattr(want, f.name)), (seed, f.name)
            ref = _highs(*lp)
            assert ref.status == 0 and got.status == OPTIMAL, seed
            assert got.objective == pytest.approx(-ref.fun, abs=1e-7), seed
        assert reached >= 50


class TestBasis:
    def test_basic_columns_and_bounds(self):
        checked = 0
        for seed in range(120):
            c, A, row_lo, row_hi, lo, hi = _shaped_lp(seed)
            res = lp_solve(c, A, row_lo, row_hi, lo, hi)
            if res.status != OPTIMAL:
                assert res.basic is None
                continue
            checked += 1
            basic = res.basic.tolist()
            assert basic == sorted(set(basic)) and len(basic) <= len(A)
            assert all(0 <= j < len(c) for j in basic)
            rest = np.ones(len(c), dtype=bool)
            rest[basic] = False
            x = res.x[rest]
            assert np.all((x == lo[rest]) | (x == hi[rest]))
            assert np.array_equal(x == hi[rest], res.at_upper[rest] | (lo[rest] == hi[rest]))
        assert checked > 60
