import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force, dyadic, package_satisfies, var_index
from pkgquery import paql
from pkgquery.evaluate import (
    FEASIBLE,
    INFEASIBLE,
    TIME_LIMIT,
    EvalConfig,
    EvalError,
    RatioUndefinedError,
    approximation_ratio,
    build_sketch_query,
    eval_direct,
    eval_sketchrefine,
    fixed_activity,
)
from pkgquery.evaluate import _verify_package as verify_package
from pkgquery.ilp import (
    UnboundedModelError,
    activity,
    derive_bounds,
    feasible,
    shift_rhs,
    translate,
)
from pkgquery.partitioning import PartitionParams, partition, partition_with_epsilon
from pkgquery.relation import RelationError, from_columns
from pkgquery.solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    SolveResult,
    solve,
)


def q_of(text, rel):
    return paql.validate(paql.parse(text), rel.schema)


def sr_feasibility_check(q, rel, report):
    """Every sketch-based package must satisfy the original query's ILP."""
    if report.status != FEASIBLE:
        return
    m = translate(q, rel)
    x = np.zeros(m.n_vars)
    idx = var_index(m)
    for t, mult in report.package.items():
        x[idx[t]] = mult
    assert feasible(m, x)
    assert package_satisfies(q, rel, report.package)


class TestDirect:
    def test_meal_planner_matches_oracle(self, recipes, meal_query):
        report = eval_direct(meal_query, recipes)
        oracle = brute_force(derive_bounds(translate(meal_query, recipes)))
        assert report.status == FEASIBLE
        assert report.objective == pytest.approx(oracle.objective)

    def test_count_zero_feasible_empty(self, recipes):
        q = q_of("SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 SUCH THAT COUNT(P.*) = 0", recipes)
        report = eval_direct(q, recipes)
        assert report.status == FEASIBLE
        assert report.package == {}
        assert report.objective == 0.0
        assert report.to_json_dict()["package"] == []

    def test_base_predicate_filters_everything(self):
        rel = from_columns("R", {"kcal": [1.0, 2.0], "gluten": ["full", "full"]},
                           kinds={"gluten": "categorical"})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 WHERE R.gluten = 'free' "
                 "SUCH THAT COUNT(P.*) >= 1", rel)
        assert eval_direct(q, rel).status == INFEASIBLE

    def test_unbounded_repetition_surfaces(self):
        rel = from_columns("R", {"x": [1.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R MAXIMIZE SUM(P.x)", rel)
        with pytest.raises(UnboundedModelError):
            eval_direct(q, rel)

    def test_time_limit_status(self, recipes, meal_query):
        report = eval_direct(meal_query, recipes, EvalConfig(time_limit=0.0))
        assert report.status == TIME_LIMIT

    def test_forged_package_raises(self):
        # a solver whose vector breaks the count but whose objective agrees
        # with it: only the package check can tell
        rel = from_columns("R", {"x": [1.0, 2.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 1 MAXIMIZE SUM(P.x)", rel)

        def forging_solver(model, time_limit):
            return SolveResult(STATUS_OPTIMAL, np.ones(2), 3.0)

        assert eval_direct(q, rel).objective == 2.0
        with pytest.raises(EvalError, match="violates the query"):
            eval_direct(q, rel, solver_fn=forging_solver)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestSketchQuery:
    def make(self, repeat):
        rel = from_columns("R", {"kcal": [1.0, 1.0, 1.0, 1.0, 5.0],
                                 "fat": [1.0, 2.0, 3.0, 4.0, 5.0]})
        text = f"SELECT PACKAGE(R) AS P FROM R{repeat} SUCH THAT COUNT(P.*) >= 1 MINIMIZE SUM(P.fat)"
        q = q_of(text, rel)
        p = partition(rel, PartitionParams(("kcal",), 4))
        return rel, q, p

    def test_repeat0_capacity_is_group_size(self):
        rel, q, p = self.make(" R REPEAT 0")
        _, _, caps, _ = build_sketch_query(q, p, rel)
        assert caps.tolist() == [float(p.sizes[g]) for g in range(p.m)]

    def test_repeat1_capacity_doubles(self):
        rel, q, p = self.make(" R REPEAT 1")
        _, _, caps, _ = build_sketch_query(q, p, rel)
        assert caps.tolist() == [2.0 * p.sizes[g] for g in range(p.m)]

    def test_no_repeat_no_capacity(self):
        rel, q, p = self.make(" R")
        _, _, caps, _ = build_sketch_query(q, p, rel)
        assert caps.shape == (p.m,) and np.all(np.isinf(caps))

    def test_inherited_caps_sum_over_members(self):
        # caps from an enclosing sketch: group {0, 1, 2, 3} is held to its
        # members' total 4 (below 2 x 4); uncapped tuple 4 leaves group {4}
        # at its REPEAT capacity
        rel, q, p = self.make(" R REPEAT 1")
        assert [g.tolist() for g in p.groups] == [[0, 1, 2, 3], [4]]
        upper = np.array([1.0, 0.0, 2.0, 1.0, np.inf])
        _, _, caps, _ = build_sketch_query(q, p, rel, upper)
        assert caps.tolist() == [4.0, 2.0]
        upper[0] = 9.0  # total 12 is above 2 x 4
        _, _, caps, _ = build_sketch_query(q, p, rel, upper)
        assert caps.tolist() == [8.0, 2.0]

    def test_categorical_filtered_count_is_rejected(self):
        # group means of a categorical attribute do not exist; Direct
        # answers the query, SketchRefine names the attribute before solving
        rel = from_columns("R", {"x": [1.0, 2.0, 3.0, 4.0],
                                 "c": ["a", "b", "a", "b"]},
                           kinds={"c": "categorical"})
        q = q_of("SELECT PACKAGE(R) AS P FROM R SUCH THAT "
                 "(SELECT COUNT(*) FROM P WHERE P.c = 'a') >= 1 "
                 "AND COUNT(P.*) <= 2 MAXIMIZE SUM(P.x)", rel)
        p = partition(rel, PartitionParams(("x",), 2))
        assert eval_direct(q, rel).objective == 7.0
        with pytest.raises(EvalError, match="'c'"):
            build_sketch_query(q, p, rel)
        with pytest.raises(EvalError, match="'c'"):
            eval_sketchrefine(q, rel, p, solver_fn=None)  # fails before any solve

    def test_filtered_count_uses_indicator_of_the_mean(self):
        # one group {0.0, 2.0} with mean 1.0: the representative counts as
        # 0 under x > 1.5 and as 1 under x > 0.5, never as the members'
        # mean indicator 0.5
        rel = from_columns("R", {"x": [0.0, 2.0]})
        p = partition(rel, PartitionParams(("x",), 2))
        assert p.m == 1
        for bound, expected in ((1.5, 0.0), (0.5, 1.0)):
            q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT "
                     f"(SELECT COUNT(*) FROM P WHERE P.x > {bound}) >= 1", rel)
            rep_rel, sketch_q, caps, _ = build_sketch_query(q, p, rel)
            sketch = translate(sketch_q, rep_rel, upper_override=caps)
            assert sketch.rows[0].tolist() == [expected]

    def test_representatives_are_group_means(self):
        rel, q, p = self.make(" R REPEAT 0")
        rep_rel, sketch_q, _, _ = build_sketch_query(q, p, rel)
        assert rep_rel.n == p.m
        for g, members in enumerate(p.groups):
            assert rep_rel.column("fat")[g] == pytest.approx(
                rel.column("fat")[members].mean())
        assert sketch_q.repeat is None
        assert sketch_q.validated

    def test_partial_coverage_warns_and_flags(self):
        rel = from_columns("R", {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT SUM(P.b) <= 4 "
                 "AND COUNT(P.*) >= 1 MAXIMIZE SUM(P.b)", rel)
        p = partition(rel, PartitionParams(("a",), 2))
        with pytest.warns(UserWarning, match="outside the partitioning"):
            _, _, _, flags = build_sketch_query(q, p, rel)
        assert "partial_coverage" in flags

    def test_overflowing_group_mean_is_rejected(self):
        # the group {0, 1} sums y to inf, so its mean is inf; the
        # representative relation rejects it and names the column
        rel = from_columns("R", {"x": [1.0, 1.0], "y": [1e308, 1e308]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT COUNT(P.*) >= 1 "
                 "MAXIMIZE SUM(P.y)", rel)
        p = partition(rel, PartitionParams(("x",), 2))
        with np.errstate(over="ignore"), \
                pytest.warns(UserWarning, match="outside the partitioning"), \
                pytest.raises(RelationError, match="non-finite value in numeric column 'y'"):
            eval_sketchrefine(q, rel, p)

    def test_base_predicate_never_reaches_sketch(self, recipes, meal_query):
        p = partition(recipes, PartitionParams(("kcal",), 5))
        with pytest.raises(EvalError, match="pre-filtered"):
            build_sketch_query(meal_query, p, recipes)


def fixed_part_activity(q, rel, entries):
    """Row activity of a package part made of original tuples."""
    ids = sorted(entries)
    part = translate(q, rel, ids=ids)
    return activity(part, np.arange(part.n_vars),
                    np.asarray([entries[t] for t in ids], dtype=np.float64))


class TestRefineQuery:
    """A group's refine model is the query's ILP over the group's tuples
    with each row's right side reduced by the fixed part's activity."""

    def refine(self, q, rel, fixed_entries, members):
        return shift_rhs(translate(q, rel, ids=members),
                         fixed_part_activity(q, rel, fixed_entries))

    def test_count_shift(self, recipes, meal_query):
        # partial package already supplies 2 tuples: refine needs exactly 1
        m = self.refine(meal_query, recipes, {0: 1, 1: 1}, [2, 3, 4])
        assert m.row_lo[0] == m.row_hi[0]  # still an '=' row
        assert m.row_hi[0] == pytest.approx(1.0)  # 3 - 2

    def test_sum_window_shift(self, recipes, meal_query):
        m = self.refine(meal_query, recipes, {0: 1}, [1, 2, 3, 4])  # kcal 0.9
        assert m.row_lo[1] == pytest.approx(2.0 - 0.9)
        assert m.row_hi[2] == pytest.approx(2.5 - 0.9)

    def test_avg_shift_uses_linearized_form(self):
        rel = from_columns("R", {"x": [0.25, 0.75, 1.25, 2.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT AVG(P.x) <= 1.0 "
                 "AND COUNT(P.*) >= 1", rel)
        # {3: 1} contributes (2.0 - 1.0) to the linearized AVG row
        m = self.refine(q, rel, {3: 1}, [0, 1, 2])
        assert m.row_hi[0] == pytest.approx(-1.0)
        # combined package {0.25, 2.0} has avg 1.125 > 1: infeasible
        assert m.rows[0] @ np.array([1.0, 0.0, 0.0]) > m.row_hi[0]
        # combined {0.25, 0.75, 2.0} has avg exactly 1: feasible
        assert feasible(m, [1.0, 1.0, 0.0])

    def test_representative_contributions_count(self):
        rel = from_columns("R", {"x": [1.0, 2.0, 3.0, 4.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT SUM(P.x) <= 10 AND COUNT(P.*) >= 1", rel)
        p = partition(rel, PartitionParams(("x",), 2))
        rep_rel, sketch_q, caps, _ = build_sketch_query(q, p, rel)
        assert rep_rel.column("x").tolist() == [1.5, 3.5]
        sketch = translate(sketch_q, rep_rel, upper_override=caps)
        fixed = fixed_activity([fixed_part_activity(q, rel, {0: 1})], sketch, {1: 2})
        assert fixed[0] == pytest.approx(1.0 + 2 * 3.5)  # sum row
        assert fixed[1] == pytest.approx(1 + 2)           # count row

    def test_repeat_carried_through(self, recipes, meal_query):
        m = self.refine(meal_query, recipes, {}, [0, 1, 2])
        assert m.upper.tolist() == [meal_query.repeat + 1] * 3

    QUERIES = (
        "SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) BETWEEN 2 AND 8 "
        "AND AVG(P.y) >= 1.25 MAXIMIZE SUM(P.y)",
        "SELECT PACKAGE(R) AS P FROM R SUCH THAT "
        "(SELECT COUNT(*) FROM P WHERE P.x > 1.25) >= "
        "(SELECT COUNT(*) FROM P WHERE P.y > 1.25) AND SUM(P.x) <= 8",
        "SELECT PACKAGE(R) AS P FROM R REPEAT 1 SUCH THAT SUM(P.x) BETWEEN 4 AND 7 "
        "AND COUNT(P.*) <= 6 MINIMIZE SUM(P.y)",
        "SELECT PACKAGE(R) AS P FROM R REPEAT 0 WHERE R.c = 'a' AND R.x >= 0.75 "
        "SUCH THAT COUNT(P.*) BETWEEN 2 AND 5 AND SUM(P.y) <= 6",
    )

    def test_refine_model_matches_full_model(self):
        # x_g is feasible for the refine model exactly when x_g together
        # with the fixed part is feasible for the whole query's model
        outcomes = {qi: set() for qi in range(len(self.QUERIES))}
        for seed in range(160):
            rng = np.random.default_rng(seed)
            n = 40
            rel = from_columns("R", {
                "x": dyadic(rng, 0.5, 2.0, n), "y": dyadic(rng, 0.5, 2.0, n),
                "c": [str(v) for v in rng.choice(["a", "b"], size=n)],
            }, kinds={"c": "categorical"})
            qi = seed % len(self.QUERIES)
            q = q_of(self.QUERIES[qi], rel)
            full = translate(q, rel)
            p = partition(rel, PartitionParams(("x", "y"), 8))
            members = p.groups[int(rng.integers(p.m))]
            top = 1 if q.repeat is None else q.repeat + 1
            outside = np.setdiff1d(full.var_ids, members)
            chosen = rng.choice(outside, size=int(rng.integers(0, 5)), replace=False)
            fixed = {int(t): int(rng.integers(1, top + 1)) for t in chosen}
            group = translate(q, rel, ids=members)
            refine = shift_rhs(group, fixed_part_activity(q, rel, fixed))
            x_g = rng.integers(0, top + 1, size=group.n_vars).astype(np.float64)
            x = np.zeros(full.n_vars)
            x[np.searchsorted(full.var_ids, group.var_ids)] = x_g
            for t, mult in fixed.items():
                x[np.searchsorted(full.var_ids, t)] = mult
            got = feasible(refine, x_g)
            assert got == feasible(full, x), (seed, fixed, x_g)
            outcomes[qi].add(got)
        assert all(seen == {True, False} for seen in outcomes.values())


def _recursive_fixture():
    """14 tuples in 10 groups: with ``recursion_threshold=3`` the sketch
    recurses three levels deep."""
    x = [1.625, 0.875, 1, 1.75, 0.875, 1.375, 1, 0.5, 5.125, 0.875, 1.5,
         1.875, 1.625, 0.625]
    y = [1, 1.75, 1.25, 1.625, 1.125, 1.125, 1.25, 1.125, 0.625, 1.25, 1.5,
         1.625, 1.25, 1.125]
    rel = from_columns("R", {"x": x, "y": y})
    q = q_of("SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) = 3 "
             "AND SUM(P.x) BETWEEN 4.25 AND 4.5 MAXIMIZE SUM(P.y)", rel)
    return q, rel, partition(rel, PartitionParams(("x", "y"), 2))


class TestSketchRefine:
    def test_meal_planner_two_groups(self, recipes, meal_query):
        p = partition(recipes, PartitionParams(("kcal", "saturated_fat"), 3))
        direct = eval_direct(meal_query, recipes)
        report = eval_sketchrefine(meal_query, recipes, p)
        assert report.status == FEASIBLE
        sr_feasibility_check(meal_query, recipes, report)
        ratio = approximation_ratio(direct, report, paql.MINIMIZE)
        assert ratio >= 1.0 - 1e-9

    def test_single_group_collapses_to_direct(self, recipes, meal_query):
        p = partition(recipes, PartitionParams(("kcal", "saturated_fat"), 5))
        direct = eval_direct(meal_query, recipes)
        report = eval_sketchrefine(meal_query, recipes, p)
        assert report.status == FEASIBLE
        assert report.objective == pytest.approx(direct.objective)

    def test_epsilon_zero_equals_direct(self, recipes, meal_query):
        p = partition_with_epsilon(recipes, ("kcal", "saturated_fat"), 2, 0.0, "min")
        direct = eval_direct(meal_query, recipes)
        report = eval_sketchrefine(meal_query, recipes, p,
                                   EvalConfig(recursion_threshold=10**9))
        assert report.status == FEASIBLE
        assert report.objective == pytest.approx(direct.objective, abs=1e-9)

    def test_count_zero_feasible_empty(self, recipes):
        q = q_of("SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 SUCH THAT COUNT(P.*) = 0", recipes)
        p = partition(recipes, PartitionParams(("kcal",), 2))
        report = eval_sketchrefine(q, recipes, p)
        assert report.status == FEASIBLE
        assert report.package == {}

    def test_base_predicate_prefilters_groups(self):
        rel = from_columns("R", {
            "kcal": [1.0, 1.0, 5.0, 5.0],
            "gluten": ["free", "full", "free", "full"],
        }, kinds={"gluten": "categorical"})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 WHERE R.gluten = 'free' "
                 "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.kcal)", rel)
        p = partition(rel, PartitionParams(("kcal",), 2))
        report = eval_sketchrefine(q, rel, p)
        assert report.status == FEASIBLE
        assert set(report.package) == {0, 2}
        sr_feasibility_check(q, rel, report)

    def test_infeasible_when_filter_kills_all(self):
        rel = from_columns("R", {"kcal": [1.0, 2.0], "gluten": ["full", "full"]},
                           kinds={"gluten": "categorical"})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 WHERE R.gluten = 'free' "
                 "SUCH THAT COUNT(P.*) >= 1", rel)
        p = partition(rel, PartitionParams(("kcal",), 2))
        assert eval_sketchrefine(q, rel, p).status == INFEASIBLE

    def test_refine_count_matches_nonzero_groups(self):
        # groups far apart; the sketch must pick from two of the four
        rel = from_columns("R", {"x": [1.0, 1.0, 10.0, 10.0, 20.0, 20.0, 30.0, 30.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 2 AND SUM(P.x) BETWEEN 11.0 AND 11.0 "
                 "MINIMIZE SUM(P.x)", rel)
        p = partition(rel, PartitionParams(("x",), 2))
        report = eval_sketchrefine(q, rel, p, EvalConfig(recursion_threshold=10**9))
        assert report.status == FEASIBLE
        assert report.backtracks == 0
        assert report.subproblems["refine"] == 2
        sr_feasibility_check(q, rel, report)

    def test_recursive_sketch(self):
        rng = np.random.default_rng(8)
        rel = from_columns("R", {"x": dyadic(rng, 0.5, 2.0, 64),
                                 "y": dyadic(rng, 0.5, 2.0, 64)})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) BETWEEN 2 AND 5 MAXIMIZE SUM(P.y)", rel)
        p = partition(rel, PartitionParams(("x", "y"), 4))
        assert p.m > 8
        report = eval_sketchrefine(q, rel, p, EvalConfig(recursion_threshold=8))
        assert report.status == FEASIBLE
        sr_feasibility_check(q, rel, report)

    def test_recursive_levels_report_backtracks_and_flags(self):
        # the inner sketch levels backtrack three times and fall back to
        # their hybrid; the top level's report carries both
        q, rel, p = _recursive_fixture()
        report = eval_sketchrefine(q, rel, p, EvalConfig(seed=0, recursion_threshold=3))
        assert report.status == FEASIBLE
        assert report.backtracks == 3
        assert "hybrid_used" in report.flags
        assert len(set(report.flags)) == len(report.flags)
        sr_feasibility_check(q, rel, report)

    def test_levels_do_not_validate_the_query_again(self, monkeypatch):
        # the query is validated once, by the caller; each level's sketch
        # query keeps that validation
        q, rel, p = _recursive_fixture()
        calls = []
        validate = paql.validate
        monkeypatch.setattr(paql, "validate",
                            lambda *args: calls.append(args) or validate(*args))
        report = eval_sketchrefine(q, rel, p, EvalConfig(seed=0, recursion_threshold=3))
        assert report.status == FEASIBLE
        assert calls == []

    def test_inner_levels_use_up_the_outer_budget(self):
        # a level's budget also counts the refine and hybrid solves of the
        # levels below it: the innermost level spends both solves, so every
        # level above finds its budget used up before its hybrid runs (with
        # a budget of its own solves only, the hybrids would find a package)
        q, rel, p = _recursive_fixture()
        report = eval_sketchrefine(
            q, rel, p, EvalConfig(seed=0, recursion_threshold=3, backtrack_limit=2))
        assert report.status == INFEASIBLE
        assert report.subproblems == {"sketch": 1, "refine": 2, "hybrid": 0}
        assert report.flags == ("backtrack_limit_exceeded", "sketch_infeasible")

    def test_time_limit_inside_an_inner_level(self):
        # the twelfth solve is the hybrid of the level below the top, after
        # the levels below it refined ten groups and backtracked three times
        q, rel, p = _recursive_fixture()
        calls = []

        def solver_fn(model, time_limit):
            calls.append(model)
            if len(calls) == 12:
                return SolveResult(STATUS_TIME_LIMIT, None, None)
            return solve(model, time_limit)
        report = eval_sketchrefine(
            q, rel, p, EvalConfig(seed=0, recursion_threshold=3), solver_fn)
        assert report.status == TIME_LIMIT
        assert report.package is None and report.objective is None
        assert report.subproblems == {"sketch": 1, "refine": 10, "hybrid": 1}
        assert report.backtracks == 3
        assert report.flags == ("refine_exhausted",)
        assert set(report.timings_ms) == {"sketch_ms", "refine_ms", "total_ms"}
        assert report.timings_ms["refine_ms"] == 0.0  # the top never refined

    def test_repeat_multiplicity_end_to_end(self):
        # cheapest package repeats the cheap tuple twice under REPEAT 1
        rel = from_columns("R", {"x": [1.0, 5.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 1 "
                 "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.x)", rel)
        p = partition(rel, PartitionParams(("x",), 1))
        cfg = EvalConfig(recursion_threshold=10**9)
        direct = eval_direct(q, rel, cfg)
        report = eval_sketchrefine(q, rel, p, cfg)
        assert report.status == FEASIBLE
        assert report.package == {0: 2}
        assert report.objective == pytest.approx(direct.objective) == 2.0
        sr_feasibility_check(q, rel, report)

    def test_avg_constraint_end_to_end(self):
        rel = from_columns("R", {"x": [0.25, 0.5, 1.75, 2.0],
                                 "y": [4.0, 3.0, 2.0, 1.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 2 AND AVG(P.x) <= 1.0 "
                 "MINIMIZE SUM(P.y)", rel)
        p = partition(rel, PartitionParams(("x", "y"), 2))
        direct = eval_direct(q, rel)
        report = eval_sketchrefine(q, rel, p)
        assert direct.status == FEASIBLE
        assert report.status == FEASIBLE
        sr_feasibility_check(q, rel, report)

    def test_filtered_count_end_to_end(self):
        rel = from_columns("R", {"carbs": [1.0, -1.0, 2.0, -2.0],
                                 "protein": [3.0, 9.0, 4.0, 8.0]})
        q = q_of("""
            SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT
            COUNT(P.*) = 2 AND
            (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >=
            (SELECT COUNT(*) FROM P WHERE P.protein <= 5)
            MAXIMIZE SUM(P.protein)
        """, rel)
        p = partition(rel, PartitionParams(("carbs", "protein"), 2))
        direct = eval_direct(q, rel)
        report = eval_sketchrefine(q, rel, p)
        assert direct.status == FEASIBLE
        assert report.status == FEASIBLE
        sr_feasibility_check(q, rel, report)

    def test_determinism(self, recipes, meal_query):
        p = partition(recipes, PartitionParams(("kcal", "saturated_fat"), 2))
        cfg = EvalConfig(seed=123)
        a = eval_sketchrefine(meal_query, recipes, p, cfg)
        b = eval_sketchrefine(meal_query, recipes, p, cfg)
        assert (a.status, a.objective) == (b.status, b.objective)
        assert a.package == b.package

    def test_time_limit(self, recipes, meal_query):
        p = partition(recipes, PartitionParams(("kcal", "saturated_fat"), 2))
        report = eval_sketchrefine(meal_query, recipes, p, EvalConfig(time_limit=0.0))
        assert report.status == TIME_LIMIT

    def test_backtrack_budget_flag(self):
        # tiny budget cannot even do the first refine: flagged infeasible
        rel = from_columns("R", {"x": [1.0, 2.0, 3.0, 4.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.x)", rel)
        p = partition(rel, PartitionParams(("x",), 2))
        report = eval_sketchrefine(q, rel, p, EvalConfig(backtrack_limit=0))
        assert report.status == INFEASIBLE
        assert "backtrack_limit_exceeded" in report.flags

    @pytest.mark.parametrize("bound, status", [(1.0, FEASIBLE), (100.0, INFEASIBLE)])
    def test_degenerate_groups_flag(self, bound, status):
        # five identical points cannot be split below tau = 2, so their
        # group stays above it, flagged degenerate, whatever the answer
        rel = from_columns("R", {"x": [2.0] * 5 + [7.0, 9.0]})
        p = partition(rel, PartitionParams(("x",), 2))
        assert p.degenerate
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT COUNT(P.*) = 2 "
                 f"AND SUM(P.x) >= {bound} MAXIMIZE SUM(P.x)", rel)
        report = eval_sketchrefine(q, rel, p)
        assert report.status == status
        assert "degenerate_groups" in report.flags


class TestHybrid:
    def outlier_fixture(self):
        # group A holds an outlier the centroid hides; the plain sketch is
        # infeasible but original tuples from A satisfy the query
        rel = from_columns("R", {"x": [1.0, 9.0, 5.0, 5.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 1 AND SUM(P.x) BETWEEN 8.5 AND 9.5 "
                 "MAXIMIZE SUM(P.x)", rel)
        # force the adversarial grouping: {1.0, 9.0} and {5.0, 5.0}
        import pkgquery.partitioning as pt
        groups = (np.array([0, 1]), np.array([2, 3]))
        reps = np.array([[5.0], [5.0]])
        p = pt.Partitioning(
            attrs=("x",), tau=4, omega=np.inf, n=4, groups=groups,
            sizes=np.array([2, 2]), radii=np.array([4.0, 0.0]),
            representatives=reps, degenerate=frozenset())
        return rel, q, p

    def test_hybrid_rescues_outlier(self):
        rel, q, p = self.outlier_fixture()
        oracle = brute_force(derive_bounds(translate(q, rel)))
        assert oracle.status == "optimal"  # query genuinely feasible
        with_hybrid = eval_sketchrefine(q, rel, p, EvalConfig())
        assert with_hybrid.status == FEASIBLE
        assert "hybrid_used" in with_hybrid.flags
        assert with_hybrid.objective == pytest.approx(9.0)
        sr_feasibility_check(q, rel, with_hybrid)

    def test_without_hybrid_reports_infeasible(self):
        # the plain sketch model of the fixture has no solution, so only the
        # hybrid fallback finds the package above
        rel, q, p = self.outlier_fixture()
        rep_rel, sketch_q, caps, _ = build_sketch_query(q, p, rel)
        sketch = derive_bounds(translate(sketch_q, rep_rel, upper_override=caps))
        assert solve(sketch).status == STATUS_INFEASIBLE

    def test_hybrid_not_used_when_sketch_feasible(self, recipes, meal_query):
        p = partition(recipes, PartitionParams(("kcal", "saturated_fat"), 3))
        report = eval_sketchrefine(meal_query, recipes, p)
        assert report.subproblems["hybrid"] == 0

    def test_genuinely_infeasible_stays_infeasible(self):
        rel = from_columns("R", {"x": [1.0, 2.0, 3.0, 4.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 1 AND SUM(P.x) >= 100", rel)
        p = partition(rel, PartitionParams(("x",), 2))
        assert eval_sketchrefine(q, rel, p).status == INFEASIBLE

    def test_hybrid_model_stacks_group_beside_sketch_columns(self):
        rel, q, p = self.outlier_fixture()
        rep_rel, sketch_q, caps, _ = build_sketch_query(q, p, rel)
        sketch = translate(sketch_q, rep_rel, upper_override=caps)
        models = []

        def recording_solver(model, time_limit):
            models.append(model)
            return solve(model, time_limit)

        report = eval_sketchrefine(q, rel, p, solver_fn=recording_solver)
        assert report.subproblems["hybrid"] >= 1
        hybrids = models[1:1 + report.subproblems["hybrid"]]
        for model in hybrids:
            matches = []
            for g, members in enumerate(p.groups):
                group = translate(q, rel, ids=members)
                others = [h for h in range(p.m) if h != g]
                expected = np.hstack([group.rows, sketch.rows[:, others]])
                objective = np.concatenate([group.objective, sketch.objective[others]])
                matches.append(
                    model.rows.shape == expected.shape
                    and np.array_equal(model.rows, expected)
                    and np.array_equal(model.objective, objective)
                    and np.array_equal(model.upper[:group.n_vars], group.upper))
            assert sum(matches) == 1

    def test_hybrid_solves_count_against_budget(self):
        rel, q, p = self.outlier_fixture()
        for limit in range(5):
            report = eval_sketchrefine(q, rel, p, EvalConfig(backtrack_limit=limit))
            used = report.subproblems["refine"] + report.subproblems["hybrid"]
            assert used <= limit
            if report.status != FEASIBLE:
                assert report.status == INFEASIBLE
                assert "backtrack_limit_exceeded" in report.flags
        report = eval_sketchrefine(q, rel, p, EvalConfig(backtrack_limit=0))
        assert report.status == INFEASIBLE
        assert "backtrack_limit_exceeded" in report.flags

    def test_recursive_hybrid_keeps_inherited_caps(self):
        # a recursive sketch falls back to its hybrid; the hybrid's group
        # columns are representatives capped by the enclosing sketch, which
        # a hybrid built on a fresh relation used to drop
        rng = np.random.default_rng(0)
        x, y = dyadic(rng, 0.5, 2.0, 50), dyadic(rng, 0.5, 2.0, 50)
        k = int(rng.integers(1, 4))
        x[rng.choice(50, size=k, replace=False)] = dyadic(rng, 3.0, 8.0, k)
        rel = from_columns("R", {"x": x, "y": y})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT "
                 "COUNT(P.*) BETWEEN 3 AND 5 AND SUM(P.x) >= 13.09 "
                 "MAXIMIZE SUM(P.y)", rel)
        p = partition(rel, PartitionParams(("x", "y"), 2))
        assert p.m > p.tau  # the sketch recurses
        assert eval_direct(q, rel).status == INFEASIBLE
        for seed in range(4):
            report = eval_sketchrefine(q, rel, p, EvalConfig(seed=seed))
            assert report.status == INFEASIBLE
            assert report.subproblems["hybrid"] > 0


class TestEvalConfig:
    @pytest.mark.parametrize("name, value", [
        ("time_limit", float("nan")),  # never expires: no bound at all
        ("time_limit", -1.0),
        ("backtrack_limit", -1),
        ("recursion_threshold", -1),
    ])
    def test_bad_bound_rejected(self, name, value):
        with pytest.raises(EvalError, match="must be >= 0"):
            EvalConfig(**{name: value})

    def test_zero_bounds_are_legal(self):
        EvalConfig(time_limit=0.0, backtrack_limit=0, recursion_threshold=0)


def _small(text):
    rel = from_columns("R", {"x": [1.0, 2.0, 3.0, 4.0]})
    return q_of(text, rel), rel, partition(rel, PartitionParams(("x",), 2))


PICK_TWO = "SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.x)"
UNREACHABLE = ("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
               "SUCH THAT COUNT(P.*) = 1 AND SUM(P.x) >= 100")
FILTERED_OUT = ("SELECT PACKAGE(R) AS P FROM R REPEAT 0 WHERE R.x >= 100 "
                "SUCH THAT COUNT(P.*) = 2")


def _refine_times_out():
    """A solver whose first solve (the sketch) succeeds and whose later
    solves all hit their time limit."""
    calls = []

    def solver_fn(model, time_limit):
        calls.append(model)
        if len(calls) == 1:
            return solve(model, time_limit)
        return SolveResult(STATUS_TIME_LIMIT, None, None)
    return solver_fn


def _direct(text):
    q, rel, _ = _small(text)
    return eval_direct(q, rel)


def _sr(text, cfg=EvalConfig(), solver_fn=solve):
    q, rel, p = _small(text)
    return eval_sketchrefine(q, rel, p, cfg, solver_fn=solver_fn)


class TestTimings:
    """Every exit path reports its method's phase keys, each measured once:
    ``total_ms`` is the sum of the two phases."""

    @pytest.mark.parametrize("run, status, flag", [
        pytest.param(lambda r, mq: eval_direct(mq, r), FEASIBLE, None,
                     id="direct-feasible"),
        pytest.param(lambda r, mq: _direct(UNREACHABLE), INFEASIBLE, None,
                     id="direct-infeasible"),
        pytest.param(lambda r, mq: eval_direct(mq, r, EvalConfig(time_limit=0.0)),
                     TIME_LIMIT, None, id="direct-time_limit"),
        pytest.param(lambda r, mq: _sr(PICK_TWO), FEASIBLE, None,
                     id="sketchrefine-feasible"),
        pytest.param(lambda r, mq: _sr(UNREACHABLE), INFEASIBLE, "sketch_infeasible",
                     id="sketchrefine-sketch_infeasible"),
        pytest.param(lambda r, mq: _sr(PICK_TWO, EvalConfig(time_limit=0.0)),
                     TIME_LIMIT, None, id="sketchrefine-time_limit-sketch"),
        pytest.param(lambda r, mq: _sr(PICK_TWO, solver_fn=_refine_times_out()),
                     TIME_LIMIT, None, id="sketchrefine-time_limit-refine"),
        pytest.param(lambda r, mq: _sr(PICK_TWO, EvalConfig(backtrack_limit=0)),
                     INFEASIBLE, "backtrack_limit_exceeded",
                     id="sketchrefine-backtrack_limit_exceeded"),
        pytest.param(lambda r, mq: _sr(FILTERED_OUT), INFEASIBLE, None,
                     id="sketchrefine-no_group_survives"),
    ])
    def test_phase_keys_on_every_exit(self, recipes, meal_query, run, status, flag):
        report = run(recipes, meal_query)
        assert report.status == status
        assert flag is None or flag in report.flags
        phases = {"direct": ("translate_ms", "solve_ms"),
                  "sketchrefine": ("sketch_ms", "refine_ms")}[report.method]
        assert set(report.timings_ms) == {*phases, "total_ms"}
        assert all(v >= 0 for v in report.timings_ms.values())
        assert report.timings_ms["total_ms"] == sum(report.timings_ms[k] for k in phases)


class TestSolverStats:
    """A report carries the solver counters summed over every solve it made."""

    @pytest.mark.parametrize("method", ["direct", "sketchrefine"])
    def test_summed_over_every_solve(self, method):
        stats = []

        def counting(model, time_limit):
            res = solve(model, time_limit)
            stats.append(res.stats)
            return res

        q, rel, p = _small(PICK_TWO)
        if method == "direct":
            report = eval_direct(q, rel, solver_fn=counting)
        else:
            report = eval_sketchrefine(q, rel, p, solver_fn=counting)
        assert report.status == FEASIBLE
        assert len(stats) == sum(report.subproblems.values())
        assert len(stats) == (1 if method == "direct" else 2)  # a sketch and a refine
        nodes = sum(s.nodes for s in stats)
        iterations = sum(s.lp_iterations for s in stats)
        assert nodes >= len(stats) and iterations > 0
        assert (report.solver.nodes, report.solver.lp_iterations) == (nodes, iterations)
        assert report.to_json_dict()["solver"] == {"nodes": nodes, "lp_iterations": iterations}

    def test_time_limited_solves_count_too(self):
        report = _sr(PICK_TWO, solver_fn=_refine_times_out())
        assert report.status == TIME_LIMIT
        assert report.solver.nodes >= 1  # the sketch's, before the refine ran out


class TestOneSolveStep:
    """Both methods solve through one step: it reads every solver status
    and spends one deadline that counts from the call."""

    @pytest.mark.parametrize("method", ["direct", "sketchrefine"])
    def test_unexpected_status_raises(self, method):
        def unbounded(model, time_limit):
            return SolveResult("unbounded", None, None)

        q, rel, p = _small(PICK_TWO)
        with pytest.raises(EvalError, match="unexpected solver status 'unbounded'"):
            if method == "direct":
                eval_direct(q, rel, solver_fn=unbounded)
            else:
                eval_sketchrefine(q, rel, p, solver_fn=unbounded)

    def test_direct_deadline_includes_translate(self):
        given = []

        def recording(model, time_limit):
            given.append(time_limit)
            return solve(model, time_limit)

        q, rel, _ = _small(PICK_TWO)
        cfg = EvalConfig(time_limit=10.0)
        assert eval_direct(q, rel, cfg, solver_fn=recording).status == FEASIBLE
        assert len(given) == 1 and 0 < given[0] < cfg.time_limit


class TestNoGroupSurvives:
    """A WHERE clause that keeps no tuple leaves no group; SketchRefine
    still runs its level, whose sketch over no representatives holds only
    the constant constraints."""

    def test_infeasible_sketch(self):
        report = _sr(FILTERED_OUT)
        assert report.status == INFEASIBLE
        assert report.subproblems == {"sketch": 1, "refine": 0, "hybrid": 0}
        assert report.flags == ("sketch_infeasible",)
        assert report.timings_ms["sketch_ms"] > 0

    def test_empty_package(self):
        report = _sr(FILTERED_OUT.replace("COUNT(P.*) = 2", "COUNT(P.*) <= 2"))
        assert report.status == FEASIBLE
        assert report.package == {} and report.objective == 0.0
        assert report.subproblems == {"sketch": 1, "refine": 0, "hybrid": 0}
        assert report.timings_ms["sketch_ms"] > 0

    def test_zero_time_limit(self):
        # as on every other SketchRefine query, the sketch solve finds no
        # time, so it never runs and is not counted
        models = []
        report = _sr(FILTERED_OUT, EvalConfig(time_limit=0.0),
                     solver_fn=lambda model, left: models.append(model))
        assert report.status == TIME_LIMIT
        assert models == []
        assert report.subproblems == {"sketch": 0, "refine": 0, "hybrid": 0}

    def test_zero_time_limit_direct(self):
        models = []
        q, rel, _ = _small(FILTERED_OUT)
        report = eval_direct(q, rel, EvalConfig(time_limit=0.0),
                             solver_fn=lambda model, left: models.append(model))
        assert report.status == TIME_LIMIT
        assert models == []
        assert report.subproblems == {"solves": 0}
        assert report.solver.nodes == 0


class TestApproximationRatio:
    def r(self, obj, method="direct"):
        from pkgquery.evaluate import EvalReport
        return EvalReport(method, FEASIBLE, objective=obj)

    def test_equal(self):
        assert approximation_ratio(self.r(5.0), self.r(5.0), paql.MAXIMIZE) == 1.0

    def test_maximize(self):
        assert approximation_ratio(self.r(10.0), self.r(8.0), paql.MAXIMIZE) == pytest.approx(1.25)

    def test_minimize(self):
        assert approximation_ratio(self.r(10.0), self.r(12.0), paql.MINIMIZE) == pytest.approx(1.2)

    def test_below_one_is_legal(self):
        assert approximation_ratio(self.r(8.0), self.r(10.0), paql.MAXIMIZE) == pytest.approx(0.8)

    def test_requires_feasible(self):
        from pkgquery.evaluate import EvalReport
        bad = EvalReport("direct", INFEASIBLE)
        with pytest.raises(EvalError, match="feasible"):
            approximation_ratio(bad, self.r(1.0), paql.MAXIMIZE)

    def test_only_paql_directions(self):
        with pytest.raises(EvalError, match="bad direction"):
            approximation_ratio(self.r(1.0), self.r(1.0), "max")

    def test_zero_denominator(self):
        with pytest.raises(RatioUndefinedError):
            approximation_ratio(self.r(1.0), self.r(0.0), paql.MAXIMIZE)
        assert approximation_ratio(self.r(0.0), self.r(0.0), paql.MAXIMIZE) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_sketchrefine_always_feasible_or_declines(seed):
    """Randomized feasibility guarantee: any returned package satisfies the
    original query, checked by direct aggregation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    rel = from_columns("R", {"x": dyadic(rng, 0.5, 2.0, n),
                             "y": dyadic(rng, 0.5, 2.0, n)})
    s = int(rng.integers(1, 5))
    text = (f"SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT "
            f"COUNT(P.*) BETWEEN {s} AND {s + int(rng.integers(0, 3))} "
            f"AND SUM(P.x) <= {float(rng.integers(2, 5) * s)} "
            f"{'MAXIMIZE' if rng.integers(0, 2) else 'MINIMIZE'} SUM(P.y)")
    q = q_of(text, rel)
    tau = int(rng.integers(2, n))
    p = partition(rel, PartitionParams(("x", "y"), tau))
    report = eval_sketchrefine(q, rel, p, EvalConfig(seed=seed))
    if report.status == FEASIBLE:
        m = translate(q, rel)
        x = np.zeros(m.n_vars)
        idx = var_index(m)
        for t, mult in report.package.items():
            x[idx[t]] = mult
        assert feasible(m, x)
        assert package_satisfies(q, rel, report.package)


class TestPackageCheck:
    """The final SketchRefine check, made over the package's own tuples,
    agrees with checking the whole relation's model."""

    QUERIES = (
        "SELECT PACKAGE(R) AS P FROM R REPEAT 1 WHERE R.x >= 0.75 AND R.c = 'a' "
        "SUCH THAT COUNT(P.*) BETWEEN 2 AND 6 AND AVG(P.y) >= 1.1 "
        "AND (SELECT COUNT(*) FROM P WHERE P.y > 1.5) <= 2 MAXIMIZE SUM(P.y)",
        "SELECT PACKAGE(R) AS P FROM R REPEAT 2 "
        "SUCH THAT (SELECT COUNT(*) FROM P WHERE P.x > 1) >= "
        "(SELECT COUNT(*) FROM P WHERE P.y > 1) AND SUM(P.x) <= 6 "
        "AND AVG(P.x) <= 1.5 MINIMIZE SUM(P.x)",
        "SELECT PACKAGE(R) AS P FROM R WHERE R.c = 'b' "
        "SUCH THAT SUM(P.x) BETWEEN 3 AND 5 AND AVG(P.y) <= 1.4",
    )

    def relation(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        return from_columns("R", {
            "x": dyadic(rng, 0.5, 2.0, n), "y": dyadic(rng, 0.5, 2.0, n),
            "c": [str(v) for v in rng.choice(["a", "b"], size=n)],
        }, kinds={"c": "categorical"})

    def test_agrees_with_full_model(self):
        outcomes = {qi: set() for qi in range(len(self.QUERIES))}
        for seed in range(120):
            rel = self.relation(seed)
            rng = np.random.default_rng(seed + 1000)
            qi = seed % len(self.QUERIES)
            q = q_of(self.QUERIES[qi], rel)
            survivors = translate(q, rel).var_ids
            k = int(rng.integers(0, min(7, len(survivors)) + 1))
            ids = rng.choice(survivors, size=k, replace=False)
            entries = {int(t): int(rng.integers(1, 4)) for t in ids}
            override = None
            if rng.integers(0, 2):
                capped = rng.choice(rel.n, size=10, replace=False)
                override = np.full(rel.n, np.inf)
                for t in capped:
                    override[t] = float(rng.integers(0, 3))
            full = translate(q, rel, upper_override=override)
            x = np.zeros(full.n_vars)
            index = var_index(full)
            for t, mult in entries.items():
                x[index[t]] = mult
            expected = feasible(full, x, tol=1e-8)
            try:
                verify_package(q, rel, entries, override)
                got = True
            except EvalError as err:
                assert "violates" in str(err)
                got = False
            assert got == expected, (seed, entries)
            outcomes[qi].add(got)
        # every query saw both a passing and a failing package
        assert all(seen == {True, False} for seen in outcomes.values())

    def test_dropped_tuple_raises(self):
        rel = self.relation(3)
        q = q_of(self.QUERIES[0], rel)
        dropped = int(np.nonzero(rel.column("x") < 0.75)[0][0])
        with pytest.raises(EvalError, match="base predicate"):
            verify_package(q, rel, {dropped: 1}, None)

    def test_out_of_range_id_raises(self):
        rel = self.relation(3)
        q = q_of(self.QUERIES[2], rel)
        for bad in (rel.n, -1):
            with pytest.raises(EvalError, match="outside the relation"):
                verify_package(q, rel, {bad: 1}, None)

    def test_forged_refine_package_raises(self):
        # a solver that slips a tuple the base predicate drops into the
        # refine solution: the package check must refuse it
        rel = from_columns("R", {
            "x": [1.0, 1.25, 1.5, 1.75, 2.0, 0.5, 0.75, 1.0],
            "c": ["a", "a", "a", "a", "b", "b", "b", "b"],
        }, kinds={"c": "categorical"})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 WHERE R.c = 'a' "
                 "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.x)", rel)
        p = partition(rel, PartitionParams(("x",), 4))
        calls = []

        def forging_solver(model, time_limit):
            res = solve(model, time_limit)
            calls.append(model)
            if len(calls) > 1 and res.status == STATUS_OPTIMAL:
                chosen = int(np.nonzero(res.x > 0.5)[0][0])
                model.var_ids[chosen] = 7  # c = 'b'
            return res

        assert eval_sketchrefine(q, rel, p).status == FEASIBLE
        with pytest.raises(EvalError, match="base predicate"):
            eval_sketchrefine(q, rel, p, solver_fn=forging_solver)
        assert len(calls) > 1
