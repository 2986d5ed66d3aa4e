import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force,
    dyadic,
    enumerate_vectors,
    model_from_raw,
    package_satisfies,
)
from pkgquery import generate, paql
from pkgquery.ilp import (
    IlpModel,
    RawIlp,
    UnboundedModelError,
    aggregate_value,
    derive_bounds,
    feasible,
    ilp_to_paql,
    load_raw_ilp,
    package_from_solution,
    save_raw_ilp,
    translate,
)
from pkgquery.relation import Relation, from_columns


def q_of(text, rel):
    return paql.validate(paql.parse(text), rel.schema)


class RecordingColumn(list):
    """A categorical column that records the tuple ids read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)

    def __iter__(self):
        self.read.update(range(len(self)))
        return super().__iter__()


def only_row(m):
    """The single row of a one-row model: (coefficients, lower, upper)."""
    assert m.rows.shape == (1, m.n_vars)
    return m.rows[0], m.row_lo[0], m.row_hi[0]


class TestTranslate:
    def test_count_constraint(self):
        rel = from_columns("T", {"x": [1.0, 2.0, 3.0, 4.0, 5.0]})
        m = translate(q_of("SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = 3", rel), rel)
        assert m.n_vars == 5
        coeffs, lo, hi = only_row(m)
        assert coeffs.tolist() == [1.0] * 5
        assert (lo, hi) == (3.0, 3.0)

    def test_avg_constraint_coefficients(self):
        rel = from_columns("T", {"kcal": [0.3, 0.9]})
        m = translate(q_of("SELECT PACKAGE(R) AS P FROM T R SUCH THAT AVG(P.kcal) <= 0.5", rel), rel)
        coeffs, lo, hi = only_row(m)
        np.testing.assert_allclose(coeffs, [-0.2, 0.4])
        assert (lo, hi) == (-np.inf, 0.0)

    def test_avg_ge_mirror(self):
        rel = from_columns("T", {"kcal": [0.3, 0.9]})
        m = translate(q_of("SELECT PACKAGE(R) AS P FROM T R SUCH THAT AVG(P.kcal) >= 0.5", rel), rel)
        coeffs, lo, hi = only_row(m)
        np.testing.assert_allclose(coeffs, [-0.2, 0.4])
        assert (lo, hi) == (0.0, np.inf)

    def test_repeat_zero_binary_domain(self, recipes, meal_query):
        m = translate(meal_query, recipes)
        assert m.upper.tolist() == [1.0] * 5

    def test_base_predicate_drops_variables(self):
        rel = from_columns("T", {"x": [1.0, 2.0], "tag": ["in", "out"]},
                           kinds={"tag": "categorical"})
        m = translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R WHERE R.tag = 'in' "
            "SUCH THAT COUNT(P.*) >= 1", rel), rel)
        assert m.var_ids.tolist() == [0]

    def test_filtered_count_indicator_difference(self):
        rel = from_columns("T", {"carbs": [1.0, -1.0, 2.0], "protein": [3.0, 4.0, 9.0]})
        m = translate(q_of("""
            SELECT PACKAGE(R) AS P FROM T R SUCH THAT
            (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >=
            (SELECT COUNT(*) FROM P WHERE P.protein <= 5)
        """, rel), rel)
        coeffs, lo, hi = only_row(m)
        # indicators: carbs>0 -> (1,0,1); protein<=5 -> (1,1,0)
        assert coeffs.tolist() == [0.0, -1.0, 1.0]
        assert (lo, hi) == (0.0, np.inf)

    def test_filtered_count_vs_constant(self):
        rel = from_columns("T", {"carbs": [1.0, -1.0, 2.0]})
        m = translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R SUCH THAT "
            "(SELECT COUNT(*) FROM P WHERE P.carbs > 0) <= 2", rel), rel)
        coeffs, lo, hi = only_row(m)
        assert coeffs.tolist() == [1.0, 0.0, 1.0]
        assert (lo, hi) == (-np.inf, 2.0)

    def test_vacuous_objective(self):
        rel = from_columns("T", {"x": [1.0]})
        m = translate(q_of("SELECT PACKAGE(R) AS P FROM T R REPEAT 0", rel), rel)
        assert m.maximize
        assert m.objective.tolist() == [0.0]

    def test_ids_subset_restriction(self, recipes, meal_query):
        m = translate(meal_query, recipes, ids=[1, 3])
        assert m.var_ids.tolist() == [1, 3]

    def test_tuple_predicates_read_only_the_ids_asked_about(self):
        # the WHERE clause and a filtered count over a categorical column
        # read the tuples of ``ids`` (or of the package), not the relation
        plain = from_columns("R", {"x": [float(i) for i in range(10)],
                                   "c": list("abcabcabca")}, kinds={"c": "categorical"})
        col = RecordingColumn(plain.columns["c"])
        rel = Relation(plain.schema, {**plain.columns, "c": col}, plain.n)
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 WHERE R.c != 'b' SUCH THAT "
                 "(SELECT COUNT(*) FROM P WHERE P.c = 'a') <= 1 MAXIMIZE SUM(P.x)", rel)
        m = translate(q, rel, ids=[7, 2, 3])
        assert col.read <= {2, 3, 7}
        full = translate(q, plain)
        assert m.var_ids.tolist() == [2, 3]
        assert m.rows.tolist() == full.rows[:, [1, 2]].tolist() == [[0.0, 1.0]]
        col.read.clear()
        count_a = q.global_predicates[0].lhs
        assert aggregate_value(count_a, rel, {9: 2, 3: 1}) == 3.0
        assert col.read == {3, 9}

    def test_whole_relation_matches_every_id_and_copies_the_columns(self):
        # without ids or a WHERE clause translate reads the columns in
        # place instead of gathering them; the model is the same and owns
        # its arrays
        rel = generate.gen_dataset(300, 4, seed=3, grid=1 / 64)
        queries = generate.gen_workload(rel, 5, seed=3)  # one per shape
        queries += [q_of("SELECT PACKAGE(R) AS P FROM synthetic R SUCH THAT "
                         + clause, rel) for clause in (
            "AVG(P.a1) <= 0.5 AND COUNT(P.*) <= 4 MAXIMIZE SUM(P.a0)",
            "(SELECT COUNT(*) FROM P WHERE P.a2 > 0.5) >= 2 "
            "AND (SELECT COUNT(*) FROM P WHERE P.a0 < 0.3) <= "
            "(SELECT COUNT(*) FROM P WHERE P.a3 >= 0.4) MINIMIZE SUM(P.a3)",
            "COUNT(P.*) = 3 MAXIMIZE (SELECT COUNT(*) FROM P WHERE P.a1 < 0.2)")]
        queries.append(q_of("SELECT PACKAGE(R) AS P FROM synthetic R REPEAT 1 "
                            "WHERE R.a0 > 0.25 AND R.a3 <= 0.9 SUCH THAT "
                            "SUM(P.a1) >= 1 MAXIMIZE SUM(P.a2)", rel))
        fields = ("var_ids", "upper", "rows", "row_lo", "row_hi", "objective")
        for q in queries:
            whole = translate(q, rel)
            by_ids = translate(q, rel, ids=np.arange(rel.n))
            for name in fields:
                got, want = getattr(whole, name), getattr(by_ids, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
                assert not any(np.shares_memory(got, col)
                               for col in rel.columns.values()), name
            assert whole.maximize == by_ids.maximize

    def test_unvalidated_rejected(self, recipes):
        with pytest.raises(Exception, match="validated"):
            translate(paql.parse("SELECT PACKAGE(R) AS P FROM Recipes R"), recipes)


class TestDeriveBounds:
    def test_count_cap(self):
        rel = from_columns("T", {"x": [1.0, 2.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) <= 4", rel), rel))
        assert m.upper.tolist() == [4.0, 4.0]

    def test_sum_cap_per_coefficient(self):
        rel = from_columns("T", {"kcal": [0.5, 1.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.kcal) <= 2.5", rel), rel))
        assert m.upper.tolist() == [5.0, 2.0]

    def test_equality_counts_as_cap(self):
        rel = from_columns("T", {"x": [1.0, 2.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = 3", rel), rel))
        assert m.upper.tolist() == [3.0, 3.0]

    def test_only_lower_bound_fails(self):
        rel = from_columns("T", {"x": [1.0, 2.0]})
        with pytest.raises(UnboundedModelError, match="unbounded repetition"):
            derive_bounds(translate(q_of(
                "SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.x) >= 1", rel), rel))

    def test_negated_lower_bound_is_a_cap(self):
        rel = from_columns("T", {"x": [-1.0, -2.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.x) >= -4", rel), rel))
        assert m.upper.tolist() == [4.0, 2.0]

    def test_equality_with_nonpositive_coefficients_is_a_cap(self):
        # the '>=' side of an '=' row caps its columns like a '>=' row
        rel = from_columns("T", {"x": [-1.0, -2.0]})
        m = derive_bounds(translate(q_of(
            "SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.x) = -4", rel), rel))
        assert m.upper.tolist() == [4.0, 2.0]

    def test_repeat_already_finite(self, recipes, meal_query):
        m = derive_bounds(translate(meal_query, recipes))
        assert m.upper.max() == 1.0


class TestFeasible:
    def test_count_equality(self):
        rel = from_columns("T", {"x": [1.0, 2.0, 3.0]})
        m = translate(q_of("SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = 3", rel), rel)
        assert not feasible(m, [0, 0, 0])
        assert feasible(m, [1, 1, 1])
        assert not feasible(m, [1, 1, 0])

    def test_repeat_bound_violation(self, recipes, meal_query):
        m = translate(meal_query, recipes)
        assert not feasible(m, [2, 1, 0, 0, 0])

    def test_length_mismatch(self, recipes, meal_query):
        m = translate(meal_query, recipes)
        with pytest.raises(Exception, match="length"):
            feasible(m, [0, 0])


class TestPackageFromSolution:
    def test_near_integral_and_half_way_values(self):
        ids = np.array([3, 5, 8, 13, 21, 34, 55], dtype=np.int64)
        n = len(ids)
        m = IlpModel(ids, np.full(n, 3.0), np.zeros((0, n)), np.zeros(0),
                     np.zeros(0), np.zeros(n))
        x = [2.9999999, 1e-9, 0.5, 2.5, 1.0000001, 1.5, -1e-9]
        pkg = package_from_solution(m, x)
        # round half to even, like Python's round
        assert pkg == {3: 3, 13: 2, 21: 1, 34: 2}
        assert pkg == {int(t): int(round(v)) for t, v in zip(ids, x)
                       if round(v) > 0}
        assert all(type(k) is int and type(v) is int for k, v in pkg.items())
        assert list(pkg) == sorted(pkg)
        assert json.loads(json.dumps(pkg)) == {str(k): v for k, v in pkg.items()}

    def test_empty_solution(self):
        m = IlpModel(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((0, 0)),
                     np.zeros(0), np.zeros(0), np.zeros(0))
        assert package_from_solution(m, np.zeros(0)) == {}


class TestReduction:
    def test_two_variable_example(self):
        raw = RawIlp(a=(1.0, 2.0), b=((1.0,), (1.0,)), c=(1.0,))
        rel, q = ilp_to_paql(raw)
        assert rel.n == 2
        assert rel.schema.names == ("attr_obj", "attr_1")
        m = derive_bounds(translate(q, rel))
        res = brute_force(m)
        assert res.status == "optimal"
        assert res.objective == 2.0
        assert package_from_solution(m, res.x) == {1: 1}

    def test_all_zero_objective(self):
        raw = RawIlp(a=(0.0, 0.0), b=((1.0,), (1.0,)), c=(2.0,))
        rel, q = ilp_to_paql(raw)
        res = brute_force(derive_bounds(translate(q, rel)))
        assert res.status == "optimal"
        assert res.objective == 0.0

    def test_unbounded_instance_errors_at_bound_derivation(self):
        raw = RawIlp(a=(1.0,), b=((-1.0,),), c=(5.0,))
        rel, q = ilp_to_paql(raw)
        with pytest.raises(UnboundedModelError):
            derive_bounds(translate(q, rel))

    def test_zero_constraint_instance(self):
        # translation succeeds; solving fails only at bound derivation
        raw = RawIlp(a=(1.0,), b=((),), c=())
        rel, q = ilp_to_paql(raw)
        m = translate(q, rel)
        assert m.n_vars == 1 and m.rows.shape == (0, 1)
        with pytest.raises(UnboundedModelError, match="unbounded"):
            derive_bounds(m)

    def test_roundtrip_matches_direct_model(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            a = rng.integers(-5, 6, size=n).astype(float)
            b = rng.integers(-5, 6, size=(n, k)).astype(float)
            c = rng.integers(-3, 10, size=k).astype(float)
            b[:, 0] = 1.0
            c[0] = float(rng.integers(1, 4))
            raw = RawIlp(tuple(a), tuple(map(tuple, b)), tuple(c))
            rel, q = ilp_to_paql(raw)
            translated = translate(q, rel)
            direct = model_from_raw(raw)
            assert translated.n_vars == direct.n_vars
            np.testing.assert_allclose(translated.objective, direct.objective)
            assert translated.rows.shape == direct.rows.shape
            np.testing.assert_allclose(translated.rows, direct.rows)
            assert np.array_equal(translated.row_lo, direct.row_lo)
            assert np.array_equal(translated.row_hi, direct.row_hi)

    def test_json_io(self, tmp_path):
        raw = RawIlp(a=(1.0, -2.0), b=((1.0, 3.0), (1.0, -1.0)), c=(2.0, 4.0))
        path = tmp_path / "ilp.json"
        save_raw_ilp(raw, path)
        assert load_raw_ilp(path) == raw


@st.composite
def small_instance(draw):
    """Tiny relation plus a validated query with dyadic data."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    rel = from_columns("T", {
        "x": dyadic(rng, -2, 2, n), "y": dyadic(rng, 0.25, 2, n),
    })
    repeat = draw(st.sampled_from([0, 1, 2]))
    preds = [paql.GlobalPredicate(paql.AggregateExpr(paql.COUNT), "<=",
                                  float(draw(st.integers(1, 4))))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from([paql.COUNT, paql.SUM, paql.AVG]))
        attr = draw(st.sampled_from(["x", "y"])) if kind != paql.COUNT else None
        op = draw(st.sampled_from(["<=", ">=", "="]))
        bound = draw(st.integers(-8, 8)) / 4.0
        preds.append(paql.GlobalPredicate(paql.AggregateExpr(kind, attr=attr), op, bound))
    q = paql.PackageQuery(
        relation_name="T", relation_alias="R", package_name="P", repeat=repeat,
        global_predicates=tuple(preds),
        objective=paql.Objective(paql.MAXIMIZE, paql.AggregateExpr(paql.SUM, attr="x")))
    return rel, paql.validate(q, rel.schema)


@settings(max_examples=120, deadline=None)
@given(small_instance())
def test_feasible_matches_direct_aggregation(case):
    """Translation soundness and completeness on exhaustive small boxes."""
    rel, q = case
    m = translate(q, rel)
    for vec in enumerate_vectors([q.repeat + 1] * m.n_vars):
        x = np.asarray(vec, dtype=float)
        package = {int(m.var_ids[i]): int(v) for i, v in enumerate(vec) if v}
        assert feasible(m, x) == package_satisfies(q, rel, package)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["<=", ">="]))
def test_avg_sign_property(seed, op):
    """AVG translation has the documented sign either way; empty package
    satisfies the linearized form."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    rel = from_columns("T", {"x": dyadic(rng, -2, 2, n)})
    v = float(rng.integers(-4, 5)) / 4.0
    q = paql.validate(paql.PackageQuery(
        relation_name="T", relation_alias="R", package_name="P", repeat=1,
        global_predicates=(paql.GlobalPredicate(
            paql.AggregateExpr(paql.AVG, attr="x"), op, v),),
    ), rel.schema)
    m = translate(q, rel)
    coeffs, lo, hi = only_row(m)
    np.testing.assert_allclose(coeffs, rel.column("x") - v)
    assert (lo, hi) == ((-np.inf, 0.0) if op == "<=" else (0.0, np.inf))
    assert feasible(m, np.zeros(n))  # empty package satisfies the linear form
    for vec in enumerate_vectors([2] * n):
        x = np.asarray(vec, dtype=float)
        total, cnt = float(rel.column("x") @ x), x.sum()
        if cnt == 0:
            continue
        avg_ok = (total / cnt <= v) if op == "<=" else (total / cnt >= v)
        assert feasible(m, x) == avg_ok
