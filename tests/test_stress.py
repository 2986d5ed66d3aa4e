"""Adversarial and differential checks beyond the unit suites.

The solver is compared against an independent MILP implementation at
sizes the brute-force oracle cannot enumerate, and the refinement
machinery is driven through engineered failure orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dyadic, highs_optimum
from pkgquery import paql
from pkgquery.evaluate import (
    FEASIBLE,
    INFEASIBLE,
    EvalConfig,
    eval_direct,
    eval_sketchrefine,
)
from pkgquery.generate import gen_dataset, gen_workload
from pkgquery.ilp import derive_bounds, translate
from pkgquery.partitioning import PartitionParams, Partitioning, partition
from pkgquery.relation import from_columns
from pkgquery.solver import solve


def q_of(text, rel):
    return paql.validate(paql.parse(text), rel.schema)


def _midsize_case(seed):
    """Mixed-sign data with count-pinned constraint shapes (kept exactly
    solvable; unpinned sum windows over continuous data are out of reach
    for any cut-free search)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 110))
    rel = from_columns("T", {
        "x": dyadic(rng, -2, 2, n),
        "y": dyadic(rng, 0.25, 2, n),
        "z": dyadic(rng, -1, 3, n),
    })
    repeat = int(rng.integers(0, 3))
    cap = int(rng.integers(2, 7))
    parts = [f"COUNT(P.*) <= {cap}"]
    roll = rng.integers(0, 4)
    if roll == 0:
        parts.append(f"COUNT(P.*) = {int(rng.integers(1, cap + 1))}")
    elif roll == 1:
        parts.append(f"COUNT(P.*) >= {int(rng.integers(1, cap + 1))}")
    elif roll == 2:
        parts.append(f"SUM(P.y) <= {rng.integers(2, 8 * cap) / 4.0}")
    else:
        parts.append(f"AVG(P.x) {'<=' if rng.integers(0, 2) else '>='} "
                     f"{rng.integers(-4, 5) / 4.0}")
    if rng.integers(0, 2):
        parts.append("(SELECT COUNT(*) FROM P WHERE P.z > 0) >= "
                     "(SELECT COUNT(*) FROM P WHERE P.x <= 0)")
    direction = "MAXIMIZE" if rng.integers(0, 2) else "MINIMIZE"
    agg = "COUNT(P.*)" if rng.integers(0, 3) == 0 else \
        f"SUM(P.{rng.choice(['x', 'y', 'z'])})"
    text = (f"SELECT PACKAGE(R) AS P FROM T R REPEAT {repeat} SUCH THAT "
            f"{' AND '.join(parts)} {direction} {agg}")
    return rel, q_of(text, rel)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_solver_matches_reference_milp(seed):
    rel, q = _midsize_case(seed)
    m = derive_bounds(translate(q, rel))
    mine = solve(m, 60)
    ref_status, ref_obj = highs_optimum(m)
    assert mine.status == {"optimal": "optimal", "infeasible": "infeasible"}[ref_status]
    if ref_status == "optimal":
        assert mine.objective == pytest.approx(ref_obj, abs=1e-6), f"seed {seed}"


@pytest.mark.parametrize("seed", [1, 2])
def test_solver_matches_reference_milp_at_package_scale(seed):
    # the regime the engine runs in: a few rows over a thousand columns of
    # unquantized data, where the B&B search really branches
    rel = gen_dataset(1000, 4, seed, low=0.5, high=2.0)
    for i, q in enumerate(gen_workload(rel, 5, seed + 1, expected_size=8)):
        m = derive_bounds(translate(q, rel))
        mine = solve(m, 60)
        ref_status, ref_obj = highs_optimum(m)
        assert mine.status == ref_status, f"seed {seed} query {i}"
        if ref_status == "optimal":
            assert mine.objective == pytest.approx(ref_obj, rel=1e-6), \
                f"seed {seed} query {i}"


def _exact_sum_trap():
    """Feasible query that defeats refinement under a hostile grouping.

    Packages must hit SUM(x) = 11 with one tuple from each cluster; every
    single-group refinement against the other group's representative
    (1.5 or 9.5) misses the exact target, so both root orders fail and the
    hybrid fallback cannot help either.
    """
    rel = from_columns("R", {"x": [1.0, 2.0, 9.0, 10.0]})
    q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
             "SUCH THAT COUNT(P.*) = 2 AND SUM(P.x) = 11.0 "
             "MAXIMIZE SUM(P.x)", rel)
    p = partition(rel, PartitionParams(("x",), 2))
    assert [g.tolist() for g in p.groups] == [[0, 1], [2, 3]]
    return rel, q, p


class TestEngineeredRefinement:
    def test_false_infeasibility_is_reported_not_fabricated(self):
        rel, q, p = _exact_sum_trap()
        assert eval_direct(q, rel).status == FEASIBLE  # truly feasible
        report = eval_sketchrefine(q, rel, p, EvalConfig(seed=0))
        assert report.status == INFEASIBLE
        assert "refine_exhausted" in report.flags
        # both root orders were attempted before giving up
        assert report.subproblems["refine"] >= 2

    def test_finer_partitioning_recovers_the_answer(self):
        rel, q, _ = _exact_sum_trap()
        singletons = partition(rel, PartitionParams(("x",), 1))
        report = eval_sketchrefine(q, rel, singletons, EvalConfig(seed=0))
        assert report.status == FEASIBLE
        assert report.objective == pytest.approx(11.0)

    def test_backtracking_recovers_order_dependent_case(self):
        # refining the coarse group first overshoots; backtracking must
        # reorder and still assemble a feasible package
        rel = from_columns("R", {"x": [4.0, 6.0, 2.0, 2.0]})
        q = q_of("SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 2 AND SUM(P.x) BETWEEN 6.0 AND 6.0 "
                 "MINIMIZE SUM(P.x)", rel)
        groups = (np.array([0, 1]), np.array([2, 3]))
        p = Partitioning(
            attrs=("x",), tau=2, omega=np.inf, n=4,
            groups=groups, sizes=np.array([2, 2]),
            radii=np.array([1.0, 0.0]), representatives=np.array([[5.0], [2.0]]),
            degenerate=frozenset())
        for seed in range(6):
            report = eval_sketchrefine(q, rel, p, EvalConfig(seed=seed))
            assert report.status == FEASIBLE, f"seed {seed}: {report.flags}"
            assert report.objective == pytest.approx(6.0)

    def test_determinism_across_hybrid_path(self):
        rel, q, p = _exact_sum_trap()
        runs = [eval_sketchrefine(q, rel, p, EvalConfig(seed=3)) for _ in range(2)]
        assert runs[0].status == runs[1].status
        assert runs[0].subproblems == runs[1].subproblems
        assert runs[0].flags == runs[1].flags


class TestDegenerateSimplex:
    def test_many_duplicate_rows(self):
        # heavy ties force degenerate pivots; Bland's fallback must land
        rel = from_columns("T", {"x": [1.0] * 60 + [2.0] * 60,
                                 "y": [0.5] * 120})
        q = q_of("SELECT PACKAGE(R) AS P FROM T R REPEAT 0 "
                 "SUCH THAT COUNT(P.*) = 30 AND SUM(P.x) <= 40.0 "
                 "MAXIMIZE SUM(P.x)", rel)
        res = solve(derive_bounds(translate(q, rel)), 30)
        assert res.status == "optimal"
        # 30 items, sum capped at 40: take 10 twos and 20 ones
        assert res.objective == pytest.approx(40.0)

    def test_equality_heavy_model(self):
        rng = np.random.default_rng(5)
        rel = from_columns("T", {"x": dyadic(rng, 0.25, 2, 40),
                                 "y": dyadic(rng, 0.25, 2, 40)})
        q = q_of("SELECT PACKAGE(R) AS P FROM T R REPEAT 1 "
                 "SUCH THAT COUNT(P.*) = 7 AND AVG(P.x) <= 1.5 "
                 "AND AVG(P.x) >= 0.5 MINIMIZE SUM(P.y)", rel)
        m = derive_bounds(translate(q, rel))
        mine = solve(m, 30)
        ref_status, ref_obj = highs_optimum(m)
        assert mine.status == "optimal" and ref_status == "optimal"
        assert mine.objective == pytest.approx(ref_obj, abs=1e-6)
