import numpy as np
import pytest

from helpers import brute_force, gen_raw_ilp, model_from_raw
from pkgquery import paql
from pkgquery.generate import (
    GenerateError,
    gen_dataset,
    gen_workload,
    queries_to_files,
)
from pkgquery.ilp import derive_bounds, ilp_to_paql, translate


class TestDataset:
    def test_deterministic(self):
        a = gen_dataset(50, 3, seed=7)
        b = gen_dataset(50, 3, seed=7)
        for col in ("a0", "a1", "a2"):
            np.testing.assert_array_equal(a.column(col), b.column(col))

    def test_grid_quantization_exact(self):
        rel = gen_dataset(100, 2, seed=1, low=0.5, high=2.0, grid=1 / 64)
        vals = rel.column("a0") * 64
        np.testing.assert_array_equal(vals, np.round(vals))

    def test_normal_dist(self):
        rel = gen_dataset(500, 1, seed=3, dist="normal", mean=5.0, sigma=0.5)
        assert abs(rel.column("a0").mean() - 5.0) < 0.2

    def test_bad_params(self):
        with pytest.raises(GenerateError):
            gen_dataset(10, 0, seed=0)
        with pytest.raises(GenerateError):
            gen_dataset(10, 2, seed=0, low=2.0, high=1.0)
        with pytest.raises(GenerateError):
            gen_dataset(10, 2, seed=0, dist="cauchy")


class TestWorkload:
    def test_deterministic(self):
        rel = gen_dataset(100, 3, seed=5, low=0.5, high=2.0)
        a = gen_workload(rel, 6, seed=9)
        b = gen_workload(rel, 6, seed=9)
        assert a == b

    def test_queries_validated_and_bounded(self):
        rel = gen_dataset(100, 3, seed=5, low=0.5, high=2.0)
        for q in gen_workload(rel, 10, seed=2):
            assert q.validated
            assert q.repeat == 0
            # every query pins cardinality through a count predicate or objective
            has_count = any(
                g.lhs.kind == paql.COUNT for g in q.global_predicates
            ) or (q.objective and q.objective.expr.kind == paql.COUNT)
            assert has_count

    def test_sum_bounds_follow_range_scaling(self):
        rel = gen_dataset(200, 2, seed=5, low=0.0, high=1.0)
        s = 5
        for q in gen_workload(rel, 20, seed=3, expected_size=s):
            for g in q.global_predicates:
                if g.lhs.kind != paql.SUM:
                    continue
                bound = g.rhs
                lo = min(bound) if isinstance(bound, tuple) else bound
                assert -1e-9 <= lo <= (1.0 * s) * 2.5 + 1e-9

    def test_files(self, tmp_path):
        rel = gen_dataset(30, 2, seed=5, low=0.5, high=2.0)
        queries = gen_workload(rel, 3, seed=1)
        paths = queries_to_files(queries, tmp_path / "wl")
        assert len(paths) == 3
        again = [paql.validate(paql.load_query(p), rel.schema) for p in paths]
        assert again == queries


class TestRawIlp:
    def test_deterministic(self):
        assert gen_raw_ilp(5) == gen_raw_ilp(5)

    def test_bounded_and_in_range(self):
        for seed in range(20):
            raw = gen_raw_ilp(seed)
            assert 1 <= raw.n <= 10 and 1 <= raw.k <= 4
            flat = [v for row in raw.b for v in row] + list(raw.a)
            assert all(-5 <= v <= 5 for v in flat)
            rel, q = ilp_to_paql(raw)
            m = derive_bounds(translate(q, rel))  # must not raise
            assert np.isfinite(m.upper).all()

    def test_roundtrip_optimum(self):
        raw = gen_raw_ilp(17)
        rel, q = ilp_to_paql(raw)
        via_query = brute_force(derive_bounds(translate(q, rel)))
        direct = brute_force(derive_bounds(model_from_raw(raw)))
        assert via_query.status == direct.status
        if via_query.status == "optimal":
            assert via_query.objective == pytest.approx(direct.objective)
