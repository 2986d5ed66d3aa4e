"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Headline solver-runtime numbers from large benchmark rigs are
not reproducible at desk scale; acceptance therefore rests on exact
oracles, bound properties with zero tolerance for violations, and
qualitative trend reproduction, per the stated thresholds.
"""

import math
import statistics
import time
import zlib

import numpy as np
import pytest

from helpers import (
    brute_force,
    dyadic,
    gen_raw_ilp,
    model_from_raw,
    package_satisfies,
    var_index,
)
from pkgquery import paql
from pkgquery.evaluate import (
    FEASIBLE,
    INFEASIBLE,
    EvalConfig,
    approximation_ratio,
    eval_direct,
    eval_sketchrefine,
)
from pkgquery.generate import gen_dataset, gen_workload
from pkgquery.ilp import derive_bounds, feasible, ilp_to_paql, translate
from pkgquery.partitioning import PartitionParams, partition, partition_with_epsilon
from pkgquery.relation import from_columns
from pkgquery.solver import solve


def q_of(text, rel):
    return paql.validate(paql.parse(text), rel.schema)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def _random_pair(seed):
    """Random (relation, query) pair with a brute-forceable bound box.

    REPEAT alone fixes the box (bound derivation never tightens finite
    bounds), so n shrinks as the repetition allowance grows."""
    rng = np.random.default_rng(seed)
    repeat = int(rng.integers(0, 3))
    n = int(rng.integers(1, {0: 13, 1: 13, 2: 11}[repeat]))
    cap = int(rng.integers(1, 5))
    rel = from_columns("T", {
        "x": dyadic(rng, -2, 2, n),
        "y": dyadic(rng, 0.25, 2, n),
    })
    parts = [f"COUNT(P.*) <= {cap}"]
    if rng.integers(0, 2):
        parts.append(f"SUM(P.y) {'<=' if rng.integers(0, 2) else '>='} "
                     f"{rng.integers(0, 8 * cap + 1) / 4.0}")
    if rng.integers(0, 2):
        parts.append(f"AVG(P.x) {'<=' if rng.integers(0, 2) else '>='} "
                     f"{rng.integers(-4, 5) / 4.0}")
    if rng.integers(0, 3) == 0:
        parts.append(f"COUNT(P.*) >= {int(rng.integers(1, cap + 1))}")
    direction = "MAXIMIZE" if rng.integers(0, 2) else "MINIMIZE"
    attr = "x" if rng.integers(0, 2) else "y"
    text = (f"SELECT PACKAGE(R) AS P FROM T R REPEAT {repeat} SUCH THAT "
            f"{' AND '.join(parts)} {direction} SUM(P.{attr})")
    return rel, q_of(text, rel)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(500):
        rel, q = _random_pair(seed)
        model = derive_bounds(translate(q, rel))
        exact = eval_direct(q, rel)
        oracle = brute_force(model)
        status = {"optimal": FEASIBLE, "infeasible": INFEASIBLE}[oracle.status]
        assert exact.status == status, f"seed {seed}: {exact.status} vs {oracle.status}"
        if status == FEASIBLE:
            assert abs(exact.objective - oracle.objective) <= 1e-6, f"seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 500
    assert elapsed <= 120, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"direct evaluation matched brute force on {checked} random "
               f"(relation, query) pairs in {elapsed:.1f}s")


def test_criterion_2_translation_soundness():
    rng = np.random.default_rng(99)
    instances = 0
    vectors = 0
    for seed in range(30):
        rel, q = _random_pair(10_000 + seed)
        m = derive_bounds(translate(q, rel))
        if m.n_vars == 0:
            continue
        instances += 1
        uppers = m.upper.astype(int)
        for _ in range(1000):
            x = rng.integers(0, uppers + 1).astype(float)
            package = {int(m.var_ids[i]): int(v) for i, v in enumerate(x) if v}
            assert feasible(m, x) == package_satisfies(q, rel, package)
            vectors += 1
    assert instances >= 20 and vectors >= 20_000
    _report(2, f"linearized feasibility agreed with direct aggregation on "
               f"{vectors} random multiplicity vectors over {instances} instances")


def test_criterion_3_reduction_roundtrip():
    agree = 0
    for seed in range(200):
        raw = gen_raw_ilp(seed)
        rel, q = ilp_to_paql(raw)
        via_query = solve(derive_bounds(translate(q, rel)))
        oracle = brute_force(derive_bounds(model_from_raw(raw)))
        assert via_query.status == oracle.status, f"seed {seed}"
        if oracle.status == "optimal":
            assert abs(via_query.objective - oracle.objective) <= 1e-6, f"seed {seed}"
        agree += 1
    _report(3, f"generic-ILP reduction round-tripped to identical optima on "
               f"{agree} random instances")


def _theorem_case(seed, direction, eps):
    """All-positive clustered data plus a witness-anchored query.

    The query pins the package size and windows one attribute sum around a
    real witness package, so the direct method is always feasible; the
    window widens with eps so the sketch stays feasible often enough."""
    rng = np.random.default_rng(seed)
    n_clusters = int(rng.integers(6, 14))
    per = int(rng.integers(4, 9))
    centers = rng.uniform(1.0, 2.0, size=(n_clusters, 2))
    jitter = rng.uniform(-0.015, 0.015, size=(n_clusters * per, 2))
    pts = np.repeat(centers, per, axis=0) * (1.0 + jitter)
    rel = from_columns("D", {"u": pts[:, 0], "v": pts[:, 1]})
    s = int(rng.integers(2, 6))
    witness = rng.choice(rel.n, size=s, replace=False)
    su = float(rel.column("u")[witness].sum())
    delta = 0.15 + 1.6 * eps
    text = (f"SELECT PACKAGE(R) AS P FROM D R REPEAT 0 SUCH THAT "
            f"COUNT(P.*) = {s} AND "
            f"SUM(P.u) BETWEEN {su * (1 - delta)} AND {su * (1 + delta)} "
            f"{'MAXIMIZE' if direction == 'max' else 'MINIMIZE'} SUM(P.v)")
    q = q_of(text, rel)
    tau = max(2, rel.n // 6)
    p = partition_with_epsilon(rel, ("u", "v"), tau, eps, direction)
    return rel, q, p


def test_criterion_4_approximation_bound():
    cfg = EvalConfig(time_limit=60)
    checked_max = checked_min = skipped = 0
    for eps in (0.05, 0.1, 0.25):
        for direction, want in (("max", 40), ("min", 12)):
            done = 0
            seed = 0
            while done < want:
                seed += 1
                # crc32, not hash(): a str's hash changes with PYTHONHASHSEED
                case_seed = zlib.crc32(repr((eps, direction, seed)).encode()) % 10**6
                rel, q, p = _theorem_case(case_seed, direction, eps)
                direct = eval_direct(q, rel, cfg)
                assert direct.status == FEASIBLE  # witness-anchored window
                sr = eval_sketchrefine(q, rel, p, cfg)
                if sr.status != FEASIBLE:
                    skipped += 1  # false infeasibility is permitted here
                    continue
                if direction == "max":
                    floor_val = (1 - eps) ** 6 * direct.objective
                    assert sr.objective >= floor_val - 1e-9, (
                        f"eps={eps} seed={seed}: {sr.objective} < {floor_val}")
                    checked_max += 1
                else:
                    ceil_val = (1 + eps) ** 6 * direct.objective
                    assert sr.objective <= ceil_val + 1e-9, (
                        f"eps={eps} seed={seed}: {sr.objective} > {ceil_val}")
                    checked_min += 1
                done += 1
    # exact partitionings reproduce the direct objective
    exact_cases = 0
    for seed in range(8):
        for direction in ("max", "min"):
            rel, q, p = _theorem_case(7_000 + seed, direction, 0.0)
            direct = eval_direct(q, rel, cfg)
            sr = eval_sketchrefine(q, rel, p, EvalConfig(time_limit=60))
            if sr.status != FEASIBLE:
                skipped += 1
                continue
            ratio = approximation_ratio(direct, sr, q.objective.direction)
            assert abs(ratio - 1.0) <= 1e-6, f"eps=0 ratio {ratio}"
            exact_cases += 1
    assert checked_max >= 100 and checked_min >= 30 and exact_cases >= 10
    _report(4, f"objective bound held on {checked_max} maximization and "
               f"{checked_min} minimization runs (0 violations, {skipped} "
               f"skipped as infeasible); {exact_cases} exact-partition runs "
               f"reproduced the direct objective")


def test_criterion_5_feasibility_guarantee():
    cfg = EvalConfig(time_limit=60)
    returned = 0
    for seed in range(150):
        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(20, 80))
        rel = from_columns("R", {"x": dyadic(rng, 0.5, 2.0, n),
                                 "y": dyadic(rng, 0.5, 2.0, n)})
        (q,) = gen_workload(rel, 1, seed=seed, expected_size=int(rng.integers(2, 6)))
        tau = int(rng.integers(2, max(3, n // 2)))
        p = partition(rel, PartitionParams(("x", "y"), tau))
        report = eval_sketchrefine(q, rel, p, EvalConfig(seed=seed, time_limit=60))
        if report.status != FEASIBLE:
            continue
        m = translate(q, rel)
        x = np.zeros(m.n_vars)
        idx = var_index(m)
        for t, mult in report.package.items():
            x[idx[t]] = mult
        assert feasible(m, x), f"seed {seed}: returned package violates the query"
        assert package_satisfies(q, rel, report.package), f"seed {seed}"
        returned += 1
    assert returned >= 100
    _report(5, f"all {returned} packages returned by the sketch-based method "
               f"satisfied their query constraints (0 violations)")


def test_criterion_6_partitioner_contract():
    rng = np.random.default_rng(123)
    datasets = 0
    for seed in range(50):
        n = int(rng.choice([200, 1000, 5000, 20_000, 100_000],
                           p=[0.3, 0.25, 0.25, 0.15, 0.05]))
        k = int(rng.integers(1, 5))
        tau = int(rng.integers(1, n + 1))
        omega = float(rng.choice([math.inf, 0.5, 0.2]))
        rel = gen_dataset(n, k, seed=seed, low=0.0, high=2.0)
        attrs = tuple(f"a{j}" for j in range(k))
        p = partition(rel, PartitionParams(attrs, tau, omega))
        assert sorted(np.concatenate(p.groups).tolist()) == list(range(n))
        pts = np.column_stack([rel.column(a) for a in attrs])
        for g, members in enumerate(p.groups):
            sub = pts[members]
            centroid = sub.mean(axis=0)
            np.testing.assert_allclose(centroid, p.representatives[g],
                                       rtol=1e-9, atol=1e-12)
            if g in p.degenerate:
                continue
            assert len(members) <= tau
            if math.isfinite(omega):
                radius = float(np.abs(sub - centroid).max())
                assert radius <= omega + 1e-9
        datasets += 1
    assert datasets == 50
    _report(6, "size, radius, and centroid contracts held on 50 random "
               "datasets up to 100k rows, recomputed from raw data")


@pytest.fixture(scope="module")
def speedup_fixture():
    rel = gen_dataset(50_000, 4, seed=11, low=0.5, high=2.0, grid=1 / 64)
    queries = gen_workload(rel, 5, seed=5, expected_size=8)
    return rel, queries


def test_criterion_7_speedup_trend(speedup_fixture):
    t0 = time.perf_counter()
    rel, queries = speedup_fixture
    attrs = tuple(rel.numeric_attrs())
    p = partition(rel, PartitionParams(attrs, 5000))
    cfg = EvalConfig(time_limit=120)
    direct_times, sr_times, ratios = [], [], []
    for q in queries:
        d_runs, s_runs = [], []
        for _ in range(3):
            d = eval_direct(q, rel, cfg)
            s = eval_sketchrefine(q, rel, p, cfg)
            assert d.status == FEASIBLE and s.status == FEASIBLE
            d_runs.append(d.timings_ms["total_ms"])
            s_runs.append(s.timings_ms["total_ms"])
        direct_times.append(statistics.median(d_runs))
        sr_times.append(statistics.median(s_runs))
        ratios.append(approximation_ratio(d, s, q.objective.direction))
    med_d = statistics.median(direct_times)
    med_s = statistics.median(sr_times)
    med_ratio = statistics.median(ratios)
    elapsed = time.perf_counter() - t0
    assert med_s <= 0.5 * med_d, (f"median {med_s:.2f}ms vs direct {med_d:.2f}ms, "
                                  f"ratio {med_s / med_d:.3f}")
    assert med_ratio <= 2.0, f"median approximation ratio {med_ratio}"
    assert elapsed <= 600, f"criterion 7 took {elapsed:.0f}s"
    _report(7, f"sketch-based median {med_s:.2f}ms <= 0.5 x direct median "
               f"{med_d:.2f}ms (ratio {med_s / med_d:.3f}) on the 50k-row workload; "
               f"median approximation ratio {med_ratio:.3f} (elapsed {elapsed:.0f}s)")


def test_criterion_8_tau_sweep_u_shape(speedup_fixture):
    rel, queries = speedup_fixture
    attrs = tuple(rel.numeric_attrs())
    cfg = EvalConfig(time_limit=120)
    fractions = [0.002, 0.02, 0.1, 1.0]
    means = {}
    for frac in fractions:
        tau = max(1, int(round(frac * rel.n)))
        p = partition(rel, PartitionParams(attrs, tau))
        times = []
        for q in queries:
            runs = []
            for _ in range(2):
                rep = eval_sketchrefine(q, rel, p, cfg)
                assert rep.status == FEASIBLE
                runs.append(rep.timings_ms["total_ms"])
            times.append(statistics.median(runs))
        means[frac] = statistics.fmean(times)
    smallest, largest = means[fractions[0]], means[fractions[-1]]
    interior = min(means[f] for f in fractions[1:-1])
    assert interior < smallest, f"{means}"
    assert interior < largest, f"{means}"
    _report(8, "group-size sweep is U-shaped: interior "
               f"{interior:.1f}ms < smallest-tau {smallest:.1f}ms and "
               f"largest-tau {largest:.1f}ms "
               f"({ {f: round(v, 1) for f, v in means.items()} })")


def test_criterion_9_false_infeasibility_rate():
    rng = np.random.default_rng(31)
    rel = gen_dataset(1500, 3, seed=31, low=0.5, high=2.0, grid=1 / 64)
    attrs = tuple(rel.numeric_attrs())
    p = partition(rel, PartitionParams(attrs, 150))
    cfg = EvalConfig(time_limit=60)
    queries = gen_workload(rel, 130, seed=77, expected_size=5, wide=True)
    feasible_count = sr_infeasible = 0
    for q in queries:
        if feasible_count >= 100:
            break
        direct = eval_direct(q, rel, cfg)
        if direct.status != FEASIBLE:
            continue
        feasible_count += 1
        sr = eval_sketchrefine(q, rel, p, cfg)
        if sr.status != FEASIBLE:
            sr_infeasible += 1
    assert feasible_count >= 100
    rate = sr_infeasible / feasible_count
    assert rate <= 0.05, f"false-infeasibility rate {rate:.2%}"
    _report(9, f"false-infeasibility rate {rate:.2%} over {feasible_count} "
               f"feasible low-selectivity queries (threshold 5%)")
