"""Synthetic datasets and randomized query workloads.

Workload queries follow the benchmark recipe: REPEAT 0, a COUNT >= 1
guard, and SUM constraints whose bounds are drawn uniformly from the
attribute's value range scaled by the expected package size. Everything is
seed-reproducible.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import paql
from .relation import Relation, from_columns


class GenerateError(Exception):
    pass


def gen_dataset(rows: int, cols: int, seed: int, dist: str = "uniform",
                low: float = 0.0, high: float = 1.0, mean: float = 0.0,
                sigma: float = 1.0, grid: Optional[float] = None,
                name: str = "synthetic") -> Relation:
    """Numeric relation with columns a0..a{cols-1} drawn i.i.d.

    ``grid`` snaps values to multiples of a step (use a power of two such
    as 1/64 for exact float sums); quantized values keep the exact solver
    fast because objective bounds then snap to the same grid.
    """
    if rows < 0 or cols < 1:
        raise GenerateError("need rows >= 0 and cols >= 1")
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        if not low < high:
            raise GenerateError(f"uniform range must have low < high, got [{low}, {high}]")
        data = rng.uniform(low, high, size=(rows, cols))
    elif dist == "normal":
        if sigma <= 0:
            raise GenerateError(f"normal sigma must be > 0, got {sigma}")
        data = rng.normal(mean, sigma, size=(rows, cols))
    else:
        raise GenerateError(f"unknown distribution {dist!r}")
    if grid is not None:
        if grid <= 0:
            raise GenerateError(f"grid step must be > 0, got {grid}")
        data = np.round(data / grid) * grid
    return from_columns(name, {f"a{j}": data[:, j] for j in range(cols)})


def _sum_bound(rng: np.random.Generator, lo: float, hi: float,
               expected_size: int) -> float:
    # a random value in the attribute's range, scaled by the expected
    # number of tuples in a feasible package
    return float(rng.uniform(lo, hi) * expected_size)


_COUNT_WINDOW_MAX = "count_window_max"
_PINNED_WINDOW_MIN = "pinned_window_min"
_COVER_MIN_COUNT = "cover_min_count"
_CAPPED_MAX = "capped_max"
_COUNT_WINDOW_MIN = "count_window_min"

_SHAPES = (_COUNT_WINDOW_MAX, _PINNED_WINDOW_MIN, _COVER_MIN_COUNT,
           _CAPPED_MAX, _COUNT_WINDOW_MIN)


def gen_workload(rel: Relation, count: int, seed: int, expected_size: int = 5,
                 wide: bool = False) -> list[paql.PackageQuery]:
    """Randomized single-relation workload over a numeric dataset.

    Every query uses REPEAT 0 and bounds the package cardinality one way
    or another (a COUNT pin, window, cap, or a COUNT objective), matching
    the shapes of real benchmark package queries; SUM bounds are random
    values in the attribute's range scaled by the expected package size.
    ``wide`` loosens windows for low-selectivity workloads. Queries
    rotate deterministically through the five shapes.
    """
    rng = np.random.default_rng(seed)
    attrs = list(rel.numeric_attrs())
    if not attrs:
        raise GenerateError("workload generation needs numeric attributes")
    if rel.n == 0:
        raise GenerateError("workload generation needs a non-empty relation")
    stats = {a: (float(rel.column(a).min()), float(rel.column(a).max()))
             for a in attrs}
    s = max(int(expected_size), 1)

    def sum_agg(attr):
        return paql.AggregateExpr(paql.SUM, attr=attr)

    count_agg = paql.AggregateExpr(paql.COUNT)
    queries = []
    for i in range(count):
        shape = _SHAPES[i % len(_SHAPES)]
        order = list(rng.permutation(attrs))
        attr_a, attr_obj = order[0], order[-1]
        lo_a, hi_a = stats[attr_a]
        window_lo = _sum_bound(rng, lo_a, (lo_a + hi_a) / 2, s)
        width = rng.uniform(0.5, 2.0) * (hi_a - lo_a) * (s if wide else 1.0)
        window = (window_lo, window_lo + width)
        cap = _sum_bound(rng, (lo_a + hi_a) / 2, hi_a, s)
        cnt_lo = int(rng.integers(1, s + 1))
        cnt_hi = cnt_lo + int(rng.integers(s if wide else 1, 2 * s))

        if shape == _COUNT_WINDOW_MAX:
            preds = [paql.GlobalPredicate(count_agg, "between",
                                          (float(cnt_lo), float(cnt_hi)))]
            objective = paql.Objective(paql.MAXIMIZE, sum_agg(attr_obj))
        elif shape == _PINNED_WINDOW_MIN:
            preds = [
                paql.GlobalPredicate(count_agg, "=", float(s)),
                paql.GlobalPredicate(sum_agg(attr_a), "between",
                                     (s * lo_a, s * lo_a + width + s * (hi_a - lo_a) / 2)),
            ]
            objective = paql.Objective(paql.MINIMIZE, sum_agg(attr_obj))
        elif shape == _COVER_MIN_COUNT:
            preds = [
                paql.GlobalPredicate(sum_agg(attr_a), ">=", window_lo),
                paql.GlobalPredicate(count_agg, ">=", 1.0),
            ]
            objective = paql.Objective(paql.MINIMIZE, count_agg)
        elif shape == _CAPPED_MAX:
            preds = [
                paql.GlobalPredicate(count_agg, "<=", float(cnt_hi)),
                paql.GlobalPredicate(sum_agg(attr_a), "<=", cap),
                paql.GlobalPredicate(count_agg, ">=", 1.0),
            ]
            objective = paql.Objective(paql.MAXIMIZE, sum_agg(attr_obj))
        else:
            preds = [
                paql.GlobalPredicate(count_agg, "between",
                                     (float(cnt_lo), float(cnt_hi))),
                paql.GlobalPredicate(sum_agg(attr_a), "<=",
                                     cap + (hi_a * s if wide else 0.0)),
            ]
            objective = paql.Objective(paql.MINIMIZE, sum_agg(attr_obj))

        q = paql.PackageQuery(
            relation_name=rel.schema.name,
            relation_alias="R",
            package_name="P",
            repeat=0,
            global_predicates=tuple(preds),
            objective=objective,
        )
        queries.append(paql.validate(q, rel.schema))
    return queries


def queries_to_files(queries: Sequence[paql.PackageQuery], out_dir) -> list[str]:
    """Write one .paql file per query; returns the file paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, q in enumerate(queries):
        path = os.path.join(out_dir, f"query_{i:03d}.paql")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(paql.to_paql(q) + "\n")
        paths.append(path)
    return paths
