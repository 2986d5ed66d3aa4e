import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgquery.partitioning import (
    PartitionError,
    PartitionParams,
    group_means,
    load_partitioning,
    partition,
    partition_with_epsilon,
    radius_limit_from_epsilon,
    restrict_to_ids,
    save_partitioning,
)
from pkgquery.relation import from_columns


def grid_rel(n, k, seed, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    data = rng.uniform(lo, hi, size=(n, k))
    return from_columns("D", {f"a{j}": data[:, j] for j in range(k)})


def check_valid(p, tau=None, omega=None):
    """Recompute every invariant from raw data."""
    seen = np.concatenate(p.groups) if p.m else np.array([], dtype=np.int64)
    assert len(seen) == len(set(seen.tolist()))  # disjoint
    for g, members in enumerate(p.groups):
        assert np.array_equal(np.sort(members), members)
        assert (p.gid[members] == g + 1).all()
        sub = p.points[members]
        centroid = sub.mean(axis=0)
        np.testing.assert_allclose(centroid, p.representatives[g], rtol=1e-9, atol=1e-12)
        radius = np.abs(sub - centroid).max()
        assert radius <= p.radii[g] + 1e-12
        if g not in p.degenerate:
            if tau is not None:
                assert len(members) <= tau
            if omega is not None and math.isfinite(omega):
                assert radius <= omega + 1e-9 * max(1.0, omega)


class TestPartition:
    def test_four_corners_split_into_singletons(self):
        rel = from_columns("T", {"x": [0.0, 0.0, 1.0, 1.0], "y": [0.0, 1.0, 0.0, 1.0]})
        p = partition(rel, PartitionParams(("x", "y"), 1))
        assert p.m == 4
        assert p.sizes.tolist() == [1, 1, 1, 1]
        assert p.radii.tolist() == [0.0] * 4
        assert not p.degenerate
        assert sorted(p.gid.tolist()) == [1, 2, 3, 4]

    def test_tau_n_single_group(self):
        rel = from_columns("T", {"x": [0.0, 0.0, 1.0, 1.0], "y": [0.0, 1.0, 0.0, 1.0]})
        p = partition(rel, PartitionParams(("x", "y"), 4))
        assert p.m == 1
        np.testing.assert_allclose(p.representatives[0], [0.5, 0.5])

    def test_duplicate_points_flagged_degenerate(self):
        rel = from_columns("T", {"x": [2.0] * 7})
        p = partition(rel, PartitionParams(("x",), 2))
        assert p.m == 1
        assert p.degenerate == {0}
        assert p.sizes.tolist() == [7]

    def test_categorical_attr_rejected(self, recipes):
        with pytest.raises(PartitionError, match="not numeric"):
            partition(recipes, PartitionParams(("gluten",), 2))

    def test_tau_zero_rejected(self):
        with pytest.raises(PartitionError, match=">= 1"):
            PartitionParams(("x",), 0)

    @pytest.mark.parametrize("omega", [-0.5, math.nan])
    def test_bad_radius_limit_rejected(self, omega):
        # a NaN limit is never met: partition would split down to identical
        # points and flag every group degenerate
        with pytest.raises(PartitionError, match="radius limit"):
            PartitionParams(("x",), 2, omega)

    def test_radius_limit_drives_splitting(self):
        rel = grid_rel(400, 2, seed=3)
        p = partition(rel, PartitionParams(("a0", "a1"), 400, omega=0.2))
        assert p.m > 1
        check_valid(p, tau=400, omega=0.2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(10, 300))
    def test_validity_property(self, seed, k, n):
        rng = np.random.default_rng(seed)
        tau = int(rng.integers(1, n + 1))
        omega = float(rng.choice([math.inf, 0.3, 0.6]))
        rel = grid_rel(n, k, seed)
        p = partition(rel, PartitionParams(tuple(f"a{j}" for j in range(k)), tau, omega))
        assert sorted(np.concatenate(p.groups).tolist()) == list(range(n))
        check_valid(p, tau=tau, omega=omega)


class TestRadiusLimit:
    def test_example(self):
        assert radius_limit_from_epsilon(np.array([[10.0, 20.0]]), 0.1, "max") == pytest.approx(1.0)

    def test_zero_epsilon(self):
        assert radius_limit_from_epsilon(np.array([[10.0, 20.0]]), 0.0, "max") == 0.0
        assert radius_limit_from_epsilon(np.array([[10.0, 20.0]]), 0.0, "min") == 0.0

    def test_zero_valued_attribute_forces_exact(self):
        assert radius_limit_from_epsilon(np.array([[10.0, 0.0]]), 0.5, "max") == 0.0

    def test_minimization_scale(self):
        got = radius_limit_from_epsilon(np.array([[10.0]]), 1.0, "min")
        assert got == pytest.approx(5.0)  # eps/(1+eps) = 1/2

    def test_direction_ranges(self):
        with pytest.raises(PartitionError):
            radius_limit_from_epsilon(np.array([[1.0]]), 1.0, "max")
        with pytest.raises(PartitionError):
            radius_limit_from_epsilon(np.array([[1.0]]), -0.1, "min")
        with pytest.raises(PartitionError):
            radius_limit_from_epsilon(np.array([[1.0]]), 0.1, "sideways")

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_nan_epsilon_rejected(self, direction):
        with pytest.raises(PartitionError, match="epsilon"):
            radius_limit_from_epsilon(np.array([[1.0]]), math.nan, direction)
        rel = grid_rel(50, 2, seed=2)
        with pytest.raises(PartitionError, match="epsilon"):
            partition_with_epsilon(rel, ("a0", "a1"), 10, math.nan, direction)

    @pytest.mark.parametrize("eps,direction", [(0.05, "max"), (0.1, "max"),
                                               (0.25, "max"), (0.5, "min")])
    def test_group_closeness_after_fixed_point(self, eps, direction):
        rel = grid_rel(300, 2, seed=11)
        p = partition_with_epsilon(rel, ("a0", "a1"), 40, eps, direction)
        for g, members in enumerate(p.groups):
            rep = p.representatives[g]
            vals = p.points[members]
            assert np.all(vals >= (1 - eps) * rep - 1e-12)
            assert np.all(rep >= (1 - eps) * vals - 1e-12)

    def test_epsilon_zero_gives_exact_groups(self):
        rel = from_columns("T", {"x": [1.0, 1.0, 2.0, 2.0, 3.0]})
        p = partition_with_epsilon(rel, ("x",), 3, 0.0, "max")
        assert p.omega == 0.0
        assert all(r == 0.0 for r in p.radii)


class TestShrink:
    def test_empty_groups_dropped(self):
        rel = from_columns("T", {"x": [0.0, 0.0, 10.0, 10.0]})
        p = partition(rel, PartitionParams(("x",), 2))
        p2 = restrict_to_ids(p, [0, 1])
        assert p2.m == 1
        assert p2.sizes.tolist() == [2]


class TestIo:
    def test_roundtrip(self, tmp_path):
        rel = grid_rel(120, 3, seed=9)
        p = partition(rel, PartitionParams(("a0", "a1", "a2"), 20, omega=0.8))
        path = tmp_path / "p.json"
        save_partitioning(p, path)
        back = load_partitioning(path, rel)
        assert back.m == p.m
        assert back.tau == p.tau and back.omega == p.omega
        assert back.gid.tolist() == p.gid.tolist()
        np.testing.assert_allclose(back.representatives, p.representatives)
        assert back.degenerate == p.degenerate

    def test_file_format_is_pinned(self, tmp_path):
        rel = from_columns("D", {"x": [0.0, 0.0, 0.0, 1.0, 1.0, 0.1, 3.0],
                                 "y": [0.0, 0.0, 0.0, 1.0, 0.5, 0.7, 3.0]})
        p = partition(rel, PartitionParams(("x", "y"), 2, omega=1.5))
        save_partitioning(p, tmp_path / "p.json")
        assert (tmp_path / "p.json").read_bytes() == (
            b'{"attrs": ["x", "y"], "tau": 2, "omega": 1.5, "gids": [3, 3, 3, 2, 1, 4, 2], '
            b'"representatives": [[1.0, 0.5], [2.0, 2.0], [0.0, 0.0], [0.1, 0.7]], '
            b'"radii": [0.0, 1.0, 0.0, 0.0], "sizes": [1, 2, 3, 1], "degenerate": [3]}')

    def test_infinite_omega_io(self, tmp_path):
        rel = grid_rel(20, 1, seed=2)
        p = partition(rel, PartitionParams(("a0",), 5))
        save_partitioning(p, tmp_path / "p.json")
        back = load_partitioning(tmp_path / "p.json", rel)
        assert math.isinf(back.omega)

    def test_size_mismatch_detected(self, tmp_path):
        rel = grid_rel(20, 1, seed=2)
        p = partition(rel, PartitionParams(("a0",), 5))
        save_partitioning(p, tmp_path / "p.json")
        with pytest.raises(PartitionError, match="covers"):
            load_partitioning(tmp_path / "p.json", grid_rel(19, 1, seed=2))


    def test_roundtrip_keeps_groups(self, tmp_path):
        rel = grid_rel(500, 2, seed=4)
        p = partition(rel, PartitionParams(("a0", "a1"), 7))
        save_partitioning(p, tmp_path / "p.json")
        back = load_partitioning(tmp_path / "p.json", rel)
        assert len(back.groups) == p.m
        for mine, theirs in zip(back.groups, p.groups):
            assert mine.tolist() == theirs.tolist()
        assert back.sizes.tolist() == p.sizes.tolist()
        check_valid(back, tau=7)

    def test_gid_outside_range_joins_no_group(self, tmp_path):
        rel = grid_rel(6, 1, seed=1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "attrs": ["a0"], "tau": 3, "omega": "inf",
            "gids": [2, 0, 1, 5, 2, -1], "representatives": [[1.0], [1.0]],
            "radii": [0.0, 0.0], "sizes": [1, 2], "degenerate": []}))
        back = load_partitioning(path, rel)
        assert [g.tolist() for g in back.groups] == [[2], [0, 4]]

    def test_tampered_sizes_detected(self, tmp_path):
        rel = grid_rel(60, 1, seed=2)
        p = partition(rel, PartitionParams(("a0",), 10))
        path = tmp_path / "p.json"
        save_partitioning(p, path)
        d = json.loads(path.read_text())
        d["sizes"][0] += 1
        d["sizes"][-1] -= 1
        path.write_text(json.dumps(d))
        with pytest.raises(PartitionError, match="stored sizes disagree"):
            load_partitioning(path, rel)


class TestGroupMeans:
    def test_extra_attribute_means(self):
        rel = from_columns("T", {"x": [0.0, 0.0, 4.0, 4.0], "y": [1.0, 3.0, 5.0, 7.0]})
        p = partition(rel, PartitionParams(("x",), 2))
        means = group_means(p, rel, ["x", "y"])
        for g, members in enumerate(p.groups):
            assert means[g, 0] == pytest.approx(rel.column("x")[members].mean())
            assert means[g, 1] == pytest.approx(rel.column("y")[members].mean())
