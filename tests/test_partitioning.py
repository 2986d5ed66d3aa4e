import base64
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import partition_reference, restrict_reference
import pkgquery.partitioning as partitioning
from pkgquery.partitioning import (
    PartitionError,
    PartitionParams,
    Partitioning,
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


def assert_same(a, b):
    """Every field of two partitionings equal, floats bit for bit."""
    assert (a.attrs, a.tau, a.omega, a.n) == (b.attrs, b.tau, b.omega, b.n)
    assert len(a.groups) == len(b.groups)
    for mine, theirs in zip(a.groups, b.groups):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    for name in ("sizes", "radii", "representatives"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert a.degenerate == b.degenerate


def identity_rel(seed):
    """A seeded relation of 1 to 10 attributes on a coarse grid (values tie
    with centroids), with blocks of duplicates spliced in: of a grid row, of
    an off-grid row (whose mean may round off it, for a nonzero radius) and
    of an off-grid row with one copy an ulp higher."""
    rng = np.random.default_rng(seed)
    k = 1 + seed % 10
    n = int(rng.integers(1, 400))
    data = np.round(rng.uniform(0.0, 4.0, size=(n, k)) * 4) / 4
    for kind in rng.integers(0, 3, size=int(rng.integers(0, 4))):
        row = data[rng.integers(n)] if kind == 0 else rng.uniform(0.0, 4.0, k)
        block = np.repeat(row[None, :], int(rng.integers(2, 60)), axis=0)
        if kind == 2:
            block[0] = np.nextafter(row, np.inf)
        data = np.vstack([data, block])
    data = data[rng.permutation(len(data))]
    return from_columns("D", {f"a{j}": data[:, j] for j in range(k)}), rng


def wide_data_rel(n, k, seed):
    rng = np.random.default_rng(seed)
    return from_columns("D", {f"a{j}": rng.uniform(-1.0, 1.0, n) for j in range(k)})


def attr_matrix(rel, attrs):
    """The n x k matrix of a relation's values over ``attrs``."""
    return np.column_stack([rel.column(a) for a in attrs])


def check_valid(p, rel, tau=None, omega=None):
    """Recompute every invariant from raw data."""
    points = attr_matrix(rel, p.attrs)
    seen = np.concatenate(p.groups) if p.m else np.array([], dtype=np.int64)
    assert len(seen) == len(set(seen.tolist()))  # disjoint
    assert p.n == rel.n and ((0 <= seen) & (seen < p.n)).all()
    for g, members in enumerate(p.groups):
        assert np.array_equal(np.sort(members), members)
        sub = points[members]
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
        assert sorted(np.concatenate(p.groups).tolist()) == [0, 1, 2, 3]

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
        check_valid(p, rel, tau=400, omega=0.2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(10, 300))
    def test_validity_property(self, seed, k, n):
        rng = np.random.default_rng(seed)
        tau = int(rng.integers(1, n + 1))
        omega = float(rng.choice([math.inf, 0.3, 0.6]))
        rel = grid_rel(n, k, seed)
        p = partition(rel, PartitionParams(tuple(f"a{j}" for j in range(k)), tau, omega))
        assert sorted(np.concatenate(p.groups).tolist()) == list(range(n))
        check_valid(p, rel, tau=tau, omega=omega)


    @pytest.mark.parametrize("seed", range(120))
    def test_matches_reference_split_loop(self, seed):
        rel, rng = identity_rel(seed)
        attrs = tuple(rel.numeric_attrs())
        tau = 1 if seed % 3 == 0 else int(rng.integers(1, rel.n + 1))
        omega = [math.inf, 0.0, 0.25, 1.0][seed % 4]
        params = PartitionParams(attrs, tau, omega)
        assert_same(partition(rel, params), partition_reference(rel, params))

    @pytest.mark.parametrize("k", [1, 8, 9, 10])
    def test_matches_reference_on_wide_codes(self, k):
        # 2^k quadrant codes of 8 bits and of 16 bits, and deep trees
        rel = wide_data_rel(3000, k, seed=k)
        attrs = tuple(rel.numeric_attrs())
        for tau, omega in [(1, math.inf), (40, math.inf), (3000, 0.3), (200, 0.5)]:
            params = PartitionParams(attrs, tau, omega)
            assert_same(partition(rel, params), partition_reference(rel, params))

    def test_empty_relation_matches_reference(self):
        rel = from_columns("D", {"x": np.zeros(0), "y": np.zeros(0)})
        params = PartitionParams(("x", "y"), 1)
        assert_same(partition(rel, params), partition_reference(rel, params))


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
        points = attr_matrix(rel, p.attrs)
        for g, members in enumerate(p.groups):
            rep = p.representatives[g]
            vals = points[members]
            assert np.all(vals >= (1 - eps) * rep - 1e-12)
            assert np.all(rep >= (1 - eps) * vals - 1e-12)

    @pytest.mark.parametrize("seed, n, k, tau, eps, direction", [
        (19, 185, 2, 66, 0.6, "max"),
        (59, 241, 2, 180, 0.6, "min"),
    ])
    def test_fallback_to_the_raw_value_limit(self, monkeypatch, seed, n, k, tau,
                                             eps, direction):
        # seeds on which the re-partitioning reaches no fixed point, so the
        # limit falls back to gamma times the smallest raw value
        rel = grid_rel(n, k, seed, lo=0.05, hi=2.0)
        attrs = tuple(f"a{j}" for j in range(k))
        calls = []
        real_partition = partitioning.partition
        monkeypatch.setattr(partitioning, "partition",
                            lambda *args: calls.append(args) or real_partition(*args))
        p = partition_with_epsilon(rel, attrs, tau, eps, direction)
        assert len(calls) == 2 + partitioning._EPSILON_ROUNDS
        gamma = eps if direction == "max" else eps / (1 + eps)
        points = attr_matrix(rel, attrs)
        omega = gamma * float(np.abs(points).min())
        assert_same(p, real_partition(rel, PartitionParams(attrs, tau, omega)))
        for g, members in enumerate(p.groups):
            rep = p.representatives[g]
            vals = points[members]
            assert np.all(vals >= (1 - eps) * rep - 1e-12)
            assert np.all(rep >= (1 - eps) * vals - 1e-12)

    def test_epsilon_zero_gives_exact_groups(self):
        rel = from_columns("T", {"x": [1.0, 1.0, 2.0, 2.0, 3.0]})
        p = partition_with_epsilon(rel, ("x",), 3, 0.0, "max")
        assert p.omega == 0.0
        assert all(r == 0.0 for r in p.radii)

    @staticmethod
    def _recording(monkeypatch):
        """The radius limit of every ``partition`` call, from now on."""
        omegas = []
        real_partition = partitioning.partition
        monkeypatch.setattr(partitioning, "partition",
                            lambda rel, params: omegas.append(params.omega)
                            or real_partition(rel, params))
        return omegas

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_epsilon_zero_partitions_once(self, monkeypatch, direction):
        # at epsilon 0 the limit is 0 whatever the groups, so no partitioning
        # without a limit is needed to derive it
        rel = grid_rel(300, 2, seed=11)
        real_partition = partitioning.partition
        omegas = self._recording(monkeypatch)
        p = partition_with_epsilon(rel, ("a0", "a1"), 40, 0.0, direction)
        assert omegas == [0.0]
        assert_same(p, real_partition(rel, PartitionParams(("a0", "a1"), 40, 0.0)))

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_bad_direction_rejected_before_partitioning(self, monkeypatch, eps):
        rel = grid_rel(50, 2, seed=2)
        omegas = self._recording(monkeypatch)
        with pytest.raises(PartitionError, match="direction"):
            partition_with_epsilon(rel, ("a0", "a1"), 10, eps, "sideways")
        assert omegas == []


class TestShrink:
    def test_empty_groups_dropped(self):
        rel = from_columns("T", {"x": [0.0, 0.0, 10.0, 10.0]})
        p = partition(rel, PartitionParams(("x",), 2))
        p2 = restrict_to_ids(p, rel, [0, 1])
        assert p2.m == 1
        assert p2.sizes.tolist() == [2]

    def test_matches_reference(self):
        # seeded relations and keep sets, the empty one included; the
        # reference reads an n x k matrix where restrict_to_ids reads columns
        dropped = grown = empty = 0
        for seed in range(60):
            rel, rng = identity_rel(seed)
            attrs = tuple(rel.numeric_attrs())
            tau = int(rng.integers(1, rel.n + 1))
            omega = [math.inf, 0.25, 1.0][seed % 3]
            p = partition(rel, PartitionParams(attrs, tau, omega))
            points = attr_matrix(rel, attrs)
            for share in (0.0, 0.2, 0.7, 1.0):
                keep = np.nonzero(rng.random(rel.n) < share)[0]
                got = restrict_to_ids(p, rel, keep)
                assert_same(got, restrict_reference(p, points, keep))
                dropped += got.m < p.m
                grown += any(r > omega * (1 + 1e-12) for r in got.radii)
                empty += got.m == 0
        assert dropped and grown and empty


def kept_bytes(make):
    """What ``make()`` returns, and the traced bytes it still holds."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_kept_memory_is_one_id_per_member(tmp_path):
    # a partitioning holds its membership once: one int64 id per member in
    # ``groups``, and no per-tuple gid column beside it
    rel = grid_rel(20_000, 2, seed=6)
    params = PartitionParams(("a0", "a1"), 500)
    partition(rel, params)  # warm-up: first-call allocations are not kept memory
    p, built = kept_bytes(lambda: partition(rel, params))
    assert p.m == 64
    save_partitioning(p, tmp_path / "p.json")
    back, loaded = kept_bytes(lambda: load_partitioning(tmp_path / "p.json", rel))
    assert_same(back, p)
    budget = 1.5 * 8 * rel.n
    assert built <= budget and loaded <= budget, (built / (8 * rel.n), loaded / (8 * rel.n))


class TestIo:
    def test_roundtrip(self, tmp_path):
        rel = grid_rel(120, 3, seed=9)
        p = partition(rel, PartitionParams(("a0", "a1", "a2"), 20, omega=0.8))
        path = tmp_path / "p.json"
        save_partitioning(p, path)
        back = load_partitioning(path, rel)
        assert back.m == p.m
        assert back.tau == p.tau and back.omega == p.omega
        assert back.n == p.n
        assert [g.tolist() for g in back.groups] == [g.tolist() for g in p.groups]
        np.testing.assert_allclose(back.representatives, p.representatives)
        assert back.degenerate == p.degenerate

    def test_file_format_is_pinned(self, tmp_path):
        rel = from_columns("D", {"x": [0.0, 0.0, 0.0, 1.0, 1.0, 0.1, 3.0],
                                 "y": [0.0, 0.0, 0.0, 1.0, 0.5, 0.7, 3.0]})
        p = partition(rel, PartitionParams(("x", "y"), 2, omega=1.5))
        save_partitioning(p, tmp_path / "p.json")
        # gids [3, 3, 3, 2, 1, 4, 2] as one byte each, since m = 4 fits in one
        assert (tmp_path / "p.json").read_bytes() == (
            b'{"version": 2, "attrs": ["x", "y"], "tau": 2, "omega": 1.5, '
            b'"gids": "AwMDAgEEAg==", '
            b'"representatives": [[1.0, 0.5], [2.0, 2.0], [0.0, 0.0], [0.1, 0.7]], '
            b'"radii": [0.0, 1.0, 0.0, 0.0], "sizes": [1, 2, 3, 1], "degenerate": [3]}')

    @pytest.mark.parametrize("m, width", [(1, 1), (255, 1), (256, 2), (65535, 2), (65536, 4)])
    def test_gid_width_follows_group_count(self, tmp_path, m, width):
        # m singleton groups in reverse id order, built directly: partitioning
        # 65,536 tuples down to singletons takes seconds
        x = np.arange(m, dtype=np.float64)
        rel = from_columns("D", {"a0": x})
        ids = np.arange(m, dtype=np.int64)
        p = Partitioning(
            attrs=("a0",), tau=1, omega=math.inf, n=m,
            groups=tuple(np.split(ids[::-1].copy(), m)), sizes=np.ones(m, dtype=np.int64),
            radii=np.zeros(m), representatives=x[::-1].reshape(m, 1).copy(),
            degenerate=frozenset())
        save_partitioning(p, tmp_path / "p.json")
        raw = base64.b64decode(json.loads((tmp_path / "p.json").read_text())["gids"])
        assert len(raw) == m * width
        assert np.array_equal(np.frombuffer(raw, dtype=f"<u{width}"), m - ids)
        assert_same(load_partitioning(tmp_path / "p.json", rel), p)

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
        check_valid(back, rel, tau=7)

    def test_gid_outside_range_joins_no_group(self, tmp_path):
        rel = grid_rel(6, 1, seed=1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "version": 2, "attrs": ["a0"], "tau": 3, "omega": "inf",
            "gids": base64.b64encode(bytes([2, 0, 1, 5, 2, 255])).decode(),
            "representatives": [[1.0], [1.0]],
            "radii": [0.0, 0.0], "sizes": [1, 2], "degenerate": []}))
        back = load_partitioning(path, rel)
        assert [g.tolist() for g in back.groups] == [[2], [0, 4]]
        assert back.n == 6  # tuples 1, 3 and 5 are in no group
        save_partitioning(back, tmp_path / "again.json")
        again = json.loads((tmp_path / "again.json").read_text())
        assert base64.b64decode(again["gids"]) == bytes([2, 0, 1, 0, 2, 0])

    def test_degenerate_outside_range_rejected(self, tmp_path):
        # 1-based group numbers: with m = 2 only 1 and 2 name a group
        rel = grid_rel(6, 1, seed=1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "version": 2, "attrs": ["a0"], "tau": 3, "omega": "inf",
            "gids": base64.b64encode(bytes([1, 1, 1, 2, 2, 2])).decode(),
            "representatives": [[1.0], [1.0]],
            "radii": [0.0, 0.0], "sizes": [3, 3], "degenerate": [99, 0, -4]}))
        with pytest.raises(PartitionError, match=r"p\.json: degenerate groups \[-4, 0, 99\] "
                                                 r"are outside 1\.\.2"):
            load_partitioning(path, rel)

    @pytest.mark.parametrize("k, tau, omega", [(1, 5, math.inf), (3, 1, 0.2), (4, 64, 0.5)])
    def test_roundtrip_is_exact(self, tmp_path, k, tau, omega):
        rel = grid_rel(700, k, seed=k)
        p = partition(rel, PartitionParams(tuple(f"a{j}" for j in range(k)), tau, omega))
        save_partitioning(p, tmp_path / "p.json")
        assert_same(load_partitioning(tmp_path / "p.json", rel), p)

    @pytest.mark.parametrize("version", [1, 3, "2"])
    def test_other_versions_rejected(self, tmp_path, version):
        rel = grid_rel(20, 1, seed=2)
        path = tmp_path / "p.json"
        save_partitioning(partition(rel, PartitionParams(("a0",), 5)), path)
        d = json.loads(path.read_text())
        d["version"] = version
        path.write_text(json.dumps(d))
        with pytest.raises(PartitionError, match=f"has version {version!r}, this build "
                                                 "reads version 2; re-run `pkgquery partition`"):
            load_partitioning(path, rel)

    def test_version_1_file_rejected(self, tmp_path):
        rel = grid_rel(7, 1, seed=2)
        path = tmp_path / "p.json"
        path.write_text(
            '{"attrs": ["a0"], "tau": 7, "omega": "inf", "gids": [1, 1, 1, 1, 1, 1, 1], '
            '"representatives": [[1.0]], "radii": [0.5], "sizes": [7], "degenerate": []}')
        with pytest.raises(PartitionError, match=r"has no version, this build reads "
                                                 r"version 2; re-run `pkgquery partition`"):
            load_partitioning(path, rel)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-1], "covers 599 bytes of 2-byte gids, relation has 300"),
        (lambda raw: raw + b"\0", "covers 601 bytes of 2-byte gids, relation has 300"),
        (lambda raw: raw[:-4], "covers 298 tuples, relation has 300"),
    ], ids=["byte-short", "byte-long", "tuples-short"])
    def test_gid_payload_length_mismatch_detected(self, tmp_path, edit, message):
        # 300 singleton groups: two bytes per gid
        rel = grid_rel(300, 1, seed=2)
        path = tmp_path / "p.json"
        save_partitioning(partition(rel, PartitionParams(("a0",), 1)), path)
        d = json.loads(path.read_text())
        d["gids"] = base64.b64encode(edit(base64.b64decode(d["gids"]))).decode()
        path.write_text(json.dumps(d))
        with pytest.raises(PartitionError, match=message):
            load_partitioning(path, rel)

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
