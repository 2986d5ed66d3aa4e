"""Offline quad-tree partitioning of a relation into groups of similar tuples.

Groups satisfy a size threshold (tau) and a radius limit (omega): the
radius of a group is the largest per-attribute absolute deviation of any
member from the group's centroid. Splitting pivots on the centroid and
distributes members over up to 2^k sub-quadrants (value < centroid goes
low, >= goes high). Groups of identical points that still violate tau are
flagged degenerate instead of being split forever.

Representatives are group centroids. The radius limit for a target
approximation factor is the minimum over groups and partitioning
attributes of gamma * |representative value|, with gamma = eps for
maximization objectives and eps / (1 + eps) for minimization.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .relation import NUMERIC, Relation

MAXIMIZE_DIRECTION = "max"
MINIMIZE_DIRECTION = "min"
_EPSILON_ROUNDS = 3  # re-partitions partition_with_epsilon tries for a fixed point


class PartitionError(Exception):
    pass


@dataclass(frozen=True)
class PartitionParams:
    attrs: tuple[str, ...]
    tau: int
    omega: float = math.inf

    def __post_init__(self):
        if not self.attrs:
            raise PartitionError("need at least one partitioning attribute")
        if self.tau < 1:
            raise PartitionError(f"size threshold must be >= 1, got {self.tau}")
        if not self.omega >= 0:  # NaN included
            raise PartitionError(f"radius limit must be >= 0, got {self.omega}")


@dataclass(frozen=True)
class Partitioning:
    """Group assignment over tuple ids plus per-group statistics.

    ``gid`` maps tuple id -> 1-based group index (0 = not covered, which
    only happens for partitionings restricted to a tuple subset).
    ``groups[g]`` holds member tuple ids for 0-based group index g;
    ``representatives[g]`` is the member centroid over ``attrs``.
    """

    attrs: tuple[str, ...]
    tau: int
    omega: float
    gid: np.ndarray
    groups: tuple[np.ndarray, ...]
    sizes: np.ndarray
    radii: np.ndarray
    representatives: np.ndarray  # m x k
    degenerate: frozenset[int]   # 0-based group indices violating conditions
    points: np.ndarray = field(repr=False)  # n x k source matrix over attrs

    @property
    def m(self) -> int:
        return len(self.groups)


def _attr_matrix(rel: Relation, attrs: Sequence[str]) -> np.ndarray:
    for attr in attrs:
        if rel.schema.kind_of(attr) != NUMERIC:
            raise PartitionError(
                f"partitioning attribute {attr!r} is not numeric")
    if rel.n == 0:
        return np.zeros((0, len(attrs)))
    return np.column_stack([rel.column(a) for a in attrs])


def _group_stats(points: np.ndarray, ids: np.ndarray):
    sub = points[ids]
    centroid = sub.mean(axis=0)
    radius = float(np.abs(sub - centroid).max()) if len(ids) else 0.0
    return centroid, radius


def partition(rel: Relation, params: PartitionParams) -> Partitioning:
    """Recursively split the relation into groups meeting the size and
    radius conditions."""
    if params.tau > max(rel.n, 1):
        raise PartitionError(
            f"size threshold {params.tau} exceeds relation size {rel.n}")
    points = _attr_matrix(rel, params.attrs)

    k = len(params.attrs)
    weights = 1 << np.arange(k)
    queue = deque()
    if rel.n:
        queue.append(np.arange(rel.n, dtype=np.int64))
    final: list[tuple[np.ndarray, np.ndarray, float, bool]] = []
    while queue:
        members = queue.popleft()
        centroid, radius = _group_stats(points, members)
        if len(members) <= params.tau and radius <= params.omega:
            final.append((members, centroid, radius, False))
            continue
        codes = (points[members] >= centroid) @ weights
        order = np.argsort(codes, kind="stable")
        codes_sorted = codes[order]
        cuts = np.nonzero(np.diff(codes_sorted))[0] + 1
        if len(cuts) == 0:
            # all members share a quadrant: identical points, cannot split
            final.append((members, centroid, radius, True))
            continue
        for part in np.split(members[order], cuts):
            queue.append(part)

    gid = np.zeros(rel.n, dtype=np.int64)
    groups, sizes, radii, reps, degenerate = [], [], [], [], set()
    for g, (members, centroid, radius, degen) in enumerate(final):
        members = np.sort(members)
        gid[members] = g + 1
        groups.append(members)
        sizes.append(len(members))
        radii.append(radius)
        reps.append(centroid)
        if degen:
            degenerate.add(g)
    return Partitioning(
        attrs=params.attrs, tau=params.tau, omega=params.omega, gid=gid,
        groups=tuple(groups), sizes=np.asarray(sizes, dtype=np.int64),
        radii=np.asarray(radii), degenerate=frozenset(degenerate),
        representatives=np.asarray(reps).reshape(len(final), k),
        points=points)


def radius_limit_from_epsilon(representatives: np.ndarray, epsilon: float,
                              direction: str) -> float:
    """Radius limit yielding the target approximation factor.

    gamma = epsilon for maximization (0 <= epsilon < 1) and
    epsilon / (1 + epsilon) for minimization (epsilon >= 0); the limit is
    the minimum of gamma * |representative value| over groups and attrs.
    """
    reps = np.asarray(representatives, dtype=np.float64)
    if reps.size == 0:
        raise PartitionError("no representatives to derive a radius limit from")
    if direction == MAXIMIZE_DIRECTION:
        if not 0 <= epsilon < 1:
            raise PartitionError(
                f"maximization needs 0 <= epsilon < 1, got {epsilon}")
        gamma = epsilon
    elif direction == MINIMIZE_DIRECTION:
        if not epsilon >= 0:  # NaN included
            raise PartitionError(f"minimization needs epsilon >= 0, got {epsilon}")
        gamma = epsilon / (1.0 + epsilon)
    else:
        raise PartitionError(f"direction must be 'max' or 'min', got {direction!r}")
    return float(gamma * np.abs(reps).min())


def partition_with_epsilon(rel: Relation, attrs: Sequence[str], tau: int,
                           epsilon: float, direction: str) -> Partitioning:
    """Partition with a radius limit derived from the target epsilon.

    The limit depends on the representatives, which depend on the
    partitioning; iterate: partition, recompute the implied limit from the
    new representatives, and re-partition while the enforced limit exceeds
    the implied one (at most ``_EPSILON_ROUNDS`` re-partitions). If the fixed
    point is not reached and all attribute values are positive, fall back
    to the limit implied by the raw values, which every subsequent
    representative is guaranteed to satisfy.
    """
    attrs = tuple(attrs)
    p = partition(rel, PartitionParams(attrs, tau, math.inf))
    if epsilon == 0:
        return partition(rel, PartitionParams(attrs, tau, 0.0))
    omega = radius_limit_from_epsilon(p.representatives, epsilon, direction)
    for _ in range(_EPSILON_ROUNDS):
        p = partition(rel, PartitionParams(attrs, tau, omega))
        required = radius_limit_from_epsilon(p.representatives, epsilon, direction)
        if omega <= required * (1 + 1e-12) + 1e-300:
            return p
        omega = required
    data_min = float(p.points.min()) if p.points.size else 0.0
    if data_min > 0:
        gamma = epsilon if direction == MAXIMIZE_DIRECTION else epsilon / (1 + epsilon)
        omega = gamma * float(np.abs(p.points).min())
        return partition(rel, PartitionParams(attrs, tau, omega))
    return p


def restrict_to_ids(p: Partitioning, keep_ids: Sequence[int]) -> Partitioning:
    """Partitioning over a tuple subset, keeping the original id space.

    Group memberships are preserved for survivors; centroids, radii, and
    sizes are recomputed; empty groups are dropped. A surviving group whose
    recomputed radius exceeds the stored limit is flagged degenerate (the
    centroid may move when members are removed)."""
    keep = np.zeros(len(p.gid), dtype=bool)
    keep[np.asarray(keep_ids, dtype=np.int64)] = True
    gid = np.zeros(len(p.gid), dtype=np.int64)
    groups, sizes, radii, reps, degenerate = [], [], [], [], set()
    for members in p.groups:
        members = members[keep[members]]
        if len(members) == 0:
            continue
        g = len(groups)
        centroid, radius = _group_stats(p.points, members)
        gid[members] = g + 1
        groups.append(members)
        sizes.append(len(members))
        radii.append(radius)
        reps.append(centroid)
        if len(members) > p.tau or radius > p.omega * (1 + 1e-12):
            degenerate.add(g)
    return Partitioning(
        attrs=p.attrs, tau=p.tau, omega=p.omega, gid=gid,
        groups=tuple(groups), sizes=np.asarray(sizes, dtype=np.int64),
        radii=np.asarray(radii), degenerate=frozenset(degenerate),
        representatives=np.asarray(reps).reshape(len(groups), len(p.attrs)),
        points=p.points)


def group_means(p: Partitioning, rel: Relation,
                attrs: Sequence[str]) -> np.ndarray:
    """Per-group means over arbitrary numeric attributes (m x len(attrs)).

    For attributes in ``p.attrs`` this reuses the stored representatives;
    other attributes are averaged on the fly."""
    cols = []
    for attr in attrs:
        if attr in p.attrs:
            cols.append(p.representatives[:, p.attrs.index(attr)])
        else:
            data = rel.column(attr)
            cols.append(np.asarray([data[g].mean() for g in p.groups]))
    return np.column_stack(cols) if cols else np.zeros((p.m, 0))


def save_partitioning(p: Partitioning, path) -> None:
    payload = {
        "attrs": list(p.attrs),
        "tau": int(p.tau),
        "omega": "inf" if math.isinf(p.omega) else float(p.omega),
        "gids": p.gid.tolist(),
        "representatives": p.representatives.tolist(),
        "radii": p.radii.tolist(),
        "sizes": p.sizes.tolist(),
        "degenerate": sorted(g + 1 for g in p.degenerate),
    }
    text = json.dumps(payload)  # json.dump would encode in pure Python
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_partitioning(path, rel: Relation) -> Partitioning:
    """Re-attach a saved partitioning to its relation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        attrs = tuple(d["attrs"])
        gid = np.asarray(d["gids"], dtype=np.int64)
        sizes = np.asarray(d["sizes"], dtype=np.int64)
        m = len(sizes)
        radii = np.asarray(d["radii"], dtype=np.float64).reshape(m)
        reps = np.asarray(d["representatives"], dtype=np.float64).reshape(m, len(attrs))
        omega = math.inf if d["omega"] == "inf" else float(d["omega"])
        tau = int(d["tau"])
        degenerate = frozenset(int(g) - 1 for g in d["degenerate"])
    except (KeyError, TypeError, ValueError) as exc:  # a JSON syntax error is a ValueError
        raise PartitionError(
            f"{path}: malformed partitioning file ({type(exc).__name__}: {exc})") from None
    if gid.ndim != 1 or sizes.ndim != 1:
        raise PartitionError(f"{path}: gids and sizes must be flat lists")
    if len(gid) != rel.n:
        raise PartitionError(
            f"{path}: gid column covers {len(gid)} tuples, relation has {rel.n}")
    points = _attr_matrix(rel, attrs)
    # one stable sort keeps each group's members in ascending id order
    # (numpy sorts keys of at most 16 bits by radix); gids outside 1..m
    # (0 = not covered) join no group
    in_range = (gid >= 1) & (gid <= m)
    counts = np.bincount(gid[in_range] - 1, minlength=m)
    if not np.array_equal(sizes, counts):
        raise PartitionError(f"{path}: stored sizes disagree with gid column")
    order = np.nonzero(in_range)[0]
    key = gid[order].astype(np.min_scalar_type(m))
    order = order[np.argsort(key, kind="stable")]
    groups = tuple(np.split(order, np.cumsum(counts)[:-1])) if m else ()
    return Partitioning(
        attrs=attrs, tau=tau, omega=omega, gid=gid, groups=groups, sizes=sizes,
        radii=radii, representatives=reps, degenerate=degenerate, points=points)
