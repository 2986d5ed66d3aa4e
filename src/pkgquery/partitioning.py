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

Partitionings are built, restricted and loaded through one constructor,
``_partitioning``. A partitioning is saved as a JSON object of format
version 2, whose ``gids`` field packs the gid column as base64 of
little-endian unsigned ints just wide enough for m groups. Loading accepts
version 2 only and asks for a rebuild with ``pkgquery partition``
otherwise; a stored gid outside 1..m loads into no group. In memory a
partitioning holds each group's member ids and statistics, not the gid
column, and no copy of the data: whatever needs the members' values reads
them from the relation.
"""

from __future__ import annotations

import base64
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .relation import NUMERIC, Relation

MAXIMIZE_DIRECTION = "max"
MINIMIZE_DIRECTION = "min"
_FORMAT_VERSION = 2  # the partitioning file format save_partitioning writes
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
    """Group assignment over tuple ids 0..n-1 plus per-group statistics.

    ``groups[g]`` holds ascending member tuple ids for 0-based group index
    g; a tuple outside a restricted subset, or stored with a gid outside
    1..m in a loaded file, is in no group. ``representatives[g]`` is the
    member centroid over ``attrs``.
    """

    attrs: tuple[str, ...]
    tau: int
    omega: float
    n: int
    groups: tuple[np.ndarray, ...]
    sizes: np.ndarray
    radii: np.ndarray
    representatives: np.ndarray  # m x k
    degenerate: frozenset[int]   # 0-based group indices violating conditions

    @property
    def m(self) -> int:
        return len(self.groups)


def _partitioning(attrs, tau, omega, n, groups, reps, radii, degenerate) -> Partitioning:
    """The one constructor: ``n`` tuples, sizes counted from ``groups``; per
    group a centroid, a radius, and the 0-based indices of the degenerate
    ones."""
    groups = tuple(groups)
    return Partitioning(
        attrs=attrs, tau=tau, omega=omega, n=n, groups=groups,
        sizes=np.fromiter(map(len, groups), dtype=np.int64, count=len(groups)),
        radii=np.asarray(radii, dtype=np.float64), degenerate=frozenset(degenerate),
        representatives=np.asarray(reps, dtype=np.float64).reshape(len(groups), len(attrs)))


def _require_numeric(rel: Relation, attrs: Sequence[str]) -> None:
    for attr in attrs:
        if rel.schema.kind_of(attr) != NUMERIC:
            raise PartitionError(
                f"partitioning attribute {attr!r} is not numeric")


def _attr_matrix(rel: Relation, attrs: Sequence[str]) -> np.ndarray:
    _require_numeric(rel, attrs)
    if rel.n == 0:
        return np.zeros((0, len(attrs)))
    return np.column_stack([rel.column(a) for a in attrs])


def _radius(sub: np.ndarray, centroid: np.ndarray) -> float:
    """Largest per-attribute absolute deviation from the centroid."""
    dev = sub - centroid
    return float(np.abs(dev, out=dev).max())


def partition(rel: Relation, params: PartitionParams) -> Partitioning:
    """Recursively split the relation into groups meeting the size and
    radius conditions."""
    if params.tau > max(rel.n, 1):
        raise PartitionError(
            f"size threshold {params.tau} exceeds relation size {rel.n}")
    points = _attr_matrix(rel, params.attrs)

    k = len(params.attrs)
    weights = 1 << np.arange(k)
    # numpy radix-sorts keys of at most 16 bits, in the order of int64 keys
    code_type = np.min_scalar_type((1 << k) - 1)
    # each node carries its members (ascending ids) and their points; a
    # stable sort by quadrant hands every child both, still ascending
    queue = deque()
    if rel.n:
        queue.append((np.arange(rel.n, dtype=np.int64), points))
    final: list[tuple[np.ndarray, np.ndarray, float, bool]] = []
    while queue:
        members, sub = queue.popleft()
        centroid = sub.mean(axis=0)
        if len(members) <= params.tau:
            radius = _radius(sub, centroid)
            if radius <= params.omega:
                final.append((members, centroid, radius, False))
                continue
        codes = ((sub >= centroid) @ weights).astype(code_type)
        order = np.argsort(codes, kind="stable")
        cuts = np.nonzero(np.diff(codes[order]))[0] + 1
        if len(cuts) == 0:
            # all members share a quadrant: identical points, cannot split
            final.append((members, centroid, _radius(sub, centroid), True))
            continue
        queue.extend(zip(np.split(members[order], cuts), np.split(sub[order], cuts)))

    groups, reps, radii, degen = zip(*final) if final else ((),) * 4
    return _partitioning(params.attrs, params.tau, params.omega, rel.n, groups,
                         reps, radii, (g for g, d in enumerate(degen) if d))


def _gamma(epsilon: float, direction: str) -> float:
    """The radius limit's share of a representative value: epsilon for
    maximization (0 <= epsilon < 1), epsilon / (1 + epsilon) for
    minimization (epsilon >= 0)."""
    if direction == MAXIMIZE_DIRECTION:
        if not 0 <= epsilon < 1:
            raise PartitionError(
                f"maximization needs 0 <= epsilon < 1, got {epsilon}")
        return epsilon
    if direction == MINIMIZE_DIRECTION:
        if not epsilon >= 0:  # NaN included
            raise PartitionError(f"minimization needs epsilon >= 0, got {epsilon}")
        return epsilon / (1.0 + epsilon)
    raise PartitionError(f"direction must be 'max' or 'min', got {direction!r}")


def radius_limit_from_epsilon(representatives: np.ndarray, epsilon: float,
                              direction: str) -> float:
    """Radius limit yielding the target approximation factor: the minimum
    of gamma * |representative value| over groups and attrs (``_gamma``).
    """
    reps = np.asarray(representatives, dtype=np.float64)
    if reps.size == 0:
        raise PartitionError("no representatives to derive a radius limit from")
    return float(_gamma(epsilon, direction) * np.abs(reps).min())


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
    if _gamma(epsilon, direction) == 0:  # the limit is 0 whatever the groups
        return partition(rel, PartitionParams(attrs, tau, 0.0))
    p = partition(rel, PartitionParams(attrs, tau, math.inf))
    omega = radius_limit_from_epsilon(p.representatives, epsilon, direction)
    for _ in range(_EPSILON_ROUNDS):
        p = partition(rel, PartitionParams(attrs, tau, omega))
        required = radius_limit_from_epsilon(p.representatives, epsilon, direction)
        if omega <= required * (1 + 1e-12) + 1e-300:
            return p
        omega = required
    # the loop above has partitioned a non-empty relation
    points = _attr_matrix(rel, attrs)
    if points.min() > 0:
        omega = radius_limit_from_epsilon(points, epsilon, direction)
        return partition(rel, PartitionParams(attrs, tau, omega))
    return p


def restrict_to_ids(p: Partitioning, rel: Relation,
                    keep_ids: Sequence[int]) -> Partitioning:
    """Partitioning over a tuple subset, keeping the original id space.

    Group memberships are preserved for survivors; centroids, radii, and
    sizes are recomputed from ``rel``, the relation ``p`` partitions; empty
    groups are dropped. A surviving group whose recomputed radius exceeds
    the stored limit is flagged degenerate (the centroid may move when
    members are removed)."""
    cols = [rel.column(a) for a in p.attrs]
    keep = np.zeros(p.n, dtype=bool)
    keep[np.asarray(keep_ids, dtype=np.int64)] = True
    groups, reps, radii, degenerate = [], [], [], []
    for members in p.groups:
        members = members[keep[members]]
        if len(members) == 0:
            continue
        sub = np.column_stack([col[members] for col in cols])
        centroid = sub.mean(axis=0)
        radius = _radius(sub, centroid)
        if len(members) > p.tau or radius > p.omega * (1 + 1e-12):
            degenerate.append(len(groups))
        groups.append(members)
        reps.append(centroid)
        radii.append(radius)
    return _partitioning(p.attrs, p.tau, p.omega, p.n, groups, reps, radii, degenerate)


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
    """Write the partitioning as a JSON object of format version 2.

    ``gids`` is base64 of the gid column (1-based group, 0 for none) as
    little-endian unsigned ints of ``np.min_scalar_type(m).itemsize`` bytes
    each; the other fields are JSON lists."""
    gid = np.zeros(p.n, dtype=_gid_dtype(p.m))
    for g, members in enumerate(p.groups, start=1):
        gid[members] = g
    payload = {
        "version": _FORMAT_VERSION,
        "attrs": list(p.attrs),
        "tau": int(p.tau),
        "omega": "inf" if math.isinf(p.omega) else float(p.omega),
        "gids": base64.b64encode(gid).decode("ascii"),
        "representatives": p.representatives.tolist(),
        "radii": p.radii.tolist(),
        "sizes": p.sizes.tolist(),
        "degenerate": sorted(g + 1 for g in p.degenerate),
    }
    text = json.dumps(payload)  # json.dump would encode in pure Python
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _gid_dtype(m: int) -> np.dtype:
    """Little-endian unsigned ints just wide enough for gids 0..m."""
    return np.min_scalar_type(m).newbyteorder("<")


def load_partitioning(path, rel: Relation) -> Partitioning:
    """Re-attach a saved partitioning to its relation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        version = d.get("version") if isinstance(d, dict) else None
        if version != _FORMAT_VERSION:
            found = "no version" if version is None else f"version {version!r}"
            raise PartitionError(
                f"{path}: partitioning file has {found}, this build reads version "
                f"{_FORMAT_VERSION}; re-run `pkgquery partition` to rebuild it")
        attrs = tuple(d["attrs"])
        sizes = np.asarray(d["sizes"], dtype=np.int64)
        if sizes.ndim != 1:  # m, and with it the gid width, is its length
            raise PartitionError(f"{path}: sizes must be a flat list")
        m = len(sizes)
        radii = np.asarray(d["radii"], dtype=np.float64).reshape(m)
        reps = np.asarray(d["representatives"], dtype=np.float64).reshape(m, len(attrs))
        omega = math.inf if d["omega"] == "inf" else float(d["omega"])
        tau = int(d["tau"])
        degenerate = frozenset(int(g) - 1 for g in d["degenerate"])
        raw = base64.b64decode(d["gids"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # a JSON syntax error is a ValueError
        raise PartitionError(
            f"{path}: malformed partitioning file ({type(exc).__name__}: {exc})") from None
    outside = sorted(g + 1 for g in degenerate if not 0 <= g < m)
    if outside:
        raise PartitionError(f"{path}: degenerate groups {outside} are outside 1..{m}")
    width = _gid_dtype(m)
    if len(raw) != rel.n * width.itemsize:
        tuples, spare = divmod(len(raw), width.itemsize)
        covers = (f"{tuples} tuples" if not spare
                  else f"{len(raw)} bytes of {width.itemsize}-byte gids")
        raise PartitionError(
            f"{path}: gid column covers {covers}, relation has {rel.n}")
    packed = np.frombuffer(raw, dtype=width)
    _require_numeric(rel, attrs)  # as partition requires of its attrs
    # one stable sort keeps each group's members in ascending id order (numpy
    # sorts keys of at most 16 bits by radix); gids outside 1..m join no group
    in_range = (packed >= 1) & (packed <= m)
    counts = np.bincount(packed[in_range] - 1, minlength=m)
    if not np.array_equal(sizes, counts):
        raise PartitionError(f"{path}: stored sizes disagree with gid column")
    order = np.nonzero(in_range)[0]
    order = order[np.argsort(packed[order], kind="stable")]
    groups = np.split(order, np.cumsum(counts)[:-1]) if m else ()
    return _partitioning(attrs, tau, omega, rel.n, groups, reps, radii, degenerate)
