"""In-memory relations: CSV loading, typed columns, base-predicate filtering.

A relation is immutable after load. Tuple ids are 0-based row ordinals and
stay stable for the lifetime of the relation; every downstream artifact
(ILP variables, partition groups, packages) refers to tuples by these ids.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class RelationError(Exception):
    """Malformed input data or an ill-typed operation on a relation."""


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names with their kinds ('numeric' or 'categorical')."""

    name: str
    attributes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.attributes:
            raise RelationError("schema needs at least one attribute")
        names = [a for a, _ in self.attributes]
        if len(set(names)) != len(names):
            raise RelationError(f"duplicate attribute names in schema {self.name!r}")
        for attr, kind in self.attributes:
            if not attr:
                raise RelationError("empty attribute name")
            if kind not in (NUMERIC, CATEGORICAL):
                raise RelationError(f"unknown kind {kind!r} for attribute {attr!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.attributes)

    def kind_of(self, attr: str) -> str:
        for a, kind in self.attributes:
            if a == attr:
                return kind
        raise RelationError(f"unknown attribute {attr!r} in relation {self.name!r}")

    def has(self, attr: str) -> bool:
        return any(a == attr for a, _ in self.attributes)


@dataclass(frozen=True)
class Row:
    """A single tuple: stable id plus values aligned with the schema."""

    id: int
    values: tuple


@dataclass(frozen=True)
class Relation:
    """Column-major table; numeric columns are float64 arrays.

    Do not mutate the column arrays; shared references assume immutability.
    """

    schema: Schema
    columns: Mapping[str, object] = field(repr=False)
    n: int = 0

    def column(self, attr: str) -> np.ndarray:
        """Numeric column as a float64 array."""
        if self.schema.kind_of(attr) != NUMERIC:
            raise RelationError(f"attribute {attr!r} is not numeric")
        return self.columns[attr]

    def categorical(self, attr: str) -> list[str]:
        if self.schema.kind_of(attr) != CATEGORICAL:
            raise RelationError(f"attribute {attr!r} is not categorical")
        return self.columns[attr]

    def row(self, tuple_id: int) -> Row:
        if not 0 <= tuple_id < self.n:
            raise RelationError(f"tuple id {tuple_id} out of range [0, {self.n})")
        return Row(tuple_id, tuple(self.columns[a][tuple_id] for a in self.schema.names))

    def numeric_attrs(self) -> tuple[str, ...]:
        return tuple(a for a, k in self.schema.attributes if k == NUMERIC)


def from_columns(name: str, columns: dict, kinds: Optional[dict] = None) -> Relation:
    """Build a relation from in-memory columns (numeric unless kinds says otherwise)."""
    attrs = []
    cols = {}
    n = None
    for attr, values in columns.items():
        kind = (kinds or {}).get(attr, NUMERIC)
        if kind == NUMERIC:
            arr = np.asarray(values, dtype=np.float64)
            if arr.size and not np.all(np.isfinite(arr)):
                raise RelationError(f"non-finite value in numeric column {attr!r}")
            cols[attr] = arr
            size = arr.size
        else:
            cols[attr] = [str(v) for v in values]
            size = len(cols[attr])
        if n is None:
            n = size
        elif n != size:
            raise RelationError("columns have unequal lengths")
        attrs.append((attr, kind))
    return Relation(Schema(name, tuple(attrs)), cols, n or 0)


def _parse_float(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def load_csv(path, schema_hints: Optional[Mapping[str, str]] = None,
             name: Optional[str] = None) -> Relation:
    """Load a UTF-8 comma-separated file with a header row.

    Column kinds are inferred (every cell parseable as float -> numeric,
    otherwise categorical) unless overridden through ``schema_hints``.
    Numeric cells must be finite; NaN/inf and empty numeric cells are
    rejected. Tuple ids are 0-based row positions after the header.
    """
    hints = dict(schema_hints or {})
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RelationError(f"{path}: empty file, expected a header row")
        if len(set(header)) != len(header):
            raise RelationError(f"{path}: duplicate column name in header")
        for attr in hints:
            if attr not in header:
                raise RelationError(f"{path}: schema hint for unknown column {attr!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise RelationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            rows.append(row)

    attrs = []
    cols: dict = {}
    for j, attr in enumerate(header):
        raw = [r[j] for r in rows]
        parsed = [_parse_float(c) for c in raw]
        kind = hints.get(attr)
        if kind is None:
            kind = NUMERIC if all(p is not None for p in parsed) else CATEGORICAL
        if kind == NUMERIC:
            for lineno, p in enumerate(parsed, start=2):
                if p is None:
                    raise RelationError(
                        f"{path}:{lineno}: non-numeric cell {raw[lineno - 2]!r} "
                        f"in numeric column {attr!r}")
                if math.isnan(p) or math.isinf(p):
                    raise RelationError(
                        f"{path}:{lineno}: non-finite value in numeric column {attr!r}")
            cols[attr] = np.asarray(parsed, dtype=np.float64)
        else:
            cols[attr] = raw
        attrs.append((attr, kind))

    return Relation(Schema(name or "R", tuple(attrs)), cols, len(rows))


def save_csv(rel: Relation, path) -> None:
    """Write a relation back out in the load_csv format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rel.schema.names)
        names = rel.schema.names
        kinds = {a: k for a, k in rel.schema.attributes}
        for i in range(rel.n):
            writer.writerow([
                repr(float(rel.columns[a][i])) if kinds[a] == NUMERIC else rel.columns[a][i]
                for a in names
            ])


def apply_comparison(rel: Relation, attr: str, op: str, value) -> np.ndarray:
    """Boolean mask of rows satisfying one `attr op constant` comparison."""
    kind = rel.schema.kind_of(attr)
    if kind == NUMERIC:
        if isinstance(value, str):
            raise RelationError(
                f"comparing numeric attribute {attr!r} to string {value!r}")
        if op not in _COMPARISONS:
            raise RelationError(f"unknown comparison operator {op!r}")
        return _COMPARISONS[op](rel.columns[attr], value)
    # categorical: equality comparisons only
    if op not in ("=", "!="):
        raise RelationError(
            f"operator {op!r} not allowed on categorical attribute {attr!r}")
    if not isinstance(value, str):
        raise RelationError(
            f"comparing categorical attribute {attr!r} to non-string {value!r}")
    col = rel.columns[attr]
    mask = np.fromiter((c == value for c in col), dtype=bool, count=rel.n)
    return mask if op == "=" else ~mask


def apply_base_predicate(rel: Relation, pred) -> np.ndarray:
    """Ids of tuples satisfying a conjunctive base predicate, ascending.

    ``pred`` is a paql.BasePredicate (or anything exposing ``conjuncts`` of
    (attr, op, value) triples).
    """
    mask = np.ones(rel.n, dtype=bool)
    for cmp_ in pred.conjuncts:
        mask &= apply_comparison(rel, cmp_.attr, cmp_.op, cmp_.value)
    return np.nonzero(mask)[0]


def attribute_stats(rel: Relation, attrs: Iterable[str]) -> dict:
    """Per-attribute (min, max, mean) over numeric columns."""
    if rel.n == 0:
        raise RelationError("attribute_stats on an empty relation")
    out = {}
    for attr in attrs:
        col = rel.column(attr)
        out[attr] = (float(col.min()), float(col.max()), float(col.mean()))
    return out
