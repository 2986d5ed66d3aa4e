"""In-memory relations: CSV loading, typed columns, base-predicate filtering.

A relation is immutable after load. Tuple ids are 0-based row ordinals and
stay stable for the lifetime of the relation; every downstream artifact
(ILP variables, partition groups, packages) refers to tuples by these ids.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Optional

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


def _decode_utf8(data: bytes, path, error: type[Exception]) -> str:
    """``data`` as UTF-8 text; raises ``error`` naming the path and the offset
    of the first byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: not UTF-8 text (invalid byte at offset {exc.start})") from None


def read_utf8(path, error: type[Exception]) -> str:
    """The text of a UTF-8 file, as ``_decode_utf8`` reads it."""
    with open(path, "rb") as fh:
        return _decode_utf8(fh.read(), path, error)


def load_csv(path, name: Optional[str] = None) -> Relation:
    """Load a UTF-8 comma-separated file with a header row.

    Column kinds are inferred: a column whose every cell parses as a float
    is numeric, any other column categorical. Numeric cells must be finite;
    NaN/inf cells are rejected. Tuple ids are 0-based row positions after
    the header. An all-numeric file whose data lines are ASCII, without
    quotes, carriage returns, blank lines or lines longer than
    ``csv.field_size_limit()``, is parsed from its bytes in one vectorized
    pass; ``csv.reader`` reads every other file, with the same result
    wherever both apply.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    table = _numeric_table(data)
    if table is not None:
        del data  # free the file before the columns are copied out
        header, values = table
        cols = {a: np.ascontiguousarray(values[:, j]) for j, a in enumerate(header)}
        return Relation(Schema(name or "R", tuple((a, NUMERIC) for a in header)),
                        cols, len(values))
    text = _decode_utf8(data, path, RelationError)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise RelationError(f"{path}: empty file, expected a header row")
        if len(set(header)) != len(header):
            raise RelationError(f"{path}: duplicate column name in header")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise RelationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            rows.append(row)
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise RelationError(f"{path}:{reader.line_num}: {exc}") from None

    cols, kinds = {}, {}
    for j, attr in enumerate(header):
        raw = [r[j] for r in rows]
        parsed = [_parse_float(c) for c in raw]
        if any(p is None for p in parsed):
            cols[attr], kinds[attr] = raw, CATEGORICAL
            continue
        for lineno, p in enumerate(parsed, start=2):
            if math.isnan(p) or math.isinf(p):
                raise RelationError(
                    f"{path}:{lineno}: non-finite value in numeric column {attr!r}")
        cols[attr] = parsed
    return from_columns(name or "R", cols, kinds)


def _numeric_table(data: bytes) -> Optional[tuple[list[str], np.ndarray]]:
    """(header, n x k matrix) for a file the csv.reader path would load as
    all-numeric, its ASCII data lines parsed in one ``np.loadtxt`` pass; None
    for any other file."""
    start = data.find(b"\n") + 1  # where the first data line begins
    if start <= 1 or start == len(data):
        return None  # no header or no data line
    if b'"' in data or b"\r" in data or data[start] == 0x0A:
        return None  # a quote, a CR, a leading blank line (the shape check finds others)
    if np.frombuffer(data, np.uint8, offset=start).max() >= 0x80:  # read in place
        return None  # csv.reader decodes the data lines, or reports bad UTF-8
    try:
        header_line = data[:start - 1].decode("utf-8")
    except UnicodeDecodeError:
        return None  # the csv.reader path reports it
    limit = csv.field_size_limit()
    if len(header_line) > limit or not _lines_fit(data, start, limit):
        return None  # csv.reader rejects the cell, or reads the line's fields
    header = header_line.split(",")
    if len(set(header)) != len(header):
        return None
    rows = data.count(b"\n", start) + (not data.endswith(b"\n"))
    buf = io.BytesIO(data)  # shares the bytes until written
    buf.seek(start)
    try:
        values = np.loadtxt(io.TextIOWrapper(buf, encoding="ascii", newline="\n"),
                            delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:  # a cell float() may still accept, or a ragged row
        return None
    if values.shape != (rows, len(header)) or not np.isfinite(values).all():
        return None
    return header, values


def _lines_fit(data: bytes, start: int, limit: int) -> bool:
    """Whether no line of ``data[start:]`` is longer than ``limit`` bytes;
    each step skips to the last newline within reach of a line's start."""
    while len(data) - start > limit:
        end = data.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def save_csv(rel: Relation, path) -> None:
    """Write a relation back out in the load_csv format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rel.schema.names)
        names = rel.schema.names
        kinds = {a: k for a, k in rel.schema.attributes}
        for i in range(rel.n):
            writer.writerow([
                repr(float(rel.columns[a][i])) if kinds[a] == NUMERIC else rel.columns[a][i]
                for a in names
            ])


def apply_comparison(rel: Relation, attr: str, op: str, value,
                     ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean mask of the tuples satisfying one `attr op constant`
    comparison: one entry per tuple, or per id in ``ids``, in their order."""
    kind = rel.schema.kind_of(attr)
    col = rel.columns[attr]
    if kind == NUMERIC:
        if isinstance(value, str):
            raise RelationError(
                f"comparing numeric attribute {attr!r} to string {value!r}")
        if op not in _COMPARISONS:
            raise RelationError(f"unknown comparison operator {op!r}")
        return _COMPARISONS[op](col if ids is None else col[ids], value)
    # categorical: equality comparisons only
    if op not in ("=", "!="):
        raise RelationError(
            f"operator {op!r} not allowed on categorical attribute {attr!r}")
    if not isinstance(value, str):
        raise RelationError(
            f"comparing categorical attribute {attr!r} to non-string {value!r}")
    cells = col if ids is None else map(col.__getitem__, ids.tolist())
    mask = np.fromiter(cells, dtype=object,
                       count=rel.n if ids is None else len(ids)) == value
    return mask if op == "=" else ~mask


def predicate_mask(rel: Relation, pred, ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean mask of the tuples satisfying a conjunctive base predicate:
    one entry per tuple, or per id in ``ids``, in their order; only those
    tuples are read.

    ``pred`` is a paql.BasePredicate (or anything exposing ``conjuncts`` of
    (attr, op, value) triples).
    """
    mask = np.ones(rel.n if ids is None else len(ids), dtype=bool)
    for cmp_ in pred.conjuncts:
        mask &= apply_comparison(rel, cmp_.attr, cmp_.op, cmp_.value, ids)
    return mask


def apply_base_predicate(rel: Relation, pred) -> np.ndarray:
    """Ids of tuples satisfying a conjunctive base predicate, ascending."""
    return np.nonzero(predicate_mask(rel, pred))[0]
