"""PaQL: parsing, validation, and printing of package queries.

PaQL extends a SELECT/FROM/WHERE skeleton with PACKAGE(...), REPEAT,
SUCH THAT (global predicates over package aggregates), and
MINIMIZE/MAXIMIZE. One regex scan cuts the text into tokens that keep
their offset, and a ParseError turns the offset into line:col. Recursive
descent parses them, with one grammar for the shorthand aggregates and
their (SELECT ... FROM pkg) subquery forms; keywords are case-insensitive.
Queries over one relation only: joins, OR and an alias list in PACKAGE(...)
are parse errors. ASTs are immutable dataclasses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Union

from .relation import CATEGORICAL, NUMERIC, Schema, read_utf8

COUNT = "count"
SUM = "sum"
AVG = "avg"
FILTERED_COUNT = "filtered_count"

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

_GLOBAL_OPS = ("<=", ">=", "=")
_BASE_OPS = ("=", "!=", "<", "<=", ">", ">=")


class PaqlError(Exception):
    """Base for query-language errors."""


class ParseError(PaqlError):
    """A syntax error at ``offset`` in ``text``, reported as line:col."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{self.line}:{self.col}: {message}")


class ValidationError(PaqlError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Comparison:
    attr: str
    op: str
    value: Union[float, str]

    def __post_init__(self):
        if self.op not in _BASE_OPS:
            raise PaqlError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class BasePredicate:
    """Conjunction of attr-op-constant comparisons over individual tuples."""

    conjuncts: tuple[Comparison, ...]


@dataclass(frozen=True)
class AggregateExpr:
    """COUNT(*), SUM(attr), AVG(attr), or a COUNT(*) filtered by a predicate."""

    kind: str
    attr: Optional[str] = None
    filter: Optional[BasePredicate] = None

    def __post_init__(self):
        if self.kind in (SUM, AVG) and not self.attr:
            raise PaqlError(f"{self.kind.upper()} needs exactly one attribute")
        if self.kind == FILTERED_COUNT and self.filter is None:
            raise PaqlError("filtered count needs a filter predicate")

    def attrs_used(self) -> set[str]:
        used = set()
        if self.attr:
            used.add(self.attr)
        if self.filter:
            used.update(c.attr for c in self.filter.conjuncts)
        return used


@dataclass(frozen=True)
class GlobalPredicate:
    """lhs-aggregate compared to a constant bound, a (L, U) window, or
    (for filtered counts only) another filtered count.

    ``linear_shift`` is a constant already contributed to the predicate's
    linearized left side by a fixed partial package; it is subtracted from
    the linearized right side at translation time. Surface queries always
    have shift 0 and the engine sets none; ``perfbench`` reads the field.
    """

    lhs: AggregateExpr
    op: str  # '<=', '>=', '=', 'between'
    rhs: Union[float, tuple[float, float], AggregateExpr]
    linear_shift: float = 0.0  # perfbench/check.py reads it

    def __post_init__(self):
        if self.op == "between":
            lo, hi = self.rhs
            if lo > hi:
                raise PaqlError(f"BETWEEN bounds out of order: {lo} > {hi}")
        elif self.op not in _GLOBAL_OPS:
            raise PaqlError(f"bad global predicate operator {self.op!r}")

    def attrs_used(self) -> set[str]:
        used = self.lhs.attrs_used()
        if isinstance(self.rhs, AggregateExpr):
            used.update(self.rhs.attrs_used())
        return used


@dataclass(frozen=True)
class Objective:
    direction: str  # 'minimize' | 'maximize'
    expr: AggregateExpr


@dataclass(frozen=True)
class PackageQuery:
    relation_name: str
    relation_alias: str
    package_name: str
    repeat: Optional[int] = None  # None = unlimited repetition
    base_predicate: Optional[BasePredicate] = None
    global_predicates: tuple[GlobalPredicate, ...] = ()
    objective: Optional[Objective] = None
    validated: bool = False

    def attrs_used(self) -> set[str]:
        """Attributes referenced by global predicates and the objective."""
        used = set()
        for g in self.global_predicates:
            used.update(g.attrs_used())
        if self.objective:
            used.update(self.objective.expr.attrs_used())
        return used


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {
    "SELECT", "PACKAGE", "AS", "FROM", "REPEAT", "WHERE", "SUCH", "THAT",
    "AND", "OR", "BETWEEN", "MINIMIZE", "MAXIMIZE", "COUNT", "SUM", "AVG",
}

_AGGREGATES = {"COUNT": COUNT, "SUM": SUM, "AVG": AVG}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|[<>=(),.*;+-])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # 'kw', 'ident', 'number', 'string', 'op', 'eof'
    value: str
    offset: int  # into the query text


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # a gap: no token matches at pos
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        lexeme = m.group()
        if kind == "ident":
            upper = lexeme.upper()
            if upper in _KEYWORDS:
                kind, lexeme = "kw", upper
        elif kind == "string":
            lexeme = lexeme[1:-1].replace("''", "'")
        elif lexeme == "<>":
            lexeme = "!="
        tokens.append(_Token(kind, lexeme, m.start()))
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
    tokens.append(_Token("eof", "", pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        # relation name, alias and package name; parsed before any attribute
        self.qualifiers: set[str] = set()

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def error(self, message: str, tok: Optional[_Token] = None):
        raise ParseError(message, self.text, (tok or self.cur).offset)

    def at(self, kind: str, *values: str) -> bool:
        tok = self.cur
        return tok.kind == kind and (not values or tok.value in values)

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[_Token]:
        tok = self.cur
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> _Token:
        tok = self.accept(kind, value)
        if tok is None:
            want = value or kind
            got = self.cur.value or self.cur.kind
            self.error(f"expected {want!r}, got {got!r}")
        return tok

    def parse_query(self) -> PackageQuery:
        self.expect("kw", "SELECT")
        self.expect("kw", "PACKAGE")
        self.expect("op", "(")
        package_name = self.expect("ident").value
        if self.at("op", ","):
            self.error("unsupported: multiple relation aliases in PACKAGE(...)")
        self.expect("op", ")")
        if self.accept("kw", "AS"):
            package_name = self.expect("ident").value
        elif self.at("ident"):
            package_name = self.advance().value

        self.expect("kw", "FROM")
        relation_name = self.expect("ident").value
        relation_alias = relation_name
        if self.accept("kw", "AS"):
            relation_alias = self.expect("ident").value
        elif self.at("ident"):
            relation_alias = self.advance().value
        self.qualifiers = {relation_name, relation_alias, package_name}
        repeat = None
        if self.accept("kw", "REPEAT"):
            tok = self.expect("number")
            if "." in tok.value or "e" in tok.value.lower():
                self.error("REPEAT bound must be a non-negative integer", tok)
            repeat = int(tok.value)
        if self.at("op", ","):
            self.error("unsupported: joins (multiple relations in FROM)")

        base_predicate = None
        if self.accept("kw", "WHERE"):
            base_predicate = self.parse_base_predicate()

        global_predicates: list[GlobalPredicate] = []
        if self.accept("kw", "SUCH"):
            self.expect("kw", "THAT")
            global_predicates.append(self.parse_global_predicate())
            while self.accept("kw", "AND"):
                global_predicates.append(self.parse_global_predicate())

        objective = None
        if self.at("kw", "MINIMIZE", "MAXIMIZE"):
            direction = MINIMIZE if self.advance().value == "MINIMIZE" else MAXIMIZE
            objective = Objective(direction, self.parse_aggregate())

        self.accept("op", ";")
        if not self.at("eof"):
            self.error(f"unexpected trailing input {self.cur.value!r}")

        return PackageQuery(
            relation_name=relation_name,
            relation_alias=relation_alias,
            package_name=package_name,
            repeat=repeat,
            base_predicate=base_predicate,
            global_predicates=tuple(global_predicates),
            objective=objective,
        )

    def parse_base_predicate(self) -> BasePredicate:
        conjuncts = [self.parse_comparison()]
        while self.accept("kw", "AND"):
            conjuncts.append(self.parse_comparison())
        if self.at("kw", "OR"):
            self.error("unsupported: OR in predicates (conjunctions only)")
        return BasePredicate(tuple(conjuncts))

    def parse_comparison(self) -> Comparison:
        attr = self.parse_attr_ref()
        op_tok = self.expect("op")
        if op_tok.value not in _BASE_OPS:
            self.error(f"bad comparison operator {op_tok.value!r}", op_tok)
        value: Union[float, str]
        if self.at("string"):
            value = self.advance().value
        else:
            value = self.parse_number()
        return Comparison(attr, op_tok.value, value)

    def parse_attr_ref(self) -> str:
        """Attribute reference, optionally qualified: attr, alias.attr. A
        known qualifier is dropped, so that shorthand aggregates and their
        subquery forms parse to the same AST; an unknown one is kept for
        validation to reject."""
        first = self.expect("ident").value
        if not self.accept("op", "."):
            return first
        attr = self.expect("ident").value
        return attr if first in self.qualifiers else f"{first}.{attr}"

    def parse_number(self) -> float:
        sign = 1.0
        if self.accept("op", "-"):
            sign = -1.0
        elif self.accept("op", "+"):
            pass
        tok = self.expect("number")
        return sign * float(tok.value)

    def parse_global_predicate(self) -> GlobalPredicate:
        lhs = self.parse_aggregate()
        tok = self.cur
        if self.accept("kw", "BETWEEN"):
            lo = self.parse_number()
            self.expect("kw", "AND")
            hi = self.parse_number()
            try:
                return GlobalPredicate(lhs, "between", (lo, hi))
            except PaqlError as exc:
                self.error(str(exc), tok)
        if self.at("op", "<", ">"):
            self.error("unsupported: strict global inequality (use <= or >=)")
        if not self.at("op", *_GLOBAL_OPS):
            self.error(f"expected a global comparison, got {tok.value!r}")
        self.advance()
        rhs: Union[float, AggregateExpr]
        if self.at("op", "(") or self.at("kw", *_AGGREGATES):
            rhs = self.parse_aggregate()
        else:
            rhs = self.parse_number()
        return GlobalPredicate(lhs, tok.value, rhs)

    def parse_aggregate(self) -> AggregateExpr:
        """Shorthand aggregate, or the same aggregate as a parenthesized
        subquery over the package, (SELECT COUNT(*) FROM pkg [WHERE ...])."""
        if not self.accept("op", "("):
            return self.parse_aggregate_call(shorthand=True)
        self.expect("kw", "SELECT")
        expr = self.parse_aggregate_call(shorthand=False)
        self.expect("kw", "FROM")
        self.expect("ident")  # package name; resolution happens in validate
        if self.accept("kw", "WHERE"):
            where_tok = self.cur
            filt = self.parse_base_predicate()
            if expr.kind != COUNT:
                self.error("only COUNT(*) subqueries may carry WHERE", where_tok)
            expr = AggregateExpr(FILTERED_COUNT, filter=filt)
        self.expect("op", ")")
        return expr

    def parse_aggregate_call(self, shorthand: bool) -> AggregateExpr:
        """COUNT(*), SUM(attr) or AVG(attr); the shorthand also takes
        COUNT(pkg.*)."""
        tok = self.expect("kw")
        kind = _AGGREGATES.get(tok.value)
        if kind is None:
            self.error(f"expected an aggregate, got {tok.value!r}", tok)
        self.expect("op", "(")
        if kind == COUNT:
            if shorthand and not self.at("op", "*"):
                self.expect("ident")
                self.expect("op", ".")
            self.expect("op", "*")
            expr = AggregateExpr(COUNT)
        else:
            expr = AggregateExpr(kind, attr=self.parse_attr_ref())
        self.expect("op", ")")
        return expr


def parse(text: str) -> PackageQuery:
    """Parse PaQL text into an unvalidated PackageQuery AST."""
    return _Parser(text).parse_query()


# ---------------------------------------------------------------------------
# Validation


def _strip_qualifier(ref: str, q: PackageQuery) -> str:
    if "." not in ref:
        return ref
    qual, attr = ref.split(".", 1)
    known = {q.relation_alias, q.relation_name, q.package_name}
    if qual not in known:
        raise ValidationError(f"unknown qualifier {qual!r} in {ref!r}")
    return attr


def _validate_base(pred: BasePredicate, q: PackageQuery, schema: Schema,
                   where: str) -> BasePredicate:
    out = []
    for c in pred.conjuncts:
        attr = _strip_qualifier(c.attr, q)
        if not schema.has(attr):
            raise ValidationError(f"unknown attribute {attr!r} in {where}")
        kind = schema.kind_of(attr)
        if kind == CATEGORICAL:
            if c.op not in ("=", "!="):
                raise ValidationError(
                    f"operator {c.op!r} not allowed on categorical {attr!r}")
            if not isinstance(c.value, str):
                raise ValidationError(
                    f"categorical {attr!r} compared to non-string {c.value!r}")
        else:
            if isinstance(c.value, str):
                raise ValidationError(
                    f"numeric {attr!r} compared to string {c.value!r}")
        out.append(Comparison(attr, c.op, c.value))
    return BasePredicate(tuple(out))


def _validate_aggregate(expr: AggregateExpr, q: PackageQuery,
                        schema: Schema, where: str) -> AggregateExpr:
    if expr.kind == COUNT:
        return expr
    if expr.kind == FILTERED_COUNT:
        return AggregateExpr(
            FILTERED_COUNT, filter=_validate_base(expr.filter, q, schema, where))
    attr = _strip_qualifier(expr.attr, q)
    if not schema.has(attr):
        raise ValidationError(f"unknown attribute {attr!r} in {where}")
    if schema.kind_of(attr) != NUMERIC:
        raise ValidationError(
            f"aggregate over categorical attribute {attr!r} in {where}")
    return AggregateExpr(expr.kind, attr=attr)


def validate(q: PackageQuery, schema: Schema) -> PackageQuery:
    """Resolve and type-check a parsed query against a relation schema.

    Returns a normalized copy: alias qualifiers stripped, BETWEEN lowered
    to a >= / <= pair, ``validated`` set. Raises ValidationError on unknown
    attributes, type mismatches, non-linear objectives, or unsupported
    aggregate comparisons.
    """
    base = None
    if q.base_predicate is not None:
        base = _validate_base(q.base_predicate, q, schema, "WHERE")

    globals_out: list[GlobalPredicate] = []
    for g in q.global_predicates:
        lhs = _validate_aggregate(g.lhs, q, schema, "SUCH THAT")
        if isinstance(g.rhs, AggregateExpr):
            rhs = _validate_aggregate(g.rhs, q, schema, "SUCH THAT")
            if lhs.kind != FILTERED_COUNT or rhs.kind != FILTERED_COUNT:
                raise ValidationError(
                    "aggregate-to-aggregate comparison is supported only "
                    "between filtered COUNT subqueries")
            globals_out.append(GlobalPredicate(lhs, g.op, rhs, g.linear_shift))
        elif g.op == "between":
            lo, hi = g.rhs
            globals_out.append(GlobalPredicate(lhs, ">=", lo, g.linear_shift))
            globals_out.append(GlobalPredicate(lhs, "<=", hi, g.linear_shift))
        else:
            globals_out.append(GlobalPredicate(lhs, g.op, float(g.rhs), g.linear_shift))

    objective = None
    if q.objective is not None:
        expr = _validate_aggregate(q.objective.expr, q, schema, "objective")
        if expr.kind == AVG:
            raise ValidationError("unsupported: non-linear AVG objective")
        objective = Objective(q.objective.direction, expr)

    return replace(
        q,
        base_predicate=base,
        global_predicates=tuple(globals_out),
        objective=objective,
        validated=True,
    )


# ---------------------------------------------------------------------------
# Printing


def _fmt_value(v: Union[float, str]) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(float(v))


def _qualify(attr: str, owner: str) -> str:
    # unvalidated ASTs may keep surface qualifiers; don't double-qualify
    return attr if "." in attr else f"{owner}.{attr}"


def _fmt_base(pred: BasePredicate, owner: str) -> str:
    return " AND ".join(
        f"{_qualify(c.attr, owner)} {'<>' if c.op == '!=' else c.op} "
        f"{_fmt_value(c.value)}"
        for c in pred.conjuncts)


def _fmt_aggregate(expr: AggregateExpr, pkg: str) -> str:
    if expr.kind == COUNT:
        return f"COUNT({pkg}.*)"
    if expr.kind == SUM:
        return f"SUM({_qualify(expr.attr, pkg)})"
    if expr.kind == AVG:
        return f"AVG({_qualify(expr.attr, pkg)})"
    return f"(SELECT COUNT(*) FROM {pkg} WHERE {_fmt_base(expr.filter, pkg)})"


def to_paql(q: PackageQuery) -> str:
    """Pretty-print a query; parse(to_paql(q)) is structurally equal to q."""
    lines = [f"SELECT PACKAGE({q.relation_alias}) AS {q.package_name}"]
    from_line = f"FROM {q.relation_name}"
    if q.relation_alias != q.relation_name:
        from_line += f" {q.relation_alias}"
    if q.repeat is not None:
        from_line += f" REPEAT {q.repeat}"
    lines.append(from_line)
    if q.base_predicate:
        lines.append(f"WHERE {_fmt_base(q.base_predicate, q.relation_alias)}")
    if q.global_predicates:
        parts = []
        for g in q.global_predicates:
            lhs = _fmt_aggregate(g.lhs, q.package_name)
            if g.op == "between":
                lo, hi = g.rhs
                parts.append(f"{lhs} BETWEEN {repr(lo)} AND {repr(hi)}")
            elif isinstance(g.rhs, AggregateExpr):
                parts.append(f"{lhs} {g.op} {_fmt_aggregate(g.rhs, q.package_name)}")
            else:
                parts.append(f"{lhs} {g.op} {repr(float(g.rhs))}")
        lines.append("SUCH THAT " + " AND ".join(parts))
    if q.objective:
        kw = "MINIMIZE" if q.objective.direction == MINIMIZE else "MAXIMIZE"
        lines.append(f"{kw} {_fmt_aggregate(q.objective.expr, q.package_name)}")
    return "\n".join(lines)


def load_query(path) -> PackageQuery:
    """Parse a .paql file (UTF-8, one query per file)."""
    return parse(read_utf8(path, PaqlError))
