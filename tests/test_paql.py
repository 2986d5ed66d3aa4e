import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgquery import paql
from pkgquery.paql import (
    AVG,
    COUNT,
    FILTERED_COUNT,
    MAXIMIZE,
    MINIMIZE,
    SUM,
    ParseError,
    ValidationError,
    parse,
    to_paql,
    validate,
)
from pkgquery.relation import Schema

SCHEMA = Schema("Recipes", (
    ("kcal", "numeric"), ("saturated_fat", "numeric"),
    ("carbs", "numeric"), ("protein", "numeric"),
    ("gluten", "categorical"),
))


class TestParse:
    def test_meal_planner(self):
        q = parse("""
            SELECT PACKAGE(R) AS P
            FROM Recipes R REPEAT 0
            WHERE R.gluten = 'free'
            SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
            MINIMIZE SUM(P.saturated_fat)
        """)
        assert q.repeat == 0
        assert len(q.base_predicate.conjuncts) == 1
        assert len(q.global_predicates) == 2
        assert q.global_predicates[0].op == "="
        assert q.global_predicates[1].op == "between"
        assert q.objective.direction == MINIMIZE

    def test_bare_package_query(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R")
        assert q.repeat is None
        assert q.base_predicate is None
        assert q.global_predicates == ()
        assert q.objective is None

    def test_strict_global_inequality_rejected(self):
        with pytest.raises(ParseError, match="strict global inequality"):
            parse("SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.kcal) < 2")

    def test_joins_rejected(self):
        with pytest.raises(ParseError, match="joins"):
            parse("SELECT PACKAGE(R) AS P FROM T R, U S")

    def test_or_rejected(self):
        with pytest.raises(ParseError, match="OR"):
            parse("SELECT PACKAGE(R) AS P FROM T R WHERE R.a = 1 OR R.b = 2")

    def test_case_insensitive_keywords(self):
        q = parse("select package(r) as p from t r repeat 2 such that count(p.*) >= 1")
        assert q.repeat == 2
        assert q.global_predicates[0].lhs.kind == COUNT

    def test_keywords_preserve_identifier_case(self):
        q = parse("SELECT PACKAGE(R) AS P FROM MixedCase R SUCH THAT SUM(P.KCal) <= 1")
        assert q.relation_name == "MixedCase"
        assert q.global_predicates[0].lhs.attr == "KCal"

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("SELECT PACKAGE(R) AS P\nFROM T R\nSUCH THAT COUNT(P.*) == 3")
        assert err.value.line == 3

    def test_missing_from(self):
        with pytest.raises(ParseError, match="FROM"):
            parse("SELECT PACKAGE(R) AS P")

    def test_package_alias_list_parses(self):
        with pytest.raises(ParseError, match="multiple relation aliases") as err:
            parse("SELECT PACKAGE(A, B) AS P FROM T A")
        assert (err.value.line, err.value.col) == (1, 17)

    @pytest.mark.parametrize("text,line,col,message", [
        # a string literal that spans two lines moves the line count on
        ("SELECT PACKAGE(R) AS P FROM T R\nWHERE R.tag = 'a\nb' AND R.x = 1 OR",
         3, 16, "OR in predicates"),
        ("SELECT PACKAGE(R) AS P\n@FROM T R", 2, 1, "unexpected character '@'"),
    ])
    def test_error_position_after_newlines(self, text, line, col, message):
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value).startswith(f"{line}:{col}: ")

    def test_no_as_keyword(self):
        q = parse("SELECT PACKAGE(R) P FROM Recipes R")
        assert q.package_name == "P"

    def test_default_package_name(self):
        q = parse("SELECT PACKAGE(R) FROM Recipes R")
        assert q.package_name == "R"

    def test_between_bounds_ordered(self):
        with pytest.raises(ParseError, match="out of order"):
            parse("SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.x) BETWEEN 3 AND 2")

    def test_negative_bounds(self):
        q = parse("SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.x) >= -2.5")
        assert q.global_predicates[0].rhs == -2.5

    def test_repeat_must_be_integer(self):
        with pytest.raises(ParseError, match="non-negative integer"):
            parse("SELECT PACKAGE(R) AS P FROM T R REPEAT 1.5")

    def test_quoted_string_escape(self):
        q = parse("SELECT PACKAGE(R) AS P FROM T R WHERE R.tag = 'it''s'")
        assert q.base_predicate.conjuncts[0].value == "it's"

    def test_filtered_count_pair(self):
        q = parse("""
            SELECT PACKAGE(R) AS P FROM T R SUCH THAT
            (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >=
            (SELECT COUNT(*) FROM P WHERE P.protein <= 5)
        """)
        g = q.global_predicates[0]
        assert g.lhs.kind == FILTERED_COUNT
        assert g.rhs.kind == FILTERED_COUNT

    def test_filtered_sum_rejected(self):
        with pytest.raises(ParseError, match="COUNT"):
            parse("SELECT PACKAGE(R) AS P FROM T R SUCH THAT "
                  "(SELECT SUM(x) FROM P WHERE P.x > 0) <= 1")

    @pytest.mark.parametrize("subquery, name", [
        ("(SELECT COUNT(*) FROM Nope WHERE x >= 1)", "Nope"),
        ("(SELECT SUM(x) FROM R)", "R"),
    ])
    def test_subquery_from_must_name_the_package(self, subquery, name):
        head = "SELECT PACKAGE(R) AS P FROM R SUCH THAT "
        with pytest.raises(ParseError, match=f"reads the package 'P', not '{name}'") as exc:
            parse(f"{head}{subquery} >= 1")
        assert exc.value.col == len(head) + subquery.index(f"FROM {name}") + 6
        q = parse(f"{head}{subquery.replace(f'FROM {name}', 'FROM P')} >= 1")
        assert q.global_predicates[0].lhs.kind in (FILTERED_COUNT, SUM)


class TestEquivalence:
    @pytest.mark.parametrize("short,subquery", [
        ("COUNT(P.*)", "(SELECT COUNT(*) FROM P)"),
        ("SUM(P.kcal)", "(SELECT SUM(kcal) FROM P)"),
        ("AVG(P.kcal)", "(SELECT AVG(kcal) FROM P)"),
    ])
    def test_shorthand_equals_subquery(self, short, subquery):
        a = parse(f"SELECT PACKAGE(R) AS P FROM T R SUCH THAT {short} <= 3")
        b = parse(f"SELECT PACKAGE(R) AS P FROM T R SUCH THAT {subquery} <= 3")
        assert a == b


CORPUS = [
    "SELECT PACKAGE(R) AS P FROM Recipes R",
    "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0",
    """SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 1
       WHERE R.gluten = 'free' AND R.kcal >= 0.25
       SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
       MINIMIZE SUM(P.saturated_fat)""",
    """SELECT PACKAGE(R) AS P FROM T R SUCH THAT
       (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >=
       (SELECT COUNT(*) FROM P WHERE P.protein <= 5)
       MAXIMIZE COUNT(P.*)""",
    "SELECT PACKAGE(R) AS P FROM T R SUCH THAT AVG(P.kcal) <= 0.5 AND COUNT(P.*) >= 1",
    "SELECT PACKAGE(R) AS P FROM T R REPEAT 3 MAXIMIZE SUM(P.kcal)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", CORPUS)
    def test_print_parse_identity(self, text):
        q = parse(text)
        assert parse(to_paql(q)) == q

    def test_validated_roundtrip(self):
        q = validate(parse(CORPUS[2]), SCHEMA)
        again = validate(parse(to_paql(q)), SCHEMA)
        assert again == q


@st.composite
def random_query_ast(draw):
    attrs = ["kcal", "carbs", "protein"]
    preds = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([COUNT, SUM, AVG]))
        expr = paql.AggregateExpr(kind, attr=draw(st.sampled_from(attrs))
                                  if kind != COUNT else None)
        op = draw(st.sampled_from(["<=", ">=", "=", "between"]))
        if op == "between":
            lo = draw(st.integers(-8, 8)) / 4.0
            hi = lo + draw(st.integers(0, 8)) / 4.0
            preds.append(paql.GlobalPredicate(expr, op, (lo, hi)))
        else:
            preds.append(paql.GlobalPredicate(expr, op, draw(st.integers(-8, 8)) / 4.0))
    objective = None
    if draw(st.booleans()):
        objective = paql.Objective(
            draw(st.sampled_from([MINIMIZE, MAXIMIZE])),
            paql.AggregateExpr(SUM, attr=draw(st.sampled_from(attrs))))
    return paql.PackageQuery(
        relation_name="Recipes", relation_alias="R", package_name="P",
        repeat=draw(st.sampled_from([None, 0, 1, 5])),
        base_predicate=None,
        global_predicates=tuple(preds), objective=objective)


@settings(max_examples=80, deadline=None)
@given(random_query_ast())
def test_roundtrip_property(q):
    assert parse(to_paql(q)) == q


class TestValidate:
    def test_meal_planner_lowering(self):
        q = validate(parse(CORPUS[2]), SCHEMA)
        assert [g.op for g in q.global_predicates] == ["=", ">=", "<="]
        assert q.global_predicates[1].rhs == 2.0
        assert q.global_predicates[2].rhs == 2.5
        assert q.validated

    def test_unknown_attribute(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.calories) <= 2")
        with pytest.raises(ValidationError, match="calories"):
            validate(q, SCHEMA)

    def test_aggregate_over_categorical(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT AVG(P.gluten) <= 2")
        with pytest.raises(ValidationError, match="categorical"):
            validate(q, SCHEMA)

    def test_unknown_qualifier(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(Z.kcal) <= 2")
        assert q.global_predicates[0].lhs.attr == "Z.kcal"  # kept for validate
        with pytest.raises(ValidationError, match="qualifier"):
            validate(q, SCHEMA)

    def test_qualifiers_of_an_ast_built_in_code(self):
        # the parser drops known qualifiers; validate does it for other ASTs
        def query(attr):
            return paql.PackageQuery(
                "Recipes", "R", "P", objective=paql.Objective(
                    MAXIMIZE, paql.AggregateExpr(SUM, attr=attr)))
        for attr in ("kcal", "R.kcal", "P.kcal", "Recipes.kcal"):
            assert validate(query(attr), SCHEMA).objective.expr.attr == "kcal"
        with pytest.raises(ValidationError, match="unknown qualifier 'Z'"):
            validate(query("Z.kcal"), SCHEMA)

    def test_avg_objective_rejected(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R MINIMIZE AVG(P.kcal)")
        with pytest.raises(ValidationError, match="non-linear"):
            validate(q, SCHEMA)

    def test_count_vs_filtered_count_rejected(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT "
                  "COUNT(P.*) >= (SELECT COUNT(*) FROM P WHERE P.kcal > 0)")
        with pytest.raises(ValidationError, match="filtered COUNT"):
            validate(q, SCHEMA)

    def test_categorical_ordering_rejected(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten < 'free'")
        with pytest.raises(ValidationError, match="not allowed"):
            validate(q, SCHEMA)

    def test_base_numeric_vs_string_rejected(self):
        q = parse("SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.kcal = 'free'")
        with pytest.raises(ValidationError, match="string"):
            validate(q, SCHEMA)


_KEYWORD_CASES = st.sampled_from(sorted(paql._KEYWORDS)).flatmap(
    lambda kw: st.lists(st.booleans(), min_size=len(kw), max_size=len(kw)).map(
        lambda ups: "".join(ch.upper() if up else ch.lower() for ch, up in zip(kw, ups))))
_NUMBERS = st.builds(
    lambda whole, frac, exp: whole + frac + exp,
    st.sampled_from(["", "0", "7", "12"]),
    st.sampled_from(["", ".", ".5", ".25"]),
    st.sampled_from(["", "e3", "E-2", "e+10", "e"]))
_PIECES = st.one_of(
    _KEYWORD_CASES,
    st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,5}", fullmatch=True),
    _NUMBERS,
    st.lists(st.sampled_from(["a", "b", " ", "''", "\n"]), max_size=4).map(
        lambda parts: "'" + "".join(parts) + "'"),
    st.sampled_from(["<=", ">=", "!=", "<>", "<", ">", "=", "(", ")", ",", ".",
                     "*", ";", "+", "-"]),
    st.sampled_from(["@", "#", "$", "?", '"', "!", "'", "\\", "é"]),  # stray
)
_SPACES = st.text(alphabet=" \t\n\r\x0b\x0c\x1c  ", max_size=3)


@settings(max_examples=250, deadline=None)
@given(st.lists(st.tuples(_SPACES, _PIECES), max_size=12), _SPACES)
def test_tokenizer_matches_reference(pieces, tail):
    from helpers import tokenize_reference

    text = "".join(space + piece for space, piece in pieces) + tail
    try:
        want = tokenize_reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            paql._tokenize(text)
        assert (err.value.line, err.value.col, str(err.value)) == (exc.line, exc.col, str(exc))
        return
    assert paql._tokenize(text) == want
