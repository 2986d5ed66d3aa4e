import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_load_csv, tuple_passes
from pkgquery import paql, relation
from pkgquery.relation import (
    RelationError,
    Schema,
    apply_base_predicate,
    from_columns,
    load_csv,
    save_csv,
)


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_kind_inference(self, tmp_path):
        rel = load_csv(write(tmp_path, "pk,gluten,kcal,fat\n1,free,0.3,0.1\n2,full,0.9,0.2\n3,free,0.7,0.3\n"))
        assert rel.n == 3
        kinds = dict(rel.schema.attributes)
        assert kinds == {"pk": "numeric", "gluten": "categorical",
                         "kcal": "numeric", "fat": "numeric"}

    def test_header_only(self, tmp_path):
        rel = load_csv(write(tmp_path, "a,b\n"))
        assert rel.n == 0

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(RelationError, match="non-finite"):
            load_csv(write(tmp_path, "a\n1.0\nNaN\n"))

    def test_inf_rejected(self, tmp_path):
        with pytest.raises(RelationError, match="non-finite"):
            load_csv(write(tmp_path, "a\ninf\n"))

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(RelationError, match="duplicate"):
            load_csv(write(tmp_path, "a,a\n1,2\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(RelationError, match="expected 2 fields"):
            load_csv(write(tmp_path, "a,b\n1,2\n3\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_roundtrip(self, tmp_path, monkeypatch):
        # save_csv writes repr(float), which reads back to the same double;
        # without the categorical column the file takes the vectorized path
        xs = [0.1, 2.5e-7, 123456.789, -0.0, 1 / 3, 5e-324]
        tags = ["a", "b", "c", "d", "e", "f"]
        for columns in ({"x": xs, "tag": tags}, {"x": xs}):
            rel = from_columns("T", columns, kinds={"tag": "categorical"})
            path = tmp_path / "out.csv"
            save_csv(rel, path)
            with monkeypatch.context() as patched:
                if "tag" not in columns:
                    patched.setattr(relation.csv, "reader", TestLoadCsvPath._refuse)
                back = load_csv(path)
            assert back.schema.attributes == rel.schema.attributes
            assert back.column("x").tobytes() == rel.column("x").tobytes()
            if "tag" in columns:
                assert back.columns["tag"] == tags

    @pytest.mark.parametrize("text, line", [
        ("a" * 140_001 + ",b\n1,x\n", 1),
        ("a,b\n1,x\n2," + "y" * 140_001 + "\n", 3),
    ], ids=["header", "row"])
    def test_cell_over_the_csv_field_limit(self, tmp_path, text, line):
        with pytest.raises(RelationError,
                           match=rf"d\.csv:{line}: field larger than field limit"):
            load_csv(write(tmp_path, text))

    def test_non_utf8_names_path_and_offset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(RelationError,
                           match=r"d\.csv: not UTF-8 text \(invalid byte at offset 10\)"):
            load_csv(path)


def _outcome(load):
    """What a loader gives: ``[(attr, kind, values)]`` with numeric values as
    bytes, or the class and message of the RelationError it raises."""
    try:
        result = load()
    except RelationError as exc:
        return type(exc), str(exc)
    if not isinstance(result, list):
        result = [(a, k, result.columns[a]) for a, k in result.schema.attributes]
    return [(a, k, v.tobytes() if k == "numeric" else v) for a, k, v in result]


def assert_loads_like_reference(path, name=None):
    loaded = []

    def load():
        loaded.append(load_csv(path, name))
        return loaded[0]

    assert _outcome(load) == _outcome(lambda: reference_load_csv(path))
    assert all(rel.schema.name == (name or "R") for rel in loaded)


_CELLS = ["1", "-0", "0.5", "1e3", ".5", "5.", "1.2345678901234567", " 2 ", "\t3",
          "\xa04", "5\x0c", "1_0", "\u0661", "inf", "-Infinity", "nan", "1e999",
          "#3", "", "x", "0x10", "1,5", '"7"', '"1,2"', '"a\nb"', "\x00", "1\u2028"]
_NUMERIC_CELLS = _CELLS[:8]


@pytest.mark.filterwarnings("error")
class TestLoadCsvMatchesReference:
    """load_csv against the cell-by-cell csv.reader + float() reference."""

    @pytest.mark.parametrize("text, name", [
        ("a,b\n1,2\n3,4\n", None),
        ("a,b\n1,2\n3,4", None),
        ("a,b\n", None),
        ("a,b", None),
        ("", None),
        ("\n1\n", None),
        ("a\n\n", None),
        ("a\n\n\n", None),
        ("a\n1\n\n2\n", None),
        ("a,b\n1,2\n\n", None),
        ("a\n\n1\n", None),
        ("a\n1\n  \n2\n", None),
        ("a\n \t\n", None),
        ("a,b\r\n1,2\r\n3,4\r\n", None),
        ("a,b\r1,2\r3,4\r", None),
        ("a,b\n1,2\r3,4\n", None),
        ('a,b\n"1,5",2\n', None),
        ('a,b\n"1\n5",2\n', None),
        ('a,b\n"1",2\n', None),
        ("a,b\n#1,2\n", None),
        ("a\n1_0\n", None),
        ("a\n\u0661\u0662\n", None),
        ("a\ninf\n", None),
        ("a\nnan\n", None),
        ("a\n1e999\n", None),
        ("a,b\n1,\n", None),
        ("a,b\n1,2,\n", None),
        ("a,b,\n1,2,3\n", None),
        ("a,b\n1\n", None),
        ("a,a\n1,2\n", None),
        ("a\n 1 \n\x0c2\n", None),
        ("\ufeffa\n1\n", None),
        ("a\x00b\n1\n", None),
        ("a\n1\x00\n", None),
        ("a,b\n1,2\n", "T"),
        ("a,b\n1,x\n", "T"),
        # an all-numeric file with a cell over csv.field_size_limit()
        pytest.param("a,b\n0." + "0" * 140_000 + "1,2\n", None,
                     id="long-numeric-cell"),
    ])
    def test_corpus(self, tmp_path, text, name):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_like_reference(path, name)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_files(self, data):
        width = data.draw(st.integers(1, 3))
        header = data.draw(st.lists(st.sampled_from(["a", "b", "c", "", "#h"]),
                                    min_size=width, max_size=width))
        cell = st.one_of(st.sampled_from(_NUMERIC_CELLS), st.sampled_from(_CELLS),
                         st.text("0123456789.eE+-_ ,#\n\r\"\t\x00\xa0\u0661", max_size=5))
        rows = data.draw(st.lists(st.one_of(
            st.lists(st.sampled_from(_NUMERIC_CELLS), min_size=width, max_size=width),
            st.lists(cell, min_size=width - 1, max_size=width + 1),
            st.sampled_from([[], ["  "]])), max_size=6))
        newline = data.draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
        text = newline.join(",".join(r) for r in [header] + rows)
        if data.draw(st.booleans()):
            text += newline
        name = data.draw(st.sampled_from([None, "T"]))
        # tempfile in place of tmp_path: hypothesis reruns the body per example
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_loads_like_reference(path, name)


class TestLoadCsvPath:
    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    def test_all_numeric_file_is_parsed_without_csv_reader(self, tmp_path, monkeypatch):
        data = np.random.default_rng(3).uniform(0.5, 2.0, size=(300, 4))
        path = tmp_path / "d.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("a0,a1,a2,a3\n")
            np.savetxt(fh, data, fmt="%.17g", delimiter=",")
        monkeypatch.setattr(relation.csv, "reader", self._refuse)
        rel = load_csv(path)
        assert rel.n == 300
        for j in range(4):
            col = rel.column(f"a{j}")
            assert col.flags.c_contiguous
            assert col.tobytes() == data[:, j].tobytes()

    def test_categorical_column_goes_through_csv_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(relation.csv, "reader", self._refuse)
        with pytest.raises(AssertionError, match="csv.reader called"):
            load_csv(write(tmp_path, "a,b\n1,x\n2,y\n"))

    def test_utf8_header_keeps_the_vectorized_path(self, tmp_path, monkeypatch):
        # only the data lines need to be ASCII
        path = write(tmp_path, "kcal_\u00e9,fat\n1,2\n3,4\n")
        expected = _outcome(lambda: reference_load_csv(path))
        monkeypatch.setattr(relation.csv, "reader", self._refuse)
        assert _outcome(lambda: load_csv(path)) == expected

    @staticmethod
    def _peak_of_load(path, header, data):
        """Write ``data`` under ``header`` and load it: the traced peak."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            np.savetxt(fh, data, fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            rel = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rel.n == len(data)
        return peak

    def test_peak_memory_of_one_load(self, tmp_path):
        # the file's bytes are parsed in place: no decoded copy of the text
        # and no list of its lines sit beside them
        data = np.random.default_rng(4).uniform(0.5, 2.0, size=(20_000, 4))
        path = tmp_path / "d.csv"
        peak = self._peak_of_load(path, "a0,a1,a2,a3", data)
        assert peak <= path.stat().st_size + 4 * data.nbytes

    def test_utf8_header_adds_no_copy_of_the_body(self, tmp_path):
        # the data lines are checked for ASCII in place, not sliced off
        data = np.random.default_rng(4).uniform(0.5, 2.0, size=(20_000, 4))
        ascii_peak = self._peak_of_load(tmp_path / "a.csv", "a0,a1,a2,a3", data)
        utf8_peak = self._peak_of_load(tmp_path / "u.csv", "a0,a1,a2,\u00e93", data)
        assert utf8_peak <= 1.10 * ascii_peak


class TestSchema:
    def test_needs_attributes(self):
        with pytest.raises(RelationError):
            Schema("T", ())

    def test_rejects_empty_name(self):
        with pytest.raises(RelationError):
            Schema("T", (("", "numeric"),))

    def test_tuple_ids_and_rows(self, recipes):
        # tuple id i is row i of every column
        assert recipes.n == 5
        assert recipes.column("kcal")[2] == 0.7
        assert recipes.column("saturated_fat")[2] == 0.3
        assert len(recipes.columns["gluten"]) == 5


def pred(*conjuncts):
    return paql.BasePredicate(tuple(paql.Comparison(*c) for c in conjuncts))


class TestBasePredicate:
    def test_categorical_filter(self):
        rel = from_columns("R", {"gluten": ["free", "full", "free"]},
                           kinds={"gluten": "categorical"})
        assert apply_base_predicate(rel, pred(("gluten", "=", "free"))).tolist() == [0, 2]

    def test_empty_relation(self):
        rel = from_columns("R", {"x": []})
        assert apply_base_predicate(rel, pred(("x", ">=", 0.0))).tolist() == []

    def test_numeric_threshold(self):
        rel = from_columns("R", {"kcal": [0.3, 0.9, 0.7]})
        assert apply_base_predicate(rel, pred(("kcal", ">=", 0.5))).tolist() == [1, 2]

    def test_unknown_attribute(self, recipes):
        with pytest.raises(RelationError, match="unknown attribute"):
            apply_base_predicate(recipes, pred(("nope", "=", 1.0)))

    def test_ordering_on_categorical_rejected(self, recipes):
        with pytest.raises(RelationError, match="not allowed"):
            apply_base_predicate(recipes, pred(("gluten", "<", "free")))

    def test_numeric_vs_string_rejected(self, recipes):
        with pytest.raises(RelationError, match="string"):
            apply_base_predicate(recipes, pred(("kcal", "=", "free")))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_tuple_reevaluation(self, data):
        n = data.draw(st.integers(1, 60))
        xs = data.draw(st.lists(
            st.integers(-5, 5).map(lambda v: v / 2.0), min_size=n, max_size=n))
        tags = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
        rel = from_columns("R", {"x": xs, "tag": tags}, kinds={"tag": "categorical"})
        op = data.draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        bound = data.draw(st.integers(-5, 5)) / 2.0
        p = pred(("x", op, bound), ("tag", "=", data.draw(st.sampled_from(["a", "b"]))))
        got = set(apply_base_predicate(rel, p).tolist())
        expected = {i for i in range(n) if tuple_passes(rel, p, i)}
        assert got == expected
