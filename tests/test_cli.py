import json
import math

import pytest

from pkgquery import paql
from pkgquery.cli import main
from pkgquery.generate import gen_dataset, gen_workload, queries_to_files
from pkgquery.partitioning import load_partitioning
from pkgquery.relation import load_csv, save_csv


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rel = gen_dataset(300, 3, seed=21, low=0.5, high=2.0, grid=1 / 64)
    csv_path = root / "d.csv"
    save_csv(rel, csv_path)
    queries = gen_workload(rel, 3, seed=4, expected_size=4)
    qpaths = queries_to_files(queries, root / "wl")
    return root, rel, csv_path, queries, qpaths


class TestCli:
    def test_partition_run_roundtrip(self, dataset, capsys):
        root, rel, csv_path, queries, qpaths = dataset
        part_path = root / "p.json"
        rc = main(["partition", "--input", str(csv_path), "--attrs", "a0,a1,a2",
                   "--tau", "50", "--out", str(part_path)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["omega"] == "inf"
        for key in ("load_ms", "partition_ms", "save_ms"):
            assert info[key] >= 0
        p = load_partitioning(part_path, rel)
        assert p.sizes.max() <= 50

        rc = main(["run", "--method", "direct", "--query", qpaths[0],
                   "--input", str(csv_path)])
        out_direct = json.loads(capsys.readouterr().out)
        assert rc in (0, 2)
        assert out_direct["method"] == "direct"

        rc = main(["run", "--method", "sketchrefine", "--query", qpaths[0],
                   "--input", str(csv_path), "--partitioning", str(part_path)])
        out_sr = json.loads(capsys.readouterr().out)
        assert rc in (0, 2)
        assert out_sr["method"] == "sketchrefine"
        if rc == 0 and out_direct["status"] == "feasible":
            assert out_sr["status"] == "feasible"
            assert out_sr["package"] is not None

    def test_run_is_deterministic(self, dataset, capsys):
        root, rel, csv_path, queries, qpaths = dataset
        part_path = root / "p.json"
        args = ["run", "--method", "sketchrefine", "--query", qpaths[1],
                "--input", str(csv_path), "--partitioning", str(part_path),
                "--seed", "5"]
        main(args)
        a = json.loads(capsys.readouterr().out)
        main(args)
        b = json.loads(capsys.readouterr().out)
        assert a["status"] == b["status"]
        assert a["objective"] == b["objective"]
        assert a["package"] == b["package"]

    def test_run_requires_partitioning(self, dataset, capsys):
        root, rel, csv_path, queries, qpaths = dataset
        rc = main(["run", "--method", "sketchrefine", "--query", qpaths[0],
                   "--input", str(csv_path)])
        assert rc == 2
        assert "partitioning" in capsys.readouterr().err

    def test_partition_tau_zero_usage_error(self, dataset, capsys):
        root, rel, csv_path, *_ = dataset
        rc = main(["partition", "--input", str(csv_path), "--attrs", "a0",
                   "--tau", "0", "--out", str(root / "z.json")])
        assert rc == 2

    def test_partition_epsilon_writes_radius_limit(self, dataset, capsys):
        root, rel, csv_path, *_ = dataset
        out = root / "pe.json"
        rc = main(["partition", "--input", str(csv_path), "--attrs", "a0,a1",
                   "--tau", "40", "--epsilon", "0.1", "--direction", "min",
                   "--out", str(out)])
        assert rc == 0
        p = load_partitioning(out, rel)
        assert math.isfinite(p.omega)
        assert p.radii.max() <= p.omega + 1e-12

    def test_partition_omega_inf_flag(self, dataset, capsys):
        root, rel, csv_path, *_ = dataset
        out = root / "pinf.json"
        rc = main(["partition", "--input", str(csv_path), "--attrs", "a0",
                   "--tau", "40", "--omega", "inf", "--out", str(out)])
        assert rc == 0
        assert math.isinf(load_partitioning(out, rel).omega)

    @pytest.mark.parametrize("command, flag", [
        ("partition", ["--backtrack-limit", "3"]),
        ("partition", ["--seed", "3"]),
        ("gen", ["--time-limit-s", "5"]),
    ])
    def test_evaluation_flags_only_where_read(self, dataset, capsys, command, flag):
        root, rel, csv_path, *_ = dataset
        args = {"partition": ["partition", "--input", str(csv_path), "--attrs", "a0",
                              "--tau", "40", "--out", str(root / "unused.json")],
                "gen": ["gen", "--rows", "4", "--out", str(root / "unused.csv")]}
        with pytest.raises(SystemExit) as exc:
            main(args[command] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--omega", "nan"],
        ["--omega", "-1"],
        ["--epsilon", "nan", "--direction", "min"],
        ["--epsilon", "nan", "--direction", "max"],
        ["--omega", "1", "--epsilon", "0.1", "--direction", "min"],
        ["--direction", "min"],
    ])
    def test_partition_bad_radius_limit_usage_error(self, dataset, capsys, flags):
        root, rel, csv_path, *_ = dataset
        out = root / "bad.json"
        rc = main(["partition", "--input", str(csv_path), "--attrs", "a0",
                   "--tau", "40", *flags, "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--time-limit-s", "nan"],
        ["--time-limit-s", "-1"],
        ["--backtrack-limit", "-1"],
        ["--recursion-threshold", "-1"],
    ])
    def test_run_bad_bound_usage_error(self, dataset, capsys, flags):
        root, rel, csv_path, queries, qpaths = dataset
        rc = main(["run", "--method", "direct", "--query", qpaths[0],
                   "--input", str(csv_path), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert "must be >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        ("SELECT PACKAGE(R) AS P FROM R SUCH THAT", "1:40:"),  # does not parse
        ("SELECT PACKAGE(R) AS P FROM R MAXIMIZE SUM(P.nope)",
         "unknown attribute 'nope'"),  # does not validate
    ])
    def test_run_bad_query_exits_1(self, dataset, capsys, tmp_path, text, message):
        root, rel, csv_path, *_ = dataset
        query = tmp_path / "bad.paql"
        query.write_text(text)
        rc = main(["run", "--method", "direct", "--query", str(query),
                   "--input", str(csv_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_run_malformed_csv_exits_1(self, dataset, capsys, tmp_path):
        root, rel, csv_path, queries, qpaths = dataset
        bad = tmp_path / "bad.csv"
        bad.write_text("a0,a1,a2\n1,2,3\n4,5\n")
        rc = main(["run", "--method", "direct", "--query", qpaths[0],
                   "--input", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "expected 3 fields" in captured.err
        assert captured.out == ""

    def test_run_parses_the_query_before_loading_the_csv(self, capsys, tmp_path):
        # with both files bad, the query's error is the one reported
        query, bad = tmp_path / "bad.paql", tmp_path / "bad.csv"
        query.write_text("SELECT PACKAGE(R) AS P FROM R SUCH THAT")
        bad.write_text("a0,a1,a2\n1,2,3\n4,5\n")
        self._run_error(capsys, ["run", "--method", "direct", "--query", str(query),
                                 "--input", str(bad)], 1, "1:40:")

    def test_run_partitioning_of_another_relation_exits_1(self, dataset, capsys, tmp_path):
        root, rel, csv_path, queries, qpaths = dataset
        other = tmp_path / "other.csv"
        other.write_text("a0,a1,a2\n1,2,3\n4,5,6\n")
        part = tmp_path / "other.json"
        assert main(["partition", "--input", str(other), "--attrs", "a0",
                     "--tau", "2", "--out", str(part)]) == 0
        capsys.readouterr()
        rc = main(["run", "--method", "sketchrefine", "--query", qpaths[0],
                   "--input", str(csv_path), "--partitioning", str(part)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "covers 2 tuples" in captured.err
        assert captured.out == ""

    @staticmethod
    def _small(tmp_path, query):
        # a 4-row relation with a categorical column, partitioned on (a, b)
        csv_path, part_path, qpath = (tmp_path / "s.csv", tmp_path / "s.json",
                                      tmp_path / "s.paql")
        csv_path.write_text("a,b,c\n1,2,x\n2,3,y\n3,1,x\n4,2,y\n")
        qpath.write_text(query)
        assert main(["partition", "--input", str(csv_path), "--attrs", "a,b",
                     "--tau", "2", "--out", str(part_path)]) == 0
        return csv_path, part_path, qpath

    def _run_error(self, capsys, args, code, message):
        capsys.readouterr()
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_run_unsketchable_query_exits_1(self, tmp_path, capsys):
        csv_path, part_path, qpath = self._small(
            tmp_path, "SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT "
            "(SELECT COUNT(*) FROM P WHERE c = 'x') >= 1 MAXIMIZE SUM(P.a)")
        self._run_error(capsys, ["run", "--method", "sketchrefine", "--query", str(qpath),
                                 "--input", str(csv_path), "--partitioning", str(part_path)],
                        1, "cannot sketch categorical attribute(s) ['c']")

    def test_run_unbounded_repetition_exits_1(self, tmp_path, capsys):
        csv_path, part_path, qpath = self._small(
            tmp_path, "SELECT PACKAGE(R) AS P FROM R MAXIMIZE SUM(P.a)")
        self._run_error(capsys, ["run", "--method", "direct", "--query", str(qpath),
                                 "--input", str(csv_path)], 1, "unbounded repetition")

    @pytest.mark.parametrize("missing", ["query", "input", "partitioning"])
    def test_run_missing_file_exits_1(self, tmp_path, capsys, missing):
        csv_path, part_path, qpath = self._small(
            tmp_path, "SELECT PACKAGE(R) AS P FROM R REPEAT 0 MAXIMIZE SUM(P.a)")
        paths = {"query": qpath, "input": csv_path, "partitioning": part_path}
        paths[missing] = tmp_path / "nope"
        args = ["run", "--method", "sketchrefine"]
        for flag, path in paths.items():
            args += [f"--{flag}", str(path)]
        self._run_error(capsys, args, 1, "No such file")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("attrs"), "malformed partitioning file (KeyError: 'attrs')"),
        (lambda d: d.update(radii=[[0.5, 0.5]]),
         "malformed partitioning file (ValueError: cannot reshape"),
        (lambda d: d.update(gids="not base64!"), "malformed partitioning file"),
        (lambda d: d.update(sizes=[[1], [2]]), "sizes must be a flat list"),
        # a version 1 file: no version key, gids as a JSON list
        (lambda d: (d.pop("version"), d.update(gids=[1, 1, 2, 2])),
         "has no version, this build reads version 2; re-run `pkgquery partition`"),
    ], ids=["no-attrs", "radii-shape", "gids-shape", "sizes-shape", "version-1"])
    def test_run_malformed_partitioning_exits_1(self, tmp_path, capsys, edit, message):
        csv_path, part_path, qpath = self._small(
            tmp_path, "SELECT PACKAGE(R) AS P FROM R REPEAT 0 MAXIMIZE SUM(P.a)")
        saved = json.loads(part_path.read_text())
        edit(saved)
        part_path.write_text(json.dumps(saved))
        self._run_error(capsys, ["run", "--method", "sketchrefine", "--query", str(qpath),
                                 "--input", str(csv_path), "--partitioning", str(part_path)],
                        1, message)

    @pytest.mark.parametrize("attr, message", [
        ("zz", "unknown attribute 'zz'"),
        ("c", "partitioning attribute 'c' is not numeric"),
    ])
    def test_run_partitioning_bad_attribute_exits_1(self, tmp_path, capsys, attr, message):
        # the file names one attribute, with a representatives column to match
        csv_path, part_path, qpath = self._small(
            tmp_path, "SELECT PACKAGE(R) AS P FROM R REPEAT 0 MAXIMIZE SUM(P.a)")
        saved = json.loads(part_path.read_text())
        saved.update(attrs=[attr], representatives=[r[:1] for r in saved["representatives"]])
        part_path.write_text(json.dumps(saved))
        self._run_error(capsys, ["run", "--method", "sketchrefine", "--query", str(qpath),
                                 "--input", str(csv_path), "--partitioning", str(part_path)],
                        1, message)

    @pytest.mark.parametrize("attrs, message", [
        ("a,zz", "unknown attribute 'zz'"),
        ("a,c", "attribute 'c' is not numeric"),
    ])
    def test_partition_bad_attribute_exits_2(self, tmp_path, capsys, attrs, message):
        csv_path, _, _ = self._small(tmp_path, "")
        self._run_error(capsys, ["partition", "--input", str(csv_path), "--attrs", attrs,
                                 "--tau", "2", "--out", str(tmp_path / "x.json")], 2, message)
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command, code", [
        (["run", "--method", "direct", "--query", "{q}", "--input", "{bad}"], 1),
        (["run", "--method", "direct", "--query", "{bad}", "--input", "{csv}"], 1),
        (["partition", "--input", "{bad}", "--attrs", "a", "--tau", "2",
          "--out", "{tmp}/x.json"], 2),
        (["gen", "--workload", "2", "--input", "{bad}", "--out-dir", "{tmp}/wl"], 2),
    ], ids=["run-csv", "run-query", "partition", "gen-workload"])
    def test_non_utf8_input_exits_with_error(self, tmp_path, capsys, command, code):
        csv_path, _, qpath = self._small(
            tmp_path, "SELECT PACKAGE(R) AS P FROM R REPEAT 0 MAXIMIZE SUM(P.a)")
        bad = tmp_path / "bad"
        bad.write_bytes(b"a,b,c\n1,2,\xff\n")
        args = [a.format(q=qpath, csv=csv_path, bad=bad, tmp=tmp_path) for a in command]
        self._run_error(capsys, args, code, f"{bad}: not UTF-8 text (invalid byte at offset 10)")

    @pytest.mark.parametrize("command, code", [
        (["run", "--method", "direct", "--query", "{q}", "--input", "{big}"], 1),
        (["partition", "--input", "{big}", "--attrs", "a", "--tau", "2",
          "--out", "{tmp}/x.json"], 2),
    ], ids=["run", "partition"])
    def test_cell_over_the_csv_field_limit_exits_with_error(self, tmp_path, capsys,
                                                             command, code):
        # a cell longer than csv.field_size_limit() (131,072 characters)
        csv_path, _, qpath = self._small(
            tmp_path, "SELECT PACKAGE(R) AS P FROM R REPEAT 0 MAXIMIZE SUM(P.a)")
        big = tmp_path / "big.csv"
        big.write_text("a,b\n1,x\n" + "1" * 140_001 + ",x\n")
        args = [a.format(q=qpath, big=big, tmp=tmp_path) for a in command]
        self._run_error(capsys, args, code,
                        f"{big}:3: field larger than field limit (131072)")

    def test_partition_missing_csv_exits_2(self, tmp_path, capsys):
        self._run_error(capsys, ["partition", "--input", str(tmp_path / "nope.csv"),
                                 "--attrs", "a", "--tau", "2",
                                 "--out", str(tmp_path / "x.json")], 2, "No such file")

    def test_partition_unwritable_out_exits_2(self, tmp_path, capsys):
        csv_path, _, _ = self._small(tmp_path, "")
        self._run_error(capsys, ["partition", "--input", str(csv_path), "--attrs", "a",
                                 "--tau", "2", "--out", str(tmp_path / "nodir" / "p.json")],
                        2, "No such file")

    @pytest.mark.parametrize("args, message", [
        (["--workload", "2", "--input", "{tmp}/missing.csv"], "No such file"),
        (["--from-ilp", "{tmp}/missing.json"], "No such file"),
        (["--from-ilp", "{tmp}/no_a.json"], "malformed ILP file (KeyError: 'a')"),
        (["--from-ilp", "{tmp}/bad.json"], "malformed ILP file (JSONDecodeError"),
        (["--rows", "5", "--out", "{tmp}/nodir/x.csv"], "No such file"),
        (["--rows", "5", "--cols", "0", "--out", "{tmp}/x.csv"], "need rows >= 0 and cols >= 1"),
        (["--rows", "5", "--low", "1", "--high", "0", "--out", "{tmp}/x.csv"],
         "uniform range must have low < high"),
    ], ids=["workload-missing-csv", "ilp-missing", "ilp-no-a", "ilp-bad-json",
            "rows-unwritable-out", "zero-cols", "empty-range"])
    def test_gen_bad_input_exits_2(self, tmp_path, capsys, args, message):
        (tmp_path / "no_a.json").write_text(json.dumps({"n": 1, "k": 1, "b": [[1]], "c": [1]}))
        (tmp_path / "bad.json").write_text("{")
        self._run_error(capsys, ["gen"] + [a.format(tmp=tmp_path) for a in args], 2, message)

    @pytest.mark.parametrize("b", [[[1.0]], [[1.0], [2.0], [3.0]]], ids=["short", "long"])
    def test_gen_from_ilp_needs_n_rows_of_b(self, tmp_path, capsys, b):
        # one row too few used to end in an IndexError, one too many in a
        # CSV that silently dropped it
        ilp_path = tmp_path / "i.json"
        ilp_path.write_text(json.dumps({"n": 2, "k": 1, "a": [1.0, 2.0], "b": b,
                                        "c": [4.0]}))
        out = tmp_path / "d.csv"
        self._run_error(capsys, ["gen", "--from-ilp", str(ilp_path), "--out", str(out),
                                 "--out-query", str(tmp_path / "q.paql")],
                        2, f"b has {len(b)} rows, expected n = 2")
        assert not out.exists()

    def test_gen_workload_on_empty_relation_exits_2(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["gen", "--rows", "0", "--out", str(tmp_path / "e.csv"),
                     "--workload", "1", "--out-dir", str(tmp_path / "wl")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: workload generation needs a non-empty relation\n"
        assert json.loads(captured.out)["rows"] == 0  # the CSV was written first
        assert not (tmp_path / "wl").exists()

    def test_bench_command_removed(self, dataset, capsys):
        root, rel, csv_path, queries, qpaths = dataset
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--input", str(csv_path), "--queries", qpaths[0]])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_gen_dataset_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--rows", "40", "--cols", "2", "--seed", "7", "--out", str(a)])
        capsys.readouterr()
        main(["gen", "--rows", "40", "--cols", "2", "--seed", "7", "--out", str(b)])
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    def test_gen_from_ilp_roundtrip(self, tmp_path, capsys, monkeypatch):
        from helpers import brute_force, gen_raw_ilp, model_from_raw
        from pkgquery.ilp import derive_bounds, save_raw_ilp, translate

        raw = gen_raw_ilp(3)
        ilp_path = tmp_path / "i.json"
        save_raw_ilp(raw, ilp_path)
        monkeypatch.chdir(tmp_path)
        rc = main(["gen", "--from-ilp", str(ilp_path), "--out", "d.csv",
                   "--out-query", "q.paql"])
        assert rc == 0
        capsys.readouterr()
        rel = load_csv(tmp_path / "d.csv")
        q = paql.validate(paql.load_query(tmp_path / "q.paql"), rel.schema)
        via_files = brute_force(derive_bounds(translate(q, rel)))
        direct = brute_force(derive_bounds(model_from_raw(raw)))
        assert via_files.status == direct.status
        if direct.status == "optimal":
            assert via_files.objective == pytest.approx(direct.objective, abs=1e-9)

    def test_gen_needs_some_mode(self, capsys):
        assert main(["gen"]) == 2

    def test_gen_rows_checks_out_before_generating(self, capsys, monkeypatch):
        # the missing --out is reported before any data is generated, so a
        # bad --cols never gets the generator's own message in first
        def never(*args, **kwargs):
            raise AssertionError("gen_dataset called")
        monkeypatch.setattr("pkgquery.generate.gen_dataset", never)
        self._run_error(capsys, ["gen", "--rows", "5", "--cols", "0"], 2,
                        "--rows needs --out for the CSV")
