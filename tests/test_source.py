"""Checks on the engine's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pkgquery"


def test_no_assert_statements():
    # ``python -O`` strips asserts, so runtime checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py"))
    assert found == []


def test_benchmark_reads_resolve(monkeypatch):
    # ``perfbench`` (not collected here) patches names on the engine and
    # reads its query AST; a rename there would break the benchmark silently
    monkeypatch.syspath_prepend(str(SRC.parent.parent))
    from perfbench import check, tracing, workloads
    from pkgquery import evaluate, generate

    missing = [attr for attr, _ in tracing.EVALUATE_IMPORTS
               if not callable(getattr(evaluate, attr, None))]
    assert missing == []
    assert callable(evaluate._Refiner._refine_group)
    rel = generate.gen_dataset(200, workloads.COLS, seed=5, low=workloads.LOW,
                               high=workloads.HIGH, grid=1 / 64)
    for q in generate.gen_workload(rel, 10, seed=5,
                                   expected_size=workloads.EXPECTED_SIZE):
        check.spec_of(q)  # raises ValueError on a query it cannot check


def _local_imports(path: Path) -> set[str]:
    """Names of the package modules a module imports (the engine imports
    its own modules relatively)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from .ilp import x`` or ``from . import generate, paql``
            found.update([node.module] if node.module else
                         [alias.name for alias in node.names])
    return found


def test_every_module_is_reachable():
    # an engine module that neither the package nor the CLI imports,
    # directly or through another module, is dead code
    modules = {path.stem for path in SRC.glob("*.py")}
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        todo += _local_imports(SRC / f"{name}.py")
    assert sorted(modules - reached) == []


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of the module-level functions and classes,
    and of the methods of those classes, whose names do not start with an
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield f"{node.name}.{fn.name}", fn


def test_public_functions_take_no_private_parameters():
    # a caller of the public API should not see parameters meant for the
    # engine's own use
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, fn in _public_definitions(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            found += [f"{path.stem}.{name}({a.arg})" for a in params
                      if a.arg.startswith("_")]
    assert found == []


def test_search_solves_its_lps_at_one_call_site():
    # every branch-and-bound LP (the root, the fixing round, each node) is
    # solved at one place in ``_Search``, the one a warm start has to cover
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    sites = [(getattr(top, "name", "<module>"), node.lineno) for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id == "lp_solve"]
    assert len(sites) == 1 and sites[0][0] == "_Search", sites


def test_evaluation_has_one_solve_step():
    # Direct and every SketchRefine solve derive bounds, call the solver and
    # read its status in ``_Context.solve``, the one place a deadline is spent
    tree = ast.parse((SRC / "evaluate.py").read_text(encoding="utf-8"))
    scopes = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{f.name}", f) for f in top.body
                       if isinstance(f, ast.FunctionDef)]
        else:
            scopes.append((getattr(top, "name", "<module>"), top))
    calls = {"derive_bounds": [], "solver_fn": []}
    statuses = set()
    for scope, node in scopes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if name in calls:
                    calls[name].append(scope)
            elif isinstance(sub, ast.Name) and sub.id.startswith("STATUS_"):
                statuses.add(scope)
    assert calls == {"derive_bounds": ["_Context.solve"], "solver_fn": ["_Context.solve"]}
    assert statuses == {"_Context.solve"}


def test_one_partitioning_constructor():
    # partition, restrict_to_ids and load_partitioning all build their
    # result through ``_partitioning``, which derives what they share
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.stem, top.name, node.lineno) for top in tree.body
                  for node in ast.walk(top) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "Partitioning"]
    assert [site[:2] for site in sites] == [("partitioning", "_partitioning")], sites


def test_gid_column_lives_only_in_the_partitioning_file():
    # a partitioning holds its membership once, as ``groups``; the per-tuple
    # gid column is the file's encoding of it, which only the code that
    # saves and loads the file knows
    import dataclasses

    from pkgquery.partitioning import Partitioning

    path = SRC / "partitioning.py"
    trees, names, attrs = _uses(sorted(SRC.glob("*.py")))
    file_code = [node for node in trees[path].body if isinstance(node, ast.FunctionDef)
                 and node.name in ("save_partitioning", "load_partitioning")]
    reads = [(where, line) for where, line in names.get("gid", []) + attrs.get("gid", [])
             if not any(_only_inside([(where, line)], path, node) for node in file_code)]
    assert [f"{where.name}:{line}" for where, line in reads] == []
    assert "gid" not in [f.name for f in dataclasses.fields(Partitioning)]
    assert not hasattr(Partitioning, "gid")


def test_global_predicate_has_three_fields():
    # nothing sets a shift on a predicate; ``perfbench/check.py`` still
    # reads ``linear_shift``, so it stays as a class constant of 0
    import dataclasses

    from pkgquery.paql import GlobalPredicate

    assert [f.name for f in dataclasses.fields(GlobalPredicate)] == ["lhs", "op", "rhs"]
    assert GlobalPredicate.linear_shift == 0.0


def _uses(paths):
    """The parsed trees of ``paths``, and where each name is read as a Name
    and as an Attribute: name -> [(path, lineno)]."""
    trees, names, attrs = {}, {}, {}
    for path in paths:
        trees[path] = tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    return trees, names, attrs


def _only_inside(uses, path: Path, node) -> bool:
    """True if every use lies inside the definition ``node`` in ``path``."""
    return all(p == path and node.lineno <= line <= node.end_lineno for p, line in uses)


# Public engine names that nothing in the engine or the benchmark calls,
# kept for the tests, each with its reason. The benchmark also reads
# ``GlobalPredicate.linear_shift`` (a class constant) and
# ``_Refiner._refine_group`` (private); the check below covers neither
TEST_ONLY_NAMES = {
    "save_raw_ilp": "the writer of the file that `pkgquery gen --from-ilp` reads; "
                    "`ilp` owns that format, next to `load_raw_ilp`",
    "predicate_linear_value": "perfbench/tracing.py wraps it by name",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public function, class or method that only the tests call is API
    # kept for them alone. A use counts when it is a Name (functions and
    # classes) or an Attribute (all three) in the engine or the benchmark,
    # outside the definition itself; imports and re-exports are neither
    paths = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "perfbench").glob("*.py"))
    trees, names, attrs = _uses(paths)
    uncalled = set()
    for path in paths:
        if path.parent != SRC:
            continue
        for qualname, node in _public_definitions(trees[path]):
            is_method = "." in qualname
            uses = attrs.get(node.name, []) + ([] if is_method else names.get(node.name, []))
            if _only_inside(uses, path, node):
                uncalled.add(qualname)
    test_only = sorted(uncalled - set(TEST_ONLY_NAMES))
    assert not test_only, f"called only by the tests: {test_only}"
    stale = sorted(set(TEST_ONLY_NAMES) - uncalled)
    assert not stale, f"allowed as test-only but called elsewhere: {stale}"


# Optional parameters of public engine functions that no call in the engine
# or the benchmark passes, each with its reason
UNPASSED_PARAMETERS = {
    "evaluate.eval_direct(solver_fn)": "perfbench passes it through `**extra`",
    "evaluate.eval_sketchrefine(solver_fn)": "perfbench passes it through `**extra`",
    "solver.solve(time_limit)": "called through variables, as `solver_fn(model, time_limit)`",
    "cli.main(argv)": "the CLI's test seam; the console script passes none",
}


def _optional_parameters(fn: ast.FunctionDef):
    """(name, position or None for keyword-only) of the parameters with a
    default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def test_every_optional_parameter_is_passed_outside_the_tests():
    # an optional parameter that only the tests pass is a knob kept for them
    # alone. A call counts when it names the function (as a Name or an
    # Attribute) in the engine or the benchmark, outside the definition
    # itself, and passes the parameter by keyword or by position; ``**kwargs``
    # passes nothing it can see
    paths = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "perfbench").glob("*.py"))
    trees, calls = {}, {}  # function name -> [(path, Call)]
    for path in paths:
        trees[path] = tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append((path, node))
    unpassed = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, fn in _public_definitions(trees[path]):
            if not isinstance(fn, ast.FunctionDef):
                continue
            skip = 1 if "." in qualname else 0  # a method's self
            outside = [call for p, call in calls.get(fn.name, [])
                       if not (p == path and fn.lineno <= call.lineno <= fn.end_lineno)]
            for arg, pos in _optional_parameters(fn):
                if not any(any(k.arg == arg for k in call.keywords)
                           or (pos is not None and len(call.args) > pos - skip)
                           for call in outside):
                    unpassed.add(f"{path.stem}.{qualname}({arg})")
    test_only = sorted(unpassed - set(UNPASSED_PARAMETERS))
    assert not test_only, f"passed only by the tests: {test_only}"
    stale = sorted(set(UNPASSED_PARAMETERS) - unpassed)
    assert not stale, f"allowed as unpassed but passed elsewhere: {stale}"


def _private_definitions(tree: ast.Module):
    """(qualified name, node) of the module-level functions and classes
    whose names start with an underscore, and of the non-dunder methods of
    any module-level class whose names do."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") \
                        and not fn.name.endswith("__"):
                    yield f"{node.name}.{fn.name}", fn


def test_every_private_helper_is_referenced():
    # a private helper that nothing in the engine reads outside its own
    # definition is dead code, whatever the tests do with it
    paths = sorted(SRC.glob("*.py"))
    trees, names, attrs = _uses(paths)
    found, unreferenced = 0, []
    for path in paths:
        for qualname, node in _private_definitions(trees[path]):
            found += 1
            is_method = "." in qualname
            uses = attrs.get(node.name, []) + ([] if is_method else names.get(node.name, []))
            if _only_inside(uses, path, node):
                unreferenced.append(f"{path.stem}.{qualname}")
    assert found
    assert unreferenced == []
