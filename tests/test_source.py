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



def _public_functions(tree: ast.Module):
    """(name, node) of the module-level functions, and of the methods of
    module-level classes, whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn


def test_public_functions_take_no_private_parameters():
    # a caller of the public API should not see parameters meant for the
    # engine's own use
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, fn in _public_functions(tree):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            found += [f"{path.stem}.{name}({a.arg})" for a in params
                      if a.arg.startswith("_")]
    assert found == []


def test_search_solves_its_lps_at_one_call_site():
    # every branch-and-bound LP (the root, each fixing round, each node) is
    # solved at one place in ``_Search``, the one a warm start has to cover;
    # ``lp_relax`` solves the relaxation outside the search
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    sites = [(getattr(top, "name", "<module>"), node.lineno) for top in tree.body
             if getattr(top, "name", None) != "lp_relax"
             for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id == "lp_solve"]
    assert len(sites) == 1 and sites[0][0] == "_Search", sites
