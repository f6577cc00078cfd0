"""Every public module's ``__all__`` names only what the module defines, and
every library module uses what it imports."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

MODULES = ["grid", "fracops", "weights", "inequalities", "solver", "suite"]
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rieszgrad"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rieszgrad.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from rieszgrad.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_traced_targets_resolve():
    # perfbench/spans.py wraps these names from outside the package; a name
    # it cannot find breaks the traced benchmark run
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
    missing = []
    for targets in spans["FUNCTIONS"].values():
        for mod, attr in targets:
            if not callable(getattr(importlib.import_module(mod), attr, None)):
                missing.append(f"{mod}.{attr}")
    for targets in spans["METHODS"].values():
        for mod, cls, meth in targets:
            owner = getattr(importlib.import_module(mod), cls, None)
            if not callable(getattr(owner, meth, None)):
                missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem)
def test_imports_are_used(path):
    # a name an import binds is read somewhere in the module, or listed in
    # its __all__; __future__ features bind no name, and __init__.py only
    # re-exports
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    assert sorted(bound - used) == []
