"""Every public module's ``__all__`` names only what the module defines."""

import importlib
import runpy
from pathlib import Path

import pytest

MODULES = ["grid", "fracops", "weights", "inequalities", "solver", "suite"]


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
