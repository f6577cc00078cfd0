"""Every public module's ``__all__`` names only what the module defines."""

import importlib

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
