"""Public names: every export resolves and every re-export is declared."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hierstat

MODULES = sorted(m.name for m in pkgutil.iter_modules(hierstat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"hierstat.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _reexports():
    """(submodule, name) for each ``from .submodule import name`` in hierstat."""
    tree = ast.parse(Path(hierstat.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_reexports_are_in_submodule_all():
    reexports = _reexports()
    assert reexports
    undeclared = [f"{module}.{name}" for module, name in reexports
                  if not name.startswith("_")
                  and name not in getattr(importlib.import_module(f"hierstat.{module}"),
                                          "__all__", ())]
    assert undeclared == []
