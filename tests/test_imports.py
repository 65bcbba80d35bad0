"""Modules and tests import only public waveng names, and every `__all__` entry exists."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "waveng").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.stem != "__init__"]


def private_imports(source: str) -> list[str]:
    """module.name for every underscore-prefixed name imported from a waveng module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0 or (node.module or "").split(".")[0] == "waveng":
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def stale_exports(module: types.ModuleType) -> list[str]:
    """Every name in the module's __all__ that the module does not define."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_checker_flags_private_names():
    source = "from __future__ import annotations\nfrom .operators import _check, apply\n"
    assert private_imports(source) == ["operators._check"]
    absolute = "from waveng.grid import _is_power_of_two"
    assert private_imports(absolute) == ["waveng.grid._is_power_of_two"]
    assert private_imports("from waveng import _version") == ["waveng._version"]
    assert private_imports("from numpy import _core") == []
    assert {"grid.py", "operators.py", "wavelets.py"} <= {p.name for p in SOURCES}
    assert {"test_imports.py", "test_metrics.py"} <= {p.name for p in TESTS}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_import_no_private_names(path):
    # a private helper reached from a test would be a second, unchecked entry
    assert private_imports(path.read_text()) == []


def test_checker_flags_stale_exports():
    module = types.ModuleType("fake")
    module.__all__ = ["present", "deleted"]
    module.present = object()
    assert stale_exports(module) == ["deleted"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    # a stale entry would make `from waveng.<module> import *` raise AttributeError
    assert stale_exports(importlib.import_module(f"waveng.{path.stem}")) == []
