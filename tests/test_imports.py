"""The package's modules import only public names from each other."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "waveng").glob("*.py"))


def private_imports(source: str) -> list[str]:
    """module.name for every underscore-prefixed name imported from a waveng module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0 or (node.module or "").split(".")[0] == "waveng":
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_checker_flags_private_names():
    source = "from __future__ import annotations\nfrom .operators import _check, apply\n"
    assert private_imports(source) == ["operators._check"]
    absolute = "from waveng.grid import _is_power_of_two"
    assert private_imports(absolute) == ["waveng.grid._is_power_of_two"]
    assert private_imports("from numpy import _core") == []
    assert {"grid.py", "operators.py", "wavelets.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text()) == []
