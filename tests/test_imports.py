"""Modules and tests import only public waveng names, every `__all__` entry exists,
and every dataclass or named tuple that holds arrays compares by identity."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from waveng.grid import make_grid
from waveng.wavelets import make_basis

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


ARRAY_TYPES = ("ndarray", "csr_matrix")


def field_types(cls: type) -> list[str]:
    """The declared field types of a dataclass or a typed named tuple; [] for other classes."""
    if dataclasses.is_dataclass(cls):
        return [str(f.type) for f in dataclasses.fields(cls)]
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return [str(t) for t in getattr(cls, "__annotations__", {}).values()]
    return []


def value_compared_array_holders(module: types.ModuleType) -> list[str]:
    """Every dataclass or named tuple of the module that holds an array but compares by value.

    A generated __eq__ or __hash__, or a tuple's, reads the array fields, so
    == raises ValueError and hash raises TypeError; identity needs neither.
    """
    found = []
    for name, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ != module.__name__:
            continue
        holds_array = any(t in ftype for ftype in field_types(cls) for t in ARRAY_TYPES)
        if holds_array and (cls.__eq__ is not object.__eq__ or cls.__hash__ is not object.__hash__):
            found.append(name)
    return found


def test_checker_flags_value_compared_array_holders():
    module = types.ModuleType("fake")

    @dataclasses.dataclass(frozen=True)
    class ByValue:
        taps: np.ndarray

    @dataclasses.dataclass(frozen=True, eq=False)
    class ByIdentity:
        taps: np.ndarray

    @dataclasses.dataclass(frozen=True)
    class NoArray:
        n: int

    class TupleOfArrays(typing.NamedTuple):
        matrix: sp.csr_matrix
        weights: np.ndarray

    class TupleOfInts(typing.NamedTuple):
        n: int

    for cls in (ByValue, ByIdentity, NoArray, TupleOfArrays, TupleOfInts):
        cls.__module__ = module.__name__
        setattr(module, cls.__name__, cls)
    assert value_compared_array_holders(module) == ["ByValue", "TupleOfArrays"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_array_holders_compare_by_identity(path):
    assert value_compared_array_holders(importlib.import_module(f"waveng.{path.stem}")) == []


def test_bases_hash_and_differ_by_order():
    grid = make_grid(1, 16)
    basis = make_basis(grid)
    assert hash(basis) == hash(basis) and basis == basis
    assert make_basis(grid, order=1) != make_basis(grid, order=3)


# What a run loads of scipy: its package scaffolding and scipy.sparse.  Another
# subpackage costs memory in every run: scipy.linalg raised the benchmark's
# peak RSS from 50.0 to 57.5 MB, most of its 10 % peak_rss_mb bound.
SCIPY_LOADED = [
    "scipy",
    "scipy.__config__",
    "scipy._cyutility",
    "scipy._distributor_init",
    "scipy._lib",
    "scipy.sparse",
    "scipy.version",
]


def test_a_run_loads_no_other_scipy_subpackage():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import dataclasses, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import waveng\n"
        "from waveng.experiments import RunOverrides, load_preset, run_experiment\n"
        "for preset_id, n in (('1d-4', 64), ('2d-4', 16), ('2d-3', 16)):\n"
        "    preset = dataclasses.replace(load_preset(preset_id), n=n)\n"
        "    report = run_experiment(preset, RunOverrides(max_iterations=3))\n"
        "    assert not report.failures, report.failures\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, timeout=120)
    loaded = proc.stdout.split()
    assert sorted({".".join(m.split(".")[:2]) for m in loaded}) == SCIPY_LOADED
    assert not [m for m in loaded if m.startswith(("scipy.sparse.linalg", "scipy.sparse.csgraph"))]
