"""Modules and tests import only public waveng names, every `__all__` entry exists,
every dataclass or named tuple that holds arrays compares by identity, and
every array that a cache keys on or returns is read-only."""

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

from waveng import metrics, operators, optimizer
from waveng.grid import Density, frozen, make_grid, uniform_density
from waveng.losses import LossSpec, along_line
from waveng.metrics import build_precomp
from waveng.wavelets import daubechies_lowpass, make_basis

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


def held_arrays(item: object, path: str) -> typing.Iterator[tuple[str, np.ndarray]]:
    """(path, array) for every array the item holds: its own, a CSR's three, and
    those of its tuple entries and dataclass fields, recursively."""
    if isinstance(item, np.ndarray):
        yield path, item
    elif sp.issparse(item):
        for name in ("data", "indices", "indptr"):
            yield f"{path}.{name}", getattr(item, name)
    elif isinstance(item, tuple):
        for i, entry in enumerate(item):
            yield from held_arrays(entry, f"{path}[{i}]")
    elif dataclasses.is_dataclass(item):
        for f in dataclasses.fields(item):
            yield from held_arrays(getattr(item, f.name), f"{path}.{f.name}")


def writable_arrays(item: object, path: str) -> list[str]:
    """The path of every array the item holds that takes a write."""
    found = []
    for name, a in held_arrays(item, path):
        try:
            a.flat[:1] = a.flat[:1]  # rewrites a value in place, so no cache is skewed
        except ValueError:
            assert not a.flags.writeable
        else:
            found.append(name)
    return found


def test_checker_flags_writable_arrays():
    matrix = sp.csr_matrix(np.eye(3))
    matrix.indices.flags.writeable = False
    assert writable_arrays((np.zeros(2), matrix), "x") == ["x[0]", "x[1].data", "x[1].indptr"]


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_cached_and_keyed_arrays_are_read_only(dim, n):
    # the coarse-block cache keys on the precompute (and so the basis) and
    # mu by identity, which is sound only while none of their arrays can
    # change; the K-solve's set-up is shared by every solve at mu, the
    # start evaluation by every descent from its start, and each accepted
    # step's evaluation is handed to a metric as g
    grid = make_grid(dim, n)
    mu = Density(grid, np.random.default_rng(5).uniform(0.5, 1.5, grid.total))
    basis = make_basis(grid)
    pre = build_precomp(basis)
    p0 = uniform_density(grid)
    spec = LossSpec(1.0, 1e-3, 1e-4, mu=mu)
    start = optimizer._start_evaluation(p0, spec)
    line = along_line(spec, start, 0.5 * (p0.values - mu.values))
    held = {
        "mu": mu,
        "basis": basis,
        "precomp": pre,
        "block": metrics._coarse_block(pre, mu, (1.0, 1e-3, 1e-4), min(16, n)),
        "lowpass": daubechies_lowpass(3),
        "start_evaluation": start,
        "step_evaluation": line.loss_eval(line(1.0)),
    }
    if dim == 2:
        held["scaled_operator"] = operators._scaled_operator(mu)
    else:
        held["closed_form_set_up"] = operators._closed_form_set_up(mu)
    names = [name for key, item in held.items() for name, _ in held_arrays(item, key)]
    want = {"basis.matrix.indptr", "precomp.h2.data", "precomp.h3", "block[0]", "block[1]",
            "start_evaluation.point.values", "start_evaluation.gradient",
            "start_evaluation.quadratic[1]", "step_evaluation.point.values",
            "step_evaluation.gradient", "step_evaluation.quadratic[1]"}
    assert want <= set(names)
    assert ("scaled_operator[0].data" if dim == 2 else "closed_form_set_up[0]") in names
    assert [name for key, item in held.items() for name in writable_arrays(item, key)] == []


def test_frozen_freezes_in_place_and_returns_its_items():
    matrix, vector = sp.csr_matrix(np.eye(3)), np.arange(3.0)
    items = frozen(matrix, vector)
    assert len(items) == 2 and items[0] is matrix and items[1] is vector
    assert writable_arrays(items, "items") == []
    assert frozen(matrix)[0] is matrix  # a second call is a no-op
    assert writable_arrays(matrix, "matrix") == []
    assert frozen() == ()


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
