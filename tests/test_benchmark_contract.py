"""The benchmark's view of the library: what perfbench/ imports and wraps still exists.

`perfbench/tracer.py` wraps library functions by the module global their
caller looks them up by, and a traced run reports a missing one only as an
absent layer.  `perfbench/workloads.py` composes the public API.  Both are
loaded from their files under their own names, so nothing is added to
sys.path.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from waveng import DescentConfig, MetricKind
from waveng.experiments import RunOverrides
from waveng.grid import make_grid
from waveng.wavelets import make_basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,name", [layer[:2] for layer in load("tracer").LAYERS])
def test_layer_resolves_to_a_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


WORKLOADS = ["panel-1d", "panel-2d", "wavelet-2d"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_sets_up_descends_and_digests(workload):
    # panel-2d is the only workload on the 2D K-solve path
    workloads = load("workloads")
    problem = workloads.set_up(workloads.WORKLOADS[workload].preset())
    p0 = workloads.smooth_start(problem.grid, 1, 0)
    cfg = DescentConfig(max_iterations=3, gap_tolerance=workloads.gap_tolerance(problem, p0))
    for kind in problem.preset.metrics:
        history = workloads.descend(problem, kind, p0, cfg)
        assert (history.status, history.iterations) == ("max_iter", 3)
        # three iterations pass every gate but the combined metric's target
        missed = f"combined metric missed the target within {workloads.COMBINED_CAP} iterations"
        expected = missed if kind is MetricKind.COMBINED else ""
        assert workloads.gate(problem, kind, history) == expected
        assert len(workloads.digest(history)) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_reads_the_stored_precompute(workload):
    # what `--trace 1` reads for metrics.precomp_nnz and metrics.precomp_bytes
    # (perfbench/harness.py, per_layer): h3 and the CSR arrays of h1 and h2
    workloads = load("workloads")
    pre = workloads.set_up(workloads.WORKLOADS[workload].preset()).precomp
    n = pre.basis.grid.n
    assert isinstance(pre.h3, np.ndarray) and pre.h3.shape == (n,)
    for m in (pre.h1, pre.h2):
        assert sp.issparse(m) and m.format == "csr" and m.shape == (n, n)
    stored = [pre.h3] + [a for m in (pre.h1, pre.h2) for a in (m.data, m.indices, m.indptr)]
    assert all(isinstance(a, np.ndarray) for a in stored)
    assert sum(a.nbytes for a in stored) > 0
    assert sum(pre.nnz) == pre.h1.nnz + pre.h2.nnz > 0


def test_benchmark_only_levels_names_are_the_full_basis():
    """`RunOverrides.levels` and `make_basis`'s `levels` keyword select nothing.

    `perfbench/workloads.py` passes `levels=RunOverrides().levels`, so both
    names stay, accepting None only, until ROADMAP item 3(b)'s benchmark change
    deletes them together with that argument.
    """
    assert RunOverrides().levels is None
    for grid in (make_grid(1, 64), make_grid(2, 16)):
        got = make_basis(grid, order=3, levels=None).matrix
        want = make_basis(grid).matrix
        assert got.shape == want.shape and (got != want).nnz == 0
