"""Property tests of the four metrics and of combined-metric descent.

Draws 1D and 2D grids with n in {4, ..., 64}, Daubechies orders 1-10, every
decomposition depth, alphas with zeros allowed and random positive
densities.  Every metric must be symmetric and positive semidefinite, and
the combined metric must refuse alphas that are all zero.  The
transport and Mahalanobis metrics always freeze total mass, and the combined
metric does at full depth with alpha1 > 0.  A few combined-metric descent
steps must lower the loss at every step and keep the density positive.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveng.grid import Density, make_grid, reference_measure
from waveng.losses import LossSpec
from waveng.metrics import MetricKind, build_precomp, metric_apply_fn
from waveng.optimizer import DescentConfig, run_descent
from waveng.wavelets import make_basis

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
DENSE_LIMIT = 64  # grids up to this many sites get the full metric matrix
PROBES = 12  # random probe vectors on larger grids

alphas = st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-4, 10.0))] * 3)


@st.composite
def problems(draw, max_log2n=6):
    """(dim, n, order, levels, alphas, seed) with levels anywhere up to full depth."""
    dim = draw(st.sampled_from((1, 2)))
    log2n = draw(st.integers(2, max_log2n))
    order = draw(st.integers(1, 10))
    levels = draw(st.integers(1, log2n))
    return dim, 2**log2n, order, levels, draw(alphas), draw(st.integers(0, 2**32 - 1))


def random_density(grid, rng) -> Density:
    """Positive density whose smallest-to-largest site ratio is as low as 1e-3."""
    values = rng.uniform(10.0 ** -rng.uniform(0, 3), 1.0, grid.total)
    return Density(grid, values / values.sum())


@PROPERTY_SETTINGS
@given(problems())
@example((2, 64, 10, 6, (1.0, 1e-3, 1e-4), 0))
@example((1, 64, 3, 6, (1.0, 1e-3, 1e-4), 1))
@example((2, 16, 3, 4, (1.0, 0.0, 0.0), 2))
def test_metrics_symmetric_psd_and_mass_freezing(case):
    dim, n, order, levels, alpha, seed = case
    grid = make_grid(dim, n)
    rng = np.random.default_rng(seed)
    pre = build_precomp(make_basis(grid, order=order, levels=levels))
    p = random_density(grid, rng)
    if grid.total <= DENSE_LIMIT:
        probes = np.eye(grid.total)
    else:
        probes = rng.standard_normal((grid.total, PROBES))
    for kind in MetricKind:
        if kind is MetricKind.COMBINED and max(alpha) == 0:
            with pytest.raises(ValueError, match="positive"):
                metric_apply_fn(kind, grid, precomp=pre, alphas=alpha)
            continue
        metric = metric_apply_fn(kind, grid, precomp=pre, alphas=alpha)
        images = np.column_stack([metric(p, g) for g in probes.T])
        gram = probes.T @ images
        scale = np.max(np.abs(gram))
        assert np.max(np.abs(gram - gram.T)) <= 1e-10 * scale, kind
        assert np.linalg.eigvalsh(0.5 * (gram + gram.T)).min() >= -1e-10 * scale, kind
        freezes = kind in (MetricKind.WASSERSTEIN, MetricKind.MAHALANOBIS) or (
            kind is MetricKind.COMBINED and alpha[0] > 0 and 2**levels == n
        )
        if freezes:
            leak = np.abs(images.sum(axis=0))
            assert np.all(leak <= 1e-10 * np.abs(images).sum(axis=0)), kind


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(problems(max_log2n=5).filter(lambda case: max(case[4]) > 0))
@example((2, 32, 3, 5, (1.0, 1e-3, 1e-4), 0))
@example((1, 64, 3, 6, (1.0, 1e-3, 1e-4), 1))
def test_combined_descent_is_monotone(case):
    dim, n, order, levels, alpha, seed = case
    grid = make_grid(dim, n)
    rng = np.random.default_rng(seed)
    mu = reference_measure(grid, rng.standard_normal(grid.total))
    spec = LossSpec(*alpha, mu=mu)
    pre = build_precomp(make_basis(grid, order=order, levels=levels))
    metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=alpha)
    hist = run_descent(random_density(grid, rng), spec, metric, DescentConfig(max_iterations=4))
    assert hist.iterations >= 1, hist.stall_reason
    assert np.all(np.diff(hist.column("loss")) < 0.0)
    assert np.all(hist.column("min_value") > 0.0)
    if alpha[0] > 0 and 2**levels == n:
        mass = hist.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-12
