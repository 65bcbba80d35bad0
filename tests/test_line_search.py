"""The Armijo line search rules out trials by a lower bound without changing a bit.

`armijo_step` prices a trial only when no lower bound of its value (from
`Line.lower_bounds`) already fails the Armijo rule.  Two checks:

- the step equals `line_search_reference.armijo_step`, which prices every
  trial, bit for bit: eta, halvings, value, next density and gradient;
- soundness: along a halving sequence, every eta that a bound rules out
  is rejected by full pricing too.

Both run on drawn problems (1D and 2D, the four metrics, alpha2 = 0 and
> 0) and on constructed lines at the edges of the bounds: eta <s, Q s> /
<s, g> just above 1, a loss gap near 1e-14 where the KL rounds around 0,
a rise inside the rounding slack, an infeasible first trial and a
direction 1e30 times the gradient.
"""

import math

import line_search_reference as ref
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveng.experiments import build_potential, load_preset
from waveng.grid import (
    Density,
    make_grid,
    reference_measure,
    site_coordinates,
    uniform_density,
)
from waveng.losses import LossSpec, along_line, combined_eval
from waveng.metrics import MetricKind, build_precomp, metric_apply_fn
from waveng.operators import laplacian_apply
from waveng.optimizer import MAX_HALVINGS, armijo_accepts, armijo_step
from waveng.wavelets import make_basis

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
STEPS = 4  # chained steps per drawn problem
SOUNDNESS_HALVINGS = 40  # etas 1 ... 2^-40 checked per line

alphas = st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-4, 10.0))] * 3).filter(
    lambda a: max(a) > 0
)


@st.composite
def problems(draw):
    """(dim, n, kind, alphas, seed)."""
    dim = draw(st.sampled_from((1, 2)))
    n = 2 ** draw(st.integers(2, 6 if dim == 1 else 4))
    kind = draw(st.sampled_from(list(MetricKind)))
    return dim, n, kind, draw(alphas), draw(st.integers(0, 2**32 - 1))


def smooth_measure(grid, rng) -> Density:
    """exp(-V)/Z for V a few random Fourier modes with |k| <= 2."""
    x = site_coordinates(grid)
    potential = np.zeros(grid.total)
    for _ in range(3):
        k = rng.integers(-2, 3, grid.dim)
        potential += rng.uniform(-1.0, 1.0) * np.cos(2 * np.pi * (k @ x) + rng.uniform(0, 6.3))
    return reference_measure(grid, potential)


def random_density(grid, rng) -> Density:
    """Positive density whose smallest-to-largest site ratio is as low as 1e-3."""
    values = rng.uniform(10.0 ** -rng.uniform(0, 3), 1.0, grid.total)
    return Density(grid, values / values.sum())


def drawn_problem(case):
    dim, n, kind, alpha, seed = case
    grid = make_grid(dim, n)
    rng = np.random.default_rng(seed)
    spec = LossSpec(*alpha, mu=smooth_measure(grid, rng))
    metric = metric_apply_fn(kind, grid, precomp=build_precomp(make_basis(grid)), alphas=alpha)
    return spec, random_density(grid, rng), metric


def assert_same_step(got, want):
    (p, ev, diag), (want_p, want_ev, accepted, eta, halvings, value_after) = got, want
    assert diag.accepted == accepted
    assert diag.eta.hex() == eta.hex() and diag.halvings == halvings
    assert diag.value_after.hex() == value_after.hex()
    assert p.values.tobytes() == want_p.values.tobytes()
    assert ev.value.hex() == want_ev.value.hex()
    assert ev.gradient.tobytes() == want_ev.gradient.tobytes()
    assert ev.quadratic[0].hex() == want_ev.quadratic[0].hex()
    assert ev.quadratic[1].tobytes() == want_ev.quadratic[1].tobytes()
    if accepted:
        assert 1 <= diag.trials <= diag.halvings + 1


def assert_matches_oracle(spec, p, metric, steps=1):
    ev = combined_eval(p.values, spec)
    for _ in range(steps):
        got = armijo_step(p, spec, metric, evaluated=ev)
        assert_same_step(got, ref.armijo_step(p, spec, metric, evaluated=ev))
        p, ev, diag = got
        if not diag.accepted:
            return diag
    return diag


def certified_but_accepted(spec, p, s):
    """Every eta = 2^-k that a lower bound rules out although full pricing accepts it."""
    ev = combined_eval(p.values, spec)
    slope = float(s @ ev.gradient)
    line = along_line(spec, p.values, ev, s)
    wrong = []
    for k in range(SOUNDNESS_HALVINGS + 1):
        eta = 0.5**k
        ruled_out = not all(armijo_accepts(b, ev.value, eta, slope) for b in line.lower_bounds(eta))
        if ruled_out and armijo_accepts(line(eta).value, ev.value, eta, slope):
            wrong.append(eta)
    return wrong


# constructed lines ----------------------------------------------------------


def highest_mode(grid) -> np.ndarray:
    """(-1)^(sum of site indices): the grid's highest-frequency mode."""
    return (1.0 - 2.0 * (np.indices(grid.shape).sum(axis=0) % 2)).ravel()


def crossing_direction(spec, p, eta, excess, eta_slope):
    """s = a v + b g with eta <s, g> = eta_slope and eta <s, Q s> = (1 + excess) <s, g>.

    v is the highest mode with its g component removed, so that a rise of
    the quadratic part, not of the KL, makes eta <s, Q s> cross <s, g>.
    Needs alpha1 = 0, where Q = alpha3 A.
    """
    assert spec.alpha1 == 0 and spec.alpha3 > 0
    g = combined_eval(p.values, spec).gradient
    v = highest_mode(spec.grid)
    v -= (v @ g) / (g @ g) * g
    qv, qg = (spec.alpha3 * laplacian_apply(spec.grid, x) for x in (v, g))
    b = eta_slope / (eta * (g @ g))
    slope = b * (g @ g)
    # eta (a^2 <v,Qv> + 2 a b <v,Qg> + b^2 <g,Qg>) = (1 + excess) slope, for a > 0
    qa, qb, qc = eta * (v @ qv), 2 * eta * b * (v @ qg), eta * b * b * (g @ qg)
    qc -= (1 + excess) * slope
    a = (-qb + math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
    return a * v + b * g


def near_mu(grid, gap, rng, alphas=(0.0, 1.0, 0.0)):
    """(spec, p) with p a smooth perturbation of mu whose loss is about gap."""
    mu = smooth_measure(grid, rng)
    spec = LossSpec(*alphas, mu=mu)
    bump = np.cos(2 * np.pi * site_coordinates(grid)[0] + rng.uniform(0, 6.3))
    bump += 0.3 * rng.standard_normal(grid.total)
    bump -= bump.mean()
    unit = combined_eval(mu.values * (1 + 1e-4 * bump), spec).value
    return spec, Density(grid, mu.values * (1 + 1e-4 * math.sqrt(gap / unit) * bump))


def crossing_line(seed, gap):
    """A line whose eta <s, Q s> / <s, g> is in (1, 1 + 1e-9] at eta = 1/4.

    With gap near 1e-14 the KL rounding dominates the loss; with gap near 1
    the KL weight is 1e-7, so its curvature stays below the rounding slack.
    """
    rng = np.random.default_rng(seed)
    grid = make_grid(1, 64)
    if gap < 1e-6:
        spec, p = near_mu(grid, gap, rng, alphas=(0.0, 1.0, 1e4))
        eta_slope = 0.1 * combined_eval(p.values, spec).value
    else:
        spec = LossSpec(0.0, 1e-7, 1.0, mu=smooth_measure(grid, rng))
        p = random_density(grid, rng)
        eta_slope = 1e-6 * combined_eval(p.values, spec).value
    s = crossing_direction(spec, p, 0.25, 5e-10, eta_slope)
    line = along_line(spec, p.values, combined_eval(p.values, spec), s)
    ratio = 0.25 * line.s_qs / float(s @ combined_eval(p.values, spec).gradient)
    assert 1.0 < ratio <= 1.0 + 1e-9, ratio
    return spec, p, s


def landing_line(seed):
    """A step that lands beside mu at eta = 1/2, loss gap near 1e-14, alpha2 alone.

    The computed KL there is a few rounding errors either side of 0.
    """
    rng = np.random.default_rng(seed)
    spec, p = near_mu(make_grid(1, 64), 1e-14, rng)
    s = 2.0 * (p.values - spec.mu.values) * (1.0 + 1e-3 * rng.standard_normal(64))
    return spec, p, s


def rise_line():
    """E3 alone; slope 1e-18 E(p) and a rise of 1e-15 E(p) at eta = 1, inside the slack."""
    grid = make_grid(1, 16)
    mu = reference_measure(grid, build_potential(grid, "sin4pi"))
    spec = LossSpec(0.0, 0.0, 1.0, mu=mu)
    p = uniform_density(grid)
    ev = combined_eval(p.values, spec)
    g = ev.gradient
    v = np.random.default_rng(0).standard_normal(g.size)
    v -= v.mean() + (v @ g) / (g @ g) * g
    v /= np.linalg.norm(v)
    s = np.sqrt(2e-15 * ev.value / (v @ laplacian_apply(grid, v))) * v
    s += 1e-18 * ev.value / (g @ g) * g
    return spec, p, s


def infeasible_first_line(alphas):
    """Twice the step that first empties a site: eta = 1 leaves the positive orthant."""
    grid = make_grid(1, 64)
    mu = reference_measure(grid, build_potential(grid, "sin4pi"))
    spec = LossSpec(*alphas, mu=mu)
    p = uniform_density(grid)
    g = combined_eval(p.values, spec).gradient
    return spec, p, 2.0 * np.max(p.values[g > 0] / g[g > 0]) * g


def huge_line():
    """1e30 times the gradient: every trial down to eta = 2^-60 is infeasible."""
    spec, p, _ = rise_line()
    return spec, p, 1e30 * combined_eval(p.values, spec).gradient


CONSTRUCTED = {
    **{f"crossing-gap-1e-14-{seed}": lambda seed=seed: crossing_line(seed, 1e-14) for seed in range(8)},
    **{f"crossing-gap-1-{seed}": lambda seed=seed: crossing_line(seed, 1.0) for seed in range(4)},
    **{f"landing-{seed}": lambda seed=seed: landing_line(seed) for seed in range(12)},
    "rise-inside-slack": rise_line,
    "infeasible-first-a2=0": lambda: infeasible_first_line((1.0, 0.0, 1e-4)),
    "infeasible-first-a2>0": lambda: infeasible_first_line((1.0, 1e-3, 1e-4)),
    "huge": huge_line,
}


# tests ----------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(problems())
@example((1, 64, MetricKind.WASSERSTEIN, (1.0, 0.0, 1e-4), 0))
@example((1, 64, MetricKind.WASSERSTEIN, (1.0, 1e-3, 1e-4), 1))
@example((2, 16, MetricKind.WASSERSTEIN, (1.0, 1e-3, 1e-4), 2))
@example((2, 16, MetricKind.COMBINED, (1.0, 0.0, 1e-4), 3))
@example((1, 32, MetricKind.FISHER_RAO, (0.0, 1.0, 0.0), 4))
@example((2, 8, MetricKind.MAHALANOBIS, (0.0, 1e-3, 1.0), 5))
def test_step_matches_pricing_every_trial(case):
    spec, p, metric = drawn_problem(case)
    assert_matches_oracle(spec, p, metric, STEPS)


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_step_matches_pricing_every_trial(name):
    spec, p, s = CONSTRUCTED[name]()
    diag = assert_matches_oracle(spec, p, lambda dens, grad, mu: s)
    if name == "huge":
        assert not diag.accepted and diag.halvings == MAX_HALVINGS == 60
        assert diag.trials == 0  # the scalar bound rules out every trial unpriced
    if name == "rise-inside-slack":
        assert diag.accepted and diag.halvings >= 1
        assert diag.value_after <= diag.value_before


@PROPERTY_SETTINGS
@given(problems(), st.integers(-8, 8))
@example((1, 64, MetricKind.WASSERSTEIN, (1.0, 1e-3, 1e-4), 0), 0)
@example((2, 16, MetricKind.COMBINED, (1.0, 1e-3, 1e-4), 1), 4)
def test_ruled_out_trials_fail_when_priced(case, log2_scale):
    # the metric's direction, scaled by 2^k so that the bounds see lines
    # far outside and just around their crossover
    spec, p, metric = drawn_problem(case)
    g = combined_eval(p.values, spec).gradient
    s = 2.0**log2_scale * metric(p, g, spec.mu)
    if not float(s @ g) > 0.0:
        return
    assert certified_but_accepted(spec, p, s) == []


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_ruled_out_trials_fail_when_priced(name):
    spec, p, s = CONSTRUCTED[name]()
    assert certified_but_accepted(spec, p, s) == []


def test_wasserstein_prices_few_trials_per_step():
    # the transport direction scales with n^2, so a 1d-4 step halves about
    # 15 times; the bounds rule out almost all of those trials unpriced
    preset = load_preset("1d-4")
    grid = make_grid(preset.dim, preset.n)
    mu = reference_measure(grid, build_potential(grid, preset.potential_id))
    spec = LossSpec(*preset.alphas, mu=mu)
    wasserstein = metric_apply_fn(MetricKind.WASSERSTEIN, grid)
    p = uniform_density(grid)
    ev = combined_eval(p.values, spec)
    halvings = trials = 0
    steps = 200
    for _ in range(steps):
        p, ev, diag = armijo_step(p, spec, wasserstein, evaluated=ev)
        assert diag.accepted
        halvings += diag.halvings
        trials += diag.trials
    assert halvings / steps >= 10
    assert trials / steps <= 1.5
