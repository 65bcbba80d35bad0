import dataclasses

import numpy as np
import pytest

from waveng.experiments import build_potential, load_preset
from waveng.grid import Density, frozen, make_grid, reference_measure, uniform_density
from waveng.losses import LossEval, LossSpec, along_line, combined_eval, e2_eval
from waveng.metrics import (
    COARSE_BLOCK,
    MetricKind,
    build_precomp,
    metric_apply_fn,
)
from waveng.operators import EllipticSolveConfig, laplacian_apply, weighted_elliptic_pinv_apply
from waveng import losses, optimizer
from waveng.optimizer import MAX_HALVINGS, DescentConfig, armijo_step, run_descent
from waveng.wavelets import make_basis


def identity_metric(p, g, mu):
    return g


def newton_setup(dim=1, n=16):
    """E3 alone, the exact quadratic r^T A r / 2, with the Mahalanobis metric A^+.

    p and mu both have unit mass, so r = p - mu has no constant component
    and the direction A^+ A r is r itself: every step is a Newton step.
    The Armijo bound at eta = 1 then holds with equality up to rounding:
    the step lands on mu, where E computes to about 1e-15 E(p), not 0.
    """
    grid = make_grid(dim, n)
    mu = reference_measure(grid, build_potential(grid, "sin4pi" if dim == 1 else "sin4pi-product"))
    spec = LossSpec(0.0, 0.0, 1.0, mu=mu)
    return uniform_density(grid), mu, spec, metric_apply_fn(MetricKind.MAHALANOBIS, grid)


# (dim, n) of exact Newton steps; without the rounding slack every one but
# 1D n = 16 rejects eta = 1 and halves once
NEWTON_CASES = [(1, 16), (1, 32), (1, 64), (1, 512), (1, 1024), (2, 8), (2, 16), (2, 32), (2, 64)]


def sin_setup(n=64, alphas=(1.0, 1e-3, 1e-4)):
    grid = make_grid(1, n)
    mu = reference_measure(grid, np.sin(4 * np.pi * np.arange(n) / n))
    spec = LossSpec(*alphas, mu=mu)
    pre = build_precomp(make_basis(grid))
    metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=alphas)
    return grid, mu, spec, metric


class TestArmijoStep:
    def test_quadratic_accepts_full_step(self):
        # the Newton step eta = 1 is accepted with no halving and lands on mu
        for dim, n in NEWTON_CASES:
            p, mu, spec, mahalanobis = newton_setup(dim, n)
            before = combined_eval(p.values, spec)
            ev, diag = armijo_step(before, spec, mahalanobis)
            case = f"dim {dim}, n {n}"
            assert diag.accepted and diag.eta == 1.0 and diag.halvings == 0, case
            assert ev.value <= before.value, case
            np.testing.assert_allclose(ev.point.values, mu.values, rtol=0.0, atol=1e-15, err_msg=case)
            assert abs(ev.value) <= 1e-14 * before.value, case

    def test_slack_never_accepts_a_rise(self):
        # a direction almost orthogonal to g, with slope 1e-18 E(p), whose
        # second-order term raises E by 1e-15 E(p) at eta = 1: inside the
        # rounding slack, yet a rise, so eta = 1 is rejected
        p, _, spec, _ = newton_setup()
        ev = combined_eval(p.values, spec)
        g = ev.gradient
        v = np.random.default_rng(0).standard_normal(g.size)
        v -= v.mean() + (v @ g) / (g @ g) * g
        v /= np.linalg.norm(v)
        s = np.sqrt(2e-15 * ev.value / (v @ laplacian_apply(p.grid, v))) * v
        s += 1e-18 * ev.value / (g @ g) * g
        assert along_line(spec, ev, s)(1.0).value > ev.value
        after, diag = armijo_step(ev, spec, lambda dens, grad, mu: s)
        assert diag.accepted and diag.halvings >= 1
        assert after.value <= ev.value

    def test_non_descent_direction_stalls(self):
        # an ascent direction, and a direction with a NaN or infinite site
        # (no metric checks its output's finiteness), stall before any trial
        p, _, spec, _ = newton_setup()
        ev = combined_eval(p.values, spec)
        g = ev.gradient
        directions = [-g]
        for value in (np.nan, np.inf, -np.inf):
            directions.append(g.copy())
            directions[-1][0] = value
        for s in directions:
            after, diag = armijo_step(ev, spec, lambda dens, grad, mu: s)
            assert not diag.accepted and diag.reason == "non-descent direction"
            assert diag.halvings == diag.trials == 0
            np.testing.assert_array_equal(after.point.values, p.values)

    def test_infeasible_trial_forces_halving(self):
        # a direction large enough to leave the positive orthant at eta = 1
        # is rejected through the +inf convention and a smaller step lands
        grid, mu, spec, _ = sin_setup(16, alphas=(0.0, 1.0, 0.0))
        p = uniform_density(grid)
        big = lambda dens, g, mu: np.full(16, 2.0 / 16) * np.sign(g.sum() or 1.0)
        after, diag = armijo_step(combined_eval(p.values, spec), spec, big)
        assert diag.halvings >= 1
        if diag.accepted:
            assert after.point.min > 0

    def test_exhausts_max_halvings(self):
        # a direction 1e30 times the gradient leaves the positive orthant even
        # at eta = 2^-60, so every trial is +inf and every halving is spent
        p, _, spec, _ = newton_setup()
        huge = lambda dens, g, mu: 1e30 * g
        before = combined_eval(p.values, spec)
        ev, diag = armijo_step(before, spec, huge)
        assert not diag.accepted and diag.halvings == MAX_HALVINGS == 60
        assert "max_halvings" in diag.reason
        np.testing.assert_array_equal(ev.point.values, p.values)
        assert ev.value == before.value

    def test_fixed_point_at_mu(self):
        grid, mu, spec, metric = sin_setup()
        ev, diag = armijo_step(combined_eval(mu.values, spec), spec, metric)
        assert not diag.accepted  # zero gradient -> zero direction -> stall
        assert np.max(np.abs(ev.point.values - mu.values)) <= 1e-10


def preset_setup(preset_id, solve_config=EllipticSolveConfig(), n=None,
                 coarse_block=COARSE_BLOCK, bump=0.0):
    """The preset's problem and bound combined metric, on n sites per axis if given.

    `bump` is added to the potential at the flat site index n // 3.
    """
    preset = load_preset(preset_id)
    grid = make_grid(preset.dim, preset.n if n is None else n)
    potential = build_potential(grid, preset.potential_id)
    potential[grid.n // 3] += bump
    mu = reference_measure(grid, potential)
    spec = LossSpec(*preset.alphas, mu=mu, solve_config=solve_config)
    pre = build_precomp(make_basis(grid))
    metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=preset.alphas,
                             coarse_block=coarse_block)
    return grid, spec, metric


def assert_matches_fresh(ev, p, spec, rtol):
    """The evaluation carried by the line search against combined_eval at p."""
    fresh = combined_eval(p.values, spec)
    assert abs(ev.value - fresh.value) <= rtol * abs(fresh.value)
    assert np.linalg.norm(ev.gradient - fresh.gradient) <= rtol * np.linalg.norm(fresh.gradient)
    (qv, qg), (fresh_qv, fresh_qg) = ev.quadratic, fresh.quadratic
    assert abs(qv - fresh_qv) <= rtol * abs(fresh_qv)
    assert np.linalg.norm(qg - fresh_qg) <= rtol * np.linalg.norm(fresh_qg)


class TestLineSearch:
    """A LossSpec's trials price the quadratic terms in closed form."""

    @pytest.mark.parametrize("preset_id", ["1d-4", "2d-4"])
    def test_one_step_carries_fresh_evaluation(self, preset_id):
        # the 2D CG solves are tightened below the default 1e-10 so that the
        # comparison measures the carried update, not the CG error of both sides
        grid, spec, metric = preset_setup(preset_id, EllipticSolveConfig(rel_tolerance=1e-13))
        p = uniform_density(grid)
        ev, diag = armijo_step(combined_eval(p.values, spec), spec, metric)
        assert diag.accepted
        assert_matches_fresh(ev, ev.point, spec, 1e-12)

    def test_carried_evaluation_after_2000_steps(self):
        grid, spec, _ = preset_setup("1d-4")
        wasserstein = metric_apply_fn(MetricKind.WASSERSTEIN, grid)
        p = uniform_density(grid)
        ev = combined_eval(p.values, spec)
        for _ in range(2000):
            ev, diag = armijo_step(ev, spec, wasserstein)
            assert diag.accepted
        assert_matches_fresh(ev, ev.point, spec, 1e-9)

    @pytest.mark.parametrize("alphas", [(1.0, 0.0, 1e-4), (1.0, 1e-3, 1e-4)], ids=["a2=0", "a2>0"])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_accepted_step_is_the_public_composition(self, dim, n, alphas):
        # a trial costs one KL pass and only the accepted one forms its
        # evaluation: that step must equal, bit for bit, p - eta s and the
        # loss composed from e2_eval and the closed-form quadratic part,
        # after halvings and at eta = 1, where the line skips its multiplies
        p, mu, _, _ = newton_setup(dim, n)
        spec = LossSpec(*alphas, mu=mu)
        a1, a2, a3 = alphas
        ev = combined_eval(p.values, spec)
        g = ev.gradient
        # twice the step that first empties a site: eta = 1 is infeasible
        s = 2.0 * np.max(p.values[g > 0] / g[g > 0]) * g
        line = along_line(spec, ev, s)
        infeasible = line(1.0)
        assert infeasible.value == np.inf and infeasible.point is None
        with pytest.raises(ValueError, match="infeasible"):
            line.loss_eval(infeasible)
        halved = armijo_step(ev, spec, lambda dens, grad, mu: s)
        assert halved[1].accepted and halved[1].halvings >= 1
        full_s = halved[1].eta * s  # the accepted step as the direction, which eta = 1 takes
        full = armijo_step(ev, spec, lambda dens, grad, mu: full_s)
        assert full[1].accepted and full[1].eta == 1.0 and full[1].halvings == 0
        for s, (got, diag) in ((s, halved), (full_s, full)):
            eta = diag.eta
            t = p.values - eta * s
            assert got.point.values.tobytes() == t.tobytes()
            qv, qr = ev.quadratic
            ks = weighted_elliptic_pinv_apply(mu, s, spec.solve_config)
            qs = a1 * ks + a3 * laplacian_apply(mu.grid, s)
            q = qv - eta * float(s @ qr) + 0.5 * eta * eta * float(s @ qs)
            grad_q = qr - eta * qs
            kl = e2_eval(t, mu)
            assert got.value == a2 * kl.value + q
            np.testing.assert_array_equal(got.gradient, a2 * kl.gradient + grad_q)
            assert got.quadratic[0] == q
            np.testing.assert_array_equal(got.quadratic[1], grad_q)

    @pytest.mark.parametrize("alphas", [(1.0, 0.0, 1e-4), (1.0, 1e-3, 1e-4)], ids=["a2=0", "a2>0"])
    def test_accepted_step_holds_the_trial_density(self, alphas, monkeypatch):
        # the step returns the accepted trial's evaluation, whose point is the
        # very Density the line built for that trial, holding the t the line
        # formed and froze: no second Density and no copy per accepted step
        p, mu, _, _ = newton_setup(1, 64)
        spec = LossSpec(*alphas, mu=mu)
        trials, made = [], []
        call = losses.Line.__call__

        def recorded_call(line, eta):
            trials.append(call(line, eta))
            return trials[-1]

        def recorded_frozen(*items):
            made.extend(items)
            return frozen(*items)

        monkeypatch.setattr(losses.Line, "__call__", recorded_call)
        monkeypatch.setattr(losses, "frozen", recorded_frozen)
        ev = combined_eval(p.values, spec)
        for scale in (0.5, 4.0):  # eta = 1 accepted, then a step after halvings
            got, diag = armijo_step(ev, spec, lambda dens, grad, mu: scale * (p.values - mu.values))
            assert diag.accepted and (diag.halvings >= 1) == (scale > 1)
            assert got.point is trials[-1].point
            assert any(got.point.values is t for t in made)

    @pytest.mark.parametrize("alphas", [(1.0, 0.0, 1e-4), (1.0, 1e-3, 1e-4)], ids=["a2=0", "a2>0"])
    def test_loss_eval_twice_is_the_same(self, alphas):
        # loss_eval writes only into arrays it makes: the trial's point and
        # log(t/mu) are left as they are, so a second call gives the same bits
        p, mu, _, _ = newton_setup(1, 64)
        spec = LossSpec(*alphas, mu=mu)
        ev = combined_eval(p.values, spec)
        line = along_line(spec, ev, 0.5 * ev.gradient * p.values)
        trial = line(0.5)
        assert trial.point is not None
        # frozen, so a Density built on the trial's values holds them uncopied
        assert Density(p.grid, trial.point.values).values is trial.point.values
        point = trial.point.values.copy()
        log_ratio = None if trial.log_ratio is None else trial.log_ratio.copy()
        first, second = line.loss_eval(trial), line.loss_eval(trial)
        assert first.point is second.point is trial.point
        assert first.gradient is not second.gradient
        np.testing.assert_array_equal(first.gradient, second.gradient)
        np.testing.assert_array_equal(first.quadratic[1], second.quadratic[1])
        assert first.value == second.value and first.quadratic[0] == second.quadratic[0]
        np.testing.assert_array_equal(trial.point.values, point)
        if log_ratio is not None:
            np.testing.assert_array_equal(trial.log_ratio, log_ratio)

    def test_evaluated_without_quadratic_part(self):
        # the line search takes q(r) and Q r from the evaluation it is given
        # and never re-solves for them, so no evaluation can lack them
        grid, spec, _ = preset_setup("1d-4")
        ev = combined_eval(uniform_density(grid).values, spec)
        with pytest.raises(TypeError, match="quadratic"):
            LossEval(point=ev.point, value=ev.value, gradient=ev.gradient)


class TestRunDescent:
    def test_converges_on_quadratic(self):
        # one Newton step closes the gap of the exact quadratic
        p0, _, spec, mahalanobis = newton_setup()
        hist = run_descent(p0, spec, mahalanobis, DescentConfig(gap_tolerance=1e-12))
        assert hist.status == "converged" and hist.iterations == 1
        assert hist.final_gap <= 1e-12
        np.testing.assert_array_equal(hist.column("gap"), hist.column("loss"))
        distance = hist.column("distance_to_reference")
        assert np.all(np.isfinite(distance)) and distance[-1] <= 1e-15

    def test_ascent_direction_stalls_the_run(self):
        # the first step stalls, so the history holds the start alone
        p0, _, spec, _ = newton_setup()
        hist = run_descent(p0, spec, lambda p, g, mu: -g)
        assert hist.status == "stalled" and hist.stall_reason == "non-descent direction"
        assert len(hist.records) == 1 and hist.iterations == 0
        assert hist.final_gap == combined_eval(p0.values, spec).value

    def test_fixed_point_terminates_at_iteration_zero(self):
        grid, mu, spec, metric = sin_setup()
        hist = run_descent(mu, spec, metric)
        assert hist.status == "converged"
        assert hist.iterations == 0
        assert abs(hist.final_gap) <= 1e-12

    def test_monotone_descent_and_feasibility(self):
        grid, mu, spec, metric = sin_setup()
        hist = run_descent(uniform_density(grid), spec, metric, DescentConfig(max_iterations=50))
        losses = hist.column("loss")
        assert np.all(np.diff(losses) < 0.0)
        assert np.all(hist.column("min_value") > 0.0)

    def test_mass_frozen_with_alpha1(self):
        grid, mu, spec, metric = sin_setup()
        hist = run_descent(uniform_density(grid), spec, metric, DescentConfig(max_iterations=100))
        mass = hist.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-8

    def test_reaches_target_fast_on_1d_preset(self):
        grid, mu, spec, metric = sin_setup(512)
        p0 = uniform_density(grid)
        from waveng.losses import combined_eval

        gap0 = combined_eval(p0.values, spec).value
        cfg = DescentConfig(max_iterations=100, gap_tolerance=1e-6 * gap0)
        hist = run_descent(p0, spec, metric, cfg)
        assert hist.status == "converged"
        assert hist.iterations <= 100

    def test_combined_beats_fisher_rao_on_same_target(self):
        grid, mu, spec, metric = sin_setup(512)
        p0 = uniform_density(grid)
        from waveng.losses import combined_eval

        gap0 = combined_eval(p0.values, spec).value
        target = 1e-6 * gap0
        combined_hist = run_descent(p0, spec, metric, DescentConfig(2000, target))
        fisher = metric_apply_fn(MetricKind.FISHER_RAO, grid)
        capped = DescentConfig(combined_hist.iterations, target)
        fisher_hist = run_descent(p0, spec, fisher, capped)
        assert combined_hist.status == "converged"
        assert fisher_hist.status != "converged"

    @pytest.mark.parametrize("preset_id", ["2d-2", "2d-4"])
    def test_wasserstein_count_independent_of_solver_tolerance(self, preset_id):
        # the Wasserstein direction D^T diag(p) D g amplifies the error of the
        # K-solve inside g; the iteration count must come from the problem,
        # not from how accurately the solver happens to converge
        counts = []
        for tol in (1e-8, 1e-10, 1e-12):
            grid, spec, _ = preset_setup(preset_id, EllipticSolveConfig(rel_tolerance=tol))
            p0 = uniform_density(grid)
            target = 1e-6 * combined_eval(p0.values, spec).value
            wasserstein = metric_apply_fn(MetricKind.WASSERSTEIN, grid)
            hist = run_descent(p0, spec, wasserstein, DescentConfig(200, target))
            assert hist.status == "converged"
            counts.append(hist.iterations)
        assert len(set(counts)) == 1, counts

    # the mixes with alpha2 > 0, where the paper's diagonal metric
    # (coarse_block = 0) is mesh independent from the uniform start; on 1d-2
    # and 2d-2 (alpha2 = 0) its count grows with n (README), so they are not
    # pinned here
    @pytest.mark.parametrize("preset_id,n,cap", [
        (pid, n, 17 if pid == "2d-1" else 13)
        for pid in ("1d-1", "1d-3", "1d-4", "2d-1", "2d-3", "2d-4")
        for n in ((128, 512, 2048) if pid.startswith("1d") else (32, 64, 128))
    ])
    def test_combined_count_is_mesh_independent(self, preset_id, n, cap):
        # the 128^2 K-solves run the FFT two-level map
        grid, spec, metric = preset_setup(preset_id, n=n, coarse_block=0)
        p0 = uniform_density(grid)
        target = 1e-6 * combined_eval(p0.values, spec).value
        hist = run_descent(p0, spec, metric, DescentConfig(100, target))
        assert hist.status == "converged"
        assert hist.iterations <= cap

    @pytest.mark.parametrize("preset_id,n", [
        (f"{dim}d-{panel}", n)
        for dim, sizes in ((1, (128, 512, 2048)), (2, (32, 64, 128)))
        for panel in (1, 2, 3, 4)
        for n in sizes
    ])
    def test_two_level_count_is_mesh_independent(self, preset_id, n):
        # the default two-level metric on all eight mixes, alpha2 = 0 included:
        # 8/8/8, 9/9/9, 8/8/6, 9/9/8 in 1D and 8/10/10, 6/9/11, 5/6/7, 6/7/8 in 2D
        grid, spec, metric = preset_setup(preset_id, n=n)
        p0 = uniform_density(grid)
        target = 1e-6 * combined_eval(p0.values, spec).value
        hist = run_descent(p0, spec, metric, DescentConfig(100, target))
        assert hist.status == "converged"
        assert hist.iterations <= 14

    @pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096])
    def test_two_level_count_from_rough_starts(self, n):
        # 1d-4 mix from +-50 % white-noise starts: 10-14 iterations at every n,
        # where the paper's diagonal takes 27-73 up to n = 1024 and fails from
        # n = 2048 on (the 200-iteration cap or a stall); the cap of 20 leaves
        # room for last-bit changes of the K-solve and stays below 27
        grid, spec, metric = preset_setup("1d-4", n=n)
        for seed in (0, 1, 2):
            values = 1.0 + np.random.default_rng(seed).uniform(-0.5, 0.5, n)
            p0 = Density(grid, values / values.sum())
            target = 1e-6 * combined_eval(p0.values, spec).value
            hist = run_descent(p0, spec, metric, DescentConfig(100, target))
            assert hist.status == "converged" and hist.iterations <= 20, seed
            if n == 2048 and seed == 0:
                paper = preset_setup("1d-4", n=n, coarse_block=0)[2]
                assert run_descent(p0, spec, paper, DescentConfig(100, target)).status != "converged"

    @pytest.mark.parametrize("bump", [5.0, 10.0])
    def test_two_level_count_with_one_weak_site(self, bump):
        # mu with exp(-bump) times its weight at site n/3: the two-level
        # metric takes 17 and 310 iterations, the paper's diagonal 30 and 392;
        # at bump 20 both miss the 2000 cap and at 40 both stall, so those
        # are not gated
        counts = []
        for coarse_block in (COARSE_BLOCK, 0):
            grid, spec, metric = preset_setup("1d-4", coarse_block=coarse_block, bump=bump)
            p0 = uniform_density(grid)
            target = 1e-6 * combined_eval(p0.values, spec).value
            hist = run_descent(p0, spec, metric, DescentConfig(2000, target))
            assert hist.status == "converged"
            counts.append(hist.iterations)
        assert counts[0] < counts[1], counts

    def test_rejects_start_that_is_not_a_density(self):
        # a bare array used to fail inside the first check: '<=' not
        # supported between 'builtin_function_or_method' and 'float'
        grid, mu, spec, metric = sin_setup(16)
        with pytest.raises(TypeError, match="p0 must be a Density, got ndarray"):
            run_descent(uniform_density(grid).values, spec, metric)

    def test_rejects_spec_that_is_not_a_loss_spec(self):
        # both used to raise AttributeError: 'str' object has no attribute 'grid'
        grid, mu, spec, metric = sin_setup(16)
        p = uniform_density(grid)
        with pytest.raises(TypeError, match="spec must be a LossSpec, got str"):
            run_descent(p, "1d-4", metric)
        with pytest.raises(TypeError, match="spec must be a LossSpec, got str"):
            armijo_step(combined_eval(p.values, spec), "1d-4", metric)
        with pytest.raises(TypeError, match="spec must be a LossSpec, got dict"):
            run_descent(p, {}, metric)  # refused before the start cache hashes it

    def test_armijo_step_rejects_evaluated_that_is_not_a_loss_eval(self):
        # a bare point, a Density or its values, carries no evaluation
        grid, mu, spec, metric = sin_setup(16)
        p = uniform_density(grid)
        for bad in (p, p.values):
            with pytest.raises(TypeError, match=f"must be a LossEval, got {type(bad).__name__}"):
                armijo_step(bad, spec, metric)

    def test_rejects_nonpositive_start(self):
        # no start with a site <= 0 reaches run_descent: the Density refuses it
        grid = make_grid(1, 16)
        values = np.full(16, 1.0 / 16)
        values[0] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            Density(grid, values)

    def test_rejects_start_on_another_grid(self):
        # same site count (16), different grid: 1D n = 16 against 2D 4 x 4
        grid = make_grid(2, 4)
        mu = reference_measure(grid, np.linspace(0.0, 1.0, 16))
        spec = LossSpec(1.0, 1e-3, 1e-4, mu=mu)
        with pytest.raises(ValueError, match="grid"):
            run_descent(uniform_density(make_grid(1, 16)), spec, identity_metric)

    def test_armijo_step_rejects_evaluation_on_another_grid(self):
        # same site count (16), different grid: an evaluation at a point on
        # 1D n = 16 under a loss on 2D 4 x 4
        grid, other = make_grid(2, 4), make_grid(1, 16)
        spec = LossSpec(1.0, 1e-3, 1e-4, mu=reference_measure(grid, np.linspace(0.0, 1.0, 16)))
        other_spec = LossSpec(1.0, 1e-3, 1e-4, mu=uniform_density(other))
        ev = combined_eval(uniform_density(other).values, other_spec)
        assert ev.point.grid == other
        with pytest.raises(ValueError, match="start grid .* is not the loss grid"):
            armijo_step(ev, spec, identity_metric)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_rejects_metric_bound_to_another_grid(self, kind):
        # same site count (16), different grid: a metric bound to 1D n = 16
        # must refuse a 2D 4 x 4 density
        grid, other = make_grid(2, 4), make_grid(1, 16)
        alphas = (1.0, 1e-3, 1e-4)
        mu = reference_measure(grid, np.linspace(0.0, 1.0, 16))
        metric = metric_apply_fn(kind, other, precomp=build_precomp(make_basis(other)), alphas=alphas)
        with pytest.raises(ValueError, match="grid"):
            metric(mu, np.ones(16), mu)
        with pytest.raises(ValueError, match="grid"):
            run_descent(uniform_density(grid), LossSpec(*alphas, mu=mu), metric)

    def test_history_columns(self):
        grid, mu, spec, metric = sin_setup(16)
        hist = run_descent(uniform_density(grid), spec, metric, DescentConfig(max_iterations=3))
        assert len(hist.records) == hist.iterations + 1
        assert hist.records[0].iteration == 0
        assert hist.records[0].eta == 0.0
        assert np.all(np.isfinite(hist.column("distance_to_reference")))


def panel_setup(preset_id, n):
    """A preset's loss and its bound metric panel, on n sites per axis."""
    preset = load_preset(preset_id)
    grid = make_grid(preset.dim, n)
    mu = reference_measure(grid, build_potential(grid, preset.potential_id))
    pre = build_precomp(make_basis(grid))
    metrics = [
        metric_apply_fn(kind, grid, precomp=pre, alphas=preset.alphas) for kind in preset.metrics
    ]
    return grid, LossSpec(*preset.alphas, mu=mu), metrics


def history_bits(history):
    """Every field of every record, floats by their bits, with the status."""
    fields = [
        tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(r))
        for r in history.records
    ]
    return history.status, history.stall_reason, fields


class TestSharedStart:
    """Descents from one start under one loss share one read-only E(p0)."""

    PANELS = [("1d-4", 64), ("2d-4", 16)]

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The specs of the descents' own combined_eval calls, under the tracer's name."""
        optimizer._start_evaluation.cache_clear()
        calls = []

        def counted(p, spec):
            calls.append(spec)
            return combined_eval(p, spec)

        monkeypatch.setattr(optimizer, "combined_eval", counted)
        return calls

    @pytest.mark.parametrize("preset_id,n", PANELS)
    def test_one_evaluation_per_shared_start(self, preset_id, n, evaluations):
        grid, spec, metrics = panel_setup(preset_id, n)
        cfg = DescentConfig(max_iterations=3)
        p0 = uniform_density(grid)
        for metric in metrics:
            run_descent(p0, spec, metric, cfg)
        assert len(metrics) == 4 and evaluations == [spec]
        # the spec is matched by value, its mu by identity
        run_descent(p0, LossSpec(*spec.alphas, mu=spec.mu), metrics[0], cfg)
        assert len(evaluations) == 1
        # the start by identity: equal values are another start
        run_descent(Density(grid, p0.values), spec, metrics[0], cfg)
        assert len(evaluations) == 2
        other = LossSpec(spec.alpha1, 2 * spec.alpha2, spec.alpha3, mu=spec.mu)
        run_descent(p0, other, metrics[0], cfg)
        assert len(evaluations) == 3 and evaluations[-1] is other

    @pytest.mark.parametrize("preset_id,n", PANELS)
    def test_histories_match_fresh_evaluations(self, preset_id, n):
        grid, spec, metrics = panel_setup(preset_id, n)
        cfg = DescentConfig(max_iterations=25)
        p0 = uniform_density(grid)
        optimizer._start_evaluation.cache_clear()
        shared = [history_bits(run_descent(p0, spec, metric, cfg)) for metric in metrics]
        assert optimizer._start_evaluation.cache_info().hits == len(metrics) - 1
        fresh = []
        for metric in metrics:
            optimizer._start_evaluation.cache_clear()
            fresh.append(history_bits(run_descent(p0, spec, metric, cfg)))
        assert shared == fresh

    @pytest.mark.parametrize("writes_at", [1, 3])
    def test_metric_that_writes_its_gradient_raises(self, writes_at):
        # the start evaluation and every accepted step's are read-only, so a
        # metric that scales g in place used to skew the slope unseen, and
        # with the shared start the next descent's too
        grid, mu, spec, metric = sin_setup(16)
        calls = []

        def writing(p, g, mu):
            calls.append(p)
            if len(calls) == writes_at:
                g *= 2.0
            return metric(p, g, mu)

        p0 = uniform_density(grid)
        with pytest.raises(ValueError, match="read-only"):
            run_descent(p0, spec, writing)
        assert len(calls) == writes_at
        start = optimizer._start_evaluation(p0, spec)
        np.testing.assert_array_equal(start.gradient, combined_eval(p0.values, spec).gradient)


class TestDescentConfig:
    def test_validation(self):
        for bad in (0.0, True, np.True_):  # a bool used to be accepted as 1.0
            with pytest.raises(ValueError, match="gap_tolerance"):
                DescentConfig(gap_tolerance=bad)
        # non-integer counts used to fail mid-descent with a TypeError
        for kwargs in (
            {"max_iterations": 2.5},
            {"max_iterations": float("nan")},
            {"max_iterations": -1},
            {"max_iterations": True},
        ):
            with pytest.raises(ValueError, match="integer"):
                DescentConfig(**kwargs)
