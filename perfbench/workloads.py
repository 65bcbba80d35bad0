"""Workloads, seeded starts and the correctness gate.

Every workload is a preset's loss mix, potential and metric panel at a
stated grid size.  One operation is one descent: a metric driven from a
seeded start until the loss gap falls to TARGET of its starting value (the
paper's stopping rule) or, for a baseline, until its iteration cap.  The
benchmark composes the same public calls as `run_experiment`, so it measures
what `waveng run` executes; `checks.fidelity` shows that the histories agree.

Why the starts are smooth: a white-noise start (+-50 %) on the `1d-4` mix
makes the combined metric stall for n >= 2048 (min p falls to ~1e-21 and the
line search exhausts its halvings), while smooth starts converge at every
size.  No preset starts rough, so the rough start is a report-only probe
(`checks.rough_start_probe`) and the timed starts are the uniform density
plus a few low-frequency Fourier modes that keep p well above zero.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np
from waveng import (
    DescentConfig,
    DescentHistory,
    Density,
    EllipticSolveConfig,
    Grid,
    LossSpec,
    MetricKind,
    MetricPrecomp,
    build_precomp,
    combined_eval,
    make_basis,
    make_grid,
    metric_apply_fn,
    reference_measure,
    run_descent,
)
from waveng.experiments import ExperimentPreset, RunOverrides, build_potential, load_preset
from waveng.grid import site_coordinates

TARGET = 1e-6  # relative gap at which a descent has reached the solution
COMBINED_CAP = 500  # far above the 12-25 iterations the combined metric needs
START_MODES = 6  # Fourier modes added to the uniform start
START_MAX_WAVENUMBER = 4  # |k| <= 4
START_AMPLITUDE = 0.6  # total relative amplitude, so p >= 0.4 / total
MASS_TOLERANCE = 1e-12  # allowed drift of a frozen mass (starting mass is 1)


@dataclass(frozen=True)
class Workload:
    name: str
    preset_id: str  # the preset whose mix, potential and metric panel it runs
    n: int
    baseline_cap: int  # iteration cap of the baseline metrics
    min_starts: int  # starts every run completes, however short its window
    why: str

    def preset(self) -> ExperimentPreset:
        return replace(load_preset(self.preset_id), id=self.name, n=self.n)

    def cap(self, kind: MetricKind) -> int:
        return COMBINED_CAP if kind is MetricKind.COMBINED else self.baseline_cap


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "panel-1d", "1d-4", 512, 20, 8,
            "1d-4 mix at n=512, 4 metrics: E1 CG solves, one per Armijo trial, do ~93% of the "
            "work. Starts are smooth: white-noise ones stall the combined metric at n>=2048 (probed)",
        ),
        Workload(
            "panel-2d", "2d-4", 64, 15, 8,
            "2d-4 mix at 64^2, 4 metrics: the only workload on the 2D E1 solve path and the 2D "
            "H1 (transport-weight) matvec; E1 CG solves do ~90% of the work",
        ),
        Workload(
            "wavelet-2d", "2d-3", 128, 100, 16,
            "2d-3 mix at 128^2, combined/Fisher-Rao/Mahalanobis: alpha1 = 0, so no E1 solves; "
            "the 20 M-nnz H1/H2 precompute, its matvecs and the wavelet transforms do the work",
        ),
    )
}


@dataclass(frozen=True)
class Problem:
    """Everything a `waveng run` builds before its first descent."""

    preset: ExperimentPreset
    grid: Grid
    precomp: MetricPrecomp
    spec: LossSpec
    reference_value: float
    precomp_s: float  # wall time of build_precomp alone


def set_up(preset: ExperimentPreset) -> Problem:
    """Grid, reference measure, basis and precompute, as `run_experiment` builds them."""
    overrides = RunOverrides()
    grid = make_grid(preset.dim, preset.n)
    mu = reference_measure(grid, build_potential(grid, preset.potential_id))
    basis = make_basis(grid, order=overrides.wavelet_order, levels=overrides.levels)
    started = time.perf_counter()
    precomp = build_precomp(basis)
    precomp_s = time.perf_counter() - started
    spec = LossSpec(
        *preset.alphas,
        mu=mu,
        kl_form=overrides.kl_form,
        solve_config=EllipticSolveConfig(rel_tolerance=overrides.solver_tolerance),
    )
    return Problem(preset, grid, precomp, spec, combined_eval(mu.values, spec).value, precomp_s)


def smooth_start(grid, seed: int, index: int) -> Density:
    """Uniform density plus START_MODES random Fourier modes with |k| <= 4.

    The modes have equal amplitude, so every start is about as hard to solve;
    the seed picks their wave vectors and phases.
    """
    rng = np.random.default_rng([seed, index])
    x = site_coordinates(grid)
    bump = np.zeros(grid.total)
    for _ in range(START_MODES):
        while True:
            k = rng.integers(-START_MAX_WAVENUMBER, START_MAX_WAVENUMBER + 1, grid.dim)
            if 0 < k @ k <= START_MAX_WAVENUMBER**2:
                break
        phase = rng.uniform(0.0, 2.0 * np.pi)
        bump += np.cos(2.0 * np.pi * (k @ x) + phase)
    values = 1.0 + START_AMPLITUDE / START_MODES * bump
    return Density(grid, values / values.sum())


def gap_tolerance(problem: Problem, p0: Density) -> float:
    """The absolute gap at which a descent from p0 has reached TARGET."""
    return TARGET * (combined_eval(p0.values, problem.spec).value - problem.reference_value)


def metric_fn(problem: Problem, kind: MetricKind):
    return metric_apply_fn(kind, problem.grid, precomp=problem.precomp, alphas=problem.preset.alphas)


def descend(
    problem: Problem, kind: MetricKind, p0: Density, cfg: DescentConfig, metric=None
) -> DescentHistory:
    """One operation: a descent from p0 with one metric of the panel."""
    if metric is None:
        metric = metric_fn(problem, kind)
    return run_descent(p0, problem.spec, metric, cfg)


def gate(problem: Problem, kind: MetricKind, history: DescentHistory) -> str:
    """Why a finished descent is a failed operation, or "" when it passed."""
    losses = history.column("loss")
    gaps = history.column("gap")
    masses = history.column("mass")
    if not np.all(np.isfinite(losses)):
        return "non-finite loss"
    if np.any(np.diff(gaps) > 0.0):
        return "gap rose"
    frozen = kind is MetricKind.WASSERSTEIN or (
        kind is MetricKind.COMBINED and problem.spec.alpha1 > 0
    )
    if frozen and np.max(np.abs(masses - masses[0])) > MASS_TOLERANCE:
        return f"mass drifted by {np.max(np.abs(masses - masses[0])):.3g}"
    if history.status == "stalled":
        return f"stalled: {history.stall_reason}"
    if kind is MetricKind.COMBINED and history.status != "converged":
        return f"combined metric missed the target within {COMBINED_CAP} iterations"
    return ""


def digest(history: DescentHistory) -> str:
    """Bit-exact fingerprint of a history: every field of every record."""
    h = hashlib.sha256(f"{history.status}|{history.stall_reason}".encode())
    for r in history.records:
        h.update(
            f"{r.iteration},{r.loss.hex()},{r.gap.hex()},{r.eta.hex()},{r.halvings},"
            f"{r.mass.hex()},{r.min_value.hex()},{r.distance_to_reference.hex()};".encode()
        )
    return h.hexdigest()
