"""Checks that run beside the timed loop: fidelity and the rough-start probe."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from waveng import DescentConfig, Density, MetricKind, uniform_density
from waveng.experiments import RunOverrides, load_preset, run_experiment

from workloads import Workload, descend, digest, gap_tolerance, set_up

FIDELITY_CAP = 10  # iterations per metric in the fidelity comparison

# A defect found while sizing the workloads, kept visible: from a white-noise
# start the combined metric stalls on the 1d-4 mix at n = 4096.
ROUGH_PRESET = "1d-4"
ROUGH_N = 4096
ROUGH_SEEDS = (0, 1, 2)
ROUGH_NOISE = 0.5  # relative amplitude of the white noise
ROUGH_CAP = 200


def _benchmark_histories(workload: Workload) -> tuple[float, dict[str, str]]:
    problem = set_up(workload.preset())
    p0 = uniform_density(problem.grid)
    cfg = DescentConfig(max_iterations=FIDELITY_CAP, gap_tolerance=gap_tolerance(problem, p0))
    return cfg.gap_tolerance, {
        kind.value: digest(descend(problem, kind, p0, cfg)) for kind in problem.preset.metrics
    }


def fidelity(workload: Workload) -> str:
    """Compare the benchmark's composition with `run_experiment`; "" when identical.

    Both descend from the uniform start with the same mix, cap and tolerance,
    so their histories must agree bit for bit.  The benchmark's precompute is
    freed before `run_experiment` builds its own.
    """
    tolerance, ours = _benchmark_histories(workload)
    overrides = RunOverrides(max_iterations=FIDELITY_CAP, gap_tolerance=tolerance)
    report = run_experiment(workload.preset(), overrides)
    if report.failures:
        return f"run_experiment failed: {report.failures}"
    theirs = {name: digest(history) for name, history in report.histories.items()}
    differ = sorted(name for name in ours if ours[name] != theirs.get(name))
    return f"histories differ for {', '.join(differ)}" if differ else ""


def rough_start_probe() -> list[dict]:
    """Combined descents from white-noise starts; reported, never gated."""
    problem = set_up(replace(load_preset(ROUGH_PRESET), id="rough-start", n=ROUGH_N))
    out = []
    for seed in ROUGH_SEEDS:
        rng = np.random.default_rng(seed)
        values = 1.0 + rng.uniform(-ROUGH_NOISE, ROUGH_NOISE, ROUGH_N)
        p0 = Density(problem.grid, values / values.sum())
        cfg = DescentConfig(max_iterations=ROUGH_CAP, gap_tolerance=gap_tolerance(problem, p0))
        history = descend(problem, MetricKind.COMBINED, p0, cfg)
        out.append({
            "seed": seed,
            "status": history.status,
            "stall_reason": history.stall_reason,
            "iterations": history.iterations,
            "relative_gap": history.final_gap / history.records[0].gap,
            "min_p": float(history.column("min_value").min()),
        })
    return out
