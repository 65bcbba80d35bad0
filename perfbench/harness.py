"""The benchmark run behind run.py: set-up, timed loop, checks and report.

Import only after `common.import_waveng()` has put the checkout's sources on
the path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy
from waveng import DescentConfig, MetricKind, uniform_density

from common import THREAD_VARS, source_dir
from reference import reference_s, speed_scale
from tracer import LAYERS, ROOT, Tracer
from workloads import (
    COMBINED_CAP,
    WORKLOADS,
    descend,
    digest,
    gap_tolerance,
    gate,
    metric_fn,
    set_up,
    smooth_start,
)

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

# Spans that make up the per-layer metrics, each reported as calls, mean
# inclusive ms per call and total self seconds.
LAYER_SPANS = (ROOT, *(name for _, _, name in LAYERS), *(f"metrics.{kind.value}" for kind in MetricKind))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="waveng benchmark: time to solution of descents")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    return args


def run_child(job: str, workload: str) -> dict:
    """Run child.py in a fresh interpreter, wait for it, return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), job, workload],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{job} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = Path.cwd() / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    modules = sorted((source_dir() / "waveng").glob("*.py"))
    lines = {p.name: len(p.read_text().splitlines()) for p in modules}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_revision": git_revision(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def run_operation(workload, problem, kind, p0, tolerance, tracer) -> dict:
    """Time one descent and pass it through the correctness gate."""
    cfg = DescentConfig(max_iterations=workload.cap(kind), gap_tolerance=tolerance)
    metric = metric_fn(problem, kind)
    if tracer is not None:
        metric = tracer.wrap(metric, f"metrics.{kind.value}")
    record = {"metric": kind.value}
    started = time.perf_counter()
    try:
        with tracer.descent() if tracer is not None else nullcontext():
            history = descend(problem, kind, p0, cfg, metric)
    except Exception as err:  # a failed operation; the run goes on
        record["wall_s"] = time.perf_counter() - started
        record["failure"] = f"{type(err).__name__}: {err}"
        record["traceback"] = traceback.format_exc()
        return record
    record["wall_s"] = time.perf_counter() - started
    record.update(
        iterations=history.iterations,
        halvings=int(history.column("halvings").sum()),
        status=history.status,
        stall_reason=history.stall_reason,
        relative_gap=history.final_gap / history.records[0].gap,
        failure=gate(problem, kind, history),
        digest=digest(history),
    )
    return record


def run_panel(workload, problem, seed, index, tracer=None) -> list[dict]:
    """Every metric of the workload from one seeded start."""
    p0 = smooth_start(problem.grid, seed, index)
    tolerance = gap_tolerance(problem, p0)
    return [
        run_operation(workload, problem, kind, p0, tolerance, tracer) for kind in problem.preset.metrics
    ]


def panel_wall(panel: list[dict]) -> float:
    return sum(op["wall_s"] for op in panel)


def _wall(pairs: list[tuple[float, float]]) -> str:
    walls = [wall for wall, _ in pairs]
    return f"wall s median {statistics.median(walls):.4f}, range {min(walls):.4f}-{max(walls):.4f}"


def end_to_end(workload, panels, references, window_s, setups, failed) -> tuple[dict, dict]:
    """The end-to-end metrics, times in reference-speed seconds (see reference.py).

    Panel i is scaled by the mean of the reference timings just before and
    just after it.
    """
    scales = [speed_scale((a + b) / 2) for a, b in zip(references, references[1:])]
    combined = [
        (op["wall_s"], scale * op["wall_s"])
        for panel, scale in zip(panels, scales)
        for op in panel
        if op["metric"] == "combined"
    ]
    walls = [(panel_wall(panel), scale * panel_wall(panel)) for panel, scale in zip(panels, scales)]
    setup = [(s["wall_s"], speed_scale(s["reference_s"]) * s["wall_s"]) for s in setups]
    solve_s = statistics.median(v for _, v in combined)
    panel_s = statistics.median(v for _, v in walls)
    if failed:
        solve_s = panel_s = speed_scale(min(references)) * window_s
    # a failed combined descent counts as one that used its whole cap
    iters = sum(
        COMBINED_CAP if op["failure"] else op["iterations"]
        for panel in panels[: workload.min_starts]
        for op in panel
        if op["metric"] == "combined"
    )
    metrics = {
        "setup_s": (statistics.median(v for _, v in setup), "s"),
        "solve_s": (solve_s, "s"),
        "panel_s": (panel_s, "s"),
        "combined_iters": (iters, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes; {_wall(setup)}",
        "solve_s": f"median of {len(combined)} combined descents; {_wall(combined)}",
        "panel_s": f"median of {len(walls)} panels of {len(panels[0])} descents; {_wall(walls)}",
        "combined_iters": f"combined descents on the first {workload.min_starts} starts",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    if failed:
        notes["solve_s"] = notes["panel_s"] = "failed operations: reported as the whole window"
    return metrics, notes


def per_layer(problem, panels, tracer, overhead_s) -> tuple[dict, dict]:
    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        entry = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = entry["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.ms"] = (1e3 * entry["total_s"] / calls if calls else 0.0, "ms")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    combined = summary.get("metrics.combined")
    self_ms = 1e3 * combined["self_s"] / combined["calls"] if combined else 0.0
    metrics["metrics.combined.self_ms"] = (self_ms, "ms")
    ops = [op for panel in panels for op in panel]
    steps = sum(op.get("iterations", 0) for op in ops)
    trials = tracer.count_under("losses.combined", "optimizer.armijo_step")
    metrics["optimizer.steps"] = (steps, "count")
    metrics["optimizer.trials"] = (trials, "count")
    metrics["optimizer.halvings"] = (sum(op.get("halvings", 0) for op in ops), "count")
    metrics["optimizer.accept_ratio"] = (steps / trials if trials else 0.0, "ratio")
    metrics["optimizer.self_s"] = (
        metrics[f"{ROOT}.self_s"][0] + metrics["optimizer.armijo_step.self_s"][0], "s"
    )
    pre = problem.precomp
    stored = [pre.h3] + [a for m in (pre.h1, pre.h2) for a in (m.data, m.indices, m.indptr)]
    metrics["metrics.build_precomp_s"] = (problem.precomp_s, "s")
    metrics["metrics.precomp_nnz"] = (sum(pre.nnz), "count")
    metrics["metrics.precomp_bytes"] = (sum(a.nbytes for a in stored), "bytes")
    descent_s = summary.get(ROOT, {"total_s": 0.0})["total_s"]
    metrics["trace.descent_s"] = (descent_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    shares = sorted(((e["self_s"] / descent_s, name) for name, e in summary.items()), reverse=True)
    notes = {
        "metrics.precomp_bytes": "computed from the stored array sizes, not measured",
        "self_share_of_descent": ", ".join(f"{name} {share:.1%}" for share, name in shares),
        "absent_layers": ", ".join(tracer.absent) or "none",
    }
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment()
    # setup_s is an end-to-end metric, so a traced run skips its fresh processes
    setups = [] if args.trace else [run_child("setup", workload.name) for _ in range(SETUP_REPEATS)]
    check = run_child("check", workload.name)

    problem = set_up(workload.preset())
    warm = uniform_density(problem.grid)
    descend(problem, MetricKind.COMBINED, warm, DescentConfig(
        max_iterations=workload.cap(MetricKind.COMBINED), gap_tolerance=gap_tolerance(problem, warm)))

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    shape = problem.grid.shape
    panels: list[list[dict]] = []
    references = [reference_s(shape)]  # one before and one after every panel
    began = time.perf_counter()
    try:
        while len(panels) < workload.min_starts or time.perf_counter() - began < args.seconds:
            panels.append(run_panel(workload, problem, args.seed, len(panels), tracer))
            references.append(reference_s(shape))
    finally:
        if tracer is not None:
            tracer.restore()
    window_s = time.perf_counter() - began
    replay = run_panel(workload, problem, args.seed, 0)

    ops = [op for panel in panels for op in panel]
    failures = [
        f"start {i} {op['metric']}: {op['failure']}"
        for i, panel in enumerate(panels)
        for op in panel
        if op["failure"]
    ]
    deterministic = [op.get("digest") for op in panels[0]] == [op.get("digest") for op in replay]
    correct = not failures and deterministic and not check["fidelity"]

    if tracer is None:
        metrics, notes = end_to_end(workload, panels, references, window_s, setups, len(failures))
    else:
        metrics, notes = per_layer(problem, panels, tracer, panel_wall(panels[0]) - panel_wall(replay))

    print("env: " + json.dumps(env))
    for probe in check["rough_start"]:
        print(
            f"probe rough-start (1d-4 mix, n=4096, white noise seed {probe['seed']}): "
            f"status={probe['status']} reason={probe['stall_reason'] or '-'} "
            f"iterations={probe['iterations']} relative_gap={probe['relative_gap']:.3g} "
            f"min_p={probe['min_p']:.3g}"
        )
    print(f"fidelity vs run_experiment: {check['fidelity'] or 'identical histories'}")
    print(f"determinism (start 0 replayed): {'bit-identical' if deterministic else 'HISTORIES DIFFER'}")
    print(f"operations: {len(ops) - len(failures)} passed, {len(failures)} failed of {len(ops)} "
          f"over {len(panels)} starts in {window_s:.2f} s")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for name in ("self_share_of_descent", "absent_layers"):
        if name in notes:
            print(f"{name}: {notes[name]}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "workload": workload.name, "why": workload.why, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "setup_processes": setups, "check": check, "deterministic": deterministic,
        "window_s": window_s, "reference_s": references, "panels": panels, "replay": replay,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, "notes": notes,
    }, indent=1))
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
