"""Command-line harness: run presets or list them.

Exit codes: 0 success, 1 run failure, 2 bad arguments (including an
unusable --out-dir, which is checked before any descent runs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .experiments import PRESET_IDS, RunOverrides, load_preset, run_experiment
from .optimizer import DescentConfig
from .wavelets import daubechies_lowpass

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveng",
        description="Natural-gradient descent benchmarks with wavelet-diagonal preconditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunOverrides()
    run = sub.add_parser("run", help="run one experiment preset")
    run.add_argument("--preset", required=True, help="preset id (see list-presets)")
    run.add_argument("--wavelet-order", type=int, default=defaults.wavelet_order, metavar="K")
    run.add_argument("--max-iter", type=int, default=defaults.max_iterations, metavar="N")
    run.add_argument("--gap-tol", type=float, default=defaults.gap_tolerance, metavar="T")
    run.add_argument("--out-dir", default="out", metavar="DIR")
    run.add_argument("--svg", action="store_true", help="also write a convergence chart")

    sub.add_parser("list-presets", help="print the known preset ids")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        preset = load_preset(args.preset)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    try:
        daubechies_lowpass(args.wavelet_order)
        DescentConfig(max_iterations=args.max_iter, gap_tolerance=args.gap_tol)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    overrides = RunOverrides(
        wavelet_order=args.wavelet_order,
        max_iterations=args.max_iter,
        gap_tolerance=args.gap_tol,
    )
    try:
        report = run_experiment(preset, overrides)
    except Exception as err:
        print(f"error: run failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    paths = experiments.write_csv(report, out_dir)
    if args.svg:
        paths.append(experiments.write_svg(report, out_dir / f"{preset.id}.svg"))
    for name in (kind.value for kind in preset.metrics):
        if name in report.histories:
            hist = report.histories[name]
            status = f"{hist.status} ({hist.stall_reason})" if hist.stall_reason else hist.status
            print(
                f"{preset.id} {name}: {status} after {hist.iterations} iterations, "
                f"final gap {hist.final_gap:.3e} ({report.wall_times[name]:.2f}s)"
            )
        else:
            print(f"{preset.id} {name}: FAILED: {report.failures[name]}")
    for path in paths:
        print(f"wrote {path}")
    return 1 if report.failures else 0


def _cmd_list() -> int:
    for preset_id in PRESET_IDS:
        preset = load_preset(preset_id)
        metrics = ", ".join(kind.value for kind in preset.metrics)
        print(f"{preset_id}: dim={preset.dim} n={preset.n} alphas={preset.alphas} [{metrics}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_list()


if __name__ == "__main__":
    sys.exit(main())
