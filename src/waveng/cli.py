"""Command-line harness: run presets, list them, or self-check the library.

Exit codes: 0 success, 1 run/selftest failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .experiments import PRESET_IDS, RunOverrides, load_preset, run_experiment
from .grid import make_grid
from .losses import KLForm
from .optimizer import DescentConfig
from .wavelets import make_basis

__all__ = ["main", "build_parser", "selftest"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveng",
        description="Natural-gradient descent benchmarks with wavelet-diagonal preconditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment preset")
    run.add_argument("--preset", required=True, help="preset id (see list-presets)")
    run.add_argument("--wavelet-order", type=int, default=3, metavar="K")
    run.add_argument("--levels", type=int, default=None, metavar="L",
                     help="decomposition depth (default: full)")
    run.add_argument("--max-iter", type=int, default=2000, metavar="N")
    run.add_argument("--gap-tol", type=float, default=1e-10, metavar="T")
    run.add_argument("--kl-form", choices=["plain", "corrected"], default="corrected")
    run.add_argument("--out-dir", default="out", metavar="DIR")
    run.add_argument("--svg", action="store_true", help="also write a convergence chart")

    sub.add_parser("list-presets", help="print the known preset ids")
    sub.add_parser("selftest", help="run the built-in invariant battery")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        preset = load_preset(args.preset)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    try:
        make_basis(make_grid(preset.dim, preset.n), order=args.wavelet_order, levels=args.levels)
        DescentConfig(max_iterations=args.max_iter, gap_tolerance=args.gap_tol)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    kl_form = KLForm.PLAIN if args.kl_form == "plain" else KLForm.MASS_CORRECTED
    overrides = RunOverrides(
        wavelet_order=args.wavelet_order,
        levels=args.levels,
        max_iterations=args.max_iter,
        gap_tolerance=args.gap_tol,
        kl_form=kl_form,
    )
    try:
        report = run_experiment(preset, overrides)
    except Exception as err:
        print(f"error: run failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    paths = experiments.write_csv(report, out_dir)
    if args.svg:
        paths.append(experiments.write_svg(report, out_dir / f"{preset.id}.svg"))
    for name in (kind.value for kind in preset.metrics):
        if name in report.histories:
            hist = report.histories[name]
            print(
                f"{preset.id} {name}: {hist.status} after {hist.iterations} iterations, "
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


def selftest() -> int:
    """Small invariant battery; prints one line per check."""
    from .grid import reference_measure, uniform_density
    from .losses import LossSpec, combined_eval
    from .metrics import apply_combined_metric, build_precomp
    from .operators import laplacian_apply
    from .optimizer import run_descent
    from .wavelets import dense_matrix, transform_forward, transform_inverse
    from .experiments import build_potential

    rng = np.random.default_rng(7)
    checks: list[tuple[str, bool]] = []

    grid = make_grid(1, 64)
    basis = make_basis(grid)
    v = rng.standard_normal(64)
    roundtrip = np.max(np.abs(transform_inverse(basis, transform_forward(basis, v)) - v))
    checks.append(("wavelet round trip (n=64)", roundtrip <= 1e-10))

    w = dense_matrix(basis)
    ortho = np.max(np.abs(w.T @ w - np.eye(64)))
    checks.append(("wavelet orthonormality (n=64)", ortho <= 1e-10))

    pre = build_precomp(basis)
    p = rng.uniform(0.5, 1.5, 64)
    p /= p.sum()
    d_op = 64 * (np.roll(w, -1, axis=0) - w)
    h1_direct = np.diag(d_op.T @ np.diag(p) @ d_op)
    checks.append(("diagonal identity H1 (n=64)", np.max(np.abs(pre.h1 @ p - h1_direct)) <= 1e-10))
    h2_direct = np.diag(w.T @ np.diag(p) @ w)
    checks.append(("diagonal identity H2 (n=64)", np.max(np.abs(pre.h2 @ p - h2_direct)) <= 1e-10))
    lap_dense = np.column_stack([laplacian_apply(grid, w[:, i]) for i in range(64)])
    checks.append(("diagonal identity h3 (n=64)", np.max(np.abs(pre.h3 - np.diag(w.T @ lap_dense))) <= 1e-10))

    mu = reference_measure(grid, build_potential(grid, "sin4pi"))
    spec = LossSpec(1.0, 1e-3, 1e-4, mu=mu)
    q = rng.uniform(0.8, 1.2, 64) / 64
    ev = combined_eval(q, spec)
    step = 1e-5
    direction = rng.standard_normal(64)
    fd = (combined_eval(q + step * direction, spec).value
          - combined_eval(q - step * direction, spec).value) / (2 * step)
    rel = abs(float(ev.gradient @ direction) - fd) / max(abs(fd), 1e-30)
    checks.append(("combined gradient vs finite differences", rel <= 1e-5))

    g = rng.standard_normal(64)
    out = apply_combined_metric(pre, spec.alphas, q, g)
    checks.append(("combined metric freezes mass (alpha1 > 0)", abs(out.sum()) <= 1e-10))

    metric = lambda dens, grad: apply_combined_metric(pre, spec.alphas, dens, grad)
    hist = run_descent(mu, spec, metric)
    checks.append(("fixed point at the reference measure", hist.status == "converged" and hist.iterations == 0))

    hist2 = run_descent(uniform_density(grid), spec, metric)
    gaps = hist2.column("gap")
    checks.append(("descent is monotone", bool(np.all(np.diff(gaps) <= 0))))

    failed = 0
    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list-presets":
        return _cmd_list()
    return selftest()


if __name__ == "__main__":
    sys.exit(main())
