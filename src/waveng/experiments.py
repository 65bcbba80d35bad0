"""Experiment presets, the multi-metric runner, and CSV/SVG output.

Eight presets mirror the benchmark panels: four 1D runs on n = 512 with
potential sin(4 pi s) and four 2D runs on 64 x 64 with potential
sin(4 pi s1) sin(4 pi s2), each pairing the combined metric against the
baseline metrics present in that panel.  All metrics in a preset share the
same grid, reference measure, wavelet precomputation, and uniform initial
density, so per-metric histories are directly comparable.

Output files are deterministic down to the byte: CSV columns are fixed,
floats are printed with 17 significant digits, and the SVG chart is
assembled from formatted strings with a fixed palette.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, make_grid, reference_measure, site_coordinates, uniform_density
from .losses import KLForm, LossSpec
from .metrics import MetricKind, build_precomp, metric_apply_fn
from .operators import EllipticSolveConfig
from .optimizer import DescentConfig, DescentHistory, run_descent
from .wavelets import make_basis

__all__ = [
    "ExperimentPreset",
    "RunOverrides",
    "RunReport",
    "PRESET_IDS",
    "load_preset",
    "build_potential",
    "run_experiment",
    "write_csv",
    "write_svg",
]

CSV_HEADER = "iter,loss,gap,eta,halvings,mass,min_p"

_BASELINES_BY_PANEL = {
    1: (MetricKind.WASSERSTEIN, MetricKind.FISHER_RAO),
    2: (MetricKind.WASSERSTEIN, MetricKind.MAHALANOBIS),
    3: (MetricKind.FISHER_RAO, MetricKind.MAHALANOBIS),
    4: (MetricKind.WASSERSTEIN, MetricKind.FISHER_RAO, MetricKind.MAHALANOBIS),
}

_ALPHAS_1D = {1: (1.0, 1e-3, 0.0), 2: (1.0, 0.0, 1e-4), 3: (0.0, 1e-3, 1e-4), 4: (1.0, 1e-3, 1e-4)}
_ALPHAS_2D = {1: (1.0, 3e-4, 0.0), 2: (1.0, 0.0, 1e-4), 3: (0.0, 3e-4, 1e-4), 4: (1.0, 3e-4, 1e-4)}


@dataclass(frozen=True)
class ExperimentPreset:
    id: str
    dim: int
    n: int
    potential_id: str
    alphas: tuple[float, float, float]
    metrics: tuple[MetricKind, ...]


def _make_presets() -> dict[str, ExperimentPreset]:
    presets = {}
    for panel in (1, 2, 3, 4):
        presets[f"1d-{panel}"] = ExperimentPreset(
            id=f"1d-{panel}",
            dim=1,
            n=512,
            potential_id="sin4pi",
            alphas=_ALPHAS_1D[panel],
            metrics=_BASELINES_BY_PANEL[panel] + (MetricKind.COMBINED,),
        )
        presets[f"2d-{panel}"] = ExperimentPreset(
            id=f"2d-{panel}",
            dim=2,
            n=64,
            potential_id="sin4pi-product",
            alphas=_ALPHAS_2D[panel],
            metrics=_BASELINES_BY_PANEL[panel] + (MetricKind.COMBINED,),
        )
    return presets


PRESETS = _make_presets()
PRESET_IDS = tuple(PRESETS)


def load_preset(preset_id: str) -> ExperimentPreset:
    try:
        return PRESETS[preset_id]
    except KeyError:
        known = ", ".join(PRESET_IDS)
        raise KeyError(f"unknown preset {preset_id!r}; known presets: {known}") from None


def build_potential(grid: Grid, potential_id: str) -> np.ndarray:
    """Sample a named potential at the grid sites: one value per site."""
    coords = site_coordinates(grid)
    if potential_id == "sin4pi":
        if grid.dim != 1:
            raise ValueError("sin4pi is a 1D potential")
        return np.sin(4.0 * np.pi * coords[0])
    if potential_id == "sin4pi-product":
        if grid.dim != 2:
            raise ValueError("sin4pi-product is a 2D potential")
        return np.sin(4.0 * np.pi * coords[0]) * np.sin(4.0 * np.pi * coords[1])
    raise ValueError(f"unknown potential {potential_id!r}")


@dataclass(frozen=True)
class RunOverrides:
    """Run settings outside the preset.

    The CLI sets wavelet_order, max_iterations and gap_tolerance.
    """

    wavelet_order: int = 3
    levels: None = None  # benchmark-only: make_basis refuses any other value
    max_iterations: int = 2000
    gap_tolerance: float = 1e-10
    kl_form: KLForm = KLForm.MASS_CORRECTED  # one member; perfbench passes it on
    solver_tolerance: float = 1e-10


@dataclass
class RunReport:
    preset: ExperimentPreset
    histories: dict[str, DescentHistory] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    wall_times: dict[str, float] = field(default_factory=dict)


def run_experiment(
    preset: ExperimentPreset, overrides: RunOverrides = RunOverrides()
) -> RunReport:
    """Run every metric of a preset from the shared initial density.

    A failure in one metric run is recorded and does not abort the others.
    """
    grid = make_grid(preset.dim, preset.n)
    mu = reference_measure(grid, build_potential(grid, preset.potential_id))
    p0 = uniform_density(grid)
    basis = make_basis(grid, order=overrides.wavelet_order, levels=overrides.levels)
    precomp = build_precomp(basis)
    solve_cfg = EllipticSolveConfig(rel_tolerance=overrides.solver_tolerance)
    spec = LossSpec(*preset.alphas, mu=mu, kl_form=overrides.kl_form, solve_config=solve_cfg)
    cfg = DescentConfig(
        max_iterations=overrides.max_iterations, gap_tolerance=overrides.gap_tolerance
    )
    report = RunReport(preset=preset)
    for kind in preset.metrics:
        metric = metric_apply_fn(kind, grid, precomp=precomp, alphas=preset.alphas)
        started = time.perf_counter()
        try:
            history = run_descent(p0, spec, metric, cfg)
        except Exception as err:  # keep sibling metrics running
            report.failures[kind.value] = f"{type(err).__name__}: {err}"
        else:
            report.histories[kind.value] = history
        report.wall_times[kind.value] = time.perf_counter() - started
    return report


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def history_csv(history: DescentHistory) -> str:
    """Render one history as CSV text (LF endings, 17 significant digits)."""
    lines = [CSV_HEADER]
    for r in history.records:
        lines.append(
            f"{r.iteration},{_fmt(r.loss)},{_fmt(r.gap)},{_fmt(r.eta)},"
            f"{r.halvings},{_fmt(r.mass)},{_fmt(r.min_value)}"
        )
    return "\n".join(lines) + "\n"


def write_csv(report: RunReport, out_dir) -> list[str]:
    """Write <preset>_<metric>.csv per metric into out_dir; returns paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for kind in report.preset.metrics:
        name = kind.value
        if name not in report.histories:
            continue
        path = out / f"{report.preset.id}_{name}.csv"
        path.write_bytes(history_csv(report.histories[name]).encode("utf-8"))
        written.append(str(path))
    return written


_PALETTE = {
    "wasserstein": "#1f77b4",
    "fisher_rao": "#ff7f0e",
    "mahalanobis": "#2ca02c",
    "combined": "#d62728",
}

_SVG_W, _SVG_H = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 30, 50
_GAP_FLOOR = 1e-16


def svg_text(report: RunReport) -> str:
    """Convergence chart: per-metric gap vs iteration, log-scale y axis."""
    series = []
    for kind in report.preset.metrics:
        name = kind.value
        if name not in report.histories:
            continue
        hist = report.histories[name]
        gaps = np.maximum(hist.column("gap"), _GAP_FLOOR)
        series.append((name, np.log10(gaps)))
    if not series:
        x_max, y_min, y_max = 1.0, -1.0, 1.0
    else:
        x_max = max(len(vals) - 1 for _, vals in series)
        x_max = max(x_max, 1)
        y_min = min(float(vals.min()) for _, vals in series)
        y_max = max(float(vals.max()) for _, vals in series)
    y_lo, y_hi = np.floor(y_min), np.ceil(y_max)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(i: float) -> float:
        return _MARGIN_L + plot_w * i / x_max

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h * (y_hi - v) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    decades = int(y_hi - y_lo)
    step = max(1, int(np.ceil(decades / 8)))
    for d in range(0, decades + 1, step):
        v = y_lo + d
        y = sy(v)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_MARGIN_L + plot_w}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">1e{int(v)}</text>'
        )
    x_ticks = 5
    for t in range(x_ticks + 1):
        i = round(x_max * t / x_ticks)
        x = sx(i)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{i}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">iteration</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">loss gap</text>'
    )
    for idx, (name, vals) in enumerate(series):
        color = _PALETTE[name]
        points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = _MARGIN_T + 16 + 18 * idx
        lx = _MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L}" y="{_MARGIN_T - 10}" font-family="sans-serif" '
        f'font-size="13">{report.preset.id}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(report: RunReport, path) -> str:
    """Write the convergence chart; deterministic bytes for a fixed report."""
    from pathlib import Path

    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(svg_text(report).encode("utf-8"))
    return str(p)

