from pathlib import Path

import numpy as np
import pytest

from waveng.experiments import (
    PRESET_IDS,
    RunOverrides,
    build_potential,
    history_csv,
    load_preset,
    run_experiment,
    svg_text,
    write_csv,
    write_svg,
    CSV_HEADER,
)
from waveng.grid import make_grid
from waveng.metrics import MetricKind
from waveng.optimizer import DescentHistory, IterationRecord


FAST = RunOverrides(max_iterations=5, gap_tolerance=1e-14)


class TestPresets:
    def test_ids(self):
        assert set(PRESET_IDS) == {f"{d}-{i}" for d in ("1d", "2d") for i in (1, 2, 3, 4)}

    def test_1d_golden_values(self):
        expected = {
            "1d-1": (1.0, 1e-3, 0.0),
            "1d-2": (1.0, 0.0, 1e-4),
            "1d-3": (0.0, 1e-3, 1e-4),
            "1d-4": (1.0, 1e-3, 1e-4),
        }
        for pid, alphas in expected.items():
            preset = load_preset(pid)
            assert preset.alphas == alphas
            assert preset.n == 512 and preset.dim == 1
            assert preset.potential_id == "sin4pi"

    def test_2d_golden_values(self):
        expected = {
            "2d-1": (1.0, 3e-4, 0.0),
            "2d-2": (1.0, 0.0, 1e-4),
            "2d-3": (0.0, 3e-4, 1e-4),
            "2d-4": (1.0, 3e-4, 1e-4),
        }
        for pid, alphas in expected.items():
            preset = load_preset(pid)
            assert preset.alphas == alphas
            assert preset.n == 64 and preset.dim == 2

    def test_metric_panels(self):
        assert load_preset("1d-4").metrics == (
            MetricKind.WASSERSTEIN,
            MetricKind.FISHER_RAO,
            MetricKind.MAHALANOBIS,
            MetricKind.COMBINED,
        )
        assert load_preset("2d-1").metrics == (
            MetricKind.WASSERSTEIN,
            MetricKind.FISHER_RAO,
            MetricKind.COMBINED,
        )
        assert load_preset("2d-3").metrics == (
            MetricKind.FISHER_RAO,
            MetricKind.MAHALANOBIS,
            MetricKind.COMBINED,
        )

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            load_preset("3d-1")

    def test_potentials(self):
        grid = make_grid(1, 512)
        v = build_potential(grid, "sin4pi")
        s = np.arange(512) / 512
        np.testing.assert_allclose(v, np.sin(4 * np.pi * s), atol=1e-15)
        grid2 = make_grid(2, 64)
        v2 = build_potential(grid2, "sin4pi-product").reshape(64, 64)
        t = np.arange(64) / 64
        want = np.outer(np.sin(4 * np.pi * t), np.sin(4 * np.pi * t))
        np.testing.assert_allclose(v2, want, atol=1e-15)


class TestRunExperiment:
    def test_histories_share_start(self):
        report = run_experiment(load_preset("1d-1"), FAST)
        assert set(report.histories) == {"wasserstein", "fisher_rao", "combined"}
        first_losses = {h.records[0].loss for h in report.histories.values()}
        assert len(first_losses) == 1  # same p0 and loss for all metrics
        assert not report.failures

    def test_kl_only_override_monotone(self):
        report = run_experiment(load_preset("1d-3"), FAST)
        for hist in report.histories.values():
            gaps = hist.column("gap")
            assert np.all(np.diff(gaps) <= 0.0)

    def test_metric_failure_does_not_abort_siblings(self, monkeypatch):
        import waveng.experiments as exp

        real = exp.metric_apply_fn

        def broken(kind, grid, precomp=None, alphas=None):
            if kind is MetricKind.WASSERSTEIN:
                def boom(p, g, mu):
                    raise RuntimeError("synthetic failure")
                return boom
            return real(kind, grid, precomp=precomp, alphas=alphas)

        monkeypatch.setattr(exp, "metric_apply_fn", broken)
        report = run_experiment(load_preset("1d-1"), FAST)
        assert "wasserstein" in report.failures
        assert "combined" in report.histories

    def test_levels_override_raises_before_any_descent(self, monkeypatch):
        # the field is kept for the benchmark only; a depth used to build a
        # basis with no constant column, whose runs reported converged at a
        # drifted mass
        import waveng.experiments as exp

        def descent(*args, **kwargs):
            raise AssertionError("a descent ran")

        monkeypatch.setattr(exp, "run_descent", descent)
        with pytest.raises(ValueError, match="partial depth was removed"):
            run_experiment(load_preset("2d-2"), RunOverrides(levels=3))


class TestCsv:
    def test_header_and_row_count(self, tmp_path):
        report = run_experiment(load_preset("1d-1"), FAST)
        paths = write_csv(report, tmp_path)
        assert len(paths) == 3
        for path in paths:
            lines = Path(path).read_bytes().decode().splitlines()
            assert lines[0] == CSV_HEADER
            name = path.split("_", 1)[-1].rsplit(".", 1)[0]

    def test_empty_history_header_only(self):
        assert history_csv(DescentHistory()) == CSV_HEADER + "\n"

    def test_two_iterations_three_rows(self):
        hist = DescentHistory(
            records=[
                IterationRecord(k, 1.0 / (k + 1), 0.5, 1, 1.0, 0.1, 0.0)
                for k in range(3)
            ]
        )
        text = history_csv(hist)
        assert text.count("\n") == 4  # header + three rows, trailing LF
        assert text.endswith("\n") and "\r" not in text

    def test_float_formatting_round_trips(self):
        value = 0.1234567890123456789
        hist = DescentHistory(
            records=[IterationRecord(0, value, value, 0, value, value, 0.0)]
        )
        row = history_csv(hist).splitlines()[1].split(",")
        assert float(row[1]) == value

    def test_gap_column_non_increasing(self, tmp_path):
        report = run_experiment(load_preset("1d-1"), RunOverrides(max_iterations=10))
        write_csv(report, tmp_path)
        for name, hist in report.histories.items():
            raw = (tmp_path / f"1d-1_{name}.csv").read_text().splitlines()[1:]
            gaps = [float(line.split(",")[2]) for line in raw]
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_deterministic_bytes(self, tmp_path):
        report1 = run_experiment(load_preset("1d-1"), FAST)
        report2 = run_experiment(load_preset("1d-1"), FAST)
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_csv(report1, a)
        write_csv(report2, b)
        for name in ("wasserstein", "fisher_rao", "combined"):
            fa = (a / f"1d-1_{name}.csv").read_bytes()
            fb = (b / f"1d-1_{name}.csv").read_bytes()
            assert fa == fb and len(fa) > 0

    def test_deterministic_bytes_2d(self, tmp_path):
        # the 2D combined metric applies its factors by BLAS, which the 1D
        # replay of acceptance criterion 9 never reaches
        overrides = RunOverrides(max_iterations=6)
        reports = [run_experiment(load_preset("2d-3"), overrides) for _ in range(2)]
        for report, out in zip(reports, ("a", "b")):
            assert not report.failures
            write_csv(report, tmp_path / out)
        for kind in load_preset("2d-3").metrics:
            fa = (tmp_path / "a" / f"2d-3_{kind.value}.csv").read_bytes()
            fb = (tmp_path / "b" / f"2d-3_{kind.value}.csv").read_bytes()
            # header + iterations 0-6; the combined metric converges after 5
            lines = 7 if kind is MetricKind.COMBINED else 8
            assert fa == fb and fa.count(b"\n") == lines


class TestSvg:
    def test_deterministic_and_complete(self, tmp_path):
        report1 = run_experiment(load_preset("1d-1"), FAST)
        report2 = run_experiment(load_preset("1d-1"), FAST)
        p1 = write_svg(report1, tmp_path / "one.svg")
        p2 = write_svg(report2, tmp_path / "two.svg")
        b1 = Path(p1).read_bytes()
        assert b1 == Path(p2).read_bytes()
        text = b1.decode()
        assert text.count("<polyline") == 3
        for name in ("wasserstein", "fisher_rao", "combined"):
            assert name in text
        assert "<svg" in text and text.rstrip().endswith("</svg>")

    def test_empty_report_is_valid_svg(self):
        report = run_experiment(load_preset("1d-1"), FAST)
        report.histories.clear()
        text = svg_text(report)
        assert "<svg" in text and "</svg>" in text
