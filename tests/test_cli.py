import argparse
import re
from pathlib import Path

import pytest

from waveng.cli import build_parser, main
from waveng.experiments import RunReport
from waveng.optimizer import DescentHistory, IterationRecord


class TestCli:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for pid in ("1d-1", "1d-4", "2d-1", "2d-4"):
            assert pid in out

    def test_unknown_preset_exit_2(self, capsys):
        assert main(["run", "--preset", "9d-9"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_flag_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--preset", "1d-1", "--max-iter", "not-a-number"])
        assert excinfo.value.code == 2

    def test_run_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--preset",
                "1d-1",
                "--max-iter",
                "3",
                "--out-dir",
                str(tmp_path),
                "--svg",
            ]
        )
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "1d-1_wasserstein.csv",
            "1d-1_fisher_rao.csv",
            "1d-1_combined.csv",
            "1d-1.svg",
        }
        out = capsys.readouterr().out
        assert "combined" in out and "wrote" in out

    def test_run_prints_stall_reason(self, tmp_path, capsys, monkeypatch):
        stalled = DescentHistory(
            records=[IterationRecord(0, 1.0, 0.0, 0, 1.0, 0.5, 0.0)],
            status="stalled",
            stall_reason="line search exhausted max_halvings",
        )

        def fake_run(preset, overrides):
            report = RunReport(preset=preset)
            for kind in preset.metrics:
                report.histories[kind.value] = stalled
                report.wall_times[kind.value] = 0.0
            return report

        monkeypatch.setattr("waveng.cli.run_experiment", fake_run)
        assert main(["run", "--preset", "1d-1", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert (
            "1d-1 combined: stalled (line search exhausted max_halvings) after 0 iterations" in out
        )

    def test_out_dir_that_is_a_file_exit_2(self, tmp_path, capsys, monkeypatch):
        # rejected before any descent runs
        def fail_if_run(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr("waveng.cli.run_experiment", fail_if_run)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["run", "--preset", "1d-1", "--out-dir", str(blocker)]) == 2
        assert "taken" in capsys.readouterr().err
        assert main(["run", "--preset", "1d-1", "--out-dir", str(blocker / "sub")]) == 2

    def test_selftest_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest"])
        assert excinfo.value.code == 2

    def test_kl_form_flag_is_gone(self, tmp_path):
        # the plain KL form drove Fisher-Rao runs to a negative gap reported
        # as converged; the mass-corrected form is the only one
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--preset", "1d-3", "--kl-form", "plain", "--out-dir", str(out_dir)])
        assert excinfo.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_levels_flag_is_gone(self, tmp_path):
        # a partial-depth basis has no constant column: the combined metric
        # moved the mass and the run still reported converged
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--preset", "2d-2", "--levels", "3", "--out-dir", str(out_dir)])
        assert excinfo.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_readme_documents_every_run_flag(self):
        # every --flag named in README's CLI section is a `run` option and
        # every `run` option but --help is named there
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"--[a-z][a-z-]*", section))
        [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        run = sub.choices["run"]
        options = {o for a in run._actions for o in a.option_strings if o.startswith("--")}
        assert documented == options - {"--help"}

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--wavelet-order", "11", "order"),
            ("--max-iter", "-1", "max_iterations"),
            ("--gap-tol", "0", "gap_tolerance"),
            ("--gap-tol", "nan", "gap_tolerance"),
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, flag, value, message):
        code = main(["run", "--preset", "1d-1", flag, value, "--out-dir", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
