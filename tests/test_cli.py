import pytest

from waveng.cli import main


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

    def test_run_respects_kl_form_flag(self, tmp_path):
        code = main(
            [
                "run",
                "--preset",
                "1d-3",
                "--max-iter",
                "2",
                "--kl-form",
                "plain",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--wavelet-order", "11", "order"),
            ("--levels", "20", "levels"),
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
