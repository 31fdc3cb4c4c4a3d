"""Tests for the FIG1 experiment and the command-line runner."""

import os
import subprocess
import sys

import pytest

from repro.experiments import run_all, run_fig1
from repro.experiments.runner import main
from repro.tech import CMOS035


@pytest.fixture(scope="module")
def fig1_result():
    # Small settings keep the transient affordable inside the unit suite.
    return run_fig1(CMOS035, cycles=3.0, points_per_period=100)


class TestFig1Experiment:
    def test_ring_oscillates_rail_to_rail(self, fig1_result):
        assert fig1_result.oscillates
        assert fig1_result.waveform.amplitude() > 0.9 * CMOS035.vdd

    def test_periods_in_expected_range(self, fig1_result):
        assert 50e-12 < fig1_result.analytical_period_s < 1e-9
        assert 50e-12 < fig1_result.simulated_period_s < 2e-9

    def test_simulated_tracks_analytical(self, fig1_result):
        assert fig1_result.period_mismatch_rel < 0.6

    def test_summary_mentions_periods(self, fig1_result):
        text = fig1_result.format_summary()
        assert "analytical period" in text
        assert "simulated period" in text

    def test_stage_count_recorded(self, fig1_result):
        assert fig1_result.stage_count == 5


class TestRunnerCli:
    def test_main_writes_report_file(self, tmp_path):
        output = tmp_path / "report.txt"
        exit_code = main(
            [
                "--technology",
                "cmos035",
                "--experiment",
                "STAGES",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        content = output.read_text()
        assert "STAGES" in content
        assert "cmos035" in content

    def test_main_prints_to_stdout(self, capsys):
        exit_code = main(["--experiment", "STAGES"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "STAGES - linearity vs number of stages" in captured.out

    def test_main_rejects_unknown_technology(self):
        from repro.tech import TechnologyError

        with pytest.raises(TechnologyError):
            main(["--technology", "cmos007", "--experiment", "STAGES"])

    def test_run_all_report_header(self):
        report = run_all(CMOS035, only=["STAGES", "EXT-SUPPLY"])
        assert report.startswith("Reproduction report")
        assert "EXT-SUPPLY" in report

    def test_main_list_prints_experiment_ids(self, capsys):
        from repro.experiments.runner import default_registry

        exit_code = main(["--list"])
        assert exit_code == 0
        listed = capsys.readouterr().out.split()
        assert listed == default_registry().names()

    def test_main_rejects_unknown_experiment_with_argparse_error(self, capsys):
        # An unknown id must die as a friendly argparse error (exit code
        # 2 with the available ids), not as a KeyError inside run_all.
        with pytest.raises(SystemExit) as excinfo:
            main(["--experiment", "FIG99"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "FIG99" in message
        assert "FIG2" in message  # the available ids are listed

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--tile-elements", "0"), ("--tile-elements", "-5")],
    )
    def test_bad_tiling_flag_is_a_usage_error(self, monkeypatch, capsys, flag, value):
        from repro.engine.executors import TILE_ELEMENTS_ENV, WORKERS_ENV
        from repro.experiments import runner

        # Whatever main sets in the environment is undone afterwards.
        monkeypatch.setenv(WORKERS_ENV, "1")
        monkeypatch.setenv(TILE_ELEMENTS_ENV, "64")
        monkeypatch.setattr(runner, "run_all", lambda *args, **kwargs: "not refused")
        with pytest.raises(SystemExit) as excinfo:
            main([flag, value, "--experiment", "FIG3"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("usage: ")
        assert f"error: argument {flag}: " in message

    def test_module_entry_point_runs_without_runtime_warning(self):
        # ``python -m repro.experiments.runner`` must not find the runner
        # already imported by the package __init__ (runpy then warns);
        # with warnings as errors that warning would be a crash.
        source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(source)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments.runner", "--list"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[:3] == ["FIG1", "FIG2", "FIG3"]

    def test_list_does_not_import_scipy_optimize(self):
        # Fig. 2's continuous optimum imports scipy.optimize (~0.5 s) when
        # it runs; listing the experiments must not pay for it.
        source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(source)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        probe = (
            "import sys; from repro.experiments.runner import main; "
            "code = main(['--list']); print(code, 'scipy.optimize' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_package_still_exports_runner_names(self):
        import repro.experiments as experiments

        assert experiments.run_all is run_all
        assert callable(experiments.default_registry)
        assert experiments.ExperimentRegistry.__name__ == "ExperimentRegistry"
        with pytest.raises(AttributeError):
            experiments.no_such_experiment
