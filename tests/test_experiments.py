"""Unit tests for the experiment entry points (structure, not paper claims).

These verify that each experiment runs, returns a well-formed result and
renders a report; the *paper claims* the experiments quantify are
asserted separately in test_integration_paper_claims.py.
"""

import numpy as np
import pytest

from repro.experiments import (
    default_registry,
    run_all,
    run_baseline_comparison,
    run_calibration_study,
    run_fig2,
    run_fig3,
    run_selfheating_study,
    run_smart_unit,
    run_stage_count,
)
from repro.tech import CMOS035

TEMPS = [-50.0, 0.0, 50.0, 100.0, 150.0]


class TestFig2Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2(CMOS035, temperatures_c=TEMPS)

    def test_all_ratios_have_curves(self, result):
        curves = {p.width_ratio: p.linearity.error_percent for p in result.sweep.points}
        assert set(curves) == {1.75, 2.25, 3.0, 4.0}
        for errors in curves.values():
            assert errors.shape == (5,)

    def test_table_contains_every_ratio(self, result):
        table = result.format_table()
        for ratio in (1.75, 2.25, 3.0, 4.0):
            assert f"{ratio:5.2f}" in table

    def test_best_ratio_reported(self, result):
        assert result.best_ratio() in (1.75, 2.25, 3.0, 4.0)
        assert result.sweep.best().max_abs_error_percent >= 0.0


class TestFig3Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(CMOS035, temperatures_c=TEMPS, run_search=False)

    def test_paper_configurations_evaluated(self, result):
        assert set(result.candidates) == {
            "5INV",
            "3INV+2NAND3",
            "3NAND3+2NOR2",
            "2INV+3NAND2",
            "5NAND2",
            "2INV+3NOR2",
        }

    def test_inverter_reference_found(self, result):
        assert result.inverter_reference().label == "5INV"

    def test_table_lists_every_configuration(self, result):
        table = result.format_table()
        for label in result.candidates:
            assert label in table

    def test_best_configuration_consistent(self, result):
        best = result.best_paper_configuration()
        assert best.max_abs_error_percent == min(
            c.max_abs_error_percent for c in result.candidates.values()
        )


class TestStageCountExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_stage_count(CMOS035, temperatures_c=TEMPS)

    def test_paper_stage_counts(self, result):
        assert [p.stage_count for p in result.points] == [5, 9, 21]

    def test_periods_scale_with_stage_count(self, result):
        assert result.period_scaling_error() < 0.05

    def test_table_renders(self, result):
        assert "stages" in result.format_table()


class TestSmartUnitExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_smart_unit(CMOS035, temperatures_c=TEMPS, sensor_grid=2)

    def test_transfer_monotonic(self, result):
        assert result.transfer.is_monotonic()

    def test_power_saving_reported(self, result):
        assert result.power_saving_factor() > 10.0

    def test_summary_contains_key_lines(self, result):
        text = result.format_summary()
        assert "conversion time" in text
        assert "worst calibrated error" in text

    def test_duty_cycle_uses_the_reported_conversion_time(self, result):
        assert result.duty_cycle_at_1khz == pytest.approx(1e3 * result.conversion_time_s)

    def test_mapping_sensor_count(self, result):
        assert result.sensor_count == 4
        assert len(result.mapping_report.site_estimates_c) == 4


class TestBaselineAndAblationExperiments:
    def test_baseline_comparison_rows(self):
        result = run_baseline_comparison(CMOS035, temperatures_c=TEMPS)
        names = [entry.name for entry in result.entries]
        assert "proposed cell-mix ring" in names
        assert "diode delta-VBE sensor" in names
        assert "FPGA-style ring [5]" in names
        assert "inverter-only ring" in names
        assert "worst err" in result.format_table()

    def test_selfheating_study_monotone_in_duty(self):
        result = run_selfheating_study(
            CMOS035, duty_cycles=(1.0, 0.1, 0.01), grid_resolution=12
        )
        rises = [r.temperature_rise_c for r in result.reports]
        assert rises == sorted(rises, reverse=True)
        assert result.improvement_factor() > 10.0

    def test_calibration_study_scheme_ordering(self):
        result = run_calibration_study(
            CMOS035, monte_carlo_samples=4, temperatures_c=TEMPS, seed=5
        )
        assert result.worst_by_scheme["two-point"] < result.worst_by_scheme["one-point"]
        assert result.worst_by_scheme["one-point"] < result.worst_by_scheme["design"]
        assert "two-point" in result.format_table()


class TestRunner:
    def test_registry_contains_all_experiments(self):
        registry = default_registry()
        assert set(registry.names()) == {
            "FIG1",
            "FIG2",
            "FIG3",
            "STAGES",
            "SMART",
            "BASE",
            "ABL-SELFHEAT",
            "ABL-CAL",
            "EXT-SUPPLY",
            "EXT-SCALING",
            "EXT-DTM",
            "EXT-DTMSWEEP",
            "EXT-THERMALMAP",
            "EXT-THERMALRES",
            "EXT-PLACEMENT",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            default_registry().run("FIG9", CMOS035)

    def test_run_all_selected_subset(self):
        report = run_all(CMOS035, only=["STAGES"])
        assert "STAGES" in report
        assert "FIG2" not in report.split("=" * 78)[-1]
