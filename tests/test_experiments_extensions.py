"""Tests for the extension experiments (EXT-SUPPLY, EXT-SCALING, EXT-DTM)."""

import numpy as np
import pytest

from oracles import scaling_node_matrices_loop
from repro.experiments import (
    default_registry,
    run_dtm_study,
    run_scaling_study,
    run_supply_sensitivity,
    run_thermal_map_study,
    scaling_study,
)
from repro.tech import CMOS013, CMOS035


class TestSupplySensitivityExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_supply_sensitivity(CMOS035)

    def test_all_fig3_configurations_covered(self, result):
        assert len(result.reports) == 6
        assert "5INV" in result.reports

    def test_sensitivities_in_expected_range(self, result):
        for report in result.reports.values():
            assert 0.01 < report.kelvin_per_millivolt < 0.5

    def test_table_lists_budget(self, result):
        assert "allowed supply error" in result.format_table()


class TestScalingStudyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scaling_study(temperatures_c=np.linspace(-50.0, 150.0, 9))

    def test_four_nodes_evaluated(self, result):
        assert [p.technology_name for p in result.points] == [
            "cmos035",
            "cmos025",
            "cmos018",
            "cmos013",
        ]

    def test_rings_get_faster_as_technology_scales(self, result):
        periods = [p.period_at_25c_s for p in result.points]
        assert periods == sorted(periods, reverse=True)

    def test_sensitivity_retained_across_nodes(self, result):
        assert result.sensitivity_retained() > 0.5

    def test_linearity_degrades_at_low_supply(self, result):
        # Lower supply means the threshold-voltage term dominates more,
        # so the mix optimised at 3.3 V becomes less linear: the known
        # reason ring sensors need per-node re-optimisation.
        nonlinearities = [p.max_nonlinearity_percent for p in result.points]
        assert nonlinearities[-1] > nonlinearities[0]

    def test_reoptimization_improves_every_node(self):
        result = run_scaling_study(
            temperatures_c=np.linspace(-50.0, 150.0, 9), reoptimize=True
        )
        for point in result.points:
            assert point.reoptimized_label is not None
            assert point.reoptimized_nonlinearity_percent <= point.max_nonlinearity_percent + 1e-9

    def test_power_density_trend_positive(self, result):
        assert result.power_density_trend > 1.0

    def test_technology_axis_matches_per_node_loop(self, result, monkeypatch):
        # The study's node loop is declared through the engine's
        # ``technology`` axis; the hand-written per-node loop is its
        # oracle, and every reported figure must agree bitwise.
        monkeypatch.setattr(
            scaling_study, "_node_matrices", scaling_node_matrices_loop
        )
        oracle = run_scaling_study(temperatures_c=np.linspace(-50.0, 150.0, 9))
        assert oracle.points == result.points
        assert oracle.format_table() == result.format_table()


class TestDtmExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dtm_study(
            CMOS035,
            duration_s=0.8,
            control_interval_s=0.04,
            grid_resolution=12,
            sensor_grid=2,
        )

    def test_unmanaged_die_overheats(self, result):
        assert result.unmanaged.peak_temperature_c() > result.limit_c
        assert result.unmanaged.time_above_limit_s() > 0.0

    def test_managed_die_stays_near_limit(self, result):
        assert result.managed.peak_temperature_c() < result.unmanaged.peak_temperature_c()
        assert result.keeps_die_below_limit(tolerance_c=5.0)

    def test_throttling_costs_some_performance(self, result):
        assert 0.0 < result.performance_cost() < 1.0

    def test_summary_renders(self, result):
        text = result.format_summary()
        assert "unmanaged peak" in text
        assert "average performance" in text


class TestThermalMapExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_thermal_map_study(
            CMOS035,
            sensor_grids=(1, 2, 3),
            sample_count=20,
            grid_resolution=16,
            seed=2005,
        )

    def test_every_density_evaluated(self, result):
        assert [p.site_count for p in result.points] == [1, 4, 9]
        assert result.sample_count == 20

    def test_denser_grids_reconstruct_better(self, result):
        rms = [p.mean_map_rms_error_c for p in result.points]
        assert rms == sorted(rms, reverse=True)
        assert result.points[-1].mean_abs_hotspot_error_c < result.points[0].mean_abs_hotspot_error_c

    def test_site_errors_stay_small_across_population(self, result):
        # The per-site error is calibration + quantisation, independent
        # of the grid density; the map error is dominated by sparsity.
        for point in result.points:
            assert point.worst_site_error_c < 2.0
            assert point.worst_site_error_c < point.max_map_rms_error_c + 2.0

    def test_scan_time_scales_with_site_count(self, result):
        times = {p.site_count: p.scan_time_s for p in result.points}
        assert times[4] == pytest.approx(4 * times[1])
        assert times[9] == pytest.approx(9 * times[1])

    def test_best_density_selector(self, result):
        generous = result.best_density_under(1000.0)
        assert generous is not None and generous.site_count == 1
        assert result.best_density_under(0.0) is None

    def test_table_renders(self, result):
        text = result.format_table()
        assert "EXT-THERMALMAP" in text
        assert "Monte-Carlo" in text


class TestRegistryIncludesExtensions:
    def test_extension_ids_registered(self):
        names = set(default_registry().names())
        assert {"EXT-SUPPLY", "EXT-SCALING", "EXT-DTM", "EXT-THERMALMAP"} <= names
