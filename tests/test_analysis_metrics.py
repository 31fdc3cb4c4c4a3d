"""Unit tests for sensitivity, resolution, statistics and Monte-Carlo analysis."""

import numpy as np
import pytest

from repro.analysis import (
    resolution_report,
    run_monte_carlo,
    sensitivity_report,
    summarize,
)
from repro.oscillator import RingConfiguration, TemperatureResponse
from repro.tech import CMOS035, TechnologyError, VariationModel


class TestSensitivityReport:
    def test_linear_response_has_unity_spread(self):
        temps = np.linspace(-50.0, 150.0, 21)
        response = TemperatureResponse("lin", temps, 200e-12 + 1e-12 * (temps + 50.0))
        report = sensitivity_report(response)
        assert report.mean_sensitivity_s_per_k == pytest.approx(1e-12, rel=1e-9)
        spread = report.max_local_sensitivity_s_per_k / report.min_local_sensitivity_s_per_k
        assert spread == pytest.approx(1.0, rel=1e-6)

    def test_ring_sensitivity_positive_and_ppm_negative(self, inverter_response):
        report = sensitivity_report(inverter_response)
        assert report.mean_sensitivity_s_per_k > 0.0
        # Frequency falls with temperature, so the ppm/K figure is negative.
        assert report.frequency_sensitivity_ppm_per_k < 0.0

    def test_relative_sensitivity_order_of_magnitude(self, inverter_response):
        report = sensitivity_report(inverter_response)
        # Gate delay tempco at 3.3 V is a fraction of a percent per kelvin.
        assert 1e-3 < report.relative_sensitivity_per_k < 1e-2


class TestResolutionReport:
    def test_resolution_improves_with_longer_window(self, inverter_response):
        short = resolution_report(inverter_response, window_s=1e-6)
        long = resolution_report(inverter_response, window_s=10e-6)
        assert long.temperature_resolution_c < short.temperature_resolution_c

    def test_counts_decrease_with_temperature(self, inverter_response):
        report = resolution_report(inverter_response, window_s=5e-6)
        assert report.count_max > report.count_min

    def test_bits_required_consistent(self, inverter_response):
        report = resolution_report(inverter_response, window_s=5e-6)
        assert 2 ** report.bits_required > report.count_max

    def test_invalid_window_rejected(self, inverter_response):
        with pytest.raises(TechnologyError):
            resolution_report(inverter_response, window_s=0.0)


class TestSummaryStatistics:
    def test_basic_summary(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert stats.minimum <= stats.p05 <= stats.p50 <= stats.p95 <= stats.maximum

    def test_empty_sample_rejected(self):
        with pytest.raises(TechnologyError):
            summarize([])

    def test_nan_rejected(self):
        with pytest.raises(TechnologyError):
            summarize([1.0, float("nan")])

    def test_describe_contains_mean(self):
        assert "mean=" in summarize([1.0, 2.0]).describe("ps")


class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def study(self):
        return run_monte_carlo(
            CMOS035,
            RingConfiguration.parse("2INV+3NAND2"),
            sample_count=8,
            temperatures_c=np.linspace(-50.0, 150.0, 9),
            seed=99,
        )

    def test_sample_count_respected(self, study):
        assert study.sample_count == 8
        assert len(study.responses) == 8

    def test_absolute_period_spreads_more_than_linearity(self, study):
        # The paper's argument: process moves the absolute frequency a lot
        # but the linearity very little.
        period_spread_rel = study.period_at_reference.std / study.period_at_reference.mean
        nl_mean = study.nonlinearity_percent.mean
        assert period_spread_rel > 0.01
        assert nl_mean < 1.0

    def test_every_sample_remains_monotonic(self, study):
        for response in study.responses:
            assert response.is_monotonic()

    def test_seed_reproducibility(self):
        kwargs = dict(
            configuration=RingConfiguration.uniform("INV", 5),
            sample_count=4,
            temperatures_c=np.linspace(-50.0, 150.0, 5),
            seed=7,
        )
        first = run_monte_carlo(CMOS035, **kwargs)
        second = run_monte_carlo(CMOS035, **kwargs)
        assert first.period_at_reference.mean == pytest.approx(
            second.period_at_reference.mean
        )

    def test_invalid_sample_count_rejected(self):
        with pytest.raises(TechnologyError):
            run_monte_carlo(CMOS035, RingConfiguration.uniform("INV", 5), sample_count=1)

    def test_reference_temperature_must_be_inside_range(self):
        with pytest.raises(TechnologyError):
            run_monte_carlo(
                CMOS035,
                RingConfiguration.uniform("INV", 5),
                sample_count=3,
                temperatures_c=[0.0, 50.0, 100.0],
                reference_temperature_c=-40.0,
            )
