"""Unit tests for the non-linearity metric (the paper's figure of merit)."""

import numpy as np
import pytest

from repro.analysis import fit_line, nonlinearity
from repro.oscillator import TemperatureResponse
from repro.tech import TechnologyError


def linear_response(slope=1e-12, offset=200e-12):
    temps = np.linspace(-50.0, 150.0, 21)
    return TemperatureResponse("linear", temps, offset + slope * (temps + 50.0))


def rms_error_percent(result):
    return float(np.sqrt(np.mean(result.error_percent ** 2)))


def curved_response(curvature=1e-15):
    temps = np.linspace(-50.0, 150.0, 21)
    periods = 200e-12 + 1e-12 * (temps + 50.0) + curvature * (temps + 50.0) ** 2
    return TemperatureResponse("curved", temps, periods)


class TestFitLine:
    def test_endpoint_fit_passes_through_endpoints(self):
        response = curved_response()
        fit = fit_line(response, "endpoint")
        assert fit.evaluate(response.temperatures_c[:1])[0] == pytest.approx(
            response.periods_s[0]
        )
        assert fit.evaluate(response.temperatures_c[-1:])[0] == pytest.approx(
            response.periods_s[-1]
        )

    def test_best_fit_minimises_rms(self):
        response = curved_response()
        endpoint = rms_error_percent(nonlinearity(response, "endpoint"))
        best = rms_error_percent(nonlinearity(response, "best_fit"))
        assert best <= endpoint

    def test_unknown_method_rejected(self):
        with pytest.raises(TechnologyError):
            fit_line(linear_response(), "spline")

    def test_slope_recovered_for_linear_data(self):
        fit = fit_line(linear_response(slope=2e-12), "best_fit")
        assert fit.slope == pytest.approx(2e-12, rel=1e-9)


class TestNonlinearity:
    def test_zero_for_perfectly_linear_response(self):
        result = nonlinearity(linear_response())
        assert result.max_abs_error_percent < 1e-9

    def test_positive_for_curved_response(self):
        result = nonlinearity(curved_response())
        assert result.max_abs_error_percent > 0.1

    def test_error_normalised_to_full_scale(self):
        # Doubling every period doubles both residual and span, leaving
        # the percentage error unchanged.
        base = curved_response()
        scaled = TemperatureResponse("scaled", base.temperatures_c, 2.0 * base.periods_s)
        assert nonlinearity(scaled).max_abs_error_percent == pytest.approx(
            nonlinearity(base).max_abs_error_percent, rel=1e-9
        )

    def test_endpoint_errors_are_zero_at_range_ends(self):
        result = nonlinearity(curved_response(), "endpoint")
        assert result.error_percent[0] == pytest.approx(0.0, abs=1e-12)
        assert result.error_percent[-1] == pytest.approx(0.0, abs=1e-12)

    def test_error_at_interpolates(self):
        result = nonlinearity(curved_response())
        mid = result.error_at(50.0)
        assert result.error_percent.min() <= mid <= result.error_percent.max()

    def test_flat_response_rejected(self):
        temps = np.linspace(-50.0, 150.0, 11)
        flat = TemperatureResponse("flat", temps, np.full(11, 1e-10))
        with pytest.raises(TechnologyError):
            nonlinearity(flat)

    def test_rms_not_larger_than_max(self):
        result = nonlinearity(curved_response())
        assert rms_error_percent(result) <= result.max_abs_error_percent


class TestTemperatureError:
    def test_zero_for_linear_response(self):
        errors = nonlinearity(linear_response()).equivalent_temperature_error_c()
        assert np.max(np.abs(errors)) < 1e-6

    def test_magnitude_consistent_with_percent_error(self):
        response = curved_response()
        result = nonlinearity(response)
        # x % of full scale over a 200 K range corresponds to about 2x kelvin.
        expected = result.max_abs_error_percent / 100.0 * 200.0
        assert result.max_abs_temperature_error_c == pytest.approx(expected, rel=0.2)

    def test_paper_rings_have_subkelvin_equivalent_error(self, mixed_response):
        result = nonlinearity(mixed_response)
        assert result.max_abs_temperature_error_c < 1.0
