"""Unit tests for temperature-response containers and sweeps."""

import numpy as np
import pytest

from oracles import period_series_scalar
from repro.analysis import sensitivity_report
from repro.oscillator import (
    TemperatureResponse,
    analytical_response,
    default_temperature_grid,
    paper_temperature_grid,
    validate_temperature_grid,
)
from repro.tech import TechnologyError


class TestGrids:
    def test_default_grid_covers_paper_range(self):
        grid = default_temperature_grid()
        assert grid[0] == pytest.approx(-50.0)
        assert grid[-1] == pytest.approx(150.0)

    def test_paper_grid_nine_points(self):
        grid = paper_temperature_grid()
        assert grid.size == 9
        assert grid[0] == -50.0 and grid[-1] == 150.0

    def test_invalid_grid_parameters(self):
        with pytest.raises(TechnologyError):
            default_temperature_grid(points=1)
        with pytest.raises(TechnologyError):
            default_temperature_grid(t_min_c=100.0, t_max_c=0.0)


class TestTemperatureResponse:
    def make(self, periods=None):
        temps = np.array([-50.0, 0.0, 50.0, 100.0, 150.0])
        if periods is None:
            periods = 200e-12 + (temps + 50.0) * 0.5e-12
        return TemperatureResponse("test", temps, np.asarray(periods))

    def test_validation_rejects_mismatched_arrays(self):
        with pytest.raises(TechnologyError):
            TemperatureResponse("bad", np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))

    def test_validation_rejects_nonmonotonic_temperatures(self):
        with pytest.raises(TechnologyError):
            TemperatureResponse(
                "bad", np.array([0.0, 2.0, 1.0]), np.array([1e-12, 2e-12, 3e-12])
            )

    def test_validation_rejects_nonpositive_periods(self):
        with pytest.raises(TechnologyError):
            TemperatureResponse(
                "bad", np.array([0.0, 1.0, 2.0]), np.array([1e-12, 0.0, 3e-12])
            )

    def test_span_and_sensitivity(self):
        response = self.make()
        assert response.span_s() == pytest.approx(100e-12)
        assert response.mean_sensitivity() == pytest.approx(0.5e-12)

    def test_relative_sensitivity_size_independent(self):
        response = self.make()
        doubled = TemperatureResponse(
            "double", response.temperatures_c, 2.0 * response.periods_s
        )
        assert sensitivity_report(doubled).relative_sensitivity_per_k == pytest.approx(
            sensitivity_report(response).relative_sensitivity_per_k, rel=1e-9
        )

    def test_monotonicity_check(self):
        assert self.make().is_monotonic()
        wiggly = self.make(periods=[200e-12, 210e-12, 205e-12, 230e-12, 250e-12])
        assert not wiggly.is_monotonic()

    def test_period_at_interpolates_and_validates(self):
        response = self.make()
        assert response.period_at(25.0) == pytest.approx(237.5e-12)
        with pytest.raises(TechnologyError):
            response.period_at(200.0)

    def test_frequencies_are_reciprocal(self):
        response = self.make()
        assert response.frequencies_hz[0] == pytest.approx(1.0 / response.periods_s[0])


class TestValidateTemperatureGrid:
    def test_sorts_unordered_grids(self):
        grid = validate_temperature_grid([50.0, -50.0, 150.0])
        assert np.array_equal(grid, [-50.0, 50.0, 150.0])

    def test_error_messages_name_the_context(self):
        with pytest.raises(TechnologyError, match="simulated sweep"):
            validate_temperature_grid([0.0, 1.0], context="simulated sweep")

    def test_duplicates_are_rejected_not_deduplicated(self):
        """A duplicated point used to be silently collapsed (shrinking
        the grid below what the caller asked for) or to surface as a
        late 'strictly increasing' failure; it must fail fast instead."""
        with pytest.raises(TechnologyError, match=r"duplicate temperatures \[25\.0\]"):
            validate_temperature_grid([0.0, 25.0, 25.0, 100.0])

    def test_rejects_multidimensional_input(self):
        with pytest.raises(TechnologyError, match="one-dimensional"):
            validate_temperature_grid(np.zeros((2, 3)))


class TestSimulatedResponseValidation:
    def test_bad_grids_fail_before_any_simulation(self, inverter_ring):
        from oracles import simulated_response

        with pytest.raises(TechnologyError, match="at least three"):
            simulated_response(inverter_ring, [0.0, 100.0])
        with pytest.raises(TechnologyError, match="duplicate temperatures"):
            simulated_response(inverter_ring, [0.0, 50.0, 50.0])


class TestAnalyticalResponse:
    def test_uses_default_grid(self, inverter_ring):
        response = analytical_response(inverter_ring)
        assert response.temperatures_c.size == 41
        assert response.label == "5INV"

    def test_scalar_flag_uses_reference_path(self, inverter_ring, paper_temperatures):
        scalar = period_series_scalar(inverter_ring, paper_temperatures)
        vectorized = analytical_response(inverter_ring, paper_temperatures)
        assert np.allclose(scalar, vectorized.periods_s, rtol=1e-9)

    def test_matches_ring_period(self, inverter_ring, paper_temperatures):
        response = analytical_response(inverter_ring, paper_temperatures)
        assert response.period_at(25.0) == pytest.approx(inverter_ring.period(25.0), rel=1e-9)

    def test_monotonic_over_paper_range(self, inverter_response, mixed_response):
        assert inverter_response.is_monotonic()
        assert mixed_response.is_monotonic()
