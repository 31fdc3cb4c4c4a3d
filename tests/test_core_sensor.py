"""Unit tests for the complete smart temperature sensor."""

import numpy as np
import pytest

from repro.core import (
    ReadoutConfig,
    SmartTemperatureSensor,
    design_calibration,
    one_point_calibration,
)
from repro.oscillator import RingConfiguration
from repro.tech import CMOS035, TechnologyError


class TestConstruction:
    def test_from_configuration_builds_ring(self, smart_sensor):
        assert smart_sensor.ring.stage_count == 5
        assert smart_sensor.calibration is None

    def test_custom_library_respected(self, tech, library):
        sensor = SmartTemperatureSensor.from_configuration(
            tech, RingConfiguration.uniform("NAND2", 5), library=library, name="n2"
        )
        assert sensor.ring.label() == "5NAND2"


class TestMeasurement:
    def test_uncalibrated_reading_has_code_but_no_estimate(self, smart_sensor):
        reading = smart_sensor.measure(85.0)
        assert reading.code > 0
        assert reading.temperature_estimate_c is None
        assert reading.error_c is None

    def test_code_decreases_with_temperature(self, smart_sensor):
        cold = smart_sensor.measure(-40.0)
        hot = smart_sensor.measure(125.0)
        assert hot.code < cold.code

    def test_measured_period_close_to_true_period(self, smart_sensor):
        reading = smart_sensor.measure(25.0)
        assert reading.measured_period_s == pytest.approx(
            reading.oscillator_period_s, rel=1e-3
        )
        assert abs(reading.measured_period_s - reading.oscillator_period_s) < 1e-13

    def test_history_accumulates(self, smart_sensor):
        smart_sensor.measure(0.0)
        smart_sensor.measure(50.0)
        assert len(smart_sensor.history()) == 2

    def test_conversion_time_matches_readout(self, smart_sensor):
        reading = smart_sensor.measure(25.0)
        expected = smart_sensor.readout.window_cycles / smart_sensor.readout.reference_clock_hz
        assert reading.conversion_time_s >= expected

    def test_busy_flag_low_after_measurement(self, smart_sensor):
        smart_sensor.measure(25.0)
        assert not smart_sensor.busy
        assert not smart_sensor.controller.oscillator_enabled  # auto-disable default


class TestCalibrationAndAccuracy:
    def test_two_point_calibrated_error_subkelvin(self, smart_sensor, paper_temperatures):
        smart_sensor.calibrate_two_point(-50.0, 150.0)
        worst = smart_sensor.worst_case_error_c(paper_temperatures)
        assert worst < 1.0

    def test_calibrated_reading_reports_estimate(self, smart_sensor):
        smart_sensor.calibrate_two_point(-40.0, 125.0)
        reading = smart_sensor.measure(85.0)
        assert reading.temperature_estimate_c == pytest.approx(85.0, abs=1.0)

    def test_exact_at_calibration_points(self, smart_sensor):
        smart_sensor.calibrate_two_point(-40.0, 125.0)
        low = smart_sensor.measure(-40.0)
        high = smart_sensor.measure(125.0)
        assert low.temperature_estimate_c == pytest.approx(-40.0, abs=0.1)
        assert high.temperature_estimate_c == pytest.approx(125.0, abs=0.1)

    def test_one_point_calibration_against_design_curve(self, tech, paper_temperatures):
        design_sensor = SmartTemperatureSensor.from_configuration(
            tech, RingConfiguration.parse("2INV+3NAND2"), name="design"
        )
        design_transfer = design_sensor.transfer_function(paper_temperatures)
        sensor = SmartTemperatureSensor.from_configuration(
            tech, RingConfiguration.parse("2INV+3NAND2"), name="dut"
        )
        design = design_calibration(
            design_transfer.measured_periods_s, design_transfer.temperatures_c
        )
        sensor.install_calibration(
            one_point_calibration(
                sensor.measured_period(25.0), 25.0, design.slope_c_per_second
            )
        )
        # Same (typical) technology: one-point calibration must be nearly
        # as good as two-point here.
        assert sensor.worst_case_error_c(paper_temperatures) < 1.5

    def test_measurement_errors_require_calibration(self, smart_sensor):
        with pytest.raises(TechnologyError):
            smart_sensor.measurement_errors()

    def test_install_custom_calibration_validated(self, smart_sensor):
        with pytest.raises(TechnologyError):
            smart_sensor.install_calibration(object())


class TestSweepGridValidation:
    """transfer_function, measurement_errors and worst_case_error_c share
    one grid check: a TechnologyError naming ``temperatures_c``."""

    BAD_GRIDS = {
        "empty": [],
        "two-dimensional": [[-50.0, 25.0], [100.0, 150.0]],
        "scalar": 25.0,
        "nan": [-50.0, float("nan"), 150.0],
        "inf": [-50.0, float("inf")],
        "non-numeric": ["hot", "cold"],
    }

    @pytest.fixture()
    def calibrated(self, smart_sensor):
        smart_sensor.calibrate_two_point(-50.0, 150.0)
        return smart_sensor

    @pytest.mark.parametrize("grid", list(BAD_GRIDS.values()), ids=list(BAD_GRIDS))
    @pytest.mark.parametrize(
        "method", ["transfer_function", "measurement_errors", "worst_case_error_c"]
    )
    def test_bad_grid_raises_naming_the_argument(self, calibrated, method, grid):
        with pytest.raises(TechnologyError, match="temperatures_c"):
            getattr(calibrated, method)(grid)

    def test_default_and_valid_grids_still_evaluate(self, calibrated):
        assert calibrated.transfer_function().temperatures_c.size == 21
        assert calibrated.measurement_errors([25.0]).shape == (1,)
        assert calibrated.worst_case_error_c((-50.0, 150.0)) >= 0.0


class TestTransferFunction:
    def test_monotonic_and_code_span(self, smart_sensor, paper_temperatures):
        transfer = smart_sensor.transfer_function(paper_temperatures)
        assert transfer.is_monotonic()
        assert transfer.codes_per_kelvin() > 1.0

    def test_transfer_periods_match_ring(self, smart_sensor, paper_temperatures):
        transfer = smart_sensor.transfer_function(paper_temperatures)
        expected = smart_sensor.ring.period(25.0)
        measured = transfer.measured_periods_s[list(paper_temperatures).index(25.0)]
        assert measured == pytest.approx(expected, rel=1e-3)


class TestPower:
    def test_measurement_power_positive(self, smart_sensor):
        assert smart_sensor.measurement_power_w(85.0) > 0.0

    def test_average_power_scales_with_rate(self, smart_sensor):
        slow = smart_sensor.average_power_w(85.0, measurement_rate_hz=10.0)
        fast = smart_sensor.average_power_w(85.0, measurement_rate_hz=1000.0)
        assert fast > slow

    def test_average_power_bounded_by_free_running(self, smart_sensor):
        free_running = smart_sensor.measurement_power_w(85.0)
        duty_cycled = smart_sensor.average_power_w(85.0, measurement_rate_hz=100.0)
        assert duty_cycled < free_running

    def test_average_power_uses_the_measured_conversion_time(self, smart_sensor):
        # The duty cycle comes from the controller FSM's conversion time,
        # the one every reading reports.
        reading = smart_sensor.measure(85.0)
        rate = 1000.0
        assert smart_sensor.average_power_w(85.0, rate) == pytest.approx(
            rate * reading.conversion_time_s * smart_sensor.measurement_power_w(85.0)
        )

    def test_negative_rate_rejected(self, smart_sensor):
        with pytest.raises(TechnologyError):
            smart_sensor.average_power_w(85.0, measurement_rate_hz=-1.0)
