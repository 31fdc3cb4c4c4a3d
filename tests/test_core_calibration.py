"""Unit tests for the calibration schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import one_point_calibration_scalar, two_point_calibration_scalar
from repro.core import (
    CalibrationError,
    LinearCalibration,
    design_calibration,
    one_point_calibration,
    two_point_calibration,
)


class TestLinearCalibration:
    def test_round_trip(self):
        calibration = LinearCalibration(slope_c_per_second=1e12, offset_c=-250.0)
        period = 300e-12
        temp = calibration.temperature(period)
        assert calibration.period(temp) == pytest.approx(period)

    def test_zero_slope_rejected(self):
        with pytest.raises(CalibrationError):
            LinearCalibration(slope_c_per_second=0.0, offset_c=0.0)

    def test_nonpositive_period_rejected(self):
        calibration = LinearCalibration(slope_c_per_second=1e12, offset_c=0.0)
        with pytest.raises(CalibrationError):
            calibration.temperature(0.0)


class TestTwoPoint:
    def test_exact_at_calibration_points(self):
        calibration = two_point_calibration([200e-12, 400e-12], [-40.0, 125.0])
        assert calibration.temperature(200e-12) == pytest.approx(-40.0)
        assert calibration.temperature(400e-12) == pytest.approx(125.0)

    def test_interpolates_linearly(self):
        calibration = two_point_calibration([200e-12, 400e-12], [0.0, 100.0])
        assert calibration.temperature(300e-12) == pytest.approx(50.0)

    def test_requires_exactly_two_points(self):
        with pytest.raises(CalibrationError):
            two_point_calibration([1e-12], [0.0])

    def test_requires_distinct_points(self):
        with pytest.raises(CalibrationError):
            two_point_calibration([1e-12, 1e-12], [0.0, 100.0])
        with pytest.raises(CalibrationError):
            two_point_calibration([1e-12, 2e-12], [25.0, 25.0])


class TestOnePoint:
    def test_anchors_offset_at_reference(self):
        calibration = one_point_calibration(300e-12, 25.0, design_slope_c_per_second=1e12)
        assert calibration.temperature(300e-12) == pytest.approx(25.0)
        assert calibration.kind == "one-point"

    def test_requires_nonzero_slope(self):
        with pytest.raises(CalibrationError):
            one_point_calibration(300e-12, 25.0, 0.0)

    def test_requires_positive_period(self):
        with pytest.raises(CalibrationError):
            one_point_calibration(0.0, 25.0, 1e12)


# Periods drawn from a two-value pool as well as a range, so that rows
# with equal endpoint periods come up often.
endpoint_periods = st.one_of(
    st.sampled_from([200e-12, 300e-12]),
    st.floats(min_value=50e-12, max_value=2e-9),
)


class TestBroadcast:
    @given(
        rows=st.lists(
            st.tuples(endpoint_periods, endpoint_periods), min_size=1, max_size=6
        ),
        temps=st.tuples(
            st.floats(min_value=-60.0, max_value=20.0),
            st.floats(min_value=25.0, max_value=160.0),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_point_rows_match_scalar_oracle(self, rows, temps):
        periods = np.asarray(rows)  # (S, 2)
        if any(low == high for low, high in rows):
            with pytest.raises(CalibrationError, match="periods must differ"):
                two_point_calibration(periods, temps)
            return
        calibration = two_point_calibration(periods, temps)
        assert calibration.slope_c_per_second.shape == (len(rows),)
        for row, endpoints in enumerate(rows):
            oracle = two_point_calibration_scalar(endpoints, temps)
            assert calibration.slope_c_per_second[row] == oracle.slope_c_per_second
            assert calibration.offset_c[row] == oracle.offset_c

    def test_one_point_rows_match_scalar_oracle(self):
        periods = np.asarray([[250e-12], [300e-12], [320e-12]])
        calibration = one_point_calibration(periods, 25.0, 0.8e12)
        assert calibration.offset_c.shape == (3, 1)
        for row, period in enumerate(periods[:, 0]):
            oracle = one_point_calibration_scalar(period, 25.0, 0.8e12)
            assert calibration.offset_c[row, 0] == oracle.offset_c
        with pytest.raises(CalibrationError):
            one_point_calibration(np.asarray([250e-12, 0.0]), 25.0, 0.8e12)


class TestDesignCalibration:
    def test_fits_least_squares_line(self):
        temps = np.linspace(-50.0, 150.0, 11)
        periods = 200e-12 + 1e-12 * (temps + 50.0)
        calibration = design_calibration(periods, temps)
        assert calibration.slope_c_per_second == pytest.approx(1e12, rel=1e-6)
        assert calibration.temperature(250e-12) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(CalibrationError):
            design_calibration([1e-12], [25.0])
        with pytest.raises(CalibrationError):
            design_calibration([1e-12, 1e-12], [0.0, 50.0])
