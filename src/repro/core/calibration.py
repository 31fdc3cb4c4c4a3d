"""Calibration of the measured-period-to-temperature transfer function.

The smart unit's counter produces a code that is inversely proportional
to the oscillation period (cycles counted in a fixed window).  The
digital processing block therefore first converts the code back into a
*period estimate* (one fixed-point division by the known window) and
then applies a calibration that maps period to temperature.  Working in
the period domain is what makes the paper's linearity results usable: the
period — not its reciprocal — is the quantity that is linear in
temperature.

Three calibration schemes are modelled, in increasing per-die cost:

``design`` (zero-point)
    Use the transfer function predicted at design time (typical
    process).  Free, but the full process spread lands in the error.

``one-point``
    Measure the period at one known temperature, keep the design-time
    slope.  Removes the offset component of process variation.

``two-point``
    Measure at two known temperatures and fit the line through them.
    Removes offset and slope errors; what remains is the sensor's
    intrinsic non-linearity — the quantity the paper's Fig. 2 / Fig. 3
    minimise — plus readout quantisation.

Each scheme builds a :class:`LinearCalibration`, the one calibration
type: a linear map is what the paper's linearised ring makes
sufficient, so there is no polynomial readout.  A one-point calibration
takes its slope from :func:`design_calibration` of the typical-process
transfer curve and anchors it with :func:`one_point_calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..fields import ReproInputError, real_array

__all__ = [
    "CalibrationError",
    "LinearCalibration",
    "two_point_calibration",
    "one_point_calibration",
    "design_calibration",
]


class CalibrationError(ReproInputError):
    """Raised when a calibration cannot be constructed or applied."""


@dataclass(frozen=True)
class LinearCalibration:
    """A linear period-to-temperature map ``T = slope * period + offset``.

    ``slope_c_per_second`` is the inverse of the sensor's sensitivity
    (kelvin per second of period change); for the default 5-stage rings
    it is of the order of 1e12 C/s because the period moves by roughly a
    picosecond per kelvin.

    Slope and offset are floats for one sensor, or ndarrays that
    broadcast against the measured periods for many: a ``(samples,)``
    row calibrates every Monte-Carlo sample of a ``(site, sample)``
    scan at once.
    """

    slope_c_per_second: Union[float, np.ndarray]
    offset_c: Union[float, np.ndarray]
    kind: str = "two-point"

    def __post_init__(self) -> None:
        for name in ("slope_c_per_second", "offset_c"):
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, float(value) if value.ndim == 0 else value)
        if np.any(self.slope_c_per_second == 0.0):
            raise CalibrationError("calibration slope must be non-zero")

    def temperature(
        self, period_s: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """Convert measured periods (seconds) to temperature estimates.

        Broadcasts elementwise; returns a float when both the
        calibration and the input are scalar.
        """
        periods = real_array(period_s, "period_s", CalibrationError, above=0.0)
        estimates = self.slope_c_per_second * periods + self.offset_c
        if np.ndim(estimates) == 0:
            return float(estimates)
        return estimates

    def period(
        self, temperature_c: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """Inverse map: the period expected at a temperature.

        Like :meth:`temperature`, broadcasts elementwise and returns a
        float when everything is scalar.
        """
        temps = np.asarray(temperature_c, dtype=float)
        periods = (temps - self.offset_c) / self.slope_c_per_second
        if np.ndim(periods) == 0:
            return float(periods)
        return periods


def two_point_calibration(
    periods_s: Sequence[float],
    temperatures_c: Sequence[float],
) -> LinearCalibration:
    """Fit the line through two (period, temperature) calibration points.

    ``periods_s`` holds the two insertion periods on its last axis and
    may carry leading axes, e.g. ``(samples, 2)`` for one line per
    Monte-Carlo sample; the slope and offset then have the leading
    shape.
    """
    periods = real_array(periods_s, "periods_s", CalibrationError, above=0.0)
    temps = real_array(temperatures_c, "temperatures_c", CalibrationError)
    if periods.ndim == 0 or periods.shape[-1] != 2 or temps.shape != (2,):
        raise CalibrationError("two-point calibration needs exactly two points")
    period_low, period_high = periods[..., 0], periods[..., 1]
    temp_low, temp_high = temps[0], temps[1]
    if temp_low == temp_high:
        raise CalibrationError("calibration temperatures must differ")
    if np.any(period_low == period_high):
        raise CalibrationError("calibration periods must differ")
    slope = (temp_high - temp_low) / (period_high - period_low)
    offset = temp_low - slope * period_low
    return LinearCalibration(slope_c_per_second=slope, offset_c=offset, kind="two-point")


def one_point_calibration(
    period_s: Union[float, np.ndarray],
    temperature_c: float,
    design_slope_c_per_second: float,
) -> LinearCalibration:
    """Anchor the design-time slope at one measured point.

    ``period_s`` may be an array (one insertion period per sample); the
    offset then has its shape.
    """
    if design_slope_c_per_second == 0.0:
        raise CalibrationError("design slope must be non-zero")
    periods = real_array(period_s, "period_s", CalibrationError, above=0.0)
    offset = temperature_c - design_slope_c_per_second * periods
    return LinearCalibration(
        slope_c_per_second=design_slope_c_per_second, offset_c=offset, kind="one-point"
    )


def design_calibration(
    periods_s: Sequence[float],
    temperatures_c: Sequence[float],
) -> LinearCalibration:
    """Least-squares line over a design-time (typical-process) transfer function.

    This is the "calibration" a part would ship with if no per-die
    trimming were performed at all.
    """
    periods_arr = np.asarray(periods_s, dtype=float)
    temps_arr = np.asarray(temperatures_c, dtype=float)
    if periods_arr.size < 2 or periods_arr.size != temps_arr.size:
        raise CalibrationError("design calibration needs matching period/temperature arrays")
    if np.any(periods_arr <= 0.0):
        raise CalibrationError("design periods must be positive")
    if np.all(periods_arr == periods_arr[0]):
        raise CalibrationError("periods do not vary over the design transfer function")
    slope, offset = np.polyfit(periods_arr, temps_arr, deg=1)
    return LinearCalibration(
        slope_c_per_second=float(slope), offset_c=float(offset), kind="design"
    )
