"""Non-linearity analysis of a sensor characteristic.

The paper's Fig. 2 and Fig. 3 plot the *non-linearity error* of the ring
oscillator's period-versus-temperature characteristic: the deviation of
the measured curve from a straight line, expressed as a percentage of
the full-scale span.  Two line-fit conventions are supported, both in
common use for sensor linearity:

``"endpoint"``
    The straight line through the first and last points of the range.
    Simple and what a two-point-calibrated sensor actually realises.

``"best_fit"``
    The least-squares line over all points; always gives the smaller
    (and more flattering) error figure.

Besides the percentage error curve (the quantity plotted by the paper),
the residuals can be converted into an equivalent temperature error in
kelvin by dividing by the fitted slope — the number a user of the sensor
ultimately cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..oscillator.period import TemperatureResponse
from ..tech.parameters import TechnologyError

__all__ = [
    "LinearFit",
    "NonlinearityResult",
    "fit_line",
    "nonlinearity",
]

_FIT_METHODS = ("endpoint", "best_fit")


@dataclass(frozen=True)
class LinearFit:
    """A straight-line approximation ``period = slope * T + intercept``."""

    slope: float
    intercept: float
    method: str

    def evaluate(self, temperatures_c: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(temperatures_c, dtype=float) + self.intercept


@dataclass(frozen=True)
class NonlinearityResult:
    """Non-linearity error of one temperature response.

    Attributes
    ----------
    label:
        Configuration label of the analysed response.
    method:
        Line-fit convention used.
    temperatures_c:
        The analysed temperatures.
    error_percent:
        Deviation from the fitted line at each temperature, as a
        percentage of the full-scale period span (the paper's y-axis).
    fit:
        The underlying straight-line fit.
    full_scale_span_s:
        Period span used for normalisation.
    """

    label: str
    method: str
    temperatures_c: np.ndarray
    error_percent: np.ndarray
    fit: LinearFit
    full_scale_span_s: float

    @property
    def max_abs_error_percent(self) -> float:
        """Worst-case |non-linearity| in percent of full scale."""
        return float(np.max(np.abs(self.error_percent)))

    def error_at(self, temperature_c: float) -> float:
        """Interpolated non-linearity error (percent) at one temperature."""
        return float(
            np.interp(temperature_c, self.temperatures_c, self.error_percent)
        )

    def equivalent_temperature_error_c(self) -> np.ndarray:
        """Residuals converted to kelvin through the fitted slope."""
        if self.fit.slope == 0.0:
            raise TechnologyError("fitted slope is zero; the sensor has no sensitivity")
        residual_s = self.error_percent / 100.0 * self.full_scale_span_s
        return residual_s / self.fit.slope

    @property
    def max_abs_temperature_error_c(self) -> float:
        """Worst-case |temperature error| implied by the non-linearity."""
        return float(np.max(np.abs(self.equivalent_temperature_error_c())))


def fit_line(response: TemperatureResponse, method: str = "endpoint") -> LinearFit:
    """Fit a straight line to a temperature response.

    Parameters
    ----------
    response:
        The characteristic to fit.
    method:
        ``"endpoint"`` or ``"best_fit"``.
    """
    if method not in _FIT_METHODS:
        raise TechnologyError(
            f"unknown fit method {method!r}; choose one of {_FIT_METHODS}"
        )
    temps = response.temperatures_c
    periods = response.periods_s
    if method == "endpoint":
        slope = (periods[-1] - periods[0]) / (temps[-1] - temps[0])
        intercept = periods[0] - slope * temps[0]
    else:
        slope, intercept = np.polyfit(temps, periods, deg=1)
    return LinearFit(slope=float(slope), intercept=float(intercept), method=method)


def nonlinearity(
    response: TemperatureResponse, method: str = "endpoint"
) -> NonlinearityResult:
    """Non-linearity error curve of a temperature response.

    The error at each temperature is ``(period - line) / span * 100`` with
    ``span`` the full-scale period change over the analysed range, which
    is how the paper normalises its Fig. 2 / Fig. 3 y-axis.
    """
    fit = fit_line(response, method)
    span = abs(response.span_s())
    if span <= 0.0:
        raise TechnologyError(
            "temperature response has no span; the sensor characteristic is flat"
        )
    residual = response.periods_s - fit.evaluate(response.temperatures_c)
    error_percent = residual / span * 100.0
    return NonlinearityResult(
        label=response.label,
        method=method,
        temperatures_c=response.temperatures_c,
        error_percent=error_percent,
        fit=fit,
        full_scale_span_s=span,
    )
