"""Sensitivity metrics of a ring-oscillator temperature sensor.

The non-linearity (:mod:`repro.analysis.linearity`) tells how straight
the characteristic is; the sensitivity tells how steep it is.  Both are
needed to judge a configuration: a perfectly linear sensor with no slope
cannot resolve anything, and the paper's cell-mix choice trades a little
of one for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..oscillator.period import TemperatureResponse
from ..tech.parameters import TechnologyError

__all__ = ["SensitivityReport", "sensitivity_report"]


@dataclass(frozen=True)
class SensitivityReport:
    """Summary of the slope of a temperature characteristic.

    Attributes
    ----------
    label:
        Configuration label.
    mean_sensitivity_s_per_k:
        Average d(period)/dT over the range.
    relative_sensitivity_per_k:
        Average (1/period) d(period)/dT — comparable across rings with
        different absolute periods.
    min_local_sensitivity_s_per_k / max_local_sensitivity_s_per_k:
        Extremes of the local slope over the range; a large ratio between
        them is another symptom of curvature.
    frequency_sensitivity_ppm_per_k:
        Average relative *frequency* change in ppm/K (negative: frequency
        falls as temperature rises).
    """

    label: str
    mean_sensitivity_s_per_k: float
    relative_sensitivity_per_k: float
    min_local_sensitivity_s_per_k: float
    max_local_sensitivity_s_per_k: float
    frequency_sensitivity_ppm_per_k: float


def sensitivity_report(response: TemperatureResponse) -> SensitivityReport:
    """Compute the sensitivity summary of a temperature response."""
    temps = response.temperatures_c
    periods = response.periods_s
    local = np.diff(periods) / np.diff(temps)
    if local.size == 0:
        raise TechnologyError("response too short for a sensitivity report")

    mid_period = float(
        np.interp(0.5 * (temps[0] + temps[-1]), temps, periods)
    )
    mean_sens = response.mean_sensitivity()
    freqs = response.frequencies_hz
    mean_freq_sens = (freqs[-1] - freqs[0]) / (temps[-1] - temps[0])
    mid_freq = float(np.interp(0.5 * (temps[0] + temps[-1]), temps, freqs))

    return SensitivityReport(
        label=response.label,
        mean_sensitivity_s_per_k=mean_sens,
        relative_sensitivity_per_k=mean_sens / mid_period,
        min_local_sensitivity_s_per_k=float(np.min(local)),
        max_local_sensitivity_s_per_k=float(np.max(local)),
        frequency_sensitivity_ppm_per_k=mean_freq_sens / mid_freq * 1e6,
    )
