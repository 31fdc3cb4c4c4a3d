"""Resolution and quantisation analysis of the digital readout.

The smart sensor converts the oscillation period to a digital code by
counting ring cycles inside a fixed gating window (or, equivalently,
counting reference-clock cycles during a fixed number of ring cycles).
The count is an integer, so the sensor has a finite temperature
resolution; this module computes it from the analytical characteristic
and the gating window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fields import real
from ..oscillator.period import TemperatureResponse
from ..tech.parameters import TechnologyError

__all__ = ["ResolutionReport", "resolution_report"]


@dataclass(frozen=True)
class ResolutionReport:
    """Quantisation-limited resolution of a counter-based readout.

    Attributes
    ----------
    label:
        Configuration label.
    window_s:
        Gating-window length used by the counter.
    count_min / count_max:
        Counter values at the two ends of the temperature range.
    counts_per_kelvin:
        Average |d(count)/dT| over the range.
    temperature_resolution_c:
        Temperature change corresponding to one LSB of the counter —
        the quantisation-limited resolution.
    bits_required:
        Counter width needed to hold the largest count without overflow.
    """

    label: str
    window_s: float
    count_min: float
    count_max: float
    counts_per_kelvin: float
    temperature_resolution_c: float
    bits_required: int


def resolution_report(
    response: TemperatureResponse, window_s: float
) -> ResolutionReport:
    """Resolution of a cycle-counting readout with the given gating window.

    The counter accumulates ``window / period(T)`` cycles, so the count
    decreases as temperature (and period) rises.
    """
    window_s = real(window_s, "window_s", TechnologyError, above=0.0)
    temps = response.temperatures_c
    counts = window_s / response.periods_s
    count_span = abs(float(counts[0] - counts[-1]))
    temp_span = float(temps[-1] - temps[0])
    if count_span == 0.0:
        raise TechnologyError("counter output does not change over the range")
    counts_per_kelvin = count_span / temp_span
    resolution_c = 1.0 / counts_per_kelvin
    max_count = float(np.max(counts))
    bits = int(np.ceil(np.log2(max_count + 1.0)))
    return ResolutionReport(
        label=response.label,
        window_s=window_s,
        count_min=float(np.min(counts)),
        count_max=max_count,
        counts_per_kelvin=counts_per_kelvin,
        temperature_resolution_c=resolution_c,
        bits_required=bits,
    )
