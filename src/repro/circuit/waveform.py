"""Waveform post-processing.

The transient simulator produces node-voltage waveforms; everything the
sensor library needs from them — threshold-crossing times, oscillation
period and frequency, duty cycle, propagation delays between two
waveforms — is computed here.  The period extraction is what converts a
simulated ring-oscillator run (paper Fig. 1) into the quantity the
sensor actually digitises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .elements import SimulationError

__all__ = ["Waveform", "propagation_delay"]


@dataclass(frozen=True)
class Waveform:
    """A sampled signal ``value(time)`` with strictly increasing time."""

    times: np.ndarray
    values: np.ndarray
    name: str = "signal"

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1:
            raise SimulationError("waveform arrays must be one-dimensional")
        if times.shape != values.shape:
            raise SimulationError("waveform time and value arrays must match in length")
        if times.size < 2:
            raise SimulationError("a waveform needs at least two samples")
        if np.any(np.diff(times) <= 0.0):
            raise SimulationError("waveform time axis must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def sample_count(self) -> int:
        return int(self.times.size)

    def minimum(self) -> float:
        return float(np.min(self.values))

    def maximum(self) -> float:
        return float(np.max(self.values))

    def amplitude(self) -> float:
        return self.maximum() - self.minimum()

    def value_at(self, time: float) -> float:
        """Linearly interpolated value at an arbitrary time."""
        if time < self.times[0] or time > self.times[-1]:
            raise SimulationError(
                f"time {time} is outside the waveform span "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        return float(np.interp(time, self.times, self.values))

    def window(self, start: float, stop: float) -> "Waveform":
        """Sub-waveform restricted to ``[start, stop]``."""
        if stop <= start:
            raise SimulationError("window stop must be after start")
        mask = (self.times >= start) & (self.times <= stop)
        if np.count_nonzero(mask) < 2:
            raise SimulationError("window contains fewer than two samples")
        return Waveform(self.times[mask], self.values[mask], name=self.name)

    # ------------------------------------------------------------------ #
    # crossings and periodicity
    # ------------------------------------------------------------------ #

    def crossings(self, threshold: float, direction: str = "rising") -> np.ndarray:
        """Times at which the signal crosses ``threshold``.

        Parameters
        ----------
        threshold:
            Crossing level in volts.
        direction:
            ``"rising"``, ``"falling"`` or ``"both"``.
        """
        if direction not in ("rising", "falling", "both"):
            raise SimulationError(f"unknown crossing direction {direction!r}")
        values = self.values
        above = values >= threshold
        change = np.diff(above.astype(int))
        crossing_times: List[float] = []
        indices = np.nonzero(change != 0)[0]
        for index in indices:
            rising = change[index] > 0
            if direction == "rising" and not rising:
                continue
            if direction == "falling" and rising:
                continue
            v0, v1 = values[index], values[index + 1]
            t0, t1 = self.times[index], self.times[index + 1]
            if v1 == v0:
                crossing_times.append(float(t0))
            else:
                frac = (threshold - v0) / (v1 - v0)
                crossing_times.append(float(t0 + frac * (t1 - t0)))
        return np.asarray(crossing_times)

    def period(
        self, threshold: Optional[float] = None, skip_cycles: int = 1
    ) -> float:
        """Oscillation period estimated from successive rising crossings.

        The first ``skip_cycles`` crossings are discarded so that the
        start-up transient of the oscillator does not bias the estimate.
        """
        if threshold is None:
            threshold = 0.5 * (self.minimum() + self.maximum())
        times = self.crossings(threshold, "rising")
        if times.size < skip_cycles + 2:
            raise SimulationError(
                f"waveform {self.name!r} does not contain enough cycles to "
                f"estimate a period (found {times.size} rising crossings)"
            )
        useful = times[skip_cycles:]
        periods = np.diff(useful)
        return float(np.mean(periods))

    def frequency(self, threshold: Optional[float] = None, skip_cycles: int = 1) -> float:
        """Oscillation frequency in hertz."""
        return 1.0 / self.period(threshold=threshold, skip_cycles=skip_cycles)

    def duty_cycle(self, threshold: Optional[float] = None) -> float:
        """Fraction of time the signal spends above the threshold."""
        if threshold is None:
            threshold = 0.5 * (self.minimum() + self.maximum())
        above = self.values >= threshold
        dt = np.diff(self.times)
        # Attribute each interval to the state at its left edge.
        time_above = float(np.sum(dt[above[:-1]]))
        return time_above / self.duration

    def is_oscillating(
        self, minimum_swing_fraction: float = 0.6, supply: Optional[float] = None
    ) -> bool:
        """Heuristic check that the waveform is a healthy oscillation.

        The swing must exceed ``minimum_swing_fraction`` of the supply
        (or of the observed max if no supply is given) and at least three
        rising crossings must be present.
        """
        reference = supply if supply is not None else self.maximum()
        if reference <= 0:
            return False
        if self.amplitude() < minimum_swing_fraction * reference:
            return False
        threshold = 0.5 * (self.minimum() + self.maximum())
        return self.crossings(threshold, "rising").size >= 3


def propagation_delay(
    input_wave: Waveform,
    output_wave: Waveform,
    supply: float,
    edge: str = "falling_output",
) -> float:
    """Propagation delay between an input edge and the output response.

    Measured, as usual, between the 50 % points of the input and output
    transitions.  ``edge`` selects which output transition is timed:
    ``"falling_output"`` gives tpHL, ``"rising_output"`` gives tpLH.
    """
    threshold = 0.5 * supply
    if edge == "falling_output":
        output_cross = output_wave.crossings(threshold, "falling")
        input_cross = input_wave.crossings(threshold, "rising")
    elif edge == "rising_output":
        output_cross = output_wave.crossings(threshold, "rising")
        input_cross = input_wave.crossings(threshold, "falling")
    else:
        raise SimulationError(f"unknown edge selector {edge!r}")
    if input_cross.size == 0 or output_cross.size == 0:
        raise SimulationError("waveforms do not contain the requested transitions")
    t_in = input_cross[0]
    later = output_cross[output_cross > t_in]
    if later.size == 0:
        raise SimulationError("output never responds after the input transition")
    return float(later[0] - t_in)
