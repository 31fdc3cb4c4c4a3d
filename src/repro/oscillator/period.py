"""Temperature-response helpers for ring oscillators.

The sensor characteristic is the mapping ``temperature -> period``; this
module provides the container for such a characteristic, the checks on
its temperature grid, and :func:`analytical_response`, which produces it
from the analytical delay model.  Transistor-level simulation
(:meth:`~repro.oscillator.ring.RingOscillator.simulate`) validates it at
one temperature, in Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..fields import integer, real_array
from ..tech.parameters import TechnologyError
from .ring import RingOscillator

__all__ = [
    "TemperatureResponse",
    "default_temperature_grid",
    "paper_temperature_grid",
    "analytical_response",
    "validate_temperature_grid",
]


def validate_temperature_grid(
    temperatures_c: Sequence[float], context: str = "temperature sweep"
) -> np.ndarray:
    """Validate and sort a user-supplied temperature grid up front.

    Returns the sorted grid; raises :class:`TechnologyError` with a
    clear message for the failure modes that used to surface late (or
    be silently papered over) in the sweep paths: fewer than three
    points, NaNs, and duplicate temperatures.  Duplicates are rejected
    rather than deduplicated so a caller's typo cannot silently shrink
    the grid below what they asked for.
    """
    temps = np.asarray(list(temperatures_c), dtype=float)
    if temps.ndim != 1:
        raise TechnologyError(
            f"{context}: temperatures must form a one-dimensional grid, "
            f"got shape {temps.shape}"
        )
    if temps.size < 3:
        raise TechnologyError(
            f"{context}: at least three temperatures are required, got {temps.size}"
        )
    if np.any(~np.isfinite(temps)):
        raise TechnologyError(
            f"{context}: temperatures must be finite (no NaN or infinity)"
        )
    temps = np.sort(temps)
    if np.any(np.diff(temps) == 0.0):
        duplicates = sorted(set(temps[1:][np.diff(temps) == 0.0].tolist()))
        raise TechnologyError(
            f"{context}: duplicate temperatures {duplicates}; each sweep "
            "point must be unique"
        )
    return temps


def default_temperature_grid(
    t_min_c: float = -50.0, t_max_c: float = 150.0, points: int = 41
) -> np.ndarray:
    """Dense uniform temperature grid over the paper's range."""
    points = integer(points, "points", TechnologyError, at_least=2)
    if t_max_c <= t_min_c:
        raise TechnologyError("t_max_c must exceed t_min_c")
    return np.linspace(t_min_c, t_max_c, points)


def paper_temperature_grid() -> np.ndarray:
    """The nine temperatures the paper's figures mark on the x-axis."""
    return np.asarray([-50.0, -25.0, 0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0])


@dataclass(frozen=True)
class TemperatureResponse:
    """A sampled ``temperature -> period`` characteristic.

    Attributes
    ----------
    label:
        Configuration label this response belongs to.
    temperatures_c:
        Strictly increasing temperatures (deg C).
    periods_s:
        Oscillation period at each temperature (seconds).
    """

    label: str
    temperatures_c: np.ndarray
    periods_s: np.ndarray

    def __post_init__(self) -> None:
        temps = np.asarray(self.temperatures_c, dtype=float)
        periods = real_array(self.periods_s, "periods_s", TechnologyError, above=0.0)
        if temps.ndim != 1 or periods.ndim != 1 or temps.shape != periods.shape:
            raise TechnologyError("temperatures and periods must be matching 1-D arrays")
        if temps.size < 3:
            raise TechnologyError("a temperature response needs at least three points")
        if np.any(np.diff(temps) <= 0):
            raise TechnologyError("temperatures must be strictly increasing")
        object.__setattr__(self, "temperatures_c", temps)
        object.__setattr__(self, "periods_s", periods)

    # ------------------------------------------------------------------ #
    # derived characteristics
    # ------------------------------------------------------------------ #

    @property
    def frequencies_hz(self) -> np.ndarray:
        return 1.0 / self.periods_s

    def span_s(self) -> float:
        """Full-scale period span over the temperature range."""
        return float(self.periods_s[-1] - self.periods_s[0])

    def mean_sensitivity(self) -> float:
        """Average d(period)/dT (s/K) over the full range."""
        return self.span_s() / float(self.temperatures_c[-1] - self.temperatures_c[0])

    def is_monotonic(self) -> bool:
        """Whether the period increases monotonically with temperature."""
        return bool(np.all(np.diff(self.periods_s) > 0))

    def period_at(self, temperature_c: float) -> float:
        """Linearly interpolated period at an arbitrary temperature."""
        temps = self.temperatures_c
        if not temps[0] <= temperature_c <= temps[-1]:
            raise TechnologyError(
                f"temperature {temperature_c} C outside the response range "
                f"[{temps[0]}, {temps[-1]}]"
            )
        return float(np.interp(temperature_c, temps, self.periods_s))


def analytical_response(
    ring: RingOscillator,
    temperatures_c: Optional[Sequence[float]] = None,
) -> TemperatureResponse:
    """Temperature response computed with the analytical delay model.

    Parameters
    ----------
    ring:
        The ring oscillator to sweep.
    temperatures_c:
        Sweep grid (the paper's -50..150 range by default), evaluated
        in one vectorized call (:meth:`RingOscillator.period_series`).
    """
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    return TemperatureResponse(ring.label(), temps, ring.period_series(temps))
