"""Steady-state and transient solvers for the thermal grid.

Both solvers are thin layers over
:class:`repro.thermal.operator.ThermalOperator`, which owns (and caches,
process-wide) the prepared solves: repeated steady-state solves on the
same grid geometry — a thermal-mapping scan per workload, the
self-heating duty-cycle pair — reuse one prepared solve of ``G``, and
repeated transient runs with the same timestep reuse one of the
backward-Euler system ``(C/dt + G)``.  Every grid is solved exactly by
a 2-D DCT, which diagonalizes the grid's uniform five-point stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..circuit.transient import transient_step_count
from ..tech.parameters import TechnologyError
from .grid import TemperatureMap, ThermalGrid
from .operator import ThermalOperator
from .power import PowerMap

__all__ = [
    "solve_steady_state",
    "TransientThermalResult",
    "solve_transient",
]


def solve_steady_state(
    grid: ThermalGrid, power: PowerMap, ambient_c: float = 45.0
) -> TemperatureMap:
    """Steady-state junction temperatures for a constant power map.

    Solves ``G * dT = P`` for the temperature rise above ambient and adds
    the ambient temperature.  ``ambient_c`` represents the local ambient
    (board/package) temperature, not the room.  The prepared solve comes
    from the shared :class:`ThermalOperator` cache, so repeated solves on
    equal grids prepare it once; each solve is an exact DCT solve,
    O(n log n) time and O(n) memory.
    """
    return ThermalOperator.for_grid(grid).solve_steady_state(power, ambient_c)


@dataclass(frozen=True)
class TransientThermalResult:
    """Sampled evolution of the die temperature field."""

    times_s: np.ndarray
    maps: Tuple[TemperatureMap, ...]

    def __post_init__(self) -> None:
        if len(self.maps) != np.asarray(self.times_s).size:
            raise TechnologyError("times and temperature maps must align")

    @property
    def final(self) -> TemperatureMap:
        return self.maps[-1]

    def max_trace_c(self) -> np.ndarray:
        """Peak die temperature at every stored time point."""
        return np.asarray([m.max_c() for m in self.maps])

    def at_time(self, time_s: float) -> TemperatureMap:
        """Temperature map at the stored time closest to ``time_s``."""
        times = np.asarray(self.times_s)
        index = int(np.argmin(np.abs(times - time_s)))
        return self.maps[index]


def solve_transient(
    grid: ThermalGrid,
    power_of_time: Callable[[float], PowerMap],
    duration_s: float,
    timestep_s: float,
    ambient_c: float = 45.0,
    initial: Optional[TemperatureMap] = None,
    store_every: int = 1,
) -> TransientThermalResult:
    """Integrate the thermal network over time (backward Euler).

    Parameters
    ----------
    grid:
        The thermal network.
    power_of_time:
        Callback returning the power map at a given time; used to model
        duty-cycled oscillators and workload changes.
    duration_s:
        Total simulated time.
    timestep_s:
        Integration step; thermal time constants are milliseconds, so
        steps of 0.1-1 ms are typical.
    ambient_c:
        Ambient temperature (also the default initial condition).
    initial:
        Starting temperature field; uniform ambient when omitted.
    store_every:
        Keep every n-th step in the result.

    Each step is one exact DCT solve of the cached backward-Euler
    system, a pair of fast transforms.
    """
    for name, value in (("duration_s", duration_s), ("timestep_s", timestep_s)):
        if not np.isfinite(value):
            raise TechnologyError(f"{name} must be finite, got {value!r}")
    if duration_s <= 0.0 or timestep_s <= 0.0:
        raise TechnologyError("duration and timestep must be positive")
    if store_every < 1:
        raise TechnologyError("store_every must be >= 1")
    steps = transient_step_count(duration_s, timestep_s)
    if steps < 1:
        raise TechnologyError("duration must span at least one timestep")

    size = grid.nx * grid.ny
    stepper = ThermalOperator.for_grid(grid).stepper(timestep_s)

    if initial is None:
        state = np.zeros(size)
    else:
        if initial.values_c.shape != (grid.ny, grid.nx):
            raise TechnologyError("initial temperature map does not match the grid")
        state = (initial.values_c - ambient_c).reshape(-1)

    times: List[float] = [0.0]
    maps: List[TemperatureMap] = [
        TemperatureMap(grid.width_mm, grid.height_mm, state.reshape((grid.ny, grid.nx)) + ambient_c)
    ]

    for step in range(1, steps + 1):
        time = step * timestep_s
        power = power_of_time(time)
        grid.check_power_map(power)
        state = stepper.step(state, power.values_w.reshape(-1))
        if step % store_every == 0 or step == steps:
            times.append(time)
            maps.append(
                TemperatureMap(
                    grid.width_mm,
                    grid.height_mm,
                    state.reshape((grid.ny, grid.nx)) + ambient_c,
                )
            )
    return TransientThermalResult(times_s=np.asarray(times), maps=tuple(maps))
