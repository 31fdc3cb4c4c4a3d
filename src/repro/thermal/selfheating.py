"""Self-heating of the ring-oscillator sensor.

A free-running ring oscillator dissipates power at the very spot whose
temperature it is supposed to report, biasing the measurement upward.
The paper's smart unit therefore disables the oscillator between
measurements.  This module quantifies that design choice: given a sensor
(its power draw), the die thermal model, and a measurement duty cycle,
it reports the temperature error caused by self-heating — the ablation
study ABL-SELFHEAT in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fields import real, real_array
from ..tech.parameters import TechnologyError
from .grid import ThermalGrid, ThermalGridParameters
from .operator import ThermalOperator
from .power import PowerMap

__all__ = ["SelfHeatingReport", "duty_cycle_study"]


@dataclass(frozen=True)
class SelfHeatingReport:
    """Self-heating error of one sensor operating condition.

    Attributes
    ----------
    duty_cycle:
        Fraction of time the oscillator runs.
    oscillator_power_w:
        Power the oscillator draws while running.
    temperature_rise_c:
        Local temperature rise at the sensor site caused by the
        oscillator itself (time-averaged).
    background_temperature_c:
        Temperature at the sensor site without the oscillator running.
    """

    duty_cycle: float
    oscillator_power_w: float
    temperature_rise_c: float
    background_temperature_c: float


def duty_cycle_study(
    background_power: PowerMap,
    sensor_x_mm: float,
    sensor_y_mm: float,
    oscillator_power_w: float,
    duty_cycles=(1.0, 0.5, 0.1, 0.01, 0.001),
    ambient_c: float = 45.0,
    parameters: ThermalGridParameters = ThermalGridParameters(),
):
    """Self-heating error versus measurement duty cycle.

    Returns a list of :class:`SelfHeatingReport`, one per duty cycle,
    from free-running (1.0) down to the sparse duty cycles the
    auto-disable controller achieves.

    The thermal network is linear, so the rise caused by ``duty *
    power`` is ``duty`` times the rise caused by the full power: this
    runs one *multi-RHS* steady-state solve (baseline and full-power
    stacked against the cached :class:`ThermalOperator` solve)
    and scales, instead of one solve per duty cycle (the two agree to
    solver rounding, far below any physically meaningful difference).
    """
    real(oscillator_power_w, "oscillator_power_w", TechnologyError, at_least=0.0)
    duties = real_array(
        list(duty_cycles), "duty_cycles", TechnologyError, at_least=0.0, at_most=1.0
    ).tolist()

    grid = ThermalGrid.for_power_map(background_power, parameters)
    heated = background_power.copy()
    heated.add_point_source(sensor_x_mm, sensor_y_mm, oscillator_power_w)
    baseline, with_sensor = ThermalOperator.for_grid(grid).solve_steady_state_multi(
        [background_power, heated], ambient_c
    )
    background_temp = baseline.sample(sensor_x_mm, sensor_y_mm)
    full_rise = with_sensor.sample(sensor_x_mm, sensor_y_mm) - background_temp

    return [
        SelfHeatingReport(
            duty_cycle=duty,
            oscillator_power_w=oscillator_power_w,
            temperature_rise_c=duty * full_rise,
            background_temperature_c=background_temp,
        )
        for duty in duties
    ]
