"""Die thermal substrate: floorplan, power maps, RC grid, solvers."""

from .floorplan import Floorplan, FunctionalBlock, SensorSite
from .power import PowerMap
from .grid import TemperatureMap, ThermalGrid, ThermalGridParameters
from .operator import ThermalOperator, ThermalStepper
from .solver import TransientThermalResult, solve_steady_state, solve_transient
from .selfheating import SelfHeatingReport, duty_cycle_study, self_heating_error

__all__ = [
    "Floorplan",
    "FunctionalBlock",
    "SensorSite",
    "PowerMap",
    "TemperatureMap",
    "ThermalGrid",
    "ThermalGridParameters",
    "ThermalOperator",
    "ThermalStepper",
    "TransientThermalResult",
    "solve_steady_state",
    "solve_transient",
    "SelfHeatingReport",
    "duty_cycle_study",
    "self_heating_error",
]
