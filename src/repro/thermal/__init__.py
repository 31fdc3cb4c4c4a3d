"""Die thermal substrate: floorplan, power maps, RC grid, the thermal solve."""

from .floorplan import Floorplan, FunctionalBlock, SensorSite
from .power import PowerMap
from .grid import TemperatureMap, ThermalGrid, ThermalGridParameters
from .operator import ThermalOperator, ThermalStepper, solve_steady_state
from .selfheating import SelfHeatingReport, duty_cycle_study

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
    "solve_steady_state",
    "SelfHeatingReport",
    "duty_cycle_study",
]
