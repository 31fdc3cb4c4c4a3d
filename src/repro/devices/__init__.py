"""Device models: MOSFET (alpha-power law) and thermal diode."""

from .mosfet import DeviceSizing, MosfetModel, MosfetOperatingPoint
from .diode import DiodeModel, DiodeParameters

__all__ = [
    "DeviceSizing",
    "MosfetModel",
    "MosfetOperatingPoint",
    "DiodeModel",
    "DiodeParameters",
]
