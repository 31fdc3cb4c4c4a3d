"""Transistor-level circuit simulation (MNA, DC and transient)."""

from .elements import (
    Capacitor,
    CircuitElement,
    Mosfet,
    PulseVoltageSource,
    SimulationError,
    StampContext,
    VoltageSource,
)
from .netlist import Circuit
from .dc import DCOptions, DCResult, solve_dc
from .transient import TransientOptions, TransientResult, simulate_transient
from .waveform import Waveform, propagation_delay

__all__ = [
    "Capacitor",
    "CircuitElement",
    "Mosfet",
    "PulseVoltageSource",
    "SimulationError",
    "StampContext",
    "VoltageSource",
    "Circuit",
    "DCOptions",
    "DCResult",
    "solve_dc",
    "TransientOptions",
    "TransientResult",
    "simulate_transient",
    "Waveform",
    "propagation_delay",
]
