"""Analytical propagation-delay models (alpha-power law + load models).

A ring evaluates its stages' drive currents in one
:func:`~repro.delay.alpha_power.drive_currents` call per technology and
turns each into a delay with
:func:`~repro.delay.alpha_power.switching_delay` (``fit * C * VDD / I``);
the load helpers give the ``C`` of each stage.
"""

from .alpha_power import (
    DELAY_FIT_FACTOR,
    DelayModelOptions,
    DriveNetwork,
    StackModel,
)
from .load import (
    input_capacitance,
    output_parasitic_capacitance,
    wire_capacitance,
)

__all__ = [
    "DELAY_FIT_FACTOR",
    "DelayModelOptions",
    "DriveNetwork",
    "StackModel",
    "input_capacitance",
    "output_parasitic_capacitance",
    "wire_capacitance",
]
