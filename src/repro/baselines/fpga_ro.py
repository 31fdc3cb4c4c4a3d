"""FPGA-style fixed ring-oscillator baseline (the paper's reference [5]).

Prior to the paper, ring-oscillator thermal sensing had been shown on
FPGAs (Lopez-Buedo et al.): the ring is built from whatever inverting
resources the fabric offers, with no freedom to choose transistor sizes
or gate types.  The paper argues that moving to standard cells both
keeps the design-style convenience and adds the optimisation freedom of
Sections 2 and 3.

The baseline modelled here captures the FPGA constraints:

* inverter-like stages only (the LUT's fixed drive), with the fabric's
  fixed, non-optimisable sizing (a nominal 2:1 P:N ratio),
* heavy interconnect loading, because consecutive stages route through
  the programmable fabric rather than abutting.

The result is a sensor with the same physics but no linearity knob — the
comparison target for the Fig. 3-style benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells.factories import inverter
from ..cells.library import CellLibrary
from ..fields import real
from ..oscillator.config import RingConfiguration, odd_stage_count
from ..oscillator.ring import RingOscillator
from ..tech.parameters import Technology, TechnologyError

__all__ = ["FpgaRingConfig", "fpga_ring_oscillator"]


@dataclass(frozen=True)
class FpgaRingConfig:
    """Parameters describing the emulated FPGA fabric.

    Attributes
    ----------
    stage_count:
        Number of LUT-based inverting stages (FPGA sensors typically use
        longer chains because each stage is slow).
    routing_wire_length_um:
        Equivalent wire length of the programmable routing between
        consecutive stages; dominates the stage load.
    lut_input_cap_multiplier:
        How much larger a LUT input is than a plain inverter input
        (the stage additionally drives the LUT's pass-gate structure).
    """

    stage_count: int = 9
    routing_wire_length_um: float = 120.0
    lut_input_cap_multiplier: float = 3.0

    def __post_init__(self) -> None:
        odd_stage_count(self.stage_count, TechnologyError)
        real(self.routing_wire_length_um, "routing_wire_length_um", TechnologyError, at_least=0.0)
        real(
            self.lut_input_cap_multiplier, "lut_input_cap_multiplier", TechnologyError,
            at_least=1.0,
        )


def fpga_ring_oscillator(
    technology: Technology, config: FpgaRingConfig = FpgaRingConfig()
) -> RingOscillator:
    """Build the FPGA-style baseline ring in the given technology.

    The fixed fabric sizing is emulated with an inverter whose widths are
    scaled by the LUT multiplier (fixed 2:1 ratio, no optimisation), and
    the programmable-routing load with a long inter-stage wire.
    """
    base = inverter(technology)
    lut_like = inverter(
        technology,
        nmos_width_um=base.nmos_width_um * config.lut_input_cap_multiplier,
        pmos_width_um=base.pmos_width_um * config.lut_input_cap_multiplier,
        name="LUT_INV",
    )
    library = CellLibrary(f"fpga_fabric_{technology.name}", technology)
    library.add(lut_like)
    configuration = RingConfiguration.uniform("LUT_INV", config.stage_count)
    return RingOscillator(
        library,
        configuration,
        wire_length_um=config.routing_wire_length_um,
    )
