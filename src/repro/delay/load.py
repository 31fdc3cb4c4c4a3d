"""Capacitive load models for standard-cell stages.

The delay of a ring-oscillator stage depends on the capacitance hanging
on its output node: the gate capacitance of the next stage's driven
input, the driving cell's own drain (parasitic) capacitance, and a small
amount of local wiring.  These helpers compute each contribution from
the technology parameters so that both the analytical delay model and
the transistor-level netlists use consistent numbers.

All three helpers accept a stacked population
(:class:`~repro.tech.stacked.TechnologyArray`) in place of a scalar
technology, in which case the returned capacitance is a
``(samples, 1)`` column (oxide and wire capacitance vary per sample)
that broadcasts through the delay model's sample axis.
"""

from __future__ import annotations

from ..fields import integer, real
from ..tech.parameters import Technology, TechnologyError

__all__ = ["input_capacitance", "output_parasitic_capacitance", "wire_capacitance"]


def input_capacitance(tech: Technology, nmos_width_um: float, pmos_width_um: float) -> float:
    """Gate capacitance (F) presented by one input of a CMOS gate.

    One input of a static CMOS gate drives exactly one NMOS and one PMOS
    gate terminal regardless of the gate type; only the widths differ.
    """
    real(nmos_width_um, "nmos_width_um", TechnologyError, above=0.0)
    real(pmos_width_um, "pmos_width_um", TechnologyError, above=0.0)
    return (
        tech.nmos.gate_cap_f_per_um * nmos_width_um
        + tech.pmos.gate_cap_f_per_um * pmos_width_um
    )


def output_parasitic_capacitance(
    tech: Technology,
    nmos_width_um: float,
    pmos_width_um: float,
    nmos_on_output: int = 1,
    pmos_on_output: int = 1,
) -> float:
    """Drain-junction capacitance (F) loading a gate's own output node.

    ``nmos_on_output`` / ``pmos_on_output`` count how many drains of each
    polarity connect to the output (e.g. a NAND2 has 1 NMOS drain — the
    top of the stack — and 2 PMOS drains on the output).
    """
    integer(nmos_on_output, "nmos_on_output", TechnologyError, at_least=0)
    integer(pmos_on_output, "pmos_on_output", TechnologyError, at_least=0)
    n_cap = (
        tech.nmos.junction_cap_f_per_um + 2.0 * tech.nmos.overlap_cap_f_per_um
    ) * nmos_width_um * nmos_on_output
    p_cap = (
        tech.pmos.junction_cap_f_per_um + 2.0 * tech.pmos.overlap_cap_f_per_um
    ) * pmos_width_um * pmos_on_output
    return n_cap + p_cap


def wire_capacitance(tech: Technology, length_um: float) -> float:
    """Local interconnect capacitance (F) for a wire of given length."""
    real(length_um, "length_um", TechnologyError, at_least=0.0)
    return tech.wire_cap_f_per_um * length_um
