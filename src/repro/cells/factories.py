"""Factory functions for the individual library cells.

Sizing policy
-------------

Real standard-cell libraries at the 0.35 um node commonly draw the X1
drive strength of every simple gate with the *same* transistor widths as
the X1 inverter (about 1 um NMOS / 2 um PMOS), accepting that the
stacked transitions of NAND/NOR gates are slower rather than paying the
area to compensate them.  That policy is what makes the paper's
cell-based optimisation interesting: because the stacks are not
compensated, NAND-like and NOR-like gates weight the NMOS and PMOS
temperature behaviour differently from an inverter, giving the cell mix
its linearising power.  The factories implement this policy (scaled by
the drive strength) and allow explicit width overrides for exploring
alternative libraries.
"""

from __future__ import annotations

from typing import Optional

from ..fields import integer
from ..tech.parameters import Technology
from .cell import CellError, CellTopology, StandardCell

__all__ = ["inverter", "nand_gate", "nor_gate", "buffer_cell", "UNIT_NMOS_WIDTH_FACTOR", "UNIT_PMOS_WIDTH_FACTOR"]

#: X1 NMOS width expressed in multiples of the technology feature size.
UNIT_NMOS_WIDTH_FACTOR = 3.0
#: X1 PMOS width expressed in multiples of the technology feature size.
UNIT_PMOS_WIDTH_FACTOR = 6.0


def _unit_widths(tech: Technology, drive: int) -> tuple:
    drive = integer(drive, "drive", CellError, at_least=1)
    wn = max(UNIT_NMOS_WIDTH_FACTOR * tech.feature_size_um, tech.min_width_um) * drive
    wp = max(UNIT_PMOS_WIDTH_FACTOR * tech.feature_size_um, tech.min_width_um) * drive
    return wn, wp


def inverter(
    tech: Technology,
    drive: int = 1,
    nmos_width_um: Optional[float] = None,
    pmos_width_um: Optional[float] = None,
    name: Optional[str] = None,
) -> StandardCell:
    """Create an inverter cell (``INV_X<drive>``)."""
    wn, wp = _unit_widths(tech, drive)
    return StandardCell(
        name=name or f"INV_X{drive}",
        technology=tech,
        topology=CellTopology.inverter(),
        nmos_width_um=nmos_width_um if nmos_width_um is not None else wn,
        pmos_width_um=pmos_width_um if pmos_width_um is not None else wp,
    )


def nand_gate(
    tech: Technology,
    fan_in: int = 2,
    drive: int = 1,
    nmos_width_um: Optional[float] = None,
    pmos_width_um: Optional[float] = None,
    name: Optional[str] = None,
) -> StandardCell:
    """Create a NAND cell (``NAND<fan_in>_X<drive>``)."""
    wn, wp = _unit_widths(tech, drive)
    return StandardCell(
        name=name or f"NAND{fan_in}_X{drive}",
        technology=tech,
        topology=CellTopology.nand(fan_in),
        nmos_width_um=nmos_width_um if nmos_width_um is not None else wn,
        pmos_width_um=pmos_width_um if pmos_width_um is not None else wp,
    )


def nor_gate(
    tech: Technology,
    fan_in: int = 2,
    drive: int = 1,
    nmos_width_um: Optional[float] = None,
    pmos_width_um: Optional[float] = None,
    name: Optional[str] = None,
) -> StandardCell:
    """Create a NOR cell (``NOR<fan_in>_X<drive>``)."""
    wn, wp = _unit_widths(tech, drive)
    return StandardCell(
        name=name or f"NOR{fan_in}_X{drive}",
        technology=tech,
        topology=CellTopology.nor(fan_in),
        nmos_width_um=nmos_width_um if nmos_width_um is not None else wn,
        pmos_width_um=pmos_width_um if pmos_width_um is not None else wp,
    )


def buffer_cell(
    tech: Technology,
    drive: int = 1,
    name: Optional[str] = None,
) -> StandardCell:
    """Create a non-inverting buffer (two cascaded inverters).

    Buffers are not valid ring stages (they do not invert) but are used
    by the smart-sensor unit to drive the counter clock input and the
    multiplexer routing.
    """
    wn, wp = _unit_widths(tech, drive)
    return StandardCell(
        name=name or f"BUF_X{drive}",
        technology=tech,
        topology=CellTopology.buffer(),
        nmos_width_um=wn,
        pmos_width_um=wp,
    )
