"""Standard-cell library: cell models, factories, characterisation, export."""

from .cell import CellError, CellTopology, GateDelays, StandardCell
from .factories import buffer_cell, inverter, nand_gate, nor_gate
from .library import CellLibrary, default_library
from .timing import TimingTable, characterize_cell
from .characterize import SimulatedDelays, measure_cell_delays
from .liberty import format_cell, format_library, write_library

__all__ = [
    "CellError",
    "CellTopology",
    "GateDelays",
    "StandardCell",
    "buffer_cell",
    "inverter",
    "nand_gate",
    "nor_gate",
    "CellLibrary",
    "default_library",
    "TimingTable",
    "characterize_cell",
    "SimulatedDelays",
    "measure_cell_delays",
    "format_cell",
    "format_library",
    "write_library",
]
