"""Liberty-like export of characterised timing.

Cell-based design flows exchange timing data in the Liberty (``.lib``)
format.  A full Liberty writer is out of scope, but exporting the
characterised tables in a Liberty-shaped text format makes the library's
"datasheet" inspectable with the same mental model designers use, and
gives the documentation example something concrete to show.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .cell import StandardCell
from .library import CellLibrary
from .timing import TimingTable, characterize_cell

__all__ = ["format_cell", "format_library", "write_library"]


def _format_values(rows: Iterable[Iterable[float]]) -> str:
    formatted_rows = []
    for row in rows:
        formatted_rows.append(", ".join(f"{value * 1e9:.6f}" for value in row))
    return " \\\n        ".join(f'"{row}"' for row in formatted_rows)


def format_cell(cell: StandardCell, table: Optional[TimingTable] = None,
                temperatures_c: Iterable[float] = (-50.0, 25.0, 150.0)) -> str:
    """Render one cell as a Liberty-like ``cell { ... }`` block.

    Delays are reported in nanoseconds, capacitances in picofarads,
    matching Liberty conventions.
    """
    if table is None:
        table = characterize_cell(cell, temperatures_c)
    cin_pf = cell.input_capacitance() * 1e12
    area = cell.area_um2()
    lines: List[str] = []
    lines.append(f"  cell ({cell.name}) {{")
    lines.append(f"    area : {area:.3f};")
    lines.append(f"    cell_footprint : \"{cell.topology.kind.lower()}\";")
    for pin_index in range(cell.topology.fan_in):
        lines.append(f"    pin (A{pin_index}) {{")
        lines.append("      direction : input;")
        lines.append(f"      capacitance : {cin_pf:.6f};")
        lines.append("    }")
    lines.append("    pin (Y) {")
    lines.append("      direction : output;")
    lines.append(
        "      function : \"{}\";".format(_logic_function(cell))
    )
    lines.append("      timing () {")
    lines.append("        related_pin : \"A0\";")
    lines.append("        /* index_1: temperature (C), index_2: load (pF) */")
    lines.append(
        "        index_1 (\"{}\");".format(
            ", ".join(f"{t:.1f}" for t in table.temperatures_c)
        )
    )
    lines.append(
        "        index_2 (\"{}\");".format(
            ", ".join(f"{c * 1e12:.6f}" for c in table.loads_f)
        )
    )
    lines.append("        cell_fall (delay_table) {")
    lines.append("          values ( \\")
    lines.append("        " + _format_values(table.tphl_s) + " \\")
    lines.append("          );")
    lines.append("        }")
    lines.append("        cell_rise (delay_table) {")
    lines.append("          values ( \\")
    lines.append("        " + _format_values(table.tplh_s) + " \\")
    lines.append("          );")
    lines.append("        }")
    lines.append("      }")
    lines.append("    }")
    lines.append("  }")
    return "\n".join(lines)


def _logic_function(cell: StandardCell) -> str:
    kind = cell.topology.kind
    fan_in = cell.topology.fan_in
    pins = [f"A{i}" for i in range(fan_in)]
    if kind == "INV":
        return "!A0"
    if kind == "BUF":
        return "A0"
    if kind == "NAND":
        return "!(" + " & ".join(pins) + ")"
    if kind == "NOR":
        return "!(" + " | ".join(pins) + ")"
    return "A0"


def format_library(
    library: CellLibrary, temperatures_c: Iterable[float] = (-50.0, 25.0, 150.0)
) -> str:
    """Render a whole library as Liberty-like text."""
    lines = [f"library ({library.name}) {{"]
    lines.append("  delay_model : table_lookup;")
    lines.append("  time_unit : \"1ns\";")
    lines.append("  capacitive_load_unit (1, pf);")
    lines.append(f"  nom_voltage : {library.technology.vdd:.2f};")
    lines.append("  nom_temperature : 25.0;")
    for name in library.names():
        cell = library.get(name)
        lines.append(format_cell(cell, temperatures_c=temperatures_c))
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_library(
    library: CellLibrary,
    path: str,
    temperatures_c: Iterable[float] = (-50.0, 25.0, 150.0),
) -> None:
    """Write the Liberty-like text of a library to ``path``."""
    text = format_library(library, temperatures_c)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
