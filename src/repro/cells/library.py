"""Cell-library container.

A :class:`CellLibrary` is a named collection of :class:`StandardCell`
objects for one technology.  The ring-oscillator configurations of the
paper's Fig. 3 refer to cells by their library names (``INV``,
``NAND2``, ``NAND3``, ``NOR2`` ...), so the library provides
case-insensitive lookup plus a default population covering all the gate
types the paper's optimisation explores.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..fields import integer
from ..tech.parameters import Technology
from .cell import CellError, StandardCell
from .factories import buffer_cell, inverter, nand_gate, nor_gate

__all__ = ["CellLibrary", "default_library"]


class CellLibrary:
    """A collection of standard cells in a single technology."""

    def __init__(self, name: str, technology: Technology) -> None:
        self.name = name
        self.technology = technology
        self._cells: Dict[str, StandardCell] = {}

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #

    @staticmethod
    def _canonical(name: str) -> str:
        return name.strip().upper()

    def add(self, cell: StandardCell, overwrite: bool = False) -> None:
        """Add a cell; names are case-insensitive and must be unique."""
        if cell.technology is not self.technology and cell.technology.name != self.technology.name:
            raise CellError(
                f"cell {cell.name} belongs to technology {cell.technology.name!r}, "
                f"library {self.name!r} is for {self.technology.name!r}"
            )
        key = self._canonical(cell.name)
        if key in self._cells and not overwrite:
            raise CellError(f"cell {cell.name!r} already exists in library {self.name!r}")
        self._cells[key] = cell

    def get(self, name: str) -> StandardCell:
        """Look up a cell by name (case-insensitive).

        Bare gate names without a drive suffix resolve to the X1 variant,
        so ``"NAND3"`` finds ``"NAND3_X1"``; this is the form the ring
        configurations use.
        """
        key = self._canonical(name)
        if key in self._cells:
            return self._cells[key]
        with_drive = f"{key}_X1"
        if with_drive in self._cells:
            return self._cells[with_drive]
        raise CellError(
            f"library {self.name!r} has no cell named {name!r}; "
            f"available: {', '.join(sorted(self._cells))}"
        )

    def __contains__(self, name: str) -> bool:
        key = self._canonical(name)
        return key in self._cells or f"{key}_X1" in self._cells

    def __iter__(self) -> Iterator[StandardCell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def names(self) -> List[str]:
        """Sorted cell names."""
        return sorted(self._cells)

    def copy(self) -> "CellLibrary":
        """A new library holding the same cells; adding to one leaves the other."""
        library = CellLibrary(self.name, self.technology)
        library._cells = dict(self._cells)
        return library

    def inverting_cells(self) -> List[StandardCell]:
        """All cells usable as a ring-oscillator stage."""
        return [cell for cell in self._cells.values() if cell.topology.inverting]

    def describe(self) -> str:
        """Multi-line human-readable listing of the library."""
        lines = [f"Library {self.name} ({self.technology.name}, {len(self)} cells)"]
        for name in self.names():
            lines.append("  " + self._cells[name].describe())
        return "\n".join(lines)


def default_library(
    tech: Technology,
    drives: Iterable[int] = (1, 2),
    max_fan_in: int = 4,
    name: Optional[str] = None,
) -> CellLibrary:
    """Build the default library for a technology.

    Contains INV, NAND2..NAND``max_fan_in``, NOR2..NOR``max_fan_in`` and
    BUF at the requested drive strengths — the cell set the paper's
    Fig. 3 configurations draw from.
    """
    max_fan_in = integer(max_fan_in, "max_fan_in", CellError, at_least=2)
    library = CellLibrary(name or f"stdcells_{tech.name}", tech)
    for drive in drives:
        library.add(inverter(tech, drive=drive))
        library.add(buffer_cell(tech, drive=drive))
        for fan_in in range(2, max_fan_in + 1):
            library.add(nand_gate(tech, fan_in=fan_in, drive=drive))
            library.add(nor_gate(tech, fan_in=fan_in, drive=drive))
    return library
