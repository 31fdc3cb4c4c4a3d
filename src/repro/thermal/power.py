"""Power maps: dissipated power discretised on the thermal grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..fields import integer, real
from ..tech.parameters import TechnologyError
from .floorplan import Floorplan

__all__ = ["PowerMap"]


@dataclass
class PowerMap:
    """Power dissipation on a regular (ny, nx) grid over the die.

    Attributes
    ----------
    width_mm / height_mm:
        Die dimensions the grid covers.
    values_w:
        Array of shape ``(ny, nx)`` with the power (watts) dissipated in
        each grid cell.

    A dimension that is not positive and finite, a resolution (``ny``
    rows, ``nx`` columns) that is not an integer >= 2, and a negative or
    non-finite power value raise :class:`TechnologyError` naming the
    field, as :class:`ThermalGrid` does for its own.
    """

    width_mm: float
    height_mm: float
    values_w: np.ndarray

    def __post_init__(self) -> None:
        self.width_mm = real(self.width_mm, "width_mm", TechnologyError, above=0.0)
        self.height_mm = real(self.height_mm, "height_mm", TechnologyError, above=0.0)
        values = np.asarray(self.values_w, dtype=float)
        if values.ndim != 2:
            raise TechnologyError("power map must be two-dimensional")
        integer(values.shape[0], "ny", TechnologyError, at_least=2)
        integer(values.shape[1], "nx", TechnologyError, at_least=2)
        if not np.isfinite(values).all():
            raise TechnologyError("values_w has non-finite entries")
        if np.any(values < 0.0):
            raise TechnologyError("power values must be non-negative")
        self.values_w = values

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zeros(cls, width_mm: float, height_mm: float, nx: int, ny: int) -> "PowerMap":
        """An all-zero power map of the requested resolution."""
        nx = integer(nx, "nx", TechnologyError, at_least=2)
        ny = integer(ny, "ny", TechnologyError, at_least=2)
        return cls(width_mm, height_mm, np.zeros((ny, nx)))

    @classmethod
    def from_floorplan(cls, floorplan: Floorplan, nx: int = 32, ny: int = 32) -> "PowerMap":
        """Rasterise the floorplan's blocks onto a grid.

        Each block's power is distributed uniformly over the grid cells
        whose centres fall inside the block (edges inclusive).
        """
        power = cls.zeros(floorplan.width_mm, floorplan.height_mm, nx, ny)
        xs = (np.arange(power.nx) + 0.5) * power.cell_width_mm
        ys = (np.arange(power.ny) + 0.5) * power.cell_height_mm
        for block in floorplan.blocks():
            inside_x = (block.x_mm <= xs) & (xs <= block.x_mm + block.width_mm)
            inside_y = (block.y_mm <= ys) & (ys <= block.y_mm + block.height_mm)
            mask = np.outer(inside_y, inside_x)
            covered = int(np.count_nonzero(mask))
            if covered == 0:
                # Block smaller than a cell: dump its power into the cell
                # containing its centre.
                column, row = power.cell_index(*block.center)
                power.values_w[row, column] += block.power_w
            else:
                power.values_w[mask] += block.power_w / covered
        return power

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #

    @property
    def nx(self) -> int:
        return int(self.values_w.shape[1])

    @property
    def ny(self) -> int:
        return int(self.values_w.shape[0])

    @property
    def cell_width_mm(self) -> float:
        return self.width_mm / self.nx

    @property
    def cell_height_mm(self) -> float:
        return self.height_mm / self.ny

    def cell_index(self, x_mm: float, y_mm: float) -> Tuple[int, int]:
        """(column, row) of the cell containing a point."""
        if not (0.0 <= x_mm <= self.width_mm and 0.0 <= y_mm <= self.height_mm):
            raise TechnologyError(f"point ({x_mm}, {y_mm}) mm lies outside the die")
        column = min(int(x_mm / self.cell_width_mm), self.nx - 1)
        row = min(int(y_mm / self.cell_height_mm), self.ny - 1)
        return column, row

    # ------------------------------------------------------------------ #
    # modification and queries
    # ------------------------------------------------------------------ #

    def add_point_source(self, x_mm: float, y_mm: float, power_w: float) -> None:
        """Add a point heat source (e.g. a running ring oscillator)."""
        power_w = real(power_w, "power_w", TechnologyError, at_least=0.0)
        column, row = self.cell_index(x_mm, y_mm)
        self.values_w[row, column] += power_w

    def scaled(self, factor: float) -> "PowerMap":
        """A copy with every cell scaled by ``factor`` (activity scaling)."""
        factor = real(factor, "factor", TechnologyError, at_least=0.0)
        return PowerMap(self.width_mm, self.height_mm, self.values_w * factor)

    def copy(self) -> "PowerMap":
        return PowerMap(self.width_mm, self.height_mm, self.values_w.copy())

    def total_power_w(self) -> float:
        return float(np.sum(self.values_w))
