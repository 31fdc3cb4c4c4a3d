"""Equivalent RC network of the die (compact thermal model).

The junction temperature the ring-oscillator sensor reads is set by the
power map and the die's heat-spreading behaviour.  The standard compact
model — the thermal analogue of an electrical RC network — is used:

* the die is discretised into the same grid as the power map,
* each cell has a *vertical* thermal conductance to the ambient
  (representing the die, die-attach, package and heatsink path),
* adjacent cells are connected by *lateral* conductances through the
  silicon, which is what spreads hotspots, and
* each cell has a heat capacity, giving the transient time constants
  needed by the self-heating and duty-cycling studies.

The grid is pure geometry plus its stencil: no matrix is assembled.
:meth:`ThermalGrid.apply_conductance` applies the conductance operator
``G`` by array slicing, and the heat capacity is one scalar per cell.

The defaults correspond to a package with a forced-air heatsink
(junction-to-ambient around 4 K/W for an 8x8 mm die), representative of
the 10-15 W processors of the 0.35 um era the paper targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from ..fields import integer, real
from ..tech.parameters import TechnologyError
from .power import PowerMap

__all__ = ["ThermalGridParameters", "ThermalGrid", "TemperatureMap", "BilinearSites"]


class BilinearSites:
    """The bilinear read-out of fixed die points on an ``ny x nx`` grid.

    Built once per (grid, points): it checks that every point lies on
    the die and keeps each point's lower-left cell-centre indices
    ``x0``/``y0`` and its weights ``tx``/``ty`` and ``1 - tx``/``1 - ty``,
    so a read is four gathers and the blend.
    :meth:`TemperatureMap.sample_points` is :meth:`sample` on one field,
    so every bilinear read in the package is this arithmetic.

    ``xs_mm`` / ``ys_mm`` are coordinate arrays of a common shape
    ``pts``; a point off the die (or NaN) raises :class:`TechnologyError`.
    """

    def __init__(
        self, width_mm: float, height_mm: float, nx: int, ny: int, xs_mm, ys_mm
    ) -> None:
        xs = np.asarray(xs_mm, dtype=float)
        ys = np.asarray(ys_mm, dtype=float)
        if xs.shape != ys.shape:
            raise TechnologyError("x and y coordinate arrays must match in shape")
        if not (
            np.all((xs >= 0.0) & (xs <= width_mm))
            and np.all((ys >= 0.0) & (ys <= height_mm))
        ):
            raise TechnologyError("a sample point lies outside the die")
        # Continuous cell-centre coordinates.
        cell_w = width_mm / nx
        cell_h = height_mm / ny
        fx = xs / cell_w - 0.5
        fy = ys / cell_h - 0.5
        self.x0 = np.clip(np.floor(fx), 0, nx - 2).astype(int)
        self.y0 = np.clip(np.floor(fy), 0, ny - 2).astype(int)
        self.tx = np.clip(fx - self.x0, 0.0, 1.0)
        self.ty = np.clip(fy - self.y0, 0.0, 1.0)
        self.one_minus_tx = 1 - self.tx
        self.one_minus_ty = 1 - self.ty

    def sample(self, values, offset: Optional[float] = None) -> np.ndarray:
        """Interpolated values of an ``(..., ny, nx)`` field stack: ``(..., *pts)``.

        With ``offset`` the read is of ``values + offset`` without
        forming that stack: the offset is added to the four gathered
        neighbours of each point, which gives the same bits (the DTM
        loop reads its rise planes plus the ambient this way).
        """
        values = np.asarray(values, dtype=float)
        x0, y0 = self.x0, self.y0
        corners = (
            values[..., y0, x0],
            values[..., y0, x0 + 1],
            values[..., y0 + 1, x0],
            values[..., y0 + 1, x0 + 1],
        )
        if offset is not None:
            corners = tuple(corner + offset for corner in corners)
        v00, v01, v10, v11 = corners
        return (
            v00 * self.one_minus_tx * self.one_minus_ty
            + v01 * self.tx * self.one_minus_ty
            + v10 * self.one_minus_tx * self.ty
            + v11 * self.tx * self.ty
        )


@dataclass(frozen=True)
class ThermalGridParameters:
    """Physical parameters of the compact thermal model.

    Attributes
    ----------
    die_thickness_mm:
        Silicon thickness available for lateral spreading.
    silicon_conductivity_w_per_mk:
        Thermal conductivity of silicon (~150 W/m/K at room temperature).
    package_resistance_k_mm2_per_w:
        Area-specific junction-to-ambient resistance.  The whole-die
        junction-to-ambient resistance is this value divided by the die
        area; 250 K.mm^2/W over an 8x8 mm die gives ~3.9 K/W, typical for
        a forced-air heatsink on a 10-15 W processor of the 0.35 um era.
    volumetric_heat_capacity_j_per_mm3k:
        Volumetric heat capacity of silicon (1.63e-3 J/mm^3/K).

    Every attribute must be positive and finite; anything else raises
    :class:`TechnologyError` naming the attribute.
    """

    die_thickness_mm: float = 0.5
    silicon_conductivity_w_per_mk: float = 150.0
    package_resistance_k_mm2_per_w: float = 250.0
    volumetric_heat_capacity_j_per_mm3k: float = 1.63e-3

    def __post_init__(self) -> None:
        for field in fields(self):
            value = real(getattr(self, field.name), field.name, TechnologyError, above=0.0)
            object.__setattr__(self, field.name, value)


@dataclass(frozen=True)
class TemperatureMap:
    """Temperatures (deg C) on the thermal grid."""

    width_mm: float
    height_mm: float
    values_c: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values_c, dtype=float)
        if values.ndim != 2:
            raise TechnologyError("temperature map must be two-dimensional")
        object.__setattr__(self, "values_c", values)

    @property
    def nx(self) -> int:
        return int(self.values_c.shape[1])

    @property
    def ny(self) -> int:
        return int(self.values_c.shape[0])

    def max_c(self) -> float:
        return float(np.max(self.values_c))

    def min_c(self) -> float:
        return float(np.min(self.values_c))

    def mean_c(self) -> float:
        return float(np.mean(self.values_c))

    def gradient_c(self) -> float:
        """Largest on-die temperature difference."""
        return self.max_c() - self.min_c()

    def sample(self, x_mm: float, y_mm: float) -> float:
        """Bilinearly interpolated temperature at a point on the die."""
        if not (0.0 <= x_mm <= self.width_mm and 0.0 <= y_mm <= self.height_mm):
            raise TechnologyError(f"point ({x_mm}, {y_mm}) mm lies outside the die")
        return float(self.sample_points(x_mm, y_mm))

    def sample_points(self, xs_mm, ys_mm) -> np.ndarray:
        """Vectorized bilinear interpolation over arrays of die coordinates.

        One gather for the whole point set — the form the sensor-bank
        scan uses to read every site's junction temperature from a
        solved field at once.  The scalar :meth:`sample` is this with a
        zero-dimensional point.
        """
        return BilinearSites(
            self.width_mm, self.height_mm, self.nx, self.ny, xs_mm, ys_mm
        ).sample(self.values_c)

    def hotspot_location(self) -> Tuple[float, float]:
        """(x, y) millimetre coordinates of the hottest cell centre."""
        row, column = np.unravel_index(int(np.argmax(self.values_c)), self.values_c.shape)
        cell_w = self.width_mm / self.nx
        cell_h = self.height_mm / self.ny
        return ((column + 0.5) * cell_w, (row + 0.5) * cell_h)


class ThermalGrid:
    """Discretised thermal RC network matching a power map's grid.

    Parameters
    ----------
    width_mm / height_mm:
        Die dimensions.
    nx / ny:
        Grid resolution (must match the power maps used with it).
    parameters:
        Physical parameters of the compact model.

    Raises :class:`TechnologyError` naming the field when a dimension is
    not positive and finite or a resolution is not an integer >= 2.
    """

    def __init__(
        self,
        width_mm: float,
        height_mm: float,
        nx: int,
        ny: int,
        parameters: ThermalGridParameters = ThermalGridParameters(),
    ) -> None:
        self.width_mm = real(width_mm, "width_mm", TechnologyError, above=0.0)
        self.height_mm = real(height_mm, "height_mm", TechnologyError, above=0.0)
        self.nx = integer(nx, "nx", TechnologyError, at_least=2)
        self.ny = integer(ny, "ny", TechnologyError, at_least=2)
        self.parameters = parameters
        for name, value in (
            ("vertical conductance", self.vertical_conductance_w_per_k()),
            ("lateral conductance", self.lateral_conductance_w_per_k(True)),
            ("lateral conductance", self.lateral_conductance_w_per_k(False)),
            ("cell heat capacity", self.cell_heat_capacity_j_per_k()),
        ):
            if not (math.isfinite(value) and value > 0.0):
                raise TechnologyError(
                    f"the {name} of a {self.ny}x{self.nx} cell is {value!r}; "
                    "the die dimensions and parameters over- or underflow"
                )

    @classmethod
    def for_power_map(
        cls, power: PowerMap, parameters: ThermalGridParameters = ThermalGridParameters()
    ) -> "ThermalGrid":
        """Build a grid matching a power map's geometry and resolution."""
        return cls(power.width_mm, power.height_mm, power.nx, power.ny, parameters)

    # ------------------------------------------------------------------ #
    # cell geometry and conductances
    # ------------------------------------------------------------------ #

    @property
    def cell_width_mm(self) -> float:
        return self.width_mm / self.nx

    @property
    def cell_height_mm(self) -> float:
        return self.height_mm / self.ny

    @property
    def cell_area_mm2(self) -> float:
        return self.cell_width_mm * self.cell_height_mm

    def vertical_conductance_w_per_k(self) -> float:
        """Cell-to-ambient conductance through the package path."""
        return self.cell_area_mm2 / self.parameters.package_resistance_k_mm2_per_w

    def lateral_conductance_w_per_k(self, horizontal: bool) -> float:
        """Cell-to-neighbour conductance through the silicon."""
        k_si = self.parameters.silicon_conductivity_w_per_mk / 1000.0  # W/mm/K
        thickness = self.parameters.die_thickness_mm
        if horizontal:
            cross_section = self.cell_height_mm * thickness
            length = self.cell_width_mm
        else:
            cross_section = self.cell_width_mm * thickness
            length = self.cell_height_mm
        return k_si * cross_section / length

    def cell_heat_capacity_j_per_k(self) -> float:
        """Heat capacity of one grid cell."""
        volume = self.cell_area_mm2 * self.parameters.die_thickness_mm
        return volume * self.parameters.volumetric_heat_capacity_j_per_mm3k

    # ------------------------------------------------------------------ #
    # the stencil
    # ------------------------------------------------------------------ #

    def apply_conductance(self, x) -> np.ndarray:
        """``G @ x``: the five-point stencil with adiabatic edges.

        ``G * dT = P`` is the steady-state balance: each cell loses heat
        through its vertical conductance to ambient and through the
        lateral conductance to each of its (up to four) neighbours.
        ``x`` is an ``(n,)`` vector or an ``(n, k)`` stack; a stack is
        read as ``k`` ``(ny, nx)`` planes, so a column-major stack needs
        no copy (a C-ordered one costs one transposing copy).  Returns
        ``x``'s shape with contiguous columns.
        """
        x = np.asarray(x, dtype=float)
        planes = np.ascontiguousarray(x.T).reshape(x.shape[1:] + (self.ny, self.nx))
        result = self.vertical_conductance_w_per_k() * planes
        # Heat flowing across each horizontal / vertical edge.
        across = self.lateral_conductance_w_per_k(True) * (
            planes[..., :, 1:] - planes[..., :, :-1]
        )
        result[..., :, :-1] -= across
        result[..., :, 1:] += across
        across = self.lateral_conductance_w_per_k(False) * (
            planes[..., 1:, :] - planes[..., :-1, :]
        )
        result[..., :-1, :] -= across
        result[..., 1:, :] += across
        return result.reshape(x.shape[::-1]).T

    def junction_to_ambient_resistance_k_per_w(self) -> float:
        """Effective whole-die junction-to-ambient resistance.

        Computed for uniform power injection; a quick sanity figure for
        comparing the model against package datasheet values.
        """
        total_vertical = self.vertical_conductance_w_per_k() * self.nx * self.ny
        return 1.0 / total_vertical

    def check_power_map(self, power: PowerMap) -> None:
        """Validate that a power map matches this grid's geometry."""
        if power.nx != self.nx or power.ny != self.ny:
            raise TechnologyError(
                f"power map resolution {power.ny}x{power.nx} does not match the "
                f"thermal grid {self.ny}x{self.nx}"
            )
        if abs(power.width_mm - self.width_mm) > 1e-9 or abs(power.height_mm - self.height_mm) > 1e-9:
            raise TechnologyError("power map dimensions do not match the thermal grid")
