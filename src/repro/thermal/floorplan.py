"""Die floorplan: functional blocks, their power, and sensor sites.

The thermal-mapping feature of the smart unit only makes sense on a die
that actually has temperature gradients.  The floorplan model captures
the minimum needed to create realistic gradients: the die outline, a set
of rectangular functional blocks with their dissipated power (the
workload), and the locations where ring-oscillator sensors are placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..fields import integer, real
from ..tech.parameters import TechnologyError

__all__ = ["FunctionalBlock", "SensorSite", "Floorplan"]


#: The range of each :class:`FunctionalBlock` number (a corner only
#: needs to be finite; :meth:`Floorplan.add_block` places it on the die).
_BLOCK_BOUNDS = {
    "x_mm": {},
    "y_mm": {},
    "width_mm": {"above": 0.0},
    "height_mm": {"above": 0.0},
    "power_w": {"at_least": 0.0},
}


@dataclass(frozen=True)
class FunctionalBlock:
    """A rectangular block of logic with uniform power density.

    Coordinates are millimetres with the origin at the die's lower-left
    corner; ``power_w`` is the total power dissipated by the block.
    """

    name: str
    x_mm: float
    y_mm: float
    width_mm: float
    height_mm: float
    power_w: float

    def __post_init__(self) -> None:
        for field_name, bounds in _BLOCK_BOUNDS.items():
            real(getattr(self, field_name), f"{self.name}.{field_name}", TechnologyError, **bounds)

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x_mm + 0.5 * self.width_mm, self.y_mm + 0.5 * self.height_mm)


@dataclass(frozen=True)
class SensorSite:
    """A named location where a ring-oscillator sensor is placed."""

    name: str
    x_mm: float
    y_mm: float


class Floorplan:
    """Die outline plus functional blocks plus sensor sites.

    Parameters
    ----------
    width_mm / height_mm:
        Die dimensions.
    name:
        Identifier used in reports.
    """

    def __init__(self, width_mm: float, height_mm: float, name: str = "die") -> None:
        self.width_mm = real(width_mm, "width_mm", TechnologyError, above=0.0)
        self.height_mm = real(height_mm, "height_mm", TechnologyError, above=0.0)
        self.name = name
        self._blocks: Dict[str, FunctionalBlock] = {}
        self._sensor_sites: Dict[str, SensorSite] = {}

    # ------------------------------------------------------------------ #
    # blocks
    # ------------------------------------------------------------------ #

    def add_block(self, block: FunctionalBlock) -> None:
        """Add a functional block; it must fit inside the die."""
        if block.name in self._blocks:
            raise TechnologyError(f"block {block.name!r} already exists")
        if (
            block.x_mm < 0.0
            or block.y_mm < 0.0
            or block.x_mm + block.width_mm > self.width_mm + 1e-9
            or block.y_mm + block.height_mm > self.height_mm + 1e-9
        ):
            raise TechnologyError(f"block {block.name!r} extends outside the die")
        self._blocks[block.name] = block

    def blocks(self) -> List[FunctionalBlock]:
        return list(self._blocks.values())

    def block(self, name: str) -> FunctionalBlock:
        try:
            return self._blocks[name]
        except KeyError as exc:
            raise TechnologyError(f"no block named {name!r}") from exc

    def total_power_w(self) -> float:
        """Total power dissipated by all blocks."""
        return sum(block.power_w for block in self._blocks.values())

    # ------------------------------------------------------------------ #
    # sensor sites
    # ------------------------------------------------------------------ #

    def add_sensor_site(self, site: SensorSite) -> None:
        """Register a sensor location; it must lie inside the die."""
        if site.name in self._sensor_sites:
            raise TechnologyError(f"sensor site {site.name!r} already exists")
        if not (0.0 <= site.x_mm <= self.width_mm and 0.0 <= site.y_mm <= self.height_mm):
            raise TechnologyError(f"sensor site {site.name!r} lies outside the die")
        self._sensor_sites[site.name] = site

    def add_sensor_grid(self, columns: int, rows: int, prefix: str = "s") -> List[SensorSite]:
        """Place a regular grid of sensor sites (the usual mapping layout)."""
        columns = integer(columns, "columns", TechnologyError, at_least=1)
        rows = integer(rows, "rows", TechnologyError, at_least=1)
        sites: List[SensorSite] = []
        for row in range(rows):
            for column in range(columns):
                x = (column + 0.5) / columns * self.width_mm
                y = (row + 0.5) / rows * self.height_mm
                site = SensorSite(name=f"{prefix}{row}_{column}", x_mm=x, y_mm=y)
                self.add_sensor_site(site)
                sites.append(site)
        return sites

    def sensor_sites(self) -> List[SensorSite]:
        return list(self._sensor_sites.values())

    def sensor_site(self, name: str) -> SensorSite:
        try:
            return self._sensor_sites[name]
        except KeyError as exc:
            raise TechnologyError(f"no sensor site named {name!r}") from exc

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def example_processor(cls, scale_power: float = 1.0) -> "Floorplan":
        """A small processor-like floorplan used by examples and benches.

        Core, cache, and I/O blocks with a strongly non-uniform power
        distribution, producing the hotspot-plus-cool-corner pattern the
        paper's thermal-mapping feature targets.
        """
        plan = cls(width_mm=8.0, height_mm=8.0, name="example_processor")
        plan.add_block(FunctionalBlock("core0", 0.5, 4.5, 3.0, 3.0, 6.0 * scale_power))
        plan.add_block(FunctionalBlock("core1", 4.5, 4.5, 3.0, 3.0, 4.0 * scale_power))
        plan.add_block(FunctionalBlock("l2_cache", 0.5, 0.5, 5.0, 3.0, 1.5 * scale_power))
        plan.add_block(FunctionalBlock("io_ring", 6.0, 0.5, 1.5, 3.0, 0.8 * scale_power))
        plan.add_block(FunctionalBlock("fpu", 3.8, 4.6, 0.6, 2.8, 2.2 * scale_power))
        return plan
