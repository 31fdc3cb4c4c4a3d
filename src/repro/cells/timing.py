"""NLDM-style timing tables.

Standard sign-off flows characterise each cell's delay on a grid of
operating conditions and interpolate at analysis time.  The same idea is
used here: :class:`TimingTable` stores tpHL/tpLH on a (temperature x
load) grid and answers queries by bilinear interpolation.  The smart
sensor's calibration logic uses such tables as its "datasheet" view of a
ring configuration, and the Liberty exporter serialises them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..tech.stacked import TechnologyArray
from .cell import CellError, StandardCell

__all__ = ["TimingTable", "characterize_cell"]


@dataclass(frozen=True)
class TimingTable:
    """Bilinear-interpolated delay surface for one cell.

    Attributes
    ----------
    cell_name:
        The characterised cell.
    temperatures_c:
        Strictly increasing grid of junction temperatures (deg C).
    loads_f:
        Strictly increasing grid of load capacitances (F).
    tphl_s / tplh_s:
        Delay grids of shape ``(len(temperatures_c), len(loads_f))``.
    """

    cell_name: str
    temperatures_c: np.ndarray
    loads_f: np.ndarray
    tphl_s: np.ndarray
    tplh_s: np.ndarray

    def __post_init__(self) -> None:
        temps = np.asarray(self.temperatures_c, dtype=float)
        loads = np.asarray(self.loads_f, dtype=float)
        tphl = np.asarray(self.tphl_s, dtype=float)
        tplh = np.asarray(self.tplh_s, dtype=float)
        if temps.ndim != 1 or loads.ndim != 1:
            raise CellError("timing-table axes must be one-dimensional")
        if temps.size < 2 or loads.size < 2:
            raise CellError("timing tables need at least a 2x2 grid")
        if np.any(np.diff(temps) <= 0) or np.any(np.diff(loads) <= 0):
            raise CellError("timing-table axes must be strictly increasing")
        expected = (temps.size, loads.size)
        if tphl.shape != expected or tplh.shape != expected:
            raise CellError(
                f"delay grids must have shape {expected}, got {tphl.shape} / {tplh.shape}"
            )
        if np.any(tphl <= 0) or np.any(tplh <= 0):
            raise CellError("characterised delays must be positive")
        object.__setattr__(self, "temperatures_c", temps)
        object.__setattr__(self, "loads_f", loads)
        object.__setattr__(self, "tphl_s", tphl)
        object.__setattr__(self, "tplh_s", tplh)

    def _interpolate(
        self,
        grid: np.ndarray,
        temperature_c: Union[float, np.ndarray],
        load_f: float,
    ) -> Union[float, np.ndarray]:
        temps = self.temperatures_c
        loads = self.loads_f
        if not loads[0] <= load_f <= loads[-1]:
            raise CellError(
                f"load {load_f} F outside the characterised range "
                f"[{loads[0]:.3e}, {loads[-1]:.3e}]"
            )
        li = int(np.searchsorted(loads, load_f, side="right") - 1)
        li = min(li, loads.size - 2)
        l0, l1 = loads[li], loads[li + 1]
        fl = (load_f - l0) / (l1 - l0)

        if isinstance(temperature_c, np.ndarray):
            # Vectorized bilinear interpolation over a temperature grid.
            query = temperature_c.astype(float)
            if np.any(query < temps[0]) or np.any(query > temps[-1]):
                raise CellError(
                    f"temperatures outside the characterised range "
                    f"[{temps[0]}, {temps[-1]}]"
                )
            ti = np.searchsorted(temps, query, side="right") - 1
            ti = np.minimum(ti, temps.size - 2)
            t0 = temps[ti]
            t1 = temps[ti + 1]
            ft = (query - t0) / (t1 - t0)
            v00 = grid[ti, li]
            v01 = grid[ti, li + 1]
            v10 = grid[ti + 1, li]
            v11 = grid[ti + 1, li + 1]
            return (
                v00 * (1 - ft) * (1 - fl)
                + v01 * (1 - ft) * fl
                + v10 * ft * (1 - fl)
                + v11 * ft * fl
            )

        temperature_c = float(temperature_c)
        if not temps[0] <= temperature_c <= temps[-1]:
            raise CellError(
                f"temperature {temperature_c} C outside the characterised range "
                f"[{temps[0]}, {temps[-1]}]"
            )
        return float(self._interpolate(grid, np.asarray([temperature_c]), load_f)[0])

    def tphl(
        self, temperature_c: Union[float, np.ndarray], load_f: float
    ) -> Union[float, np.ndarray]:
        """Interpolated high-to-low propagation delay (s).

        ``temperature_c`` may be an ndarray; the query is then evaluated
        for the whole grid in one vectorized call.
        """
        return self._interpolate(self.tphl_s, temperature_c, load_f)

    def tplh(
        self, temperature_c: Union[float, np.ndarray], load_f: float
    ) -> Union[float, np.ndarray]:
        """Interpolated low-to-high propagation delay (s)."""
        return self._interpolate(self.tplh_s, temperature_c, load_f)

    def pair_sum(
        self, temperature_c: Union[float, np.ndarray], load_f: float
    ) -> Union[float, np.ndarray]:
        """tpHL + tpLH at the query point(s)."""
        return self.tphl(temperature_c, load_f) + self.tplh(temperature_c, load_f)

    def temperature_sensitivity(self, load_f: float) -> float:
        """Average d(tpHL+tpLH)/dT (s/K) over the characterised range."""
        temps = self.temperatures_c
        first = self.pair_sum(float(temps[0]), load_f)
        last = self.pair_sum(float(temps[-1]), load_f)
        return (last - first) / float(temps[-1] - temps[0])


def characterize_cell(
    cell: StandardCell,
    temperatures_c: Sequence[float],
    loads_f: Optional[Sequence[float]] = None,
) -> TimingTable:
    """Characterise a cell with the analytical delay model.

    Parameters
    ----------
    cell:
        The cell to characterise.
    temperatures_c:
        Temperature grid (deg C); the paper's range is -50..150.
    loads_f:
        Load-capacitance grid; defaults to 1x..8x the cell's own input
        capacitance, which covers typical fan-outs.
    """
    if isinstance(cell.technology, TechnologyArray):
        raise CellError(
            f"cell {cell.name} is bound to a stacked technology population; "
            "timing tables describe one sample — unstack with "
            "TechnologyArray.technology_at(index) and re-bind the cell first"
        )
    temps = np.asarray(sorted(set(float(t) for t in temperatures_c)))
    if temps.size < 2:
        raise CellError("at least two characterisation temperatures are required")
    if loads_f is None:
        cin = cell.input_capacitance()
        loads = np.asarray([cin * factor for factor in (1.0, 2.0, 4.0, 8.0)])
    else:
        loads = np.asarray(sorted(set(float(c) for c in loads_f)))
        if loads.size < 2:
            raise CellError("at least two characterisation loads are required")

    # One broadcast evaluation of the whole (temperature x load) grid:
    # the (T, 1) temperature column against the (L,) load row produces
    # both delay surfaces in a single pass through the delay model.
    delays = cell.delays(temps[:, None], loads)
    return TimingTable(
        cell_name=cell.name,
        temperatures_c=temps,
        loads_f=loads,
        tphl_s=delays.tphl,
        tplh_s=delays.tplh,
    )
