"""Transistor-level optimisation: the Wp/Wn width-ratio sweep (Section 2).

The paper first shows (its Fig. 2) that the non-linearity of an
inverter-based ring can be minimised by choosing the PMOS/NMOS width
ratio — a *transistor-level* optimisation requiring a custom cell.  The
functions here reproduce that study: sweep the ratio, evaluate the
non-linearity of the resulting ring, and locate the optimum with a
scalar minimiser.  The result also sets the reference the *cell-level*
optimisation (:mod:`repro.optimize.cellmix`) is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.linearity import NonlinearityResult, nonlinearity
from ..cells.factories import inverter
from ..cells.library import CellLibrary
from ..fields import real
from ..oscillator.config import RingConfiguration
from ..oscillator.period import TemperatureResponse, analytical_response, default_temperature_grid
from ..oscillator.ring import RingOscillator
from ..tech.parameters import Technology, TechnologyError

__all__ = [
    "SizingPoint",
    "SizingSweepResult",
    "build_sized_ring",
    "sweep_width_ratio",
    "optimize_width_ratio",
    "PAPER_FIG2_RATIOS",
]

#: The Wp/Wn ratios marked in the paper's Fig. 2.
PAPER_FIG2_RATIOS = (1.75, 2.25, 3.0, 4.0)


@dataclass(frozen=True)
class SizingPoint:
    """Evaluation of one candidate width ratio."""

    width_ratio: float
    response: TemperatureResponse
    linearity: NonlinearityResult

    @property
    def max_abs_error_percent(self) -> float:
        return self.linearity.max_abs_error_percent


@dataclass(frozen=True)
class SizingSweepResult:
    """Full result of a Wp/Wn ratio sweep."""

    points: List[SizingPoint]
    stage_count: int
    nmos_width_um: float

    def best(self) -> SizingPoint:
        """The swept point with the smallest worst-case non-linearity."""
        return min(self.points, key=lambda point: point.max_abs_error_percent)

    def worst(self) -> SizingPoint:
        return max(self.points, key=lambda point: point.max_abs_error_percent)

    def ratios(self) -> np.ndarray:
        return np.asarray([point.width_ratio for point in self.points])

    def improvement_factor(self) -> float:
        """Worst-case error of the worst ratio over that of the best ratio."""
        best = self.best().max_abs_error_percent
        if best == 0.0:
            return float("inf")
        return self.worst().max_abs_error_percent / best


def build_sized_ring(
    technology: Technology,
    width_ratio: float,
    nmos_width_um: float = 1.05,
    stage_count: int = 5,
    wire_length_um: float = 2.0,
    external_load_f: float = 0.0,
    tap_stage: Optional[int] = None,
) -> RingOscillator:
    """Build an inverter ring with a custom (non-library) Wp/Wn ratio.

    ``wire_length_um``, ``external_load_f`` and ``tap_stage`` go to the
    :class:`~repro.oscillator.ring.RingOscillator` (same defaults).
    """
    width_ratio = real(width_ratio, "width_ratio", TechnologyError, above=0.0)
    nmos_width_um = real(nmos_width_um, "nmos_width_um", TechnologyError, above=0.0)
    custom = CellLibrary(f"sized_{technology.name}_{width_ratio:.3f}", technology)
    custom.add(
        inverter(
            technology,
            nmos_width_um=nmos_width_um,
            pmos_width_um=nmos_width_um * width_ratio,
            name="INV_SIZED",
        )
    )
    return RingOscillator(
        custom,
        RingConfiguration.uniform("INV_SIZED", stage_count),
        wire_length_um=wire_length_um,
        external_load_f=external_load_f,
        tap_stage=tap_stage,
    )


def sweep_width_ratio(
    technology: Technology,
    ratios: Sequence[float] = PAPER_FIG2_RATIOS,
    nmos_width_um: float = 1.05,
    stage_count: int = 5,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> SizingSweepResult:
    """Evaluate the ring non-linearity at each candidate Wp/Wn ratio.

    Parameters
    ----------
    technology:
        CMOS technology.
    ratios:
        Width ratios to evaluate (the paper's Fig. 2 uses 1.75/2.25/3/4).
    nmos_width_um:
        Fixed NMOS width; the PMOS width is the ratio times this.
    stage_count:
        Ring length (5 in the paper).
    temperatures_c:
        Sweep grid; the paper's -50..150 range by default.
    fit_method:
        Line-fit convention for the non-linearity metric.
    """
    if not ratios:
        raise TechnologyError("at least one ratio is required")
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    # The declarative form of this sweep: one width_ratio axis over one
    # temperature axis, lowered by the sweep planner onto the same
    # build_sized_ring + vectorized period_series evaluation.
    from ..engine.sweep import Axis, Sweep

    result = (
        Sweep(technology=technology)
        .over(
            Axis.width_ratio(
                [float(r) for r in ratios],
                nmos_width_um=nmos_width_um,
                stage_count=stage_count,
            )
        )
        .over(Axis.temperature(temps))
        .run()
    )
    label = RingConfiguration.uniform("INV_SIZED", stage_count).label()
    points: List[SizingPoint] = []
    for ratio in result.coordinates("width_ratio"):
        response = TemperatureResponse(
            label, temps, result.select(width_ratio=ratio).values
        )
        points.append(
            SizingPoint(
                width_ratio=float(ratio),
                response=response,
                linearity=nonlinearity(response, fit_method),
            )
        )
    return SizingSweepResult(points=points, stage_count=stage_count, nmos_width_um=nmos_width_um)


def optimize_width_ratio(
    technology: Technology,
    ratio_bounds: Sequence[float] = (1.0, 6.0),
    nmos_width_um: float = 1.05,
    stage_count: int = 5,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> SizingPoint:
    """Find the Wp/Wn ratio minimising the worst-case non-linearity.

    Uses bounded scalar minimisation; the objective is smooth in the
    ratio so this converges in a handful of evaluations.
    """
    # Imported here, not at module level: scipy.optimize costs ~0.5 s and
    # the experiments runner imports this module for every experiment.
    from scipy.optimize import minimize_scalar

    if len(ratio_bounds) != 2 or ratio_bounds[0] >= ratio_bounds[1]:
        raise TechnologyError("ratio_bounds must be an increasing (low, high) pair")
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )

    def objective(ratio: float) -> float:
        ring = build_sized_ring(technology, float(ratio), nmos_width_um, stage_count)
        response = analytical_response(ring, temps)
        return nonlinearity(response, fit_method).max_abs_error_percent

    result = minimize_scalar(
        objective, bounds=tuple(ratio_bounds), method="bounded",
        options={"xatol": 1e-3},
    )
    best_ratio = float(result.x)
    ring = build_sized_ring(technology, best_ratio, nmos_width_um, stage_count)
    response = analytical_response(ring, temps)
    return SizingPoint(
        width_ratio=best_ratio,
        response=response,
        linearity=nonlinearity(response, fit_method),
    )
