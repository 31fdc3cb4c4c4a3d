"""Experiment STAGES: linearity versus number of ring stages.

The paper states that the non-linearity depends only weakly on the
number of inverting stages — rings with 5, 9 or 21 stages behave
similarly — so the stage count can be chosen for period/area/readout
convenience rather than linearity.  This experiment quantifies that
claim: the absolute period scales with the stage count while the
normalised non-linearity stays essentially unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.linearity import NonlinearityResult, nonlinearity
from ..cells.library import CellLibrary, default_library
from ..oscillator.config import RingConfiguration
from ..oscillator.period import (
    TemperatureResponse,
    analytical_response,
    default_temperature_grid,
)
from ..oscillator.ring import RingOscillator
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology, TechnologyError

__all__ = ["StageCountPoint", "StageCountResult", "run_stage_count"]

#: Stage counts quoted by the paper.
PAPER_STAGE_COUNTS = (5, 9, 21)


@dataclass(frozen=True)
class StageCountPoint:
    """Evaluation of one ring length."""

    stage_count: int
    response: TemperatureResponse
    linearity: NonlinearityResult
    period_at_25c_s: float

    @property
    def max_abs_error_percent(self) -> float:
        return self.linearity.max_abs_error_percent


@dataclass(frozen=True)
class StageCountResult:
    """Outcome of the stage-count study."""

    technology_name: str
    cell_name: str
    points: List[StageCountPoint]

    def nonlinearity_spread_percent(self) -> float:
        """Spread of the worst-case non-linearity across stage counts."""
        errors = [point.max_abs_error_percent for point in self.points]
        return max(errors) - min(errors)

    def period_scaling_error(self) -> float:
        """How far the period deviates from proportional-to-stage-count.

        Returns the worst relative deviation of period/stage_count from
        its mean — close to zero when the period simply scales with N.
        """
        per_stage = np.asarray(
            [point.period_at_25c_s / point.stage_count for point in self.points]
        )
        mean = float(np.mean(per_stage))
        return float(np.max(np.abs(per_stage - mean)) / mean)

    def format_table(self) -> str:
        lines = [
            "STAGES - linearity vs number of stages (" + self.cell_name + " ring)",
            "stages   period@25C (ps)   max|NL| (%)   sensitivity (ps/K)",
        ]
        for point in self.points:
            lines.append(
                f"{point.stage_count:6d}   {point.period_at_25c_s * 1e12:15.1f}   "
                f"{point.max_abs_error_percent:11.3f}   "
                f"{point.response.mean_sensitivity() * 1e12:18.4f}"
            )
        lines.append(
            f"non-linearity spread across stage counts: "
            f"{self.nonlinearity_spread_percent():.4f} % of full scale"
        )
        return "\n".join(lines)


def run_stage_count(
    technology: Optional[Technology] = None,
    stage_counts: Sequence[int] = PAPER_STAGE_COUNTS,
    cell_name: str = "INV",
    temperatures_c: Optional[Sequence[float]] = None,
    library: Optional[CellLibrary] = None,
) -> StageCountResult:
    """Run the stage-count study.

    Parameters
    ----------
    technology:
        CMOS technology (0.35 um default).
    stage_counts:
        Ring lengths to evaluate (must all be odd).
    cell_name:
        Library cell used for every stage.
    temperatures_c:
        Sweep grid.
    library:
        Cell library override.
    """
    tech = technology if technology is not None else CMOS035
    lib = library if library is not None else default_library(tech)
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    if not stage_counts:
        raise TechnologyError("at least one stage count is required")
    points: List[StageCountPoint] = []
    for count in stage_counts:
        ring = RingOscillator(lib, RingConfiguration.uniform(cell_name, int(count)))
        response = analytical_response(ring, temps)
        points.append(
            StageCountPoint(
                stage_count=int(count),
                response=response,
                linearity=nonlinearity(response),
                period_at_25c_s=ring.period(25.0),
            )
        )
    return StageCountResult(
        technology_name=tech.name, cell_name=cell_name.upper(), points=points
    )
