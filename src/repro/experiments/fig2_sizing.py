"""Experiment FIG2: non-linearity versus PMOS/NMOS width ratio.

Reproduces the paper's Fig. 2: the non-linearity error curves of a
5-stage inverter ring for several Wp/Wn ratios over -50 C .. 150 C, plus
the claim that an adequate ratio pushes the worst-case error below
roughly 0.2 % of full scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..oscillator.period import paper_temperature_grid
from ..optimize.sizing import (
    PAPER_FIG2_RATIOS,
    SizingPoint,
    SizingSweepResult,
    optimize_width_ratio,
    sweep_width_ratio,
)
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology

__all__ = ["Fig2Result", "run_fig2"]


@dataclass(frozen=True)
class Fig2Result:
    """Outcome of the Fig. 2 reproduction."""

    technology_name: str
    sweep: SizingSweepResult
    optimum: SizingPoint
    temperatures_c: np.ndarray

    def best_ratio(self) -> float:
        return self.sweep.best().width_ratio

    def format_table(self) -> str:
        """Text table in the shape of the paper's figure data."""
        temps = self.temperatures_c
        header = "ratio   " + "".join(f"{t:>8.0f}C" for t in temps) + "   max|NL|%"
        lines = ["FIG2 - non-linearity error vs Wp/Wn ratio (5-stage inverter ring)", header]
        for point in self.sweep.points:
            errors = point.linearity.error_percent
            row = f"{point.width_ratio:5.2f}  " + "".join(f"{e:+9.3f}" for e in errors)
            row += f"   {point.max_abs_error_percent:8.3f}"
            lines.append(row)
        lines.append(
            f"continuous optimum: ratio={self.optimum.width_ratio:.2f}, "
            f"max|NL|={self.optimum.max_abs_error_percent:.3f} %"
        )
        return "\n".join(lines)


def run_fig2(
    technology: Optional[Technology] = None,
    ratios: Sequence[float] = PAPER_FIG2_RATIOS,
    temperatures_c: Optional[Sequence[float]] = None,
    stage_count: int = 5,
) -> Fig2Result:
    """Run the Fig. 2 experiment.

    Parameters
    ----------
    technology:
        CMOS technology (0.35 um default).
    ratios:
        Wp/Wn ratios to report (the paper's four by default).
    temperatures_c:
        Evaluation temperatures; the paper's nine-point grid by default.
    stage_count:
        Ring length.

    The sweep is declared on the named ``width_ratio`` x
    ``temperature`` axes of the sweep API (see
    :func:`repro.optimize.sizing.sweep_width_ratio`).
    """
    tech = technology if technology is not None else CMOS035
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else paper_temperature_grid()
    )
    sweep = sweep_width_ratio(
        tech, ratios=ratios, stage_count=stage_count, temperatures_c=temps
    )
    optimum = optimize_width_ratio(
        tech, stage_count=stage_count, temperatures_c=temps
    )
    return Fig2Result(
        technology_name=tech.name,
        sweep=sweep,
        optimum=optimum,
        temperatures_c=temps,
    )
