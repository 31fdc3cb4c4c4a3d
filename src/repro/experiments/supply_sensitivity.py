"""Experiment EXT-SUPPLY: supply-voltage cross-sensitivity of the sensor.

Not in the paper — an extension every user of a delay-based sensor needs:
how much supply noise can the sensor tolerate before it corrupts the
temperature reading by more than the non-linearity budget, and does the
cell-mix choice change that trade-off?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.supply import SupplySensitivityReport, supply_sensitivity
from ..oscillator.config import PAPER_FIG3_CONFIGURATIONS, RingConfiguration
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology

__all__ = ["SupplySensitivityResult", "run_supply_sensitivity"]


@dataclass(frozen=True)
class SupplySensitivityResult:
    """Outcome of the supply-sensitivity extension experiment."""

    technology_name: str
    temperature_c: float
    reports: Dict[str, SupplySensitivityReport]
    error_budget_c: float

    def format_table(self) -> str:
        lines = [
            "EXT-SUPPLY - supply-voltage cross-sensitivity "
            f"(at {self.temperature_c:.0f} C, {self.error_budget_c:.1f} C budget)",
            f"{'configuration':15s} {'K per mV':>10s} {'allowed supply error (mV)':>28s}",
        ]
        for label, report in self.reports.items():
            lines.append(
                f"{label:15s} {report.kelvin_per_millivolt:10.4f} "
                f"{report.supply_error_budget_mv(self.error_budget_c):28.1f}"
            )
        return "\n".join(lines)


def run_supply_sensitivity(
    technology: Optional[Technology] = None,
    configurations: Optional[Dict[str, RingConfiguration]] = None,
    temperature_c: float = 85.0,
    error_budget_c: float = 1.0,
) -> SupplySensitivityResult:
    """Run the supply-sensitivity study over the Fig. 3 configurations.

    Each finite difference is a named-axis sweep (the ``supply`` axis
    of :mod:`repro.engine.sweep`, lowered onto a stacked two-supply
    population; see :func:`repro.analysis.supply.supply_sensitivity`).
    """
    tech = technology if technology is not None else CMOS035
    configs = configurations if configurations is not None else dict(PAPER_FIG3_CONFIGURATIONS)
    reports = {
        label: supply_sensitivity(tech, configuration, temperature_c=temperature_c)
        for label, configuration in configs.items()
    }
    return SupplySensitivityResult(
        technology_name=tech.name,
        temperature_c=temperature_c,
        reports=reports,
        error_budget_c=error_budget_c,
    )
