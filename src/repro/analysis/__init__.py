"""Sensor-characteristic analysis: linearity, sensitivity, resolution, MC."""

from .linearity import (
    LinearFit,
    NonlinearityResult,
    fit_line,
    nonlinearity,
)
from .sensitivity import SensitivityReport, sensitivity_report
from .resolution import (
    ResolutionReport,
    resolution_report,
)
from .statistics import SummaryStatistics, summarize
from .montecarlo import MonteCarloStudy, run_monte_carlo
from .supply import SupplySensitivityReport, supply_sensitivity

__all__ = [
    "LinearFit",
    "NonlinearityResult",
    "fit_line",
    "nonlinearity",
    "SensitivityReport",
    "sensitivity_report",
    "ResolutionReport",
    "resolution_report",
    "SummaryStatistics",
    "summarize",
    "MonteCarloStudy",
    "run_monte_carlo",
    "SupplySensitivityReport",
    "supply_sensitivity",
]
