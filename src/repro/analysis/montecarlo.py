"""Monte-Carlo process-variation studies.

The absolute oscillation frequency of the ring sensor varies strongly
with process, which is why the smart unit needs calibration; the paper
argues the *linearity* is much less affected.  The study functions here
quantify both statements over Monte-Carlo samples of the technology and
feed the calibration ablation bench (ABL-CAL in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cells.library import default_library
from ..fields import integer
from ..oscillator.config import RingConfiguration
from ..oscillator.period import (
    TemperatureResponse,
    default_temperature_grid,
    validate_temperature_grid,
)
from ..oscillator.ring import RingOscillator
from ..tech.corners import VariationModel, sample_technology_array
from ..tech.parameters import Technology, TechnologyError
from .linearity import nonlinearity
from .statistics import SummaryStatistics, summarize

__all__ = ["MonteCarloStudy", "run_monte_carlo"]


@dataclass(frozen=True)
class MonteCarloStudy:
    """Result of a Monte-Carlo sweep of one ring configuration.

    Attributes
    ----------
    label:
        Ring configuration label.
    sample_count:
        Number of Monte-Carlo technology samples.
    period_at_reference:
        Summary of the period at the reference temperature across the
        samples (absolute spread — what calibration must remove).
    nonlinearity_percent:
        Summary of the worst-case non-linearity across samples (what
        calibration cannot remove but is expected to stay small).
    sensitivity_s_per_k:
        Summary of the mean sensitivity across samples.
    responses:
        The individual temperature responses (for downstream analysis).
    """

    label: str
    sample_count: int
    period_at_reference: SummaryStatistics
    nonlinearity_percent: SummaryStatistics
    sensitivity_s_per_k: SummaryStatistics
    responses: List[TemperatureResponse]

    @property
    def period_spread_percent(self) -> float:
        """Full spread of the reference-temperature period, in percent."""
        stats = self.period_at_reference
        return (stats.maximum - stats.minimum) / stats.mean * 100.0


def run_monte_carlo(
    base_technology: Technology,
    configuration: RingConfiguration,
    sample_count: int = 25,
    temperatures_c: Optional[Sequence[float]] = None,
    reference_temperature_c: float = 25.0,
    variation: Optional[VariationModel] = None,
    seed: Optional[int] = 1234,
) -> MonteCarloStudy:
    """Run a Monte-Carlo linearity/spread study for one configuration.

    Parameters
    ----------
    base_technology:
        Typical technology to perturb.
    configuration:
        Ring configuration under study.
    sample_count:
        Number of Monte-Carlo samples.
    temperatures_c:
        Sweep grid (defaults to the paper's -50..150 range).  Validated
        up front via
        :func:`~repro.oscillator.period.validate_temperature_grid`:
        unsorted grids are sorted, and duplicate or non-finite
        temperatures raise :class:`TechnologyError` immediately.
    reference_temperature_c:
        Temperature at which the absolute-period spread is reported.
    variation:
        Process-variation model; defaults reproduce typical 0.35 um
        matching figures.
    seed:
        RNG seed for reproducibility.
    """
    sample_count = integer(sample_count, "sample_count", TechnologyError, at_least=2)
    # Validate user grids up front: unsorted, duplicate or non-finite
    # temperatures used to slip through and silently break the
    # temps[0] <= reference <= temps[-1] range check below.
    temps = (
        validate_temperature_grid(temperatures_c, context="run_monte_carlo sweep")
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    if not temps[0] <= reference_temperature_c <= temps[-1]:
        raise TechnologyError("reference temperature must lie inside the sweep range")

    # The population is drawn directly in struct-of-arrays form and the
    # whole (sample x temperature) period matrix is one declarative
    # sweep (sample axis x temperature axis) — no per-sample library,
    # rebind or Python loop.
    from ..engine.sweep import Axis, Sweep

    population = sample_technology_array(
        base_technology, sample_count, model=variation, seed=seed
    )
    base_ring = RingOscillator(default_library(base_technology), configuration)
    matrix = (
        Sweep(ring=base_ring)
        .over(Axis.sample(population))
        .over(Axis.temperature(temps))
        .run()
        .values
    )
    label = base_ring.label()
    responses = [TemperatureResponse(label, temps, row) for row in matrix]

    reference_periods: List[float] = []
    worst_nonlinearities: List[float] = []
    sensitivities: List[float] = []
    for response in responses:
        reference_periods.append(response.period_at(reference_temperature_c))
        worst_nonlinearities.append(nonlinearity(response).max_abs_error_percent)
        sensitivities.append(response.mean_sensitivity())

    return MonteCarloStudy(
        label=configuration.label(),
        sample_count=sample_count,
        period_at_reference=summarize(reference_periods),
        nonlinearity_percent=summarize(worst_nonlinearities),
        sensitivity_s_per_k=summarize(sensitivities),
        responses=responses,
    )
