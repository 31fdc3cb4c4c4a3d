"""Cell-level optimisation: choosing the mix of library gates (Section 3).

This is the paper's main design method: instead of resizing transistors
(not possible with a fixed standard-cell library), the designer chooses
*which* library gates compose the ring.  The search utilities here
enumerate or greedily explore the mix space, rank candidates by their
worst-case non-linearity, and report how close the best mix comes to the
transistor-level optimum of :mod:`repro.optimize.sizing` — which is
exactly the comparison the paper's Fig. 3 makes against its Fig. 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.linearity import NonlinearityResult, nonlinearity
from ..cells.library import CellLibrary
from ..oscillator.config import ConfigurationError, RingConfiguration, odd_stage_count
from ..oscillator.period import TemperatureResponse, analytical_response, default_temperature_grid
from ..oscillator.ring import RingOscillator

__all__ = [
    "CellMixCandidate",
    "CellMixSearchResult",
    "enumerate_configurations",
    "evaluate_configuration",
    "evaluate_configuration_bank",
    "search_cell_mix",
    "greedy_cell_mix",
    "DEFAULT_MIX_CELLS",
]

#: Cell types the paper's Fig. 3 draws its configurations from.
DEFAULT_MIX_CELLS = ("INV", "NAND2", "NAND3", "NOR2", "NOR3")


@dataclass(frozen=True)
class CellMixCandidate:
    """Evaluation of one candidate ring configuration."""

    configuration: RingConfiguration
    response: TemperatureResponse
    linearity: NonlinearityResult
    area_um2: float

    @property
    def label(self) -> str:
        return self.configuration.label()

    @property
    def max_abs_error_percent(self) -> float:
        return self.linearity.max_abs_error_percent


@dataclass(frozen=True)
class CellMixSearchResult:
    """Ranked outcome of a cell-mix search."""

    candidates: List[CellMixCandidate]
    evaluated_count: int

    def best(self) -> CellMixCandidate:
        return self.candidates[0]

    def top(self, count: int) -> List[CellMixCandidate]:
        return self.candidates[: max(count, 0)]


def enumerate_configurations(
    cell_names: Sequence[str] = DEFAULT_MIX_CELLS, stage_count: int = 5
) -> List[RingConfiguration]:
    """All order-insensitive mixes of the given cells with ``stage_count`` stages.

    The ring period only depends on the multiset of stages (each stage
    sees the same kind of load up to the next stage's input capacitance),
    so combinations-with-replacement enumeration is sufficient and keeps
    the space small (126 candidates for 5 cells over 5 stages).
    """
    stage_count = odd_stage_count(stage_count)
    if not cell_names:
        raise ConfigurationError("at least one cell name is required")
    configurations: List[RingConfiguration] = []
    for combo in itertools.combinations_with_replacement(cell_names, stage_count):
        configurations.append(RingConfiguration(tuple(combo)))
    return configurations


def evaluate_configuration(
    library: CellLibrary,
    configuration: RingConfiguration,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> CellMixCandidate:
    """Evaluate the linearity (and area) of one configuration."""
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    ring = RingOscillator(library, configuration)
    response = analytical_response(ring, temps)
    return CellMixCandidate(
        configuration=configuration,
        response=response,
        linearity=nonlinearity(response, fit_method),
        area_um2=ring.area_um2(),
    )


def evaluate_configuration_bank(
    bank,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> List[CellMixCandidate]:
    """Evaluate every configuration of a bank in one broadcast.

    The configuration-axis counterpart of :func:`evaluate_configuration`:
    one ``(config x temperature)`` period tensor through
    :meth:`repro.oscillator.bank.ConfigurationBank.period_tensor`, then
    per-row linearity metrics.  Candidates come back in bank order.
    """
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    tensor = bank.period_tensor(temps)
    candidates: List[CellMixCandidate] = []
    for row, (configuration, ring) in enumerate(zip(bank.configurations, bank.rings())):
        response = TemperatureResponse(configuration.label(), temps, tensor[row])
        candidates.append(
            CellMixCandidate(
                configuration=configuration,
                response=response,
                linearity=nonlinearity(response, fit_method),
                area_um2=ring.area_um2(),
            )
        )
    return candidates


def search_cell_mix(
    library: CellLibrary,
    cell_names: Sequence[str] = DEFAULT_MIX_CELLS,
    stage_count: int = 5,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
    top_k: int = 10,
) -> CellMixSearchResult:
    """Exhaustively rank all cell mixes of the given stage count.

    Parameters
    ----------
    library:
        Cell library supplying the candidates.
    cell_names:
        Cell types allowed in the mix.
    stage_count:
        Ring length (odd).
    temperatures_c:
        Temperature sweep used for the linearity metric.
    fit_method:
        Line-fit convention.
    top_k:
        How many ranked candidates to retain in the result (all are
        evaluated regardless).
    """
    # The whole candidate space is one configuration axis: stack it into
    # a ConfigurationBank and evaluate every mix in a single
    # (config x temperature) broadcast instead of one delay-stack pass
    # per candidate.
    from ..oscillator.bank import ConfigurationBank

    candidates = evaluate_configuration_bank(
        ConfigurationBank(library, enumerate_configurations(cell_names, stage_count)),
        temperatures_c,
        fit_method,
    )
    candidates.sort(key=lambda candidate: candidate.max_abs_error_percent)
    kept = candidates[: top_k if top_k > 0 else len(candidates)]
    return CellMixSearchResult(candidates=kept, evaluated_count=len(candidates))


def greedy_cell_mix(
    library: CellLibrary,
    cell_names: Sequence[str] = DEFAULT_MIX_CELLS,
    stage_count: int = 5,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
    max_iterations: int = 50,
) -> CellMixCandidate:
    """Greedy local search over the mix space.

    Starts from the all-inverter ring and repeatedly applies the single
    stage substitution that improves the worst-case non-linearity the
    most, stopping when no substitution helps.  Much cheaper than the
    exhaustive search for long rings (21+ stages) where enumeration
    explodes combinatorially.
    """
    stage_count = odd_stage_count(stage_count)
    current = RingConfiguration.uniform(cell_names[0], stage_count)
    current_candidate = evaluate_configuration(
        library, current, temperatures_c, fit_method
    )

    for _ in range(max_iterations):
        best_neighbour: Optional[CellMixCandidate] = None
        stages = list(current_candidate.configuration.stages)
        for index in range(stage_count):
            for replacement in cell_names:
                if replacement == stages[index]:
                    continue
                neighbour_stages = list(stages)
                neighbour_stages[index] = replacement
                neighbour = evaluate_configuration(
                    library,
                    RingConfiguration(tuple(neighbour_stages)),
                    temperatures_c,
                    fit_method,
                )
                if (
                    best_neighbour is None
                    or neighbour.max_abs_error_percent < best_neighbour.max_abs_error_percent
                ):
                    best_neighbour = neighbour
        if (
            best_neighbour is None
            or best_neighbour.max_abs_error_percent >= current_candidate.max_abs_error_percent
        ):
            break
        current_candidate = best_neighbour
    return current_candidate
