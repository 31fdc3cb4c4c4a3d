"""Experiment FIG3: non-linearity of different cell-mix configurations.

Reproduces the paper's Fig. 3: the non-linearity error curves of 5-stage
rings built from different mixes of standard library gates (inverters,
NAND2/NAND3, NOR2), evaluated over -50 C .. 150 C.  The headline claims
checked by the bench:

* the configurations bracket the inverter-only ring — some mixes are
  better, some worse, so the mix is a genuine design knob;
* an adequate mix reduces the error to a level comparable with the
  transistor-level optimum of Fig. 2 — without leaving the standard-cell
  library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..cells.library import CellLibrary, default_library
from ..optimize.cellmix import (
    CellMixCandidate,
    CellMixSearchResult,
    evaluate_configuration_bank,
    search_cell_mix,
)
from ..oscillator.bank import ConfigurationBank
from ..oscillator.config import PAPER_FIG3_CONFIGURATIONS, RingConfiguration
from ..oscillator.period import paper_temperature_grid
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology

__all__ = ["Fig3Result", "run_fig3"]


@dataclass(frozen=True)
class Fig3Result:
    """Outcome of the Fig. 3 reproduction."""

    technology_name: str
    candidates: Dict[str, CellMixCandidate]
    search: CellMixSearchResult
    temperatures_c: np.ndarray

    def inverter_reference(self) -> CellMixCandidate:
        """The plain 5-inverter ring all mixes are compared against."""
        for label, candidate in self.candidates.items():
            if candidate.configuration.is_uniform() and candidate.configuration.stages[0] == "INV":
                return candidate
        raise KeyError("the configuration set does not include an inverter-only ring")

    def best_paper_configuration(self) -> CellMixCandidate:
        """Best of the paper's named configurations."""
        return min(self.candidates.values(), key=lambda c: c.max_abs_error_percent)

    def best_searched_configuration(self) -> CellMixCandidate:
        """Best configuration found by the exhaustive mix search."""
        return self.search.best()

    def format_table(self) -> str:
        """Text table in the shape of the paper's figure data."""
        temps = self.temperatures_c
        header = "configuration    " + "".join(f"{t:>8.0f}C" for t in temps) + "   max|NL|%"
        lines = [
            "FIG3 - non-linearity error vs ring configuration (5 stages, standard cells)",
            header,
        ]
        for label, candidate in self.candidates.items():
            errors = candidate.linearity.error_percent
            row = f"{label:15s}  " + "".join(f"{e:+9.3f}" for e in errors)
            row += f"   {candidate.max_abs_error_percent:8.3f}"
            lines.append(row)
        best = self.best_searched_configuration()
        lines.append(
            f"exhaustive-search optimum: {best.label} with max|NL|="
            f"{best.max_abs_error_percent:.3f} % ({self.search.evaluated_count} mixes evaluated)"
        )
        return "\n".join(lines)


def run_fig3(
    technology: Optional[Technology] = None,
    configurations: Optional[Dict[str, RingConfiguration]] = None,
    temperatures_c: Optional[Sequence[float]] = None,
    library: Optional[CellLibrary] = None,
    run_search: bool = True,
) -> Fig3Result:
    """Run the Fig. 3 experiment.

    Parameters
    ----------
    technology:
        CMOS technology (0.35 um default).
    configurations:
        Named configurations to report; the paper's reconstructed set by
        default.
    temperatures_c:
        Evaluation temperatures (the paper's nine-point grid by default).
    library:
        Cell library (the default X1 library of the technology when
        omitted).
    run_search:
        Also run the exhaustive mix search to locate the global optimum
        over INV/NAND/NOR mixes.

    The named configurations stack into one
    :class:`~repro.oscillator.bank.ConfigurationBank` — the
    configuration axis of the sweep API — and evaluate as a single
    ``(config x temperature)`` broadcast.
    """
    tech = technology if technology is not None else CMOS035
    lib = library if library is not None else default_library(tech)
    configs = configurations if configurations is not None else dict(PAPER_FIG3_CONFIGURATIONS)
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else paper_temperature_grid()
    )
    # The declarative equivalent is
    # Sweep(library=lib).over(Axis.configuration(configs))
    #                   .over(Axis.temperature(temps)).run().
    bank = ConfigurationBank(lib, configs)
    candidates = dict(zip(bank.labels, evaluate_configuration_bank(bank, temps)))
    if run_search:
        search = search_cell_mix(lib, stage_count=5, temperatures_c=temps, top_k=10)
    else:
        ranked = sorted(candidates.values(), key=lambda c: c.max_abs_error_percent)
        search = CellMixSearchResult(candidates=ranked, evaluated_count=len(ranked))
    return Fig3Result(
        technology_name=tech.name,
        candidates=candidates,
        search=search,
        temperatures_c=temps,
    )
