"""Experiment ABL-CAL: calibration effort versus accuracy across process spread.

Cell-based sensors must live with whatever the digital process gives
them, so the absolute frequency of the ring spreads with process while
(per the paper's argument) the linearity barely moves.  This ablation
quantifies how much calibration effort the smart unit needs: the
worst-case temperature error over corners and Monte-Carlo samples with
no per-die calibration, with a one-point calibration, and with a
two-point calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.statistics import SummaryStatistics, summarize
from ..cells.library import default_library
from ..core.calibration import (
    design_calibration,
    one_point_calibration,
    two_point_calibration,
)
from ..core.readout import PeriodCounter, ReadoutConfig
from ..core.sensor import SmartTemperatureSensor
from ..engine.sweep import Axis, Sweep
from ..oscillator.config import RingConfiguration
from ..oscillator.period import default_temperature_grid, validate_temperature_grid
from ..oscillator.ring import RingOscillator
from ..tech.corners import corner_technologies, sample_technology_array
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology
from ..tech.stacked import stack_technologies

__all__ = ["CalibrationStudyResult", "run_calibration_study"]


@dataclass(frozen=True)
class CalibrationStudyResult:
    """Outcome of the calibration ablation."""

    technology_name: str
    configuration_label: str
    sample_count: int
    errors_by_scheme: Dict[str, SummaryStatistics]
    worst_by_scheme: Dict[str, float]

    def format_table(self) -> str:
        lines = [
            "ABL-CAL - worst-case temperature error vs calibration scheme",
            f"ring: {self.configuration_label}, {self.sample_count} process samples "
            "(corners + Monte-Carlo)",
            f"{'scheme':>12s} {'mean worst err (C)':>20s} {'max worst err (C)':>20s}",
        ]
        for scheme in ("design", "one-point", "two-point"):
            stats = self.errors_by_scheme[scheme]
            lines.append(
                f"{scheme:>12s} {stats.mean:20.3f} {self.worst_by_scheme[scheme]:20.3f}"
            )
        return "\n".join(lines)


def run_calibration_study(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    readout: ReadoutConfig = ReadoutConfig(),
    monte_carlo_samples: int = 12,
    temperatures_c: Optional[Sequence[float]] = None,
    reference_temperature_c: float = 25.0,
    seed: int = 20250617,
) -> CalibrationStudyResult:
    """Run the calibration-scheme ablation.

    The whole corner + Monte-Carlo population is stacked into one
    struct-of-arrays technology
    (:func:`~repro.tech.stacked.stack_technologies`) and every scheme's
    error grid — design, one-point, two-point, each over all samples
    and all temperatures — is computed from a single
    ``(sample x temperature)`` period matrix (one sweep over the named
    ``sample`` and ``temperature`` axes) plus one batch counter
    conversion.  The per-scheme calibrations reduce to row-wise affine
    maps of the measured-period matrix, so the worst-case errors come
    out of plain ndarray reductions; the conversions and calibration
    formulas are elementwise those of a per-sample sensor loop, which
    the stacked equivalence tests pin down.

    Parameters
    ----------
    technology:
        Typical technology; corners and Monte-Carlo samples are derived
        from it.
    configuration_text:
        Ring configuration of the sensor.
    readout:
        Counter readout configuration.
    monte_carlo_samples:
        Number of Monte-Carlo technology samples in addition to the five
        corners.
    temperatures_c:
        Evaluation sweep (validated and sorted up front).
    reference_temperature_c:
        Insertion temperature of the one-point calibration.
    seed:
        RNG seed for the Monte-Carlo sampling.
    """
    tech = technology if technology is not None else CMOS035
    temps = (
        validate_temperature_grid(temperatures_c, context="calibration study sweep")
        if temperatures_c is not None
        else default_temperature_grid(points=17)
    )
    configuration = RingConfiguration.parse(configuration_text)

    # Design-time (typical-process) transfer function: the shared slope
    # source for the design and one-point schemes.
    base_ring = RingOscillator(default_library(tech), configuration)
    design_transfer = SmartTemperatureSensor(
        base_ring, readout=readout, name=f"cal_{tech.name}"
    ).transfer_function(temps)
    design_cal = design_calibration(
        design_transfer.measured_periods_s, design_transfer.temperatures_c
    )

    samples: List[Technology] = list(corner_technologies(tech).values())
    samples.extend(
        sample_technology_array(tech, monte_carlo_samples, seed=seed).technologies()
    )
    population = stack_technologies(samples)

    # One sweep over the full grid plus the insertion temperature: the
    # evaluation is elementwise in temperature, so appending the
    # reference point costs one extra column instead of a second
    # stacked-population rebind.  When the grid already contains the
    # reference point its column is reused — temperature coordinates
    # must be unique per axis.
    existing = np.nonzero(temps == float(reference_temperature_c))[0]
    if existing.size:
        grid = temps
        ref_column = int(existing[0])
    else:
        grid = np.append(temps, reference_temperature_c)
        ref_column = int(temps.size)
    all_periods = np.asarray(
        Sweep(ring=base_ring)
        .over(Axis.sample(population))
        .over(Axis.temperature(grid))
        .run()
        .values
    )
    counter = PeriodCounter(readout)

    periods = all_periods[:, : temps.size]
    codes, _ = counter.convert_batch(periods)
    measured = counter.codes_to_periods(codes)  # (samples, temperatures)

    def worst(estimates: np.ndarray) -> List[float]:
        return list(np.max(np.abs(estimates - temps[None, :]), axis=1))

    # Design scheme: one shared typical-process line over every sample.
    design_estimates = design_cal.temperature(measured)

    # One-point: design slope anchored at each sample's own measured
    # period at the insertion temperature.
    ref_codes, _ = counter.convert_batch(all_periods[:, ref_column : ref_column + 1])
    one_point = one_point_calibration(
        counter.codes_to_periods(ref_codes),  # (samples, 1)
        reference_temperature_c,
        design_cal.slope_c_per_second,
    )
    one_point_estimates = one_point.temperature(measured)

    # Two-point: each sample's own line through the sweep endpoints
    # (exactly the periods already measured at temps[0] / temps[-1]);
    # the (samples, 1, 2) endpoints give (samples, 1) slopes and offsets.
    two_point = two_point_calibration(
        measured[:, np.newaxis, [0, -1]], temps[[0, -1]]
    )
    two_point_estimates = two_point.temperature(measured)

    worst_errors = {
        "design": worst(design_estimates),
        "one-point": worst(one_point_estimates),
        "two-point": worst(two_point_estimates),
    }

    return CalibrationStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        sample_count=len(samples),
        errors_by_scheme={k: summarize(v) for k, v in worst_errors.items()},
        worst_by_scheme={k: float(np.max(v)) for k, v in worst_errors.items()},
    )
