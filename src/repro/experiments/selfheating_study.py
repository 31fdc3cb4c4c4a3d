"""Experiment ABL-SELFHEAT: why the smart unit disables its oscillator.

The paper lists "the possibility to disable the oscillator in order to
minimise self-heating" as a feature of the smart unit but does not
quantify it.  This ablation does: it compares the temperature error
introduced by the sensor's own dissipation when the ring free-runs
versus when it is duty-cycled by the measurement controller, using the
die thermal model and the ring's computed dynamic power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.controller import conversion_time_s
from ..core.readout import ReadoutConfig
from ..engine.sweep import Axis, Sweep
from ..oscillator.config import RingConfiguration
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology
from ..thermal.floorplan import Floorplan
from ..thermal.power import PowerMap
from ..thermal.selfheating import SelfHeatingReport, duty_cycle_study

__all__ = ["SelfHeatingStudyResult", "run_selfheating_study"]


@dataclass(frozen=True)
class SelfHeatingStudyResult:
    """Outcome of the self-heating ablation."""

    technology_name: str
    configuration_label: str
    oscillator_power_w: float
    reports: List[SelfHeatingReport]
    duty_cycle_when_sampled_1khz: float

    def free_running_error_c(self) -> float:
        """Self-heating error with the oscillator always on."""
        return max(r.temperature_rise_c for r in self.reports if r.duty_cycle == 1.0)

    def duty_cycled_error_c(self) -> float:
        """Self-heating error at the smart unit's 1 kHz sampling duty cycle."""
        duties = np.asarray([r.duty_cycle for r in self.reports])
        rises = np.asarray([r.temperature_rise_c for r in self.reports])
        return float(np.interp(self.duty_cycle_when_sampled_1khz, duties[::-1], rises[::-1]))

    def improvement_factor(self) -> float:
        """Error reduction from duty cycling the oscillator."""
        cycled = self.duty_cycled_error_c()
        if cycled <= 0.0:
            return float("inf")
        return self.free_running_error_c() / cycled

    def format_table(self) -> str:
        lines = [
            "ABL-SELFHEAT - oscillator self-heating vs measurement duty cycle",
            f"ring: {self.configuration_label}, oscillator power: "
            f"{self.oscillator_power_w * 1e3:.3f} mW",
            f"{'duty cycle':>12s} {'self-heating error (C)':>24s}",
        ]
        for report in self.reports:
            lines.append(
                f"{report.duty_cycle:12.4f} {report.temperature_rise_c:24.4f}"
            )
        lines.append(
            f"duty cycling at 1 kHz sampling reduces the error by "
            f"{self.improvement_factor():.0f}x"
        )
        return "\n".join(lines)


def run_selfheating_study(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    readout: ReadoutConfig = ReadoutConfig(),
    duty_cycles: Sequence[float] = (1.0, 0.5, 0.2, 0.1, 0.01, 0.001),
    sensor_location_mm: Sequence[float] = (2.0, 6.0),
    grid_resolution: int = 24,
    measurement_rate_hz: float = 1000.0,
) -> SelfHeatingStudyResult:
    """Run the self-heating ablation.

    The sensor is placed inside the hottest core of the example
    floorplan (where a thermal-management system would put it) and its
    dynamic power at the local temperature is injected into the thermal
    model at that spot, scaled by each duty cycle.

    The study exploits the thermal network's linearity and covers the
    whole duty-cycle sweep with one multi-RHS solve against the shared
    :class:`~repro.thermal.operator.ThermalOperator` solve (see :func:`repro.thermal.selfheating.duty_cycle_study`).
    """
    tech = technology if technology is not None else CMOS035
    configuration = RingConfiguration.parse(configuration_text)

    floorplan = Floorplan.example_processor()
    power_map = PowerMap.from_floorplan(floorplan, nx=grid_resolution, ny=grid_resolution)
    # A single ring is tiny; the study models the whole sensor macro
    # (ring + readout counters + clock buffering) as ten rings' worth of
    # switching, a representative figure for a 3.3 V implementation.
    # The ring's free-running dissipation comes from the sweep engine's
    # ``power`` observable evaluated at the hot operating point.
    ring_power = (
        Sweep(technology=tech, configuration=configuration)
        .over(Axis.temperature([100.0]))
        .observe("power")
        .run()
        .item()
    )
    oscillator_power = ring_power * 10.0

    reports = duty_cycle_study(
        power_map,
        float(sensor_location_mm[0]),
        float(sensor_location_mm[1]),
        oscillator_power,
        duty_cycles=tuple(sorted(set(float(d) for d in duty_cycles), reverse=True)),
    )
    duty_1khz = min(1.0, measurement_rate_hz * conversion_time_s(readout))
    return SelfHeatingStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        oscillator_power_w=oscillator_power,
        reports=list(reports),
        duty_cycle_when_sampled_1khz=duty_1khz,
    )
