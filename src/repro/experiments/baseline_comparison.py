"""Experiment BASE: proposed sensor versus the prior-art baselines.

The paper's introduction motivates the cell-based ring sensor against
two families of prior art: analogue diode (ΔVBE) sensors such as those
in the Pentium 4 and PowerPC thermal-assist unit, and FPGA ring
oscillators (its reference [5]).  The paper itself gives no quantitative
comparison, so this experiment defines one on the axes the introduction
argues about:

* accuracy over -50..150 C after the calibration each sensor family
  would realistically receive (two-point for the ring sensors, nominal
  transfer for the diode chain),
* intrinsic linearity of the sensing element,
* whether full-custom analogue design is required, and
* a first-order area figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.linearity import nonlinearity
from ..baselines.diode_sensor import DiodeSensorConfig, DiodeTemperatureSensor
from ..baselines.fpga_ro import FpgaRingConfig, fpga_ring_oscillator
from ..core.readout import ReadoutConfig
from ..core.sensor import SmartTemperatureSensor
from ..oscillator.config import RingConfiguration
from ..oscillator.period import analytical_response, default_temperature_grid
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology

__all__ = ["BaselineEntry", "BaselineComparisonResult", "run_baseline_comparison"]


@dataclass(frozen=True)
class BaselineEntry:
    """One row of the comparison table."""

    name: str
    sensing_principle: str
    worst_error_c: float
    nonlinearity_percent: float
    requires_analog_design: bool
    area_um2: float

    def as_row(self) -> str:
        analog = "yes" if self.requires_analog_design else "no"
        return (
            f"{self.name:24s} {self.sensing_principle:18s} "
            f"{self.worst_error_c:12.3f} {self.nonlinearity_percent:12.3f} "
            f"{analog:>10s} {self.area_um2:12.0f}"
        )


@dataclass(frozen=True)
class BaselineComparisonResult:
    """Outcome of the baseline-comparison experiment."""

    technology_name: str
    entries: List[BaselineEntry]
    temperatures_c: np.ndarray

    def entry(self, name: str) -> BaselineEntry:
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no comparison entry named {name!r}")

    def proposed(self) -> BaselineEntry:
        return self.entry("proposed cell-mix ring")

    def format_table(self) -> str:
        header = (
            f"{'sensor':24s} {'principle':18s} {'worst err (C)':>12s} "
            f"{'|NL| (%)':>12s} {'analog?':>10s} {'area (um2)':>12s}"
        )
        lines = ["BASE - sensor family comparison (-50..150 C)", header]
        lines.extend(entry.as_row() for entry in self.entries)
        return "\n".join(lines)


def run_baseline_comparison(
    technology: Optional[Technology] = None,
    proposed_configuration: str = "2INV+3NAND2",
    temperatures_c: Optional[Sequence[float]] = None,
    readout: ReadoutConfig = ReadoutConfig(),
) -> BaselineComparisonResult:
    """Run the baseline comparison.

    Parameters
    ----------
    technology:
        CMOS technology for the ring sensors.
    proposed_configuration:
        The cell mix representing the paper's proposal.
    temperatures_c:
        Evaluation sweep.
    readout:
        Shared readout configuration for the ring sensors.
    """
    tech = technology if technology is not None else CMOS035
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    entries: List[BaselineEntry] = []

    # Proposed cell-based smart sensor.
    configuration = RingConfiguration.parse(proposed_configuration)
    proposed = SmartTemperatureSensor.from_configuration(
        tech, configuration, readout=readout, name="proposed"
    )
    proposed.calibrate_two_point(float(temps[0]), float(temps[-1]))
    proposed_response = proposed.temperature_response(temps)
    entries.append(
        BaselineEntry(
            name="proposed cell-mix ring",
            sensing_principle="gate delay",
            worst_error_c=proposed.worst_case_error_c(temps),
            nonlinearity_percent=nonlinearity(proposed_response).max_abs_error_percent,
            requires_analog_design=False,
            area_um2=proposed.ring.area_um2(),
        )
    )

    # Inverter-only standard-cell ring (no cell-mix optimisation).
    plain = SmartTemperatureSensor.from_configuration(
        tech, RingConfiguration.uniform("INV", 5), readout=readout, name="plain_inv"
    )
    plain.calibrate_two_point(float(temps[0]), float(temps[-1]))
    plain_response = plain.temperature_response(temps)
    entries.append(
        BaselineEntry(
            name="inverter-only ring",
            sensing_principle="gate delay",
            worst_error_c=plain.worst_case_error_c(temps),
            nonlinearity_percent=nonlinearity(plain_response).max_abs_error_percent,
            requires_analog_design=False,
            area_um2=plain.ring.area_um2(),
        )
    )

    # FPGA-style ring (reference [5]).
    fpga_ring = fpga_ring_oscillator(tech, FpgaRingConfig())
    fpga_sensor = SmartTemperatureSensor(fpga_ring, readout=readout, name="fpga")
    fpga_sensor.calibrate_two_point(float(temps[0]), float(temps[-1]))
    fpga_response = analytical_response(fpga_ring, temps)
    entries.append(
        BaselineEntry(
            name="FPGA-style ring [5]",
            sensing_principle="gate delay",
            worst_error_c=fpga_sensor.worst_case_error_c(temps),
            nonlinearity_percent=nonlinearity(fpga_response).max_abs_error_percent,
            requires_analog_design=False,
            area_um2=fpga_ring.area_um2(),
        )
    )

    # Analogue diode (delta-VBE) sensor.
    diode = DiodeTemperatureSensor(DiodeSensorConfig())
    diode_errors = diode.measurement_errors(temps)
    # The diode's intrinsic characteristic is delta-VBE vs T, which is
    # almost perfectly linear; report the residual of its own transfer.
    diode_voltage = np.asarray([diode.ptat_voltage(float(t)) for t in temps])
    span = diode_voltage[-1] - diode_voltage[0]
    line = np.interp(temps, [temps[0], temps[-1]], [diode_voltage[0], diode_voltage[-1]])
    diode_nl = float(np.max(np.abs(diode_voltage - line)) / span * 100.0)
    entries.append(
        BaselineEntry(
            name="diode delta-VBE sensor",
            sensing_principle="bipolar junction",
            worst_error_c=float(np.max(np.abs(diode_errors))),
            nonlinearity_percent=diode_nl,
            requires_analog_design=True,
            area_um2=20000.0,  # typical analogue sensor + ADC macro footprint
        )
    )

    return BaselineComparisonResult(
        technology_name=tech.name, entries=entries, temperatures_c=temps
    )
