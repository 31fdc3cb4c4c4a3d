"""Experiment SMART: the smart-unit features described in Section 3.

The paper's final section describes the smart thermal-management unit:
digital period-to-temperature conversion, the ability to disable the
oscillator to minimise self-heating, a measurement-in-progress output,
and multiplexed readout of distributed rings for thermal mapping.  The
paper gives no quantitative evaluation of the unit, so this experiment
defines the quantitative checks the reproduction asserts:

* the digital transfer function is monotonic and, after two-point
  calibration, reports temperature within the quantisation +
  non-linearity budget over -50..150 C;
* the busy flag and oscillator-enable behave per the FSM contract and
  the measurement duty cycle (hence self-heating) falls with the
  measurement rate;
* a multiplexed bank of sensors on a realistic floorplan reconstructs
  the die's thermal map with a hotspot error of a few degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..analysis.resolution import ResolutionReport, resolution_report
from ..core.mapping import ThermalMonitor, ThermalMonitorReport
from ..core.readout import ReadoutConfig
from ..core.sensor import SensorTransferFunction, SmartTemperatureSensor
from ..oscillator.config import RingConfiguration
from ..oscillator.period import default_temperature_grid
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology
from ..thermal.floorplan import Floorplan

__all__ = ["SmartUnitResult", "run_smart_unit"]


@dataclass(frozen=True)
class SmartUnitResult:
    """Outcome of the smart-unit experiment."""

    technology_name: str
    configuration_label: str
    transfer: SensorTransferFunction
    resolution: ResolutionReport
    worst_measurement_error_c: float
    conversion_time_s: float
    duty_cycle_at_1khz: float
    average_power_at_1khz_w: float
    free_running_power_w: float
    mapping_report: ThermalMonitorReport
    sensor_count: int

    def power_saving_factor(self) -> float:
        """Free-running power over duty-cycled power at 1 kHz sampling."""
        if self.average_power_at_1khz_w <= 0.0:
            return float("inf")
        return self.free_running_power_w / self.average_power_at_1khz_w

    def format_summary(self) -> str:
        report = self.mapping_report
        lines = [
            "SMART - smart temperature sensor unit",
            f"  technology                : {self.technology_name}",
            f"  ring configuration        : {self.configuration_label}",
            f"  code span over -50..150 C : {self.transfer.codes[0]:.0f} -> {self.transfer.codes[-1]:.0f}",
            f"  counts per kelvin         : {self.transfer.codes_per_kelvin():.2f}",
            f"  quantisation resolution   : {self.resolution.temperature_resolution_c:.3f} C/LSB",
            f"  counter bits required     : {self.resolution.bits_required}",
            f"  conversion time           : {self.conversion_time_s * 1e6:.1f} us",
            f"  worst calibrated error    : {self.worst_measurement_error_c:.3f} C",
            f"  duty cycle @ 1 kHz rate   : {self.duty_cycle_at_1khz * 100:.2f} %",
            f"  power saving vs free-run  : {self.power_saving_factor():.0f}x",
            f"  sensors multiplexed       : {self.sensor_count}",
            f"  die gradient (true)       : {report.true_map.gradient_c():.2f} C",
            f"  worst site error          : {report.worst_site_error_c():.3f} C",
            f"  hotspot estimate error    : {report.hotspot_error_c():+.2f} C",
            f"  map RMS error             : {report.map_rms_error_c():.2f} C",
        ]
        return "\n".join(lines)


def run_smart_unit(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    readout: ReadoutConfig = ReadoutConfig(),
    temperatures_c: Optional[Sequence[float]] = None,
    sensor_grid: int = 3,
    measurement_rate_hz: float = 1000.0,
) -> SmartUnitResult:
    """Run the smart-unit experiment.

    Parameters
    ----------
    technology:
        CMOS technology (0.35 um default).
    configuration_text:
        Ring configuration for every sensor (a linear cell mix from the
        Fig. 3 study by default).
    readout:
        Counter readout configuration.
    temperatures_c:
        Sweep for the transfer-function characterisation.
    sensor_grid:
        The thermal-mapping study places ``sensor_grid x sensor_grid``
        sensors on the example floorplan.
    measurement_rate_hz:
        Sampling rate used for the duty-cycle / power computation.
    """
    tech = technology if technology is not None else CMOS035
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    configuration = RingConfiguration.parse(configuration_text)

    # Single-sensor characterisation.
    sensor = SmartTemperatureSensor.from_configuration(
        tech, configuration, readout=readout, name="dut"
    )
    sensor.calibrate_two_point(low_temperature_c=float(temps[0]), high_temperature_c=float(temps[-1]))
    transfer = sensor.transfer_function(temps)
    response = sensor.temperature_response(temps)
    resolution = resolution_report(response, readout.window_s)
    worst_error = sensor.worst_case_error_c(temps)
    reading = sensor.measure(85.0)
    duty = min(1.0, measurement_rate_hz * reading.conversion_time_s)
    average_power = sensor.average_power_w(85.0, measurement_rate_hz)
    free_running = sensor.measurement_power_w(85.0)

    # Multiplexed thermal mapping on the example floorplan.
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(sensor_grid, sensor_grid)
    monitor = ThermalMonitor(tech, floorplan, configuration, readout=readout)
    monitor.calibrate(low_temperature_c=float(temps[0]), high_temperature_c=float(temps[-1]))
    mapping_report = monitor.scan()

    return SmartUnitResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        transfer=transfer,
        resolution=resolution,
        worst_measurement_error_c=worst_error,
        conversion_time_s=reading.conversion_time_s,
        duty_cycle_at_1khz=duty,
        average_power_at_1khz_w=average_power,
        free_running_power_w=free_running,
        mapping_report=mapping_report,
        sensor_count=sensor_grid * sensor_grid,
    )
