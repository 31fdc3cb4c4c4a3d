#!/usr/bin/env python3
"""Thermal mapping of a processor die with a bank of smart sensors.

The end application the paper motivates: several ring-oscillator
sensors distributed over a die, read through one shared smart-unit
readout, feeding a dynamic thermal-management policy.  This example

1. builds a processor-like floorplan with a strongly non-uniform power
   map (two cores, a cache, an FPU hotspot),
2. computes the reference temperature field with the compact thermal
   model,
3. places a grid of calibrated smart sensors, scans them as one
   ``SensorBank``, and reconstructs the thermal map from the sparse
   readings,
4. prints both maps as ASCII heat maps and reports the reconstruction
   accuracy and which sensors would trigger a 95 C thermal alarm.

Run with:  python examples/thermal_mapping.py
"""

from __future__ import annotations

import numpy as np

from repro import CMOS035, RingConfiguration, ThermalMonitor
from repro.core import ReadoutConfig
from repro.thermal import Floorplan, TemperatureMap


def ascii_heat_map(temperature_map: TemperatureMap, columns: int = 24, rows: int = 12) -> str:
    """Render a temperature map as an ASCII heat map."""
    ramp = " .:-=+*#%@"
    low, high = temperature_map.min_c(), temperature_map.max_c()
    span = max(high - low, 1e-9)
    lines = []
    for row in range(rows - 1, -1, -1):
        y = (row + 0.5) / rows * temperature_map.height_mm
        line = []
        for column in range(columns):
            x = (column + 0.5) / columns * temperature_map.width_mm
            level = (temperature_map.sample(x, y) - low) / span
            line.append(ramp[min(int(level * (len(ramp) - 1)), len(ramp) - 1)])
        lines.append("".join(line))
    lines.append(f"scale: ' '={low:.1f} C ... '@'={high:.1f} C")
    return "\n".join(lines)


def main() -> None:
    technology = CMOS035
    configuration = RingConfiguration.parse("2INV+3NAND2")

    # A processor-like die: two cores, an L2 cache, I/O and a hot FPU.
    floorplan = Floorplan.example_processor()
    sensor_sites = floorplan.add_sensor_grid(3, 3)
    print(f"Floorplan '{floorplan.name}': {floorplan.width_mm} x {floorplan.height_mm} mm, "
          f"{floorplan.total_power_w():.1f} W total, {len(sensor_sites)} sensor sites")

    monitor = ThermalMonitor(
        technology,
        floorplan,
        configuration,
        readout=ReadoutConfig(window_cycles=256),
        grid_resolution=32,
        ambient_c=45.0,
    )
    monitor.calibrate(low_temperature_c=-40.0, high_temperature_c=125.0)

    report = monitor.scan()

    print("\nTrue temperature field (thermal model):")
    print(ascii_heat_map(report.true_map))
    print(f"hotspot: {report.true_map.max_c():.1f} C at "
          f"{report.true_map.hotspot_location()} mm, "
          f"die gradient {report.true_map.gradient_c():.1f} C")

    print("\nSensor readings (multiplexed scan, "
          f"{report.scan.total_time_s * 1e6:.1f} us total):")
    for name in sorted(report.site_estimates_c):
        site = floorplan.sensor_site(name)
        truth = report.site_true_temperatures_c[name]
        estimate = report.site_estimates_c[name]
        code = report.scan.readings[name].code
        print(f"  {name:6s} at ({site.x_mm:4.2f}, {site.y_mm:4.2f}) mm: "
              f"code={code:5d}  estimate={estimate:7.2f} C  truth={truth:7.2f} C  "
              f"error={estimate - truth:+6.3f} C")

    print("\nReconstructed map from the nine sensor readings:")
    print(ascii_heat_map(report.reconstructed_map))
    print(f"worst site error : {report.worst_site_error_c():.3f} C")
    print(f"map RMS error    : {report.map_rms_error_c():.2f} C")
    print(f"hotspot estimate : {report.hotspot_error_c():+.2f} C versus the true hotspot")

    threshold = 95.0
    alarms = monitor.detect_overheating(report, threshold_c=threshold)
    if alarms:
        print(f"\nThermal alarm (> {threshold:.0f} C) raised by: {', '.join(alarms)}")
    else:
        print(f"\nNo sensor exceeds the {threshold:.0f} C thermal-alarm threshold.")

    # What-if: double the workload power and rescan.
    hot_power = monitor.power_map_for_floorplan().scaled(2.0)
    hot_report = monitor.scan(hot_power)
    hot_alarms = monitor.detect_overheating(hot_report, threshold_c=threshold)
    print(f"\nAt 2x workload power the hotspot reaches "
          f"{hot_report.true_map.max_c():.1f} C and "
          f"{len(hot_alarms)} of {len(sensor_sites)} sensors raise the alarm.")


if __name__ == "__main__":
    main()
