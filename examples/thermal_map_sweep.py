#!/usr/bin/env python3
"""The site axis: a sensor-bank thermal-map scan as one declarative Sweep.

The paper's smart unit reads several ring-oscillator sensors
"distributed on different points" through one readout so they can
reconstruct the die's thermal map.  This example shows the sweep
engine's ``site`` axis doing exactly that workload end to end:

1. solve the example processor's steady-state field once (the
   prepared DCT solve is cached process-wide by
   ``repro.thermal.ThermalOperator``, so every later solve on the same
   grid reuses it),
2. place a ``SensorBank`` on the floorplan — all sites stacked
   struct-of-arrays style around one shared ring design — and two-point
   calibrate the *whole Monte-Carlo population* in one vectorized pass,
3. declare the scan as ``Sweep().over(Axis.site(bank, junction_
   temperatures_c=...)).over(Axis.sample(population))`` with the
   ``code`` observable: every site measured at its own local junction
   temperature, for every process sample, in a single broadcast,
4. time the banked scan against an inline per-sensor loop (one
   ``SmartTemperatureSensor`` per site per sample, two-point calibrated
   and measured one at a time, controller FSM included), and
5. sweep the sensor-grid *density* and report how the reconstruction
   and hotspot errors fall as sensors are added — how many sensors a
   thermal map needs.

Run with:  python examples/thermal_map_sweep.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    Axis,
    CMOS035,
    RingConfiguration,
    SensorBank,
    SmartTemperatureSensor,
    Sweep,
    sample_technology_array,
)
from repro.experiments import run_thermal_map_study
from repro.thermal import Floorplan, PowerMap, ThermalGrid, ThermalOperator


def main() -> None:
    configuration = RingConfiguration.parse("2INV+3NAND2")
    population = sample_technology_array(CMOS035, 200, seed=42)

    # -- the die and its true thermal field (one cached solve) --
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(3, 3)
    power = PowerMap.from_floorplan(floorplan, nx=24, ny=24)
    grid = ThermalGrid.for_power_map(power)
    true_map = ThermalOperator.for_grid(grid).solve_steady_state(power, ambient_c=45.0)
    print(f"die peak {true_map.max_c():.1f} C, "
          f"gradient {true_map.gradient_c():.1f} C")

    # -- the bank, calibrated across the whole population at once --
    bank = SensorBank.from_floorplan(CMOS035, floorplan, configuration)
    xs, ys = bank.positions()
    site_temps = true_map.sample_points(xs, ys)
    calibration = bank.two_point_calibration(-50.0, 150.0, technologies=population)

    # -- the scan, declared on named axes --
    start = time.perf_counter()
    codes = (
        Sweep()
        .over(Axis.site(bank, junction_temperatures_c=site_temps))
        .over(Axis.sample(population))
        .observe("code")
        .run()
    )
    banked_s = time.perf_counter() - start
    print(f"\nbanked scan: dims {codes.dims}, shape {codes.shape}, "
          f"{banked_s * 1e3:.1f} ms")

    estimates = calibration.temperature(bank.counter.codes_to_periods(codes.values))
    worst = np.max(np.abs(estimates - site_temps[:, np.newaxis]))
    print(f"worst per-site error across {len(population)} samples: {worst:.2f} C")

    # -- the same scan one sensor object at a time, for scale (a small slice) --
    loop_samples = 20
    start = time.perf_counter()
    for index in range(loop_samples):
        ring = bank.ring.rebind(population.technology_at(index))
        for name, temperature in zip(bank.names(), site_temps):
            sensor = SmartTemperatureSensor(ring, readout=bank.readout, name=name)
            sensor.calibrate_two_point(-50.0, 150.0)
            sensor.measure(float(temperature))
    loop_s = (time.perf_counter() - start) * len(population) / loop_samples
    print(f"per-sensor loop (extrapolated from {loop_samples} samples): "
          f"~{loop_s:.1f} s -> ~{loop_s / banked_s:.0f}x speedup")

    # -- the design question: how dense must the sensor grid be? --
    print()
    study = run_thermal_map_study(
        CMOS035, sensor_grids=(1, 2, 3, 4), sample_count=100, grid_resolution=24
    )
    print(study.format_table())
    budget = study.best_density_under(rms_limit_c=4.0)
    if budget is not None:
        print(f"\nsparsest grid meeting a 4 C RMS budget on every sample: "
              f"{budget.sensor_columns}x{budget.sensor_rows} "
              f"({budget.site_count} sensors, "
              f"{budget.scan_time_s * 1e6:.0f} us scan)")


if __name__ == "__main__":
    main()
