#!/usr/bin/env python3
"""Batch Monte-Carlo with the vectorized evaluation engine.

The paper's calibration argument rests on a population statement: process
variation shifts the *absolute* ring period strongly (so the sensor needs
calibration) but leaves the *linearity* nearly untouched (so one cheap
calibration point suffices).  Checking that statement well needs many
Monte-Carlo samples over a dense temperature grid — exactly the workload
the batch engine accelerates.

This example

1. runs a 200-sample x 41-temperature Monte-Carlo study through
   ``run_monte_carlo`` (one sample x temperature broadcast) and times it
   against an inline per-sample loop that builds each sample's library
   and calls ``RingOscillator.period`` once per temperature,
2. verifies the two agree to floating-point rounding,
3. prints the population summary the paper's argument is built on, and
4. shows the stacked sample axis directly: a 1000-sample population
   drawn as one struct-of-arrays ``TechnologyArray``
   (``sample_technology_array``) and evaluated as a single
   ``(sample x temperature)`` broadcast through ``period_matrix`` —
   timed against an inline loop that rebinds the ring to one sample at
   a time.

Run with:  python examples/batch_montecarlo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    CMOS035,
    RingConfiguration,
    RingOscillator,
    default_library,
    sample_technology_array,
)
from repro.analysis import run_monte_carlo


def main() -> None:
    configuration = RingConfiguration.parse("2INV+3NAND2")
    temperatures = np.linspace(-50.0, 150.0, 41)
    samples = 200

    print(f"Configuration : {configuration.label()}")
    print(f"Workload      : {samples} Monte-Carlo samples x {temperatures.size} temperatures")

    start = time.perf_counter()
    study = run_monte_carlo(
        CMOS035, configuration, sample_count=samples,
        temperatures_c=temperatures, seed=1234,
    )
    vectorized_s = time.perf_counter() - start

    # The same seeded population, one library and one scalar period
    # call per sample and temperature.
    start = time.perf_counter()
    reference = []
    for tech in sample_technology_array(CMOS035, samples, seed=1234).technologies():
        sample_ring = RingOscillator(default_library(tech), configuration)
        reference.append([sample_ring.period(float(t)) for t in temperatures])
    reference = np.asarray(reference)
    scalar_s = time.perf_counter() - start

    periods = np.stack([response.periods_s for response in study.responses])
    worst_rel = float(np.max(np.abs(periods - reference) / reference))
    print(f"Vectorized    : {vectorized_s * 1e3:7.1f} ms")
    print(f"Scalar loop   : {scalar_s * 1e3:7.1f} ms")
    print(f"Speedup       : {scalar_s / vectorized_s:7.1f} x")
    print(f"Agreement     : worst relative period error {worst_rel:.2e}")

    print()
    print("Population summary (the paper's calibration argument):")
    print(f"  period spread at 25 C : {study.period_spread_percent:6.2f} % "
          "(large -> calibration needed)")
    print(f"  worst non-linearity   : mean {study.nonlinearity_percent.mean:.3f} %, "
          f"max {study.nonlinearity_percent.maximum:.3f} % "
          "(small -> one-point calibration suffices)")
    print(f"  mean sensitivity      : {study.sensitivity_s_per_k.mean * 1e15:.2f} fs/K")

    # ------------------------------------------------------------------ #
    # The stacked sample axis, hands on
    # ------------------------------------------------------------------ #
    print()
    print("Stacked sample axis (struct-of-arrays technologies):")
    ring = RingOscillator(default_library(CMOS035), configuration)
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    start = time.perf_counter()
    matrix = ring.period_matrix(population, temperatures)
    stacked_s = time.perf_counter() - start

    start = time.perf_counter()
    looped = np.stack(
        [
            ring.rebind(tech).period_series(temperatures)
            for tech in population.technologies()
        ]
    )
    looped_s = time.perf_counter() - start

    worst = float(np.max(np.abs(matrix - looped) / np.abs(looped)))
    print(f"  population    : {len(population)} samples x {temperatures.size} temperatures")
    print(f"  stacked       : {stacked_s * 1e3:7.1f} ms  (one broadcast, no per-sample loop)")
    print(f"  per-sample    : {looped_s * 1e3:7.1f} ms  (one rebind per sample)")
    print(f"  speedup       : {looped_s / stacked_s:7.1f} x")
    print(f"  agreement     : worst relative period error {worst:.2e}")


if __name__ == "__main__":
    main()
