#!/usr/bin/env python3
"""The declarative sweep API: Fig. 3 x Monte-Carlo in one Sweep.

Every paper-facing artefact is a cross product of the same few named
axes — ring configuration (Fig. 3), process sample (the Monte-Carlo
calibration argument), supply, transistor sizing, temperature.  The
sweep API (``repro.engine.sweep``) lets you *declare* such a workload
instead of wiring bespoke loops: compose ``Axis`` objects over a base
technology, pick an observable, and get back a labeled ``SweepResult``
whose dimensions carry names and coordinates instead of anonymous
ndarray positions.

This example

1. declares the full Fig. 3 x Monte-Carlo cross product — all six paper
   configurations x 500 process samples x 41 temperatures — as one
   ``Sweep`` and evaluates it as a single ``(C, S, T)`` broadcast
   through the stacked configuration bank
   (``repro.oscillator.ConfigurationBank``),
2. times that broadcast against an inline per-configuration loop (one
   ``RingOscillator.period_matrix`` per ring) and verifies the
   agreement,
3. slices the labeled result by *name* — no dimension bookkeeping — to
   rank the configurations by their worst-case non-linearity spread
   across the population, and
4. shows a second observable on the same axes: the worst-case
   temperature error of an ideally two-point-calibrated sensor
   (``calibration_error_c``).

Run with:  python examples/batch_sweep.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    Axis,
    CMOS035,
    ConfigurationBank,
    PAPER_FIG3_CONFIGURATIONS,
    Sweep,
    default_library,
    sample_technology_array,
)


def main() -> None:
    temperatures = np.linspace(-50.0, 150.0, 41)
    population = sample_technology_array(CMOS035, 500, seed=1234)

    print("Workload : Fig. 3 configuration axis x Monte-Carlo sample axis")
    print(f"           {len(PAPER_FIG3_CONFIGURATIONS)} configurations x "
          f"{len(population)} samples x {temperatures.size} temperatures")

    # ------------------------------------------------------------------ #
    # 1. declare and evaluate the cross product
    # ------------------------------------------------------------------ #
    sweep = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
        .over(Axis.sample(population))
        .over(Axis.temperature(temperatures))
    )
    start = time.perf_counter()
    periods = sweep.run()
    broadcast_s = time.perf_counter() - start
    print(f"\nSweep dims   : {periods.dims}")
    print(f"Sweep shape  : {periods.shape}  (one (C, S, T) broadcast)")
    print(f"Broadcast    : {broadcast_s * 1e3:7.1f} ms")

    # ------------------------------------------------------------------ #
    # 2. a per-configuration loop is the reference
    # ------------------------------------------------------------------ #
    bank = ConfigurationBank(default_library(CMOS035), PAPER_FIG3_CONFIGURATIONS)
    start = time.perf_counter()
    looped = np.stack(
        [ring.period_matrix(population, temperatures) for ring in bank.rings()]
    )
    loop_s = time.perf_counter() - start
    worst = float(np.max(np.abs(periods.values - looped) / np.abs(looped)))
    print(f"Config loop  : {loop_s * 1e3:7.1f} ms   "
          f"(speedup {loop_s / broadcast_s:.1f}x, agreement {worst:.2e} rel)")

    # ------------------------------------------------------------------ #
    # 3. slice by name: linearity spread across the population
    # ------------------------------------------------------------------ #
    errors = sweep.observe("nonlinearity_percent").run()
    print("\nWorst-case non-linearity across the Monte-Carlo population")
    print(f"{'configuration':15s} {'median |NL|%':>14s} {'max |NL|%':>12s}")
    ranked = sorted(
        errors.coordinates("configuration"),
        key=lambda label: np.max(
            np.abs(errors.select(configuration=label).values)
        ),
    )
    for label in ranked:
        per_sample = np.max(
            np.abs(errors.select(configuration=label).values), axis=-1
        )
        print(f"{label:15s} {np.median(per_sample):14.3f} {np.max(per_sample):12.3f}")

    # ------------------------------------------------------------------ #
    # 4. same axes, another observable: calibrated temperature error
    # ------------------------------------------------------------------ #
    cal = sweep.observe("calibration_error_c").run()
    best = ranked[0]
    worst_error_c = np.max(np.abs(cal.select(configuration=best).values))
    print(f"\nTwo-point-calibrated worst-case error of {best}: "
          f"{worst_error_c:.2f} C over all samples and temperatures")


if __name__ == "__main__":
    main()
