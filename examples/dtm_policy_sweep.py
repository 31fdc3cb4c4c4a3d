#!/usr/bin/env python3
"""Banked DTM policy sweeps: many throttling policies through one loop.

The paper frames its sensor as "the core part of any thermal management
system" — and choosing a thermal-management *policy* is a comparison
problem: how eagerly should the die throttle, how much hysteresis, how
many performance states?  This example shows the banked policy path
answering that end to end:

1. stack a set of candidate ``ThrottlingPolicy`` objects into a
   ``PolicyBank`` (struct-of-arrays thresholds + padded state tables),
2. run them all through ``DynamicThermalManager.run_bank`` — every
   timestep is **one** multi-RHS backward-Euler solve for the whole
   ``(cell, policy)`` temperature stack, one bilinear gather of every
   policy's sensor sites, one broadcast ring-period evaluation and one
   vectorized FSM step — and time it against eight one-policy
   ``run(policy=...)`` calls, each its own transient integration (the
   decisions match row for row),
3. declare the paper-facing comparison with
   ``run_dtm_policy_sweep``: policy x thermal-grid-resolution (the
   sweep engine's grid-refinement axis — one cached ``ThermalOperator``
   entry per resolution), with labeled ``SweepResult`` observables, and
4. add a Monte-Carlo ``sample`` axis: every process sample's sensors
   read the same die through their own corner and calibration, giving
   the policy robustness question one more broadcast dimension.

Run with:  python examples/dtm_policy_sweep.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import CMOS035, RingConfiguration, sample_technology_array
from repro.core import DynamicThermalManager, PolicyBank, ReadoutConfig, ThrottlingPolicy
from repro.experiments import example_policy_set, run_dtm_policy_sweep
from repro.thermal import Floorplan


def main() -> None:
    # -- the managed die: example processor, 3x3 sensors, 16x16 grid --
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(3, 3)
    manager = DynamicThermalManager(
        CMOS035,
        floorplan,
        RingConfiguration.parse("2INV+3NAND2"),
        readout=ReadoutConfig(),
        grid_resolution=16,
    )

    # -- eight candidate policies on one axis --
    bank = PolicyBank(
        {
            f"throttle-{threshold:.0f}": ThrottlingPolicy(
                throttle_threshold_c=float(threshold),
                release_threshold_c=float(threshold) - 15.0,
                emergency_threshold_c=float(threshold) + 10.0,
            )
            for threshold in np.linspace(95.0, 116.0, 8)
        }
    )
    kw = dict(
        duration_s=0.6, control_interval_s=0.03, limit_c=115.0, workload_scale=1.6
    )

    # -- one 8-policy bank versus eight one-policy runs --
    manager.run_bank(bank, **kw)  # warm the shared prepared solve
    start = time.perf_counter()
    banked = manager.run_bank(bank, **kw)
    banked_s = time.perf_counter() - start
    start = time.perf_counter()
    scalar = {label: manager.run(policy=bank.policy(label), **kw) for label in bank.labels()}
    scalar_s = time.perf_counter() - start
    print(f"8 policies, banked {banked_s * 1e3:.1f} ms vs looped "
          f"{scalar_s * 1e3:.0f} ms ({scalar_s / banked_s:.1f}x)")
    for label in bank.labels():
        assert [p.state_name for p in banked.to_result(label).trace] == [
            p.state_name for p in scalar[label].trace
        ], "every bank row must take its one-policy run's decisions"
    print("throttle decisions match the one-policy runs on every policy\n")

    peaks = banked.peak_temperature_c()
    performance = banked.average_performance()
    for index, label in enumerate(banked.labels):
        print(f"  {label:>12s}: peak {peaks[index]:6.1f} C, "
              f"performance {performance[index] * 100:5.1f} %")

    # -- the declarative policy x resolution sweep --
    sweep = run_dtm_policy_sweep(
        policies=example_policy_set(),
        duration_s=0.8,
        control_interval_s=0.04,
        grid_resolutions=(12, 16, 20),
        sensor_grid=2,
    )
    print()
    print(sweep.format_table())
    reduction = sweep.observable("peak_reduction_c")
    print(f"\nobservable dims: {reduction.dims}, shape {reduction.shape}")
    print(f"default-policy reduction at 16^2: "
          f"{reduction.select(policy='default', resolution=16).item():.1f} C")

    # -- the Monte-Carlo sample axis: policy robustness over process --
    population = sample_technology_array(CMOS035, 25, seed=42)
    robust = run_dtm_policy_sweep(
        policies=example_policy_set(),
        duration_s=0.8,
        control_interval_s=0.04,
        grid_resolutions=12,
        sensor_grid=2,
        technologies=population,
    )
    peak = robust.observable("peak_temperature_c").select(resolution=12)
    readings = robust.bank_result(12).hottest_reading_c  # (policy, sample, step)
    print(f"\npolicy x sample over {len(population)} Monte-Carlo samples "
          f"(per-sample calibration absorbs the process spread, so a zero "
          f"peak spread means every corner's sensors drive the same "
          f"decisions):")
    for index, label in enumerate(peak.coordinates("policy")):
        row = peak.select(policy=label).values
        spread = readings[index].max(axis=-1)
        print(f"  {label:>12s}: peak mean {row.mean():6.1f} C "
              f"(spread {row.max() - row.min():.2f} C), hottest-reading "
              f"spread {spread.max() - spread.min():.2f} C across corners")


if __name__ == "__main__":
    main()
