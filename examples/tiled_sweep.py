#!/usr/bin/env python3
"""Tiled sweep execution: the same sweep in serial and process-pool tiles.

``Sweep.run()`` evaluates the whole axis product as one dense in-memory
broadcast.  Given an executor, the tiled execution layer
(``repro.engine.tiling`` + ``repro.engine.executors``) instead splits
the planned sweep into chunks of at most ``max_tile_elements`` elements
along the cheapest-to-split axes (sample, then temperature) and runs
them through a backend:

* ``"serial"`` evaluates the tiles in order, in process;
* ``ProcessExecutor`` fans them out over a worker pool, shipping each
  tile as a pickled sub-plan that carries only its population rows.

Both assemble a result **bitwise identical** to the dense pass, because
each tile evaluates exactly the same elementwise broadcast on a slice of
the population.  This example runs one Monte-Carlo sweep all three
ways, checks the three tensors are equal bit for bit, and prints the
environment knobs that route every ``Sweep.run`` in a process through a
backend without touching call sites.

Run with:  python examples/tiled_sweep.py
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import (
    Axis,
    CMOS035,
    ProcessExecutor,
    RingConfiguration,
    Sweep,
    sample_technology_array,
)
from repro.engine import plan_tiles

TILE_ELEMENTS = 1 << 14


def main() -> None:
    temperatures = np.linspace(-50.0, 150.0, 41)
    population = sample_technology_array(CMOS035, 2000, seed=77)
    sweep = (
        Sweep(technology=CMOS035, configuration=RingConfiguration.parse("2INV+3NAND2"))
        .over(Axis.sample(population))
        .over(Axis.temperature(temperatures))
    )

    tiling = plan_tiles(sweep.plan(), max_tile_elements=TILE_ELEMENTS)
    print(f"sweep       : {len(population)} samples x {temperatures.size} "
          f"temperatures = {tiling.total_elements} periods")
    print(f"tiling      : {len(tiling.tiles)} tiles of at most {TILE_ELEMENTS} "
          f"elements, split along {[b[0] for b in tiling.tiles[0].bounds]}")

    workers = min(2, os.cpu_count() or 1)
    runs = {
        "dense": {},
        "serial": {"executor": "serial", "max_tile_elements": TILE_ELEMENTS},
        f"process-{workers}": {
            "executor": ProcessExecutor(max_workers=workers),
            "max_tile_elements": TILE_ELEMENTS,
        },
    }
    # The process run's time includes starting the worker pool.
    results = {}
    for label, kwargs in runs.items():
        start = time.perf_counter()
        results[label] = sweep.run(**kwargs)
        elapsed = time.perf_counter() - start
        print(f"{label:<12}: {elapsed * 1e3:7.1f} ms  shape={results[label].shape}")

    dense = results["dense"].values
    for label, result in results.items():
        if label != "dense":
            identical = np.array_equal(result.values, dense)
            print(f"{label} bitwise equal to dense: {identical}")
            if not identical:
                raise SystemExit(f"{label} tiles disagree with the dense pass")

    at_25c = results["serial"].select(temperature=25.0).values
    print(f"period @ 25 C: median {np.median(at_25c) * 1e9:.2f} ns across the population")

    print("\nEnvironment-selected default backend:")
    print("  REPRO_SWEEP_EXECUTOR=process REPRO_SWEEP_WORKERS=2 python ...")
    print("  routes every Sweep.run() through the pool; the experiment CLI")
    print("  exposes the same knobs as --executor/--workers/--tile-elements.")


if __name__ == "__main__":
    main()
