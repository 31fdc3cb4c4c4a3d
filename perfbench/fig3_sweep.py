"""``fig3-sweep``: the paper's Fig. 3 question under process variation, in process.

One thread, closed loop.  Each op builds and runs
``Sweep(technology=CMOS035)`` over the six Fig. 3 ring configurations x a
1000-sample Monte-Carlo population x a 41-point temperature grid with the
``nonlinearity_percent`` observable.  Every op gets its own population
and jittered grid, drawn from the workload seed outside the timed region.

Set-up is building the cell library and the configuration bank and a
first sweep, repeated; importing the program is timed by the per-layer
``import.*`` metrics instead.  Times are reported at the nominal host
speed (``common.HostSpeed``), sampled after every op on this thread.
"""

from __future__ import annotations

import time

from .common import HostSpeed, Measured, Report, deadline_after, median

SAMPLES = 1000
GRID = (-50.0, 150.0, 41)
#: Grid points move by up to this much (deg C); below half the spacing,
#: so every grid stays sorted and free of duplicates.
JITTER_C = 2.0
SETUP_REPEATS = 5


class Fig3:
    """The imported program plus the seeded input stream."""

    def __init__(self, seed: int) -> None:
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

        self.np = np
        self.Axis = Axis
        self.Sweep = Sweep
        self.technology = CMOS035
        self.configurations = PAPER_FIG3_CONFIGURATIONS
        self.sample = sample_technology_array
        self.shape = (len(PAPER_FIG3_CONFIGURATIONS), SAMPLES, GRID[2])
        self._bank_type = ConfigurationBank
        self._library = default_library
        self.build()
        self.rng = np.random.default_rng(seed)
        self.base_grid = np.linspace(*GRID)

    def build(self) -> None:
        """Build the cell library and the configuration bank from scratch."""
        self.bank = self._bank_type(self._library(self.technology), self.configurations)

    def inputs(self):
        """A fresh (population, grid) pair; no two calls share either."""
        population = self.sample(
            self.technology, SAMPLES, seed=int(self.rng.integers(1 << 62))
        )
        jitter = self.rng.uniform(-JITTER_C, JITTER_C, self.base_grid.size)
        return population, self.base_grid + jitter

    def sweep(self, population, grid):
        return (
            self.Sweep(technology=self.technology)
            .over(self.Axis.configuration(self.configurations))
            .over(self.Axis.sample(population))
            .over(self.Axis.temperature(grid))
            .observe("nonlinearity_percent")
        )

    def valid(self, result) -> bool:
        values = self.np.asarray(result.values)
        return (
            tuple(result.dims) == ("configuration", "sample", "temperature")
            and values.shape == self.shape
            and bool(self.np.isfinite(values).all())
        )


def run(seed: int, seconds: float, report: Report) -> Measured:
    """Set up, then run Fig. 3 sweeps until the deadline."""
    report.speed = HostSpeed()
    fig3 = Fig3(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fig3.build()
        population, grid = fig3.inputs()
        report.op(fig3.valid(fig3.sweep(population, grid).run()))
        setups.append(time.perf_counter() - start)
        report.speed.sample()
    setup_s = median(setups)

    times = []
    stop = deadline_after(seconds)
    while time.perf_counter() < stop:
        population, grid = fig3.inputs()
        start = time.perf_counter()
        result = fig3.sweep(population, grid).run()
        times.append(time.perf_counter() - start)
        report.op(fig3.valid(result))
        report.speed.sample()
    return Measured(setup_s, times)
