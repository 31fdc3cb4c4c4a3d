"""``dtm-256``: sensor-driven thermal throttling on a 256 x 256 die grid, in process.

One thread.  A ``DynamicThermalManager`` on ``Floorplan.example_processor()``
with a 3 x 3 sensor grid at ``grid_resolution=256`` (the multigrid path
of the ``auto`` solver).  Each op is a one-policy ``run`` followed by a
4-policy ``run_bank``, both over a few control steps at the same
``workload_scale``, drawn from the workload seed.

Set-up is building the manager, the thermal operator with its multigrid
hierarchy and the stepper from a cleared operator cache, plus one
warm-up op of each kind, repeated; importing the program is timed by the
per-layer ``import.*`` metrics instead.  Times are reported at the
nominal host speed (``common.HostSpeed``), sampled after every op on
this thread.
"""

from __future__ import annotations

import time

from .common import HostSpeed, Measured, Report, deadline_after, median

RESOLUTION = 256
SENSOR_GRID = (3, 3)
CONFIGURATION = "2INV+3NAND2"
INTERVAL_S = 0.02
STEPS = 3
SCALE_RANGE = (0.8, 1.3)
#: (throttle, release, emergency) thresholds of the four banked policies.
POLICY_THRESHOLDS = (
    (110.0, 95.0, 125.0),
    (100.0, 90.0, 120.0),
    (90.0, 80.0, 110.0),
    (80.0, 70.0, 100.0),
)
#: Power scales of the four columns of the replayed block step.
BLOCK_SCALES = (1.0, 0.6, 0.25, 1.0)
SETUP_REPEATS = 3


class Dtm:
    """The imported program, the manager under test and the seeded scales."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro import CMOS035, Floorplan, RingConfiguration
        from repro.core import DynamicThermalManager, ThrottlingPolicy
        from repro.thermal import (
            TemperatureMap,
            ThermalGrid,
            ThermalGridParameters,
            ThermalOperator,
        )

        self.np = np
        self._technology = CMOS035
        self._floorplan = Floorplan
        self._configuration = RingConfiguration.parse(CONFIGURATION)
        self._manager_type = DynamicThermalManager
        self._map_type = TemperatureMap
        self._grid_type = ThermalGrid
        self._grid_parameters = ThermalGridParameters
        self._operator_type = ThermalOperator
        self.policies = {
            f"policy{index}": ThrottlingPolicy(*thresholds)
            for index, thresholds in enumerate(POLICY_THRESHOLDS)
        }
        self.rng = np.random.default_rng(seed)

    def build(self) -> float:
        """Build manager, operator and stepper from cold; returns operator set-up s."""
        self._operator_type.clear_cache()
        floorplan = self._floorplan.example_processor()
        floorplan.add_sensor_grid(*SENSOR_GRID)
        self.manager = self._manager_type(
            self._technology,
            floorplan,
            self._configuration,
            grid_resolution=RESOLUTION,
        )
        self.power = self.manager.base_power_map.values_w.reshape(-1)
        start = time.perf_counter()
        self.grid = self._grid_type.for_power_map(
            self.manager.base_power_map, self._grid_parameters()
        )
        self.stepper = self._operator_type.for_grid(self.grid).stepper(INTERVAL_S)
        self.stepper.step(self.np.zeros_like(self.power), self.power)
        return time.perf_counter() - start

    def scale(self) -> float:
        return float(self.rng.uniform(*SCALE_RANGE))

    def single(self, scale: float):
        """One-policy ``run``: (seconds, steps, ok)."""
        start = time.perf_counter()
        result = self.manager.run(
            duration_s=STEPS * INTERVAL_S,
            control_interval_s=INTERVAL_S,
            workload_scale=scale,
        )
        elapsed = time.perf_counter() - start
        values = [
            (point.power_w, point.true_peak_c, point.hottest_reading_c)
            for point in result.trace
        ]
        ok = bool(values) and self._finite(values, result.final_map.values_c)
        return elapsed, len(result.trace), ok

    def bank(self, scale: float):
        """4-policy ``run_bank``: (seconds, steps, ok)."""
        start = time.perf_counter()
        result = self.manager.run_bank(
            self.policies,
            duration_s=STEPS * INTERVAL_S,
            control_interval_s=INTERVAL_S,
            workload_scale=scale,
        )
        elapsed = time.perf_counter() - start
        ok = result.step_count > 0 and self._finite(
            result.power_w,
            result.true_peak_c,
            result.hottest_reading_c,
            result.final_values_c,
        )
        return elapsed, result.step_count, ok

    def _finite(self, *arrays) -> bool:
        np = self.np
        return all(bool(np.isfinite(np.asarray(a, dtype=float)).all()) for a in arrays)

    def replay(self, scale: float, layers) -> None:
        """Time the stepper and the sensor scan on this power scale."""
        np = self.np
        rise = np.zeros_like(self.power)
        for _ in range(STEPS):
            start = time.perf_counter()
            rise = self.stepper.step(rise, self.power * scale)
            layers["thermal.step_ms"].append(time.perf_counter() - start)
        field = self._map_type(
            self.grid.width_mm,
            self.grid.height_mm,
            rise.reshape((self.grid.ny, self.grid.nx)) + self.manager.ambient_c,
        )
        sensors = self.manager.monitor.bank
        truths = field.sample_points(*sensors.positions())
        start = time.perf_counter()
        sensors.scan(truths)
        layers["core.scan_ms"].append(time.perf_counter() - start)
        columns = np.asarray(BLOCK_SCALES) * scale
        block = np.zeros((self.power.size, columns.size))
        for _ in range(STEPS):
            start = time.perf_counter()
            block = self.stepper.step(block, self.power[:, np.newaxis] * columns)
            layers["thermal.block_step_ms"].append(time.perf_counter() - start)


def run(seed: int, seconds: float, report: Report) -> Measured:
    """Set up, then run ``run``/``run_bank`` pairs until the deadline."""
    report.speed = HostSpeed()
    dtm = Dtm(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dtm.build()
        # Warm-up: one op of each kind on the freshly built operator.
        for half in (dtm.single, dtm.bank):
            report.op(half(dtm.scale())[2])
        setups.append(time.perf_counter() - start)
        report.speed.sample()
    setup_s = median(setups)

    times = []
    stop = deadline_after(seconds)
    while time.perf_counter() < stop:
        scale = dtm.scale()
        elapsed = 0.0
        for half in (dtm.single, dtm.bank):
            seconds_taken, _steps, ok = half(scale)
            report.op(ok)
            elapsed += seconds_taken
        times.append(elapsed)
        report.speed.sample()
    return Measured(setup_s, times)
