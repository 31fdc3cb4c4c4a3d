"""Benchmark ENGINE: scalar loops versus the vectorized batch engine.

Times the library's broadcast paths against the scalar reference loops
of ``tests/oracles.py`` on the workloads the paper's artefacts are
built from — Monte-Carlo
populations (25 / 200 / 1000 samples x 41 temperatures), the Fig. 2
sizing sweep and the Fig. 3 x Monte-Carlo configuration-axis cross
product — so the recorded BENCH_engine.json tracks the speedup over
time (CI regenerates it at the repo root via
``pytest benchmarks/test_bench_engine.py --benchmark-json=BENCH_engine.json``;
see .github/workflows/ci.yml).  Asserted shape: at the realistic
200-sample point the vectorized engine is at least 3x faster than the
scalar reference loop and agrees with it to 1e-9 relative on every
period; at 1000 samples the stacked sample axis (struct-of-arrays
technologies, PR 2) is at least 3x faster than PR 1's per-sample rebind
loop with the same 1e-9 agreement; the (C, S, T) configuration-axis
broadcast (ConfigurationBank, PR 3) is at least 3x faster than the
per-configuration loop oracle at Fig. 3 scale, again to 1e-9; the
banked sensor-bank scan (SensorBank, PR 4) is at least 3x faster than
the per-sensor oracle at 9 sites x 1000 Monte-Carlo samples with exact
counter codes; repeated steady-state thermal solves through the
cached ThermalOperator solve are at least 3x faster than the
factorize-per-solve path they replaced; the banked DTM policy sweep
(PolicyBank, PR 5) is at least 3x faster than looping the scalar
closed loop over 8 policies with bit-identical throttle decisions; and
the tiled multiprocess sweep backend
(PR 6) is at least 2x faster than serial tiles at 4 workers on the
20000-sample Monte-Carlo x dense-grid sweep, bitwise identical to the
dense path (the speedup floor is asserted only where >= 4 cores are
actually available; the ``sweep-tiled-parallel`` group is recorded
everywhere); on the 256x256 full-die grid the exact spectral (DCT)
thermal solve agrees with the sparse-direct reference
(``oracles.direct_solve``) to 1e-10 relative and is at least 5x
faster than a warm reference solve on fresh right-hand sides
(the ``thermal-spectral-256x256`` group records a steady solve and a
1- and 4-column backward-Euler step); and the sweep service's
micro-batcher (PR 8) answers 16 concurrent point queries at least 2x
faster than the same 16 queries issued sequentially against an
unbatched server (one broadcast evaluation instead of 16), bitwise
identical to local evaluation (the ``serve-microbatch`` group records
both wall clocks); and the technology-node study (PR 10) — 4 nodes x
200 Monte-Carlo samples x 41 temperatures, the workload the declarative
``technology`` sweep axis amortizes — runs at least 2x faster through
the per-node banked broadcast the axis lowers onto than through
rebinding a scalar technology per sample, to 1e-9 relative agreement
(the ``sweep-technology-axis`` group records both forms).
"""

import contextlib
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis.montecarlo import run_monte_carlo
from repro.cells import default_library
from repro.core import DynamicThermalManager, ReadoutConfig, SensorBank, ThrottlingPolicy
from repro.engine import Axis, ProcessExecutor, Sweep
from repro.serve import ServeClient, start_server_thread
from repro.experiments import run_calibration_study, run_dtm_study
from repro.optimize.sizing import sweep_width_ratio
from repro.oscillator import (
    PAPER_FIG3_CONFIGURATIONS,
    ConfigurationBank,
    RingConfiguration,
    RingOscillator,
)
from repro.tech import CMOS013, CMOS018, CMOS025, CMOS035, sample_technology_array
from repro.thermal import Floorplan, PowerMap, ThermalGrid, ThermalOperator

# The scalar reference loops live with the test suite; put it on the
# path so this file also runs on its own.
_TESTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
sys.path.insert(0, os.path.normpath(_TESTS_DIR))
import oracles  # noqa: E402

CONFIGURATION = RingConfiguration.parse("2INV+3NAND2")
DENSE_GRID = np.linspace(-50.0, 150.0, 41)

#: Junction temperatures of the 3x3 sensor-bank scan benchmarks.
SCAN_TEMPS = np.linspace(50.0, 110.0, 9)


def _make_bank():
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(3, 3)
    return SensorBank.from_floorplan(CMOS035, floorplan, CONFIGURATION)


def _best_time(callable_, rounds=3):
    """Best-of-N wall-clock time (and last result) of a zero-arg callable.

    The speedup assertions gate CI on shared runners, where a scheduling
    stall inside the short fast-path window would fake a slowdown; the
    minimum over a few rounds removes that flake vector.  (A stall in
    the *slow* reference path only increases the measured speedup, so a
    single slow-path run stays sound.)
    """
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_monte_carlo(vectorized, sample_count):
    run = run_monte_carlo if vectorized else oracles.monte_carlo_scalar
    return run(
        CMOS035,
        CONFIGURATION,
        sample_count=sample_count,
        temperatures_c=DENSE_GRID,
        seed=1234,
    )


@pytest.mark.benchmark(group="engine-mc-25")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_monte_carlo_25_samples(benchmark, vectorized):
    study = benchmark.pedantic(
        _run_monte_carlo, args=(vectorized, 25), rounds=3, iterations=1
    )
    assert study.sample_count == 25


@pytest.mark.benchmark(group="engine-mc-200")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_monte_carlo_200_samples(benchmark, vectorized):
    study = benchmark.pedantic(
        _run_monte_carlo, args=(vectorized, 200), rounds=2, iterations=1
    )
    assert study.sample_count == 200


@pytest.mark.slow
@pytest.mark.benchmark(group="engine-mc-1000")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_monte_carlo_1000_samples(benchmark, vectorized):
    study = benchmark.pedantic(
        _run_monte_carlo, args=(vectorized, 1000), rounds=1, iterations=1
    )
    assert study.sample_count == 1000


def test_monte_carlo_speedup_at_200x41():
    """The ISSUE acceptance criterion: >= 3x at 200 samples x 41 temps,
    with vectorized-vs-scalar relative period error bounded by 1e-9."""
    vectorized_s, vectorized = _best_time(lambda: _run_monte_carlo(True, 200))

    start = time.perf_counter()
    scalar = _run_monte_carlo(False, 200)
    scalar_s = time.perf_counter() - start

    speedup = scalar_s / vectorized_s
    print(f"\nengine speedup at 200x41: {speedup:.1f}x "
          f"(scalar {scalar_s * 1e3:.0f} ms, vectorized {vectorized_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    worst = max(
        float(np.max(np.abs(v.periods_s - s.periods_s) / s.periods_s))
        for v, s in zip(vectorized.responses, scalar.responses)
    )
    assert worst <= 1e-9
    assert vectorized.period_spread_percent == pytest.approx(
        scalar.period_spread_percent, rel=1e-9
    )


def test_stacked_speedup_at_1000x41():
    """The PR 2 acceptance criterion: the stacked sample axis is >= 3x
    faster than the PR 1 per-sample rebind loop at 1000 Monte-Carlo
    samples x 41 temperatures, agreeing to 1e-9 relative on every
    period."""
    ring = RingOscillator(default_library(CMOS035), CONFIGURATION)
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    stacked_s, stacked = _best_time(
        lambda: ring.period_matrix(population, DENSE_GRID)
    )

    start = time.perf_counter()
    looped = oracles.period_matrix_loop(ring, population, DENSE_GRID)
    looped_s = time.perf_counter() - start

    speedup = looped_s / stacked_s
    print(f"\nstacked speedup at 1000x41: {speedup:.1f}x "
          f"(looped {looped_s * 1e3:.0f} ms, stacked {stacked_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    assert stacked.shape == looped.shape == (1000, DENSE_GRID.size)
    worst = float(np.max(np.abs(stacked - looped) / np.abs(looped)))
    assert worst <= 1e-9


@pytest.mark.benchmark(group="engine-stacked-1000x41")
@pytest.mark.parametrize("mode", ["stacked", "looped"])
def test_period_matrix_1000_samples(benchmark, mode):
    ring = RingOscillator(default_library(CMOS035), CONFIGURATION)
    population = sample_technology_array(CMOS035, 1000, seed=1234)
    evaluate = (
        ring.period_matrix
        if mode == "stacked"
        else lambda population, grid: oracles.period_matrix_loop(
            ring, population, grid
        )
    )
    matrix = benchmark.pedantic(
        evaluate, args=(population, DENSE_GRID), rounds=2, iterations=1
    )
    assert matrix.shape == (1000, DENSE_GRID.size)


def test_configuration_axis_speedup_at_fig3_scale():
    """The PR 3 acceptance criterion: the Fig. 3 x Monte-Carlo cross
    product evaluated as one (C, S, T) broadcast through the
    configuration bank is >= 3x faster than the
    per-configuration loop at Fig. 3 scale (6 configurations x 1000
    samples x 41 temperatures), agreeing to 1e-9 relative on every
    period."""
    bank = ConfigurationBank(default_library(CMOS035), PAPER_FIG3_CONFIGURATIONS)
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    stacked_s, stacked = _best_time(
        lambda: bank.period_tensor(DENSE_GRID, technologies=population)
    )

    start = time.perf_counter()
    looped = oracles.period_tensor_loop(bank, DENSE_GRID, technologies=population)
    looped_s = time.perf_counter() - start

    speedup = looped_s / stacked_s
    print(f"\nconfiguration-axis speedup at 6x1000x41: {speedup:.1f}x "
          f"(looped {looped_s * 1e3:.0f} ms, broadcast {stacked_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    assert stacked.shape == looped.shape == (
        len(PAPER_FIG3_CONFIGURATIONS), 1000, DENSE_GRID.size
    )
    worst = float(np.max(np.abs(stacked - looped) / np.abs(looped)))
    assert worst <= 1e-9


@pytest.mark.benchmark(group="engine-config-bank-6x1000x41")
@pytest.mark.parametrize("mode", ["broadcast", "looped"])
def test_configuration_bank_fig3_cross_product(benchmark, mode):
    bank = ConfigurationBank(default_library(CMOS035), PAPER_FIG3_CONFIGURATIONS)
    population = sample_technology_array(CMOS035, 1000, seed=1234)
    evaluate = (
        bank.period_tensor
        if mode == "broadcast"
        else lambda grid, technologies: oracles.period_tensor_loop(
            bank, grid, technologies=technologies
        )
    )
    tensor = benchmark.pedantic(
        evaluate,
        args=(DENSE_GRID,),
        kwargs=dict(technologies=population),
        rounds=2,
        iterations=1,
    )
    assert tensor.shape == (len(PAPER_FIG3_CONFIGURATIONS), 1000, DENSE_GRID.size)


@pytest.mark.benchmark(group="engine-fig3-sweep")
@pytest.mark.parametrize("vectorized", [True, False], ids=["sweep", "scalar"])
def test_fig3_named_configurations_through_sweep_api(benchmark, vectorized):
    """The declarative form of the Fig. 3 sweep: configuration axis x
    temperature axis, lowered onto the bank broadcast (or the scalar
    per-configuration oracle loop).  The library is built
    outside both timed closures so the comparison measures evaluation,
    not library construction."""
    library = default_library(CMOS035)
    if vectorized:
        def evaluate():
            return (
                Sweep(library=library)
                .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
                .over(Axis.temperature(DENSE_GRID))
                .run()
                .values
            )
    else:
        def evaluate():
            return np.stack([
                oracles.evaluate_configuration_scalar(
                    library, configuration, DENSE_GRID
                ).response.periods_s
                for configuration in PAPER_FIG3_CONFIGURATIONS.values()
            ])

    tensor = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    assert tensor.shape == (len(PAPER_FIG3_CONFIGURATIONS), DENSE_GRID.size)


def test_banked_scan_speedup_at_9_sites_x_1000_samples():
    """The PR 4 acceptance criterion: a full sensor-bank scan (two-point
    calibration + measurement of every site against the whole
    Monte-Carlo population) through the banked broadcast path is >= 3x
    faster than the retained per-sensor oracle (one scalar sensor per
    site per sample, controller FSM included) at 9 sites x 1000
    samples, with exact counter codes and estimates agreeing to 1e-9
    relative."""
    bank = _make_bank()
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    def banked():
        calibration = bank.two_point_calibration(
            -50.0, 150.0, technologies=population
        )
        return bank.scan(SCAN_TEMPS, technologies=population, calibration=calibration)

    banked_s, fast = _best_time(banked)

    start = time.perf_counter()
    oracle = oracles.bank_scan_loop(
        bank, SCAN_TEMPS, technologies=population, calibrate_at=(-50.0, 150.0)
    )
    oracle_s = time.perf_counter() - start

    speedup = oracle_s / banked_s
    print(f"\nbanked-scan speedup at 9x1000: {speedup:.0f}x "
          f"(oracle {oracle_s * 1e3:.0f} ms, banked {banked_s * 1e3:.1f} ms)")
    assert speedup >= 3.0

    assert fast.codes.shape == oracle.codes.shape == (9, 1000)
    assert np.array_equal(fast.codes, oracle.codes)
    worst = float(
        np.max(np.abs(fast.estimates_c - oracle.estimates_c) / np.abs(oracle.estimates_c))
    )
    assert worst <= 1e-9


@pytest.mark.benchmark(group="engine-bank-scan-9x200")
@pytest.mark.parametrize("mode", ["banked", "oracle"])
def test_bank_scan_9_sites_200_samples(benchmark, mode):
    bank = _make_bank()
    population = sample_technology_array(CMOS035, 200, seed=1234)
    if mode == "banked":
        def evaluate():
            calibration = bank.two_point_calibration(
                -50.0, 150.0, technologies=population
            )
            return bank.scan(
                SCAN_TEMPS, technologies=population, calibration=calibration
            )
    else:
        def evaluate():
            return oracles.bank_scan_loop(
                bank, SCAN_TEMPS, technologies=population, calibrate_at=(-50.0, 150.0)
            )
    scan = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    assert scan.codes.shape == (9, 200)


@pytest.mark.benchmark(group="engine-bank-scan-9x1000")
def test_bank_scan_9_sites_1000_samples_banked(benchmark):
    bank = _make_bank()
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    def evaluate():
        calibration = bank.two_point_calibration(
            -50.0, 150.0, technologies=population
        )
        return bank.scan(SCAN_TEMPS, technologies=population, calibration=calibration)

    scan = benchmark.pedantic(evaluate, rounds=3, iterations=1)
    assert scan.codes.shape == (9, 1000)


def test_factorization_reuse_speedup():
    """The PR 4 thermal acceptance criterion: repeated steady-state
    solves through the cached ThermalOperator solve are >= 3x faster
    than the pre-operator path (one sparse-direct factorization per
    solve, ``oracles.direct_solve``), agreeing to solver rounding."""
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=48, ny=48)
    grid = ThermalGrid.for_power_map(power)
    rhs = power.values_w.reshape(-1)
    solves = 10
    matrix = oracles.conductance_matrix(grid)

    def refactorize_every_solve():
        return [oracles.direct_solve(matrix)(rhs) for _ in range(solves)]

    def cached_solve():
        operator = ThermalOperator(grid)
        return [operator.steady_rise(rhs) for _ in range(solves)]

    cached_s, cached = _best_time(cached_solve)

    start = time.perf_counter()
    reference = refactorize_every_solve()
    refactorized_s = time.perf_counter() - start

    speedup = refactorized_s / cached_s
    print(f"\nfactorization-reuse speedup over {solves} steady solves on 48x48: "
          f"{speedup:.1f}x (refactorize {refactorized_s * 1e3:.0f} ms, "
          f"cached {cached_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    worst = float(np.max(np.abs(cached[0] - reference[0]) / np.abs(reference[0])))
    assert worst <= 1e-9


@pytest.mark.benchmark(group="thermal-steady-48x48x10")
@pytest.mark.parametrize("mode", ["cached", "refactorize"])
def test_repeated_steady_solves(benchmark, mode):
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=48, ny=48)
    grid = ThermalGrid.for_power_map(power)
    rhs = power.values_w.reshape(-1)

    if mode == "cached":
        def evaluate():
            operator = ThermalOperator(grid)
            return [operator.steady_rise(rhs) for _ in range(10)]
    else:
        matrix = oracles.conductance_matrix(grid)

        def evaluate():
            return [oracles.direct_solve(matrix)(rhs) for _ in range(10)]

    result = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    assert len(result) == 10


#: The 8-policy comparison set of the policy-bank benchmarks: throttle
#: thresholds spread across the reachable band, fixed hysteresis.
POLICY_SET = {
    f"throttle-{threshold:.0f}": ThrottlingPolicy(
        throttle_threshold_c=float(threshold),
        release_threshold_c=float(threshold) - 15.0,
        emergency_threshold_c=float(threshold) + 10.0,
    )
    for threshold in np.linspace(95.0, 116.0, 8)
}

DTM_KW = dict(
    duration_s=0.6, control_interval_s=0.03, limit_c=115.0, workload_scale=1.6
)


def _make_manager():
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(3, 3)
    return DynamicThermalManager(
        CMOS035,
        floorplan,
        RingConfiguration.parse("2INV+3NAND2"),
        readout=ReadoutConfig(),
        grid_resolution=16,
    )


def test_policy_bank_speedup_at_8_policies():
    """The PR 5 acceptance criterion: the banked DTM policy sweep (all
    policies through one shared ThermalStepper, one multi-RHS solve +
    one broadcast sensor scan + one vectorized FSM step per timestep)
    is >= 3x faster than looping the scalar closed loop over 8 policies
    on one grid, with bit-identical throttle decisions and temperatures
    agreeing to 1e-9 relative."""
    manager = _make_manager()
    # Warm the shared backward-Euler solve so both paths time
    # pure evaluation (the scalar loop reuses it too).
    manager.run_bank(POLICY_SET, **DTM_KW)

    banked_s, banked = _best_time(lambda: manager.run_bank(POLICY_SET, **DTM_KW))

    start = time.perf_counter()
    scalar = {
        label: oracles.dtm_run_scalar(manager, policy, **DTM_KW)
        for label, policy in POLICY_SET.items()
    }
    scalar_s = time.perf_counter() - start

    speedup = scalar_s / banked_s
    print(f"\npolicy-bank speedup at 8 policies x 16x16: {speedup:.1f}x "
          f"(looped {scalar_s * 1e3:.0f} ms, banked {banked_s * 1e3:.1f} ms)")
    assert speedup >= 3.0

    for label, policy in POLICY_SET.items():
        row = banked.to_result(label)
        oracle = scalar[label]
        assert [p.state_name for p in row.trace] == [
            p.state_name for p in oracle.trace
        ]
        ours = np.asarray([p.true_peak_c for p in row.trace])
        theirs = np.asarray([p.true_peak_c for p in oracle.trace])
        assert np.max(np.abs(ours - theirs) / np.abs(theirs)) <= 1e-9
        assert row.throttle_events() == oracle.throttle_events()


@pytest.mark.benchmark(group="thermal-policy-bank-8x16")
@pytest.mark.parametrize("mode", ["banked", "looped"])
def test_policy_bank_8_policies(benchmark, mode):
    """Records the banked-vs-looped policy sweep into BENCH_engine.json
    (the CI bench job asserts this group is present)."""
    manager = _make_manager()
    if mode == "banked":
        def evaluate():
            return manager.run_bank(POLICY_SET, **DTM_KW)
    else:
        def evaluate():
            return [
                oracles.dtm_run_scalar(manager, policy, **DTM_KW)
                for policy in POLICY_SET.values()
            ]
    result = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    assert result is not None


@pytest.mark.benchmark(group="thermal-dtm-study")
def test_dtm_study_wall_clock(benchmark):
    """Records the DTM study's wall clock (managed + unmanaged closed
    loops on one manager) so BENCH_engine.json tracks the prepared-solve
    reuse and the banked per-step sensor scans over time."""
    result = benchmark.pedantic(
        run_dtm_study,
        kwargs=dict(duration_s=0.6, control_interval_s=0.03, grid_resolution=16),
        rounds=2,
        iterations=1,
    )
    assert result.managed.peak_temperature_c() <= result.unmanaged.peak_temperature_c()


@pytest.mark.benchmark(group="engine-calibration-study")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_calibration_study_batched(benchmark, vectorized):
    result = benchmark.pedantic(
        run_calibration_study if vectorized else oracles.calibration_study_scalar,
        kwargs=dict(monte_carlo_samples=12),
        rounds=2,
        iterations=1,
    )
    assert result.sample_count == 17


@pytest.mark.benchmark(group="engine-fig2-sweep")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_sizing_sweep_dense_grid(benchmark, vectorized, tech):
    result = benchmark.pedantic(
        sweep_width_ratio if vectorized else oracles.sweep_width_ratio_scalar,
        args=(tech,),
        kwargs=dict(temperatures_c=DENSE_GRID),
        rounds=3,
        iterations=1,
    )
    assert result.best().max_abs_error_percent < 0.25


#: The tiled-execution benchmark workload: a Monte-Carlo population x
#: dense temperature grid big enough that tile fan-out dominates
#: per-task overhead (20000 x 41 = 820k elements, 0.1-0.2 s of serial
#: evaluation on a 2-core VM), split into ~2^17-element tiles.
TILED_SAMPLES = 20000
TILED_TILE_ELEMENTS = 1 << 17


def _tiled_sweep():
    # A prebuilt ring as the base context: the timed region then
    # measures tile evaluation and transport, not per-tile cell-library
    # construction.
    ring = RingOscillator(default_library(CMOS035), CONFIGURATION)
    population = sample_technology_array(CMOS035, TILED_SAMPLES, seed=1234)
    return (
        Sweep(ring=ring)
        .over(Axis.sample(population))
        .over(Axis.temperature(DENSE_GRID))
    )


def test_tiled_parallel_speedup_at_4_workers():
    """The PR 6 acceptance criterion: the multiprocess backend is >= 2x
    faster than serial tiles at 4 workers on the 20000-sample sweep,
    with bitwise-identical results.  The floor is a statement about
    parallel hardware, so it is asserted only where 4 cores exist (the
    CI bench job runs on 4-vCPU runners); the bitwise-identity half
    holds — and is checked — everywhere."""
    sweep = _tiled_sweep()
    workers = 4

    parallel_executor = ProcessExecutor(max_workers=workers)
    # Warm the worker pool outside the timing: pool startup is a
    # once-per-process cost the backend amortizes by design.
    sweep.run(executor=parallel_executor, max_tile_elements=TILED_TILE_ELEMENTS)

    parallel_s, parallel = _best_time(
        lambda: sweep.run(
            executor=parallel_executor, max_tile_elements=TILED_TILE_ELEMENTS
        ),
        rounds=2,
    )

    start = time.perf_counter()
    serial = sweep.run(executor="serial", max_tile_elements=TILED_TILE_ELEMENTS)
    serial_s = time.perf_counter() - start

    speedup = serial_s / parallel_s
    print(f"\ntiled-parallel speedup at {TILED_SAMPLES}x{DENSE_GRID.size}, "
          f"{workers} workers: {speedup:.2f}x "
          f"(serial {serial_s * 1e3:.0f} ms, parallel {parallel_s * 1e3:.0f} ms)")

    assert serial.dims == parallel.dims
    assert np.array_equal(serial.values, parallel.values)
    if (os.cpu_count() or 1) >= workers:
        assert speedup >= 2.0
    else:
        pytest.skip(
            f"speedup floor needs {workers} cores, have {os.cpu_count()}; "
            f"bitwise identity verified"
        )


@pytest.mark.benchmark(group="sweep-tiled-parallel")
@pytest.mark.parametrize("mode", ["process-4", "serial"])
def test_tiled_sweep_execution(benchmark, mode):
    """Records serial-tiles vs 4-worker-pool wall clock into
    BENCH_engine.json (the CI bench job asserts this group is present)."""
    sweep = _tiled_sweep()
    if mode == "process-4":
        executor = ProcessExecutor(max_workers=4)
        # Pool startup is amortized by design; warm it outside the timing.
        sweep.run(executor=executor, max_tile_elements=TILED_TILE_ELEMENTS)
    else:
        executor = "serial"
    result = benchmark.pedantic(
        lambda: sweep.run(executor=executor, max_tile_elements=TILED_TILE_ELEMENTS),
        rounds=2,
        iterations=1,
    )
    assert result.shape == (TILED_SAMPLES, DENSE_GRID.size)


# --------------------------------------------------------------------- #
# The exact spectral (DCT) solve on the full-die grid
# --------------------------------------------------------------------- #

FULL_DIE = 256
#: Power scalings of the 4-column step, one per banked policy.
BLOCK_SCALES = (1.0, 0.6, 0.25, 1.0)


def _full_die():
    power = PowerMap.from_floorplan(
        Floorplan.example_processor(), nx=FULL_DIE, ny=FULL_DIE
    )
    return ThermalGrid.for_power_map(power), power.values_w.reshape(-1)


def _fresh_rhs(rhs):
    """A generator of distinct right-hand sides (no re-solve of one RHS)."""
    rng = np.random.default_rng(12)
    while True:
        yield rhs * rng.uniform(0.5, 1.5)


def test_iterative_fallback_agreement_and_large_grid():
    """The spectral solve agrees with the sparse-direct reference
    (``oracles.direct_solve``) to 1e-10 relative (steady and transient)
    on the 48x48 benchmark grid, and solves a 96x96 grid — 4x the
    unknowns — to a physically sane field."""
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=48, ny=48)
    grid = ThermalGrid.for_power_map(power)
    rhs = power.values_w.reshape(-1)
    spectral = ThermalOperator(grid)
    reference = oracles.direct_solve(oracles.conductance_matrix(grid))(rhs)
    assert np.max(
        np.abs(spectral.steady_rise(rhs) - reference) / np.abs(reference)
    ) <= 1e-10
    stepper_d = oracles.direct_stepper(grid, 0.01)
    stepper_s = spectral.stepper(0.01)
    rise_d = np.zeros(rhs.size)
    rise_s = np.zeros(rhs.size)
    for _ in range(10):
        rise_d = stepper_d.step(rise_d, rhs)
        rise_s = stepper_s.step(rise_s, rhs)
    assert np.max(np.abs(rise_s - rise_d) / np.abs(rise_d)) <= 1e-10

    big_power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=96, ny=96)
    big_grid = ThermalGrid.for_power_map(big_power)
    assert big_grid.nx * big_grid.ny >= 4 * grid.nx * grid.ny
    field = ThermalOperator.for_grid(big_grid).solve_steady_state(big_power, 45.0)
    assert np.all(np.isfinite(field.values_c))
    # The mean rise matches theta_ja x total power regardless of grid.
    theta = big_grid.junction_to_ambient_resistance_k_per_w()
    expected = big_power.total_power_w() * theta
    assert field.mean_c() - 45.0 == pytest.approx(expected, rel=0.05)


def test_spectral_speedup_floor_at_256x256():
    """The spectral acceptance criterion on the 256x256 full die.

    The DCT solve of the 65536-unknown grid agrees with the
    sparse-direct reference (``oracles.direct_solve``) to 1e-10
    relative (steady and the dt = 0.02 backward-Euler step) and is
    faster than even a *warm* reference solve — the factorization built
    outside the timing, so only its triangular solves are timed.  Both
    sides solve fresh right-hand sides.  The floor is half the median
    ratio measured on a 2-vCPU Xeon host (~10x, 7-13x across runs), so
    5x.
    """
    grid, rhs = _full_die()
    spectral = ThermalOperator(grid)
    direct_solve = oracles.direct_solve(oracles.conductance_matrix(grid))
    spectral_solve = spectral.steady_solve()

    reference = direct_solve(rhs)
    rise = spectral_solve(rhs)
    assert np.max(np.abs(rise - reference) / np.abs(reference)) <= 1e-10
    # Physics check: mean rise = theta_ja x P.
    theta = grid.junction_to_ambient_resistance_k_per_w()
    assert np.mean(rise) == pytest.approx(theta * rhs.sum(), rel=1e-9)
    step_d = oracles.direct_stepper(grid, 0.02).step(np.zeros_like(rhs), rhs)
    step_s = spectral.stepper(0.02).step(np.zeros_like(rhs), rhs)
    assert np.max(np.abs(step_s - step_d) / np.abs(step_d)) <= 1e-10

    fresh = _fresh_rhs(rhs)
    direct_s, _ = _best_time(lambda: direct_solve(next(fresh)), rounds=5)
    spectral_s, _ = _best_time(lambda: spectral_solve(next(fresh)), rounds=5)
    ratio = direct_s / spectral_s
    print(
        f"\nspectral vs warm sparse-direct at {FULL_DIE}x{FULL_DIE} steady: "
        f"{spectral_s * 1e3:.1f} ms vs {direct_s * 1e3:.1f} ms ({ratio:.1f}x)"
    )
    assert ratio >= 5.0


@pytest.mark.benchmark(group="thermal-spectral-256x256")
@pytest.mark.parametrize("phase", ["steady", "step-1", "step-4"])
def test_spectral_full_die_wall_clock(benchmark, phase):
    """Records the 256x256 spectral solves into BENCH_engine.json (the
    CI bench job asserts this group is present): a fresh-RHS steady
    solve, a one-column backward-Euler step and a four-column step (the
    4-policy bank).  The speed floor against the warm sparse-direct
    reference lives in the test above."""
    grid, rhs = _full_die()
    operator = ThermalOperator(grid)
    fresh = _fresh_rhs(rhs)
    if phase == "steady":
        solve = operator.steady_solve()

        def run():
            return solve(next(fresh))

        shape = rhs.shape
    else:
        stepper = operator.stepper(0.02)
        columns = 1 if phase == "step-1" else len(BLOCK_SCALES)
        scales = np.asarray(BLOCK_SCALES[:columns])
        state = stepper.step(np.zeros((rhs.size, columns)), rhs[:, np.newaxis] * scales)

        def run():
            return stepper.step(state, next(fresh)[:, np.newaxis] * scales)

        shape = state.shape
    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result.shape == shape


# --------------------------------------------------------------------- #
# PR 8: the sweep service's micro-batched point queries
# --------------------------------------------------------------------- #

#: The micro-batching benchmark workload: 16 point queries against a
#: width_ratio base.  The geometry axis rebuilds the sized ring per
#: ratio, so each solo evaluation carries real fixed cost that one
#: batched broadcast pays once — the exact degradation the batcher
#: removes — while the spec payload stays small, keeping transport out
#: of the measurement.  The fixed cost must stay well above
#: ``2 * SERVE_WINDOW_MS / SERVE_POINTS`` for the 2x floor to measure
#: batching rather than the window: 32 ratios cost about 6 ms per solo
#: evaluation on a 2-core VM (8 ratios cost under 2 ms there, which
#: capped the speedup near the floor).
SERVE_POINTS = 16
SERVE_RATIOS = tuple(float(r) for r in np.linspace(1.0, 4.5, 32))

#: The batching window is pure added latency for the batch (the
#: speedup cap is N*eval / (window + eval)), so it is kept just wide
#: enough that 16 loopback clients reliably land inside it.
SERVE_WINDOW_MS = 20.0


def _serve_base_spec():
    return Sweep(technology=CMOS035).over(Axis.width_ratio(SERVE_RATIOS)).to_dict()


def _serve_temps(round_index):
    """A fresh temperature grid per round: repeat rounds must measure
    evaluation, not the service's result cache."""
    return [
        float(t)
        for t in np.linspace(-40.0, 125.0, SERVE_POINTS) + 0.001 * round_index
    ]


def _points_concurrent(port, spec, temps):
    """All points at once, one connection each (the batcher coalesces
    across connections).

    Every connection is open and every thread is waiting at the barrier
    before the clock starts; it starts when the barrier releases them.
    Returns the per-point results in temp order and the elapsed seconds.
    """
    results = [None] * len(temps)
    errors = []
    started = []
    barrier = threading.Barrier(
        len(temps), action=lambda: started.append(time.perf_counter())
    )
    with contextlib.ExitStack() as stack:
        clients = [stack.enter_context(ServeClient("127.0.0.1", port)) for _ in temps]

        def worker(slot):
            try:
                barrier.wait()
                results[slot] = clients[slot].point(spec, temps[slot])
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(len(temps))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed_s = time.perf_counter() - started[0]
    if errors:
        raise errors[0]
    return results, elapsed_s


def _points_sequential(port, spec, temps):
    """The same points issued one at a time over one connection, opened
    before the clock starts; returns the results and the elapsed seconds."""
    with ServeClient("127.0.0.1", port) as remote:
        start = time.perf_counter()
        results = [remote.point(spec, t) for t in temps]
        return results, time.perf_counter() - start


#: Timed rounds per leg of the micro-batch floor; each leg reports its best.
MICROBATCH_ROUNDS = 3


def _best_round_s(window_ms, spec, issue):
    """Best wall clock of ``issue(port, spec, temps)`` over fresh-temperature rounds.

    Both legs of the floor are timed the same way: one warm-up point on
    a fresh server, then :data:`MICROBATCH_ROUNDS` rounds with their own
    temperatures (no cache hits), each timed by ``issue`` from the
    moment its connections are open.  Returns the best time, the
    evaluations each round cost, and the last round's temperatures and
    answers.
    """
    handle = start_server_thread(batch_window_ms=window_ms)
    try:
        with ServeClient("127.0.0.1", handle.port) as remote:
            remote.point(spec, 150.5)  # warm the evaluation path
        best_s = float("inf")
        round_evaluations = []
        for round_index in range(1, MICROBATCH_ROUNDS + 1):
            temps = _serve_temps(round_index)
            before = handle.server.evaluations
            results, elapsed_s = issue(handle.port, spec, temps)
            best_s = min(best_s, elapsed_s)
            round_evaluations.append(handle.server.evaluations - before)
    finally:
        handle.stop()
    return best_s, round_evaluations, temps, results


def test_microbatch_throughput_floor_at_16_points():
    """The PR 8 acceptance criterion: 16 concurrent point queries
    through the micro-batcher complete >= 2x faster than the same 16
    issued sequentially against an unbatched server (window 0: every
    point evaluates alone), because the batch coalesces onto one
    broadcast evaluation.  Every batched answer is bitwise identical to
    the local evaluation of its point.  Both legs take the best of the
    same number of warmed rounds."""
    spec = _serve_base_spec()
    sequential_s, sequential_evaluations, _, _ = _best_round_s(
        0.0, spec, _points_sequential
    )
    assert sequential_evaluations == [SERVE_POINTS] * MICROBATCH_ROUNDS
    best_s, round_evaluations, temps, results = _best_round_s(
        SERVE_WINDOW_MS, spec, _points_concurrent
    )

    speedup = sequential_s / best_s
    print(f"\nserve-microbatch speedup at {SERVE_POINTS} points: {speedup:.1f}x "
          f"(sequential {sequential_s * 1e3:.0f} ms, batched {best_s * 1e3:.0f} ms; "
          f"evaluations per round {round_evaluations})")
    assert speedup >= 2.0
    # The concurrent burst coalesced (a straggler may open a second
    # batch on a loaded runner; 16 solo evaluations must not happen).
    assert min(round_evaluations) <= 2

    local = Sweep.from_dict(spec).over(Axis.temperature(temps)).run()
    for temperature, served in zip(temps, results):
        expected = local.select(temperature=[temperature])
        assert served.dims == expected.dims
        assert np.array_equal(served.values, expected.values)


@pytest.mark.benchmark(group="serve-microbatch")
@pytest.mark.parametrize("mode", ["batched", "sequential"])
def test_point_query_throughput(benchmark, mode):
    """Records batched vs sequential point-query wall clock into
    BENCH_engine.json (the CI bench job asserts this group is present);
    the asserted >= 2x floor lives in the test above."""
    spec = _serve_base_spec()
    window = SERVE_WINDOW_MS if mode == "batched" else 0.0
    handle = start_server_thread(batch_window_ms=window)
    rounds = iter(range(10, 20))  # fresh temps per round: no cache hits

    if mode == "batched":
        def run():
            return _points_concurrent(handle.port, spec, _serve_temps(next(rounds)))[0]
    else:
        def run():
            return _points_sequential(handle.port, spec, _serve_temps(next(rounds)))[0]

    try:
        results = benchmark.pedantic(run, rounds=2, iterations=1)
    finally:
        handle.stop()
    assert len(results) == SERVE_POINTS


# --------------------------------------------------------------------- #
# PR 10: the technology sweep axis
# --------------------------------------------------------------------- #

#: The technology-study workload: every built-in node, each with its own
#: 200-sample Monte-Carlo population (nodes differ in geometry, so the
#: populations cannot stack across nodes), on the dense 41-point grid.
TECH_AXIS_NODES = (CMOS035, CMOS025, CMOS018, CMOS013)
TECH_AXIS_SAMPLES = 200


def _per_node_workload():
    """(ring, population) per node, built outside the timed regions so
    both forms measure evaluation, not library construction."""
    return [
        (
            RingOscillator(default_library(node), CONFIGURATION),
            sample_technology_array(node, TECH_AXIS_SAMPLES, seed=1234),
        )
        for node in TECH_AXIS_NODES
    ]


def test_technology_axis_speedup_at_4x200x41():
    """The PR 10 acceptance criterion: the per-node banked broadcast the
    ``technology`` axis lowers onto (one struct-of-arrays pass per node)
    is >= 2x faster than rebinding a scalar technology per sample across
    4 nodes x 200 samples x 41 temperatures, agreeing to 1e-9 relative
    on every period."""
    workload = _per_node_workload()

    banked_s, banked = _best_time(
        lambda: [ring.period_matrix(pop, DENSE_GRID) for ring, pop in workload]
    )

    start = time.perf_counter()
    looped = [
        oracles.period_matrix_loop(ring, pop, DENSE_GRID) for ring, pop in workload
    ]
    looped_s = time.perf_counter() - start

    speedup = looped_s / banked_s
    print(f"\ntechnology-axis speedup at {len(TECH_AXIS_NODES)}x"
          f"{TECH_AXIS_SAMPLES}x{DENSE_GRID.size}: {speedup:.1f}x "
          f"(looped {looped_s * 1e3:.0f} ms, banked {banked_s * 1e3:.0f} ms)")
    assert speedup >= 2.0

    for fast, slow in zip(banked, looped):
        assert fast.shape == slow.shape == (TECH_AXIS_SAMPLES, DENSE_GRID.size)
        assert float(np.max(np.abs(fast - slow) / np.abs(slow))) <= 1e-9


@pytest.mark.benchmark(group="sweep-technology-axis")
@pytest.mark.parametrize("mode", ["banked", "looped"])
def test_technology_study_4_nodes(benchmark, mode):
    """Records the 4-node x 200-sample x 41-temperature technology study
    in its banked-broadcast vs per-sample-rebind forms into
    BENCH_engine.json (the CI bench job asserts this group is present);
    the asserted >= 2x floor lives in the test above."""
    workload = _per_node_workload()
    evaluate_one = (
        (lambda ring, pop: ring.period_matrix(pop, DENSE_GRID))
        if mode == "banked"
        else (lambda ring, pop: oracles.period_matrix_loop(ring, pop, DENSE_GRID))
    )
    matrices = benchmark.pedantic(
        lambda: [evaluate_one(ring, pop) for ring, pop in workload],
        rounds=2,
        iterations=1,
    )
    assert len(matrices) == len(TECH_AXIS_NODES)
    assert all(m.shape == (TECH_AXIS_SAMPLES, DENSE_GRID.size) for m in matrices)


# --------------------------------------------------------------------- #
# PR 9: multi-worker parallel sweep serving
# --------------------------------------------------------------------- #

#: The multi-worker workload: 8 concurrent clients, each asking for a
#: *distinct* sweep (its own width_ratio grid), so neither single-flight
#: dedup nor temperature coalescing can collapse the work — the only
#: lever left is genuine cross-request parallelism in the scheduler.
SERVE_CLIENTS = 8
SERVE_MULTI_WORKERS = 4


def _distinct_sweep_spec(slot, round_index=0):
    """One client's sweep: a width_ratio grid no other client shares.

    The geometry axis rebuilds the sized ring per ratio (~1 ms each),
    so a 48-ratio sweep carries ~50 ms of real evaluation cost — heavy
    enough that cross-request parallelism, not transport, dominates the
    measurement; the per-slot (and per-round) ratio offset keeps every
    spec's canonical key distinct, so repeat rounds measure evaluation,
    not the result cache.
    """
    ratios = tuple(
        float(r)
        for r in np.linspace(1.0, 4.5, 48) + 0.01 * slot + 0.0001 * round_index
    )
    return (
        Sweep(technology=CMOS035)
        .over(Axis.width_ratio(ratios))
        .over(Axis.temperature([-40.0, 25.0, 85.0, 125.0]))
        .to_dict()
    )


def _sweeps_concurrent(port, specs):
    """All sweeps at once, one connection each; results in spec order."""
    results = [None] * len(specs)
    errors = []
    barrier = threading.Barrier(len(specs))

    def worker(slot):
        try:
            with ServeClient("127.0.0.1", port) as remote:
                barrier.wait()
                results[slot] = remote.sweep_payload(specs[slot])
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(len(specs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def test_multiworker_throughput_floor_at_8_concurrent_sweeps():
    """The PR 9 acceptance criterion: 8 concurrent distinct sweeps
    against a 4-worker server complete >= 2x faster than against a
    single-worker server, and every served payload is bitwise identical
    to its solo local evaluation (the process pool's tiled path carries
    the engine's bitwise-identity guarantee end to end)."""
    single = start_server_thread(workers=1, batch_window_ms=0.0)
    try:
        with ServeClient("127.0.0.1", single.port) as remote:
            remote.sweep_payload(_distinct_sweep_spec(99))  # warm the path
        specs = [_distinct_sweep_spec(slot, 0) for slot in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        _sweeps_concurrent(single.port, specs)
        single_s = time.perf_counter() - start
        assert single.server.evaluations == SERVE_CLIENTS + 1
    finally:
        single.stop()

    multi = start_server_thread(
        workers=SERVE_MULTI_WORKERS, batch_window_ms=0.0
    )
    try:
        with ServeClient("127.0.0.1", multi.port) as remote:
            remote.sweep_payload(_distinct_sweep_spec(99))  # warm pool + path
        best_s = float("inf")
        results = None
        specs = None
        for round_index in (1, 2):
            specs = [
                _distinct_sweep_spec(slot, round_index)
                for slot in range(SERVE_CLIENTS)
            ]
            start = time.perf_counter()
            results = _sweeps_concurrent(multi.port, specs)
            best_s = min(best_s, time.perf_counter() - start)
    finally:
        multi.stop()

    speedup = single_s / best_s
    print(
        f"\nserve-multiworker speedup at {SERVE_CLIENTS} concurrent sweeps, "
        f"{SERVE_MULTI_WORKERS} workers: {speedup:.1f}x "
        f"(single-worker {single_s * 1e3:.0f} ms, multi {best_s * 1e3:.0f} ms)"
    )
    for spec, served in zip(specs, results):
        assert served == Sweep.from_dict(spec).run().to_dict()
    if (os.cpu_count() or 1) >= SERVE_MULTI_WORKERS:
        assert speedup >= 2.0
    else:
        pytest.skip(
            f"speedup floor needs {SERVE_MULTI_WORKERS} cores, have "
            f"{os.cpu_count()}; bitwise identity verified"
        )


@pytest.mark.benchmark(group="serve-multiworker")
@pytest.mark.parametrize("workers", [1, SERVE_MULTI_WORKERS])
def test_concurrent_sweep_throughput(benchmark, workers):
    """Records 8-concurrent-sweep wall clock at 1 vs 4 workers into
    BENCH_engine.json (the CI bench job asserts this group is present);
    the asserted >= 2x floor lives in the test above."""
    handle = start_server_thread(workers=workers, batch_window_ms=0.0)
    rounds = iter(range(10, 20))  # fresh specs per round: no cache hits

    def run():
        round_index = next(rounds)
        specs = [
            _distinct_sweep_spec(slot, round_index)
            for slot in range(SERVE_CLIENTS)
        ]
        return _sweeps_concurrent(handle.port, specs)

    try:
        with ServeClient("127.0.0.1", handle.port) as remote:
            remote.sweep_payload(_distinct_sweep_spec(99))  # warm pool + path
        results = benchmark.pedantic(run, rounds=2, iterations=1)
    finally:
        handle.stop()
    assert len(results) == SERVE_CLIENTS
