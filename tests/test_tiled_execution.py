"""Tiled / parallel sweep execution vs the dense oracle.

The contract under test is the strongest one the tiling design claims:
both backends — serial tiles and the multiprocess pool — produce
results **bitwise identical** to the dense single-broadcast path (which
``tests/test_sweep_api.py`` pins to the scalar oracle), across tile
sizes from one element to larger-than-the-axis.  On top of that: the
tiling pass partitions the index space exactly once, the environment
knobs select a default backend without touching call sites (and a
malformed knob raises ``SweepError`` naming it), and the experiment
runner's tiling flags reproduce the dense report byte for byte.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import sample_technologies
from repro.engine import (
    Axis,
    ProcessExecutor,
    SerialExecutor,
    Sweep,
    SweepError,
    plan_tiles,
    resolve_executor,
    subplan,
)
from repro.engine.executors import EXECUTOR_ENV, TILE_ELEMENTS_ENV, WORKERS_ENV
from repro.oscillator import PAPER_FIG3_CONFIGURATIONS, RingConfiguration
from repro.tech import (
    CMOS035,
    corner_technologies,
    sample_technology_array,
    stack_technologies,
)

HYPOTHESIS_SETTINGS = dict(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CONFIGURATION = RingConfiguration.parse("5INV")
POPULATION = sample_technology_array(CMOS035, 23, seed=11)
TEMPS = np.linspace(-40.0, 125.0, 17)


def sample_sweep(observable="period", population=POPULATION):
    return (
        Sweep(technology=CMOS035, configuration=CONFIGURATION)
        .over(Axis.sample(population))
        .over(Axis.temperature(TEMPS))
        .observe(observable)
    )


@pytest.fixture(scope="module")
def dense_period():
    return sample_sweep("period").run()


@pytest.fixture(scope="module")
def dense_code():
    return sample_sweep("code").run()


def assert_results_equal(tiled, dense):
    assert tiled.dims == dense.dims
    assert tiled.coords == dense.coords
    assert tiled.observable == dense.observable
    assert tiled.values.dtype == dense.values.dtype
    assert np.array_equal(tiled.values, dense.values)


# --------------------------------------------------------------------------- #
# the tiling pass
# --------------------------------------------------------------------------- #


class TestPlanTiles:
    def test_tiles_partition_index_space_exactly_once(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=29)
        covered = np.zeros(tiling.shape, dtype=int)
        for tile in tiling.tiles:
            covered[tile.slices(tiling.dims)] += 1
        assert np.all(covered == 1)

    def test_budget_bounds_tile_elements(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=40)
        for tile in tiling.tiles:
            assert np.empty(tiling.shape)[tile.slices(tiling.dims)].size <= 40

    def test_single_element_tiles(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=1)
        assert len(tiling.tiles) == tiling.total_elements
        for tile in tiling.tiles:
            assert np.empty(tiling.shape)[tile.slices(tiling.dims)].size == 1

    def test_budget_larger_than_sweep_is_one_tile(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=10**9)
        assert len(tiling.tiles) == 1
        assert tiling.tiles[0].bounds == ()

    def test_endpoint_observables_never_split_temperature(self):
        plan = sample_sweep("calibration_error_c").plan()
        tiling = plan_tiles(plan, max_tile_elements=1)
        for tile in tiling.tiles:
            assert tile.bounds_for("temperature") is None
            span = tile.bounds_for("sample")
            assert span is not None and span[1] - span[0] == 1

    def test_unsplittable_axes_stay_whole(self):
        plan = (
            Sweep(technology=CMOS035)
            .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
            .over(Axis.temperature(TEMPS))
            .plan()
        )
        tiling = plan_tiles(plan, max_tile_elements=1)
        for tile in tiling.tiles:
            assert tile.bounds_for("configuration") is None

    def test_invalid_budgets_rejected(self):
        plan = sample_sweep().plan()
        with pytest.raises(SweepError):
            plan_tiles(plan, max_tile_elements=0)

    def test_subplan_slices_evaluate_to_dense_slices(self, dense_period):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=64)
        tile = tiling.tiles[len(tiling.tiles) // 2]
        values = subplan(plan, tile)._execute_dense().values
        assert np.array_equal(values, dense_period.values[tile.slices(tiling.dims)])


# --------------------------------------------------------------------------- #
# tiled-vs-dense bit equality
# --------------------------------------------------------------------------- #


@given(tile_elements=st.integers(min_value=1, max_value=2 * 23 * 17))
@settings(**HYPOTHESIS_SETTINGS)
def test_serial_tiles_bit_match_dense_across_tile_sizes(tile_elements):
    dense = sample_sweep("period").run()
    tiled = sample_sweep("period").run(
        executor="serial", max_tile_elements=tile_elements
    )
    assert_results_equal(tiled, dense)


@given(tile_elements=st.integers(min_value=1, max_value=2 * 23 * 17))
@settings(**HYPOTHESIS_SETTINGS)
def test_endpoint_observable_tiles_bit_match_dense(tile_elements):
    dense = sample_sweep("calibration_error_c").run()
    tiled = sample_sweep("calibration_error_c").run(
        executor="serial", max_tile_elements=tile_elements
    )
    assert_results_equal(tiled, dense)


EXECUTORS = {
    "serial": lambda: SerialExecutor(),
    "process": lambda: ProcessExecutor(max_workers=2),
}


@pytest.mark.parametrize("backend", sorted(EXECUTORS))
@pytest.mark.parametrize("observable", ["period", "code", "calibration_error_c"])
def test_every_backend_bit_matches_dense(backend, observable):
    dense = sample_sweep(observable).run()
    tiled = sample_sweep(observable).run(
        executor=EXECUTORS[backend](), max_tile_elements=97
    )
    assert_results_equal(tiled, dense)


@pytest.mark.parametrize("backend", sorted(EXECUTORS))
def test_supply_axis_lowering_survives_sample_tiling(backend):
    def build():
        return (
            Sweep(technology=CMOS035, configuration=CONFIGURATION)
            .over(Axis.supply([3.0, 3.3, 3.6]))
            .over(Axis.sample(POPULATION))
            .over(Axis.temperature(TEMPS))
        )

    dense = build().run()
    tiled = build().run(executor=EXECUTORS[backend](), max_tile_elements=113)
    assert_results_equal(tiled, dense)


def test_width_ratio_axis_with_sample_tiling():
    def build():
        return (
            Sweep(technology=CMOS035, configuration=CONFIGURATION)
            .over(Axis.width_ratio([1.0, 2.0]))
            .over(Axis.sample(POPULATION))
            .over(Axis.temperature(TEMPS))
        )

    dense = build().run()
    tiled = build().run(executor="serial", max_tile_elements=51)
    assert_results_equal(tiled, dense)


def test_configuration_axis_without_splittable_axes_still_runs():
    def build():
        return (
            Sweep(technology=CMOS035)
            .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
            .over(Axis.temperature(TEMPS))
            .observe("nonlinearity_percent")
        )

    dense = build().run()
    tiled = build().run(executor="serial", max_tile_elements=1)
    assert_results_equal(tiled, dense)


def test_per_sample_technology_list_payload_tiles():
    # A technology list is stacked once, at Axis.sample: a sweep over
    # the list is bitwise the sweep over the pre-stacked population,
    # dense and in serial/process tiles (the process backend ships each
    # tile's rows of the stacked list inside its pickled sub-plan).
    technologies = list(corner_technologies(CMOS035).values())
    technologies += sample_technologies(CMOS035, 4, seed=5)

    def build(population):
        return (
            Sweep(technology=CMOS035, configuration=CONFIGURATION)
            .over(Axis.sample(population))
            .over(Axis.temperature(TEMPS))
        )

    reference = build(stack_technologies(technologies)).run()
    assert_results_equal(build(technologies).run(), reference)
    for backend in sorted(EXECUTORS):
        tiled = build(technologies).run(
            executor=EXECUTORS[backend](), max_tile_elements=2 * len(TEMPS)
        )
        assert_results_equal(tiled, reference)


def test_process_backend_streams_out_of_order_assembly(dense_period):
    # Many more tiles than workers: completion order is not submission
    # order, and positional assembly must still be exact.
    tiled = sample_sweep("period").run(
        executor=ProcessExecutor(max_workers=2), max_tile_elements=17
    )
    assert_results_equal(tiled, dense_period)


# --------------------------------------------------------------------------- #
# backend resolution and the environment knobs
# --------------------------------------------------------------------------- #


class TestResolution:
    def test_no_arguments_is_the_dense_path(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert resolve_executor(None) is None

    def test_names_and_instances_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert resolve_executor("dense") is None
        executor = ProcessExecutor(max_workers=3)
        assert resolve_executor(executor) is executor

    def test_unknown_name_and_bad_type_rejected(self):
        with pytest.raises(SweepError, match="unknown executor"):
            resolve_executor("gpu")
        with pytest.raises(SweepError, match="Executor"):
            resolve_executor(42)

    def test_env_selects_default_backend(self, monkeypatch, dense_period):
        monkeypatch.setenv(EXECUTOR_ENV, "serial")
        monkeypatch.setenv(TILE_ELEMENTS_ENV, "45")
        tiled = sample_sweep("period").run()
        assert_results_equal(tiled, dense_period)

    def test_env_worker_count_reaches_process_backend(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        monkeypatch.setenv(WORKERS_ENV, "3")
        executor = resolve_executor(None)
        assert isinstance(executor, ProcessExecutor)
        assert executor.max_workers == 3

    def test_explicit_argument_beats_environment(self, monkeypatch, dense_period):
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        tiled = sample_sweep("period").run(executor="serial", max_tile_elements=50)
        assert_results_equal(tiled, dense_period)

    def test_tile_budget_alone_runs_serial_tiles(self, monkeypatch, dense_period):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        for budget in (23, 128):
            tiled = sample_sweep("period").run(max_tile_elements=budget)
            assert_results_equal(tiled, dense_period)

    def test_removed_memmap_backend_is_an_unknown_executor(self):
        with pytest.raises(SweepError, match=r"\('process', 'serial'\)"):
            resolve_executor("memmap")

    def test_malformed_worker_count_raises_sweep_error(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(SweepError, match=WORKERS_ENV):
            sample_sweep("period").run()

    def test_malformed_tile_budget_raises_sweep_error(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "serial")
        monkeypatch.setenv(TILE_ELEMENTS_ENV, "lots")
        with pytest.raises(SweepError, match=TILE_ELEMENTS_ENV):
            sample_sweep("period").run()


# --------------------------------------------------------------------------- #
# the runner's tiling flags
# --------------------------------------------------------------------------- #


def test_runner_tiling_flags_reproduce_the_dense_report(monkeypatch, tmp_path):
    from repro.experiments.runner import main

    # main() writes the knobs into os.environ; setenv records them so
    # they are restored afterwards (an empty value is the default).
    for name in (EXECUTOR_ENV, WORKERS_ENV, TILE_ELEMENTS_ENV):
        monkeypatch.setenv(name, "")
    dense = tmp_path / "dense.txt"
    assert main(["--experiment", "EXT-THERMALMAP", "--output", str(dense)]) == 0
    # EXT-THERMALMAP scans k x k sites x 25 samples (k = 1..4); a
    # 64-element budget splits the sample axis of every multi-site scan.
    tiled = tmp_path / "tiled.txt"
    assert main([
        "--experiment", "EXT-THERMALMAP", "--output", str(tiled),
        "--executor", "serial", "--tile-elements", "64",
    ]) == 0
    assert os.environ[TILE_ELEMENTS_ENV] == "64"
    assert tiled.read_bytes() == dense.read_bytes()
