"""Unit tests for the shared thermal-solve operator and its caches."""

import numpy as np
import pytest

from oracles import conductance_matrix, direct_solve, operator_cache_size, transient_matrix
from repro.tech import TechnologyError
from repro.thermal import (
    Floorplan,
    PowerMap,
    ThermalGrid,
    ThermalOperator,
    solve_steady_state,
)
from repro.thermal.operator import (
    _CACHE_LIMIT,
    _SpectralSolve,
    _TIMESTEP_CACHE_LIMIT,
)

#: The agreement bound against the sparse-direct reference.
SPECTRAL_RTOL = 1e-10


def _grid_at(resolution):
    power = PowerMap.from_floorplan(
        Floorplan.example_processor(), nx=resolution, ny=resolution
    )
    return ThermalGrid.for_power_map(power), power


class TestSteadySolves:
    def test_matches_direct_sparse_solve(self, example_grid, example_power_map):
        operator = ThermalOperator(example_grid)
        result = operator.solve_steady_state(example_power_map, ambient_c=45.0)
        reference = direct_solve(conductance_matrix(example_grid))(
            example_power_map.values_w.reshape(-1)
        ).reshape((example_grid.ny, example_grid.nx)) + 45.0
        assert np.allclose(result.values_c, reference, rtol=1e-9, atol=1e-12)

    def test_multi_rhs_matches_per_rhs(self, example_grid, example_power_map):
        operator = ThermalOperator(example_grid)
        scaled = example_power_map.scaled(0.5)
        combined = operator.solve_steady_state_multi(
            [example_power_map, scaled], ambient_c=45.0
        )
        singles = [
            operator.solve_steady_state(example_power_map, 45.0),
            operator.solve_steady_state(scaled, 45.0),
        ]
        for multi, single in zip(combined, singles):
            assert np.array_equal(multi.values_c, single.values_c)

    def test_solver_entry_point_routes_through_operator(
        self, example_grid, example_power_map
    ):
        via_operator = ThermalOperator.for_grid(example_grid).solve_steady_state(
            example_power_map, 45.0
        )
        via_function = solve_steady_state(example_grid, example_power_map, 45.0)
        assert np.array_equal(via_operator.values_c, via_function.values_c)

    def test_mismatched_rhs_rejected(self, example_grid):
        operator = ThermalOperator(example_grid)
        with pytest.raises(TechnologyError):
            operator.steady_rise(np.zeros(3))
        with pytest.raises(TechnologyError):
            operator.solve_steady_state_multi([], 45.0)


class TestStepper:
    def test_matches_manual_backward_euler(self, example_grid, example_power_map):
        operator = ThermalOperator(example_grid)
        stepper = operator.stepper(1e-3)
        power = example_power_map.values_w.reshape(-1)
        rise = np.zeros(example_grid.nx * example_grid.ny)
        for _ in range(3):
            rise = stepper.step(rise, power)
        # Manual backward Euler on a freshly prepared solve of C/dt + G:
        # bitwise the stepper, and within SPECTRAL_RTOL of the same
        # recurrence on the sparse-direct reference.
        capacitance_over_dt = example_grid.cell_heat_capacity_j_per_k() / 1e-3
        fresh = _SpectralSolve(example_grid, capacitance_over_dt)
        reference = direct_solve(transient_matrix(example_grid, 1e-3))
        manual = np.zeros(example_grid.nx * example_grid.ny)
        direct = np.zeros(example_grid.nx * example_grid.ny)
        for _ in range(3):
            manual = fresh(power + capacitance_over_dt * manual)
            direct = reference(power + capacitance_over_dt * direct)
        assert np.array_equal(rise, manual)
        assert np.max(np.abs(manual - direct) / np.abs(direct)) <= SPECTRAL_RTOL

    def test_stacked_state_matches_per_column_steps(
        self, example_grid, example_power_map
    ):
        # The banked DTM path: an (n, k) state stack advances through
        # one multi-RHS solve per step, column-for-column equal to the
        # scalar stepper.
        operator = ThermalOperator(example_grid)
        stepper = operator.stepper(1e-3)
        power = example_power_map.values_w.reshape(-1)
        stack = np.stack([power, 0.5 * power], axis=1)
        rise = np.zeros((example_grid.nx * example_grid.ny, 2))
        columns = [np.zeros(example_grid.nx * example_grid.ny) for _ in range(2)]
        for _ in range(3):
            rise = stepper.step(rise, stack)
            columns = [
                stepper.step(columns[k], stack[:, k]) for k in range(2)
            ]
        for k in range(2):
            assert np.allclose(rise[:, k], columns[k], rtol=1e-12, atol=0.0)

    def test_spectral_advance_matches_real_space_steps(
        self, example_grid, example_power_map
    ):
        # The DTM path: the state stays in the DCT basis, the power is
        # transformed once, and each step's field is one inverse.
        stepper = ThermalOperator(example_grid).stepper(1e-3)
        power = example_power_map.values_w.reshape(-1)
        stack = np.stack([power, 0.5 * power], axis=1)
        power_hat = stepper.spectrum(stack)
        rise_hat = np.zeros((2, power.size)).T
        columns_hat = [np.zeros(power.size) for _ in range(2)]
        rise = np.zeros_like(stack)
        reference = direct_solve(transient_matrix(example_grid, 1e-3))
        direct = np.zeros(power.size)
        capacitance_over_dt = example_grid.cell_heat_capacity_j_per_k() / 1e-3
        for _ in range(3):
            rise_hat = stepper.advance(rise_hat, power_hat)
            columns_hat = [
                stepper.advance(columns_hat[k], power_hat[:, k]) for k in range(2)
            ]
            rise = stepper.step(rise, stack)
            direct = reference(power + capacitance_over_dt * direct)
        field = stepper.field(rise_hat)
        assert field.shape == stack.shape and field.flags.f_contiguous
        for k in range(2):
            assert np.array_equal(rise_hat[:, k], columns_hat[k])
            assert np.array_equal(field[:, k], stepper.field(columns_hat[k]))
        assert np.allclose(field, rise, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(field[:, 0] - direct) / np.abs(direct)) <= SPECTRAL_RTOL

    def test_spectral_inputs_checked(self, example_grid):
        stepper = ThermalOperator(example_grid).stepper(1e-3)
        size = example_grid.nx * example_grid.ny
        with pytest.raises(TechnologyError, match="values"):
            stepper.spectrum(np.full(size, np.nan))
        with pytest.raises(TechnologyError, match="values"):
            stepper.spectrum(np.zeros(size + 1))
        with pytest.raises(TechnologyError, match="power_hat"):
            stepper.advance(np.zeros((size, 2)), np.zeros(size))

    def test_stepper_cached_per_timestep(self, example_grid):
        operator = ThermalOperator(example_grid)
        first = operator.stepper(1e-3)
        second = operator.stepper(1e-3)
        third = operator.stepper(2e-3)
        assert first._solve is second._solve
        assert first._solve is not third._solve

    def test_invalid_timestep_rejected(self, example_grid):
        with pytest.raises(TechnologyError):
            ThermalOperator(example_grid).stepper(0.0)

    @pytest.mark.parametrize("timestep_s", [float("nan"), float("inf")])
    def test_non_finite_timestep_rejected(self, example_grid, timestep_s):
        with pytest.raises(TechnologyError, match="timestep_s must be positive"):
            ThermalOperator(example_grid).stepper(timestep_s)


class TestStackLayout:
    """Stacks are column-major: either memory order in, contiguous columns out."""

    @pytest.fixture
    def operator(self, example_grid):
        return ThermalOperator(example_grid)

    @pytest.fixture
    def stacks(self, example_power_map):
        power = example_power_map.values_w.reshape(-1)
        ordered = np.stack([power, 0.5 * power, power[::-1]], axis=1)
        return ordered, np.asfortranarray(ordered)

    def test_steady_rise_ignores_memory_order(self, operator, stacks):
        ordered, fortran = stacks
        assert ordered.flags.c_contiguous and fortran.flags.f_contiguous
        result = operator.steady_rise(ordered)
        assert np.array_equal(result, operator.steady_rise(fortran))
        assert result.T.flags.c_contiguous
        for k in range(ordered.shape[1]):
            assert np.array_equal(result[:, k], operator.steady_rise(ordered[:, k]))

    def test_step_ignores_memory_order(self, operator, stacks):
        ordered, fortran = stacks
        stepper = operator.stepper(1e-3)
        rise = operator.steady_rise(ordered)
        result = stepper.step(np.ascontiguousarray(rise), ordered)
        assert np.array_equal(result, stepper.step(np.asfortranarray(rise), fortran))
        assert result.T.flags.c_contiguous
        for k in range(ordered.shape[1]):
            assert np.array_equal(
                result[:, k], stepper.step(rise[:, k], ordered[:, k])
            )


class TestCallerArraysUntouched:
    """The stepper transforms only its own buffer; no solve writes into its inputs."""

    @pytest.fixture(params=["vector", "c-ordered", "column-major"])
    def arrays(self, request, example_grid, example_power_map):
        power = example_power_map.values_w.reshape(-1)
        rise = ThermalOperator(example_grid).steady_rise(power)
        if request.param == "vector":
            return rise, power
        stack = np.stack([power, 0.5 * power, power[::-1]], axis=1)
        rises = np.stack([rise, 0.25 * rise, rise[::-1]], axis=1)
        if request.param == "c-ordered":
            return np.ascontiguousarray(rises), np.ascontiguousarray(stack)
        return np.asfortranarray(rises), np.asfortranarray(stack)

    @staticmethod
    def _assert_fresh_column_major(result, *inputs):
        assert result.T.flags.c_contiguous
        for array in inputs:
            assert not np.shares_memory(result, array)

    def test_step_leaves_rise_and_power(self, example_grid, arrays):
        rise, power = arrays
        before = rise.copy(), power.copy()
        result = ThermalOperator(example_grid).stepper(1e-3).step(rise, power)
        assert np.array_equal(rise, before[0]) and np.array_equal(power, before[1])
        self._assert_fresh_column_major(result, rise, power)

    def test_steady_rise_leaves_power(self, example_grid, arrays):
        _, power = arrays
        before = power.copy()
        result = ThermalOperator(example_grid).steady_rise(power)
        assert np.array_equal(power, before)
        self._assert_fresh_column_major(result, power)

    def test_spectral_solve_leaves_rhs(self, example_grid, arrays):
        _, rhs = arrays
        before = rhs.copy()
        result = ThermalOperator(example_grid).steady_solve()(rhs)
        assert np.array_equal(rhs, before)
        self._assert_fresh_column_major(result, rhs)


class TestStepperBoundary:
    """``ThermalStepper.step`` rejects malformed states and power vectors."""

    @pytest.fixture
    def stepper(self, example_grid):
        return ThermalOperator(example_grid).stepper(1e-3)

    def test_wrong_row_count_names_the_argument(self, stepper):
        size = stepper.grid.nx * stepper.grid.ny
        with pytest.raises(TechnologyError, match="rise"):
            stepper.step(np.zeros(size - 1), np.zeros(size))
        with pytest.raises(TechnologyError, match="power_w"):
            stepper.step(np.zeros(size), np.zeros(size + 3))
        with pytest.raises(TechnologyError, match="power_w"):
            stepper.step(np.zeros((size, 2)), np.zeros((size - 1, 2)))

    def test_mismatched_shapes_rejected(self, stepper):
        size = stepper.grid.nx * stepper.grid.ny
        with pytest.raises(TechnologyError, match="power_w"):
            stepper.step(np.zeros((size, 2)), np.zeros((size, 3)))
        with pytest.raises(TechnologyError, match="power_w"):
            stepper.step(np.zeros((size, 2)), np.zeros(size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, stepper, bad):
        size = stepper.grid.nx * stepper.grid.ny
        power = np.ones(size)
        power[size // 2] = bad
        with pytest.raises(TechnologyError, match="power_w has non-finite"):
            stepper.step(np.zeros(size), power)
        rise = np.zeros((size, 2))
        rise[0, 1] = bad
        with pytest.raises(TechnologyError, match="rise has non-finite"):
            stepper.step(rise, np.ones((size, 2)))

    def test_steady_rise_rejects_non_finite_power(self, example_grid):
        power = np.ones(example_grid.nx * example_grid.ny)
        power[3] = np.nan
        with pytest.raises(TechnologyError, match="non-finite"):
            ThermalOperator(example_grid).steady_rise(power)


class TestWarmStartKeying:
    """Solves of different right-hand-side shapes cannot pollute each other.

    The spectral solve keeps no per-shape warm start or any other state
    after set-up, so a vector solve, a stack solve and stacks of
    different widths each get the answer they would get alone.
    """

    @pytest.fixture(scope="class")
    def solve_and_rhs(self):
        grid, power = _grid_at(24)
        solve = _SpectralSolve(grid)
        return grid, solve, power.values_w.reshape(-1)

    def test_vector_and_stack_keep_separate_states(self, solve_and_rhs):
        _grid, solve, rhs = solve_and_rhs
        state = {
            name: np.copy(value)
            for name, value in vars(solve).items()
            if isinstance(value, np.ndarray)
        }
        vector = solve(rhs)
        stack = solve(np.stack([rhs, 0.5 * rhs], axis=1))
        assert np.array_equal(solve(rhs), vector)
        assert np.array_equal(stack[:, 0], vector)
        assert np.array_equal(stack[:, 1], solve(0.5 * rhs))
        for name, value in state.items():
            assert np.array_equal(getattr(solve, name), value)

    def test_stack_solve_unpolluted_by_prior_vector_solve(self, solve_and_rhs):
        grid, solve, rhs = solve_and_rhs
        reference = direct_solve(conductance_matrix(grid))(3.0 * rhs)
        solve(rhs)  # would be a bad initial guess for the stack below
        stack = solve(np.stack([3.0 * rhs, np.zeros_like(rhs)], axis=1))
        assert np.max(np.abs(stack[:, 0] - reference) / np.abs(reference)) <= SPECTRAL_RTOL
        assert np.array_equal(stack[:, 1], np.zeros_like(rhs))

    def test_distinct_stack_widths_do_not_collide(self, solve_and_rhs):
        _grid, solve, rhs = solve_and_rhs
        vector = solve(rhs)
        two = solve(np.stack([rhs, rhs], axis=1))
        three = solve(np.stack([rhs, rhs, rhs], axis=1))
        assert two.shape == (rhs.size, 2)
        assert three.shape == (rhs.size, 3)
        for column in (*two.T, *three.T):
            assert np.array_equal(column, vector)


class TestProcessWideCache:
    def test_equal_geometry_grids_share_an_operator(self, example_power_map):
        ThermalOperator.clear_cache()
        first = ThermalOperator.for_grid(ThermalGrid.for_power_map(example_power_map))
        second = ThermalOperator.for_grid(ThermalGrid.for_power_map(example_power_map))
        assert first is second
        assert operator_cache_size() == 1

    def test_different_geometry_gets_its_own_operator(self, example_power_map):
        ThermalOperator.clear_cache()
        base = ThermalOperator.for_grid(ThermalGrid.for_power_map(example_power_map))
        other_power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=8, ny=8)
        other = ThermalOperator.for_grid(ThermalGrid.for_power_map(other_power))
        assert base is not other
        assert operator_cache_size() == 2

    def test_cache_is_bounded(self, example_power_map):
        ThermalOperator.clear_cache()
        for resolution in range(4, 14):
            power = PowerMap.from_floorplan(
                Floorplan.example_processor(), nx=resolution, ny=resolution
            )
            ThermalOperator.for_grid(ThermalGrid.for_power_map(power))
        assert operator_cache_size() <= _CACHE_LIMIT


class TestCacheEviction:
    """Bounded LRU eviction of both caches, covered directly."""

    def test_operator_cache_evicts_least_recently_used(self):
        ThermalOperator.clear_cache()
        operators = {}
        resolutions = list(range(4, 4 + _CACHE_LIMIT))
        for resolution in resolutions:
            grid, _power = _grid_at(resolution)
            operators[resolution] = ThermalOperator.for_grid(grid)
        assert operator_cache_size() == _CACHE_LIMIT
        # One more distinct geometry evicts exactly the oldest entry ...
        overflow_grid, _power = _grid_at(4 + _CACHE_LIMIT)
        ThermalOperator.for_grid(overflow_grid)
        assert operator_cache_size() == _CACHE_LIMIT
        oldest_grid, _power = _grid_at(resolutions[0])
        rebuilt = ThermalOperator.for_grid(oldest_grid)
        assert rebuilt is not operators[resolutions[0]]
        # ... and rebuilding the oldest evicted the next least recently
        # used, while the third-oldest entry is still the original.
        third_grid, _power = _grid_at(resolutions[2])
        kept = ThermalOperator.for_grid(third_grid)
        assert kept is operators[resolutions[2]]
        second_grid, _power = _grid_at(resolutions[1])
        assert ThermalOperator.for_grid(second_grid) is not operators[resolutions[1]]

    def test_operator_cache_hits_refresh_recency(self):
        # The placement-search access pattern: a handful of grids hit
        # over and over must all survive churn from new geometries.
        ThermalOperator.clear_cache()
        resolutions = list(range(4, 4 + _CACHE_LIMIT))
        operators = {}
        for resolution in resolutions:
            grid, _power = _grid_at(resolution)
            operators[resolution] = ThermalOperator.for_grid(grid)
        # Touch the oldest entry, then overflow: the touched entry
        # survives (a FIFO cache would evict it), the untouched
        # second-oldest goes.
        touched_grid, _power = _grid_at(resolutions[0])
        assert ThermalOperator.for_grid(touched_grid) is operators[resolutions[0]]
        overflow_grid, _power = _grid_at(4 + _CACHE_LIMIT)
        ThermalOperator.for_grid(overflow_grid)
        still_grid, _power = _grid_at(resolutions[0])
        assert ThermalOperator.for_grid(still_grid) is operators[resolutions[0]]
        evicted_grid, _power = _grid_at(resolutions[1])
        assert ThermalOperator.for_grid(evicted_grid) is not operators[resolutions[1]]

    def test_clear_cache_forgets_every_operator(self):
        ThermalOperator.clear_cache()
        grid, _power = _grid_at(6)
        before = ThermalOperator.for_grid(grid)
        ThermalOperator.clear_cache()
        assert operator_cache_size() == 0
        assert ThermalOperator.for_grid(grid) is not before

    def test_timestep_cache_is_lru_not_fifo(self, example_grid):
        operator = ThermalOperator(example_grid)
        timesteps = [1e-3 * (k + 1) for k in range(_TIMESTEP_CACHE_LIMIT)]
        solves = {dt: operator.stepper(dt)._solve for dt in timesteps}
        # Touch the oldest timestep, then overflow the cache: the
        # recently used entry survives, the least recently used one
        # (the second-oldest) is evicted.
        assert operator.stepper(timesteps[0])._solve is solves[timesteps[0]]
        operator.stepper(1e-3 * (_TIMESTEP_CACHE_LIMIT + 1))
        assert operator.stepper(timesteps[0])._solve is solves[timesteps[0]]
        assert operator.stepper(timesteps[1])._solve is not solves[timesteps[1]]

    def test_timestep_cache_bounded(self, example_grid):
        operator = ThermalOperator(example_grid)
        for k in range(2 * _TIMESTEP_CACHE_LIMIT):
            operator.stepper(1e-3 * (k + 1))
        assert len(operator._transient_solves) == _TIMESTEP_CACHE_LIMIT

    def test_cross_grid_sharing_is_keyed_by_geometry_not_identity(self):
        ThermalOperator.clear_cache()
        grid_a, _power = _grid_at(10)
        grid_b, _power = _grid_at(10)
        assert grid_a is not grid_b
        assert ThermalOperator.for_grid(grid_a) is ThermalOperator.for_grid(grid_b)
        # Different physical parameters break the sharing.
        from repro.thermal import ThermalGridParameters

        thicker = ThermalGrid(
            grid_a.width_mm,
            grid_a.height_mm,
            grid_a.nx,
            grid_a.ny,
            ThermalGridParameters(die_thickness_mm=0.7),
        )
        assert ThermalOperator.for_grid(thicker) is not ThermalOperator.for_grid(grid_a)


class TestCacheConcurrency:
    """The process-wide cache and the lazy solves are thread-safe."""

    def test_concurrent_for_grid_builds_each_operator_once(self):
        import threading

        ThermalOperator.clear_cache()
        resolutions = [4, 5, 6, 7]
        grids = {r: _grid_at(r)[0] for r in resolutions}
        results = {r: [] for r in resolutions}
        barrier = threading.Barrier(8)

        def worker(resolution):
            barrier.wait()
            for _ in range(25):
                results[resolution].append(ThermalOperator.for_grid(grids[resolution]))

        threads = [
            threading.Thread(target=worker, args=(r,))
            for r in resolutions
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every thread asking for a geometry got the one shared operator.
        for resolution in resolutions:
            assert len(set(id(op) for op in results[resolution])) == 1
        assert operator_cache_size() == len(resolutions)

    def test_concurrent_eviction_respects_limit(self):
        import threading

        ThermalOperator.clear_cache()
        grids = [_grid_at(r)[0] for r in range(4, 4 + 2 * _CACHE_LIMIT)]
        barrier = threading.Barrier(4)

        def churn(offset):
            barrier.wait()
            for grid in grids[offset::2]:
                ThermalOperator.for_grid(grid)

        threads = [threading.Thread(target=churn, args=(k % 2,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert operator_cache_size() <= _CACHE_LIMIT

    def test_concurrent_steady_solve_factorizes_once(self, example_grid):
        import threading

        operator = ThermalOperator(example_grid)
        solves = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            solves.append(operator.steady_solve())

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(id(solve) for solve in solves)) == 1

    def test_concurrent_stepper_requests_share_the_solve(self, example_grid):
        import threading

        operator = ThermalOperator(example_grid)
        steppers = []
        barrier = threading.Barrier(6)

        def worker(dt):
            barrier.wait()
            steppers.append(operator.stepper(dt))

        threads = [
            threading.Thread(target=worker, args=(1e-3 * (1 + k % 2),))
            for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(operator._transient_solves) == 2
        by_dt = {}
        for stepper in steppers:
            by_dt.setdefault(stepper.timestep_s, set()).add(id(stepper._solve))
        for shared in by_dt.values():
            assert len(shared) == 1
