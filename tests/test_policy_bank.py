"""Equivalence, property and golden tests for the banked DTM policy path.

The :class:`repro.core.PolicyBank` contract is that one banked closed
loop (:meth:`DynamicThermalManager.run_bank` — one backward-Euler step
in the DCT basis and one inverse transform over the distinct power
histories, bilinear site gather, broadcast sensor scan and vectorized
FSM step per timestep) computes exactly what the per-policy loop
``oracles.dtm_run_scalar``, stepping spectrally in the same arithmetic
order, computes policy by policy: bitwise identical throttle decisions,
powers, temperatures and final fields (the hypothesis suite checks
random banks, whose histories split mid-run, bitwise on two grid
sizes), while solving each distinct power history once.  The
example-processor policy sweep's headline numbers are pinned as golden
values, and the sweep engine's ``resolution`` axis is round-tripped
against its hand-rolled solve-then-scan lowering.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import dtm_run_scalar, next_state_index, operator_cache_size
from repro.core import (
    DynamicThermalManager,
    PerformanceState,
    PolicyBank,
    SensorBank,
    ThrottlingPolicy,
)
from repro.engine import Axis, Sweep, SweepError
from repro.experiments import run_dtm_policy_sweep
from repro.experiments.dtm_study import example_policy_set, never_throttle_policy
from repro.tech import CMOS035, TechnologyError, sample_technology_array
from repro.tech.stacked import stack_technologies
from repro.oscillator import RingConfiguration
from repro.thermal import (
    Floorplan,
    PowerMap,
    TemperatureMap,
    ThermalGrid,
    ThermalOperator,
    ThermalStepper,
)
from repro.thermal.operator import _SpectralSolve

RTOL = 1e-9

RUN_KW = dict(
    duration_s=0.6, control_interval_s=0.03, limit_c=115.0, workload_scale=1.6
)

#: Hysteresis corners the property suite draws policies from: thresholds
#: spread around the reachable temperature band so the sampled policies
#: genuinely exercise full-speed/throttled/emergency transitions.
throttle_thresholds = st.floats(min_value=80.0, max_value=130.0)
hysteresis_gaps = st.floats(min_value=5.0, max_value=25.0)
emergency_margins = st.floats(min_value=5.0, max_value=20.0)


@st.composite
def policies(draw):
    throttle = draw(throttle_thresholds)
    return ThrottlingPolicy(
        throttle_threshold_c=throttle,
        release_threshold_c=throttle - draw(hysteresis_gaps),
        emergency_threshold_c=throttle + draw(emergency_margins),
    )


class TestPolicyBankStructure:
    def test_labels_and_policies_round_trip(self):
        bank = PolicyBank({"a": ThrottlingPolicy(), "b": never_throttle_policy()})
        assert bank.labels() == ("a", "b")
        assert bank.policy("a") is bank.policies()[0]
        assert len(bank) == 2
        assert PolicyBank.of(bank) is bank

    def test_sequence_gets_default_labels(self):
        bank = PolicyBank([ThrottlingPolicy(), never_throttle_policy()])
        assert bank.labels() == ("policy-0", "policy-1")

    def test_invalid_banks_rejected(self):
        with pytest.raises(TechnologyError):
            PolicyBank([])
        with pytest.raises(TechnologyError):
            PolicyBank(["not-a-policy"])
        with pytest.raises(TechnologyError):
            bank = PolicyBank([ThrottlingPolicy()])
            bank.policy("missing")

    def test_state_tables_padded_with_slowest_state(self):
        two = ThrottlingPolicy(
            states=(ThrottlingPolicy().states[0], ThrottlingPolicy().states[2])
        )
        bank = PolicyBank({"three": ThrottlingPolicy(), "two": two})
        assert bank.power_scales.shape == (2, 3)
        # Padding repeats the last state, which the clamped FSM index
        # can never select.
        assert bank.power_scales[1, 1] == bank.power_scales[1, 2]
        assert int(bank.state_counts[1]) == 2

    @given(
        readings=st.lists(
            st.floats(min_value=40.0, max_value=160.0), min_size=3, max_size=3
        ),
        indices=st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
        sampled=st.lists(policies(), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_vectorized_fsm_matches_scalar_step(self, readings, indices, sampled):
        bank = PolicyBank(sampled)
        stepped = bank.next_state_indices(np.asarray(indices), np.asarray(readings))
        for p, policy in enumerate(sampled):
            assert stepped[p] == next_state_index(policy, indices[p], readings[p])

    def test_state_gathers_match_policy_states(self):
        bank = PolicyBank([ThrottlingPolicy(), never_throttle_policy()])
        indices = np.asarray([2, 1])
        scales = bank.power_scales_at(indices)
        perf = bank.performances_at(indices)
        for p, policy in enumerate(bank.policies()):
            assert scales[p] == policy.states[indices[p]].power_scale
            assert perf[p] == policy.states[indices[p]].performance


@pytest.fixture(scope="module")
def manager(dtm_manager_factory):
    return dtm_manager_factory(grid_resolution=12, sensor_grid=2)


@pytest.fixture(
    scope="module", params=[12, 72], ids=["direct-12x12", "spectral-72x72"]
)
def solver_manager(request, dtm_manager_factory):
    """A manager on a coarse and a finer grid (72x72 is 5184 unknowns)."""
    return dtm_manager_factory(grid_resolution=request.param, sensor_grid=2)


def assert_rows_equal_scalar_oracle(manager, banked, run_kw):
    """Every banked row is bitwise the one-policy loop's run.

    Returns the ``(row, scalar)`` result pairs, in label order.
    """
    pairs = []
    for label in banked.labels:
        row = banked.to_result(label)
        scalar = dtm_run_scalar(manager, banked.bank.policy(label), **run_kw)
        assert [p.state_name for p in row.trace] == [
            p.state_name for p in scalar.trace
        ]
        for attribute in ("power_w", "true_peak_c", "hottest_reading_c"):
            assert np.array_equal(
                [getattr(p, attribute) for p in row.trace],
                [getattr(p, attribute) for p in scalar.trace],
            ), attribute
        assert np.array_equal(row.final_map.values_c, scalar.final_map.values_c)
        pairs.append((row, scalar))
    return pairs


class TestBankedEquivalence:
    """run_bank versus the per-policy loop oracle."""

    @pytest.mark.slow
    @given(sampled=st.lists(policies(), min_size=2, max_size=4))
    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_banked_run_matches_scalar_oracle(self, solver_manager, sampled):
        # The drawn policies share one power history until the first of
        # them throttles, so the bank's columns split mid-run.
        banked = solver_manager.run_bank(sampled, **RUN_KW)
        for row, scalar in assert_rows_equal_scalar_oracle(
            solver_manager, banked, RUN_KW
        ):
            assert row.throttle_events() == scalar.throttle_events()
            assert row.state_occupancy() == scalar.state_occupancy()
            assert row.average_performance() == scalar.average_performance()
            assert row.time_above_limit_s() == scalar.time_above_limit_s()

    @given(
        ambient=st.floats(min_value=-60.0, max_value=140.0),
        sampled=st.lists(policies(), min_size=2, max_size=3),
    )
    @settings(
        max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_ambient_shifted_reads_match_scalar_oracle(
        self, sensor_floorplan_factory, ambient, sampled
    ):
        # run_bank reads its sites and peaks from the rise planes plus
        # the ambient and forms the field only at the end; the oracle
        # forms a TemperatureMap every step.
        manager = DynamicThermalManager(
            CMOS035,
            sensor_floorplan_factory(2),
            RingConfiguration.parse("2INV+3NAND2"),
            grid_resolution=12,
            ambient_c=ambient,
        )
        banked = manager.run_bank(sampled, **RUN_KW)
        assert_rows_equal_scalar_oracle(manager, banked, RUN_KW)
        for p, final in enumerate(banked.final_values_c):
            field = TemperatureMap(banked.die_width_mm, banked.die_height_mm, final)
            assert banked.true_peak_c[p, -1] == field.max_c()

    @pytest.mark.parametrize(
        "grid_resolution", [12, 72], ids=["direct-12x12", "spectral-72x72"]
    )
    def test_banked_rows_bitwise_equal_scalar_oracle(
        self, dtm_manager_factory, grid_resolution
    ):
        manager = dtm_manager_factory(grid_resolution=grid_resolution, sensor_grid=2)
        run_kw = dict(
            duration_s=0.2, control_interval_s=0.02, limit_c=60.0, workload_scale=1.2
        )
        banked = manager.run_bank(example_policy_set(limit_c=60.0), **run_kw)
        visited = {
            point.state_name
            for row, _scalar in assert_rows_equal_scalar_oracle(manager, banked, run_kw)
            for point in row.trace
        }
        # The run exercises every FSM state, so every power row is visited.
        assert len(visited) == 3

    @pytest.mark.slow
    def test_vectorized_metrics_match_unstacked_results(self, manager):
        banked = manager.run_bank(example_policy_set(), **RUN_KW)
        peaks = banked.peak_temperature_c()
        events = banked.throttle_events()
        perf = banked.average_performance()
        above = banked.time_above_limit_s()
        for p, label in enumerate(banked.labels):
            row = banked.to_result(label)
            assert peaks[p] == row.peak_temperature_c()
            assert events[p] == row.throttle_events()
            assert perf[p] == pytest.approx(row.average_performance(), rel=1e-12)
            assert above[p] == pytest.approx(row.time_above_limit_s(), abs=1e-12)

    @pytest.mark.slow
    def test_single_sample_population_matches_single_technology(self, manager):
        sampled = {"default": ThrottlingPolicy(), "never": never_throttle_policy()}
        single = manager.run_bank(sampled, **RUN_KW)
        population = manager.run_bank(
            sampled, technologies=stack_technologies([CMOS035]), **RUN_KW
        )
        assert population.sample_count == 1
        assert np.array_equal(
            population.state_indices[:, 0, :], single.state_indices
        )
        worst = np.max(
            np.abs(population.true_peak_c[:, 0, :] - single.true_peak_c)
            / np.abs(single.true_peak_c)
        )
        assert worst <= RTOL

    @pytest.mark.slow
    def test_population_run_shapes_and_metrics(self, manager):
        population = sample_technology_array(CMOS035, 3, seed=17)
        banked = manager.run_bank(
            {"default": ThrottlingPolicy(), "never": never_throttle_policy()},
            technologies=population,
            **RUN_KW,
        )
        steps = banked.step_count
        assert banked.state_indices.shape == (2, 3, steps)
        assert banked.peak_temperature_c().shape == (2, 3)
        assert banked.throttle_events().shape == (2, 3)
        # The never-throttle row stays at full speed for every sample.
        assert np.all(banked.state_indices[1] == 0)
        with pytest.raises(TechnologyError):
            banked.to_result("default")
        with pytest.raises(TechnologyError):
            banked.state_occupancy()

    def test_step_count_does_not_overshoot_duration(self, manager):
        # 0.14 / 0.02 is 7.000000000000001 in floats: 7 steps, not 8.
        banked = manager.run_bank(
            [ThrottlingPolicy()], duration_s=0.14, control_interval_s=0.02
        )
        assert banked.step_count == 7
        assert banked.times_s[-1] == pytest.approx(0.14)

    @pytest.mark.parametrize(
        "field", ["duration_s", "control_interval_s", "limit_c", "workload_scale"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_run_bank_rejects_non_finite_inputs(self, manager, field, value):
        arguments = dict(duration_s=0.1, control_interval_s=0.02)
        arguments[field] = value
        with pytest.raises(TechnologyError, match=f"{field} must be finite"):
            manager.run_bank([ThrottlingPolicy()], **arguments)

    def test_run_bank_validation(self, manager):
        with pytest.raises(TechnologyError):
            manager.run_bank([ThrottlingPolicy()], duration_s=0.0)
        with pytest.raises(TechnologyError):
            manager.run_bank(
                [ThrottlingPolicy()], duration_s=0.1, control_interval_s=0.2
            )
        with pytest.raises(TechnologyError):
            manager.run_bank(
                [ThrottlingPolicy()],
                duration_s=0.1,
                control_interval_s=0.01,
                workload_scale=-1.0,
            )


def _column_count(stack) -> int:
    return 1 if np.ndim(stack) == 1 else np.shape(stack)[1]


@pytest.fixture
def solved_columns(monkeypatch):
    """Columns each ``ThermalStepper.advance`` call steps, in call order."""
    counts = []
    advance = ThermalStepper.advance

    def counting_advance(self, rise_hat, power_hat):
        counts.append(_column_count(rise_hat))
        return advance(self, rise_hat, power_hat)

    monkeypatch.setattr(ThermalStepper, "advance", counting_advance)
    return counts


def scaled_states(*scales):
    """Performance states at the given power scales, fastest first."""
    return tuple(
        PerformanceState(f"state-{i}", power_scale=scale, performance=scale)
        for i, scale in enumerate(scales)
    )


class TestSolvedColumns:
    """run_bank solves each distinct power history once per step."""

    def test_unreached_thresholds_solve_one_column(self, manager, solved_columns):
        bank = [
            ThrottlingPolicy(
                throttle_threshold_c=10_000.0 + i,
                release_threshold_c=9_000.0,
                emergency_threshold_c=11_000.0,
            )
            for i in range(4)
        ]
        banked = manager.run_bank(bank, **RUN_KW)
        assert np.all(banked.state_indices == 0)
        assert solved_columns == [1] * banked.step_count

    def test_split_histories_solve_distinct_prefixes(self, manager, solved_columns):
        a = ThrottlingPolicy()
        # b starts as a does but throttles to another power scale; c
        # starts at another scale.
        b = ThrottlingPolicy(states=scaled_states(1.0, 0.5, 0.25))
        c = ThrottlingPolicy(states=scaled_states(0.9, 0.6, 0.25))
        banked = manager.run_bank([a, b, c, a], **RUN_KW)
        counts = list(solved_columns)

        scales = np.take_along_axis(
            banked.bank.power_scales, banked.state_indices, axis=1
        )
        factors = RUN_KW["workload_scale"] * scales
        prefixes = [
            len({tuple(row[: step + 1]) for row in factors})
            for step in range(banked.step_count)
        ]
        assert counts == prefixes
        # a and b share a column until a throttles, then split.
        assert counts[0] == 2 and counts[-1] == 3
        assert_rows_equal_scalar_oracle(manager, banked, RUN_KW)

    def test_distinct_first_states_solve_every_column(self, manager, solved_columns):
        bank = [
            ThrottlingPolicy(states=scaled_states(scale, 0.25))
            for scale in (1.0, 0.9, 0.8)
        ]
        banked = manager.run_bank(bank, **RUN_KW)
        assert solved_columns == [3] * banked.step_count


@pytest.fixture
def transforms(monkeypatch):
    """Columns of each ``_SpectralSolve`` forward and inverse call, by direction."""
    calls = {"forward": [], "inverse": []}
    for name, counts in calls.items():

        def counting(
            self, stack, overwrite=False, _method=getattr(_SpectralSolve, name), _counts=counts
        ):
            _counts.append(_column_count(stack))
            return _method(self, stack, overwrite)

        monkeypatch.setattr(_SpectralSolve, name, counting)
    return calls


class TestCountedTransforms:
    """A run_bank step takes one inverse transform and no forward one."""

    def test_base_spectrum_once_per_manager_and_one_inverse_per_step(
        self, dtm_manager_factory, transforms, solved_columns
    ):
        manager = dtm_manager_factory()
        grid = ThermalGrid.for_power_map(
            manager.base_power_map, manager.monitor.thermal_parameters
        )
        # The stepper's set-up probe is a forward and an inverse transform;
        # prepare it before counting the runs.
        ThermalOperator.for_grid(grid).stepper(RUN_KW["control_interval_s"])
        for counts in transforms.values():
            counts.clear()

        # Split histories: the distinct column count changes mid-run.
        bank = [
            ThrottlingPolicy(),
            ThrottlingPolicy(states=scaled_states(1.0, 0.5, 0.25)),
            ThrottlingPolicy(states=scaled_states(0.9, 0.6, 0.25)),
        ]
        first = manager.run_bank(bank, **RUN_KW)
        assert transforms["forward"] == [1]
        assert transforms["inverse"] == solved_columns
        assert len(solved_columns) == first.step_count
        assert len(set(solved_columns)) > 1

        second = manager.run(**RUN_KW)
        assert transforms["forward"] == [1]
        assert transforms["inverse"] == solved_columns
        assert solved_columns[first.step_count :] == [1] * len(second.trace)

        dtm_manager_factory().run(**RUN_KW)
        assert transforms["forward"] == [1, 1]
        assert len(transforms["inverse"]) == first.step_count + 2 * len(second.trace)


class TestResolutionAxisLowering:
    """The sweep engine's resolution axis versus its hand-rolled lowering."""

    @pytest.fixture(scope="class")
    def bank(self, sensor_bank_factory):
        return sensor_bank_factory(2)

    def test_round_trips_hand_rolled_solve_then_scan(self, bank):
        base = Floorplan.example_processor()
        population = sample_technology_array(CMOS035, 4, seed=5)
        resolutions = (8, 12, 16)
        result = (
            Sweep()
            .over(Axis.resolution(resolutions, base))
            .over(Axis.site(bank))
            .over(Axis.sample(population))
            .observe("code")
            .run()
        )
        assert result.dims == ("resolution", "site", "sample")
        assert result.coordinates("resolution") == resolutions
        for resolution in resolutions:
            power = PowerMap.from_floorplan(base, nx=resolution, ny=resolution)
            grid = ThermalGrid.for_power_map(power)
            field = ThermalOperator.for_grid(grid).solve_steady_state(power, 45.0)
            truths = field.sample_points(*bank.positions())
            reference = bank.scan(truths, technologies=population)
            assert np.array_equal(
                result.select(resolution=resolution).values, reference.codes
            )

    def test_declaration_order_is_canonicalised(self, bank):
        base = Floorplan.example_processor()
        forward = (
            Sweep()
            .over(Axis.resolution([8, 12], base))
            .over(Axis.site(bank))
            .run()
        )
        shuffled = (
            Sweep()
            .over(Axis.site(bank))
            .over(Axis.resolution([8, 12], base))
            .run()
        )
        assert forward.dims == shuffled.dims == ("resolution", "site")
        assert np.array_equal(forward.values, shuffled.values)

    def test_period_observable_matches_site_scan_per_resolution(self, bank):
        base = Floorplan.example_processor()
        result = (
            Sweep()
            .over(Axis.resolution([16], base))
            .over(Axis.site(bank))
            .run()
        )
        power = PowerMap.from_floorplan(base, nx=16, ny=16)
        grid = ThermalGrid.for_power_map(power)
        field = ThermalOperator.for_grid(grid).solve_steady_state(power, 45.0)
        truths = field.sample_points(*bank.positions())
        explicit = (
            Sweep()
            .over(Axis.site(bank, junction_temperatures_c=truths))
            .run()
        )
        assert np.array_equal(result.select(resolution=16).values, explicit.values)

    @pytest.mark.parametrize(
        "resolutions, match",
        [
            ([], "at least one"),
            ([8, 8], "duplicate"),
            ([1], "integers >= 2"),
            ([8.5], "integers >= 2"),
            (["8"], "integers >= 2"),
            ([float("nan")], "integers >= 2"),
            ([float("inf")], "integers >= 2"),
            ([None], "integers >= 2"),
        ],
        ids=["empty", "duplicate", "one", "fraction", "string", "nan", "inf", "none"],
    )
    def test_malformed_coordinates_are_sweep_errors(self, resolutions, match):
        base = Floorplan.example_processor()
        with pytest.raises(SweepError, match=f"resolution axis .*{match}"):
            Axis.resolution(resolutions, base)

    def test_one_operator_cache_entry_per_resolution(self, bank):
        # Asserts a process-local side effect of the in-process lowering
        # (which operators got cached *here*), so the dense path is
        # requested explicitly: under an environment-selected process
        # backend the tiles — and their cache warming — live in the
        # worker processes by design.
        base = Floorplan.example_processor()
        ThermalOperator.clear_cache()
        (
            Sweep()
            .over(Axis.resolution([8, 12, 16], base))
            .over(Axis.site(bank))
            .run(executor="dense")
        )
        assert operator_cache_size() == 3
        # Re-declaring the same refinement reuses every entry.
        (
            Sweep()
            .over(Axis.resolution([8, 12, 16], base))
            .over(Axis.site(bank))
            .run(executor="dense")
        )
        assert operator_cache_size() == 3


class TestDtmPolicySweepGolden:
    """Golden pins: the example-processor policy sweep's headline numbers.

    A refactor of the banked loop, the sensor path or the thermal
    operator must not silently shift the paper-facing DTM comparison.
    Pinned at 12x12 / 2x2 sensors / 0.8 s / 40 ms (the extension tests'
    configuration).
    """

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_dtm_policy_sweep(
            duration_s=0.8,
            control_interval_s=0.04,
            grid_resolutions=12,
            sensor_grid=2,
        )

    def test_golden_peak_reductions(self, sweep):
        reduction = sweep.observable("peak_reduction_c").select(resolution=12)
        expected = {
            "eager": 54.027492903084294,
            "default": 43.754697296238405,
            "late": 43.754697296238405,
            "two-state": 43.754697296238405,
            "unmanaged": 0.0,
        }
        for label, value in expected.items():
            assert reduction.select(policy=label).item() == pytest.approx(
                value, rel=1e-6, abs=1e-9
            )

    def test_golden_throttle_events(self, sweep):
        events = sweep.observable("throttle_events").select(resolution=12)
        assert {
            label: int(events.select(policy=label).item())
            for label in events.coordinates("policy")
        } == {"eager": 3, "default": 3, "late": 2, "two-state": 4, "unmanaged": 0}

    def test_golden_state_occupancy(self, sweep):
        occupancy = sweep.state_occupancy(12)
        assert occupancy["default"] == {
            "full-speed": 0.2,
            "throttled": 0.45,
            "emergency": 0.35,
        }
        assert occupancy["two-state"] == {"full-speed": 0.35, "emergency": 0.65}
        assert occupancy["unmanaged"] == {"full-speed": 1.0}

    def test_observable_tensor_structure(self, sweep):
        peak = sweep.observable("peak_temperature_c")
        assert peak.dims == ("policy", "resolution")
        assert peak.coordinates("policy") == (
            "eager",
            "default",
            "late",
            "two-state",
            "unmanaged",
        )
        # The unmanaged baseline is the hottest die by construction.
        hottest = np.argmax(peak.values[:, 0])
        assert peak.coordinates("policy")[hottest] == "unmanaged"

    def test_reserved_label_and_unknown_observable_rejected(self, sweep):
        with pytest.raises(TechnologyError):
            run_dtm_policy_sweep(
                policies={"unmanaged": ThrottlingPolicy()},
                duration_s=0.2,
                control_interval_s=0.05,
                grid_resolutions=8,
                sensor_grid=2,
            )
        with pytest.raises(TechnologyError):
            sweep.observable("not-a-metric")
        with pytest.raises(TechnologyError):
            sweep.bank_result(99)


class TestSensorBankFixtureStillScans:
    def test_factory_builds_working_bank(self, sensor_bank_factory):
        bank: SensorBank = sensor_bank_factory(2)
        scan = bank.scan(
            np.full(bank.site_count, 60.0),
            calibration=bank.calibrate(-50.0, 150.0),
        )
        assert scan.estimates_c is not None
