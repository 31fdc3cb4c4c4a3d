"""Unit tests for the dynamic-thermal-management closed loop."""

import numpy as np
import pytest

from repro.core import (
    DtmResult,
    DtmTracePoint,
    DynamicThermalManager,
    PerformanceState,
    PolicyBank,
    ThrottlingPolicy,
)
from repro.oscillator import RingConfiguration
from repro.tech import CMOS035, TechnologyError
from repro.thermal import Floorplan, TemperatureMap

# Managers come from the shared dtm_manager_factory fixture in
# conftest.py (the policy-bank suite builds the same ones).


class TestPolicyValidation:
    def test_valid_default_policy(self):
        policy = ThrottlingPolicy()
        assert len(policy.states) == 3

    def test_hysteresis_required(self):
        with pytest.raises(TechnologyError):
            ThrottlingPolicy(throttle_threshold_c=100.0, release_threshold_c=100.0)

    def test_emergency_above_throttle(self):
        with pytest.raises(TechnologyError):
            ThrottlingPolicy(throttle_threshold_c=110.0, emergency_threshold_c=105.0)

    def test_states_must_be_ordered(self):
        with pytest.raises(TechnologyError):
            ThrottlingPolicy(
                states=(
                    PerformanceState("slow", 0.5, 0.5),
                    PerformanceState("fast", 1.0, 1.0),
                )
            )

    def test_invalid_performance_state(self):
        with pytest.raises(TechnologyError):
            PerformanceState("bad", power_scale=2.0, performance=1.0)

    @pytest.mark.parametrize(
        "field",
        ["throttle_threshold_c", "release_threshold_c", "emergency_threshold_c"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, field, value):
        # Checked before the ordering checks, which a NaN passes.
        with pytest.raises(TechnologyError, match=f"{field} must be finite"):
            ThrottlingPolicy(**{field: value})


def bank_step(policy, index, reading):
    """One FSM step of a one-policy bank."""
    stepped = PolicyBank([policy]).next_state_indices(
        np.asarray([index]), np.asarray([reading])
    )
    return int(stepped[0])


class TestPolicyStepLogic:
    def test_hot_reading_steps_down(self):
        policy = ThrottlingPolicy()
        assert bank_step(policy, 0, 112.0) == 1
        assert bank_step(policy, 1, 112.0) == 2

    def test_emergency_jumps_to_last_state(self):
        policy = ThrottlingPolicy()
        assert bank_step(policy, 0, 130.0) == len(policy.states) - 1

    def test_cool_reading_steps_back_up(self):
        policy = ThrottlingPolicy()
        assert bank_step(policy, 2, 80.0) == 1
        assert bank_step(policy, 0, 80.0) == 0

    def test_hysteresis_band_holds_state(self):
        policy = ThrottlingPolicy()
        assert bank_step(policy, 1, 100.0) == 1


def make_result(state_names, limit_c=115.0, interval_s=0.02):
    """A synthetic DtmResult visiting the named states in order."""
    states = {
        "full-speed": (12.0, 1.0),
        "throttled": (7.2, 0.6),
        "emergency": (3.0, 0.2),
    }
    trace = tuple(
        DtmTracePoint(
            time_s=(index + 1) * interval_s,
            state_name=name,
            power_w=states[name][0],
            true_peak_c=100.0 + 5.0 * index,
            hottest_reading_c=100.0 + 5.0 * index,
            performance=states[name][1],
        )
        for index, name in enumerate(state_names)
    )
    final = TemperatureMap(8.0, 8.0, np.full((4, 4), 100.0))
    return DtmResult(trace=trace, limit_c=limit_c, final_map=final)


class TestDtmResultMetrics:
    def test_throttle_events_counts_only_downward_transitions(self):
        result = make_result(
            [
                "full-speed",
                "throttled",      # 1st downward transition
                "full-speed",
                "throttled",      # 2nd
                "emergency",      # 3rd
                "emergency",
                "full-speed",
            ]
        )
        assert result.throttle_events() == 3

    def test_no_events_when_never_throttled(self):
        assert make_result(["full-speed"] * 4).throttle_events() == 0

    def test_emergency_jump_is_one_event(self):
        assert make_result(["full-speed", "emergency"]).throttle_events() == 1

    def test_state_occupancy_fractions(self):
        result = make_result(
            ["full-speed", "throttled", "throttled", "full-speed"]
        )
        occupancy = result.state_occupancy()
        assert occupancy == {"full-speed": 0.5, "throttled": 0.5}
        assert sum(occupancy.values()) == pytest.approx(1.0)

    def test_state_occupancy_preserves_first_seen_order(self):
        result = make_result(["throttled", "full-speed", "throttled"])
        assert list(result.state_occupancy()) == ["throttled", "full-speed"]

    def test_average_performance(self):
        result = make_result(["full-speed", "throttled", "emergency"])
        assert result.average_performance() == pytest.approx((1.0 + 0.6 + 0.2) / 3.0)


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def managed_run(self, dtm_manager_factory):
        manager = dtm_manager_factory()
        return manager.run(
            duration_s=0.6, control_interval_s=0.03, limit_c=115.0, workload_scale=1.6
        )

    def test_trace_covers_duration(self, managed_run):
        assert managed_run.trace[-1].time_s == pytest.approx(0.6, abs=0.03)
        assert len(managed_run.trace) == 20

    def test_throttling_engages_under_overload(self, managed_run):
        states = {point.state_name for point in managed_run.trace}
        assert "throttled" in states or "emergency" in states
        assert managed_run.throttle_events() >= 1

    def test_managed_die_cooler_than_unmanaged(self, managed_run, dtm_manager_factory):
        unmanaged_policy = ThrottlingPolicy(
            throttle_threshold_c=1000.0,
            release_threshold_c=900.0,
            emergency_threshold_c=1100.0,
        )
        unmanaged = dtm_manager_factory(policy=unmanaged_policy).run(
            duration_s=0.6, control_interval_s=0.03, limit_c=115.0, workload_scale=1.6
        )
        assert managed_run.peak_temperature_c() < unmanaged.peak_temperature_c()

    def test_performance_metrics_consistent(self, managed_run):
        assert 0.0 < managed_run.average_performance() <= 1.0
        occupancy = managed_run.state_occupancy()
        assert sum(occupancy.values()) == pytest.approx(1.0)

    def test_policy_override_runs_same_manager_unmanaged(self, managed_run, dtm_manager_factory):
        unmanaged = dtm_manager_factory().run(
            duration_s=0.6,
            control_interval_s=0.03,
            limit_c=115.0,
            workload_scale=1.6,
            policy=ThrottlingPolicy(
                throttle_threshold_c=10_000.0,
                release_threshold_c=9_000.0,
                emergency_threshold_c=11_000.0,
            ),
        )
        assert {point.state_name for point in unmanaged.trace} == {"full-speed"}
        assert unmanaged.peak_temperature_c() > managed_run.peak_temperature_c()

    def test_invalid_run_arguments_rejected(self, dtm_manager_factory):
        manager = dtm_manager_factory()
        with pytest.raises(TechnologyError):
            manager.run(duration_s=0.0)
        with pytest.raises(TechnologyError):
            manager.run(duration_s=0.1, control_interval_s=0.2)
        with pytest.raises(TechnologyError):
            manager.run(duration_s=0.1, control_interval_s=0.01, workload_scale=-1.0)

    def test_requires_floorplan_with_sensor_sites(self):
        with pytest.raises(TechnologyError):
            DynamicThermalManager(
                CMOS035,
                Floorplan.example_processor(),
                RingConfiguration.uniform("INV", 5),
            )
