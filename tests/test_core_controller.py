"""Unit tests for the measurement controller FSM."""

import pytest

from repro.core import ControllerConfig, ControllerState, MeasurementController, ReadoutConfig
from repro.tech import TechnologyError


def make_controller(window_cycles=16, settle=4, auto_disable=True):
    return MeasurementController(
        ReadoutConfig(window_cycles=window_cycles),
        ControllerConfig(settle_cycles=settle, auto_disable=auto_disable),
    )


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(TechnologyError):
            ControllerConfig(settle_cycles=-1)
        with pytest.raises(TechnologyError):
            ControllerConfig(done_cycles=0)


class TestStateSequence:
    def test_starts_idle_and_disabled(self):
        controller = make_controller()
        assert controller.state is ControllerState.IDLE
        assert not controller.busy
        assert not controller.oscillator_enabled

    def test_idle_without_request_stays_idle(self):
        controller = make_controller()
        for _ in range(5):
            status = controller.step()
        assert status.state is ControllerState.IDLE

    def test_full_measurement_sequence(self):
        controller = make_controller(window_cycles=8, settle=2)
        controller.request_measurement()
        states = []
        for _ in range(20):
            states.append(controller.step().state)
        assert ControllerState.SETTLE in states
        assert ControllerState.MEASURE in states
        assert ControllerState.DONE in states

    def test_busy_flag_during_measurement(self):
        controller = make_controller(window_cycles=8, settle=2)
        controller.request_measurement()
        controller.step()  # leaves IDLE
        assert controller.busy
        assert controller.oscillator_enabled

    def test_data_valid_pulses_in_done(self):
        controller = make_controller(window_cycles=4, settle=1)
        controller.request_measurement()
        seen_valid = 0
        for _ in range(15):
            if controller.step().data_valid:
                seen_valid += 1
        assert seen_valid >= 1

    def test_zero_settle_skips_settle_state(self):
        controller = make_controller(window_cycles=4, settle=0)
        controller.request_measurement()
        first = controller.step()
        assert first.state is ControllerState.MEASURE


class TestSelfHeatingBehaviour:
    def test_auto_disable_turns_oscillator_off_after_measurement(self):
        controller = make_controller(window_cycles=4, settle=1, auto_disable=True)
        controller.run_measurement()
        assert not controller.oscillator_enabled

    def test_free_running_mode_keeps_oscillator_on(self):
        controller = make_controller(window_cycles=4, settle=1, auto_disable=False)
        assert controller.oscillator_enabled
        controller.run_measurement()
        assert controller.oscillator_enabled

    def test_duty_cycle_accounts_only_enabled_cycles(self):
        controller = make_controller(window_cycles=8, settle=2, auto_disable=True)
        cycles = controller.run_measurement()
        # Let it idle for as long again.
        for _ in range(cycles):
            controller.step()
        duty = controller.duty_cycle(2 * cycles)
        assert 0.3 < duty < 0.7

    def test_duty_cycle_requires_positive_total(self):
        with pytest.raises(TechnologyError):
            make_controller().duty_cycle(0)

    def test_run_measurement_reports_cycle_count(self):
        controller = make_controller(window_cycles=8, settle=2)
        cycles = controller.run_measurement()
        # settle + window + done, plus the idle hand-off cycle.
        assert 10 <= cycles <= 14
