"""Unit tests for waveform post-processing."""

import numpy as np
import pytest

from repro.circuit import SimulationError, Waveform, propagation_delay


def square_wave(period=1e-9, cycles=5, samples_per_cycle=100, low=0.0, high=3.3):
    times = np.linspace(0.0, cycles * period, cycles * samples_per_cycle, endpoint=False)
    values = np.where((times % period) < period / 2, high, low)
    return Waveform(times, values, name="square")


def sine_wave(frequency=1e9, cycles=8, samples_per_cycle=64, amplitude=1.0, offset=1.0):
    duration = cycles / frequency
    times = np.linspace(0.0, duration, cycles * samples_per_cycle)
    values = offset + amplitude * np.sin(2 * np.pi * frequency * times)
    return Waveform(times, values, name="sine")


class TestConstruction:
    def test_rejects_mismatched_arrays(self):
        with pytest.raises(SimulationError):
            Waveform(np.array([0.0, 1.0]), np.array([0.0]))

    def test_rejects_single_sample(self):
        with pytest.raises(SimulationError):
            Waveform(np.array([0.0]), np.array([1.0]))

    def test_rejects_nonmonotonic_time(self):
        with pytest.raises(SimulationError):
            Waveform(np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))

    def test_basic_statistics(self):
        wave = sine_wave()
        assert wave.minimum() == pytest.approx(0.0, abs=1e-2)
        assert wave.maximum() == pytest.approx(2.0, abs=1e-2)
        assert wave.amplitude() == pytest.approx(2.0, abs=2e-2)


class TestInterpolationAndWindow:
    def test_value_at_interpolates(self):
        wave = Waveform(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert wave.value_at(0.5) == pytest.approx(1.0)

    def test_value_at_outside_range_raises(self):
        wave = Waveform(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        with pytest.raises(SimulationError):
            wave.value_at(2.0)

    def test_window_extracts_subrange(self):
        wave = sine_wave()
        sub = wave.window(1e-9, 3e-9)
        assert sub.times[0] >= 1e-9
        assert sub.times[-1] <= 3e-9

    def test_window_requires_valid_bounds(self):
        with pytest.raises(SimulationError):
            sine_wave().window(2e-9, 1e-9)


class TestCrossingsAndPeriod:
    def test_rising_crossings_count(self):
        wave = sine_wave(cycles=8)
        crossings = wave.crossings(1.0, "rising")
        assert 7 <= crossings.size <= 8

    def test_period_of_sine(self):
        wave = sine_wave(frequency=1e9, cycles=10)
        assert wave.period(threshold=1.0) == pytest.approx(1e-9, rel=1e-2)

    def test_frequency_inverse_of_period(self):
        wave = sine_wave(frequency=2e9, cycles=10)
        assert wave.frequency(threshold=1.0) == pytest.approx(2e9, rel=1e-2)

    def test_square_wave_duty_cycle(self):
        wave = square_wave()
        assert wave.duty_cycle() == pytest.approx(0.5, abs=0.05)

    def test_period_requires_enough_cycles(self):
        wave = sine_wave(cycles=2)
        with pytest.raises(SimulationError):
            wave.period(threshold=1.0, skip_cycles=3)

    def test_is_oscillating_detects_dc(self):
        flat = Waveform(np.linspace(0, 1e-9, 100), np.full(100, 1.65))
        assert not flat.is_oscillating(supply=3.3)
        assert square_wave().is_oscillating(supply=3.3)

    def test_unknown_direction_rejected(self):
        with pytest.raises(SimulationError):
            sine_wave().crossings(1.0, "sideways")


class TestPropagationDelay:
    def test_delay_between_shifted_edges(self):
        times = np.linspace(0, 1e-9, 1001)
        vdd = 3.3
        input_values = np.where(times > 0.2e-9, vdd, 0.0)
        output_values = np.where(times > 0.3e-9, 0.0, vdd)
        delay = propagation_delay(
            Waveform(times, input_values), Waveform(times, output_values), vdd,
            edge="falling_output",
        )
        assert delay == pytest.approx(0.1e-9, abs=2e-12)

    def test_missing_transition_raises(self):
        times = np.linspace(0, 1e-9, 100)
        constant = Waveform(times, np.zeros(100))
        step = Waveform(times, np.where(times > 0.5e-9, 3.3, 0.0))
        with pytest.raises(SimulationError):
            propagation_delay(constant, step, 3.3)

    def test_unknown_edge_selector_rejected(self):
        wave = square_wave()
        with pytest.raises(SimulationError):
            propagation_delay(wave, wave, 3.3, edge="diagonal")
