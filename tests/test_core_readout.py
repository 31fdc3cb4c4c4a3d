"""Unit tests for the counter-based period-to-digital readout."""

import numpy as np
import pytest

from oracles import code_to_period_scalar, convert_scalar
from repro.core import PeriodCounter, ReadoutConfig
from repro.core.controller import conversion_time_s
from repro.tech import TechnologyError


class TestReadoutConfig:
    def test_window_and_conversion_time(self):
        config = ReadoutConfig(reference_clock_hz=50e6, window_cycles=256)
        assert config.window_s == pytest.approx(256 / 50e6)
        # The controller FSM: one IDLE cycle, 8 settle, the window, 2 done.
        assert conversion_time_s(config) == pytest.approx(267 / 50e6)

    def test_max_code(self):
        assert ReadoutConfig(counter_bits=8).max_code == 255

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TechnologyError):
            ReadoutConfig(reference_clock_hz=0.0)
        with pytest.raises(TechnologyError):
            ReadoutConfig(window_cycles=0)
        with pytest.raises(TechnologyError):
            ReadoutConfig(counter_bits=2)
        # NaN and infinite clocks, and non-integral counts, name the field.
        for field, value in (
            ("reference_clock_hz", float("nan")),
            ("reference_clock_hz", float("inf")),
            ("window_cycles", 2.5),
            ("counter_bits", 8.5),
            ("counter_bits", True),
        ):
            with pytest.raises(TechnologyError, match=f"^{field} must be") as caught:
                ReadoutConfig(**{field: value})
            assert caught.value.field == field
        assert ReadoutConfig(window_cycles=256.0).window_cycles == 256


class TestPeriodCounter:
    def test_code_is_floor_of_cycles_in_window(self):
        counter = PeriodCounter(ReadoutConfig(reference_clock_hz=1e6, window_cycles=10))
        # window = 10 us; a 3 us period fits 3 times (a 0-d reading).
        code, saturated = counter.convert_batch(3e-6)
        assert code.shape == () and int(code) == 3
        assert not saturated
        codes, _ = counter.convert_batch([[3e-6, 4e-6], [2.5e-6, 10e-6]])
        assert codes.tolist() == [[3, 2], [4, 1]]

    def test_code_decreases_with_period(self):
        codes, _ = PeriodCounter().convert_batch([400e-12, 200e-12])
        assert codes[0] < codes[1]

    def test_saturation_flag(self):
        counter = PeriodCounter(ReadoutConfig(counter_bits=8, window_cycles=1024))
        # 1e-300 s would overflow an integer cast of floor(window / period).
        codes, saturated = counter.convert_batch([1e-12, 1e-300])
        assert saturated.tolist() == [True, True]
        assert codes.tolist() == [255, 255]

    def test_nonpositive_period_rejected(self):
        with pytest.raises(TechnologyError):
            PeriodCounter().convert_batch([300e-12, 0.0])

    def test_code_to_period_round_trip(self):
        counter = PeriodCounter()
        period = 300e-12
        code, _ = counter.convert_batch(period)
        recovered = counter.codes_to_periods(code)
        # Within one quantisation step.
        assert recovered == pytest.approx(period, rel=1.0 / int(code))

    def test_code_to_period_rejects_zero_code(self):
        with pytest.raises(TechnologyError):
            PeriodCounter().codes_to_periods([5, 0])

    def test_quantisation_step_positive_and_small(self):
        counter = PeriodCounter()
        code, _ = counter.convert_batch(300e-12)
        upper, lower = counter.codes_to_periods([int(code), int(code) + 1])
        assert 0.0 < upper - lower < 1e-12

    @pytest.mark.parametrize("counter_bits", [8, 16])
    def test_codes_match_scalar_oracle(self, counter_bits):
        config = ReadoutConfig(counter_bits=counter_bits, window_cycles=1024)
        counter = PeriodCounter(config)
        # Ratios on both sides of the saturation edge and of whole counts.
        periods = np.concatenate(
            [
                config.window_s / np.asarray([config.max_code + 1.0, config.max_code + 0.5]),
                config.window_s / np.asarray([3.0, 2.999999, 1.5]),
                np.geomspace(50e-12, 5e-9, 40),
            ]
        ).reshape(3, -1)
        codes, saturated = counter.convert_batch(periods)
        for index in np.ndindex(periods.shape):
            code, flag = convert_scalar(config, float(periods[index]))
            assert (int(codes[index]), bool(saturated[index])) == (code, flag)
            assert counter.codes_to_periods(codes[index]) == code_to_period_scalar(
                config, code
            )
