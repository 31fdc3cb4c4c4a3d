"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import nonlinearity, summarize
from repro.circuit import Waveform
from repro.core import LinearCalibration, PeriodCounter, ReadoutConfig, two_point_calibration
from repro.devices import DeviceSizing, MosfetModel
from repro.oscillator import RingConfiguration, TemperatureResponse
from repro.tech import CMOS035
from repro.thermal import PowerMap

# Hypothesis settings: the models are cheap, but keep the example count
# moderate so the whole suite stays fast.
DEFAULT_SETTINGS = dict(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# Ring configurations
# --------------------------------------------------------------------------- #

cell_names = st.sampled_from(["INV", "NAND2", "NAND3", "NOR2", "NOR3"])
odd_counts = st.integers(min_value=1, max_value=10).map(lambda n: 2 * n + 1)


@given(stages=st.lists(cell_names, min_size=3, max_size=21).filter(lambda s: len(s) % 2 == 1))
@settings(**DEFAULT_SETTINGS)
def test_configuration_label_round_trips(stages):
    config = RingConfiguration(tuple(stages))
    parsed = RingConfiguration.parse(config.label())
    assert parsed.stages == config.stages


@given(name=cell_names, count=odd_counts)
@settings(**DEFAULT_SETTINGS)
def test_uniform_configuration_counts(name, count):
    config = RingConfiguration.uniform(name, count)
    assert config.stage_count == count
    assert config.counts() == {name: count}
    assert config.is_uniform()


# --------------------------------------------------------------------------- #
# MOSFET model invariants
# --------------------------------------------------------------------------- #

@given(
    vgs=st.floats(min_value=0.0, max_value=3.3),
    vds=st.floats(min_value=0.0, max_value=3.3),
    width=st.floats(min_value=0.5, max_value=20.0),
    temp_c=st.floats(min_value=-50.0, max_value=150.0),
)
@settings(**DEFAULT_SETTINGS)
def test_mosfet_current_nonnegative_and_finite(vgs, vds, width, temp_c):
    model = MosfetModel(CMOS035.nmos, DeviceSizing(width), 273.15 + temp_c)
    current = model.ids(vgs, vds)
    assert np.isfinite(current)
    assert current >= 0.0


@given(
    vgs_low=st.floats(min_value=0.8, max_value=2.0),
    vgs_delta=st.floats(min_value=0.1, max_value=1.3),
    vds=st.floats(min_value=0.5, max_value=3.3),
)
@settings(**DEFAULT_SETTINGS)
def test_mosfet_current_monotone_in_gate_drive(vgs_low, vgs_delta, vds):
    model = MosfetModel(CMOS035.nmos, DeviceSizing(1.0), 300.0)
    assert model.ids(vgs_low + vgs_delta, vds) >= model.ids(vgs_low, vds)


# --------------------------------------------------------------------------- #
# Waveform invariants
# --------------------------------------------------------------------------- #

@given(
    frequency=st.floats(min_value=1e8, max_value=5e9),
    cycles=st.integers(min_value=4, max_value=12),
    amplitude=st.floats(min_value=0.5, max_value=3.0),
)
@settings(**DEFAULT_SETTINGS)
def test_waveform_period_recovers_generator_frequency(frequency, cycles, amplitude):
    times = np.linspace(0.0, cycles / frequency, cycles * 80)
    values = amplitude * (1.0 + np.sin(2 * np.pi * frequency * times))
    wave = Waveform(times, values)
    assert wave.period(threshold=amplitude) == pytest.approx(1.0 / frequency, rel=0.05)


@given(
    data=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=200),
)
@settings(**DEFAULT_SETTINGS)
def test_waveform_extrema_bound_values(data):
    times = np.arange(len(data), dtype=float)
    wave = Waveform(times, np.asarray(data))
    assert wave.minimum() <= wave.maximum()
    assert wave.amplitude() == pytest.approx(wave.maximum() - wave.minimum())


# --------------------------------------------------------------------------- #
# Calibration and readout invariants
# --------------------------------------------------------------------------- #

@given(
    period_low=st.floats(min_value=50e-12, max_value=400e-12),
    span=st.floats(min_value=20e-12, max_value=400e-12),
    temp_low=st.floats(min_value=-60.0, max_value=20.0),
    temp_span=st.floats(min_value=50.0, max_value=220.0),
)
@settings(**DEFAULT_SETTINGS)
def test_two_point_calibration_exact_at_anchors(period_low, span, temp_low, temp_span):
    calibration = two_point_calibration(
        [period_low, period_low + span], [temp_low, temp_low + temp_span]
    )
    assert calibration.temperature(period_low) == pytest.approx(temp_low, abs=1e-6)
    assert calibration.temperature(period_low + span) == pytest.approx(
        temp_low + temp_span, abs=1e-6
    )


@given(
    slope=st.floats(min_value=1e11, max_value=5e12),
    offset=st.floats(min_value=-400.0, max_value=0.0),
    period=st.floats(min_value=50e-12, max_value=2e-9),
)
@settings(**DEFAULT_SETTINGS)
def test_linear_calibration_inverse_round_trip(slope, offset, period):
    calibration = LinearCalibration(slope_c_per_second=slope, offset_c=offset)
    assert calibration.period(calibration.temperature(period)) == pytest.approx(
        period, rel=1e-9
    )


@given(period=st.floats(min_value=100e-12, max_value=5e-9))
@settings(**DEFAULT_SETTINGS)
def test_counter_code_to_period_within_one_lsb(period):
    counter = PeriodCounter(ReadoutConfig(window_cycles=256))
    code, saturated = counter.convert_batch(period)
    code = int(code)
    if not saturated and code > 0:
        recovered = float(counter.codes_to_periods(code))
        lsb = counter.config.window_s / code - counter.config.window_s / (code + 1)
        assert abs(recovered - period) <= lsb


# --------------------------------------------------------------------------- #
# Analysis invariants
# --------------------------------------------------------------------------- #

@given(
    slope=st.floats(min_value=0.1e-12, max_value=3e-12),
    offset=st.floats(min_value=100e-12, max_value=2e-9),
    scale=st.floats(min_value=0.5, max_value=20.0),
)
@settings(**DEFAULT_SETTINGS)
def test_nonlinearity_invariant_under_period_scaling(slope, offset, scale):
    temps = np.linspace(-50.0, 150.0, 15)
    periods = offset + slope * (temps + 50.0) + 0.002 * slope * (temps + 50.0) ** 2
    base = TemperatureResponse("base", temps, periods)
    scaled = TemperatureResponse("scaled", temps, periods * scale)
    assert nonlinearity(scaled).max_abs_error_percent == pytest.approx(
        nonlinearity(base).max_abs_error_percent, rel=1e-9
    )


@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=100))
@settings(**DEFAULT_SETTINGS)
def test_summary_statistics_ordering(values):
    stats = summarize(values)
    assert stats.minimum <= stats.p05 <= stats.p50 <= stats.p95 <= stats.maximum
    assert stats.minimum <= stats.mean <= stats.maximum


# --------------------------------------------------------------------------- #
# Thermal substrate invariants
# --------------------------------------------------------------------------- #

@given(
    nx=st.integers(min_value=2, max_value=12),
    ny=st.integers(min_value=2, max_value=12),
    sources=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=7.99),
            st.floats(min_value=0.01, max_value=7.99),
            st.floats(min_value=0.0, max_value=5.0),
        ),
        min_size=0,
        max_size=8,
    ),
)
@settings(**DEFAULT_SETTINGS)
def test_power_map_point_sources_conserve_total_power(nx, ny, sources):
    power = PowerMap.zeros(8.0, 8.0, nx, ny)
    for x, y, watts in sources:
        power.add_point_source(x, y, watts)
    assert power.total_power_w() == pytest.approx(sum(w for _, _, w in sources), rel=1e-9)
