"""Equivalence harness: the vectorized batch engine vs the scalar oracles.

The batch engine's correctness contract is that it computes *exactly*
what the scalar reference loops in ``tests/oracles.py`` compute, only in
one vectorized pass.
These tests pin the two paths together — property-based over random
ring configurations, technology samples and temperature grids — to a
relative tolerance of 1e-9 on periods (the acceptance bound; in
practice the paths agree to a few ULP, the only operation whose
libm/numpy implementations may differ in the last bit being ``pow``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    evaluate_configuration_scalar,
    monte_carlo_scalar,
    period_matrix_loop,
    period_matrix_scalar,
    period_series_scalar,
    sample_technologies,
    sweep_width_ratio_scalar,
    transfer_function_scalar,
)
from repro.analysis.montecarlo import run_monte_carlo
from repro.cells import characterize_cell, default_library
from repro.core import ReadoutConfig, SmartTemperatureSensor
from repro.engine import Axis, Sweep
from repro.optimize.cellmix import evaluate_configuration
from repro.optimize.sizing import sweep_width_ratio
from repro.oscillator import RingConfiguration, RingOscillator
from repro.tech import CMOS035, sample_technology_array
from repro.tech.corners import corner_technologies

#: The acceptance bound on vectorized-vs-scalar relative period error.
RTOL = 1e-9

DEFAULT_SETTINGS = dict(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ring_cells = st.sampled_from(["INV", "NAND2", "NAND3", "NOR2", "NOR3"])

configurations = (
    st.integers(min_value=1, max_value=3)
    .map(lambda n: 2 * n + 1)
    .flatmap(
        lambda count: st.lists(ring_cells, min_size=count, max_size=count)
    )
    .map(lambda stages: RingConfiguration(tuple(stages)))
)

temperature_grids = st.lists(
    st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    min_size=3,
    max_size=12,
    unique=True,
).map(lambda temps: np.asarray(sorted(temps)))

technology_seeds = st.integers(min_value=0, max_value=2**31 - 1)


def relative_error(vectorized, scalar):
    vectorized = np.asarray(vectorized, dtype=float)
    scalar = np.asarray(scalar, dtype=float)
    return float(np.max(np.abs(vectorized - scalar) / np.abs(scalar)))


# --------------------------------------------------------------------------- #
# ring-level equivalence
# --------------------------------------------------------------------------- #


@given(configuration=configurations, temps=temperature_grids, seed=technology_seeds)
@settings(**DEFAULT_SETTINGS)
def test_period_series_matches_scalar(configuration, temps, seed):
    tech = sample_technologies(CMOS035, 1, seed=seed)[0]
    ring = RingOscillator(default_library(tech), configuration)
    vectorized = ring.period_series(temps)
    scalar = period_series_scalar(ring, temps)
    assert relative_error(vectorized, scalar) <= RTOL


@given(temps=temperature_grids, seed=technology_seeds)
@settings(**DEFAULT_SETTINGS)
def test_period_matrix_rows_match_per_sample_scalar(temps, seed):
    # period_matrix now evaluates the stacked (struct-of-arrays) sample
    # axis; every row must still match a per-sample scalar sweep.
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.parse("2INV+3NAND2")
    )
    technologies = sample_technologies(CMOS035, 3, seed=seed)
    matrix = ring.period_matrix(technologies, temps)
    assert matrix.shape == (3, temps.size)
    for row, tech in enumerate(technologies):
        scalar = period_series_scalar(ring.rebind(tech), temps)
        assert relative_error(matrix[row], scalar) <= RTOL


@given(temps=temperature_grids, seed=technology_seeds)
@settings(**DEFAULT_SETTINGS)
def test_period_matrix_stacked_matches_retained_loop(temps, seed):
    # The PR 1 per-sample rebind loop is the period_matrix_loop oracle;
    # the stacked default must reproduce it (see also
    # tests/test_stacked_equivalence.py for the full sample-axis harness).
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.parse("2INV+3NAND2")
    )
    technologies = sample_technologies(CMOS035, 3, seed=seed)
    assert relative_error(
        ring.period_matrix(technologies, temps),
        period_matrix_loop(ring, technologies, temps),
    ) <= RTOL


def test_period_matrix_over_corners_matches_scalar_engine():
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.uniform("INV", 5)
    )
    technologies = list(corner_technologies(CMOS035).values())
    temps = np.linspace(-50.0, 150.0, 41)
    vectorized = (
        Sweep(ring=ring)
        .over(Axis.sample(technologies))
        .over(Axis.temperature(temps))
        .run()
        .values
    )
    scalar = period_matrix_scalar(ring, technologies, temps)
    assert relative_error(vectorized, scalar) <= RTOL


# --------------------------------------------------------------------------- #
# sensor transfer function
# --------------------------------------------------------------------------- #


@given(configuration=configurations, temps=temperature_grids)
@settings(**DEFAULT_SETTINGS)
def test_transfer_function_codes_identical(configuration, temps):
    sensor = SmartTemperatureSensor.from_configuration(
        CMOS035, configuration, readout=ReadoutConfig()
    )
    vectorized = sensor.transfer_function(temps)
    scalar = transfer_function_scalar(sensor, temps)
    # Quantised codes are integers: the two paths must agree exactly.
    assert np.array_equal(vectorized.codes, scalar.codes)
    assert np.array_equal(vectorized.measured_periods_s, scalar.measured_periods_s)


def test_engine_transfer_function_matches_sensor_method(smart_sensor):
    # The sweep engine's ``code`` observable is the sensor's transfer
    # function: same ring, same readout, the same integer codes.
    temps = np.linspace(-40.0, 125.0, 34)
    codes = (
        Sweep(ring=smart_sensor.ring, readout=smart_sensor.readout)
        .over(Axis.temperature(temps))
        .observe("code")
        .run()
        .values
    )
    assert np.array_equal(
        codes, transfer_function_scalar(smart_sensor, temps).codes.astype(np.int64)
    )


# --------------------------------------------------------------------------- #
# Monte-Carlo populations
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("label", ["5INV", "2INV+3NAND2", "1INV+2NOR2+2NAND3"])
def test_run_monte_carlo_summaries_match(label):
    configuration = RingConfiguration.parse(label)
    vectorized = run_monte_carlo(CMOS035, configuration, sample_count=10, seed=99)
    scalar = monte_carlo_scalar(CMOS035, configuration, sample_count=10, seed=99)
    assert vectorized.period_spread_percent == pytest.approx(
        scalar.period_spread_percent, rel=RTOL
    )
    for attribute in ("period_at_reference", "nonlinearity_percent", "sensitivity_s_per_k"):
        vec_stats = getattr(vectorized, attribute)
        ref_stats = getattr(scalar, attribute)
        assert vec_stats.mean == pytest.approx(ref_stats.mean, rel=RTOL)
        assert vec_stats.minimum == pytest.approx(ref_stats.minimum, rel=RTOL)
        assert vec_stats.maximum == pytest.approx(ref_stats.maximum, rel=RTOL)
    for vec_response, ref_response in zip(vectorized.responses, scalar.responses):
        assert relative_error(vec_response.periods_s, ref_response.periods_s) <= RTOL


def test_engine_monte_carlo_matches_free_function():
    # run_monte_carlo is the sweep engine's sample x temperature
    # broadcast over the same seeded population, row for row.
    configuration = RingConfiguration.parse("2INV+3NAND2")
    direct = run_monte_carlo(CMOS035, configuration, sample_count=8, seed=5)
    temps = direct.responses[0].temperatures_c
    from_engine = (
        Sweep(ring=RingOscillator(default_library(CMOS035), configuration))
        .over(Axis.sample(sample_technology_array(CMOS035, 8, seed=5)))
        .over(Axis.temperature(temps))
        .run()
        .values
    )
    for row, response in zip(from_engine, direct.responses):
        assert relative_error(row, response.periods_s) <= RTOL


# --------------------------------------------------------------------------- #
# optimisation sweeps
# --------------------------------------------------------------------------- #


def test_sizing_sweep_matches_scalar(tech):
    vectorized = sweep_width_ratio(tech, temperatures_c=np.linspace(-50, 150, 17))
    scalar = sweep_width_ratio_scalar(tech, temperatures_c=np.linspace(-50, 150, 17))
    assert relative_error(
        np.asarray([p.max_abs_error_percent for p in vectorized.points]),
        np.asarray([p.max_abs_error_percent for p in scalar.points]),
    ) <= 1e-6  # percent-of-span errors divide by a tiny span: looser bound
    for vec_point, ref_point in zip(vectorized.points, scalar.points):
        assert relative_error(
            vec_point.response.periods_s, ref_point.response.periods_s
        ) <= RTOL


def test_cellmix_candidate_matches_scalar(library):
    configuration = RingConfiguration.parse("1INV+2NAND3+2NOR2")
    vectorized = evaluate_configuration(library, configuration)
    scalar = evaluate_configuration_scalar(library, configuration)
    assert relative_error(
        vectorized.response.periods_s, scalar.response.periods_s
    ) <= RTOL
    assert vectorized.max_abs_error_percent == pytest.approx(
        scalar.max_abs_error_percent, rel=1e-6
    )


# --------------------------------------------------------------------------- #
# timing tables
# --------------------------------------------------------------------------- #


@given(
    queries=st.lists(
        st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
        min_size=1,
        max_size=16,
    )
)
@settings(**DEFAULT_SETTINGS)
def test_timing_table_vectorized_interpolation(queries, library):
    cell = library.get("NAND2")
    table = characterize_cell(cell, np.linspace(-50.0, 150.0, 9))
    load = float(table.loads_f[1])
    query_arr = np.asarray(queries)
    vectorized = table.pair_sum(query_arr, load)
    scalar = np.asarray([table.pair_sum(float(q), load) for q in queries])
    assert np.allclose(vectorized, scalar, rtol=RTOL, atol=0.0)


def test_characterize_cell_grid_matches_scalar_delays(library):
    cell = library.get("NOR3")
    temps = np.linspace(-40.0, 120.0, 5)
    table = characterize_cell(cell, temps)
    for i, temp in enumerate(table.temperatures_c):
        for j, load in enumerate(table.loads_f):
            delays = cell.delays(float(temp), float(load))
            assert table.tphl_s[i, j] == pytest.approx(delays.tphl, rel=RTOL)
            assert table.tplh_s[i, j] == pytest.approx(delays.tplh, rel=RTOL)
