"""Equivalence harness for the stacked technology-sample axis.

PR 1 pinned the vectorized *temperature* axis to the scalar oracle;
these tests pin the *sample* axis introduced by the struct-of-arrays
technology populations (:mod:`repro.tech.stacked`): the stacked
``period_matrix`` against the per-sample rebind loop
(``period_matrix_loop`` in ``tests/oracles.py``), the vectorized
Monte-Carlo sampler against the looped one, and the batched
calibration / supply / self-heating studies against their per-sample
scalar paths (``tests/oracles.py``, or the library's own reference path
where one remains) — to the same 1e-9 relative contract on periods.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    calibration_study_scalar,
    measurement_errors_scalar,
    monte_carlo_scalar,
    period_matrix_loop,
    period_matrix_scalar,
    period_series_scalar,
    sample_technologies,
    self_heating_error,
    supply_sensitivity_scalar,
)
from repro.analysis.supply import supply_sensitivity
from repro.cells import characterize_cell, default_library
from repro.core import ReadoutConfig, SmartTemperatureSensor
from repro.core.calibration import (
    CalibrationError,
    LinearCalibration,
)
from repro.engine import Axis, Sweep
from repro.experiments.calibration_study import run_calibration_study
from repro.experiments.selfheating_study import run_selfheating_study
from repro.oscillator import ConfigurationBank, RingConfiguration, RingOscillator
from repro.thermal import Floorplan, PowerMap
from repro.tech import (
    CMOS035,
    TechnologyError,
    corner_technologies,
    sample_technology_array,
    stack_technologies,
)

#: The acceptance bound on stacked-vs-looped relative period error.
RTOL = 1e-9

DEFAULT_SETTINGS = dict(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ring_cells = st.sampled_from(["INV", "NAND2", "NAND3", "NOR2", "NOR3"])

configurations = (
    st.integers(min_value=1, max_value=3)
    .map(lambda n: 2 * n + 1)
    .flatmap(lambda count: st.lists(ring_cells, min_size=count, max_size=count))
    .map(lambda stages: RingConfiguration(tuple(stages)))
)

temperature_grids = st.lists(
    st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    min_size=3,
    max_size=12,
    unique=True,
).map(lambda temps: np.asarray(sorted(temps)))

technology_seeds = st.integers(min_value=0, max_value=2**31 - 1)


def relative_error(stacked, looped):
    stacked = np.asarray(stacked, dtype=float)
    looped = np.asarray(looped, dtype=float)
    return float(np.max(np.abs(stacked - looped) / np.abs(looped)))


# --------------------------------------------------------------------------- #
# stacked sampling and stacking round trips
# --------------------------------------------------------------------------- #


@given(seed=technology_seeds, count=st.integers(min_value=1, max_value=16))
@settings(**DEFAULT_SETTINGS)
def test_sample_technology_array_matches_looped_sampler_bitwise(seed, count):
    looped = stack_technologies(sample_technologies(CMOS035, count, seed=seed))
    stacked = sample_technology_array(CMOS035, count, seed=seed)
    assert stacked.sample_count == count
    for polarity in ("nmos", "pmos"):
        for field in ("vth0", "mobility", "cox_f_per_um2", "alpha", "vth_temp_coeff"):
            assert np.array_equal(
                getattr(getattr(stacked, polarity), field),
                getattr(getattr(looped, polarity), field),
            ), (polarity, field)
    assert np.array_equal(stacked.vdd, looped.vdd)


def test_stack_round_trips_through_technology_at():
    samples = sample_technologies(CMOS035, 4, seed=7)
    stacked = stack_technologies(samples)
    assert len(stacked) == 4
    for index, sample in enumerate(samples):
        unstacked = stacked.technology_at(index)
        assert unstacked.vdd == sample.vdd
        assert unstacked.nmos.vth0 == sample.nmos.vth0
        assert unstacked.pmos.mobility == sample.pmos.mobility
        assert unstacked.nmos.cox_f_per_um2 == sample.nmos.cox_f_per_um2


def test_stack_preserves_extra_metadata():
    limited = dataclasses.replace(CMOS035, extra={"t_max_c": 125.0})
    stacked = stack_technologies([CMOS035, limited])
    assert stacked.technology_at(0).extra == CMOS035.extra
    assert stacked.technology_at(1).extra == {"t_max_c": 125.0}
    # The vectorized sampler carries the base technology's extra too.
    population = sample_technology_array(limited, 3, seed=1)
    assert population.technology_at(2).extra == {"t_max_c": 125.0}


def test_stack_rejects_empty_and_mixed_geometry():
    from repro.tech import CMOS025

    with pytest.raises(TechnologyError):
        stack_technologies([])

    shrunk = dataclasses.replace(CMOS035, min_width_um=CMOS035.min_width_um / 2)
    with pytest.raises(TechnologyError) as info:
        stack_technologies([CMOS035, shrunk])
    # The error names each disagreeing field with its distinct values,
    # and only those.
    disagreement = str(info.value).split("they disagree on")[1]
    assert "min_width_um: 0.5 vs 0.25" in disagreement
    assert "feature_size_um" not in disagreement
    assert "metal_layers" not in disagreement

    with pytest.raises(TechnologyError) as info:
        stack_technologies([CMOS035, CMOS025, CMOS035])
    message = str(info.value)
    assert "feature_size_um: 0.35 vs 0.25" in message
    assert "min_width_um: 0.5 vs 0.36" in message
    assert "metal_layers: 4 vs 5" in message
    assert "Axis.technology" in message


def test_stack_returns_a_population_unchanged():
    population = sample_technology_array(CMOS035, 3, seed=4)
    assert stack_technologies(population) is population
    with pytest.raises(TechnologyError, match="already stacked"):
        stack_technologies([CMOS035, population])


@pytest.mark.parametrize("entry", ["configuration_bank", "sensor_bank", "calibration"])
def test_mixed_nodes_raise_at_the_bank_entry_points(entry, sensor_bank_factory):
    from repro.tech import CMOS018

    mixed = [CMOS035, CMOS018]
    if entry == "configuration_bank":
        bank = ConfigurationBank(default_library(CMOS035), ["5INV", "2INV+3NAND2"])
        evaluate = lambda: bank.period_tensor([0.0, 50.0], technologies=mixed)
    elif entry == "sensor_bank":
        bank = sensor_bank_factory(2)
        temps = np.full(bank.site_count, 60.0)
        evaluate = lambda: bank.period_tensor(temps, technologies=mixed)
    else:
        bank = sensor_bank_factory(2)
        evaluate = lambda: bank.two_point_calibration(technologies=mixed)
    with pytest.raises(TechnologyError, match=r"feature_size_um: 0\.35 vs 0\.18"):
        evaluate()


def test_technology_array_validates_elementwise():
    samples = sample_technologies(CMOS035, 3, seed=0)
    stacked = stack_technologies(samples)
    with pytest.raises(TechnologyError):
        # One sample's supply below threshold must be rejected.
        stacked.with_supply(np.asarray([3.3, 0.1, 3.3]))


# --------------------------------------------------------------------------- #
# stacked period matrix vs the per-sample loop
# --------------------------------------------------------------------------- #


#: The temperature-term fields a Monte-Carlo population shares across
#: samples; ``device_at`` evaluates them on one (1, T) row when uniform.
TEMPERATURE_TERM_FIELDS = (
    "alpha",
    "alpha_temp_coeff",
    "mobility_temp_exponent",
    "vth_temp_coeff",
)


def with_per_sample_temperature_terms(technologies, seed):
    """``technologies`` with every temperature-term field drawn per sample."""
    rng = np.random.default_rng(seed)

    def vary(params):
        scale = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(TEMPERATURE_TERM_FIELDS))
        return dataclasses.replace(
            params,
            alpha=min(2.0, params.alpha * scale[0]),
            alpha_temp_coeff=params.alpha_temp_coeff * scale[1],
            mobility_temp_exponent=params.mobility_temp_exponent * scale[2],
            vth_temp_coeff=params.vth_temp_coeff * scale[3],
        )

    return [
        dataclasses.replace(tech, nmos=vary(tech.nmos), pmos=vary(tech.pmos))
        for tech in technologies
    ]


@given(
    configuration=configurations,
    temps=temperature_grids,
    seed=technology_seeds,
    per_sample_terms=st.booleans(),
)
@settings(**DEFAULT_SETTINGS)
def test_period_matrix_stacked_matches_loop(configuration, temps, seed, per_sample_terms):
    ring = RingOscillator(default_library(CMOS035), configuration)
    technologies = sample_technologies(CMOS035, 4, seed=seed)
    if per_sample_terms:
        technologies = with_per_sample_temperature_terms(technologies, seed)
    # A Monte-Carlo population takes device_at's (1, T) row branch for
    # every temperature term; the varied one takes the full-column branch.
    population = stack_technologies(technologies)
    for block in (population.nmos, population.pmos):
        shared = block.uniform_fields & set(TEMPERATURE_TERM_FIELDS)
        assert shared == (set() if per_sample_terms else set(TEMPERATURE_TERM_FIELDS))
    stacked = ring.period_matrix(technologies, temps)
    looped = period_matrix_loop(ring, technologies, temps)
    assert stacked.shape == (4, temps.size)
    assert relative_error(stacked, looped) <= RTOL
    if per_sample_terms:
        assert np.array_equal(stacked, looped)


def test_period_matrix_accepts_technology_array_directly():
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.parse("2INV+3NAND2")
    )
    temps = np.linspace(-50.0, 150.0, 21)
    population = sample_technology_array(CMOS035, 6, seed=3)
    stacked = ring.period_matrix(population, temps)
    looped = period_matrix_loop(ring, population, temps)
    assert relative_error(stacked, looped) <= RTOL


def test_period_matrix_over_corners_matches_loop():
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.uniform("INV", 5)
    )
    technologies = list(corner_technologies(CMOS035).values())
    temps = np.linspace(-50.0, 150.0, 41)
    assert relative_error(
        ring.period_matrix(technologies, temps),
        period_matrix_loop(ring, technologies, temps),
    ) <= RTOL


def test_stacked_ring_period_series_matches_per_sample_scalar():
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.parse("1INV+2NOR2+2NAND3")
    )
    temps = np.linspace(-40.0, 125.0, 12)
    technologies = sample_technologies(CMOS035, 3, seed=11)
    stacked = ring.rebind(stack_technologies(technologies)).period_series(temps)
    for row, tech in enumerate(technologies):
        scalar = period_series_scalar(ring.rebind(tech), temps)
        assert relative_error(stacked[row], scalar) <= RTOL


def test_engine_scalar_mode_still_loops_per_sample(inverter_ring):
    temps = np.linspace(-50.0, 150.0, 9)
    technologies = sample_technologies(CMOS035, 3, seed=2)
    vectorized = (
        Sweep(ring=inverter_ring)
        .over(Axis.sample(technologies))
        .over(Axis.temperature(temps))
        .run()
        .values
    )
    scalar = period_matrix_scalar(inverter_ring, technologies, temps)
    assert relative_error(vectorized, scalar) <= RTOL
    # The per-sample oracle must also accept a stacked population
    # (unstacking it).
    population = stack_technologies(technologies)
    assert np.array_equal(
        period_matrix_scalar(inverter_ring, population, temps), scalar
    )


def test_stacked_cells_refuse_netlists_and_characterisation():
    from repro.cells.cell import CellError

    population = sample_technology_array(CMOS035, 3, seed=5)
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.uniform("INV", 5)
    ).rebind(population)
    with pytest.raises(CellError):
        ring.build_circuit(25.0)
    with pytest.raises(CellError):
        characterize_cell(ring.cells()[0], np.linspace(-50.0, 150.0, 5))


# --------------------------------------------------------------------------- #
# batched studies vs their per-sample scalar paths
# --------------------------------------------------------------------------- #


def test_calibration_study_batched_matches_scalar_loop():
    vectorized = run_calibration_study(monte_carlo_samples=6, seed=99)
    scalar = calibration_study_scalar(monte_carlo_samples=6, seed=99)
    assert vectorized.sample_count == scalar.sample_count == 11
    for scheme in ("design", "one-point", "two-point"):
        vec_stats = vectorized.errors_by_scheme[scheme]
        ref_stats = scalar.errors_by_scheme[scheme]
        assert vec_stats.mean == pytest.approx(ref_stats.mean, rel=RTOL, abs=1e-9)
        assert vec_stats.minimum == pytest.approx(ref_stats.minimum, rel=RTOL, abs=1e-9)
        assert vec_stats.maximum == pytest.approx(ref_stats.maximum, rel=RTOL, abs=1e-9)
        assert vectorized.worst_by_scheme[scheme] == pytest.approx(
            scalar.worst_by_scheme[scheme], rel=RTOL, abs=1e-9
        )


def test_calibration_study_degenerate_sweep_raises_like_oracle():
    # A sweep so narrow (or a counter so coarse) that both endpoint
    # periods quantise to one code must raise the oracle's
    # CalibrationError in both paths, not divide by zero.
    narrow = np.linspace(25.0, 26.0, 4)
    coarse = ReadoutConfig(window_cycles=2)
    with pytest.raises(CalibrationError, match="periods must differ"):
        run_calibration_study(
            monte_carlo_samples=3, temperatures_c=narrow, readout=coarse
        )
    with pytest.raises(CalibrationError, match="periods must differ"):
        calibration_study_scalar(
            monte_carlo_samples=3, temperatures_c=narrow, readout=coarse
        )


def test_period_matrix_mixed_geometry_falls_back_to_loop():
    # Behaviour change: lists the stacker rejects (different geometry
    # scalars, e.g. two technology nodes) used to fall back to a
    # per-sample loop that evaluated 0.35 um cells with 0.18 um device
    # parameters.  They now raise, naming the disagreeing field;
    # technology nodes are compared through the sweep's technology axis.
    from repro.tech import CMOS018

    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.uniform("INV", 5)
    )
    temps = np.linspace(-50.0, 150.0, 9)
    with pytest.raises(TechnologyError, match=r"feature_size_um: 0\.35 vs 0\.18"):
        ring.period_matrix([CMOS035, CMOS018], temps)


def test_supply_sensitivity_stacked_matches_rebuild_loop():
    configuration = RingConfiguration.parse("2INV+3NAND2")
    vectorized = supply_sensitivity(CMOS035, configuration)
    scalar = supply_sensitivity_scalar(CMOS035, configuration)
    assert vectorized.period_per_volt_s == pytest.approx(
        scalar.period_per_volt_s, rel=RTOL
    )
    assert vectorized.period_per_kelvin_s == pytest.approx(
        scalar.period_per_kelvin_s, rel=RTOL
    )
    assert vectorized.kelvin_per_millivolt == pytest.approx(
        scalar.kelvin_per_millivolt, rel=1e-6
    )


def test_selfheating_two_solve_path_matches_per_duty_solves():
    vectorized = run_selfheating_study(grid_resolution=12)
    # The reference: one self_heating_error solve per duty cycle, on the
    # study's power map and sensor location, with the macro power taken
    # from the ring's own dynamic-power model.
    ring = RingOscillator(
        default_library(CMOS035), RingConfiguration.parse("2INV+3NAND2")
    )
    power_map = PowerMap.from_floorplan(Floorplan.example_processor(), nx=12, ny=12)
    scalar = dataclasses.replace(
        vectorized,
        oscillator_power_w=ring.dynamic_power(100.0) * 10.0,
        reports=[
            self_heating_error(
                power_map, 2.0, 6.0, vectorized.oscillator_power_w, duty_cycle=duty
            )
            for duty in (1.0, 0.5, 0.2, 0.1, 0.01, 0.001)
        ],
    )
    assert vectorized.oscillator_power_w == pytest.approx(
        scalar.oscillator_power_w, rel=RTOL
    )
    assert len(vectorized.reports) == len(scalar.reports)
    for vec_report, ref_report in zip(vectorized.reports, scalar.reports):
        assert vec_report.duty_cycle == ref_report.duty_cycle
        # Two linear solves vs one per duty agree to solver rounding,
        # far tighter than any physically meaningful difference.
        assert vec_report.temperature_rise_c == pytest.approx(
            ref_report.temperature_rise_c, rel=1e-6, abs=1e-9
        )
        assert vec_report.background_temperature_c == pytest.approx(
            ref_report.background_temperature_c, rel=RTOL
        )
    assert vectorized.improvement_factor() == pytest.approx(
        scalar.improvement_factor(), rel=1e-6
    )


# --------------------------------------------------------------------------- #
# vectorized sensor sweeps and ndarray calibrations
# --------------------------------------------------------------------------- #


@given(temps=temperature_grids.filter(lambda t: t[-1] - t[0] >= 5.0))
@settings(**DEFAULT_SETTINGS)
def test_measurement_errors_vectorized_matches_scalar(temps):
    # Grids narrower than a few kelvin can quantise both calibration
    # points to the same counter code, which (correctly) refuses to
    # calibrate — not the equivalence property under test here.
    sensor = SmartTemperatureSensor.from_configuration(
        CMOS035, RingConfiguration.parse("2INV+3NAND2"), readout=ReadoutConfig()
    )
    sensor.calibrate_two_point(float(temps[0]), float(temps[-1]))
    vectorized = sensor.measurement_errors(temps)
    scalar = measurement_errors_scalar(sensor, temps)
    assert np.allclose(vectorized, scalar, rtol=0.0, atol=1e-9)
    assert sensor.worst_case_error_c(temps) == pytest.approx(
        float(np.max(np.abs(scalar))), rel=RTOL, abs=1e-9
    )


def test_measured_periods_match_scalar_measured_period(smart_sensor):
    temps = np.linspace(-40.0, 120.0, 17)
    batch = smart_sensor.measured_periods(temps)
    scalar = np.asarray([smart_sensor.measured_period(float(t)) for t in temps])
    assert np.array_equal(batch, scalar)


def test_linear_calibration_accepts_ndarrays():
    calibration = LinearCalibration(slope_c_per_second=1.0e12, offset_c=-200.0)
    periods = np.asarray([[2.0e-10, 2.5e-10], [3.0e-10, 3.5e-10]])
    estimates = calibration.temperature(periods)
    assert estimates.shape == periods.shape
    assert estimates[0, 0] == pytest.approx(calibration.temperature(2.0e-10))
    assert isinstance(calibration.temperature(2.0e-10), float)
    recovered = calibration.period(estimates)
    assert np.allclose(recovered, periods, rtol=1e-12)
    assert isinstance(calibration.period(25.0), float)
    with pytest.raises(CalibrationError):
        calibration.temperature(np.asarray([1.0e-10, -1.0e-10]))


class TestMonteCarloGridValidation:
    def _run(self, temps):
        from repro.analysis.montecarlo import run_monte_carlo

        return run_monte_carlo(
            CMOS035,
            RingConfiguration.uniform("INV", 5),
            sample_count=2,
            temperatures_c=temps,
        )

    def test_unsorted_grid_is_sorted_not_broken(self):
        study = self._run([150.0, -50.0, 25.0])
        temps = study.responses[0].temperatures_c
        assert np.array_equal(temps, np.asarray([-50.0, 25.0, 150.0]))

    def test_duplicate_temperatures_fail_fast(self):
        with pytest.raises(TechnologyError, match="duplicate"):
            self._run([-50.0, 25.0, 25.0, 150.0])

    def test_non_finite_temperatures_fail_fast(self):
        with pytest.raises(TechnologyError, match="finite"):
            self._run([-50.0, float("nan"), 150.0])

    def test_too_few_points_fail_fast(self):
        with pytest.raises(TechnologyError, match="at least three"):
            self._run([0.0, 100.0])

    def test_reference_outside_sorted_range_still_rejected(self):
        with pytest.raises(TechnologyError, match="reference temperature"):
            from repro.analysis.montecarlo import run_monte_carlo

            run_monte_carlo(
                CMOS035,
                RingConfiguration.uniform("INV", 5),
                sample_count=2,
                temperatures_c=[30.0, 90.0, 150.0],
                reference_temperature_c=25.0,
            )

    def test_monte_carlo_stacked_population_matches_looped_samples(self):
        from repro.analysis.montecarlo import run_monte_carlo

        vectorized = run_monte_carlo(
            CMOS035,
            RingConfiguration.parse("2INV+3NAND2"),
            sample_count=8,
            seed=31,
        )
        scalar = monte_carlo_scalar(
            CMOS035,
            RingConfiguration.parse("2INV+3NAND2"),
            sample_count=8,
            seed=31,
        )
        for vec_response, ref_response in zip(
            vectorized.responses, scalar.responses
        ):
            assert relative_error(
                vec_response.periods_s, ref_response.periods_s
            ) <= RTOL
