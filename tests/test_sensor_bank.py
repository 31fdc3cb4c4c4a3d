"""Equivalence and golden tests for the banked sensor-scan path.

The :class:`repro.core.SensorBank` contract is that one broadcast scan
computes exactly what the per-sensor pipeline of ``tests/oracles.py``
(one :class:`SmartTemperatureSensor` per site, scalar measure each)
computes: counter codes *exactly*, calibrated estimates to 1e-9
relative.  The thermal-map metrics on the example processor are pinned
as golden values so a refactor of either path cannot silently drift
them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    bank_scan_loop,
    endpoint_observable_per_cell,
    endpoint_observable_textbook,
    measured_period_scalar,
    monitor_scan_scalar,
    site_period_tensor_loop,
    transfer_function_scalar,
    two_point_calibration_scalar,
)
from repro.core import (
    CalibrationError,
    LinearCalibration,
    SensorBank,
    SmartTemperatureSensor,
    ThermalMonitor,
)
from repro.engine import Axis, Sweep, SweepError
from repro.oscillator import RingConfiguration
from repro.tech import CMOS035, TechnologyError, sample_technology_array

RTOL = 1e-9

DEFAULT_SETTINGS = dict(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CONFIGURATION = RingConfiguration.parse("2INV+3NAND2")

site_temperatures = st.lists(
    st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    min_size=4,
    max_size=4,
)
technology_seeds = st.integers(min_value=0, max_value=2**31 - 1)


# Banks come from the shared sensor_bank_factory fixture in conftest.py.


@pytest.fixture(scope="module")
def bank(sensor_bank_factory):
    return sensor_bank_factory(2)


class TestBankedScanEquivalence:
    @given(temps=site_temperatures)
    @settings(**DEFAULT_SETTINGS)
    def test_scan_matches_per_sensor_oracle(self, temps, sensor_bank_factory):
        bank = sensor_bank_factory(2)
        temps = np.asarray(temps)
        banked = bank.scan(temps, calibration=bank.calibrate(-50.0, 150.0))
        oracle = bank_scan_loop(bank, temps, calibrate_at=(-50.0, 150.0))
        assert np.array_equal(banked.codes, oracle.codes)
        assert np.array_equal(banked.saturated, oracle.saturated)
        worst = np.max(
            np.abs(banked.estimates_c - oracle.estimates_c)
            / np.abs(oracle.estimates_c)
        )
        assert worst <= RTOL
        assert banked.conversion_time_s == oracle.conversion_time_s

    @given(temps=site_temperatures, seed=technology_seeds)
    @settings(max_examples=5, deadline=None)
    def test_population_scan_matches_per_sample_oracle(self, temps, seed, sensor_bank_factory):
        bank = sensor_bank_factory(2)
        temps = np.asarray(temps)
        population = sample_technology_array(CMOS035, 3, seed=seed)
        calibration = bank.two_point_calibration(-50.0, 150.0, technologies=population)
        banked = bank.scan(temps, technologies=population, calibration=calibration)
        oracle = bank_scan_loop(
            bank, temps, technologies=population, calibrate_at=(-50.0, 150.0)
        )
        assert banked.codes.shape == (bank.site_count, 3)
        assert np.array_equal(banked.codes, oracle.codes)
        worst = np.max(
            np.abs(banked.estimates_c - oracle.estimates_c)
            / np.abs(oracle.estimates_c)
        )
        assert worst <= RTOL

    def test_period_tensor_matches_loop(self, bank):
        temps = np.linspace(40.0, 120.0, bank.site_count)
        population = sample_technology_array(CMOS035, 4, seed=11)
        stacked = bank.period_tensor(temps, technologies=population)
        looped = site_period_tensor_loop(bank, temps, technologies=population)
        assert stacked.shape == looped.shape == (bank.site_count, 4)
        assert np.max(np.abs(stacked - looped) / looped) <= RTOL

    def test_calibration_matches_scalar_sensor(self, bank, library):
        endpoints = (-50.0, 150.0)
        scalar = two_point_calibration_scalar(
            [measured_period_scalar(bank.ring, bank.readout, t) for t in endpoints],
            endpoints,
        )
        banked = bank.two_point_calibration(*endpoints)
        assert isinstance(banked, LinearCalibration)
        assert banked.slope_c_per_second == scalar.slope_c_per_second
        assert banked.offset_c == scalar.offset_c
        sensor = SmartTemperatureSensor.from_configuration(
            CMOS035, CONFIGURATION, library=library
        )
        assert sensor.calibrate_two_point(*endpoints) == banked
        population = sample_technology_array(CMOS035, 3, seed=5)
        per_sample = bank.two_point_calibration(*endpoints, technologies=population)
        assert per_sample.slope_c_per_second.shape == (3,)
        for column, technology in enumerate(population.technologies()):
            ring = bank.ring.rebind(technology)
            row = two_point_calibration_scalar(
                [measured_period_scalar(ring, bank.readout, t) for t in endpoints],
                endpoints,
            )
            assert per_sample.slope_c_per_second[column] == row.slope_c_per_second
            assert per_sample.offset_c[column] == row.offset_c


class TestBankStructure:
    def test_uncalibrated_scan_has_no_estimates(self, bank):
        scan = bank.scan(np.full(bank.site_count, 60.0))
        assert scan.estimates_c is None
        assert scan.temperatures() == {name: None for name in scan.names}

    def test_readings_view_matches_arrays(self, bank):
        temps = np.linspace(50.0, 90.0, bank.site_count)
        scan = bank.scan(temps, calibration=bank.calibrate(-50.0, 150.0))
        readings = scan.readings
        assert set(readings) == set(scan.names)
        for index, name in enumerate(scan.names):
            assert readings[name].code == int(scan.codes[index])
            assert readings[name].true_temperature_c == temps[index]
        assert scan.names[int(np.argmax(scan.estimates_c))] == scan.names[-1]
        assert scan.total_time_s == pytest.approx(
            bank.site_count * bank.conversion_time_s
        )

    def test_population_scan_rejects_scalar_dict_views(self, bank):
        population = sample_technology_array(CMOS035, 2, seed=3)
        scan = bank.scan(
            np.full(bank.site_count, 60.0), technologies=population
        )
        with pytest.raises(TechnologyError):
            scan.temperatures()

    def test_requires_one_temperature_per_site(self, bank):
        with pytest.raises(TechnologyError):
            bank.scan(np.asarray([25.0]))

    def test_requires_unique_site_names(self, library, sensor_floorplan_factory):
        floorplan = sensor_floorplan_factory(2)
        sites = floorplan.sensor_sites() + [floorplan.sensor_sites()[0]]
        with pytest.raises(TechnologyError):
            SensorBank(library, sites, CONFIGURATION)
        with pytest.raises(TechnologyError):
            SensorBank(library, [], CONFIGURATION)

    def test_zero_slope_calibration_rejected(self):
        with pytest.raises(CalibrationError):
            LinearCalibration(
                slope_c_per_second=np.asarray([1.0e12, 0.0]),
                offset_c=np.asarray(1.0),
            )


@pytest.fixture(scope="module")
def monitor(tech, sensor_floorplan_factory):
    floorplan = sensor_floorplan_factory(3)
    built = ThermalMonitor(
        tech, floorplan, CONFIGURATION, grid_resolution=16
    )
    built.calibrate(-50.0, 150.0)
    return built


class TestMonitorBankedScan:
    def test_banked_scan_matches_multiplexer_oracle(self, monitor):
        banked = monitor.scan()
        scalar = monitor_scan_scalar(monitor, calibrate_at=(-50.0, 150.0))
        assert banked.site_estimates_c.keys() == scalar.site_estimates_c.keys()
        for name, estimate in banked.site_estimates_c.items():
            assert estimate == pytest.approx(scalar.site_estimates_c[name], rel=RTOL)
        banked_codes = {n: r.code for n, r in banked.scan.readings.items()}
        scalar_codes = {n: r.code for n, r in scalar.scan.readings.items()}
        assert banked_codes == scalar_codes
        assert banked.scan.total_time_s == pytest.approx(scalar.scan.total_time_s)
        assert banked.map_rms_error_c() == pytest.approx(
            scalar.map_rms_error_c(), rel=RTOL
        )

    def test_golden_map_metrics_on_example_processor(self, monitor):
        # Golden pin (3x3 bank, grid_resolution=16, two-point -50/150):
        # a refactor of the banked or oracle path must not drift these.
        report = monitor.scan()
        assert report.worst_site_error_c() == pytest.approx(
            0.438631731258198, rel=1e-6
        )
        assert report.map_rms_error_c() == pytest.approx(
            3.0666681976820036, rel=1e-6
        )

    def test_uncalibrated_monitor_scan_rejected(self, tech, sensor_floorplan_factory):
        floorplan = sensor_floorplan_factory(2)
        fresh = ThermalMonitor(tech, floorplan, CONFIGURATION, grid_resolution=16)
        with pytest.raises(TechnologyError):
            fresh.scan()


class TestSiteAxisThroughSweep:
    def test_scan_mode_matches_bank_scan(self, bank):
        temps = np.linspace(55.0, 95.0, bank.site_count)
        population = sample_technology_array(CMOS035, 5, seed=21)
        result = (
            Sweep()
            .over(Axis.site(bank, junction_temperatures_c=temps))
            .over(Axis.sample(population))
            .observe("code")
            .run()
        )
        assert result.dims == ("site", "sample")
        reference = bank.scan(temps, technologies=population)
        assert np.array_equal(result.values, reference.codes)

    def test_characterisation_mode_broadcasts_shared_design(self, bank):
        grid = np.linspace(-50.0, 150.0, 7)
        result = (
            Sweep()
            .over(Axis.site(bank))
            .over(Axis.temperature(grid))
            .run()
        )
        assert result.dims == ("site", "temperature")
        expected = bank.ring.period_series(grid)
        for index in range(bank.site_count):
            assert np.array_equal(result.isel(site=index).values, expected)

    @pytest.mark.parametrize(
        "observable", ["nonlinearity_percent", "transfer_c", "calibration_error_c"]
    )
    def test_characterisation_mode_endpoint_observables(self, bank, observable):
        # The shared design's observable, summed from per-cell terms,
        # broadcasts along the site dimension: bitwise the per-cell
        # oracle in the same order, and within 1e-9 of each row's peak
        # of the textbook formula over the periods.
        grid = np.linspace(-50.0, 150.0, 9)
        population = sample_technology_array(CMOS035, 3, seed=8)
        result = (
            Sweep()
            .over(Axis.site(bank))
            .over(Axis.sample(population))
            .over(Axis.temperature(grid))
            .observe(observable)
            .run()
        )
        assert result.dims == ("site", "sample", "temperature")
        ring = bank.ring.rebind(population)
        expected = endpoint_observable_per_cell(ring, grid, observable)
        textbook = endpoint_observable_textbook(
            bank.ring.period_matrix(population, grid), grid, observable
        )
        peak = np.abs(textbook).max(axis=-1, keepdims=True)
        for index in range(bank.site_count):
            values = result.isel(site=index).values
            assert np.array_equal(values, expected)
            assert np.all(np.abs(values - textbook) <= 1e-9 * peak)

    def test_power_observable_matches_dynamic_power(self, bank):
        result = (
            Sweep()
            .over(Axis.site(bank))
            .over(Axis.temperature([25.0]))
            .observe("power")
            .run()
        )
        expected = bank.ring.dynamic_power(25.0)
        assert result.isel(site=0).item() == pytest.approx(expected, rel=1e-12)

    def test_code_observable_matches_transfer_function(self, tech):
        grid = np.linspace(-50.0, 150.0, 9)
        sensor = SmartTemperatureSensor.from_configuration(tech, CONFIGURATION)
        result = (
            Sweep(technology=tech, configuration=CONFIGURATION)
            .over(Axis.temperature(grid))
            .observe("code")
            .run()
        )
        transfer = transfer_function_scalar(sensor, grid)
        assert np.array_equal(result.values, transfer.codes.astype(np.int64))

    def test_site_axis_validation(self, bank):
        with pytest.raises(SweepError):
            Axis.site(bank, junction_temperatures_c=[25.0])  # wrong length
        with pytest.raises(SweepError):
            (
                Sweep(configuration=CONFIGURATION)
                .over(Axis.site(bank))
                .plan()
            )
        with pytest.raises(SweepError):
            (
                Sweep()
                .over(Axis.site(bank, junction_temperatures_c=np.full(len(bank), 25.0)))
                .over(Axis.temperature([25.0, 50.0]))
                .plan()
            )
        with pytest.raises(SweepError):
            (
                Sweep()
                .over(Axis.site(bank, junction_temperatures_c=np.full(len(bank), 25.0)))
                .observe("nonlinearity_percent")
                .plan()
            )
        with pytest.raises(SweepError):
            (
                Sweep()
                .over(Axis.site(bank))
                .over(Axis.configuration({"5INV": RingConfiguration.uniform("INV", 5)}))
                .plan()
            )
