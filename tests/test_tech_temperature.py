"""Unit tests for repro.tech.temperature (PVT physics).

Each law is read from the one evaluation, :func:`device_at`; the small
helpers below name the field a test class checks.
"""

import pytest

from repro.tech import CMOS035
from repro.tech.parameters import T_NOMINAL_K, TechnologyError, celsius_to_kelvin
from repro.tech.temperature import device_at, thermal_voltage


NMOS = CMOS035.nmos
PMOS = CMOS035.pmos


def mobility_at(params, temp_k):
    return device_at(params, temp_k).mobility


def threshold_voltage_at(params, temp_k):
    return device_at(params, temp_k).vth


def saturation_velocity_at(params, temp_k):
    return device_at(params, temp_k).vsat_cm_per_s


def alpha_at(params, temp_k):
    return device_at(params, temp_k).alpha


class TestMobility:
    def test_equals_nominal_at_reference(self):
        assert mobility_at(NMOS, T_NOMINAL_K) == pytest.approx(NMOS.mobility)

    def test_decreases_with_temperature(self):
        cold = mobility_at(NMOS, 250.0)
        hot = mobility_at(NMOS, 400.0)
        assert cold > NMOS.mobility > hot

    def test_power_law_exponent(self):
        ratio = mobility_at(NMOS, 2.0 * T_NOMINAL_K) / NMOS.mobility
        assert ratio == pytest.approx(2.0 ** (-NMOS.mobility_temp_exponent), rel=1e-9)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(TechnologyError):
            mobility_at(NMOS, 0.0)
        with pytest.raises(TechnologyError):
            mobility_at(NMOS, -10.0)


class TestThresholdVoltage:
    def test_equals_nominal_at_reference(self):
        assert threshold_voltage_at(NMOS, T_NOMINAL_K) == pytest.approx(NMOS.vth0)

    def test_decreases_with_temperature(self):
        assert threshold_voltage_at(NMOS, 400.0) < NMOS.vth0
        assert threshold_voltage_at(NMOS, 250.0) > NMOS.vth0

    def test_linear_slope_matches_coefficient(self):
        delta = threshold_voltage_at(NMOS, T_NOMINAL_K) - threshold_voltage_at(
            NMOS, T_NOMINAL_K + 100.0
        )
        assert delta == pytest.approx(100.0 * NMOS.vth_temp_coeff, rel=1e-9)

    def test_clamped_to_positive_floor(self):
        extreme = threshold_voltage_at(NMOS, 1000.0)
        assert extreme >= 0.05


class TestSaturationVelocityAndAlpha:
    def test_vsat_decreases_with_temperature(self):
        assert saturation_velocity_at(NMOS, 400.0) < NMOS.vsat_cm_per_s

    def test_vsat_never_collapses(self):
        assert saturation_velocity_at(NMOS, 5000.0) > 0.0

    def test_alpha_increases_with_temperature(self):
        assert alpha_at(NMOS, 400.0) >= alpha_at(NMOS, 250.0)

    def test_alpha_clamped_to_square_law(self):
        params = NMOS.scaled(alpha=1.95, alpha_temp_coeff=0.01)
        assert alpha_at(params, 500.0) == pytest.approx(2.0)


class TestThermalVoltage:
    def test_room_temperature_value(self):
        assert thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)

    def test_proportional_to_temperature(self):
        assert thermal_voltage(600.0) == pytest.approx(2.0 * thermal_voltage(300.0))


class TestDeviceSnapshot:
    def test_snapshot_consistent_with_scalar_functions(self):
        # The closed-form laws: power-law mobility, linear threshold and
        # alpha drift, all referenced to T_NOMINAL_K.
        device = device_at(PMOS, 350.0)
        rise = 350.0 - T_NOMINAL_K
        assert device.vth == pytest.approx(PMOS.vth0 - PMOS.vth_temp_coeff * rise)
        assert device.mobility == pytest.approx(
            PMOS.mobility * (350.0 / T_NOMINAL_K) ** -PMOS.mobility_temp_exponent
        )
        assert device.alpha == pytest.approx(PMOS.alpha + PMOS.alpha_temp_coeff * rise)

    def test_celsius_wrapper(self):
        device = device_at(NMOS, celsius_to_kelvin(25.0))
        assert device.temperature_k == pytest.approx(298.15)
        assert device.temperature_c == pytest.approx(25.0)

    def test_transconductance_tracks_mobility(self):
        cold = device_at(NMOS, 250.0)
        hot = device_at(NMOS, 400.0)
        assert cold.process_transconductance > hot.process_transconductance

    def test_polarity_preserved(self):
        assert device_at(PMOS, 300.0).polarity == "pmos"


class TestDelayRelevantBehaviour:
    """The physics that makes the ring oscillator a temperature sensor."""

    def test_nmos_drive_factor_decreases_with_temperature(self):
        # The composite mu(T) * (Vdd - Vth(T))^alpha must decrease with
        # temperature at 3.3 V (mobility dominates) — this is why delay
        # rises and the sensor works.
        def drive(temp_k: float) -> float:
            device = device_at(NMOS, temp_k)
            return device.mobility * (CMOS035.vdd - device.vth) ** device.alpha

        assert drive(250.0) > drive(300.0) > drive(400.0)

    def test_pmos_drive_factor_decreases_with_temperature(self):
        def drive(temp_k: float) -> float:
            device = device_at(PMOS, temp_k)
            return device.mobility * (CMOS035.vdd - device.vth) ** device.alpha

        assert drive(250.0) > drive(300.0) > drive(400.0)
