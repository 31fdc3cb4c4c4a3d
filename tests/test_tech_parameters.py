"""Unit tests for repro.tech.parameters."""

import math

import pytest

from repro.tech.parameters import (
    T_NOMINAL_K,
    Technology,
    TechnologyError,
    TransistorParameters,
    celsius_to_kelvin,
    kelvin_to_celsius,
)


def make_nmos(**overrides):
    base = dict(
        polarity="nmos",
        vth0=0.55,
        mobility=430.0,
        alpha=1.3,
        channel_length_um=0.35,
        cox_f_per_um2=4.6e-15,
        vsat_cm_per_s=8.0e6,
        vth_temp_coeff=0.9e-3,
        mobility_temp_exponent=1.5,
    )
    base.update(overrides)
    return TransistorParameters(**base)


class TestUnitConversions:
    def test_celsius_to_kelvin_roundtrip(self):
        assert celsius_to_kelvin(25.0) == pytest.approx(298.15)
        assert kelvin_to_celsius(celsius_to_kelvin(-50.0)) == pytest.approx(-50.0)

    def test_zero_celsius(self):
        assert celsius_to_kelvin(0.0) == pytest.approx(273.15)

    def test_nominal_temperature_is_room(self):
        assert kelvin_to_celsius(T_NOMINAL_K) == pytest.approx(27.0, abs=0.01)


class TestTransistorParameters:
    def test_valid_construction(self):
        params = make_nmos()
        assert params.polarity == "nmos"
        assert params.vth0 == pytest.approx(0.55)

    def test_rejects_bad_polarity(self):
        with pytest.raises(TechnologyError):
            make_nmos(polarity="cmos")

    def test_rejects_negative_vth(self):
        with pytest.raises(TechnologyError):
            make_nmos(vth0=-0.1)

    def test_rejects_zero_mobility(self):
        with pytest.raises(TechnologyError):
            make_nmos(mobility=0.0)

    def test_rejects_alpha_outside_physical_range(self):
        with pytest.raises(TechnologyError):
            make_nmos(alpha=0.8)
        with pytest.raises(TechnologyError):
            make_nmos(alpha=2.5)

    def test_rejects_negative_temperature_coefficients(self):
        with pytest.raises(TechnologyError):
            make_nmos(vth_temp_coeff=-0.001)
        with pytest.raises(TechnologyError):
            make_nmos(mobility_temp_exponent=-1.0)

    def test_gate_cap_includes_overlap(self):
        params = make_nmos()
        bare = params.cox_f_per_um2 * params.channel_length_um
        assert params.gate_cap_f_per_um > bare

    def test_process_transconductance_units(self):
        params = make_nmos()
        # mu*Cox for 430 cm^2/Vs and 4.6 fF/um^2 is about 2e-4 A/V^2.
        assert params.process_transconductance == pytest.approx(1.978e-4, rel=1e-3)

    def test_scaled_returns_modified_copy(self):
        params = make_nmos()
        faster = params.scaled(mobility=500.0)
        assert faster.mobility == pytest.approx(500.0)
        assert params.mobility == pytest.approx(430.0)
        assert faster.vth0 == params.vth0


class TestTechnology:
    def make_tech(self, **overrides):
        pmos = make_nmos(polarity="pmos", vth0=0.65, mobility=160.0, alpha=1.7)
        base = dict(
            name="testtech",
            feature_size_um=0.35,
            vdd=3.3,
            nmos=make_nmos(),
            pmos=pmos,
        )
        base.update(overrides)
        return Technology(**base)

    def test_valid_construction(self):
        tech = self.make_tech()
        assert tech.vdd == pytest.approx(3.3)

    def test_rejects_swapped_polarities(self):
        with pytest.raises(TechnologyError):
            self.make_tech(nmos=make_nmos(polarity="pmos", vth0=0.65))

    def test_rejects_supply_below_threshold(self):
        with pytest.raises(TechnologyError):
            self.make_tech(vdd=0.5)

    def test_transistor_lookup(self):
        tech = self.make_tech()
        assert tech.transistor("nmos").polarity == "nmos"
        assert tech.transistor("pmos").polarity == "pmos"
        with pytest.raises(TechnologyError):
            tech.transistor("bjt")

    def test_with_supply_returns_copy(self):
        tech = self.make_tech()
        lowered = tech.with_supply(2.5)
        assert lowered.vdd == pytest.approx(2.5)
        assert tech.vdd == pytest.approx(3.3)

    def test_with_transistors_replaces_selectively(self):
        tech = self.make_tech()
        new_nmos = make_nmos(vth0=0.5)
        replaced = tech.with_transistors(nmos=new_nmos)
        assert replaced.nmos.vth0 == pytest.approx(0.5)
        assert replaced.pmos.vth0 == pytest.approx(0.65)
