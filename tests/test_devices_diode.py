"""Unit tests for the thermal-diode model (baseline sensor substrate)."""

import pytest

from repro.devices import DiodeModel, DiodeParameters
from repro.tech import TechnologyError


class TestDiodeParameters:
    def test_defaults_valid(self):
        params = DiodeParameters()
        assert params.ideality >= 1.0

    def test_rejects_nonpositive_saturation_current(self):
        with pytest.raises(TechnologyError):
            DiodeParameters(saturation_current_a=0.0)

    def test_rejects_subunity_ideality(self):
        with pytest.raises(TechnologyError):
            DiodeParameters(ideality=0.9)


class TestSaturationCurrent:
    def test_reference_value(self):
        model = DiodeModel()
        assert model.saturation_current(model.params.reference_temperature_k) == pytest.approx(
            model.params.saturation_current_a
        )

    def test_strongly_increases_with_temperature(self):
        model = DiodeModel()
        # Roughly a decade every 10-12 K for silicon.
        ratio = model.saturation_current(310.0) / model.saturation_current(300.0)
        assert 2.0 < ratio < 6.0

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(TechnologyError):
            DiodeModel().saturation_current(-5.0)


class TestForwardVoltage:
    def test_room_temperature_forward_voltage(self):
        model = DiodeModel()
        voltage = model.forward_voltage(10e-6, 300.0)
        assert 0.4 < voltage < 0.75

    def test_negative_temperature_coefficient(self):
        # The classic ~-2 mV/K slope of a forward-biased junction.
        model = DiodeModel()
        slope = (model.forward_voltage(10e-6, 310.0) - model.forward_voltage(10e-6, 300.0)) / 10.0
        assert -2.6e-3 < slope < -1.2e-3

    def test_rejects_nonpositive_current(self):
        with pytest.raises(TechnologyError):
            DiodeModel().forward_voltage(0.0, 300.0)


class TestDeltaVbe:
    def test_positive_and_ptat(self):
        model = DiodeModel()
        cold = model.delta_vbe(5e-6, 80e-6, 250.0)
        hot = model.delta_vbe(5e-6, 80e-6, 400.0)
        assert 0.0 < cold < hot

    def test_proportional_to_absolute_temperature(self):
        # PTAT proportionality holds while the bias currents stay far
        # above the saturation current (true over the sensing range).
        model = DiodeModel(DiodeParameters(series_resistance_ohm=0.0))
        v250 = model.delta_vbe(5e-6, 80e-6, 250.0)
        v375 = model.delta_vbe(5e-6, 80e-6, 375.0)
        assert v375 == pytest.approx(1.5 * v250, rel=1e-3)

    def test_requires_distinct_currents(self):
        with pytest.raises(TechnologyError):
            DiodeModel().delta_vbe(10e-6, 10e-6, 300.0)

    def test_inversion_recovers_temperature(self):
        model = DiodeModel(DiodeParameters(series_resistance_ohm=0.0))
        temp_k = 350.0
        delta = model.delta_vbe(5e-6, 80e-6, temp_k)
        recovered = model.temperature_from_delta_vbe(delta, 5e-6, 80e-6)
        assert recovered == pytest.approx(temp_k, rel=1e-6)

    def test_inversion_rejects_nonpositive_voltage(self):
        with pytest.raises(TechnologyError):
            DiodeModel().temperature_from_delta_vbe(0.0, 5e-6, 80e-6)
