"""Unit tests for the alpha-power MOSFET model."""

import pytest

from repro.devices import DeviceSizing, MosfetModel
from repro.tech import CMOS035, TechnologyError


def nmos(width=1.0, temp_k=300.15):
    return MosfetModel(CMOS035.nmos, DeviceSizing(width_um=width), temp_k)


def pmos(width=2.0, temp_k=300.15):
    return MosfetModel(CMOS035.pmos, DeviceSizing(width_um=width), temp_k)


class TestDeviceSizing:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(TechnologyError):
            DeviceSizing(width_um=0.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(TechnologyError):
            DeviceSizing(width_um=1.0, length_um=-0.1)

    def test_length_defaults_to_technology(self):
        sizing = DeviceSizing(width_um=1.0)
        assert sizing.length_or(0.35) == pytest.approx(0.35)


class TestCurrentBasics:
    def test_off_device_leaks_little(self):
        device = nmos()
        assert device.ids(vgs=0.0, vds=3.3) < 1e-8

    def test_on_device_conducts_milliamps(self):
        device = nmos()
        current = device.ids(vgs=3.3, vds=3.3)
        assert 1e-4 < current < 1e-2

    def test_current_increases_with_gate_drive(self):
        device = nmos()
        assert device.ids(2.0, 3.3) < device.ids(2.5, 3.3) < device.ids(3.3, 3.3)

    def test_current_increases_with_width(self):
        narrow = nmos(width=1.0).ids(3.3, 3.3)
        wide = nmos(width=3.0).ids(3.3, 3.3)
        assert wide == pytest.approx(3.0 * narrow, rel=1e-6)

    def test_zero_vds_gives_zero_current(self):
        device = nmos()
        assert device.ids(3.3, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_vds_antisymmetric(self):
        device = nmos()
        forward = device.ids(3.3, 0.2)
        reverse = device.ids(3.3, -0.2)
        assert reverse < 0.0
        # Not exactly symmetric (the gate drive frame shifts), but the
        # magnitudes must be comparable for a small |vds|.
        assert abs(reverse) == pytest.approx(forward, rel=0.3)

    def test_linear_region_below_saturation(self):
        device = nmos()
        vdsat = device.vdsat(3.3)
        linear = device.ids(3.3, 0.4 * vdsat)
        saturated = device.ids(3.3, 2.0 * vdsat)
        assert linear < saturated

    def test_saturation_current_flat_beyond_vdsat(self):
        device = nmos()
        vdsat = device.vdsat(3.3)
        i1 = device.ids(3.3, vdsat * 1.2)
        i2 = device.ids(3.3, vdsat * 1.8)
        # Only channel-length modulation separates them.
        assert i2 > i1
        assert (i2 - i1) / i1 < 0.1


class TestTemperatureDependence:
    def test_drive_current_falls_with_temperature(self):
        cold = nmos(temp_k=250.0).ids(3.3, 3.3)
        hot = nmos(temp_k=400.0).ids(3.3, 3.3)
        assert cold > hot

    def test_threshold_falls_with_temperature(self):
        assert nmos(temp_k=400.0).vth < nmos(temp_k=250.0).vth

    def test_pmos_also_degrades(self):
        cold = pmos(temp_k=250.0).ids(3.3, 3.3)
        hot = pmos(temp_k=400.0).ids(3.3, 3.3)
        assert cold > hot


class TestOperatingPoint:
    def test_region_classification(self):
        device = nmos()
        assert device.operating_point(0.2, 1.0).region == "subthreshold"
        assert device.operating_point(3.3, 0.1).region == "linear"
        assert device.operating_point(3.3, 3.3).region == "saturation"

    def test_transconductance_positive_when_on(self):
        op = nmos().operating_point(2.5, 3.3)
        assert op.gm > 0.0

    def test_output_conductance_nonnegative(self):
        op = nmos().operating_point(2.5, 3.3)
        assert op.gds >= 0.0

    def test_gm_larger_in_saturation_than_subthreshold(self):
        device = nmos()
        on = device.operating_point(3.3, 3.3).gm
        off = device.operating_point(0.1, 3.3).gm
        assert on > off


class TestCapacitances:
    def test_from_technology_constructor(self):
        device = MosfetModel.from_technology(CMOS035, "pmos", width_um=2.0, temperature_k=300.0)
        assert device.params.polarity == "pmos"
        assert device.width_um == pytest.approx(2.0)
