"""Unit tests for the analytical delay and load models."""

import pytest

from oracles import effective_saturation_current, gate_delay
from repro.delay import (
    DelayModelOptions,
    DriveNetwork,
    StackModel,
    input_capacitance,
    output_parasitic_capacitance,
    wire_capacitance,
)
from repro.tech import CMOS035, TechnologyError


class TestStackModel:
    def test_defaults_valid(self):
        model = StackModel()
        assert model.alpha_increment_per_level >= 0.0

    def test_rejects_negative_increment(self):
        with pytest.raises(TechnologyError):
            StackModel(alpha_increment_per_level=-0.1)

    def test_rejects_subunity_derating(self):
        with pytest.raises(TechnologyError):
            StackModel(series_derating=0.9)


class TestDriveNetwork:
    def test_rejects_unknown_polarity(self):
        with pytest.raises(TechnologyError):
            DriveNetwork(polarity="bjt", width_um=1.0)

    def test_rejects_zero_width(self):
        with pytest.raises(TechnologyError):
            DriveNetwork(polarity="nmos", width_um=0.0)

    def test_rejects_zero_stack(self):
        with pytest.raises(TechnologyError):
            DriveNetwork(polarity="nmos", width_um=1.0, stack_depth=0)


class TestEffectiveCurrent:
    def test_current_scales_with_width(self):
        narrow = effective_saturation_current(
            CMOS035, DriveNetwork("nmos", 1.0), 25.0
        )
        wide = effective_saturation_current(CMOS035, DriveNetwork("nmos", 2.0), 25.0)
        assert wide == pytest.approx(2.0 * narrow, rel=1e-9)

    def test_stacking_reduces_current(self):
        single = effective_saturation_current(CMOS035, DriveNetwork("nmos", 1.0, 1), 25.0)
        stacked = effective_saturation_current(CMOS035, DriveNetwork("nmos", 1.0, 2), 25.0)
        assert stacked < single
        assert stacked > single / 4.0

    def test_current_falls_with_temperature(self):
        cold = effective_saturation_current(CMOS035, DriveNetwork("nmos", 1.0), -50.0)
        hot = effective_saturation_current(CMOS035, DriveNetwork("nmos", 1.0), 150.0)
        assert cold > hot

    def test_pmos_weaker_than_nmos_at_equal_width(self):
        n_current = effective_saturation_current(CMOS035, DriveNetwork("nmos", 1.0), 25.0)
        p_current = effective_saturation_current(CMOS035, DriveNetwork("pmos", 1.0), 25.0)
        assert p_current < n_current

    def test_deep_stack_on_low_supply_can_fail(self):
        # At -50 C the PMOS threshold rises; with the body effect of a
        # 4-high stack it exceeds a 0.7 V supply and the model must refuse.
        low_vdd = CMOS035.with_supply(0.7)
        with pytest.raises(TechnologyError):
            effective_saturation_current(low_vdd, DriveNetwork("pmos", 1.0, 4), -50.0)


class TestGateDelay:
    def test_delay_proportional_to_load(self):
        network = DriveNetwork("nmos", 1.0)
        d1 = gate_delay(CMOS035, network, 10e-15, 25.0)
        d2 = gate_delay(CMOS035, network, 20e-15, 25.0)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-9)

    def test_delay_increases_with_temperature(self):
        network = DriveNetwork("nmos", 1.0)
        assert gate_delay(CMOS035, network, 10e-15, 150.0) > gate_delay(
            CMOS035, network, 10e-15, -50.0
        )

    def test_delay_is_picoseconds_scale(self):
        network = DriveNetwork("nmos", 1.0)
        delay = gate_delay(CMOS035, network, 10e-15, 25.0)
        assert 1e-12 < delay < 1e-9

    def test_rejects_nonpositive_load(self):
        with pytest.raises(TechnologyError):
            gate_delay(CMOS035, DriveNetwork("nmos", 1.0), 0.0, 25.0)

    def test_custom_fit_factor_scales_delay(self):
        network = DriveNetwork("nmos", 1.0)
        base = gate_delay(CMOS035, network, 10e-15, 25.0)
        doubled = gate_delay(
            CMOS035, network, 10e-15, 25.0, DelayModelOptions(fit_factor=2 * 0.52)
        )
        assert doubled == pytest.approx(2.0 * base, rel=1e-9)

    def test_invalid_fit_factor_rejected(self):
        with pytest.raises(TechnologyError):
            DelayModelOptions(fit_factor=0.0)


class TestLoadModels:
    def test_input_capacitance_sums_both_gates(self):
        cin = input_capacitance(CMOS035, 1.0, 2.0)
        n_only = input_capacitance(CMOS035, 1.0, 2.0) - CMOS035.pmos.gate_cap_f_per_um * 2.0
        assert n_only == pytest.approx(CMOS035.nmos.gate_cap_f_per_um * 1.0)
        assert cin > 0.0

    def test_input_capacitance_rejects_bad_widths(self):
        with pytest.raises(TechnologyError):
            input_capacitance(CMOS035, 0.0, 1.0)

    def test_output_parasitic_counts_drains(self):
        one_each = output_parasitic_capacitance(CMOS035, 1.0, 2.0, 1, 1)
        nand_like = output_parasitic_capacitance(CMOS035, 1.0, 2.0, 1, 2)
        assert nand_like > one_each

    def test_output_parasitic_rejects_negative_counts(self):
        with pytest.raises(TechnologyError):
            output_parasitic_capacitance(CMOS035, 1.0, 2.0, -1, 1)

    def test_wire_capacitance_linear_in_length(self):
        assert wire_capacitance(CMOS035, 10.0) == pytest.approx(
            10.0 * CMOS035.wire_cap_f_per_um
        )
        with pytest.raises(TechnologyError):
            wire_capacitance(CMOS035, -1.0)

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), float("-inf")])
    def test_wire_capacitance_rejects_non_finite_length(self, length):
        with pytest.raises(TechnologyError, match="finite"):
            wire_capacitance(CMOS035, length)
