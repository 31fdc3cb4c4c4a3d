"""Unit tests for the DC operating-point solver."""

import pytest

from oracles import add_current_source, add_resistor
from repro.circuit import Circuit, DCOptions, SimulationError, solve_dc
from repro.devices import DeviceSizing, MosfetModel
from repro.tech import CMOS035


def build_divider(r_top=1e3, r_bottom=3e3, vdd=3.3):
    circuit = Circuit("divider")
    circuit.add_voltage_source("vdd", "gnd", vdd, name="VDD")
    add_resistor(circuit, "vdd", "mid", r_top, name="RT")
    add_resistor(circuit, "mid", "gnd", r_bottom, name="RB")
    return circuit


def build_inverter(vin, vdd=3.3, temp_k=300.15):
    circuit = Circuit("inverter_dc")
    circuit.add_voltage_source("vdd", "gnd", vdd, name="VDD")
    circuit.add_voltage_source("in", "gnd", vin, name="VIN")
    nmos = MosfetModel(CMOS035.nmos, DeviceSizing(1.05), temp_k)
    pmos = MosfetModel(CMOS035.pmos, DeviceSizing(2.1), temp_k)
    circuit.add_mosfet("out", "in", "gnd", nmos, name="MN")
    circuit.add_mosfet("out", "in", "vdd", pmos, name="MP")
    return circuit


class TestResistiveCircuits:
    def test_voltage_divider(self):
        result = solve_dc(build_divider())
        assert result.voltage("mid") == pytest.approx(3.3 * 3.0 / 4.0, rel=1e-6)

    def test_supply_current_through_divider(self):
        result = solve_dc(build_divider(r_top=1e3, r_bottom=1e3))
        # Source current flows out of the positive terminal into the divider.
        assert abs(result.branch_currents["VDD"]) == pytest.approx(3.3 / 2e3, rel=1e-6)

    def test_ground_reads_zero(self):
        result = solve_dc(build_divider())
        assert result.voltage("gnd") == 0.0

    def test_unknown_node_raises(self):
        result = solve_dc(build_divider())
        with pytest.raises(SimulationError):
            result.voltage("does_not_exist")

    def test_current_source_into_resistor(self):
        circuit = Circuit("isrc")
        add_current_source(circuit, "gnd", "a", 1e-3, name="I1")
        add_resistor(circuit, "a", "gnd", 2e3, name="R1")
        result = solve_dc(circuit)
        assert result.voltage("a") == pytest.approx(2.0, rel=1e-6)


class TestInverterTransferCurve:
    def test_output_high_for_low_input(self):
        result = solve_dc(build_inverter(0.0))
        assert result.voltage("out") > 3.2

    def test_output_low_for_high_input(self):
        result = solve_dc(build_inverter(3.3))
        assert result.voltage("out") < 0.1

    def test_switching_region_near_midpoint(self):
        low = solve_dc(build_inverter(1.2)).voltage("out")
        high = solve_dc(build_inverter(2.1)).voltage("out")
        assert low > high  # transfer curve is monotonically falling

    def test_converges_and_reports_iterations(self):
        result = solve_dc(build_inverter(1.65))
        assert result.converged
        assert result.iterations > 0


class TestOptions:
    def test_invalid_options_rejected(self):
        with pytest.raises(SimulationError):
            DCOptions(max_iterations=0)
        with pytest.raises(SimulationError):
            DCOptions(tolerance_v=0.0)
        with pytest.raises(SimulationError):
            DCOptions(source_steps=0)

    def test_source_stepping_reaches_same_answer(self):
        plain = solve_dc(build_divider())
        stepped = solve_dc(build_divider(), DCOptions(source_steps=5))
        assert stepped.voltage("mid") == pytest.approx(plain.voltage("mid"), rel=1e-6)
