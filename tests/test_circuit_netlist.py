"""Unit tests for the circuit/netlist container."""

import pytest

from oracles import add_current_source, add_resistor
from repro.circuit import Circuit, SimulationError
from repro.devices import DeviceSizing, MosfetModel
from repro.tech import CMOS035


def nmos_model():
    return MosfetModel(CMOS035.nmos, DeviceSizing(1.0), 300.0)


class TestNodes:
    def test_ground_aliases_map_to_ground(self):
        circuit = Circuit()
        for alias in ("0", "gnd", "GND", "vss", "ground"):
            assert circuit.node(alias) == -1

    def test_nodes_get_sequential_indices(self):
        circuit = Circuit()
        assert circuit.node("a") == 0
        assert circuit.node("b") == 1
        assert circuit.node("a") == 0  # repeated lookup is stable

    def test_node_names_case_insensitive(self):
        circuit = Circuit()
        circuit.node("VDD")
        assert circuit.node_names() == ["vdd"]
        assert circuit.index_of("Vdd") == 0

    def test_index_of_unknown_node_raises(self):
        circuit = Circuit()
        with pytest.raises(SimulationError):
            circuit.index_of("nowhere")

    def test_node_count_excludes_ground(self):
        circuit = Circuit()
        add_resistor(circuit, "a", "gnd", 100.0)
        assert circuit.node_count == 1


class TestElementConstruction:
    def test_add_resistor_registers_nodes(self):
        circuit = Circuit()
        add_resistor(circuit, "in", "out", 1e3)
        assert circuit.node_names() == ["in", "out"]
        assert len(circuit.elements) == 1

    def test_add_capacitor_and_sources(self):
        circuit = Circuit()
        circuit.add_capacitor("a", "gnd", 1e-15)
        circuit.add_voltage_source("vdd", "gnd", 3.3)
        add_current_source(circuit, "vdd", "a", 1e-6)
        circuit.add_pulse_source("in", "gnd", 0.0, 3.3)
        assert len(circuit.elements) == 4

    def test_add_mosfet_uses_model_polarity(self):
        circuit = Circuit()
        fet = circuit.add_mosfet("d", "g", "s", nmos_model())
        assert not fet.is_pmos

    def test_system_size_counts_branches(self):
        circuit = Circuit()
        circuit.add_voltage_source("vdd", "gnd", 3.3)
        circuit.add_pulse_source("in", "gnd", 0.0, 3.3)
        add_resistor(circuit, "vdd", "out", 1e3)
        # nodes: vdd, in, out (3) + 2 source branches
        assert circuit.system_size() == 5

    def test_auto_names_are_unique(self):
        circuit = Circuit()
        r1 = add_resistor(circuit, "a", "b", 10.0)
        r2 = add_resistor(circuit, "b", "c", 10.0)
        assert r1.name != r2.name


class TestInitialConditions:
    def test_set_and_store(self):
        circuit = Circuit()
        circuit.set_initial_condition("x", 1.5)
        assert circuit.initial_conditions["x"] == pytest.approx(1.5)

    def test_bulk_set(self):
        circuit = Circuit()
        circuit.set_initial_conditions({"a": 0.0, "b": 3.3})
        assert len(circuit.initial_conditions) == 2

    def test_cannot_pin_ground(self):
        circuit = Circuit()
        with pytest.raises(SimulationError):
            circuit.set_initial_condition("gnd", 1.0)


class TestValidation:
    def test_empty_circuit_rejected(self):
        with pytest.raises(SimulationError):
            Circuit().validate()

    def test_floating_circuit_rejected(self):
        circuit = Circuit()
        add_resistor(circuit, "a", "b", 100.0)
        with pytest.raises(SimulationError):
            circuit.validate()

    def test_duplicate_names_rejected(self):
        circuit = Circuit()
        add_resistor(circuit, "a", "gnd", 100.0, name="R1")
        add_resistor(circuit, "b", "gnd", 100.0, name="R1")
        with pytest.raises(SimulationError):
            circuit.validate()

    def test_grounded_circuit_passes(self):
        circuit = Circuit()
        circuit.add_voltage_source("vdd", "gnd", 3.3)
        add_resistor(circuit, "vdd", "out", 1e3)
        add_resistor(circuit, "out", "gnd", 1e3)
        circuit.validate()
