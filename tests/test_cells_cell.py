"""Unit tests for the StandardCell abstraction and topologies."""

import pytest

from repro.cells import CellError, CellTopology, GateDelays, inverter, nand_gate, nor_gate, buffer_cell
from oracles import add_resistor
from repro.circuit import Circuit, solve_dc
from repro.tech import CMOS035, celsius_to_kelvin


class TestCellTopology:
    def test_inverter_topology(self):
        topo = CellTopology.inverter()
        assert topo.fan_in == 1
        assert topo.nmos_stack_depth == 1
        assert topo.inverting

    def test_nand_topology_stacks_nmos(self):
        topo = CellTopology.nand(3)
        assert topo.nmos_stack_depth == 3
        assert topo.pmos_stack_depth == 1
        assert topo.pmos_drains_on_output == 3

    def test_nor_topology_stacks_pmos(self):
        topo = CellTopology.nor(2)
        assert topo.pmos_stack_depth == 2
        assert topo.nmos_stack_depth == 1
        assert topo.nmos_drains_on_output == 2

    def test_buffer_is_noninverting_two_stage(self):
        topo = CellTopology.buffer()
        assert not topo.inverting
        assert topo.stages == 2

    def test_rejects_single_input_nand(self):
        with pytest.raises(CellError):
            CellTopology.nand(1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(CellError):
            CellTopology("XOR", 2, 1, 1, 1, 1)


class TestGateDelays:
    def test_average_and_pair_sum(self):
        delays = GateDelays(tphl=40e-12, tplh=60e-12)
        assert delays.pair_sum == pytest.approx(100e-12)


class TestStandardCellGeometry:
    def test_minimum_width_enforced(self):
        with pytest.raises(CellError):
            inverter(CMOS035, nmos_width_um=0.1)

    def test_input_capacitance_positive_and_fememto(self):
        cell = inverter(CMOS035)
        assert 1e-16 < cell.input_capacitance() < 1e-13

    def test_nand_parasitic_larger_than_inverter(self):
        inv = inverter(CMOS035)
        nand = nand_gate(CMOS035, 2)
        assert nand.output_parasitic_capacitance() > inv.output_parasitic_capacitance()

    def test_transistor_count(self):
        for cell, expected in ((inverter(CMOS035), 2), (nand_gate(CMOS035, 3), 6)):
            circuit = Circuit("count")
            cell.build_into(circuit, "in", "out", "vdd", 300.0, instance="u0")
            fets = [e for e in circuit.elements if e.__class__.__name__ == "Mosfet"]
            assert len(fets) == expected

    def test_area_scales_with_fan_in(self):
        assert nand_gate(CMOS035, 3).area_um2() > nand_gate(CMOS035, 2).area_um2()

    def test_width_ratio_default(self):
        assert inverter(CMOS035).width_ratio == pytest.approx(2.0)


class TestStandardCellDelays:
    def test_delay_increases_with_temperature(self):
        cell = inverter(CMOS035)
        load = 4.0 * cell.input_capacitance()
        assert cell.delays(150.0, load).pair_sum > cell.delays(-50.0, load).pair_sum

    def test_delay_increases_with_load(self):
        cell = inverter(CMOS035)
        cin = cell.input_capacitance()
        assert cell.delays(25.0, 8 * cin).pair_sum > cell.delays(25.0, 2 * cin).pair_sum

    def test_nand_slower_than_inverter_on_fall(self):
        # NAND2 pull-down is a 2-high stack of the same width devices.
        inv = inverter(CMOS035)
        nand = nand_gate(CMOS035, 2)
        load = 10e-15
        assert nand.delays(25.0, load).tphl > inv.delays(25.0, load).tphl

    def test_nor_slower_than_inverter_on_rise(self):
        inv = inverter(CMOS035)
        nor = nor_gate(CMOS035, 2)
        load = 10e-15
        assert nor.delays(25.0, load).tplh > inv.delays(25.0, load).tplh

    def test_buffer_delay_larger_than_inverter(self):
        inv = inverter(CMOS035)
        buf = buffer_cell(CMOS035)
        load = 10e-15
        assert buf.delays(25.0, load).pair_sum > inv.delays(25.0, load).pair_sum

    def test_negative_load_rejected(self):
        with pytest.raises(CellError):
            inverter(CMOS035).delays(25.0, -1e-15)


class TestNetlistGeneration:
    @staticmethod
    def _dc_output(cell, input_level):
        vdd = CMOS035.vdd
        circuit = Circuit(f"dc_{cell.name}")
        circuit.add_voltage_source("vdd", "gnd", vdd, name="VDD")
        circuit.add_voltage_source("in", "gnd", input_level, name="VIN")
        cell.build_into(circuit, "in", "out", "vdd", celsius_to_kelvin(25.0), instance="dut")
        add_resistor(circuit, "out", "gnd", 1e9, name="RLOAD")
        return solve_dc(circuit).voltage("out")

    def test_inverter_netlist_inverts(self):
        cell = inverter(CMOS035)
        assert self._dc_output(cell, 0.0) > 3.2
        assert self._dc_output(cell, 3.3) < 0.1

    def test_nand_used_as_inverter_inverts(self):
        cell = nand_gate(CMOS035, 2)
        assert self._dc_output(cell, 0.0) > 3.2
        assert self._dc_output(cell, 3.3) < 0.15

    def test_nor_used_as_inverter_inverts(self):
        cell = nor_gate(CMOS035, 2)
        assert self._dc_output(cell, 0.0) > 3.15
        assert self._dc_output(cell, 3.3) < 0.1

    def test_buffer_netlist_rejected(self):
        circuit = Circuit("buf")
        with pytest.raises(CellError):
            buffer_cell(CMOS035).build_into(circuit, "in", "out", "vdd", 300.0)

    def test_transistor_count_in_netlist(self):
        circuit = Circuit("count")
        circuit.add_voltage_source("vdd", "gnd", 3.3, name="VDD")
        nand_gate(CMOS035, 3).build_into(circuit, "in", "out", "vdd", 300.0, instance="u0")
        fets = [e for e in circuit.elements if e.__class__.__name__ == "Mosfet"]
        assert len(fets) == 6
