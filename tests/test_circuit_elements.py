"""Unit tests for individual element stamps and the pulse source."""

import numpy as np
import pytest

from oracles import Resistor
from repro.circuit import (
    Capacitor,
    Circuit,
    PulseVoltageSource,
    SimulationError,
    StampContext,
    VoltageSource,
    solve_dc,
)
from repro.circuit.elements import Mosfet
from repro.devices import DeviceSizing, MosfetModel
from repro.tech import CMOS035


def context(voltages, previous=None, timestep=None, time=0.0):
    return StampContext(
        voltages=np.asarray(voltages, dtype=float),
        previous_voltages=None if previous is None else np.asarray(previous, dtype=float),
        timestep=timestep,
        time=time,
    )


class TestResistorStamp:
    def test_conductance_stamped_symmetrically(self):
        element = Resistor(name="R", node_a=0, node_b=1, ohms=100.0)
        matrix = np.zeros((2, 2))
        rhs = np.zeros(2)
        element.stamp(matrix, rhs, context([0.0, 0.0]))
        g = 1.0 / 100.0
        assert matrix[0, 0] == pytest.approx(g)
        assert matrix[1, 1] == pytest.approx(g)
        assert matrix[0, 1] == pytest.approx(-g)
        assert matrix[1, 0] == pytest.approx(-g)

    def test_ground_connection_skips_rows(self):
        element = Resistor(name="R", node_a=0, node_b=-1, ohms=50.0)
        matrix = np.zeros((1, 1))
        rhs = np.zeros(1)
        element.stamp(matrix, rhs, context([0.0]))
        assert matrix[0, 0] == pytest.approx(1.0 / 50.0)

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(SimulationError):
            Resistor(name="R", node_a=0, node_b=1, ohms=0.0)


class TestCapacitorStamp:
    def test_no_contribution_in_dc(self):
        element = Capacitor(name="C", node_a=0, node_b=-1, farads=1e-12)
        matrix = np.zeros((1, 1))
        rhs = np.zeros(1)
        element.stamp(matrix, rhs, context([1.0]))
        assert matrix[0, 0] == 0.0
        assert rhs[0] == 0.0

    def test_companion_model_in_transient(self):
        element = Capacitor(name="C", node_a=0, node_b=-1, farads=1e-12)
        matrix = np.zeros((1, 1))
        rhs = np.zeros(1)
        element.stamp(matrix, rhs, context([1.0], previous=[0.5], timestep=1e-12))
        geq = 1e-12 / 1e-12
        assert matrix[0, 0] == pytest.approx(geq)
        assert rhs[0] == pytest.approx(geq * 0.5)

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(SimulationError):
            Capacitor(name="C", node_a=0, node_b=1, farads=0.0)


class TestVoltageSourceStamp:
    def test_requires_branch_index(self):
        element = VoltageSource(name="V", node_a=0, node_b=-1, voltage=1.0)
        with pytest.raises(SimulationError):
            element.stamp(np.zeros((2, 2)), np.zeros(2), context([0.0]))

    def test_branch_equation_pins_voltage(self):
        element = VoltageSource(name="V", node_a=0, node_b=-1, voltage=2.5)
        matrix = np.zeros((2, 2))
        rhs = np.zeros(2)
        element.stamp(matrix, rhs, context([0.0]), branch_index=1)
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[1, 0] == pytest.approx(1.0)
        assert rhs[1] == pytest.approx(2.5)


class TestPulseSource:
    def make_pulse(self):
        return PulseVoltageSource(
            name="VP",
            node_a=0,
            node_b=-1,
            initial_v=0.0,
            pulsed_v=3.3,
            delay=1e-9,
            rise=0.1e-9,
            fall=0.1e-9,
            width=1e-9,
            period=3e-9,
        )

    def test_value_before_delay(self):
        assert self.make_pulse().value_at(0.5e-9) == pytest.approx(0.0)

    def test_value_during_rise_is_interpolated(self):
        assert self.make_pulse().value_at(1.05e-9) == pytest.approx(1.65, abs=0.01)

    def test_value_at_plateau(self):
        assert self.make_pulse().value_at(1.5e-9) == pytest.approx(3.3)

    def test_value_during_fall(self):
        assert self.make_pulse().value_at(2.15e-9) == pytest.approx(1.65, abs=0.01)

    def test_periodic_repetition(self):
        pulse = self.make_pulse()
        assert pulse.value_at(1.5e-9) == pytest.approx(pulse.value_at(1.5e-9 + 3e-9))

    def test_stamp_uses_context_time(self):
        pulse = self.make_pulse()
        matrix = np.zeros((2, 2))
        rhs = np.zeros(2)
        pulse.stamp(matrix, rhs, context([0.0], time=1.5e-9), branch_index=1)
        assert rhs[1] == pytest.approx(3.3)


class TestMosfetStamp:
    def test_requires_model(self):
        with pytest.raises(SimulationError):
            Mosfet(name="M", drain=0, gate=1, source=-1, model=None)

    # The current into the drain is what the drain's voltage source
    # delivers: minus its branch current (positive into its + terminal).

    def test_nmos_drain_current_sign(self):
        circuit = Circuit("nmos_on")
        circuit.add_voltage_source("d", "gnd", 3.3, name="VD")
        circuit.add_voltage_source("g", "gnd", 3.3, name="VG")
        circuit.add_mosfet("d", "g", "gnd", MosfetModel(CMOS035.nmos, DeviceSizing(1.0), 300.0))
        assert -solve_dc(circuit).branch_currents["VD"] > 0.0

    def test_pmos_drain_current_sign(self):
        # Source at VDD, gate grounded -> on.
        circuit = Circuit("pmos_on")
        circuit.add_voltage_source("s", "gnd", 3.3, name="VS")
        circuit.add_voltage_source("d", "gnd", 0.0, name="VD")
        circuit.add_mosfet("d", "gnd", "s", MosfetModel(CMOS035.pmos, DeviceSizing(2.0), 300.0))
        assert -solve_dc(circuit).branch_currents["VD"] < 0.0

    def test_stamp_produces_finite_matrix(self):
        model = MosfetModel(CMOS035.nmos, DeviceSizing(1.0), 300.0)
        fet = Mosfet(name="MN", drain=0, gate=1, source=-1, model=model)
        matrix = np.zeros((2, 2))
        rhs = np.zeros(2)
        fet.stamp(matrix, rhs, context([1.0, 2.0]))
        assert np.all(np.isfinite(matrix))
        assert np.all(np.isfinite(rhs))
        assert matrix[0, 0] > 0.0
