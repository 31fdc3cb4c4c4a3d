"""Unit tests for the transient solver (RC circuits and CMOS switching)."""

import numpy as np
import pytest

from oracles import add_resistor
from repro.circuit import Circuit, SimulationError, TransientOptions, simulate_transient
from repro.devices import DeviceSizing, MosfetModel
from repro.tech import CMOS035


def build_rc(r_ohm=1e3, c_farad=1e-12, vdd=1.0):
    circuit = Circuit("rc")
    circuit.add_voltage_source("vdd", "gnd", vdd, name="VDD")
    add_resistor(circuit, "vdd", "out", r_ohm, name="R")
    circuit.add_capacitor("out", "gnd", c_farad, name="C")
    circuit.set_initial_conditions({"out": 0.0, "vdd": vdd})
    return circuit


class TestOptions:
    def test_rejects_nonpositive_timestep(self):
        with pytest.raises(SimulationError):
            TransientOptions(timestep=0.0)

    def test_rejects_bad_store_every(self):
        with pytest.raises(SimulationError):
            TransientOptions(store_every=0)

    def test_rejects_nonpositive_duration(self):
        circuit = build_rc()
        with pytest.raises(SimulationError):
            simulate_transient(circuit, duration=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_timestep(self, value):
        with pytest.raises(SimulationError, match="timestep must be finite"):
            TransientOptions(timestep=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_duration(self, value):
        with pytest.raises(SimulationError, match="duration must be finite"):
            simulate_transient(build_rc(), duration=value)


    def test_step_count_does_not_overshoot_duration(self):
        # 0.14 / 0.02 is 7.000000000000001 in floats: 7 steps, not 8.
        circuit = build_rc()
        options = TransientOptions(timestep=0.02e-9, use_dc_start=False)
        result = simulate_transient(circuit, duration=0.14e-9, options=options)
        times = result.waveform("out").times
        assert times.size == 8
        assert times[-1] == pytest.approx(0.14e-9, rel=1e-12)


class TestRCCharging:
    def test_exponential_charging_curve(self):
        tau = 1e-9  # 1 kohm * 1 pF
        circuit = build_rc()
        options = TransientOptions(timestep=tau / 200.0, use_dc_start=False)
        result = simulate_transient(circuit, duration=3.0 * tau, options=options)
        wave = result.waveform("out")
        # After one time constant the capacitor voltage is ~63 % of VDD.
        assert wave.value_at(tau) == pytest.approx(1.0 - np.exp(-1.0), abs=0.02)
        # After three it is ~95 %.
        assert wave.value_at(3.0 * tau) == pytest.approx(1.0 - np.exp(-3.0), abs=0.02)

    def test_final_value_approaches_supply(self):
        circuit = build_rc()
        options = TransientOptions(timestep=5e-12, use_dc_start=False)
        result = simulate_transient(circuit, duration=10e-9, options=options)
        assert result.waveform("out").values[-1] == pytest.approx(1.0, abs=0.01)

    def test_store_every_decimates(self):
        circuit = build_rc()
        dense = simulate_transient(
            circuit, 1e-9, TransientOptions(timestep=1e-12, use_dc_start=False)
        )
        sparse = simulate_transient(
            circuit, 1e-9, TransientOptions(timestep=1e-12, use_dc_start=False, store_every=10)
        )
        assert sparse.times.size < dense.times.size

    def test_record_nodes_filter(self):
        circuit = build_rc()
        result = simulate_transient(
            circuit,
            1e-9,
            TransientOptions(timestep=1e-12, use_dc_start=False),
            record_nodes=["out"],
        )
        assert result.node_names() == ["out"]
        with pytest.raises(SimulationError):
            result.waveform("vdd")

    def test_unknown_record_node_rejected(self):
        circuit = build_rc()
        with pytest.raises(SimulationError):
            simulate_transient(
                circuit,
                1e-9,
                TransientOptions(timestep=1e-12, use_dc_start=False),
                record_nodes=["bogus"],
            )


class TestPulseDrivenInverter:
    def test_inverter_responds_to_pulse(self):
        temp_k = 300.15
        vdd = CMOS035.vdd
        circuit = Circuit("pulse_inverter")
        circuit.add_voltage_source("vdd", "gnd", vdd, name="VDD")
        circuit.add_pulse_source(
            "in", "gnd", 0.0, vdd, delay=50e-12, rise=20e-12, fall=20e-12, width=600e-12,
            name="VIN",
        )
        nmos = MosfetModel(CMOS035.nmos, DeviceSizing(1.05), temp_k)
        pmos = MosfetModel(CMOS035.pmos, DeviceSizing(2.1), temp_k)
        circuit.add_mosfet("out", "in", "gnd", nmos, name="MN")
        circuit.add_mosfet("out", "in", "vdd", pmos, name="MP")
        circuit.add_capacitor("out", "gnd", 20e-15, name="CL")
        circuit.set_initial_conditions({"in": 0.0, "out": vdd, "vdd": vdd})

        result = simulate_transient(
            circuit, 1.0e-9, TransientOptions(timestep=1e-12, use_dc_start=False)
        )
        out = result.waveform("out")
        # Output starts high, falls after the input rises, rises again
        # after the input falls back.
        assert out.values[0] == pytest.approx(vdd, abs=0.05)
        assert out.minimum() < 0.2
        assert out.values[-1] > 0.8 * vdd

    def test_dc_start_used_when_no_initial_conditions(self):
        circuit = Circuit("dc_start")
        circuit.add_voltage_source("vdd", "gnd", 1.0, name="VDD")
        add_resistor(circuit, "vdd", "out", 1e3, name="R")
        circuit.add_capacitor("out", "gnd", 1e-12, name="C")
        result = simulate_transient(
            circuit, 1e-9, TransientOptions(timestep=1e-11, use_dc_start=True)
        )
        # DC start means the capacitor is already charged; nothing moves.
        wave = result.waveform("out")
        assert wave.values[0] == pytest.approx(1.0, abs=1e-3)
        assert wave.values[-1] == pytest.approx(1.0, abs=1e-3)
