"""Simulation-based cell characterisation.

The analytical delay model (used for the large sweeps) is validated by
measuring the same propagation delays with the transistor-level MNA
simulator: the cell is placed in a small test bench — an ideal pulse
source with a finite slew driving the cell input, a capacitive load on
the output — and the 50 % crossing times are extracted from the
waveforms.  This is exactly the methodology a standard-cell
characterisation tool applies, scaled down to what the reproduction
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..circuit.netlist import Circuit
from ..circuit.transient import TransientOptions, simulate_transient
from ..circuit.waveform import propagation_delay
from ..fields import real
from ..tech.parameters import celsius_to_kelvin
from .cell import CellError, GateDelays, StandardCell

__all__ = ["SimulatedDelays", "measure_cell_delays"]


@dataclass(frozen=True)
class SimulatedDelays:
    """Result of one simulation-based delay measurement."""

    cell_name: str
    temperature_c: float
    load_f: float
    simulated: GateDelays
    analytical: GateDelays

    @property
    def tphl_error_rel(self) -> float:
        """Relative error of the analytical tpHL versus simulation."""
        return abs(self.analytical.tphl - self.simulated.tphl) / self.simulated.tphl

    @property
    def tplh_error_rel(self) -> float:
        """Relative error of the analytical tpLH versus simulation."""
        return abs(self.analytical.tplh - self.simulated.tplh) / self.simulated.tplh


def measure_cell_delays(
    cell: StandardCell,
    temperature_c: float,
    load_f: Optional[float] = None,
    input_slew_s: float = 5.0e-11,
    timestep_s: float = 1.0e-12,
) -> SimulatedDelays:
    """Measure tpHL / tpLH of a cell with the transient simulator.

    Parameters
    ----------
    cell:
        Cell under test (single-stage inverting cells only).
    temperature_c:
        Junction temperature of the measurement.
    load_f:
        External load; defaults to 4x the cell input capacitance (a
        fan-out-of-4-like condition).
    input_slew_s:
        0-to-100 % transition time of the stimulus edges.
    timestep_s:
        Transient integration step.
    """
    if not cell.topology.inverting or cell.topology.stages != 1:
        raise CellError("simulation-based characterisation needs a single-stage inverting cell")
    if load_f is None:
        load_f = 4.0 * cell.input_capacitance()
    load_f = real(load_f, "load_f", CellError, above=0.0)

    tech = cell.technology
    temp_k = celsius_to_kelvin(temperature_c)
    vdd = tech.vdd

    # Window long enough for both edges: the pulse rises at pulse_delay and
    # falls after pulse_width; allow several analytical delays of margin.
    analytical = cell.delays(temperature_c, load_f)
    margin = 30.0 * max(analytical.tphl, analytical.tplh)
    pulse_delay = 5.0 * input_slew_s
    pulse_width = margin
    duration = pulse_delay + 2.0 * margin + 4.0 * input_slew_s

    circuit = Circuit(name=f"char_{cell.name}")
    circuit.add_voltage_source("vdd", "gnd", vdd, name="VDD")
    circuit.add_pulse_source(
        "in",
        "gnd",
        initial_v=0.0,
        pulsed_v=vdd,
        delay=pulse_delay,
        rise=input_slew_s,
        fall=input_slew_s,
        width=pulse_width,
        name="VIN",
    )
    cell.build_into(circuit, "in", "out", "vdd", temp_k, instance="dut")
    # External load plus the cell's own drain parasitics (the MOSFET
    # elements model only the channel current), matching what the
    # analytical model includes.
    circuit.add_capacitor("out", "gnd", load_f, name="CLOAD")
    circuit.add_capacitor(
        "out", "gnd", cell.output_parasitic_capacitance(), name="CPAR"
    )
    circuit.set_initial_conditions({"in": 0.0, "out": vdd, "vdd": vdd})

    options = TransientOptions(timestep=timestep_s, use_dc_start=False)
    result = simulate_transient(circuit, duration, options, record_nodes=["in", "out"])
    wave_in = result.waveform("in")
    wave_out = result.waveform("out")

    tphl = propagation_delay(wave_in, wave_out, vdd, edge="falling_output")
    tplh = propagation_delay(wave_in, wave_out, vdd, edge="rising_output")
    simulated = GateDelays(tphl=tphl, tplh=tplh)
    return SimulatedDelays(
        cell_name=cell.name,
        temperature_c=temperature_c,
        load_f=load_f,
        simulated=simulated,
        analytical=analytical,
    )
