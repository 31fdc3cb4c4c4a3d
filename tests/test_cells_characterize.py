"""Simulation-based cell characterisation: validates the analytical model.

These tests run the transistor-level MNA simulator, so they are the
slowest unit tests in the suite; they are kept to a handful of spot
checks.
"""

import pytest

from repro.cells import CellError, buffer_cell, inverter, measure_cell_delays, nand_gate
from repro.tech import CMOS035

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def inverter_measurement():
    return measure_cell_delays(inverter(CMOS035), temperature_c=27.0, timestep_s=2e-12)


class TestSimulatedDelays:
    def test_simulated_delays_positive_and_picoseconds(self, inverter_measurement):
        sim = inverter_measurement.simulated
        assert 1e-12 < sim.tphl < 1e-9
        assert 1e-12 < sim.tplh < 1e-9

    def test_analytical_model_within_forty_percent(self, inverter_measurement):
        # The analytical alpha-power model is a first-order model; it must
        # track the transistor-level simulation to within tens of percent
        # for the default inverter at a fan-out-of-4-like load.
        worst = max(inverter_measurement.tphl_error_rel, inverter_measurement.tplh_error_rel)
        assert worst < 0.4

    def test_delay_grows_with_temperature_in_simulation(self):
        cold = measure_cell_delays(inverter(CMOS035), temperature_c=-40.0, timestep_s=2e-12)
        hot = measure_cell_delays(inverter(CMOS035), temperature_c=125.0, timestep_s=2e-12)
        assert hot.simulated.tphl > cold.simulated.tphl
        assert hot.simulated.tplh > cold.simulated.tplh

    def test_nand_simulation_slower_pulldown_than_inverter(self):
        load = 4.0 * inverter(CMOS035).input_capacitance()
        inv = measure_cell_delays(inverter(CMOS035), 27.0, load_f=load, timestep_s=2e-12)
        nand = measure_cell_delays(nand_gate(CMOS035, 2), 27.0, load_f=load, timestep_s=2e-12)
        assert nand.simulated.tphl > inv.simulated.tphl

    def test_buffer_rejected(self):
        with pytest.raises(CellError):
            measure_cell_delays(buffer_cell(CMOS035), 27.0)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(CellError):
            measure_cell_delays(inverter(CMOS035), 27.0, load_f=0.0)
