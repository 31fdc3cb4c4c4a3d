"""Unit tests for the ring-oscillator model (analytical path)."""

import numpy as np
import pytest

from oracles import switched_capacitance_per_stage
from repro.cells import CellLibrary, buffer_cell, default_library, inverter
from repro.oscillator import ConfigurationError, RingConfiguration, RingOscillator
from repro.tech import CMOS035, sample_technology_array


class TestConstruction:
    def test_resolves_cells_from_library(self, library):
        ring = RingOscillator(library, RingConfiguration.parse("2INV+3NAND2"))
        kinds = [cell.topology.kind for cell in ring.cells()]
        assert kinds == ["INV", "INV", "NAND", "NAND", "NAND"]

    def test_rejects_noninverting_stage(self, library):
        with pytest.raises(ConfigurationError):
            RingOscillator(library, RingConfiguration(("INV", "BUF", "INV")))

    def test_rejects_unknown_cell(self, library):
        from repro.cells import CellError

        with pytest.raises(CellError):
            RingOscillator(library, RingConfiguration(("INV", "XOR2", "INV")))

    def test_tap_stage_bounds_checked(self, library):
        with pytest.raises(ConfigurationError):
            RingOscillator(
                library, RingConfiguration.uniform("INV", 5), tap_stage=7
            )

    def test_transistor_count_and_area(self, inverter_ring, mixed_ring):
        for ring, expected in ((inverter_ring, 10), (mixed_ring, 2 * 2 + 3 * 4)):
            elements = ring.build_circuit(25.0).elements
            assert sum(e.__class__.__name__ == "Mosfet" for e in elements) == expected
        assert mixed_ring.area_um2() > inverter_ring.area_um2()

    def test_label_matches_configuration(self, mixed_ring):
        assert mixed_ring.label() == "2INV+3NAND2"


class TestStageLoads:
    def test_each_stage_loaded_by_next_input(self, inverter_ring):
        stages = inverter_ring.stages()
        cin = inverter_ring.cells()[0].input_capacitance()
        for stage in stages:
            assert stage.load_f > cin  # input cap plus wire

    def test_tap_stage_sees_extra_load(self, library):
        plain = RingOscillator(library, RingConfiguration.uniform("INV", 5))
        tapped = RingOscillator(
            library,
            RingConfiguration.uniform("INV", 5),
            external_load_f=10e-15,
            tap_stage=2,
        )
        assert tapped.stages()[2].load_f == pytest.approx(
            plain.stages()[2].load_f + 10e-15
        )
        assert tapped.period(25.0) > plain.period(25.0)

    def test_external_load_without_tap_stage_is_not_dropped(self, library):
        """A non-zero external load must slow the ring even when no
        explicit tap stage is given (it defaults to the last stage)."""
        plain = RingOscillator(library, RingConfiguration.uniform("INV", 5))
        tapped = RingOscillator(
            library, RingConfiguration.uniform("INV", 5), external_load_f=10e-15
        )
        assert tapped.effective_tap_stage() == 4
        assert tapped.stages()[4].load_f == pytest.approx(
            plain.stages()[4].load_f + 10e-15
        )
        assert tapped.period(25.0) > plain.period(25.0)
        # The default is only engaged when there is a load to carry.
        assert plain.effective_tap_stage() is None

    def test_explicit_tap_stage_wins_over_default(self, library):
        tapped = RingOscillator(
            library,
            RingConfiguration.uniform("INV", 5),
            external_load_f=10e-15,
            tap_stage=1,
        )
        assert tapped.effective_tap_stage() == 1
        loads = [stage.load_f for stage in tapped.stages()]
        assert loads[1] == pytest.approx(max(loads))


class TestPeriod:
    def test_period_positive_and_subnanosecond(self, inverter_ring):
        period = inverter_ring.period(25.0)
        assert 50e-12 < period < 1e-9

    def test_period_increases_with_temperature(self, inverter_ring):
        assert inverter_ring.period(150.0) > inverter_ring.period(25.0) > inverter_ring.period(-50.0)

    def test_frequency_is_reciprocal(self, inverter_ring):
        assert inverter_ring.frequency(25.0) == pytest.approx(1.0 / inverter_ring.period(25.0))

    def test_period_series_matches_scalar(self, inverter_ring):
        series = inverter_ring.period_series([0.0, 50.0])
        assert series[0] == pytest.approx(inverter_ring.period(0.0))
        assert series[1] == pytest.approx(inverter_ring.period(50.0))

    def test_sensitivity_positive(self, inverter_ring):
        assert inverter_ring.period(26.0) > inverter_ring.period(24.0)

    def test_more_stages_longer_period(self, library):
        five = RingOscillator(library, RingConfiguration.uniform("INV", 5)).period(25.0)
        nine = RingOscillator(library, RingConfiguration.uniform("INV", 9)).period(25.0)
        assert nine > five
        # Period should scale close to proportionally with stage count.
        assert nine / five == pytest.approx(9.0 / 5.0, rel=0.05)

    def test_nand_ring_slower_than_inverter_ring(self, library, inverter_ring):
        nand_ring = RingOscillator(library, RingConfiguration.uniform("NAND2", 5))
        assert nand_ring.period(25.0) > inverter_ring.period(25.0)

    def test_dynamic_power_milliwatt_scale(self, inverter_ring):
        power = inverter_ring.dynamic_power(25.0)
        assert 1e-5 < power < 1e-2

    @pytest.mark.parametrize("samples", [None, 4])
    def test_dynamic_power_switches_every_stage_load(self, mixed_ring, samples):
        # C is the sum of the ring's load weights: the per-stage sum, re-associated.
        ring = mixed_ring
        if samples is not None:
            ring = ring.rebind(sample_technology_array(CMOS035, samples, seed=2))
        stage_sum = switched_capacitance_per_stage(ring)
        expected = ring.frequency(25.0) * ring.technology.vdd ** 2 * stage_sum
        np.testing.assert_allclose(ring.dynamic_power(25.0), expected, rtol=1e-12, atol=0.0)

    def test_dynamic_power_decreases_with_temperature(self, inverter_ring):
        # Slower oscillation at high temperature means less switching power.
        assert inverter_ring.dynamic_power(150.0) < inverter_ring.dynamic_power(-50.0)


class TestCircuitGeneration:
    def test_netlist_element_counts(self, inverter_ring):
        circuit = inverter_ring.build_circuit(25.0)
        fets = [e for e in circuit.elements if e.__class__.__name__ == "Mosfet"]
        caps = [e for e in circuit.elements if e.__class__.__name__ == "Capacitor"]
        assert len(fets) == 10
        assert len(caps) == 5

    def test_initial_conditions_installed(self, inverter_ring):
        circuit = inverter_ring.build_circuit(25.0)
        assert len(circuit.initial_conditions) == 6  # 5 stages + vdd

    def test_stage_node_names(self, inverter_ring):
        assert inverter_ring.stage_node(0) == "s0"
        with pytest.raises(ConfigurationError):
            inverter_ring.stage_node(11)

    def test_simulate_requires_more_than_one_cycle(self, inverter_ring):
        with pytest.raises(ConfigurationError):
            inverter_ring.simulate(25.0, cycles=0.5)
