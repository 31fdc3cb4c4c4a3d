"""Transistor-level validation of the ring oscillator (slow tests).

These exercise the full MNA transient path on real ring netlists, so the
count is kept small; they pin down the facts the paper's Fig. 1 shows
and the consistency between the simulated and analytical period models.
"""

import pytest

from oracles import simulated_response
from repro.oscillator import RingConfiguration, RingOscillator
from repro.tech import CMOS035

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def simulated_waveform(inverter_ring_module):
    return inverter_ring_module.simulate(27.0, cycles=5.0, points_per_period=150)


@pytest.fixture(scope="module")
def inverter_ring_module(request):
    from repro.cells import default_library

    library = default_library(CMOS035)
    return RingOscillator(library, RingConfiguration.uniform("INV", 5))


class TestRingSimulation:
    def test_oscillation_is_rail_to_rail(self, simulated_waveform):
        assert simulated_waveform.is_oscillating(supply=CMOS035.vdd)
        assert simulated_waveform.amplitude() > 0.9 * CMOS035.vdd

    def test_simulated_period_within_factor_of_analytical(
        self, simulated_waveform, inverter_ring_module
    ):
        simulated = simulated_waveform.period(threshold=0.5 * CMOS035.vdd, skip_cycles=2)
        analytical = inverter_ring_module.period(27.0)
        assert simulated == pytest.approx(analytical, rel=0.6)

    @pytest.fixture(scope="class")
    def simulated_sweep(self, inverter_ring_module):
        return simulated_response(
            inverter_ring_module, [-25.0, 50.0, 125.0], cycles=6.0, points_per_period=150
        )

    def test_simulated_period_increases_with_temperature(self, simulated_sweep):
        assert simulated_sweep.is_monotonic()

    def test_simulated_and_analytical_sensitivity_agree_in_sign_and_scale(
        self, simulated_sweep, inverter_ring_module
    ):
        sim_sens = (simulated_sweep.periods_s[-1] - simulated_sweep.periods_s[0]) / 150.0
        ana_sens = (
            inverter_ring_module.period(125.0) - inverter_ring_module.period(-25.0)
        ) / 150.0
        assert sim_sens > 0.0
        # Relative (percent-per-kelvin) sensitivities must agree within 2x.
        sim_rel = sim_sens / simulated_sweep.periods_s.mean()
        ana_rel = ana_sens / (
            (inverter_ring_module.period(125.0) + inverter_ring_module.period(-25.0)) / 2.0
        )
        assert sim_rel == pytest.approx(ana_rel, rel=1.0)
