"""Golden-value regression tests for the paper-facing numbers.

The equivalence harness proves the vectorized engine matches the scalar
oracle *today*; these tests pin the absolute numbers the reproduction
reports — the Fig. 2 / Fig. 3 sweep outputs and the Monte-Carlo
spread/linearity summaries at a fixed seed — so a future refactor of
either path cannot silently drift the reproduction.  Tolerances are
loose enough to absorb last-ULP libm differences between platforms but
far tighter than any modelling change could hide under.
"""

import numpy as np
import pytest

from repro.analysis.montecarlo import run_monte_carlo
from repro.experiments import run_fig2, run_fig3
from repro.oscillator import RingConfiguration, RingOscillator
from repro.cells import default_library
from repro.tech import CMOS035

#: Deterministic closed-form outputs: pinned to 1e-9 relative.
RTOL = 1e-9
#: Outputs of iterative optimisation / percent-of-span normalisation.
RTOL_LOOSE = 1e-6


class TestRingGolden:
    def test_inverter_ring_periods(self, inverter_ring):
        assert inverter_ring.period(25.0) == pytest.approx(2.0736549571147523e-10, rel=RTOL)
        series = inverter_ring.period_series(
            np.asarray([-50.0, -25.0, 0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0])
        )
        assert series[0] == pytest.approx(1.4898449906930195e-10, rel=RTOL)
        assert series[-1] == pytest.approx(3.0250198858616756e-10, rel=RTOL)


class TestFig2Golden:
    @pytest.fixture(scope="class")
    def fig2(self):
        return run_fig2()

    def test_per_ratio_worst_case_errors(self, fig2):
        expected = {
            1.75: 0.8190453095308959,
            2.25: 0.4932272414173055,
            3.0: 0.17044689534840643,
            4.0: 0.3034905966026263,
        }
        observed = {
            point.width_ratio: point.max_abs_error_percent
            for point in fig2.sweep.points
        }
        assert observed.keys() == expected.keys()
        for ratio, value in expected.items():
            assert observed[ratio] == pytest.approx(value, rel=RTOL_LOOSE)

    def test_best_ratio_and_continuous_optimum(self, fig2):
        assert fig2.best_ratio() == 3.0
        assert fig2.sweep.best().max_abs_error_percent == pytest.approx(
            0.17044689534840643, rel=RTOL_LOOSE
        )
        # The continuous optimum comes out of a bounded scalar minimiser
        # (xatol 1e-3), so pin its location more loosely than its value.
        assert fig2.optimum.width_ratio == pytest.approx(3.2120133500041512, abs=5e-3)
        assert fig2.optimum.max_abs_error_percent == pytest.approx(
            0.1117688322501181, rel=1e-4
        )


class TestFig3Golden:
    @pytest.fixture(scope="class")
    def fig3(self):
        return run_fig3()

    def test_inverter_reference_error(self, fig3):
        assert fig3.inverter_reference().max_abs_error_percent == pytest.approx(
            0.6428809013370539, rel=RTOL_LOOSE
        )

    def test_exhaustive_search_optimum(self, fig3):
        best = fig3.best_searched_configuration()
        assert best.label == "2INV+1NAND2+2NAND3"
        assert best.max_abs_error_percent == pytest.approx(
            0.12601043557210082, rel=RTOL_LOOSE
        )
        assert fig3.search.evaluated_count == 126


class TestMonteCarloGolden:
    @pytest.fixture(scope="class")
    def study(self):
        return run_monte_carlo(
            CMOS035,
            RingConfiguration.parse("2INV+3NAND2"),
            sample_count=25,
            seed=1234,
        )

    def test_period_spread_percent(self, study):
        assert study.period_spread_percent == pytest.approx(
            12.97044598430506, rel=RTOL_LOOSE
        )

    def test_nonlinearity_summary(self, study):
        assert study.nonlinearity_percent.mean == pytest.approx(
            0.21590981158531222, rel=RTOL_LOOSE
        )
        assert study.nonlinearity_percent.maximum == pytest.approx(
            0.2766829323505351, rel=RTOL_LOOSE
        )

    def test_reference_period_and_sensitivity(self, study):
        assert study.period_at_reference.mean == pytest.approx(
            3.200734678447283e-10, rel=RTOL
        )
        assert study.sensitivity_s_per_k.mean == pytest.approx(
            1.2446745834258144e-12, rel=RTOL
        )


class TestCalibrationStudyGolden:
    """Pins the batched (stacked sample axis) calibration-ablation numbers.

    Default study parameters: 5 corners + 12 Monte-Carlo samples at
    seed 20250617, the 17-point default sweep, one-point insertion at
    25 C.  The batched path is pinned both against these absolute
    values and (in test_stacked_equivalence.py) against the per-sample
    scalar loop.
    """

    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments.calibration_study import run_calibration_study

        return run_calibration_study()

    def test_population_size(self, study):
        assert study.sample_count == 17

    def test_design_scheme_errors(self, study):
        assert study.errors_by_scheme["design"].mean == pytest.approx(
            12.201502644026158, rel=RTOL_LOOSE
        )
        assert study.worst_by_scheme["design"] == pytest.approx(
            44.09911357949986, rel=RTOL_LOOSE
        )

    def test_one_point_scheme_errors(self, study):
        assert study.errors_by_scheme["one-point"].mean == pytest.approx(
            4.305839797123523, rel=RTOL_LOOSE
        )
        assert study.worst_by_scheme["one-point"] == pytest.approx(
            13.715326729787478, rel=RTOL_LOOSE
        )

    def test_two_point_scheme_errors(self, study):
        assert study.errors_by_scheme["two-point"].mean == pytest.approx(
            0.4568303249181072, rel=RTOL_LOOSE
        )
        assert study.worst_by_scheme["two-point"] == pytest.approx(
            0.8932205266853543, rel=RTOL_LOOSE
        )

    def test_calibration_effort_ordering(self, study):
        # The paper's argument: every added calibration point buys a
        # large error reduction, and two points leave only the intrinsic
        # non-linearity plus quantisation.
        assert (
            study.worst_by_scheme["two-point"]
            < study.worst_by_scheme["one-point"]
            < study.worst_by_scheme["design"]
        )
