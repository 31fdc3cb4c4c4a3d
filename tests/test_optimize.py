"""Unit tests for the transistor-sizing and cell-mix optimisers."""

import numpy as np
import pytest

from repro.optimize import (
    PAPER_FIG2_RATIOS,
    build_sized_ring,
    enumerate_configurations,
    evaluate_configuration,
    greedy_cell_mix,
    optimize_width_ratio,
    search_cell_mix,
    sweep_width_ratio,
)
from repro.oscillator import ConfigurationError, RingConfiguration
from repro.tech import CMOS035, TechnologyError


TEMPS = np.linspace(-50.0, 150.0, 9)


class TestSizedRing:
    def test_ratio_applied_to_widths(self):
        ring = build_sized_ring(CMOS035, width_ratio=3.0, nmos_width_um=1.0)
        cell = ring.cells()[0]
        assert cell.width_ratio == pytest.approx(3.0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(TechnologyError):
            build_sized_ring(CMOS035, width_ratio=0.0)
        with pytest.raises(TechnologyError):
            build_sized_ring(CMOS035, width_ratio=2.0, nmos_width_um=0.0)


class TestSizingSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_width_ratio(CMOS035, temperatures_c=TEMPS)

    def test_all_paper_ratios_evaluated(self, sweep):
        assert sweep.ratios().tolist() == list(PAPER_FIG2_RATIOS)

    def test_best_ratio_is_interior(self, sweep):
        # The paper's Fig. 2: the optimum lies inside the swept range,
        # not at its edges.
        best = sweep.best().width_ratio
        assert PAPER_FIG2_RATIOS[0] < best < PAPER_FIG2_RATIOS[-1]

    def test_improvement_factor_significant(self, sweep):
        assert sweep.improvement_factor() > 2.0

    def test_empty_ratios_rejected(self):
        with pytest.raises(TechnologyError):
            sweep_width_ratio(CMOS035, ratios=())

    def test_continuous_optimum_beats_grid(self, sweep):
        optimum = optimize_width_ratio(CMOS035, temperatures_c=TEMPS)
        assert optimum.max_abs_error_percent <= sweep.best().max_abs_error_percent + 1e-9
        assert 2.0 < optimum.width_ratio < 4.5

    def test_invalid_bounds_rejected(self):
        with pytest.raises(TechnologyError):
            optimize_width_ratio(CMOS035, ratio_bounds=(3.0, 2.0))


class TestCellMixEnumeration:
    def test_counts_for_five_stages(self):
        configs = enumerate_configurations(("INV", "NAND2", "NOR2"), 5)
        # combinations with replacement: C(3+5-1, 5) = 21
        assert len(configs) == 21

    def test_even_stage_count_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_configurations(("INV",), 4)

    def test_empty_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_configurations((), 5)


class TestCellMixSearch:
    @pytest.fixture(scope="class")
    def search(self, library_class_scope):
        return search_cell_mix(
            library_class_scope,
            cell_names=("INV", "NAND2", "NAND3", "NOR2"),
            temperatures_c=TEMPS,
            top_k=5,
        )

    @pytest.fixture(scope="class")
    def library_class_scope(self):
        from repro.cells import default_library

        return default_library(CMOS035)

    def test_candidates_ranked(self, search):
        errors = [c.max_abs_error_percent for c in search.candidates]
        assert errors == sorted(errors)
        assert len(search.candidates) == 5

    def test_best_mix_beats_inverter_only(self, search, library_class_scope):
        inverter_only = evaluate_configuration(
            library_class_scope, RingConfiguration.uniform("INV", 5), TEMPS
        )
        assert search.best().max_abs_error_percent < inverter_only.max_abs_error_percent

    def test_evaluated_count_covers_full_space(self, search):
        # C(4+5-1, 5) = 56 candidate mixes.
        assert search.evaluated_count == 56

    def test_greedy_matches_or_approaches_exhaustive(self, search, library_class_scope):
        greedy = greedy_cell_mix(
            library_class_scope,
            cell_names=("INV", "NAND2", "NAND3", "NOR2"),
            temperatures_c=TEMPS,
        )
        assert greedy.max_abs_error_percent <= 2.0 * search.best().max_abs_error_percent
