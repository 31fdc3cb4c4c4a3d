"""Tests for the sensor-placement search and the EXT-PLACEMENT study.

The search layer (:mod:`repro.optimize.placement`) is covered for
determinism, argument validation and the invariants the algorithms
promise (greedy reproducibility, annealing never returning something
worse than its starting point); the experiment layer is pinned with a
golden greedy placement/objective on a fixed small corpus, and the
study's sweep-engine scan path is round-tripped against the
per-map bank scans of ``oracles.placement_objective_from_bank``.
"""

import numpy as np
import pytest

from oracles import placement_objective_from_bank
from repro.cells import default_library
from repro.core import SensorBank
from repro.experiments import run_placement_study
from repro.experiments.placement_study import example_workloads
from repro.optimize import (
    PlacementObjective,
    anneal_placement,
    greedy_placement,
)
from repro.oscillator import RingConfiguration
from repro.tech import CMOS035, TechnologyError
from repro.thermal import Floorplan, PowerMap, ThermalGrid, ThermalOperator


@pytest.fixture(scope="module")
def small_objective():
    """A 3x3-candidate objective on the example workload corpus."""
    powers = [
        PowerMap.from_floorplan(plan, nx=12, ny=12) for _, plan in example_workloads()
    ]
    grid = ThermalGrid.for_power_map(powers[0])
    true_maps = ThermalOperator.for_grid(grid).solve_steady_state_multi(powers, 45.0)
    plan = Floorplan.example_processor()
    plan.add_sensor_grid(3, 3, prefix="c")
    bank = SensorBank.from_floorplan(
        CMOS035, plan, RingConfiguration.parse("2INV+3NAND2"),
        library=default_library(CMOS035),
    )
    return placement_objective_from_bank(bank, true_maps)


class TestPlacementObjective:
    def test_structure(self, small_objective):
        assert small_objective.site_count == 9
        assert small_objective.workload_count == 3
        assert small_objective.estimates_c.shape == (9, 3)

    def test_evaluate_is_order_and_duplicate_insensitive(self, small_objective):
        a = small_objective.evaluate([0, 4, 8])
        b = small_objective.evaluate([8, 0, 4, 4])
        assert a == b

    def test_more_workloads_mean_worst_at_least_mean(self, small_objective):
        score = small_objective.evaluate([1, 3, 5])
        assert score.worst_rms_error_c >= score.mean_rms_error_c
        assert score.worst_abs_hotspot_error_c >= score.mean_abs_hotspot_error_c
        assert score.combined_c == pytest.approx(
            score.mean_rms_error_c + score.hotspot_weight * score.mean_abs_hotspot_error_c
        )

    def test_full_candidate_set_beats_single_site(self, small_objective):
        everything = small_objective.evaluate(range(9))
        single = small_objective.evaluate([0])
        assert everything.combined_c < single.combined_c

    def test_invalid_subsets_rejected(self, small_objective):
        with pytest.raises(TechnologyError):
            small_objective.evaluate([])
        with pytest.raises(TechnologyError):
            small_objective.evaluate([9])
        with pytest.raises(TechnologyError):
            small_objective.evaluate([-1])

    def test_misaligned_inputs_rejected(self, small_objective):
        with pytest.raises(TechnologyError):
            PlacementObjective(
                reference=small_objective.reference,
                site_names=small_objective.site_names[:-1],
                site_x_mm=small_objective.site_x_mm,
                site_y_mm=small_objective.site_y_mm,
                estimates_c=small_objective.estimates_c,
                true_values_c=small_objective.true_values_c,
            )
        with pytest.raises(TechnologyError):
            PlacementObjective(
                reference=small_objective.reference,
                site_names=small_objective.site_names,
                site_x_mm=small_objective.site_x_mm,
                site_y_mm=small_objective.site_y_mm,
                estimates_c=small_objective.estimates_c,
                true_values_c=small_objective.true_values_c[:2],
            )
        with pytest.raises(TechnologyError):
            PlacementObjective(
                reference=small_objective.reference,
                site_names=small_objective.site_names,
                site_x_mm=small_objective.site_x_mm,
                site_y_mm=small_objective.site_y_mm,
                estimates_c=small_objective.estimates_c,
                true_values_c=small_objective.true_values_c,
                hotspot_weight=-1.0,
            )


class TestGreedyPlacement:
    def test_deterministic_and_sized(self, small_objective):
        first = greedy_placement(small_objective, 3)
        second = greedy_placement(small_objective, 3)
        assert first.selected_indices == second.selected_indices
        assert len(first.selected_indices) == 3
        assert first.method == "greedy"
        assert len(first.history_c) == 3
        assert first.evaluations > 0

    def test_must_include_respected(self, small_objective):
        result = greedy_placement(small_objective, 3, must_include=[7])
        assert 7 in result.selected_indices

    def test_invalid_arguments_rejected(self, small_objective):
        with pytest.raises(TechnologyError):
            greedy_placement(small_objective, 0)
        with pytest.raises(TechnologyError):
            greedy_placement(small_objective, 10)
        with pytest.raises(TechnologyError):
            greedy_placement(small_objective, 1, must_include=[0, 1])

    def test_selecting_everything_is_exact(self, small_objective):
        result = greedy_placement(small_objective, small_objective.site_count)
        assert result.selected_indices == tuple(range(small_objective.site_count))
        assert result.score == small_objective.evaluate(result.selected_indices)


class TestAnnealPlacement:
    def test_seeded_walk_is_reproducible(self, small_objective):
        first = anneal_placement(small_objective, 3, seed=7, steps=60)
        second = anneal_placement(small_objective, 3, seed=7, steps=60)
        assert first.selected_indices == second.selected_indices
        assert first.score == second.score
        assert first.method == "anneal"

    def test_never_worse_than_its_initial_placement(self, small_objective):
        greedy = greedy_placement(small_objective, 3)
        annealed = anneal_placement(
            small_objective, 3, seed=11, steps=80, initial=greedy.selected_indices
        )
        assert annealed.score.combined_c <= greedy.score.combined_c + 1e-12

    def test_full_subset_has_nothing_to_swap(self, small_objective):
        result = anneal_placement(small_objective, small_objective.site_count, steps=10)
        assert result.selected_indices == tuple(range(small_objective.site_count))

    def test_invalid_arguments_rejected(self, small_objective):
        with pytest.raises(TechnologyError):
            anneal_placement(small_objective, 3, steps=-1)
        with pytest.raises(TechnologyError):
            anneal_placement(small_objective, 3, cooling=0.0)
        with pytest.raises(TechnologyError):
            anneal_placement(small_objective, 3, initial_temperature_c=0.0)
        with pytest.raises(TechnologyError):
            anneal_placement(small_objective, 3, initial=[0, 1])


class TestPlacementStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_placement_study(
            grid_resolution=16,
            candidate_grid=4,
            sensor_count=4,
            anneal_steps=80,
            seed=2005,
        )

    def test_golden_greedy_placement(self, study):
        # Golden pin of the deterministic greedy search on the fixed
        # 16^2-grid / 4x4-candidate corpus.
        assert study.greedy.selected_names == ("c0_1", "c0_3", "c3_0", "c3_1")
        assert study.greedy.score.combined_c == pytest.approx(
            5.455735527836822, rel=1e-9
        )
        assert study.greedy.score.mean_rms_error_c == pytest.approx(
            2.8846397341083523, rel=1e-9
        )

    def test_annealing_refines_or_confirms(self, study):
        assert study.annealed.score.combined_c <= study.greedy.score.combined_c + 1e-12
        assert study.best.score.combined_c == min(
            study.greedy.score.combined_c, study.annealed.score.combined_c
        )

    def test_structure_and_table(self, study):
        assert study.candidate_count == 16
        assert study.sensor_count == 4
        assert study.workload_labels == ("balanced", "compute", "memory")
        text = study.format_table()
        assert "EXT-PLACEMENT" in text
        assert "greedy" in text and "anneal" in text

    def test_oversized_sensor_count_rejected(self):
        with pytest.raises(TechnologyError):
            run_placement_study(candidate_grid=2, sensor_count=5)

    def test_sweep_scan_matches_bank_scan(self, study):
        # The study's per-workload Sweep-engine site scans must produce
        # exactly the estimates the self-contained banked-scan
        # constructor computes.
        powers = [
            PowerMap.from_floorplan(plan, nx=16, ny=16)
            for _, plan in example_workloads()
        ]
        grid = ThermalGrid.for_power_map(powers[0])
        true_maps = ThermalOperator.for_grid(grid).solve_steady_state_multi(powers, 45.0)
        plan = Floorplan.example_processor()
        plan.add_sensor_grid(4, 4, prefix="c")
        bank = SensorBank.from_floorplan(
            CMOS035, plan, RingConfiguration.parse("2INV+3NAND2"),
            library=default_library(CMOS035),
        )
        calibration = bank.two_point_calibration(-50.0, 150.0)
        oracle = placement_objective_from_bank(bank, true_maps, calibration=calibration)
        via_study = run_placement_study(
            grid_resolution=16, candidate_grid=4, sensor_count=4, anneal_steps=0
        )
        assert via_study.greedy.selected_names == greedy_placement(oracle, 4).selected_names
        assert via_study.greedy.score.combined_c == pytest.approx(
            greedy_placement(oracle, 4).score.combined_c, rel=1e-12
        )

    def test_registry_includes_placement(self):
        from repro.experiments import default_registry

        assert "EXT-PLACEMENT" in default_registry().names()
