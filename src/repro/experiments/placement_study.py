"""Experiment EXT-PLACEMENT: where should the thermal-map sensors sit?

EXT-THERMALMAP answers how *many* sensors a thermal map needs on a fixed
regular grid; this experiment optimises *where* they go.  A dense grid
of candidate sites is placed on the example processor, every candidate
is scanned through the full smart-sensor chain under a small corpus of
workloads (balanced, core-heavy, cache-heavy), and the
:mod:`repro.optimize.placement` searchers pick the ``k``-site subset
whose inverse-distance reconstruction tracks the true fields best.

The run leans on the batched thermal kernels end to end:

* the true fields of the whole workload corpus come from **one**
  multi-RHS :meth:`~repro.thermal.operator.ThermalOperator.solve_steady_state_multi`
  (one batched pair of DCTs, the exact spectral solve), and
* each workload's candidate scan is declared as a
  :class:`~repro.engine.sweep.Sweep` over the bank's ``site`` axis —
  the same machinery EXT-THERMALMAP uses — so the search loop itself
  touches nothing but precomputed arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..cells.library import default_library
from ..core.sensor_bank import SensorBank
from ..engine.sweep import Axis, Sweep
from ..optimize.placement import (
    PlacementObjective,
    PlacementResult,
    anneal_placement,
    greedy_placement,
)
from ..oscillator.config import RingConfiguration
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology, TechnologyError
from ..thermal.floorplan import Floorplan, FunctionalBlock
from ..thermal.grid import ThermalGrid
from ..thermal.operator import ThermalOperator
from ..thermal.power import PowerMap

__all__ = [
    "PlacementStudyResult",
    "example_workloads",
    "run_placement_study",
]


def example_workloads() -> List[Tuple[str, Floorplan]]:
    """The workload corpus: the example processor under three phases.

    Placement must serve every phase a DTM controller will see, not just
    one snapshot, so the corpus reweights the example processor's blocks
    into a balanced phase, a compute-bound phase (cores and FPU hot,
    cache quiet) and a memory-bound phase (cache hot, cores throttled).
    """
    phases = [
        ("balanced", {}),
        ("compute", {"core0": 1.5, "core1": 1.4, "fpu": 1.8, "l2_cache": 0.4}),
        ("memory", {"core0": 0.5, "core1": 0.4, "l2_cache": 3.0, "io_ring": 1.6}),
    ]
    workloads: List[Tuple[str, Floorplan]] = []
    for label, scales in phases:
        base = Floorplan.example_processor()
        plan = Floorplan(base.width_mm, base.height_mm, name=f"{base.name}:{label}")
        for block in base.blocks():
            plan.add_block(
                FunctionalBlock(
                    block.name,
                    block.x_mm,
                    block.y_mm,
                    block.width_mm,
                    block.height_mm,
                    block.power_w * scales.get(block.name, 1.0),
                )
            )
        workloads.append((label, plan))
    return workloads


@dataclass(frozen=True)
class PlacementStudyResult:
    """Outcome of the sensor-placement search experiment."""

    technology_name: str
    configuration_label: str
    workload_labels: Tuple[str, ...]
    candidate_count: int
    sensor_count: int
    grid_resolution: int
    scan_time_s: float
    greedy: PlacementResult
    annealed: PlacementResult
    evaluations: int

    @property
    def best(self) -> PlacementResult:
        """The better of the two searches (greedy wins ties)."""
        if self.annealed.score.combined_c < self.greedy.score.combined_c:
            return self.annealed
        return self.greedy

    def format_table(self) -> str:
        lines = [
            "EXT-PLACEMENT - sensor-placement search "
            f"({self.sensor_count} of {self.candidate_count} candidate sites, "
            f"workloads: {', '.join(self.workload_labels)})",
            f"ring: {self.configuration_label}, thermal grid "
            f"{self.grid_resolution}^2, "
            f"selected-scan time {self.scan_time_s * 1e6:.1f}us, "
            f"{self.evaluations} objective evaluations",
            f"{'search':>8s} {'sites':<28s} {'rms mean/worst':>15s} "
            f"{'|hotspot| mean/worst':>21s} {'combined':>9s}",
        ]
        for result in (self.greedy, self.annealed):
            score = result.score
            lines.append(
                f"{result.method:>8s} {','.join(result.selected_names):<28s} "
                f"{score.mean_rms_error_c:>7.3f}/{score.worst_rms_error_c:<6.3f} C "
                f"{score.mean_abs_hotspot_error_c:>10.3f}/{score.worst_abs_hotspot_error_c:<6.3f} C "
                f"{score.combined_c:>7.3f} C"
            )
        improvement = self.greedy.score.combined_c - self.annealed.score.combined_c
        if improvement > 1e-12:
            lines.append(f"annealing improved the greedy placement by {improvement:.4f} C")
        else:
            lines.append("annealing confirmed the greedy placement")
        return "\n".join(lines)


def run_placement_study(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    candidate_grid: int = 4,
    sensor_count: int = 4,
    grid_resolution: int = 24,
    ambient_c: float = 45.0,
    seed: int = 2005,
    anneal_steps: int = 150,
    hotspot_weight: float = 1.0,
    calibration_temperatures_c: Tuple[float, float] = (-50.0, 150.0),
) -> PlacementStudyResult:
    """Run the sensor-placement search over the example workload corpus.

    ``candidate_grid`` sets the candidate pool (a ``g x g`` site grid),
    ``sensor_count`` how many of them the multiplexer gets to keep.  The
    corpus' true fields are solved in one multi-RHS pass through the
    cached operator, every candidate is scanned per workload
    through the sweep engine, then greedy selection and a seeded
    annealing refinement search the subsets.  The scans take their
    execution backend from the environment, as in EXT-THERMALMAP.
    """
    if sensor_count > candidate_grid * candidate_grid:
        raise TechnologyError(
            "sensor count cannot exceed the candidate-site count "
            f"({candidate_grid * candidate_grid})"
        )
    tech = technology if technology is not None else CMOS035
    configuration = RingConfiguration.parse(configuration_text)
    library = default_library(tech)

    workloads = example_workloads()
    powers = [
        PowerMap.from_floorplan(plan, nx=grid_resolution, ny=grid_resolution)
        for _, plan in workloads
    ]
    grid = ThermalGrid.for_power_map(powers[0])
    true_maps = ThermalOperator.for_grid(grid).solve_steady_state_multi(
        powers, ambient_c
    )

    candidate_plan = Floorplan.example_processor()
    candidate_plan.add_sensor_grid(int(candidate_grid), int(candidate_grid), prefix="c")
    bank = SensorBank.from_floorplan(tech, candidate_plan, configuration, library=library)
    xs, ys = bank.positions()
    calibration = bank.two_point_calibration(*calibration_temperatures_c)

    # One declarative site scan per workload: every candidate read at
    # its local junction temperature through the measured (quantised)
    # chain, exactly as EXT-THERMALMAP scans its fixed grids.
    estimate_columns = []
    for true_map in true_maps:
        codes = (
            Sweep()
            .over(Axis.site(bank, true_map.sample_points(xs, ys)))
            .observe("code")
            .run()
            .values
        )
        measured = bank.counter.codes_to_periods(codes)
        estimate_columns.append(calibration.temperature(measured))

    objective = PlacementObjective(
        reference=true_maps[0],
        site_names=bank.names(),
        site_x_mm=xs,
        site_y_mm=ys,
        estimates_c=np.stack(estimate_columns, axis=1),
        true_values_c=np.stack([m.values_c for m in true_maps], axis=0),
        hotspot_weight=hotspot_weight,
    )
    greedy = greedy_placement(objective, sensor_count)
    annealed = anneal_placement(
        objective,
        sensor_count,
        seed=seed,
        steps=anneal_steps,
        initial=greedy.selected_indices,
    )

    return PlacementStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        workload_labels=tuple(label for label, _ in workloads),
        candidate_count=bank.site_count,
        sensor_count=int(sensor_count),
        grid_resolution=int(grid_resolution),
        scan_time_s=sensor_count * bank.conversion_time_s,
        greedy=greedy,
        annealed=annealed,
        evaluations=objective.evaluations,
    )
