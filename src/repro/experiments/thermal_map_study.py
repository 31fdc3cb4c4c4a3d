"""Experiment EXT-THERMALMAP: how many sensors does a thermal map need?

The paper motivates the multiplexer with thermal mapping: several ring
oscillators "distributed on different points" reconstruct the die's
temperature field.  The open engineering question is the sensor-grid
*density* — each extra sensor costs area and scan time, each removed
sensor blurs the reconstruction — and whether the answer survives
process variation, since every die's sensors carry their own spread.

This experiment answers both with one Monte-Carlo cross product per
density, declared through the sweep engine's ``site`` axis:

* the example processor's steady-state field is solved once (through
  the cached :class:`~repro.thermal.operator.ThermalOperator`
  solve — every density reuses it),
* for each candidate sensor grid a
  :class:`~repro.core.sensor_bank.SensorBank` is placed on the
  floorplan, the whole Monte-Carlo population is two-point calibrated
  in one vectorized pass, and the ``site x sample`` scan runs as a
  single declarative :class:`~repro.engine.sweep.Sweep` over the
  ``code`` observable (every site at its own junction temperature), and
* the full-die map of *every sample* is rebuilt in one broadcast
  inverse-distance interpolation, giving the reconstruction RMS and
  hotspot errors as distributions over the population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cells.library import default_library
from ..core.mapping import reconstruct_maps
from ..core.sensor_bank import SensorBank
from ..engine.sweep import Axis, Sweep
from ..oscillator.config import RingConfiguration
from ..tech.corners import sample_technology_array
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology
from ..thermal.floorplan import Floorplan
from ..thermal.grid import ThermalGrid
from ..thermal.operator import ThermalOperator
from ..thermal.power import PowerMap

__all__ = [
    "ThermalMapDensityPoint",
    "ThermalMapStudyResult",
    "ThermalResolutionPoint",
    "ThermalResolutionStudyResult",
    "run_thermal_map_study",
    "run_thermal_resolution_study",
]


@dataclass(frozen=True)
class ThermalMapDensityPoint:
    """Reconstruction quality of one sensor-grid density (over samples)."""

    sensor_columns: int
    sensor_rows: int
    site_count: int
    scan_time_s: float
    worst_site_error_c: float
    mean_map_rms_error_c: float
    max_map_rms_error_c: float
    mean_abs_hotspot_error_c: float
    max_abs_hotspot_error_c: float


@dataclass(frozen=True)
class ThermalMapStudyResult:
    """Outcome of the thermal-map density x Monte-Carlo experiment."""

    technology_name: str
    configuration_label: str
    sample_count: int
    true_peak_c: float
    true_gradient_c: float
    points: List[ThermalMapDensityPoint]

    def best_density_under(self, rms_limit_c: float) -> Optional[ThermalMapDensityPoint]:
        """Sparsest grid whose worst-sample RMS error meets a budget."""
        for point in self.points:
            if point.max_map_rms_error_c <= rms_limit_c:
                return point
        return None

    def format_table(self) -> str:
        lines = [
            "EXT-THERMALMAP - sensor-grid density vs thermal-map quality "
            f"({self.sample_count} Monte-Carlo samples)",
            f"ring: {self.configuration_label}, die peak "
            f"{self.true_peak_c:.1f} C, gradient {self.true_gradient_c:.1f} C",
            f"{'grid':>6s} {'sites':>6s} {'scan':>9s} {'worst site':>11s} "
            f"{'rms mean/max':>14s} {'|hotspot| mean/max':>19s}",
        ]
        for point in self.points:
            lines.append(
                f"{point.sensor_columns:>3d}x{point.sensor_rows:<2d} "
                f"{point.site_count:>6d} "
                f"{point.scan_time_s * 1e6:>7.1f}us "
                f"{point.worst_site_error_c:>9.2f} C "
                f"{point.mean_map_rms_error_c:>6.2f}/{point.max_map_rms_error_c:<5.2f} C "
                f"{point.mean_abs_hotspot_error_c:>8.2f}/{point.max_abs_hotspot_error_c:<5.2f} C"
            )
        return "\n".join(lines)


def run_thermal_map_study(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    sensor_grids: Sequence[int] = (1, 2, 3, 4),
    sample_count: int = 100,
    seed: int = 2005,
    grid_resolution: int = 24,
    ambient_c: float = 45.0,
    calibration_temperatures_c: Tuple[float, float] = (-50.0, 150.0),
) -> ThermalMapStudyResult:
    """Run the sensor-density x Monte-Carlo thermal-mapping experiment.

    For each ``k`` in ``sensor_grids`` a ``k x k`` bank is placed on the
    example processor and scanned against the whole technology
    population in one ``site x sample`` sweep; the reported errors are
    statistics over the population.  The scans run dense unless
    ``REPRO_SWEEP_EXECUTOR`` (the runner's ``--executor``) names a tiled
    backend; ``REPRO_SWEEP_TILE_ELEMENTS`` (``--tile-elements``) then
    bounds each tile.
    """
    tech = technology if technology is not None else CMOS035
    configuration = RingConfiguration.parse(configuration_text)
    library = default_library(tech)
    population = sample_technology_array(tech, sample_count, seed=seed)

    # One steady-state solve serves every density: the sensor grid does
    # not change the workload, only where it is observed.
    base_plan = Floorplan.example_processor()
    power = PowerMap.from_floorplan(base_plan, nx=grid_resolution, ny=grid_resolution)
    grid = ThermalGrid.for_power_map(power)
    true_map = ThermalOperator.for_grid(grid).solve_steady_state(power, ambient_c)
    hot_row, hot_col = np.unravel_index(
        int(np.argmax(true_map.values_c)), true_map.values_c.shape
    )
    true_peak = true_map.max_c()

    points: List[ThermalMapDensityPoint] = []
    for k in sensor_grids:
        floorplan = Floorplan.example_processor()
        floorplan.add_sensor_grid(int(k), int(k))
        bank = SensorBank.from_floorplan(tech, floorplan, configuration, library=library)
        xs, ys = bank.positions()
        truths = true_map.sample_points(xs, ys)

        calibration = bank.two_point_calibration(
            *calibration_temperatures_c, technologies=population
        )
        # The scan declares the thermal grid itself as a (one-point)
        # resolution axis: the sweep engine re-solves the die field
        # through the same cached ThermalOperator entry the true map
        # above came from and reads every site at its local junction
        # temperature — no hand-rolled solve-then-gather loop.
        codes = (
            Sweep()
            .over(
                Axis.resolution([grid_resolution], base_plan, ambient_c=ambient_c)
            )
            .over(Axis.site(bank))
            .over(Axis.sample(population))
            .observe("code")
            .run()
            .select(resolution=grid_resolution)
            .values
        )
        measured = bank.counter.codes_to_periods(codes)
        estimates = calibration.temperature(measured)  # (site, sample)

        worst_site = float(np.max(np.abs(estimates - truths[:, np.newaxis])))
        maps = reconstruct_maps(true_map, xs, ys, estimates)  # (sample, ny, nx)
        rms = np.sqrt(np.mean((maps - true_map.values_c) ** 2, axis=(1, 2)))
        # The hotspot sits on a cell centre, where the bilinear sample
        # reduces to the cell value itself.
        hotspot = np.abs(maps[:, hot_row, hot_col] - true_peak)

        points.append(
            ThermalMapDensityPoint(
                sensor_columns=int(k),
                sensor_rows=int(k),
                site_count=bank.site_count,
                scan_time_s=bank.site_count * bank.conversion_time_s,
                worst_site_error_c=worst_site,
                mean_map_rms_error_c=float(np.mean(rms)),
                max_map_rms_error_c=float(np.max(rms)),
                mean_abs_hotspot_error_c=float(np.mean(hotspot)),
                max_abs_hotspot_error_c=float(np.max(hotspot)),
            )
        )

    return ThermalMapStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        sample_count=sample_count,
        true_peak_c=true_peak,
        true_gradient_c=true_map.gradient_c(),
        points=points,
    )


@dataclass(frozen=True)
class ThermalResolutionPoint:
    """Reconstruction quality of one thermal-grid resolution."""

    grid_resolution: int
    unknown_count: int
    true_peak_c: float
    true_gradient_c: float
    peak_shift_from_finest_c: float
    worst_site_error_c: float
    mean_map_rms_error_c: float
    max_map_rms_error_c: float


@dataclass(frozen=True)
class ThermalResolutionStudyResult:
    """Outcome of the thermal grid-refinement (resolution) experiment."""

    technology_name: str
    configuration_label: str
    sample_count: int
    site_count: int
    points: List[ThermalResolutionPoint]

    def format_table(self) -> str:
        lines = [
            "EXT-THERMALRES - thermal-grid refinement vs map quality "
            f"({self.sample_count} Monte-Carlo samples, "
            f"{self.site_count} sensor sites)",
            f"ring: {self.configuration_label}",
            f"{'grid':>7s} {'unknowns':>9s} {'die peak':>9s} "
            f"{'vs finest':>10s} {'worst site':>11s} {'rms mean/max':>14s}",
        ]
        for point in self.points:
            lines.append(
                f"{point.grid_resolution:>4d}^2 "
                f"{point.unknown_count:>9d} "
                f"{point.true_peak_c:>7.1f} C "
                f"{point.peak_shift_from_finest_c:>+8.2f} C "
                f"{point.worst_site_error_c:>9.2f} C "
                f"{point.mean_map_rms_error_c:>6.2f}/{point.max_map_rms_error_c:<5.2f} C"
            )
        return "\n".join(lines)


def run_thermal_resolution_study(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    sensor_grid: int = 3,
    grid_resolutions: Sequence[int] = (8, 12, 16, 24, 32),
    sample_count: int = 50,
    seed: int = 2005,
    ambient_c: float = 45.0,
    calibration_temperatures_c: Tuple[float, float] = (-50.0, 150.0),
) -> ThermalResolutionStudyResult:
    """Run the thermal grid-refinement experiment through the sweep engine.

    The die field is re-solved at every grid resolution — the whole
    refinement declared as one ``resolution x site x sample`` sweep, so
    each resolution costs exactly one cached
    :class:`~repro.thermal.operator.ThermalOperator` entry (one exact
    spectral solve) — and a fixed sensor bank is scanned
    against the Monte-Carlo population on each refinement.  The report
    answers the modelling question the density study leaves open: how
    fine must the thermal grid be before the die peak and the sensor-map
    reconstruction stop moving?  The sweep takes its execution backend
    from the environment, as in EXT-THERMALMAP.
    """
    tech = technology if technology is not None else CMOS035
    configuration = RingConfiguration.parse(configuration_text)
    library = default_library(tech)
    population = sample_technology_array(tech, sample_count, seed=seed)
    resolutions = tuple(int(r) for r in grid_resolutions)

    base_plan = Floorplan.example_processor()
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(int(sensor_grid), int(sensor_grid))
    bank = SensorBank.from_floorplan(tech, floorplan, configuration, library=library)
    xs, ys = bank.positions()
    calibration = bank.two_point_calibration(
        *calibration_temperatures_c, technologies=population
    )

    codes = (
        Sweep()
        .over(Axis.resolution(resolutions, base_plan, ambient_c=ambient_c))
        .over(Axis.site(bank))
        .over(Axis.sample(population))
        .observe("code")
        .run()
    )

    finest = max(resolutions)
    finest_peak: Optional[float] = None
    points: List[ThermalResolutionPoint] = []
    for resolution in sorted(resolutions, reverse=True):
        power = PowerMap.from_floorplan(base_plan, nx=resolution, ny=resolution)
        grid = ThermalGrid.for_power_map(power)
        true_map = ThermalOperator.for_grid(grid).solve_steady_state(power, ambient_c)
        if resolution == finest:
            finest_peak = true_map.max_c()
        truths = true_map.sample_points(xs, ys)

        resolution_codes = codes.select(resolution=resolution).values
        measured = bank.counter.codes_to_periods(resolution_codes)
        estimates = calibration.temperature(measured)  # (site, sample)
        worst_site = float(np.max(np.abs(estimates - truths[:, np.newaxis])))
        maps = reconstruct_maps(true_map, xs, ys, estimates)
        rms = np.sqrt(np.mean((maps - true_map.values_c) ** 2, axis=(1, 2)))

        points.append(
            ThermalResolutionPoint(
                grid_resolution=resolution,
                unknown_count=resolution * resolution,
                true_peak_c=true_map.max_c(),
                true_gradient_c=true_map.gradient_c(),
                peak_shift_from_finest_c=true_map.max_c() - finest_peak,
                worst_site_error_c=worst_site,
                mean_map_rms_error_c=float(np.mean(rms)),
                max_map_rms_error_c=float(np.max(rms)),
            )
        )

    points.sort(key=lambda point: point.grid_resolution)
    return ThermalResolutionStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        sample_count=sample_count,
        site_count=bank.site_count,
        points=points,
    )
