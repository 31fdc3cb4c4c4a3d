"""Thermal monitoring of a die with distributed smart sensors.

This module closes the loop the paper sketches: ring-oscillator sensors
are placed at several points of a floorplan, the die's temperature field
is computed from its power map with the compact thermal model, each
sensor reads its *local* junction temperature through the smart unit's
shared readout (a :class:`~repro.core.sensor_bank.SensorBank` scan), and
the monitor reconstructs a full-die thermal map from the sparse sensor
readings.  The reconstruction error against the true field quantifies
how many sensors a thermal-mapping application needs — one of the
design questions the smart unit's multiplexed readout exists to answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..cells.library import CellLibrary, default_library
from ..oscillator.config import RingConfiguration
from ..tech.parameters import Technology, TechnologyError
from ..thermal.floorplan import Floorplan, SensorSite
from ..thermal.grid import TemperatureMap, ThermalGrid, ThermalGridParameters
from ..thermal.power import PowerMap
from ..thermal.operator import solve_steady_state
from .readout import ReadoutConfig
from .sensor_bank import BankScan, SensorBank

__all__ = ["ThermalMonitorReport", "ThermalMonitor", "reconstruct_maps"]


def reconstruct_maps(
    reference: TemperatureMap,
    site_x_mm: np.ndarray,
    site_y_mm: np.ndarray,
    estimates_c: np.ndarray,
) -> np.ndarray:
    """Inverse-distance maps for one or many estimate columns at once.

    The thermal monitor's reconstruction kernel, factored out so the
    Monte-Carlo studies can rebuild *every sample's* full-die map in one
    broadcast: ``estimates_c`` of shape ``(site,)`` returns one
    ``(ny, nx)`` value array, ``(site, k)`` returns a ``(k, ny, nx)``
    stack.  The inverse-square weights depend only on geometry, so they
    are computed once for the whole stack; a grid cell sitting exactly
    on a sensor site takes that site's estimate directly (first matching
    site).
    """
    estimates = np.asarray(estimates_c, dtype=float)
    single = estimates.ndim == 1
    columns = estimates.reshape(len(site_x_mm), -1)

    cell_w = reference.width_mm / reference.nx
    cell_h = reference.height_mm / reference.ny
    xs = (np.arange(reference.nx) + 0.5) * cell_w
    ys = (np.arange(reference.ny) + 0.5) * cell_h
    grid_x, grid_y = np.meshgrid(xs, ys)

    distance = np.hypot(
        grid_x[..., np.newaxis] - np.asarray(site_x_mm),
        grid_y[..., np.newaxis] - np.asarray(site_y_mm),
    )
    exact = distance < 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = 1.0 / distance**2
        weights[exact] = 0.0
        values = np.einsum("yxs,sk->kyx", weights, columns)
        # 0/0 where a cell's only weights were zeroed by the exact-match
        # mask; those cells are overwritten by the on-site pass below.
        values /= np.sum(weights, axis=-1)

    on_site = exact.any(axis=-1)
    if np.any(on_site):
        first_site = np.argmax(exact, axis=-1)
        values[:, on_site] = columns[first_site[on_site]].T
    if single:
        return values[0]
    return values


@dataclass(frozen=True)
class ThermalMonitorReport:
    """Result of one thermal-mapping scan.

    Attributes
    ----------
    scan:
        The raw :class:`~repro.core.sensor_bank.BankScan` of every site.
    true_map:
        The reference temperature field from the thermal model.
    site_true_temperatures_c:
        True junction temperature at every sensor site.
    site_estimates_c:
        Calibrated sensor estimate at every site.
    reconstructed_map:
        Full-die map reconstructed from the sensor estimates.
    """

    scan: BankScan
    true_map: TemperatureMap
    site_true_temperatures_c: Dict[str, float]
    site_estimates_c: Dict[str, float]
    reconstructed_map: TemperatureMap

    def site_errors_c(self) -> Dict[str, float]:
        """Per-site measurement error (estimate minus truth)."""
        return {
            name: self.site_estimates_c[name] - self.site_true_temperatures_c[name]
            for name in self.site_estimates_c
        }

    def worst_site_error_c(self) -> float:
        errors = list(self.site_errors_c().values())
        return float(np.max(np.abs(errors)))

    def hotspot_error_c(self) -> float:
        """Error of the reconstructed map at the true hotspot location."""
        x, y = self.true_map.hotspot_location()
        return self.reconstructed_map.sample(x, y) - self.true_map.max_c()

    def map_rms_error_c(self) -> float:
        """RMS error of the reconstructed field over the whole die."""
        difference = self.reconstructed_map.values_c - self.true_map.values_c
        return float(np.sqrt(np.mean(difference ** 2)))


class ThermalMonitor:
    """Distributed smart-sensor thermal-mapping unit.

    Parameters
    ----------
    technology:
        CMOS technology of the sensors.
    floorplan:
        Die floorplan; its sensor sites define where sensors are placed.
    configuration:
        Ring configuration used for every sensor (the paper's optimised
        cell mix).
    library:
        Cell library; the default library of the technology when omitted.
    readout:
        Shared readout configuration.
    grid_resolution:
        Resolution of the thermal model grid.
    ambient_c:
        Package/board ambient temperature.
    """

    def __init__(
        self,
        technology: Technology,
        floorplan: Floorplan,
        configuration: RingConfiguration,
        library: Optional[CellLibrary] = None,
        readout: ReadoutConfig = ReadoutConfig(),
        grid_resolution: int = 32,
        ambient_c: float = 45.0,
        thermal_parameters: ThermalGridParameters = ThermalGridParameters(),
    ) -> None:
        sites = floorplan.sensor_sites()
        if not sites:
            raise TechnologyError(
                "the floorplan has no sensor sites; call add_sensor_site/add_sensor_grid first"
            )
        self.technology = technology
        self.floorplan = floorplan
        self.configuration = configuration
        self.library = library if library is not None else default_library(technology)
        self.readout = readout
        self.ambient_c = float(ambient_c)
        self.grid_resolution = int(grid_resolution)
        self.thermal_parameters = thermal_parameters
        self.bank = SensorBank(self.library, sites, configuration, readout=readout)
        self._sites: Dict[str, SensorSite] = {site.name: site for site in sites}

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def calibrate(self, low_temperature_c: float = -40.0, high_temperature_c: float = 125.0) -> None:
        """Two-point calibrate every sensor in the bank.

        The sites share one ring design, so one vectorized two-point
        evaluation calibrates the whole bank.
        """
        self.bank.calibrate(low_temperature_c, high_temperature_c)

    # ------------------------------------------------------------------ #
    # thermal field
    # ------------------------------------------------------------------ #

    def temperature_field(self, power: PowerMap) -> TemperatureMap:
        """Reference temperature field for a workload power map.

        Same-geometry workloads share one prepared solve through the
        process-wide :class:`~repro.thermal.operator.ThermalOperator`
        cache.
        """
        grid = ThermalGrid.for_power_map(power, self.thermal_parameters)
        return solve_steady_state(grid, power, self.ambient_c)

    def power_map_for_floorplan(self) -> PowerMap:
        """Rasterised power map of the monitor's floorplan."""
        return PowerMap.from_floorplan(
            self.floorplan, nx=self.grid_resolution, ny=self.grid_resolution
        )

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #

    def scan(self, power: Optional[PowerMap] = None) -> ThermalMonitorReport:
        """Run one full thermal-mapping scan for a workload.

        The true temperature field is computed from the power map, each
        sensor is fed the local junction temperature at its site, the
        bank scans all channels, and a full-die map is rebuilt from the
        sensor estimates by inverse-distance interpolation.

        The scan is fully banked: one vectorized gather of the site
        temperatures (:meth:`TemperatureMap.sample_points`), one
        broadcast :meth:`~repro.core.sensor_bank.SensorBank.scan` for
        the whole bank.
        """
        if power is None:
            power = self.power_map_for_floorplan()
        true_map = self.temperature_field(power)

        if self.bank.calibration is None:
            raise TechnologyError(
                "sensors must be calibrated before a thermal-mapping scan; "
                "call calibrate() first"
            )
        xs, ys = self.bank.positions()
        truths = true_map.sample_points(xs, ys)
        scan = self.bank.scan(truths)
        site_truth = dict(zip(scan.names, (float(t) for t in truths)))
        site_estimates = {
            name: float(estimate)
            for name, estimate in zip(scan.names, scan.estimates_c)
        }

        reconstructed = self._reconstruct(site_estimates, true_map)
        return ThermalMonitorReport(
            scan=scan,
            true_map=true_map,
            site_true_temperatures_c=site_truth,
            site_estimates_c=site_estimates,
            reconstructed_map=reconstructed,
        )

    def _reconstruct(
        self, site_estimates: Dict[str, float], reference: TemperatureMap
    ) -> TemperatureMap:
        """Inverse-distance-weighted interpolation of the sensor readings.

        One :func:`reconstruct_maps` broadcast over the whole
        ``(ny, nx, n_sites)`` distance tensor instead of a Python loop
        per grid cell — the batch-engine treatment of the
        reconstruction hot path.
        """
        names = list(site_estimates)
        site_x = np.asarray([self._sites[name].x_mm for name in names])
        site_y = np.asarray([self._sites[name].y_mm for name in names])
        estimates = np.asarray([site_estimates[name] for name in names])
        values = reconstruct_maps(reference, site_x, site_y, estimates)
        return TemperatureMap(reference.width_mm, reference.height_mm, values)

    def detect_overheating(
        self, report: ThermalMonitorReport, threshold_c: float
    ) -> List[str]:
        """Names of sensor sites whose estimate exceeds a thermal threshold.

        This is the hook a dynamic thermal-management policy (clock
        throttling, task migration) would consume.
        """
        return [
            name
            for name, estimate in report.site_estimates_c.items()
            if estimate >= threshold_c
        ]
