"""Stacked sensor banks: the site axis of the batch engine.

The paper's smart unit reads many distributed ring oscillators through
one multiplexed readout.  A :class:`SensorBank` models that readout,
and it is the package's one sensor-scan path: the thermal monitor, the
DTM loop and the sweep engine's ``site`` axis all scan through it.

The bank is stored struct-of-arrays style.  The sites share one ring
design (exactly as the multiplexed hardware shares one readout), so a
full scan is

* one vectorized period evaluation over the ``(site,)`` junction-
  temperature vector — or, against a stacked
  :class:`~repro.tech.stacked.TechnologyArray` population, one
  broadcast over ``(site, 1, 1)`` temperatures x ``(samples, 1)``
  parameter columns giving the whole ``(site, sample)`` period matrix,
* one batch counter conversion (:meth:`PeriodCounter.convert_batch`), and
* one elementwise :class:`~repro.core.calibration.LinearCalibration` map.

The controller FSM is walked **once** at construction to pin the
per-measurement conversion time
(:func:`~repro.core.controller.conversion_time_s`); since every
measurement of the bank takes the same deterministic cycle count, the
scan total is that time multiplied by the channel count — identical to
summing the per-sensor readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells.library import CellLibrary, default_library
from ..fields import real_array
from ..oscillator.config import RingConfiguration
from ..oscillator.ring import RingOscillator
from ..tech.parameters import CELSIUS_OFFSET, Technology, TechnologyError
from ..tech.stacked import stack_technologies
from ..thermal.floorplan import Floorplan, SensorSite
from .calibration import LinearCalibration, two_point_calibration
from .controller import ControllerConfig, conversion_time_s
from .readout import PeriodCounter, ReadoutConfig
from .sensor import SensorReading

__all__ = ["BankScan", "SensorBank"]


@dataclass(frozen=True)
class BankScan:
    """One bank scan: every channel's reading as arrays.

    All value arrays share the leading ``site`` axis; against a stacked
    technology population they are ``(site, sample)`` matrices.
    ``estimates_c`` is ``None`` when the bank was scanned uncalibrated.
    """

    names: Tuple[str, ...]
    true_temperatures_c: np.ndarray
    periods_s: np.ndarray
    codes: np.ndarray
    saturated: np.ndarray
    measured_periods_s: np.ndarray
    estimates_c: Optional[np.ndarray]
    conversion_time_s: float

    @property
    def site_count(self) -> int:
        return len(self.names)

    @property
    def total_time_s(self) -> float:
        """Scan duration: the shared readout serves one channel at a time."""
        return self.site_count * self.conversion_time_s

    def _require_single(self) -> None:
        if np.asarray(self.periods_s).ndim != 1:
            raise TechnologyError(
                "per-channel dictionaries are only defined for single-"
                "technology scans; index the (site, sample) arrays instead"
            )

    def temperatures(self) -> Dict[str, Optional[float]]:
        self._require_single()
        if self.estimates_c is None:
            return {name: None for name in self.names}
        return {
            name: float(estimate)
            for name, estimate in zip(self.names, self.estimates_c)
        }

    @property
    def readings(self) -> Dict[str, SensorReading]:
        """Per-channel :class:`SensorReading` view (single-technology scans).

        Materialised from the scan arrays, one reading per site.
        """
        self._require_single()
        result: Dict[str, SensorReading] = {}
        for index, name in enumerate(self.names):
            estimate = (
                float(self.estimates_c[index]) if self.estimates_c is not None else None
            )
            result[name] = SensorReading(
                code=int(self.codes[index]),
                saturated=bool(self.saturated[index]),
                conversion_time_s=self.conversion_time_s,
                oscillator_period_s=float(self.periods_s[index]),
                measured_period_s=float(self.measured_periods_s[index]),
                temperature_estimate_c=estimate,
                true_temperature_c=float(self.true_temperatures_c[index]),
            )
        return result


class SensorBank:
    """All sensor sites of a floorplan stacked for one-shot batch scans.

    Parameters
    ----------
    library:
        Cell library the shared ring design draws its stages from.
    sites:
        The sensor sites (name + die coordinates); names must be unique.
    configuration:
        Ring configuration shared by every sensor in the bank.
    readout / controller_config:
        Shared readout and measurement-controller configuration.
    wire_length_um / external_load_f / tap_stage:
        Ring construction parameters, matching
        :class:`~repro.oscillator.ring.RingOscillator`.
    """

    def __init__(
        self,
        library: CellLibrary,
        sites: Sequence[SensorSite],
        configuration: RingConfiguration,
        readout: ReadoutConfig = ReadoutConfig(),
        controller_config: ControllerConfig = ControllerConfig(),
        wire_length_um: float = 2.0,
        external_load_f: float = 0.0,
        tap_stage: Optional[int] = None,
    ) -> None:
        sites = list(sites)
        if not sites:
            raise TechnologyError("a sensor bank needs at least one site")
        names = [site.name for site in sites]
        if len(names) != len(set(names)):
            raise TechnologyError("sensor site names must be unique within a bank")
        self.library = library
        self.configuration = configuration
        self.readout = readout
        self.controller_config = controller_config
        self.ring = RingOscillator(
            library,
            configuration,
            wire_length_um=wire_length_um,
            external_load_f=external_load_f,
            tap_stage=tap_stage,
        )
        self.counter = PeriodCounter(readout)
        self._sites: Tuple[SensorSite, ...] = tuple(sites)
        self._names: Tuple[str, ...] = tuple(names)
        self._calibration: Optional[LinearCalibration] = None
        # Every measurement of the bank takes the same deterministic FSM
        # walk; the banked scan never steps a controller.
        self._conversion_time_s = conversion_time_s(readout, controller_config)

    @classmethod
    def from_floorplan(
        cls,
        technology: Technology,
        floorplan: Floorplan,
        configuration: RingConfiguration,
        library: Optional[CellLibrary] = None,
        **kwargs,
    ) -> "SensorBank":
        """Build a bank covering every sensor site of a floorplan."""
        sites = floorplan.sensor_sites()
        if not sites:
            raise TechnologyError(
                "the floorplan has no sensor sites; call "
                "add_sensor_site/add_sensor_grid first"
            )
        lib = library if library is not None else default_library(technology)
        return cls(lib, sites, configuration, **kwargs)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def site_count(self) -> int:
        return len(self._sites)

    def __len__(self) -> int:
        return self.site_count

    @property
    def technology(self):
        return self.library.technology

    def names(self) -> Tuple[str, ...]:
        return self._names

    def sites(self) -> List[SensorSite]:
        return list(self._sites)

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, y) millimetre coordinate arrays of the sites."""
        xs = np.asarray([site.x_mm for site in self._sites])
        ys = np.asarray([site.y_mm for site in self._sites])
        return xs, ys

    @property
    def conversion_time_s(self) -> float:
        """Duration of one measurement (controller FSM cycle count)."""
        return self._conversion_time_s

    @property
    def calibration(self) -> Optional[LinearCalibration]:
        return self._calibration

    # ------------------------------------------------------------------ #
    # banked evaluation
    # ------------------------------------------------------------------ #

    def _site_temperatures(self, junction_temperatures_c) -> np.ndarray:
        temps = real_array(
            junction_temperatures_c,
            "junction_temperatures_c",
            TechnologyError,
            above=-CELSIUS_OFFSET,
        )
        if temps.shape != (self.site_count,):
            raise TechnologyError(
                f"expected one junction temperature per site "
                f"({self.site_count}), got shape {temps.shape}"
            )
        return temps

    def period_tensor(self, junction_temperatures_c, technologies=None) -> np.ndarray:
        """Oscillation periods of every site in one broadcast pass.

        Returns a ``(site,)`` vector — or the full ``(site, sample)``
        matrix when ``technologies`` is a population (a stacked
        :class:`~repro.tech.stacked.TechnologyArray` or a stackable
        technology sequence).  The sites share one ring design, so the
        whole scan is a single vectorized ring evaluation over the junction-
        temperature vector.
        """
        temps = self._site_temperatures(junction_temperatures_c)
        if technologies is None:
            return np.asarray(self.ring.period_series(temps), dtype=float)
        technologies = stack_technologies(technologies)
        bound = self.ring.rebind(technologies)
        # (site, 1, 1) temperatures against (sample, 1) parameter columns
        # broadcast to (site, sample, 1); the trailing singleton is the
        # collapsed temperature axis of the stacked delay stack.
        matrix = bound.period_series(temps.reshape(-1, 1, 1))
        return np.asarray(matrix, dtype=float).reshape(
            self.site_count, len(technologies)
        )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #

    def two_point_calibration(
        self,
        low_temperature_c: float = -40.0,
        high_temperature_c: float = 125.0,
        technologies=None,
    ) -> LinearCalibration:
        """Two-point calibration of the bank's shared ring design.

        The calibration insertions are at shared oven temperatures, so
        one two-point ring evaluation covers every site; against a
        population the result carries one (slope, offset) pair per
        sample — the whole Monte-Carlo calibration from one
        ``(sample, 2)`` endpoint evaluation.
        """
        endpoints = np.asarray([low_temperature_c, high_temperature_c], dtype=float)
        ring = self.ring
        if technologies is not None:
            ring = ring.rebind(stack_technologies(technologies))
        codes, _saturated = self.counter.convert_batch(ring.period_series(endpoints))
        return two_point_calibration(self.counter.codes_to_periods(codes), endpoints)

    def calibrate(
        self, low_temperature_c: float = -40.0, high_temperature_c: float = 125.0
    ) -> LinearCalibration:
        """Install the bank's own two-point calibration (shared design)."""
        self._calibration = self.two_point_calibration(
            low_temperature_c, high_temperature_c
        )
        return self._calibration

    # ------------------------------------------------------------------ #
    # scanning
    # ------------------------------------------------------------------ #

    def scan(
        self,
        junction_temperatures_c,
        technologies=None,
        calibration: Optional[LinearCalibration] = None,
    ) -> BankScan:
        """Measure every channel in one broadcast pass.

        Parameters
        ----------
        junction_temperatures_c:
            One junction temperature per site, in site order.
        technologies:
            Optional technology population; the scan then returns
            ``(site, sample)`` arrays.
        calibration:
            Calibration override; the bank's installed calibration is
            used when omitted, and estimates are ``None`` when neither
            exists.
        """
        temps = self._site_temperatures(junction_temperatures_c)
        calibration = calibration if calibration is not None else self._calibration
        periods = self.period_tensor(temps, technologies)
        codes, saturated = self.counter.convert_batch(periods)
        measured = self.counter.codes_to_periods(codes)
        estimates = (
            calibration.temperature(measured) if calibration is not None else None
        )
        return BankScan(
            names=self._names,
            true_temperatures_c=temps,
            periods_s=periods,
            codes=codes,
            saturated=saturated,
            measured_periods_s=measured,
            estimates_c=estimates,
            conversion_time_s=self.conversion_time_s,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SensorBank({self.site_count} sites, ring={self.ring.label()!r}, "
            f"calibrated={self._calibration is not None})"
        )
