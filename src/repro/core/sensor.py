"""The smart temperature sensor: oscillator + readout + control + calibration.

This is the paper's primary contribution assembled into one object.  A
:class:`SmartTemperatureSensor` owns

* a :class:`~repro.oscillator.ring.RingOscillator` built from standard
  library cells (the sensing element),
* a counter-based readout (:mod:`repro.core.readout`) converting the
  oscillation period into a digital code,
* a measurement controller (:mod:`repro.core.controller`) providing the
  enable/disable and busy-flag behaviour that limits self-heating, and
* an optional calibration (:mod:`repro.core.calibration`) mapping codes
  back to temperature.

The sensor is a behavioural model: given the junction temperature at its
location it produces the digital code (with quantisation and saturation)
the hardware would produce, plus the estimated temperature if it has
been calibrated.  The thermal-mapping layer
(:mod:`repro.core.mapping`) supplies the junction temperatures from the
die thermal model, closing the loop the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..cells.library import CellLibrary, default_library
from ..fields import real, real_array
from ..oscillator.config import RingConfiguration
from ..oscillator.period import TemperatureResponse, analytical_response, default_temperature_grid
from ..oscillator.ring import RingOscillator
from ..tech.parameters import Technology, TechnologyError
from .calibration import LinearCalibration, two_point_calibration
from .controller import ControllerConfig, MeasurementController, conversion_time_s
from .readout import PeriodCounter, ReadoutConfig

__all__ = ["SensorReading", "SensorTransferFunction", "SmartTemperatureSensor"]


@dataclass(frozen=True)
class SensorReading:
    """One complete measurement of the smart sensor."""

    code: int
    saturated: bool
    conversion_time_s: float
    oscillator_period_s: float
    measured_period_s: float
    temperature_estimate_c: Optional[float]
    true_temperature_c: float

    @property
    def error_c(self) -> Optional[float]:
        """Measurement error (estimate minus truth), if calibrated."""
        if self.temperature_estimate_c is None:
            return None
        return self.temperature_estimate_c - self.true_temperature_c


@dataclass(frozen=True)
class SensorTransferFunction:
    """Digital code (and period estimate) versus temperature.

    This is the sensor's datasheet curve: the raw counter code, plus the
    period estimate the digital block reconstructs from it (the quantity
    the calibration operates on).
    """

    temperatures_c: np.ndarray
    codes: np.ndarray
    measured_periods_s: np.ndarray

    def __post_init__(self) -> None:
        temps = np.asarray(self.temperatures_c, dtype=float)
        codes = np.asarray(self.codes, dtype=float)
        periods = np.asarray(self.measured_periods_s, dtype=float)
        if temps.shape != codes.shape or temps.ndim != 1 or periods.shape != temps.shape:
            raise TechnologyError("transfer function arrays must be matching 1-D arrays")
        object.__setattr__(self, "temperatures_c", temps)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "measured_periods_s", periods)

    def codes_per_kelvin(self) -> float:
        """Average |d(code)/dT| over the characterised range."""
        span_codes = abs(float(self.codes[-1] - self.codes[0]))
        span_temps = float(self.temperatures_c[-1] - self.temperatures_c[0])
        return span_codes / span_temps

    def is_monotonic(self) -> bool:
        """Whether the code changes monotonically with temperature."""
        diffs = np.diff(self.codes)
        return bool(np.all(diffs <= 0) or np.all(diffs >= 0))


def _sweep_grid(temperatures_c: Optional[Sequence[float]]) -> np.ndarray:
    """The temperature grid of a transfer-function or error sweep.

    ``None`` selects 21 points over the paper's -50..150 C range.  Any
    other grid must be a non-empty 1-D sequence of finite temperatures;
    anything else raises :class:`TechnologyError` naming
    ``temperatures_c``.
    """
    if temperatures_c is None:
        return default_temperature_grid(points=21)
    temps = real_array(temperatures_c, "temperatures_c", TechnologyError)
    if temps.ndim != 1 or temps.size == 0:
        raise TechnologyError(
            f"temperatures_c must be a non-empty 1-D grid, got shape {temps.shape}"
        )
    return temps


class SmartTemperatureSensor:
    """Behavioural model of the complete smart temperature sensor.

    Parameters
    ----------
    ring:
        The ring-oscillator sensing element.
    readout:
        Counter readout configuration.
    controller_config:
        Measurement-controller configuration (settle time, auto-disable).
    name:
        Instance name.
    """

    def __init__(
        self,
        ring: RingOscillator,
        readout: ReadoutConfig = ReadoutConfig(),
        controller_config: ControllerConfig = ControllerConfig(),
        name: str = "sensor0",
    ) -> None:
        self.ring = ring
        self.readout = readout
        self.controller = MeasurementController(readout, controller_config)
        self.counter = PeriodCounter(readout)
        #: Duration of one measurement, from the controller FSM.
        self.conversion_time_s = conversion_time_s(readout, controller_config)
        self.name = name
        self.calibration: Optional[object] = None
        self._readings: List[SensorReading] = []

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_configuration(
        cls,
        technology: Technology,
        configuration: RingConfiguration,
        library: Optional[CellLibrary] = None,
        readout: ReadoutConfig = ReadoutConfig(),
        name: str = "sensor0",
    ) -> "SmartTemperatureSensor":
        """Build a sensor from a technology and a ring configuration."""
        lib = library if library is not None else default_library(technology)
        ring = RingOscillator(lib, configuration)
        return cls(ring, readout=readout, name=name)

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #

    @property
    def busy(self) -> bool:
        """The "measurement in progress" flag."""
        return self.controller.busy

    def measure(self, junction_temperature_c: float) -> SensorReading:
        """Run one complete measurement at the given junction temperature.

        The controller FSM is stepped through a full
        IDLE→SETTLE→MEASURE→DONE sequence (so the busy/enable behaviour
        is exercised), the oscillation period at the junction temperature
        is converted by the counter, and the calibrated temperature
        estimate is attached when a calibration is installed.
        """
        period = self.ring.period(junction_temperature_c)
        self.controller.run_measurement()
        code, saturated = self.counter.convert_batch(period)
        measured_period = float(self.counter.codes_to_periods(code))
        estimate = None
        if self.calibration is not None:
            estimate = float(self.calibration.temperature(measured_period))
        result = SensorReading(
            code=int(code),
            saturated=bool(saturated),
            conversion_time_s=self.conversion_time_s,
            oscillator_period_s=period,
            measured_period_s=measured_period,
            temperature_estimate_c=estimate,
            true_temperature_c=junction_temperature_c,
        )
        self._readings.append(result)
        return result

    def history(self) -> List[SensorReading]:
        """All readings taken so far (oldest first)."""
        return list(self._readings)

    def measurement_power_w(self, junction_temperature_c: float) -> float:
        """Average power drawn while a measurement is in progress."""
        return self.ring.dynamic_power(junction_temperature_c)

    def average_power_w(
        self, junction_temperature_c: float, measurement_rate_hz: float
    ) -> float:
        """Average power at a given measurement repetition rate.

        With auto-disable the oscillator only burns power during the
        conversion window, so the average power scales with the duty
        cycle — the quantitative form of the paper's self-heating
        argument.
        """
        real(measurement_rate_hz, "measurement_rate_hz", TechnologyError, at_least=0.0)
        duty = min(1.0, measurement_rate_hz * self.conversion_time_s)
        if not self.controller.config.auto_disable:
            duty = 1.0
        return duty * self.measurement_power_w(junction_temperature_c)

    # ------------------------------------------------------------------ #
    # transfer function and calibration
    # ------------------------------------------------------------------ #

    def transfer_function(
        self, temperatures_c: Optional[Sequence[float]] = None
    ) -> SensorTransferFunction:
        """Digital code over a temperature sweep (quantisation included).

        One vectorized period evaluation of the ring plus one batch
        counter conversion.  The grid (21 points over -50..150 C by
        default) is checked by :func:`_sweep_grid`.
        """
        temps = _sweep_grid(temperatures_c)
        periods = self.ring.period_series(temps)
        codes, _saturated = self.counter.convert_batch(periods)
        measured_periods = self.counter.codes_to_periods(codes)
        return SensorTransferFunction(
            temperatures_c=temps,
            codes=codes.astype(float),
            measured_periods_s=measured_periods,
        )

    def temperature_response(
        self, temperatures_c: Optional[Sequence[float]] = None
    ) -> TemperatureResponse:
        """Underlying (un-quantised) period-versus-temperature characteristic."""
        return analytical_response(self.ring, temperatures_c)

    def measured_periods(self, temperatures_c: Sequence[float]) -> np.ndarray:
        """Period estimates the digital block reconstructs at temperatures.

        Includes the counter quantisation; this is the quantity the
        calibration maps to temperature.  One vectorized ring
        evaluation and one batch counter conversion over an array of
        any shape.
        """
        temps = np.asarray(temperatures_c, dtype=float)
        codes, _saturated = self.counter.convert_batch(self.ring.period_series(temps))
        return self.counter.codes_to_periods(codes)

    def measured_period(self, junction_temperature_c: float) -> float:
        """:meth:`measured_periods` at one temperature."""
        return float(self.measured_periods(junction_temperature_c))

    def calibrate_two_point(
        self, low_temperature_c: float = -40.0, high_temperature_c: float = 125.0
    ) -> LinearCalibration:
        """Install a two-point calibration using the sensor's own readings."""
        temps = [low_temperature_c, high_temperature_c]
        calibration = two_point_calibration(self.measured_periods(temps), temps)
        self.calibration = calibration
        return calibration

    def install_calibration(self, calibration) -> None:
        """Install an externally constructed calibration object."""
        if not hasattr(calibration, "temperature"):
            raise TechnologyError(
                "a calibration must provide a temperature(code) method"
            )
        self.calibration = calibration

    def measurement_errors(
        self, temperatures_c: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Calibrated measurement error (deg C) over a temperature sweep.

        One ring evaluation, one batch conversion and one elementwise
        calibration map over the grid (checked by :func:`_sweep_grid`).
        """
        if self.calibration is None:
            raise TechnologyError("calibrate the sensor before computing errors")
        temps = _sweep_grid(temperatures_c)
        estimates = np.asarray(
            self.calibration.temperature(self.measured_periods(temps)), dtype=float
        )
        return estimates - temps

    def worst_case_error_c(
        self, temperatures_c: Optional[Sequence[float]] = None
    ) -> float:
        """Worst-case |measurement error| over the sweep."""
        return float(np.max(np.abs(self.measurement_errors(temperatures_c))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SmartTemperatureSensor({self.name!r}, ring={self.ring.label()!r}, "
            f"calibrated={self.calibration is not None})"
        )
