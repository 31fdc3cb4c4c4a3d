"""Analogue diode-based temperature sensor baseline.

The paper's introduction points to the diode sensors of the Pentium 4
and the PowerPC thermal-assist unit as the incumbent solution, and
argues they fit poorly into a cell-based flow (full-custom analogue
design, need for an ADC).  To let the benchmark harness compare against
that incumbent on equal terms, this module models a ΔVBE (PTAT) diode
sensor with a finite-resolution ADC: excellent intrinsic linearity, but
an analogue signal chain whose offset/gain errors and ADC quantisation
limit the final accuracy — plus a design-style cost captured by the
``requires_analog_design`` flag the comparison tables report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..devices.diode import DiodeModel, DiodeParameters
from ..fields import integer, real
from ..tech.parameters import TechnologyError, celsius_to_kelvin, kelvin_to_celsius

__all__ = ["DiodeSensorConfig", "DiodeSensorReading", "DiodeTemperatureSensor"]


@dataclass(frozen=True)
class DiodeSensorConfig:
    """Parameters of the analogue sensing chain.

    Attributes
    ----------
    bias_current_low_a / bias_current_high_a:
        The two bias currents of the ΔVBE measurement.
    adc_bits:
        Resolution of the ADC digitising the PTAT voltage.
    adc_full_scale_v:
        ADC input range.
    amplifier_gain:
        Gain applied to ΔVBE before the ADC (real parts amplify the
        ~50 mV PTAT signal to use the ADC range).
    gain_error:
        Relative gain error of the analogue chain (uncalibrated).
    offset_error_v:
        Input-referred offset of the analogue chain.
    """

    bias_current_low_a: float = 5.0e-6
    bias_current_high_a: float = 80.0e-6
    adc_bits: int = 10
    adc_full_scale_v: float = 1.2
    amplifier_gain: float = 10.0
    gain_error: float = 0.003
    offset_error_v: float = 0.4e-3

    def __post_init__(self) -> None:
        if self.bias_current_high_a <= self.bias_current_low_a:
            raise TechnologyError("high bias current must exceed the low bias current")
        integer(self.adc_bits, "adc_bits", TechnologyError, at_least=4, at_most=24)
        real(self.adc_full_scale_v, "adc_full_scale_v", TechnologyError, above=0.0)
        real(self.amplifier_gain, "amplifier_gain", TechnologyError, above=0.0)


@dataclass(frozen=True)
class DiodeSensorReading:
    """One conversion of the diode sensor."""

    code: int
    temperature_estimate_c: float
    true_temperature_c: float

    @property
    def error_c(self) -> float:
        return self.temperature_estimate_c - self.true_temperature_c


class DiodeTemperatureSensor:
    """Behavioural model of a ΔVBE analogue smart temperature sensor."""

    #: Diode sensors need full-custom analogue design; the ring sensor
    #: does not.  Reported by the comparison tables.
    requires_analog_design = True

    def __init__(
        self,
        config: DiodeSensorConfig = DiodeSensorConfig(),
        diode: Optional[DiodeModel] = None,
    ) -> None:
        self.config = config
        self.diode = diode or DiodeModel(DiodeParameters())

    # ------------------------------------------------------------------ #
    # signal chain
    # ------------------------------------------------------------------ #

    def ptat_voltage(self, temperature_c: float) -> float:
        """ΔVBE (V) at the junction temperature, before amplification."""
        temp_k = celsius_to_kelvin(temperature_c)
        return self.diode.delta_vbe(
            self.config.bias_current_low_a, self.config.bias_current_high_a, temp_k
        )

    def adc_code(self, temperature_c: float) -> int:
        """Digital output code including analogue errors and quantisation."""
        signal = self.ptat_voltage(temperature_c)
        amplified = (
            (signal + self.config.offset_error_v)
            * self.config.amplifier_gain
            * (1.0 + self.config.gain_error)
        )
        lsb = self.config.adc_full_scale_v / (1 << self.config.adc_bits)
        code = int(np.floor(amplified / lsb))
        return int(np.clip(code, 0, (1 << self.config.adc_bits) - 1))

    def _code_to_temperature_ideal(self, code: int) -> float:
        """Nominal (design-time) code-to-temperature conversion."""
        lsb = self.config.adc_full_scale_v / (1 << self.config.adc_bits)
        voltage = (code + 0.5) * lsb / self.config.amplifier_gain
        temp_k = self.diode.temperature_from_delta_vbe(
            voltage, self.config.bias_current_low_a, self.config.bias_current_high_a
        )
        return kelvin_to_celsius(temp_k)

    # ------------------------------------------------------------------ #
    # sensor interface (mirrors the smart ring sensor's surface)
    # ------------------------------------------------------------------ #

    def measure(self, temperature_c: float) -> DiodeSensorReading:
        """One conversion using the nominal code-to-temperature map."""
        code = self.adc_code(temperature_c)
        estimate = self._code_to_temperature_ideal(code)
        return DiodeSensorReading(
            code=code,
            temperature_estimate_c=estimate,
            true_temperature_c=temperature_c,
        )

    def measurement_errors(self, temperatures_c: Sequence[float]) -> np.ndarray:
        """Measurement error (deg C) over a sweep of true temperatures."""
        return np.asarray(
            [self.measure(float(t)).error_c for t in temperatures_c]
        )

    def worst_case_error_c(self, temperatures_c: Sequence[float]) -> float:
        return float(np.max(np.abs(self.measurement_errors(temperatures_c))))
