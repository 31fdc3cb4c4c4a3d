"""Junction-diode model for the analogue baseline temperature sensor.

The paper's introduction contrasts the proposed cell-based sensor with
the diode/BJT sensors used in the Pentium 4 and in the PowerPC thermal
assist unit.  To let the benchmark harness make that comparison, this
module provides a classic diode model with the standard temperature
dependence of the saturation current, plus the delta-VBE (PTAT)
measurement principle used by real analogue smart sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..fields import real
from ..tech.parameters import TechnologyError
from ..tech.temperature import thermal_voltage

__all__ = ["DiodeParameters", "DiodeModel"]

#: Silicon bandgap voltage at 0 K (V), used in the saturation-current law.
SILICON_BANDGAP_EV = 1.17


@dataclass(frozen=True)
class DiodeParameters:
    """Parameters of a p-n junction used as a thermal diode.

    Attributes
    ----------
    saturation_current_a:
        Saturation current at the reference temperature (A).
    ideality:
        Ideality factor ``n`` (1.0 for an ideal junction, slightly more
        for real parasitic diodes).
    xti:
        Saturation-current temperature exponent (3 for a classic diode).
    reference_temperature_k:
        Temperature at which ``saturation_current_a`` is quoted.
    series_resistance_ohm:
        Parasitic series resistance; converts to a small error term at
        the bias currents used by thermal sensing.
    """

    saturation_current_a: float = 1.0e-14
    ideality: float = 1.006
    xti: float = 3.0
    reference_temperature_k: float = 300.15
    series_resistance_ohm: float = 2.0

    def __post_init__(self) -> None:
        real(self.saturation_current_a, "saturation_current_a", TechnologyError, above=0.0)
        real(self.ideality, "ideality", TechnologyError, at_least=1.0)
        real(self.reference_temperature_k, "reference_temperature_k", TechnologyError, above=0.0)


class DiodeModel:
    """Forward-biased diode evaluated as a temperature transducer."""

    def __init__(self, params: DiodeParameters = DiodeParameters()) -> None:
        self.params = params

    def saturation_current(self, temp_k: float) -> float:
        """Saturation current (A) at ``temp_k`` using the bandgap law."""
        temp_k = real(temp_k, "temp_k", TechnologyError, above=0.0)
        p = self.params
        t_ref = p.reference_temperature_k
        vt_ref = thermal_voltage(t_ref)
        vt = thermal_voltage(temp_k)
        ratio = temp_k / t_ref
        exponent = (SILICON_BANDGAP_EV / p.ideality) * (1.0 / vt_ref - 1.0 / vt)
        return p.saturation_current_a * ratio ** (p.xti / p.ideality) * math.exp(exponent)

    def forward_voltage(self, current_a: float, temp_k: float) -> float:
        """Forward voltage (V) at a given bias current and temperature.

        Includes the ohmic drop across the series resistance.  The
        forward voltage has the familiar roughly -2 mV/K slope, which is
        the signal an analogue thermal sensor digitises.
        """
        current_a = real(current_a, "current_a", TechnologyError, above=0.0)
        isat = self.saturation_current(temp_k)
        vt = thermal_voltage(temp_k)
        voltage = self.params.ideality * vt * math.log(current_a / isat + 1.0)
        return voltage + current_a * self.params.series_resistance_ohm

    def delta_vbe(self, current_low_a: float, current_high_a: float, temp_k: float) -> float:
        """PTAT voltage: difference of forward voltages at two bias currents.

        ``delta_vbe = n * kT/q * ln(I_high / I_low)`` is proportional to
        absolute temperature and is the quantity real analogue smart
        sensors convert to digital; the series-resistance error term is
        included so the baseline is not unrealistically ideal.
        """
        if current_high_a <= current_low_a:
            raise TechnologyError("current_high_a must exceed current_low_a")
        v_high = self.forward_voltage(current_high_a, temp_k)
        v_low = self.forward_voltage(current_low_a, temp_k)
        return v_high - v_low

    def temperature_from_delta_vbe(
        self, delta_vbe: float, current_low_a: float, current_high_a: float
    ) -> float:
        """Invert :meth:`delta_vbe` (ignoring series resistance) to kelvin."""
        delta_vbe = real(delta_vbe, "delta_vbe", TechnologyError, above=0.0)
        log_ratio = math.log(current_high_a / current_low_a)
        # delta_vbe = n * (k/q) * T * ln(ratio)  (ideal part)
        return delta_vbe / (self.params.ideality * 8.617333262e-5 * log_ratio)
