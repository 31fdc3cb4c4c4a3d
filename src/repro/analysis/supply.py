"""Supply-voltage cross-sensitivity of the ring-oscillator sensor.

A known weakness of delay-based temperature sensing is that the gate
delay also depends on the supply voltage, so supply noise or IR drop
masquerades as a temperature change.  The paper does not analyse this,
but any user of the sensor must budget for it, so the reproduction
provides the analysis: how many millivolts of supply error correspond to
one kelvin of apparent temperature change, for a given ring
configuration — and how the cell mix affects that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells.library import default_library
from ..fields import real
from ..oscillator.config import RingConfiguration
from ..oscillator.ring import RingOscillator
from ..tech.parameters import Technology, TechnologyError

__all__ = ["SupplySensitivityReport", "supply_sensitivity"]


@dataclass(frozen=True)
class SupplySensitivityReport:
    """Cross-sensitivity of one ring configuration to supply voltage.

    Attributes
    ----------
    label:
        Ring configuration label.
    nominal_supply_v:
        Supply voltage around which the sensitivities are evaluated.
    temperature_c:
        Junction temperature of the evaluation.
    period_per_kelvin_s:
        d(period)/dT at the operating point.
    period_per_volt_s:
        d(period)/dVdd at the operating point (negative: more supply,
        faster ring).
    """

    label: str
    nominal_supply_v: float
    temperature_c: float
    period_per_kelvin_s: float
    period_per_volt_s: float

    @property
    def kelvin_per_millivolt(self) -> float:
        """Apparent temperature change caused by 1 mV of supply change."""
        return abs(self.period_per_volt_s) / abs(self.period_per_kelvin_s) * 1e-3

    def supply_error_budget_mv(self, temperature_error_budget_c: float) -> float:
        """Largest supply deviation consistent with a temperature-error budget."""
        real(temperature_error_budget_c, "temperature_error_budget_c", TechnologyError, above=0.0)
        return temperature_error_budget_c / self.kelvin_per_millivolt


def supply_sensitivity(
    technology: Technology,
    configuration: RingConfiguration,
    temperature_c: float = 85.0,
    supply_delta_v: float = 0.05,
    temperature_delta_c: float = 5.0,
) -> SupplySensitivityReport:
    """Evaluate the temperature and supply sensitivities of a ring.

    Both derivatives are taken by central differences: the supply
    derivative at ``Vdd +/- delta`` (input capacitances do not change,
    only the drive), the temperature derivative directly from the period
    model.

    The ring is built once and both finite differences are declared as
    sweeps (:class:`~repro.engine.sweep.Sweep`): the supply derivative
    as one two-point ``supply`` axis (lowered onto a stacked two-sample
    technology population) and the temperature derivative as one
    two-point ``temperature`` axis — one library build instead of four.
    """
    from ..engine.sweep import Axis, Sweep

    supply_delta_v = real(supply_delta_v, "supply_delta_v", TechnologyError, above=0.0)
    temperature_delta_c = real(
        temperature_delta_c, "temperature_delta_c", TechnologyError, above=0.0
    )
    nominal_vdd = technology.vdd
    if nominal_vdd - supply_delta_v <= 0.0:
        raise TechnologyError(
            f"supply_delta_v {supply_delta_v} V drives the lower supply "
            f"non-positive (nominal {nominal_vdd} V)"
        )

    ring = RingOscillator(default_library(technology), configuration)
    high_v = nominal_vdd + supply_delta_v
    low_v = nominal_vdd - supply_delta_v
    supply_periods = (
        Sweep(ring=ring)
        .over(Axis.supply([high_v, low_v]))
        .over(Axis.temperature([temperature_c]))
        .run()
    )
    period_per_volt = (
        supply_periods.select(supply=high_v).item()
        - supply_periods.select(supply=low_v).item()
    ) / (2.0 * supply_delta_v)
    high_t = temperature_c + temperature_delta_c
    low_t = temperature_c - temperature_delta_c
    temp_periods = Sweep(ring=ring).over(Axis.temperature([high_t, low_t])).run()
    period_per_kelvin = (
        temp_periods.select(temperature=high_t).item()
        - temp_periods.select(temperature=low_t).item()
    ) / (2.0 * temperature_delta_c)
    if period_per_kelvin == 0.0:
        raise TechnologyError("the ring has no temperature sensitivity at this point")

    return SupplySensitivityReport(
        label=configuration.label(),
        nominal_supply_v=nominal_vdd,
        temperature_c=temperature_c,
        period_per_kelvin_s=period_per_kelvin,
        period_per_volt_s=period_per_volt,
    )
