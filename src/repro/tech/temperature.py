"""Temperature dependence of the MOSFET small-set parameters.

The ring-oscillator temperature sensor works because the propagation
delay of a CMOS gate varies with the junction temperature.  Three
physical mechanisms drive that variation and are modelled here:

``mobility``
    Lattice scattering reduces the carrier mobility as temperature
    rises, following the usual power law
    ``mu(T) = mu(T0) * (T / T0) ** -m`` with ``m`` between roughly 1.2
    and 2.0.  Lower mobility means less drive current and longer delay.

``threshold voltage``
    The threshold-voltage magnitude decreases roughly linearly with
    temperature (0.5 mV/K to 2.5 mV/K).  A lower threshold means more
    overdrive, more current and *shorter* delay, partially cancelling
    the mobility term.  The balance between the two effects determines
    both the sensitivity and the curvature (non-linearity) of the
    delay-versus-temperature characteristic, which is exactly the
    degree of freedom the paper exploits.

``saturation velocity``
    Decreases weakly and approximately linearly with temperature.

:func:`device_at` evaluates all three (and the velocity-saturation
index) in one call, which is the one place the temperature dependence
is computed.  The threshold is clamped at 0.05 V (far above the design
range the linear law would make a depletion device, which the models do
not support), the saturation-velocity factor at 0.1 and the index to
[1, 2].  :func:`device_at` takes the temperature in kelvin; helpers working in
Celsius live next to the experiment code, because the paper quotes its
sweep in Celsius.

:func:`device_at` accepts either a scalar temperature or an ndarray of
temperatures and evaluates elementwise — this is the lowest layer of the
vectorized batch-evaluation path (:mod:`repro.engine`): one call with a
41-point temperature grid replaces 41 scalar calls.

The parameter block may equally be a stacked population
(:class:`~repro.tech.stacked.TransistorParameterArray`) whose fields are
``(samples, 1)`` columns: :func:`device_at` then broadcasts the sample axis
against the temperature axis, returning ``(samples, temperatures)``
matrices — one call with a 1000-sample population and a 41-point grid
replaces 41000 scalar calls.  :func:`device_at` computes the terms of
fields every sample shares once, as ``(1, temperatures)`` rows.  All
range clamps and validity checks are applied elementwise in both
layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..fields import real, real_array
from .parameters import T_NOMINAL_K, TechnologyError, TransistorParameters

__all__ = [
    "thermal_voltage",
    "DeviceAtTemperature",
    "device_at",
]


#: A junction temperature: either a scalar or an ndarray of temperatures.
TemperatureLike = Union[float, np.ndarray]


def _check_temperature(temp_k: TemperatureLike) -> TemperatureLike:
    if isinstance(temp_k, np.ndarray):
        return real_array(temp_k, "temperature_k", TechnologyError, above=0.0)
    return real(temp_k, "temperature_k", TechnologyError, above=0.0)


def _mobility(mobility, exponent, temp_k):
    ratio = temp_k / T_NOMINAL_K
    return mobility * ratio ** (-exponent)


def _threshold_voltage(vth0, coeff, temp_k):
    vth = vth0 - coeff * (temp_k - T_NOMINAL_K)
    if isinstance(vth, np.ndarray):
        return np.maximum(vth, 0.05)
    return max(vth, 0.05)


def _saturation_velocity(vsat, coeff, temp_k):
    factor = 1.0 - coeff * (temp_k - T_NOMINAL_K)
    if isinstance(factor, np.ndarray):
        return vsat * np.maximum(factor, 0.1)
    return vsat * max(factor, 0.1)


def _alpha(alpha, coeff, temp_k):
    alpha = alpha + coeff * (temp_k - T_NOMINAL_K)
    if isinstance(alpha, np.ndarray):
        return np.clip(alpha, 1.0, 2.0)
    return min(2.0, max(1.0, alpha))


def thermal_voltage(temp_k: float) -> float:
    """Thermal voltage ``kT/q`` in volts."""
    temp_k = _check_temperature(temp_k)
    return 8.617333262e-5 * temp_k


@dataclass(frozen=True)
class DeviceAtTemperature:
    """Snapshot of the temperature-dependent parameters of one device type.

    Produced by :func:`device_at` and consumed by the device models and
    the analytical delay model, so that the temperature dependence is
    computed in exactly one place.

    When :func:`device_at` is called with an ndarray of temperatures the
    temperature-dependent fields (``temperature_k``, ``vth``,
    ``mobility``, ``alpha``, ``vsat_cm_per_s``,
    ``process_transconductance``) hold matching ndarrays.  For a
    stacked population they are ``(samples, temperatures)`` matrices,
    except that ``alpha`` and ``vsat_cm_per_s`` are ``(1, temperatures)``
    rows when every sample shares their parameters (as in a Monte-Carlo
    population); rows broadcast against the matrices like the equal rows
    they stand for.
    """

    polarity: str
    temperature_k: float
    vth: float
    mobility: float
    alpha: float
    vsat_cm_per_s: float
    process_transconductance: float
    gate_cap_f_per_um: float
    junction_cap_f_per_um: float
    overlap_cap_f_per_um: float
    body_effect_gamma: float
    channel_length_um: float

    @property
    def temperature_c(self) -> float:
        return self.temperature_k - 273.15


def device_at(params: TransistorParameters, temp_k: TemperatureLike) -> DeviceAtTemperature:
    """Evaluate all temperature-dependent parameters of a device type.

    Parameters
    ----------
    params:
        Nominal transistor parameters, or a stacked population
        (:class:`~repro.tech.stacked.TransistorParameterArray`).
    temp_k:
        Junction temperature in kelvin — a scalar, or an ndarray to
        evaluate a whole temperature grid in one call.

    For a population, each field every sample shares (its
    ``uniform_fields``) enters its temperature term as a ``(1, 1)`` row,
    so the term is computed once on a ``(1, T)`` row and broadcasting
    carries it to the samples.  For a Monte-Carlo population that leaves
    ``alpha`` and ``vsat_cm_per_s`` as ``(1, T)`` rows, while ``vth`` and
    ``mobility`` stay ``(S, T)``.  Every element meets the same operands
    as in the full-column evaluation, so its bits are the same.
    """
    temp_k = _check_temperature(temp_k)
    uniform = getattr(params, "uniform_fields", ())

    def operand(field: str):
        value = getattr(params, field)
        return value[:1] if field in uniform else value

    mobility = _mobility(params.mobility, operand("mobility_temp_exponent"), temp_k)
    mobility_um2 = mobility * 1.0e8
    return DeviceAtTemperature(
        polarity=params.polarity,
        temperature_k=temp_k,
        vth=_threshold_voltage(params.vth0, operand("vth_temp_coeff"), temp_k),
        mobility=mobility,
        alpha=_alpha(operand("alpha"), operand("alpha_temp_coeff"), temp_k),
        vsat_cm_per_s=_saturation_velocity(
            operand("vsat_cm_per_s"), operand("vsat_temp_coeff"), temp_k
        ),
        process_transconductance=mobility_um2 * params.cox_f_per_um2,
        gate_cap_f_per_um=params.gate_cap_f_per_um,
        junction_cap_f_per_um=params.junction_cap_f_per_um,
        overlap_cap_f_per_um=params.overlap_cap_f_per_um,
        body_effect_gamma=params.body_effect_gamma,
        channel_length_um=params.channel_length_um,
    )
