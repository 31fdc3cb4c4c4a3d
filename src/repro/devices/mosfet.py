"""MOSFET device model (Sakurai--Newton alpha-power law).

The same I--V model backs both layers of the library:

* the transistor-level circuit simulator (:mod:`repro.circuit`), which
  integrates the ring-oscillator differential equations to produce
  waveforms like the paper's Fig. 1, and
* the analytical gate-delay model (:mod:`repro.delay`), which evaluates
  the saturation current directly to compute propagation delays for the
  large temperature sweeps behind Fig. 2 / Fig. 3.

Using one model for both keeps the two evaluation paths qualitatively
consistent: whatever curvature the delay-versus-temperature
characteristic has analytically is also what the simulated oscillator
shows.

Model summary
-------------

With overdrive ``vov = vgs - vth(T)`` (all magnitudes, the polarity is
applied by the calling code or the circuit element):

* saturation current   ``Id0 = W * pc(T) * vov ** alpha(T)``
* saturation voltage   ``Vdsat = (alpha / 2) * vov``
* linear region        ``Id = Id0 * (2 - vds / Vdsat) * (vds / Vdsat)``
* saturation region    ``Id = Id0 * (1 + lambda * (vds - Vdsat))``
* subthreshold         exponential roll-off below ``vov = 0``

``pc(T)`` is the drive coefficient ``mu(T) * Cox / (2 L)`` expressed per
micron of width, normalised by a 1 V reference so the units stay
consistent for non-integer ``alpha``.  Temperature enters through
``mu(T)``, ``vth(T)`` and ``alpha(T)`` (see :mod:`repro.tech.temperature`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..fields import real
from ..tech.parameters import Technology, TechnologyError, TransistorParameters
from ..tech.temperature import DeviceAtTemperature, device_at, thermal_voltage

__all__ = ["DeviceSizing", "MosfetModel", "MosfetOperatingPoint"]

#: Voltage normalisation used so that ``vov ** alpha`` has consistent
#: units for non-integer alpha.
V_NORM = 1.0

#: Channel-length-modulation coefficient (1/V); small, keeps the output
#: conductance finite in saturation which helps the DC solver converge.
DEFAULT_LAMBDA = 0.05

#: Subthreshold leakage floor per micron of width (A/um) at vov = 0.
DEFAULT_I0_LEAK = 1.0e-9


@dataclass(frozen=True)
class DeviceSizing:
    """Drawn geometry of one transistor instance.

    Attributes
    ----------
    width_um:
        Total drawn width in micrometres (all fingers combined).
    length_um:
        Drawn channel length; ``None`` uses the technology's minimum
        length, which is what standard cells do.
    """

    width_um: float
    length_um: Optional[float] = None

    def __post_init__(self) -> None:
        real(self.width_um, "width_um", TechnologyError, above=0.0)
        if self.length_um is not None:
            real(self.length_um, "length_um", TechnologyError, above=0.0)

    def length_or(self, default: float) -> float:
        return self.length_um if self.length_um is not None else default


@dataclass(frozen=True)
class MosfetOperatingPoint:
    """Drain current and small-signal conductances at one bias point."""

    ids: float
    gm: float
    gds: float
    vdsat: float
    region: str


class MosfetModel:
    """Alpha-power-law MOSFET evaluated at a fixed junction temperature.

    Voltages passed to :meth:`ids` are *magnitudes in the device's own
    frame*: for a PMOS, ``vgs`` is the source-to-gate voltage and
    ``vds`` the source-to-drain voltage, both positive when the device
    is conducting.  The circuit elements perform the frame conversion.

    Parameters
    ----------
    params:
        Transistor parameters of the device type.
    sizing:
        Drawn geometry.
    temperature_k:
        Junction temperature in kelvin.
    lambda_channel:
        Channel-length modulation (1/V).
    """

    def __init__(
        self,
        params: TransistorParameters,
        sizing: DeviceSizing,
        temperature_k: float,
        lambda_channel: float = DEFAULT_LAMBDA,
        leak_per_um: float = DEFAULT_I0_LEAK,
    ) -> None:
        self.params = params
        self.sizing = sizing
        self.temperature_k = float(temperature_k)
        self.lambda_channel = float(lambda_channel)
        self.leak_per_um = float(leak_per_um)
        self._device: DeviceAtTemperature = device_at(params, temperature_k)
        self._length = sizing.length_or(params.channel_length_um)
        self._vt_thermal = thermal_voltage(temperature_k)
        # Subthreshold slope factor n = S / (kT/q * ln 10); ~1.4 for 85 mV/dec.
        self._n_sub = params.subthreshold_slope_mv_per_dec / (
            1000.0 * self._vt_thermal * math.log(10.0)
        )
        self._n_sub = max(self._n_sub, 1.0)

    @classmethod
    def from_technology(
        cls,
        tech: Technology,
        polarity: str,
        width_um: float,
        temperature_k: float,
        length_um: Optional[float] = None,
    ) -> "MosfetModel":
        """Build a model for a device of the given polarity and width."""
        return cls(
            tech.transistor(polarity),
            DeviceSizing(width_um=width_um, length_um=length_um),
            temperature_k,
        )

    # ------------------------------------------------------------------ #
    # temperature-dependent derived quantities
    # ------------------------------------------------------------------ #

    @property
    def vth(self) -> float:
        """Threshold-voltage magnitude at the model temperature."""
        return self._device.vth

    @property
    def alpha(self) -> float:
        """Velocity-saturation index at the model temperature."""
        return self._device.alpha

    @property
    def width_um(self) -> float:
        return self.sizing.width_um

    def drive_coefficient(self) -> float:
        """``pc(T)`` in A / (um * V^alpha): drive current per um at 1 V overdrive."""
        kprime = self._device.process_transconductance  # A/V^2 for W = L
        return 0.5 * kprime / self._length * V_NORM ** (2.0 - self._device.alpha)

    def saturation_current(self, vgs: float) -> float:
        """Saturation drain current (A) at gate overdrive ``vgs - vth``."""
        vov = vgs - self._device.vth
        if vov <= 0.0:
            return self._subthreshold_current(vov, vds=1.0)
        return self.sizing.width_um * self.drive_coefficient() * vov ** self._device.alpha

    def vdsat(self, vgs: float) -> float:
        """Saturation drain voltage (V)."""
        vov = vgs - self._device.vth
        if vov <= 0.0:
            return 0.0
        return 0.5 * self._device.alpha * vov

    def _subthreshold_current(self, vov: float, vds: float) -> float:
        i0 = self.leak_per_um * self.sizing.width_um
        exponent = vov / (self._n_sub * self._vt_thermal)
        exponent = min(exponent, 0.0)
        drain_term = 1.0 - math.exp(-max(vds, 0.0) / self._vt_thermal)
        return i0 * math.exp(exponent) * drain_term

    # ------------------------------------------------------------------ #
    # full I--V surface
    # ------------------------------------------------------------------ #

    def ids(self, vgs: float, vds: float) -> float:
        """Drain current (A) at the given bias (magnitudes, own frame).

        Negative ``vds`` is handled by symmetry (source and drain swap),
        which the transient simulator relies on when a pass-gate-like
        condition appears momentarily during switching.
        """
        if vds < 0.0:
            # Swap source/drain: the "gate-to-source" voltage becomes
            # gate-to-(new source at old drain).
            return -self.ids(vgs - vds, -vds)
        vov = vgs - self._device.vth
        if vov <= 0.0:
            return self._subthreshold_current(vov, vds)
        id0 = self.sizing.width_um * self.drive_coefficient() * vov ** self._device.alpha
        vdsat = 0.5 * self._device.alpha * vov
        if vds >= vdsat:
            return id0 * (1.0 + self.lambda_channel * (vds - vdsat))
        ratio = vds / vdsat
        return id0 * ratio * (2.0 - ratio)

    def operating_point(self, vgs: float, vds: float) -> MosfetOperatingPoint:
        """Current and numerically evaluated small-signal conductances."""
        delta = 1.0e-4
        ids = self.ids(vgs, vds)
        gm = (self.ids(vgs + delta, vds) - self.ids(vgs - delta, vds)) / (2 * delta)
        gds = (self.ids(vgs, vds + delta) - self.ids(vgs, vds - delta)) / (2 * delta)
        vov = vgs - self._device.vth
        if vov <= 0.0:
            region = "subthreshold"
        elif vds >= self.vdsat(vgs):
            region = "saturation"
        else:
            region = "linear"
        return MosfetOperatingPoint(
            ids=ids, gm=gm, gds=max(gds, 0.0), vdsat=self.vdsat(vgs), region=region
        )

    # ------------------------------------------------------------------ #
    # capacitances
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MosfetModel({self.params.polarity}, W={self.sizing.width_um:.2f}um, "
            f"T={self.temperature_k:.1f}K)"
        )
