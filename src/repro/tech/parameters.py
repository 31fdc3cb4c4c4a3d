"""Technology parameter containers.

The paper evaluates its sensor in a 0.35 um-class CMOS technology.  A
"technology" here is the set of electrical parameters needed by the
device models (:mod:`repro.devices`), the analytical delay models
(:mod:`repro.delay`) and the cell library (:mod:`repro.cells`):

* nominal supply voltage,
* per-device-type (NMOS / PMOS) threshold voltage, mobility-derived
  transconductance, velocity-saturation index (the Sakurai--Newton
  *alpha*), channel length, gate-oxide capacitance, junction and overlap
  capacitances,
* and the temperature coefficients of the threshold voltage, the carrier
  mobility and the saturation velocity.

Only plain dataclasses live here; the physics that turns these numbers
into temperature-dependent device behaviour is in
:mod:`repro.tech.temperature` and :mod:`repro.devices.mosfet`.

These scalar containers describe *one* technology sample.  Whole
Monte-Carlo or corner populations have struct-of-arrays siblings in
:mod:`repro.tech.stacked` (:class:`~repro.tech.stacked.TechnologyArray`,
:class:`~repro.tech.stacked.TransistorParameterArray`) that mirror these
classes field for field with ``(samples, 1)`` ndarray columns and
broadcast through the delay stack in one pass; the scalar dataclasses
here remain the single source of truth for field semantics and
validation rules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from ..fields import ReproInputError, real

#: Reference temperature (kelvin) at which nominal parameters are quoted.
T_NOMINAL_K = 300.15

#: Absolute-zero offset used throughout the package to convert between
#: degrees Celsius (the unit used by the paper's figures) and kelvin
#: (the unit used by the physical models).
CELSIUS_OFFSET = 273.15

#: Boltzmann constant over electron charge (volts per kelvin); used by the
#: diode baseline sensor and by subthreshold terms.
K_B_OVER_Q = 8.617333262e-5

#: Schema version of the :meth:`Technology.to_dict` declarative bundle.
#: Bump when the bundle layout changes; digests are computed over the
#: versioned payload, so a bump re-keys every content-addressed cache.
TECHNOLOGY_DICT_VERSION = 1


def celsius_to_kelvin(temp_c: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Convert a temperature from degrees Celsius to kelvin.

    Accepts a scalar or an ndarray (converted elementwise).
    """
    if isinstance(temp_c, np.ndarray):
        return temp_c.astype(float) + CELSIUS_OFFSET
    return float(temp_c) + CELSIUS_OFFSET


def kelvin_to_celsius(temp_k: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Convert a temperature from kelvin to degrees Celsius.

    Accepts a scalar or an ndarray (converted elementwise).
    """
    if isinstance(temp_k, np.ndarray):
        return temp_k.astype(float) - CELSIUS_OFFSET
    return float(temp_k) - CELSIUS_OFFSET


class TechnologyError(ReproInputError):
    """Raised when a technology description is inconsistent or unphysical."""


@dataclass(frozen=True)
class TransistorParameters:
    """Electrical parameters of one MOSFET type (NMOS or PMOS).

    All values are quoted at the reference temperature ``T_NOMINAL_K``
    and for the *drawn* channel length of the technology.  Sign
    conventions follow the usual "magnitude" style: threshold voltages
    are positive numbers for both device polarities, and the device
    model applies the polarity.

    Attributes
    ----------
    polarity:
        ``"nmos"`` or ``"pmos"``.
    vth0:
        Zero-bias threshold-voltage magnitude (V) at the reference
        temperature.
    mobility:
        Effective channel mobility (cm^2 / V / s) at the reference
        temperature.
    alpha:
        Sakurai--Newton velocity-saturation index.  ``alpha = 2`` is the
        long-channel square law, ``alpha -> 1`` is fully
        velocity-saturated.
    channel_length_um:
        Effective channel length (micrometres).
    cox_f_per_um2:
        Gate-oxide capacitance per unit area (F / um^2).
    vsat_cm_per_s:
        Carrier saturation velocity (cm / s) at the reference
        temperature.
    vth_temp_coeff:
        Threshold-voltage temperature coefficient (V / K).  The
        threshold-voltage *magnitude* decreases by this amount per
        kelvin of temperature increase.
    mobility_temp_exponent:
        Exponent ``m`` of the mobility power law
        ``mu(T) = mu(T0) * (T / T0) ** -m``.
    vsat_temp_coeff:
        Fractional decrease of the saturation velocity per kelvin.
    alpha_temp_coeff:
        First-order temperature drift of the velocity-saturation index
        (1 / K); usually very small and positive (devices become less
        velocity saturated as drive current drops).
    body_effect_gamma:
        Body-effect coefficient (V^0.5) used for stacked transistors.
    subthreshold_slope_mv_per_dec:
        Subthreshold swing in mV/decade at the reference temperature;
        only used by leakage estimates.
    junction_cap_f_per_um:
        Drain/source junction capacitance per micron of device width
        (F / um), used for self-loading (parasitic output capacitance).
    overlap_cap_f_per_um:
        Gate-drain/source overlap capacitance per micron of width
        (F / um), counted on both the input capacitance and (Miller
        doubled) on the output.
    """

    polarity: str
    vth0: float
    mobility: float
    alpha: float
    channel_length_um: float
    cox_f_per_um2: float
    vsat_cm_per_s: float
    vth_temp_coeff: float
    mobility_temp_exponent: float
    vsat_temp_coeff: float = 1.0e-4
    alpha_temp_coeff: float = 0.0
    body_effect_gamma: float = 0.4
    subthreshold_slope_mv_per_dec: float = 85.0
    junction_cap_f_per_um: float = 1.0e-15
    overlap_cap_f_per_um: float = 0.35e-15

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise TechnologyError(
                f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}"
            )
        for name in _TRANSISTOR_FIELD_NAMES:
            real(getattr(self, name), name, TechnologyError, **TRANSISTOR_BOUNDS.get(name, {}))

    @property
    def gate_cap_f_per_um(self) -> float:
        """Gate capacitance per micron of width (F / um).

        ``Cox * L`` plus the overlap contribution of source and drain.
        """
        return (
            self.cox_f_per_um2 * self.channel_length_um
            + 2.0 * self.overlap_cap_f_per_um
        )

    @property
    def process_transconductance(self) -> float:
        """``k' = mu * Cox`` in A / V^2 for a square device (W = L).

        Mobility is converted from cm^2/V/s to um^2/V/s so that the
        result is consistent with widths and lengths in micrometres and
        capacitances in F/um^2.
        """
        mobility_um2 = self.mobility * 1.0e8  # cm^2 -> um^2
        return mobility_um2 * self.cox_f_per_um2

    def scaled(self, **overrides: float) -> "TransistorParameters":
        """Return a copy with selected fields replaced.

        Used by process-corner generation and Monte-Carlo sampling.
        """
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain JSON-compatible dict (every field)."""
        payload: Dict[str, Any] = {"polarity": self.polarity}
        for name in _TRANSISTOR_FIELD_NAMES:
            payload[name] = float(getattr(self, name))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TransistorParameters":
        """Rebuild from :meth:`to_dict` output, re-running all validation.

        Unknown keys are rejected rather than ignored: a typo'd field in
        a declarative technology bundle must fail loudly, not silently
        fall back to a default value.
        """
        if not isinstance(payload, Mapping):
            raise TechnologyError(
                f"transistor parameters must be a mapping, got "
                f"{type(payload).__name__}"
            )
        allowed = {"polarity", *_TRANSISTOR_FIELD_NAMES}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise TechnologyError(
                f"unknown transistor parameter field(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        kwargs = dict(payload)
        try:
            return cls(**kwargs)
        except TypeError as error:  # missing required field
            raise TechnologyError(
                f"incomplete transistor parameters: {error}"
            ) from error


#: Every numeric field of :class:`TransistorParameters`, in declaration
#: order — the serialization schema for one transistor block.
_TRANSISTOR_FIELD_NAMES = tuple(
    f.name for f in dataclasses.fields(TransistorParameters) if f.name != "polarity"
)

#: The range of each bounded transistor field (the rest need only be
#: finite); :mod:`repro.tech.stacked` checks its population columns
#: against the same table.
TRANSISTOR_BOUNDS: Dict[str, Dict[str, float]] = {
    "vth0": {"above": 0.0},
    "mobility": {"above": 0.0},
    "alpha": {"at_least": 1.0, "at_most": 2.0},
    "channel_length_um": {"above": 0.0},
    "cox_f_per_um2": {"above": 0.0},
    "vsat_cm_per_s": {"above": 0.0},
    "mobility_temp_exponent": {"at_least": 0.0},
    "vth_temp_coeff": {"at_least": 0.0},
}


@dataclass(frozen=True)
class Technology:
    """A complete CMOS technology description.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"cmos035"``).
    feature_size_um:
        Drawn feature size in micrometres (0.35 for the paper's node).
    vdd:
        Nominal supply voltage (V).
    nmos / pmos:
        Per-polarity transistor parameters.
    wire_cap_f_per_um:
        Local interconnect capacitance per micron of wire (F / um); the
        ring oscillator stages are abutted so this only adds a small
        constant per stage.
    min_width_um:
        Minimum drawn transistor width.
    metal_layers:
        Number of routing layers (informational; used by the floorplan
        area model).
    """

    name: str
    feature_size_um: float
    vdd: float
    nmos: TransistorParameters
    pmos: TransistorParameters
    wire_cap_f_per_um: float = 0.2e-15
    min_width_um: float = 0.5
    metal_layers: int = 4
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        real(self.feature_size_um, "feature_size_um", TechnologyError, above=0.0)
        real(self.vdd, "vdd", TechnologyError, above=0.0)
        real(self.wire_cap_f_per_um, "wire_cap_f_per_um", TechnologyError)
        real(self.min_width_um, "min_width_um", TechnologyError)
        for key, value in self.extra.items():
            real(value, f"extra[{key}]", TechnologyError)
        if self.nmos.polarity != "nmos":
            raise TechnologyError("nmos parameters must have polarity 'nmos'")
        if self.pmos.polarity != "pmos":
            raise TechnologyError("pmos parameters must have polarity 'pmos'")
        if self.vdd <= max(self.nmos.vth0, self.pmos.vth0):
            raise TechnologyError(
                "vdd must exceed both threshold voltages for the gates to switch"
            )

    def transistor(self, polarity: str) -> TransistorParameters:
        """Return the parameter block for ``"nmos"`` or ``"pmos"``."""
        if polarity == "nmos":
            return self.nmos
        if polarity == "pmos":
            return self.pmos
        raise TechnologyError(f"unknown polarity {polarity!r}")

    def with_supply(self, vdd: float) -> "Technology":
        """Return a copy of the technology operated at a different supply."""
        return dataclasses.replace(self, vdd=vdd)

    def with_transistors(
        self,
        nmos: Optional[TransistorParameters] = None,
        pmos: Optional[TransistorParameters] = None,
    ) -> "Technology":
        """Return a copy with one or both transistor blocks replaced."""
        return dataclasses.replace(
            self,
            nmos=nmos if nmos is not None else self.nmos,
            pmos=pmos if pmos is not None else self.pmos,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a versioned, JSON-compatible declarative bundle.

        The payload is the complete parameter content of the node — the
        input to :func:`repro.tech.registry.technology_digest` — so two
        technologies serialize identically iff they are value-equal.
        """
        return {
            "version": TECHNOLOGY_DICT_VERSION,
            "name": self.name,
            "feature_size_um": float(self.feature_size_um),
            "vdd": float(self.vdd),
            "nmos": self.nmos.to_dict(),
            "pmos": self.pmos.to_dict(),
            "wire_cap_f_per_um": float(self.wire_cap_f_per_um),
            "min_width_um": float(self.min_width_um),
            "metal_layers": int(self.metal_layers),
            "extra": {key: float(value) for key, value in sorted(self.extra.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Technology":
        """Rebuild a node from :meth:`to_dict` output.

        Every parameter-range check in the dataclass constructors runs
        again on load, so an out-of-range bundle (negative mobility,
        supply below threshold, ...) fails here — at declaration time —
        rather than deep inside an evaluation.
        """
        if not isinstance(payload, Mapping):
            raise TechnologyError(
                f"technology bundle must be a mapping, got {type(payload).__name__}"
            )
        version = payload.get("version")
        if version != TECHNOLOGY_DICT_VERSION:
            raise TechnologyError(
                f"technology bundle has version {version!r}; this build reads "
                f"version {TECHNOLOGY_DICT_VERSION}"
            )
        allowed = {
            "version",
            "name",
            "feature_size_um",
            "vdd",
            "nmos",
            "pmos",
            "wire_cap_f_per_um",
            "min_width_um",
            "metal_layers",
            "extra",
        }
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise TechnologyError(
                f"unknown technology bundle field(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        missing = sorted(allowed - {"extra"} - set(payload))
        if missing:
            raise TechnologyError(f"technology bundle is missing field(s) {missing}")
        name = payload["name"]
        if not isinstance(name, str) or not name:
            raise TechnologyError("technology bundle 'name' must be a non-empty string")
        metal_layers = payload["metal_layers"]
        if isinstance(metal_layers, bool) or not isinstance(metal_layers, int):
            raise TechnologyError("technology bundle 'metal_layers' must be an int")
        extra = payload.get("extra", {})
        if not isinstance(extra, Mapping):
            raise TechnologyError("technology bundle 'extra' must be a mapping")
        return cls(
            name=name,
            feature_size_um=payload["feature_size_um"],
            vdd=payload["vdd"],
            nmos=TransistorParameters.from_dict(payload["nmos"]),
            pmos=TransistorParameters.from_dict(payload["pmos"]),
            wire_cap_f_per_um=payload["wire_cap_f_per_um"],
            min_width_um=payload["min_width_um"],
            metal_layers=metal_layers,
            extra=dict(extra),
        )
