"""Technology scaling helpers.

The paper's introduction motivates thermal monitoring with the
observation that junction temperature rises as technology scales (a
0.13 um chip was estimated to run 3.2x hotter than an equivalent
0.35 um chip).  The helpers here derive scaled technology variants from
a parent node using (generalised) constant-field scaling rules, and
estimate the power-density increase that drives the junction-temperature
trend.  They feed the scaling example and the thermal benches; they are
not needed for the core Fig. 2 / Fig. 3 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fields import real
from .parameters import Technology, TechnologyError, TransistorParameters

__all__ = [
    "ScalingRules",
    "scale_technology",
    "power_density_scaling_factor",
]


@dataclass(frozen=True)
class ScalingRules:
    """Knobs of the generalised scaling transformation.

    ``dimension_factor`` S > 1 shrinks lateral dimensions by 1/S.
    ``voltage_factor`` U >= 1 shrinks voltages by 1/U.  Classic
    constant-field scaling uses U = S; constant-voltage scaling uses
    U = 1.  Threshold voltages in practice scale more slowly than the
    supply, captured by ``threshold_factor`` (also >= 1).

    The documented ranges are enforced: this transformation only
    *shrinks* a node.  A ``dimension_factor`` below 1 would silently
    "scale up" with inverted power-density math
    (:func:`power_density_scaling_factor` assumes S/U >= 1); derive
    larger nodes by scaling down from a larger parent instead.
    """

    dimension_factor: float
    voltage_factor: float
    threshold_factor: float = 1.0

    def __post_init__(self) -> None:
        # S shrinks dimensions by 1/S, U voltages by 1/U; thresholds never scale up.
        real(self.dimension_factor, "dimension_factor", TechnologyError, above=1.0)
        real(self.voltage_factor, "voltage_factor", TechnologyError, at_least=1.0)
        real(self.threshold_factor, "threshold_factor", TechnologyError, at_least=1.0)


#: Below this threshold-voltage magnitude (V) the square-law/alpha-power
#: device models stop being credible; scaling past it is an error, not a
#: silent clamp.
_MIN_SCALED_VTH0 = 0.1


def _scale_device(
    params: TransistorParameters, rules: ScalingRules
) -> TransistorParameters:
    s = rules.dimension_factor
    vth0 = params.vth0 / rules.threshold_factor
    if vth0 < _MIN_SCALED_VTH0:
        raise TechnologyError(
            f"threshold_factor {rules.threshold_factor} scales the {params.polarity} "
            f"vth0 to {vth0:.3f} V, below the {_MIN_SCALED_VTH0} V validity floor "
            f"of the device models; reduce threshold_factor"
        )
    return params.scaled(
        vth0=vth0,
        channel_length_um=params.channel_length_um / s,
        cox_f_per_um2=params.cox_f_per_um2 * s,
        junction_cap_f_per_um=params.junction_cap_f_per_um / s,
        overlap_cap_f_per_um=params.overlap_cap_f_per_um / s,
    )


def scale_technology(tech: Technology, rules: ScalingRules, name: str) -> Technology:
    """Derive a scaled technology node from ``tech``.

    The result is a first-order estimate (mobility and velocity
    saturation are left unchanged); use the hand-tuned nodes in
    :mod:`repro.tech.libraries` when one is available for the target
    feature size.
    """
    s = rules.dimension_factor
    u = rules.voltage_factor
    new_vdd = tech.vdd / u
    nmos = _scale_device(tech.nmos, rules)
    pmos = _scale_device(tech.pmos, rules)
    if new_vdd <= max(nmos.vth0, pmos.vth0):
        raise TechnologyError(
            "scaling drives the supply below the threshold voltages; "
            "reduce threshold_factor or voltage_factor"
        )
    return Technology(
        name=name,
        feature_size_um=tech.feature_size_um / s,
        vdd=new_vdd,
        nmos=nmos,
        pmos=pmos,
        wire_cap_f_per_um=tech.wire_cap_f_per_um,
        min_width_um=tech.min_width_um / s,
        metal_layers=tech.metal_layers,
        extra=dict(tech.extra),
    )


def power_density_scaling_factor(rules: ScalingRules) -> float:
    """Relative power-density increase implied by the scaling rules.

    Under generalised scaling, power density scales as ``S^2 / U^2``
    for constant activity (switching energy per area falls as 1/(S*U^2)
    while frequency rises as S and device count per area as S^2).
    Constant-field scaling (U = S) keeps power density flat; real
    scaling keeps the supply higher than constant-field, which is the
    root of the junction-temperature trend cited in the paper.
    """
    s = rules.dimension_factor
    u = rules.voltage_factor
    return (s / u) ** 2
