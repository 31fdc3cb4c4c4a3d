"""Process corners and Monte-Carlo variation of a technology.

Process variation shifts the absolute oscillation frequency of the ring
oscillator (which is why the smart sensor needs calibration) but, as the
paper argues, affects the *linearity* only weakly.  The corner and
Monte-Carlo machinery here feeds the calibration ablation benches.

Corners follow the usual five-corner convention:

======  =====================  =====================
corner  NMOS                   PMOS
======  =====================  =====================
TT      typical                typical
FF      fast (low Vth, hi mu)  fast
SS      slow (hi Vth, low mu)  slow
FS      fast                   slow
SF      slow                   fast
======  =====================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..fields import integer, real
from .parameters import Technology, TechnologyError, TransistorParameters
from .stacked import TechnologyArray, TransistorParameterArray

__all__ = [
    "CornerSpec",
    "STANDARD_CORNERS",
    "apply_corner",
    "corner_technologies",
    "VariationModel",
    "sample_technology_array",
]


@dataclass(frozen=True)
class CornerSpec:
    """Relative parameter shifts defining one process corner.

    ``vth_shift_*`` are absolute voltage shifts (V); ``mobility_scale_*``
    are multiplicative factors.
    """

    name: str
    vth_shift_nmos: float
    vth_shift_pmos: float
    mobility_scale_nmos: float
    mobility_scale_pmos: float

    def describe(self) -> str:
        return (
            f"{self.name}: dVthN={self.vth_shift_nmos * 1e3:+.0f} mV, "
            f"dVthP={self.vth_shift_pmos * 1e3:+.0f} mV, "
            f"muN x{self.mobility_scale_nmos:.2f}, "
            f"muP x{self.mobility_scale_pmos:.2f}"
        )


STANDARD_CORNERS: Dict[str, CornerSpec] = {
    "TT": CornerSpec("TT", 0.0, 0.0, 1.0, 1.0),
    "FF": CornerSpec("FF", -0.05, -0.05, 1.08, 1.08),
    "SS": CornerSpec("SS", +0.05, +0.05, 0.92, 0.92),
    "FS": CornerSpec("FS", -0.05, +0.05, 1.08, 0.92),
    "SF": CornerSpec("SF", +0.05, -0.05, 0.92, 1.08),
}


def _shift_device(
    params: TransistorParameters, vth_shift: float, mobility_scale: float
) -> TransistorParameters:
    new_vth = params.vth0 + vth_shift
    if new_vth <= 0.0:
        raise TechnologyError(
            f"corner shift {vth_shift} V drives vth0 of {params.polarity} negative"
        )
    return params.scaled(vth0=new_vth, mobility=params.mobility * mobility_scale)


def apply_corner(tech: Technology, corner: CornerSpec) -> Technology:
    """Return a copy of ``tech`` shifted to the given corner.

    The corner name is appended to the technology name so that results
    keyed by technology remain unambiguous.
    """
    nmos = _shift_device(tech.nmos, corner.vth_shift_nmos, corner.mobility_scale_nmos)
    pmos = _shift_device(tech.pmos, corner.vth_shift_pmos, corner.mobility_scale_pmos)
    shifted = tech.with_transistors(nmos=nmos, pmos=pmos)
    return Technology(
        name=f"{tech.name}_{corner.name.lower()}",
        feature_size_um=shifted.feature_size_um,
        vdd=shifted.vdd,
        nmos=shifted.nmos,
        pmos=shifted.pmos,
        wire_cap_f_per_um=shifted.wire_cap_f_per_um,
        min_width_um=shifted.min_width_um,
        metal_layers=shifted.metal_layers,
        extra=dict(shifted.extra),
    )


def corner_technologies(
    tech: Technology, corners: Optional[Sequence[str]] = None
) -> Dict[str, Technology]:
    """Generate corner variants of a technology.

    Parameters
    ----------
    tech:
        The typical (TT) technology.
    corners:
        Corner names to generate; all five standard corners by default.
    """
    names = list(corners) if corners is not None else list(STANDARD_CORNERS)
    result: Dict[str, Technology] = {}
    for name in names:
        try:
            spec = STANDARD_CORNERS[name.upper()]
        except KeyError as exc:
            raise TechnologyError(f"unknown corner {name!r}") from exc
        result[spec.name] = apply_corner(tech, spec)
    return result


@dataclass(frozen=True)
class VariationModel:
    """Gaussian process-variation model for Monte-Carlo sampling.

    Sigmas are one-standard-deviation values; threshold variation is
    absolute (volts), mobility and oxide-capacitance variation are
    relative.
    """

    vth_sigma: float = 0.02
    mobility_sigma_rel: float = 0.03
    cox_sigma_rel: float = 0.02
    correlated_fraction: float = 0.6

    def __post_init__(self) -> None:
        real(
            self.correlated_fraction, "correlated_fraction", TechnologyError,
            at_least=0.0, at_most=1.0,
        )
        for name in ("vth_sigma", "mobility_sigma_rel", "cox_sigma_rel"):
            real(getattr(self, name), name, TechnologyError, at_least=0.0)


def sample_technology_array(
    tech: Technology,
    count: int,
    model: Optional[VariationModel] = None,
    seed: Optional[int] = None,
) -> TechnologyArray:
    """Draw Monte-Carlo samples of a technology in struct-of-arrays form.

    Returns one :class:`~repro.tech.stacked.TechnologyArray` holding the
    whole population (``.technologies()`` unstacks it).  A fraction of
    the variation (``correlated_fraction``) is shared between NMOS and
    PMOS (die-to-die component), the remainder is independent per
    device type (within-die component).  This mirrors how real
    inter-/intra-die variation splits and matters for the calibration
    study: fully correlated variation is removed by a one-point
    calibration, uncorrelated variation is not.  Each sample draws 3
    shared, 3 NMOS-local and 3 PMOS-local normals, in that order.
    """
    count = integer(count, "count", TechnologyError, at_least=1)
    model = model or VariationModel()
    rng = np.random.default_rng(seed)
    rho = model.correlated_fraction
    # Row i holds sample i's nine draws: shared[0:3], local_n[3:6],
    # local_p[6:9].
    draws = rng.standard_normal((count, 9))
    shared = draws[:, 0:3]
    local_n = draws[:, 3:6]
    local_p = draws[:, 6:9]
    mix_n = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * local_n
    mix_p = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * local_p

    def _vary(params: TransistorParameters, mix: np.ndarray) -> TransistorParameterArray:
        vth = params.vth0 + model.vth_sigma * mix[:, 0]
        mobility = params.mobility * (1.0 + model.mobility_sigma_rel * mix[:, 1])
        cox = params.cox_f_per_um2 * (1.0 + model.cox_sigma_rel * mix[:, 2])
        return TransistorParameterArray(
            polarity=params.polarity,
            vth0=np.maximum(vth, 0.05),
            mobility=np.maximum(mobility, 1.0),
            cox_f_per_um2=np.maximum(cox, 1e-16),
            alpha=params.alpha,
            channel_length_um=params.channel_length_um,
            vsat_cm_per_s=params.vsat_cm_per_s,
            vth_temp_coeff=params.vth_temp_coeff,
            mobility_temp_exponent=params.mobility_temp_exponent,
            vsat_temp_coeff=params.vsat_temp_coeff,
            alpha_temp_coeff=params.alpha_temp_coeff,
            body_effect_gamma=params.body_effect_gamma,
            subthreshold_slope_mv_per_dec=params.subthreshold_slope_mv_per_dec,
            junction_cap_f_per_um=params.junction_cap_f_per_um,
            overlap_cap_f_per_um=params.overlap_cap_f_per_um,
        )

    return TechnologyArray(
        name=f"{tech.name}_mcx{count}",
        feature_size_um=tech.feature_size_um,
        vdd=np.full(count, tech.vdd),
        nmos=_vary(tech.nmos, mix_n),
        pmos=_vary(tech.pmos, mix_p),
        wire_cap_f_per_um=np.full(count, tech.wire_cap_f_per_um),
        min_width_um=tech.min_width_um,
        metal_layers=tech.metal_layers,
        extras=tuple(dict(tech.extra) for _ in range(count)),
    )

