"""Technology and PVT (process/voltage/temperature) models.

Public surface:

* :class:`~repro.tech.parameters.Technology` and
  :class:`~repro.tech.parameters.TransistorParameters` — parameter
  containers.
* :data:`~repro.tech.libraries.CMOS035` (and smaller nodes) — predefined
  technologies declared as data bundles; the paper's experiments use the
  0.35 um node.
* :mod:`~repro.tech.registry` — the content-addressed registry: each
  node is a validated declarative bundle with a stable SHA-256 digest
  (:func:`~repro.tech.registry.technology_digest`), which is what sweep
  serialization and the serve caches key on.
* :mod:`~repro.tech.temperature` — temperature dependence of mobility,
  threshold voltage and saturation velocity.
* :mod:`~repro.tech.corners` — process corners and Monte-Carlo sampling.
* :mod:`~repro.tech.stacked` — struct-of-arrays populations
  (:class:`~repro.tech.stacked.TechnologyArray`) that broadcast a whole
  Monte-Carlo/corner sample set through the delay stack in one pass.
* :mod:`~repro.tech.scaling` — constant-field scaling helpers.
"""

from .parameters import (
    CELSIUS_OFFSET,
    T_NOMINAL_K,
    Technology,
    TechnologyError,
    TransistorParameters,
    celsius_to_kelvin,
    kelvin_to_celsius,
)
from .temperature import (
    DeviceAtTemperature,
    device_at,
    thermal_voltage,
)
from .registry import (
    TechnologyRegistry,
    TechnologySpec,
    default_registry,
    technology_digest,
)
from .libraries import (
    CMOS013,
    CMOS018,
    CMOS025,
    CMOS035,
    available_technologies,
    get_technology,
    get_technology_digest,
    register_technology,
)
from .corners import (
    STANDARD_CORNERS,
    CornerSpec,
    VariationModel,
    apply_corner,
    corner_technologies,
    sample_technology_array,
)
from .stacked import (
    TechnologyArray,
    TransistorParameterArray,
    stack_technologies,
    stack_transistor_parameters,
)
from .scaling import ScalingRules, power_density_scaling_factor, scale_technology

__all__ = [
    "CELSIUS_OFFSET",
    "T_NOMINAL_K",
    "Technology",
    "TechnologyError",
    "TransistorParameters",
    "celsius_to_kelvin",
    "kelvin_to_celsius",
    "DeviceAtTemperature",
    "device_at",
    "thermal_voltage",
    "TechnologyRegistry",
    "TechnologySpec",
    "default_registry",
    "technology_digest",
    "CMOS013",
    "CMOS018",
    "CMOS025",
    "CMOS035",
    "available_technologies",
    "get_technology",
    "get_technology_digest",
    "register_technology",
    "STANDARD_CORNERS",
    "CornerSpec",
    "VariationModel",
    "apply_corner",
    "corner_technologies",
    "sample_technology_array",
    "TechnologyArray",
    "TransistorParameterArray",
    "stack_technologies",
    "stack_transistor_parameters",
    "ScalingRules",
    "power_density_scaling_factor",
    "scale_technology",
]
