"""Ring-oscillator construction, period models, configurations and banks."""

from .bank import ConfigurationBank
from .config import (
    PAPER_FIG3_CONFIGURATIONS,
    ConfigurationError,
    RingConfiguration,
    paper_fig3_configurations,
)
from .ring import RingOscillator, RingStage
from .period import (
    TemperatureResponse,
    analytical_response,
    default_temperature_grid,
    paper_temperature_grid,
    validate_temperature_grid,
)

__all__ = [
    "ConfigurationBank",
    "PAPER_FIG3_CONFIGURATIONS",
    "ConfigurationError",
    "RingConfiguration",
    "paper_fig3_configurations",
    "RingOscillator",
    "RingStage",
    "TemperatureResponse",
    "analytical_response",
    "default_temperature_grid",
    "paper_temperature_grid",
    "validate_temperature_grid",
]
