"""Period-to-digital conversion.

The paper's smart unit contains "an additional digital processing block
to convert the oscillation period to temperature expressed in digital
format".  The standard cell-friendly way to do that — and the one
modelled here — is a counter gated by a reference-clock window:

* the ring oscillator output clocks a counter,
* the counter is enabled for a fixed number of reference-clock cycles
  (the *gating window*),
* the final count is ``floor(window / period)``, a digital code that
  decreases as temperature (and therefore period) rises.

The counter is a pure behavioural model: it models the quantisation
and saturation of the hardware, not its gate-level structure.  The
conversion time is the controller's (:mod:`repro.core.controller`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..fields import integer, real
from ..tech.parameters import TechnologyError

__all__ = ["ReadoutConfig", "PeriodCounter"]


@dataclass(frozen=True)
class ReadoutConfig:
    """Parameters of the counter-based readout.

    Attributes
    ----------
    reference_clock_hz:
        Frequency of the system reference clock that defines the gating
        window.
    window_cycles:
        Length of the gating window in reference-clock cycles.
    counter_bits:
        Width of the result counter; the code saturates rather than
        wrapping, as a safe hardware implementation would.
    """

    reference_clock_hz: float = 50.0e6
    window_cycles: int = 256
    counter_bits: int = 16

    def __post_init__(self) -> None:
        for name, check, bounds in (
            ("reference_clock_hz", real, {"above": 0.0}),
            ("window_cycles", integer, {"at_least": 1}),
            ("counter_bits", integer, {"at_least": 4, "at_most": 32}),
        ):
            value = check(getattr(self, name), name, TechnologyError, **bounds)
            object.__setattr__(self, name, value)

    @property
    def window_s(self) -> float:
        """Gating-window duration in seconds."""
        return self.window_cycles / self.reference_clock_hz

    @property
    def max_code(self) -> int:
        """Largest representable counter value."""
        return (1 << self.counter_bits) - 1


class PeriodCounter:
    """Counts ring-oscillator cycles inside a reference gating window."""

    def __init__(self, config: ReadoutConfig = ReadoutConfig()) -> None:
        self.config = config

    def convert_batch(
        self, oscillation_periods_s: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Convert an array of oscillation periods (any shape) to codes.

        Returns ``(codes, saturated)`` — an integer code array and a
        boolean saturation mask of the input's shape.  Each code is
        ``floor(window / period)``, clamped to :attr:`ReadoutConfig.max_code`;
        a single reading is the 0-d case.
        """
        periods = np.asarray(oscillation_periods_s, dtype=float)
        if np.any(periods <= 0.0):
            raise TechnologyError("oscillation periods must be positive")
        ideal = self.config.window_s / periods
        # floor(ideal) > max_code iff ideal >= max_code + 1; clamp before
        # the integer cast so a huge ratio saturates instead of wrapping
        # through int64 overflow.
        saturated = ideal >= self.config.max_code + 1.0
        codes = np.floor(np.minimum(ideal, float(self.config.max_code))).astype(np.int64)
        return codes, saturated

    def codes_to_periods(self, codes: Sequence[int]) -> np.ndarray:
        """Best-estimate periods implied by codes (mid-quantisation-step)."""
        code_arr = np.asarray(codes)
        if np.any(code_arr <= 0):
            raise TechnologyError("codes must be positive to invert the conversion")
        return self.config.window_s / (code_arr + 0.5)
