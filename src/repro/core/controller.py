"""Measurement-sequencing controller.

The paper lists three "smart" features of its thermal-management unit:
the oscillator can be *disabled* to minimise self-heating, an output
signal indicates that a *measurement is in progress*, and several ring
oscillators can be *multiplexed*.  The first two are the job of the
controller modelled here: a small finite-state machine that enables the
ring only for the duration of a conversion and exposes the busy flag.

The model is cycle-based on the reference clock: :meth:`step` advances
one reference cycle, which is the natural granularity of the counter
readout.  It is a behavioural model of the control FSM, not a gate-level
netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..fields import integer
from ..tech.parameters import TechnologyError
from .readout import ReadoutConfig

__all__ = [
    "ControllerState",
    "ControllerConfig",
    "ControllerStatus",
    "MeasurementController",
    "conversion_time_s",
]


class ControllerState(Enum):
    """States of the measurement FSM."""

    IDLE = "idle"
    SETTLE = "settle"
    MEASURE = "measure"
    DONE = "done"


@dataclass(frozen=True)
class ControllerConfig:
    """Timing parameters of the controller.

    Attributes
    ----------
    settle_cycles:
        Reference cycles the oscillator is allowed to run before the
        gating window opens (start-up settling, matches the skip-cycles
        convention of the period extraction).
    done_cycles:
        Reference cycles the DONE state is held so downstream logic can
        latch the result.
    auto_disable:
        Whether the oscillator is switched off as soon as the window
        closes (the paper's anti-self-heating feature).  When false the
        ring free-runs between measurements.
    """

    settle_cycles: int = 8
    done_cycles: int = 2
    auto_disable: bool = True

    def __post_init__(self) -> None:
        integer(self.settle_cycles, "settle_cycles", TechnologyError, at_least=0)
        integer(self.done_cycles, "done_cycles", TechnologyError, at_least=1)


@dataclass(frozen=True)
class ControllerStatus:
    """Externally visible outputs of the controller after one cycle."""

    state: ControllerState
    oscillator_enabled: bool
    busy: bool
    data_valid: bool
    cycles_in_state: int


class MeasurementController:
    """Reference-clock-cycle behavioural model of the measurement FSM.

    Parameters
    ----------
    readout:
        Readout configuration; defines how long the MEASURE state lasts.
    config:
        Controller timing configuration.
    """

    def __init__(
        self,
        readout: ReadoutConfig = ReadoutConfig(),
        config: ControllerConfig = ControllerConfig(),
    ) -> None:
        self.readout = readout
        self.config = config
        self._state = ControllerState.IDLE
        self._cycles_in_state = 0
        self._start_pending = False
        self._enabled_cycles_total = 0
        self._measurements_completed = 0

    # ------------------------------------------------------------------ #
    # commands
    # ------------------------------------------------------------------ #

    def request_measurement(self) -> None:
        """Assert the start request; honoured at the next IDLE cycle."""
        self._start_pending = True

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> ControllerState:
        return self._state

    @property
    def busy(self) -> bool:
        """The paper's "measurement in progress" output."""
        return self._state in (ControllerState.SETTLE, ControllerState.MEASURE)

    @property
    def oscillator_enabled(self) -> bool:
        if self._state in (ControllerState.SETTLE, ControllerState.MEASURE):
            return True
        return not self.config.auto_disable

    def duty_cycle(self, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` the oscillator was enabled."""
        total_cycles = integer(total_cycles, "total_cycles", TechnologyError, at_least=1)
        return min(1.0, self._enabled_cycles_total / total_cycles)

    # ------------------------------------------------------------------ #
    # evolution
    # ------------------------------------------------------------------ #

    def step(self) -> ControllerStatus:
        """Advance one reference-clock cycle and return the visible outputs."""
        state = self._state
        next_state = state
        data_valid = False

        if state is ControllerState.IDLE:
            if self._start_pending:
                self._start_pending = False
                next_state = (
                    ControllerState.SETTLE
                    if self.config.settle_cycles > 0
                    else ControllerState.MEASURE
                )
        elif state is ControllerState.SETTLE:
            if self._cycles_in_state + 1 >= self.config.settle_cycles:
                next_state = ControllerState.MEASURE
        elif state is ControllerState.MEASURE:
            if self._cycles_in_state + 1 >= self.readout.window_cycles:
                next_state = ControllerState.DONE
        elif state is ControllerState.DONE:
            data_valid = True
            if self._cycles_in_state + 1 >= self.config.done_cycles:
                self._measurements_completed += 1
                next_state = ControllerState.IDLE

        if self.oscillator_enabled:
            self._enabled_cycles_total += 1

        if next_state is not state:
            self._cycles_in_state = 0
        else:
            self._cycles_in_state += 1
        self._state = next_state

        return ControllerStatus(
            state=self._state,
            oscillator_enabled=self.oscillator_enabled,
            busy=self.busy,
            data_valid=data_valid,
            cycles_in_state=self._cycles_in_state,
        )

    def run_measurement(self) -> int:
        """Run one full measurement and return the number of cycles it took."""
        self.request_measurement()
        cycles = 0
        limit = (
            self.config.settle_cycles
            + self.readout.window_cycles
            + self.config.done_cycles
            + 8
        )
        completed_before = self._measurements_completed
        while self._measurements_completed == completed_before:
            self.step()
            cycles += 1
            if cycles > limit:
                raise TechnologyError(
                    "controller did not complete a measurement within the expected time"
                )
        return cycles


def conversion_time_s(
    readout: ReadoutConfig, config: ControllerConfig = ControllerConfig()
) -> float:
    """Duration of one measurement (s): one walk of a fresh controller FSM.

    The FSM is deterministic, so every measurement of a unit with this
    readout and controller configuration takes exactly this long.
    """
    cycles = MeasurementController(readout, config).run_measurement()
    return cycles / readout.reference_clock_hz
