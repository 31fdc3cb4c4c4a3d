"""Circuit elements and their MNA stamps.

Every element knows how to add its (linearised) contribution to the MNA
matrix ``G`` and right-hand side ``rhs`` given the current Newton
iterate of the node voltages.  Capacitors use a backward-Euler companion
model during transient analysis and stamp nothing during DC analysis.
MOSFETs are linearised around the iterate (``gm``, ``gds`` and an
equivalent current source), which is the standard Newton-Raphson
treatment.

Index convention: node index ``-1`` is ground; stamps silently skip any
row/column with a negative index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..devices.mosfet import MosfetModel

__all__ = [
    "SimulationError",
    "StampContext",
    "CircuitElement",
    "Capacitor",
    "VoltageSource",
    "PulseVoltageSource",
    "Mosfet",
    "GROUND_NAMES",
]

#: Node names treated as the ground reference.
GROUND_NAMES = {"0", "gnd", "vss", "ground"}

#: Small conductance added from every node to ground to keep the MNA
#: matrix well conditioned even for momentarily floating nodes.
GMIN = 1.0e-12


class SimulationError(RuntimeError):
    """Raised for malformed circuits or non-convergent analyses."""


@dataclass
class StampContext:
    """Per-iteration information handed to the element stamps.

    Attributes
    ----------
    voltages:
        Current Newton iterate of the node voltages (ground excluded).
    previous_voltages:
        Node voltages at the previous accepted time point, or ``None``
        during DC analysis.
    timestep:
        Transient timestep in seconds, or ``None`` during DC analysis.
    source_scale:
        Ramping factor in [0, 1] applied to independent sources during
        DC source stepping (helps Newton converge from a cold start).
    """

    voltages: np.ndarray
    previous_voltages: Optional[np.ndarray] = None
    timestep: Optional[float] = None
    source_scale: float = 1.0
    time: float = 0.0

    @property
    def is_transient(self) -> bool:
        return self.timestep is not None

    def voltage(self, index: int) -> float:
        """Voltage at a node index (ground reads as 0 V)."""
        if index < 0:
            return 0.0
        return float(self.voltages[index])

    def previous_voltage(self, index: int) -> float:
        if index < 0 or self.previous_voltages is None:
            return 0.0
        return float(self.previous_voltages[index])


def _add(matrix: np.ndarray, row: int, col: int, value: float) -> None:
    if row >= 0 and col >= 0:
        matrix[row, col] += value


def _add_rhs(rhs: np.ndarray, row: int, value: float) -> None:
    if row >= 0:
        rhs[row] += value


@dataclass
class CircuitElement:
    """Base class: an element connected to a set of node indices."""

    name: str

    def nodes(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def stamp(
        self,
        matrix: np.ndarray,
        rhs: np.ndarray,
        context: StampContext,
        branch_index: Optional[int] = None,
    ) -> None:
        raise NotImplementedError

    def requires_branch(self) -> bool:
        """Whether the element adds an MNA branch-current unknown."""
        return False


@dataclass
class Capacitor(CircuitElement):
    node_a: int = -1
    node_b: int = -1
    farads: float = 1.0e-15

    def __post_init__(self) -> None:
        if self.farads <= 0.0:
            raise SimulationError(f"capacitor {self.name}: capacitance must be positive")

    def nodes(self) -> Tuple[int, ...]:
        return (self.node_a, self.node_b)

    def stamp(self, matrix, rhs, context, branch_index=None) -> None:
        if not context.is_transient:
            return
        geq = self.farads / context.timestep
        v_prev = context.previous_voltage(self.node_a) - context.previous_voltage(
            self.node_b
        )
        ieq = geq * v_prev
        _add(matrix, self.node_a, self.node_a, geq)
        _add(matrix, self.node_b, self.node_b, geq)
        _add(matrix, self.node_a, self.node_b, -geq)
        _add(matrix, self.node_b, self.node_a, -geq)
        _add_rhs(rhs, self.node_a, ieq)
        _add_rhs(rhs, self.node_b, -ieq)


@dataclass
class VoltageSource(CircuitElement):
    node_a: int = -1  # positive terminal
    node_b: int = -1  # negative terminal
    voltage: float = 0.0

    def nodes(self) -> Tuple[int, ...]:
        return (self.node_a, self.node_b)

    def requires_branch(self) -> bool:
        return True

    def stamp(self, matrix, rhs, context, branch_index=None) -> None:
        if branch_index is None:
            raise SimulationError(
                f"voltage source {self.name}: missing branch index"
            )
        _add(matrix, self.node_a, branch_index, 1.0)
        _add(matrix, branch_index, self.node_a, 1.0)
        _add(matrix, self.node_b, branch_index, -1.0)
        _add(matrix, branch_index, self.node_b, -1.0)
        rhs[branch_index] += self.voltage * context.source_scale


@dataclass
class PulseVoltageSource(CircuitElement):
    """A trapezoidal pulse voltage source (SPICE ``PULSE`` equivalent).

    Used by the cell characterisation benches to apply an input edge with
    a controlled slew.  The waveform starts at ``initial_v``, switches to
    ``pulsed_v`` after ``delay`` with linear ramps of ``rise`` / ``fall``
    seconds, stays high for ``width`` and repeats every ``period`` (no
    repetition if ``period`` is zero or shorter than one pulse).
    """

    node_a: int = -1
    node_b: int = -1
    initial_v: float = 0.0
    pulsed_v: float = 1.0
    delay: float = 0.0
    rise: float = 1.0e-12
    fall: float = 1.0e-12
    width: float = 1.0e-9
    period: float = 0.0

    def nodes(self) -> Tuple[int, ...]:
        return (self.node_a, self.node_b)

    def requires_branch(self) -> bool:
        return True

    def value_at(self, time: float) -> float:
        """Instantaneous source voltage at ``time`` seconds."""
        t = time - self.delay
        if t < 0.0:
            return self.initial_v
        cycle = self.rise + self.width + self.fall
        if self.period > cycle:
            t = t % self.period
        if t < self.rise:
            frac = t / self.rise if self.rise > 0 else 1.0
            return self.initial_v + frac * (self.pulsed_v - self.initial_v)
        if t < self.rise + self.width:
            return self.pulsed_v
        if t < cycle:
            frac = (t - self.rise - self.width) / self.fall if self.fall > 0 else 1.0
            return self.pulsed_v + frac * (self.initial_v - self.pulsed_v)
        return self.initial_v

    def stamp(self, matrix, rhs, context, branch_index=None) -> None:
        if branch_index is None:
            raise SimulationError(
                f"pulse source {self.name}: missing branch index"
            )
        _add(matrix, self.node_a, branch_index, 1.0)
        _add(matrix, branch_index, self.node_a, 1.0)
        _add(matrix, self.node_b, branch_index, -1.0)
        _add(matrix, branch_index, self.node_b, -1.0)
        rhs[branch_index] += self.value_at(context.time) * context.source_scale


@dataclass
class Mosfet(CircuitElement):
    """A MOSFET instance wrapping a :class:`MosfetModel`.

    For NMOS the model frame is used directly (``vgs = Vg - Vs``,
    ``vds = Vd - Vs`` with current flowing drain -> source).  For PMOS
    the frame is mirrored (``vsg``, ``vsd``) and the current direction
    reversed, so the same positive-magnitude model serves both.
    """

    drain: int = -1
    gate: int = -1
    source: int = -1
    model: Optional[MosfetModel] = None

    def __post_init__(self) -> None:
        if self.model is None:
            raise SimulationError(f"mosfet {self.name}: a MosfetModel is required")

    def nodes(self) -> Tuple[int, ...]:
        return (self.drain, self.gate, self.source)

    @property
    def is_pmos(self) -> bool:
        return self.model.params.polarity == "pmos"

    def _bias(self, context: StampContext) -> Tuple[float, float]:
        vd = context.voltage(self.drain)
        vg = context.voltage(self.gate)
        vs = context.voltage(self.source)
        if self.is_pmos:
            return vs - vg, vs - vd
        return vg - vs, vd - vs

    def stamp(self, matrix, rhs, context, branch_index=None) -> None:
        vgs, vds = self._bias(context)
        op = self.model.operating_point(vgs, vds)
        gm = max(op.gm, 0.0)
        gds = max(op.gds, GMIN)
        ids = op.ids

        # Equivalent current source of the linearised device (own frame):
        # i = ids - gm * vgs - gds * vds  evaluated at the iterate.
        ieq = ids - gm * vgs - gds * vds

        d, g, s = self.drain, self.gate, self.source

        # The Jacobian (conductance) stamps are identical for NMOS and
        # PMOS when expressed in terms of the real terminal voltages: for
        # the NMOS frame I_ds = f(vg - vs, vd - vs), for the PMOS frame
        # I_sd = f(vs - vg, vs - vd) and the current direction reverses,
        # so both sign flips cancel in the partial derivatives.  Only the
        # constant (equivalent-source) term keeps track of the direction.
        _add(matrix, d, g, gm)
        _add(matrix, d, s, -gm - gds)
        _add(matrix, d, d, gds)
        _add(matrix, s, g, -gm)
        _add(matrix, s, s, gm + gds)
        _add(matrix, s, d, -gds)

        if self.is_pmos:
            # Current ieq flows out of the source node into the drain node.
            _add_rhs(rhs, d, ieq)
            _add_rhs(rhs, s, -ieq)
        else:
            # Current ieq flows out of the drain node into the source node.
            _add_rhs(rhs, d, -ieq)
            _add_rhs(rhs, s, ieq)

        # Leak conductance to ground for numerical robustness.
        _add(matrix, d, d, GMIN)
        _add(matrix, s, s, GMIN)
