"""Netlist container for the transistor-level circuit simulator.

The simulator is a small, self-contained modified-nodal-analysis (MNA)
engine: enough to simulate ring oscillators, standard cells driving
capacitive loads, and the small test fixtures used by the cell
characterisation flow — it is not, and does not try to be, a general
SPICE replacement.

A :class:`Circuit` owns a set of named nodes and a list of elements.
Node ``"0"`` (aliases ``"gnd"``, ``"vss"``) is the ground reference and
is always present.  Elements are created through the ``add_*`` helpers
which also perform node registration, so user code never deals with
matrix indices directly.
"""

from __future__ import annotations

from typing import Dict, List

from ..devices.mosfet import MosfetModel
from .elements import (
    Capacitor,
    CircuitElement,
    GROUND_NAMES,
    Mosfet,
    PulseVoltageSource,
    SimulationError,
    VoltageSource,
)

__all__ = ["Circuit", "SimulationError"]


class Circuit:
    """A flat transistor-level netlist.

    Parameters
    ----------
    name:
        Identifier used in error messages and result labels.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._node_index: Dict[str, int] = {}
        self._node_names: List[str] = []
        self.elements: List[CircuitElement] = []
        self.initial_conditions: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # nodes
    # ------------------------------------------------------------------ #

    @staticmethod
    def _canonical(node: str) -> str:
        node = str(node).strip().lower()
        if node in GROUND_NAMES:
            return "0"
        return node

    def node(self, name: str) -> int:
        """Return the matrix index of a node, registering it if new.

        Ground maps to index ``-1`` and never appears in the MNA system.
        """
        canonical = self._canonical(name)
        if canonical == "0":
            return -1
        if canonical not in self._node_index:
            self._node_index[canonical] = len(self._node_names)
            self._node_names.append(canonical)
        return self._node_index[canonical]

    def node_names(self) -> List[str]:
        """Names of all non-ground nodes in matrix order."""
        return list(self._node_names)

    @property
    def node_count(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_names)

    def index_of(self, name: str) -> int:
        """Matrix index of an *existing* node (ground returns -1)."""
        canonical = self._canonical(name)
        if canonical == "0":
            return -1
        try:
            return self._node_index[canonical]
        except KeyError as exc:
            raise SimulationError(
                f"circuit {self.name!r} has no node named {name!r}"
            ) from exc

    # ------------------------------------------------------------------ #
    # element construction helpers
    # ------------------------------------------------------------------ #

    def _register(self, element: CircuitElement) -> CircuitElement:
        self.elements.append(element)
        return element

    def add_capacitor(
        self, node_a: str, node_b: str, farads: float, name: str = ""
    ) -> Capacitor:
        """Add a linear capacitor between two nodes."""
        element = Capacitor(
            name=name or f"C{len(self.elements)}",
            node_a=self.node(node_a),
            node_b=self.node(node_b),
            farads=farads,
        )
        return self._register(element)  # type: ignore[return-value]

    def add_voltage_source(
        self, node_pos: str, node_neg: str, voltage: float, name: str = ""
    ) -> VoltageSource:
        """Add an ideal DC voltage source (used for supply rails)."""
        element = VoltageSource(
            name=name or f"V{len(self.elements)}",
            node_a=self.node(node_pos),
            node_b=self.node(node_neg),
            voltage=voltage,
        )
        return self._register(element)  # type: ignore[return-value]

    def add_pulse_source(
        self,
        node_pos: str,
        node_neg: str,
        initial_v: float,
        pulsed_v: float,
        delay: float = 0.0,
        rise: float = 1.0e-12,
        fall: float = 1.0e-12,
        width: float = 1.0e-9,
        period: float = 0.0,
        name: str = "",
    ) -> PulseVoltageSource:
        """Add a trapezoidal pulse voltage source (input stimulus)."""
        element = PulseVoltageSource(
            name=name or f"VP{len(self.elements)}",
            node_a=self.node(node_pos),
            node_b=self.node(node_neg),
            initial_v=initial_v,
            pulsed_v=pulsed_v,
            delay=delay,
            rise=rise,
            fall=fall,
            width=width,
            period=period,
        )
        return self._register(element)  # type: ignore[return-value]

    def add_mosfet(
        self,
        drain: str,
        gate: str,
        source: str,
        model: MosfetModel,
        name: str = "",
    ) -> Mosfet:
        """Add a MOSFET; polarity is taken from the attached model."""
        element = Mosfet(
            name=name or f"M{len(self.elements)}",
            drain=self.node(drain),
            gate=self.node(gate),
            source=self.node(source),
            model=model,
        )
        return self._register(element)  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # initial conditions
    # ------------------------------------------------------------------ #

    def set_initial_condition(self, node: str, voltage: float) -> None:
        """Pin a node voltage at t = 0 of a transient analysis."""
        canonical = self._canonical(node)
        if canonical == "0":
            raise SimulationError("cannot set an initial condition on ground")
        # Register the node so the IC survives even if set before elements.
        self.node(canonical)
        self.initial_conditions[canonical] = float(voltage)

    def set_initial_conditions(self, conditions: Dict[str, float]) -> None:
        """Pin several node voltages at t = 0."""
        for node, voltage in conditions.items():
            self.set_initial_condition(node, voltage)

    # ------------------------------------------------------------------ #
    # bookkeeping used by the solvers
    # ------------------------------------------------------------------ #

    def voltage_sources(self) -> List[CircuitElement]:
        """Elements that contribute an MNA branch unknown (V and pulse sources)."""
        return [e for e in self.elements if e.requires_branch()]

    def system_size(self) -> int:
        """Dimension of the MNA system: nodes plus voltage-source branches."""
        return self.node_count + len(self.voltage_sources())

    def validate(self) -> None:
        """Basic sanity checks before simulation.

        Raises :class:`SimulationError` if the circuit has no elements,
        no ground-referenced path, or duplicated element names.
        """
        if not self.elements:
            raise SimulationError(f"circuit {self.name!r} has no elements")
        names = [e.name for e in self.elements]
        if len(names) != len(set(names)):
            raise SimulationError(f"circuit {self.name!r} has duplicate element names")
        touches_ground = any(
            -1 in element.nodes() for element in self.elements
        )
        if not touches_ground:
            raise SimulationError(
                f"circuit {self.name!r} has no element connected to ground; "
                "the nodal equations would be singular"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, nodes={self.node_count}, "
            f"elements={len(self.elements)})"
        )
