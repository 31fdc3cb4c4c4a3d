"""Standard-cell abstraction.

A :class:`StandardCell` bundles everything the rest of the library needs
to know about one library gate:

* its logical topology (how many inputs, how deep the NMOS/PMOS stacks
  are) via :class:`CellTopology`,
* its transistor sizing,
* its capacitive footprint (input capacitance per pin, output parasitic
  capacitance),
* its propagation delays versus temperature and load, evaluated with the
  analytical alpha-power model, and
* a transistor-level netlist builder so the same cell can be dropped
  into the MNA simulator (used for the Fig. 1 waveform and for
  validating the analytical model).

Only *inverting* single-stage gates are useful as ring-oscillator
stages; the topology records that property and the ring builder checks
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..delay.alpha_power import (
    DelayModelOptions,
    DriveKey,
    DriveNetwork,
    drive_currents,
    switching_delay,
)
from ..delay.load import input_capacitance, output_parasitic_capacitance
from ..devices.mosfet import DeviceSizing, MosfetModel
from ..fields import ReproInputError, integer, real
from ..tech.parameters import Technology
from ..tech.stacked import TechnologyArray

__all__ = ["CellTopology", "GateDelays", "StandardCell", "CellError"]


class CellError(ReproInputError):
    """Raised for invalid cell definitions or invalid cell usage."""


@dataclass(frozen=True)
class CellTopology:
    """Structural description of a single-stage static CMOS gate.

    Attributes
    ----------
    kind:
        ``"INV"``, ``"NAND"``, ``"NOR"`` or ``"BUF"``.
    fan_in:
        Number of logic inputs (1 for INV/BUF).
    nmos_stack_depth / pmos_stack_depth:
        Series devices between the output and the respective rail along
        the switching path.
    nmos_drains_on_output / pmos_drains_on_output:
        How many drains of each polarity load the output node (sets the
        parasitic output capacitance).
    inverting:
        Whether the gate inverts; ring-oscillator stages must invert.
    stages:
        Number of internal stages (1 for simple gates, 2 for BUF).
    """

    kind: str
    fan_in: int
    nmos_stack_depth: int
    pmos_stack_depth: int
    nmos_drains_on_output: int
    pmos_drains_on_output: int
    inverting: bool = True
    stages: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("INV", "NAND", "NOR", "BUF"):
            raise CellError(f"unsupported cell kind {self.kind!r}")
        for name in (
            "fan_in",
            "nmos_stack_depth",
            "pmos_stack_depth",
            "nmos_drains_on_output",
            "pmos_drains_on_output",
            "stages",
        ):
            integer(getattr(self, name), name, CellError, at_least=1)

    @staticmethod
    def inverter() -> "CellTopology":
        return CellTopology("INV", 1, 1, 1, 1, 1, inverting=True)

    @staticmethod
    def nand(fan_in: int) -> "CellTopology":
        fan_in = integer(fan_in, "fan_in", CellError, at_least=2)
        return CellTopology(
            "NAND",
            fan_in,
            nmos_stack_depth=fan_in,
            pmos_stack_depth=1,
            nmos_drains_on_output=1,
            pmos_drains_on_output=fan_in,
            inverting=True,
        )

    @staticmethod
    def nor(fan_in: int) -> "CellTopology":
        fan_in = integer(fan_in, "fan_in", CellError, at_least=2)
        return CellTopology(
            "NOR",
            fan_in,
            nmos_stack_depth=1,
            pmos_stack_depth=fan_in,
            nmos_drains_on_output=fan_in,
            pmos_drains_on_output=1,
            inverting=True,
        )

    @staticmethod
    def buffer() -> "CellTopology":
        return CellTopology("BUF", 1, 1, 1, 1, 1, inverting=False, stages=2)


@dataclass(frozen=True)
class GateDelays:
    """Propagation delays of one gate at one operating point.

    When produced by a vectorized evaluation (ndarray of temperatures)
    ``tphl``/``tplh`` hold matching ndarrays and every derived property
    broadcasts elementwise.
    """

    tphl: Union[float, np.ndarray]
    tplh: Union[float, np.ndarray]

    @property
    def pair_sum(self) -> float:
        """tpHL + tpLH — the per-stage contribution to a ring period."""
        return self.tphl + self.tplh


class StandardCell:
    """One gate of the standard-cell library.

    Parameters
    ----------
    name:
        Library name, e.g. ``"INV_X1"``.
    technology:
        The CMOS technology the cell is implemented in.
    topology:
        Structural description.
    nmos_width_um / pmos_width_um:
        Width of each individual NMOS / PMOS transistor.  All transistors
        of a polarity share one width, which matches how simple library
        cells are drawn.
    delay_options:
        Stack-model / fit-factor options for the analytical delay model.
    """

    def __init__(
        self,
        name: str,
        technology: Technology,
        topology: CellTopology,
        nmos_width_um: float,
        pmos_width_um: float,
        delay_options: Optional[DelayModelOptions] = None,
    ) -> None:
        least = technology.min_width_um - 1e-12
        self.nmos_width_um = real(nmos_width_um, f"{name}.nmos_width_um", CellError, at_least=least)
        self.pmos_width_um = real(pmos_width_um, f"{name}.pmos_width_um", CellError, at_least=least)
        self.name = name
        self.technology = technology
        self.topology = topology
        self.delay_options = delay_options or DelayModelOptions()

    def rebind(self, technology) -> "StandardCell":
        """A copy of this cell implemented in another technology.

        Name, topology, sizing and delay options are kept; ``technology``
        may be a stacked population
        (:class:`~repro.tech.stacked.TechnologyArray`).
        """
        return StandardCell(
            name=self.name,
            technology=technology,
            topology=self.topology,
            nmos_width_um=self.nmos_width_um,
            pmos_width_um=self.pmos_width_um,
            delay_options=self.delay_options,
        )

    # ------------------------------------------------------------------ #
    # capacitances and geometry
    # ------------------------------------------------------------------ #

    def input_capacitance(self) -> float:
        """Capacitance (F) presented by one driven input pin."""
        return input_capacitance(self.technology, self.nmos_width_um, self.pmos_width_um)

    def output_parasitic_capacitance(self) -> float:
        """Self-loading drain capacitance (F) on the output node."""
        return output_parasitic_capacitance(
            self.technology,
            self.nmos_width_um,
            self.pmos_width_um,
            nmos_on_output=self.topology.nmos_drains_on_output,
            pmos_on_output=self.topology.pmos_drains_on_output,
        )

    def area_um2(self) -> float:
        """First-order layout area estimate (active width times pitch)."""
        pitch_um = 8.0 * self.technology.feature_size_um
        total_width = self.topology.fan_in * (self.nmos_width_um + self.pmos_width_um)
        return total_width * pitch_um * self.topology.stages

    @property
    def width_ratio(self) -> float:
        """PMOS-to-NMOS width ratio of the cell."""
        return self.pmos_width_um / self.nmos_width_um

    # ------------------------------------------------------------------ #
    # analytical delays
    # ------------------------------------------------------------------ #

    def drive_keys(self) -> Tuple[DriveKey, DriveKey]:
        """The pull-down and pull-up networks, each with the cell's stack model.

        These are the keys :func:`~repro.delay.alpha_power.drive_currents`
        evaluates for the cell's falling (tpHL) and rising (tpLH)
        transitions; the ring kernel gathers them across a ring's or a
        bank's unique cells so each distinct network is evaluated once
        per call.
        """
        stack = self.delay_options.stack
        pull_down = DriveNetwork(
            polarity="nmos",
            width_um=self.nmos_width_um,
            stack_depth=self.topology.nmos_stack_depth,
        )
        pull_up = DriveNetwork(
            polarity="pmos",
            width_um=self.pmos_width_um,
            stack_depth=self.topology.pmos_stack_depth,
        )
        return (pull_down, stack), (pull_up, stack)

    def delays(
        self, temperature_c: Union[float, np.ndarray], load_f: Union[float, np.ndarray]
    ) -> GateDelays:
        """Propagation delays at a junction temperature and external load.

        The external load is increased by the cell's own output parasitic
        capacitance before the alpha-power delay model is applied.
        ``temperature_c`` may be an ndarray, in which case the returned
        :class:`GateDelays` holds delay arrays evaluated over the whole
        grid in one vectorized call.  ``load_f`` may also be an ndarray
        (e.g. a load grid, or the per-sample loads of a stacked
        technology) as long as it broadcasts against the temperature
        argument; a cell bound to a
        :class:`~repro.tech.stacked.TechnologyArray` evaluates the whole
        ``(sample x temperature)`` population in this one call.
        """
        down_key, up_key = self.drive_keys()
        currents = drive_currents(self.technology, (down_key, up_key), temperature_c)
        return self.delays_from_currents(currents[down_key], currents[up_key], load_f)

    def delays_from_currents(
        self,
        pull_down_current: Union[float, np.ndarray],
        pull_up_current: Union[float, np.ndarray],
        load_f: Union[float, np.ndarray],
    ) -> GateDelays:
        """Propagation delays from the currents of :meth:`drive_keys`.

        The load half of :meth:`delays`: the external load plus the
        cell's output parasitics, driven by the given pull-down and
        pull-up currents.  A ring stage's ``tpHL + tpLH`` from here
        equals, to rounding, its cell's delay per farad times its total
        load, the form :meth:`RingOscillator.period_series` sums.
        """
        if np.any(np.asarray(load_f) < 0.0):
            raise CellError("load capacitance must be non-negative")
        if not self.topology.inverting and self.topology.kind != "BUF":
            raise CellError(f"cell {self.name} has an unsupported topology")
        tech = self.technology
        options = self.delay_options
        total_load = load_f + self.output_parasitic_capacitance()
        tphl = switching_delay(tech, pull_down_current, total_load, options)
        tplh = switching_delay(tech, pull_up_current, total_load, options)
        if self.topology.stages == 2:
            # A buffer is two inverting stages back to back; the first
            # stage drives the second stage's input capacitance.
            internal_load = self.input_capacitance() + self.output_parasitic_capacitance()
            first_hl = switching_delay(tech, pull_down_current, internal_load, options)
            first_lh = switching_delay(tech, pull_up_current, internal_load, options)
            # Output falling edge is produced by first stage rising then
            # second stage falling, and vice versa.
            tphl, tplh = first_lh + tphl, first_hl + tplh
        return GateDelays(tphl=tphl, tplh=tplh)

    # ------------------------------------------------------------------ #
    # transistor-level netlist
    # ------------------------------------------------------------------ #

    def build_into(
        self,
        circuit: Circuit,
        input_node: str,
        output_node: str,
        vdd_node: str,
        temperature_k: float,
        instance: str = "",
    ) -> None:
        """Instantiate the cell's transistors into ``circuit``.

        Only one input is driven (``input_node``); the remaining inputs
        of NAND/NOR cells are tied to their non-controlling value (VDD
        for NAND, ground for NOR) so the gate behaves as an inverter —
        exactly how the paper wires complex gates into the ring
        oscillator.  The driven transistor is placed closest to the
        output node, the usual worst-case convention.
        """
        if self.topology.kind == "BUF":
            raise CellError(
                "transistor-level netlists are only generated for single-stage "
                "inverting cells (INV/NAND/NOR)"
            )
        if isinstance(self.technology, TechnologyArray):
            raise CellError(
                f"cell {self.name} is bound to a stacked technology population; "
                "netlists need one concrete sample — unstack it with "
                "TechnologyArray.technology_at(index) first"
            )
        prefix = instance or f"{self.name}_{len(circuit.elements)}"
        tech = self.technology

        def nmos_model() -> MosfetModel:
            return MosfetModel(
                tech.nmos, DeviceSizing(self.nmos_width_um), temperature_k
            )

        def pmos_model() -> MosfetModel:
            return MosfetModel(
                tech.pmos, DeviceSizing(self.pmos_width_um), temperature_k
            )

        n_depth = self.topology.nmos_stack_depth
        p_depth = self.topology.pmos_stack_depth
        fan_in = self.topology.fan_in

        # --- pull-down network -------------------------------------------------
        if n_depth == 1:
            # fan_in parallel NMOS devices, only one driven (others off at gnd
            # for NOR); for INV there is exactly one.
            circuit.add_mosfet(
                output_node, input_node, "gnd", nmos_model(), name=f"{prefix}_MN0"
            )
            for index in range(1, fan_in):
                circuit.add_mosfet(
                    output_node, "gnd", "gnd", nmos_model(), name=f"{prefix}_MN{index}"
                )
        else:
            # Series stack from output down to ground; driven device on top.
            previous = output_node
            for index in range(n_depth):
                is_last = index == n_depth - 1
                node_below = "gnd" if is_last else f"{prefix}_n{index}"
                gate = input_node if index == 0 else vdd_node
                circuit.add_mosfet(
                    previous, gate, node_below, nmos_model(), name=f"{prefix}_MN{index}"
                )
                previous = node_below

        # --- pull-up network ---------------------------------------------------
        if p_depth == 1:
            circuit.add_mosfet(
                output_node, input_node, vdd_node, pmos_model(), name=f"{prefix}_MP0"
            )
            for index in range(1, fan_in):
                circuit.add_mosfet(
                    output_node, vdd_node, vdd_node, pmos_model(), name=f"{prefix}_MP{index}"
                )
        else:
            # Series stack from VDD down to output; driven device next to the
            # output.
            previous = vdd_node
            for index in range(p_depth):
                is_last = index == p_depth - 1
                node_below = output_node if is_last else f"{prefix}_p{index}"
                gate = input_node if is_last else "gnd"
                circuit.add_mosfet(
                    previous, gate, node_below, pmos_model(), name=f"{prefix}_MP{index}"
                )
                previous = node_below

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.topology.kind}{self.topology.fan_in if self.topology.fan_in > 1 else ''} "
            f"Wn={self.nmos_width_um:.2f}um Wp={self.pmos_width_um:.2f}um "
            f"Cin={self.input_capacitance() * 1e15:.2f}fF"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StandardCell({self.name!r})"

