"""Ring-oscillator model.

A :class:`RingOscillator` binds a :class:`~repro.oscillator.config.RingConfiguration`
to a :class:`~repro.cells.library.CellLibrary` and answers the two
questions the sensor needs:

* *analytically*: what is the oscillation period at a given junction
  temperature?  (Sum of tpHL + tpLH of every stage, each stage loaded by
  the next stage's input capacitance, its own output parasitics and a
  short local wire.)  This backs the Fig. 2 / Fig. 3 temperature sweeps.
* *at transistor level*: build the ring as an MNA netlist with explicit
  load capacitors and travelling-wave initial conditions, so the
  transient simulator can produce the start-up waveform of the paper's
  Fig. 1 and validate the analytical period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cells.cell import CellError, StandardCell
from ..cells.library import CellLibrary
from ..circuit.netlist import Circuit
from ..circuit.transient import TransientOptions, simulate_transient
from ..circuit.waveform import Waveform
from ..delay.alpha_power import DriveKey, drive_currents
from ..delay.load import wire_capacitance
from ..fields import integer, real
from ..tech.parameters import TechnologyError, celsius_to_kelvin
from ..tech.stacked import stack_technologies
from .config import ConfigurationError, RingConfiguration

__all__ = ["RingOscillator", "RingStage"]


class _PeriodPlan(NamedTuple):
    """What :meth:`RingOscillator.period_series` needs beyond the temperatures.

    ``groups`` holds one ``(technology, distinct drive keys)`` pair per
    distinct technology among the stage cells; ``stages`` holds one
    ``(group, pull-down key, pull-up key, scale)`` row per stage in ring
    order, where ``scale`` is ``fit * (load + parasitic) * vdd``, the
    numerator of both of the stage's switching delays.
    """

    groups: Tuple[Tuple[object, Tuple[DriveKey, ...]], ...]
    stages: Tuple[Tuple[int, DriveKey, DriveKey, object], ...]


@dataclass(frozen=True)
class RingStage:
    """One stage of a resolved ring: the driving cell and its output load."""

    index: int
    cell: StandardCell
    load_f: float


class RingOscillator:
    """A ring oscillator built from standard-library cells.

    Parameters
    ----------
    library:
        Cell library providing the stages.
    configuration:
        Ordered stage cell names.
    wire_length_um:
        Local wire length between consecutive stages (adds a small fixed
        capacitance per stage).
    external_load_f:
        Additional capacitance of the tap that feeds the readout
        counter, applied to exactly one stage output (the tapped stage).
        Must be finite and non-negative.
    tap_stage:
        Stage index whose output drives the readout logic.  ``None``
        (the default) taps the last stage whenever ``external_load_f``
        is non-zero, so the tap load is never silently dropped.
    """

    def __init__(
        self,
        library: CellLibrary,
        configuration: RingConfiguration,
        wire_length_um: float = 2.0,
        external_load_f: float = 0.0,
        tap_stage: Optional[int] = None,
    ) -> None:
        self.library = library
        self.configuration = configuration
        self.wire_length_um = real(
            wire_length_um, "wire_length_um", ConfigurationError, at_least=0.0
        )
        self.external_load_f = real(
            external_load_f, "external_load_f", ConfigurationError, at_least=0.0
        )
        if tap_stage is not None:
            tap_stage = integer(
                tap_stage, "tap_stage", ConfigurationError,
                at_least=0, at_most=configuration.stage_count - 1,
            )
        self.tap_stage = tap_stage

        self._cells: List[StandardCell] = []
        for name in configuration.stages:
            cell = library.get(name)
            if not cell.topology.inverting:
                raise ConfigurationError(
                    f"cell {cell.name!r} is not inverting and cannot be a ring stage"
                )
            if cell.topology.stages != 1:
                raise ConfigurationError(
                    f"cell {cell.name!r} is a multi-stage cell and cannot be a ring stage"
                )
            self._cells.append(cell)
        self._plan: Optional[_PeriodPlan] = None

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def stage_count(self) -> int:
        return self.configuration.stage_count

    @property
    def technology(self):
        return self.library.technology

    def cells(self) -> List[StandardCell]:
        """The resolved stage cells in ring order."""
        return list(self._cells)

    def effective_tap_stage(self) -> Optional[int]:
        """The stage whose output carries ``external_load_f``.

        An explicit ``tap_stage`` wins; otherwise the last stage is
        tapped whenever an external load was given (a non-zero
        ``external_load_f`` must load *some* stage — silently ignoring
        it would make the parameter dead).
        """
        if self.tap_stage is not None:
            return self.tap_stage
        if self.external_load_f > 0.0:
            return self.stage_count - 1
        return None

    def stages(self) -> List[RingStage]:
        """Stages with their resolved output loads."""
        loads = self.stage_loads(
            [cell.input_capacitance() for cell in self._cells], self.technology
        )
        return [
            RingStage(index=index, cell=cell, load_f=load)
            for index, (cell, load) in enumerate(zip(self._cells, loads))
        ]

    def stage_loads(self, input_f: Sequence, technology) -> list:
        """Output load (F) of every stage, from its cells' input capacitances.

        ``input_f[i]`` is the input capacitance of stage ``i``'s cell.
        Stage ``i`` drives the input of stage ``i + 1`` and the
        inter-stage wire (in ``technology``), and the tapped stage also
        the external load.  :meth:`stages` passes the ring's own cells;
        :class:`~repro.oscillator.bank.ConfigurationBank` passes cells
        bound to a stacked population.
        """
        wire_f = wire_capacitance(technology, self.wire_length_um)
        tap = self.effective_tap_stage()
        loads = []
        for index in range(self.stage_count):
            load = input_f[(index + 1) % self.stage_count] + wire_f
            if tap is not None and index == tap:
                load += self.external_load_f
            loads.append(load)
        return loads

    def area_um2(self) -> float:
        """First-order layout area of the ring."""
        return sum(cell.area_um2() for cell in self._cells)

    def label(self) -> str:
        return self.configuration.label()

    # ------------------------------------------------------------------ #
    # analytical period
    # ------------------------------------------------------------------ #

    def period(self, temperature_c: float) -> float:
        """Oscillation period (s) at a junction temperature.

        ``T = sum_i (tpHL_i + tpLH_i)`` — the textbook ring-oscillator
        period formula quoted in the paper's Section 2, generalised to
        per-stage delays because the stages need not be identical.
        """
        total = 0.0
        for stage in self.stages():
            total += stage.cell.stage_delay_sum(temperature_c, stage.load_f)
        return total

    def frequency(self, temperature_c: float) -> float:
        """Oscillation frequency (Hz) at a junction temperature."""
        return 1.0 / self.period(temperature_c)

    def _period_plan(self) -> _PeriodPlan:
        """The ring's :class:`_PeriodPlan`, built on first use and kept.

        A ring is not changed after construction, so the plan stays
        valid.  Building it checks every stage load as
        :meth:`StandardCell.delays_from_currents` and
        :func:`~repro.delay.alpha_power.switching_delay` do: a negative
        load raises :class:`CellError`, a non-positive total load
        :class:`~repro.tech.parameters.TechnologyError`.
        """
        plan = self._plan
        if plan is None:
            groups: Dict[int, Tuple[int, object, List[DriveKey]]] = {}
            stages = []
            for stage in self.stages():
                cell = stage.cell
                tech = cell.technology
                group, _, keys = groups.setdefault(id(tech), (len(groups), tech, []))
                down, up = cell.drive_keys()
                keys += (down, up)
                if np.any(np.asarray(stage.load_f) < 0.0):
                    raise CellError("load capacitance must be non-negative")
                total_load = stage.load_f + cell.output_parasitic_capacitance()
                if np.any(np.asarray(total_load) <= 0.0):
                    raise TechnologyError("load capacitance must be positive")
                scale = cell.delay_options.fit_factor * total_load * tech.vdd
                stages.append((group, down, up, scale))
            plan = self._plan = _PeriodPlan(
                groups=tuple(
                    (tech, tuple(dict.fromkeys(keys))) for _, tech, keys in groups.values()
                ),
                stages=tuple(stages),
            )
        return plan

    def period_series(self, temperatures_c: Sequence[float]) -> np.ndarray:
        """Periods (s) over a temperature sweep (vectorized).

        The ring's period plan (built on the first call) holds the
        distinct drive networks of its stages per technology and each
        stage's ``fit * (load + parasitic) * vdd``.  A call evaluates,
        over the whole temperature grid, the device parameters once per
        polarity and the alpha-power current once per distinct network
        (one :func:`~repro.delay.alpha_power.drive_currents` call per
        technology), then each stage's ``tpHL + tpLH`` as
        ``scale / I_down + scale / I_up``, accumulated in ring order.  These are bitwise the currents and
        delays of :meth:`StandardCell.delays_from_currents` stage by
        stage, and match a loop of :meth:`period` calls to
        floating-point rounding (the equivalence suites pin the two to
        1e-9 relative).

        For a ring bound to a stacked population
        (:class:`~repro.tech.stacked.TechnologyArray`, see
        :meth:`rebind`) the per-stage delays carry a leading sample axis
        and the result is the full ``(samples, temperatures)`` period
        matrix from the same single stage-sum.
        """
        temps = np.asarray(temperatures_c, dtype=float)
        plan = self._period_plan()
        currents = [drive_currents(tech, keys, temps) for tech, keys in plan.groups]
        total = np.zeros(temps.shape)
        for group, down, up, scale in plan.stages:
            evaluated = currents[group]
            total = total + (scale / evaluated[down] + scale / evaluated[up])
        return total

    def rebind(self, technology) -> "RingOscillator":
        """A copy of this ring implemented in another technology.

        The stage cells keep their names, topologies, sizings and delay
        options; only the technology (and therefore every
        temperature-dependent parameter and parasitic) changes.  This is
        how the batch engine sweeps one ring design across Monte-Carlo
        or corner technology samples without rebuilding a full default
        library per sample.

        ``technology`` may be a stacked population
        (:class:`~repro.tech.stacked.TechnologyArray`): the rebound
        ring then represents *every* sample at once, and its analytical
        evaluations (:meth:`period_series`, :meth:`period`) broadcast
        over the leading sample axis.
        """
        library = CellLibrary(f"{self.library.name}@{technology.name}", technology)
        seen = set()
        for cell in self._cells:
            if cell.name in seen:
                continue
            seen.add(cell.name)
            library.add(cell.rebind(technology))
        return RingOscillator(
            library,
            self.configuration,
            wire_length_um=self.wire_length_um,
            external_load_f=self.external_load_f,
            tap_stage=self.tap_stage,
        )

    def period_matrix(
        self,
        technologies: Sequence,
        temperatures_c: Sequence[float],
    ) -> np.ndarray:
        """Periods (s) on a (technology sample x temperature) grid.

        Stacks the technologies into one struct-of-arrays population
        (:func:`~repro.tech.stacked.stack_technologies`; an existing
        :class:`~repro.tech.stacked.TechnologyArray` is used as is),
        re-binds the ring once, and evaluates the whole
        ``(len(technologies), len(temperatures_c))`` matrix in a single
        broadcast stage-sum — no per-sample rebind, no Python loop over
        samples.  A list whose samples disagree on the geometry scalars
        (different technology nodes) raises
        :class:`~repro.tech.TechnologyError`; nodes are compared through
        the sweep's ``technology`` axis.
        """
        temps = np.asarray(temperatures_c, dtype=float)
        stacked = stack_technologies(technologies)
        matrix = self.rebind(stacked).period_series(temps)
        return np.asarray(matrix, dtype=float).reshape(len(stacked), temps.size)

    def switched_capacitance(self):
        """Total capacitance switched per oscillation cycle (F).

        Sum of every stage's output load plus its own drain parasitics —
        the ``C`` of the ``P = f * Vdd^2 * C`` dynamic-power model.  For
        a ring bound to a stacked population the per-stage terms carry
        the sample axis and the result is an ``(samples, 1)`` column.
        """
        return sum(
            stage.load_f + stage.cell.output_parasitic_capacitance()
            for stage in self.stages()
        )

    def dynamic_power(self, temperature_c: float, activity: float = 1.0) -> float:
        """Dynamic power (W) dissipated by the free-running ring.

        Every stage output swings rail to rail once per period, so
        ``P = f * Vdd^2 * sum(C_stage)``; used by the self-heating study
        and the sweep engine's ``power`` observable.
        """
        tech = self.technology
        return (
            activity
            * self.frequency(temperature_c)
            * tech.vdd ** 2
            * self.switched_capacitance()
        )

    # ------------------------------------------------------------------ #
    # transistor-level simulation
    # ------------------------------------------------------------------ #

    def stage_node(self, index: int) -> str:
        """Name of the output node of a stage in the generated netlist."""
        if not 0 <= index < self.stage_count:
            raise ConfigurationError(f"stage index {index} outside the ring")
        return f"s{index}"

    def build_circuit(self, temperature_c: float) -> Circuit:
        """Build the transistor-level netlist of the ring.

        Gate input capacitances and drain parasitics are added as
        explicit lumped capacitors on every stage output (the MOSFET
        elements model only the channel current), and travelling-wave
        initial conditions are installed so the oscillation starts
        immediately instead of hanging at the metastable DC point.
        """
        tech = self.technology
        temp_k = celsius_to_kelvin(temperature_c)
        vdd = tech.vdd
        circuit = Circuit(name=f"ring_{self.label()}")
        circuit.add_voltage_source("vdd", "gnd", vdd, name="VDD")

        stages = self.stages()
        for stage in stages:
            input_node = self.stage_node((stage.index - 1) % self.stage_count)
            output_node = self.stage_node(stage.index)
            stage.cell.build_into(
                circuit,
                input_node,
                output_node,
                "vdd",
                temp_k,
                instance=f"u{stage.index}",
            )
            total_cap = stage.load_f + stage.cell.output_parasitic_capacitance()
            circuit.add_capacitor(
                output_node, "gnd", total_cap, name=f"CL{stage.index}"
            )

        # Travelling-wave initial condition: alternate rails around the
        # ring and park the last node at mid-rail so one edge is already
        # in flight at t = 0.
        conditions: Dict[str, float] = {"vdd": vdd}
        for index in range(self.stage_count):
            if index == self.stage_count - 1:
                conditions[self.stage_node(index)] = 0.5 * vdd
            else:
                conditions[self.stage_node(index)] = vdd if index % 2 else 0.0
        circuit.set_initial_conditions(conditions)
        return circuit

    def simulate(
        self,
        temperature_c: float,
        cycles: float = 6.0,
        points_per_period: int = 400,
        observe_stage: int = 0,
    ) -> Waveform:
        """Simulate the ring and return the waveform of one stage output.

        Parameters
        ----------
        temperature_c:
            Junction temperature.
        cycles:
            Simulated duration expressed in analytical periods.
        points_per_period:
            Timestep resolution (analytical period / this value).
        observe_stage:
            Which stage output to return.
        """
        if cycles <= 1.0:
            raise ConfigurationError("simulate at least one full period")
        analytical_period = self.period(temperature_c)
        timestep = analytical_period / float(points_per_period)
        duration = cycles * analytical_period
        circuit = self.build_circuit(temperature_c)
        options = TransientOptions(timestep=timestep, use_dc_start=False)
        node = self.stage_node(observe_stage)
        result = simulate_transient(circuit, duration, options, record_nodes=[node])
        return result.waveform(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingOscillator({self.label()!r}, {self.library.technology.name})"
