"""Ring-oscillator model.

A :class:`RingOscillator` binds a :class:`~repro.oscillator.config.RingConfiguration`
to a :class:`~repro.cells.library.CellLibrary` and answers the two
questions the sensor needs:

* *analytically*: what is the oscillation period at a given junction
  temperature?  ``T = sum_i (tpHL_i + tpLH_i)`` over the stages, each
  stage loaded by the next stage's input capacitance, its own output
  parasitics, a short local wire and, at the tapped stage, the readout
  load.  A stage's ``tpHL + tpLH`` is its cell's delay per farad
  ``K_u = fit * Vdd * (1/I_pull_down + 1/I_pull_up)`` times its total
  output load, so the period is the contraction ``sum_u W_u * K_u``
  over the ring's unique cells, where ``W_u`` sums the total loads of
  the stages built from cell ``u``.  A ring is a one-row
  :class:`~repro.oscillator.bank.ConfigurationBank`: both take the
  curves from :func:`_delay_curves` and the weights from
  :func:`_load_weights`, and sum them with :meth:`CellCurves.contract`.
  This backs the Fig. 2 / Fig. 3 temperature sweeps, the sensor and the
  DTM scan.
* *at transistor level*: build the ring as an MNA netlist with explicit
  load capacitors and travelling-wave initial conditions, so the
  transient simulator can produce the start-up waveform of the paper's
  Fig. 1 and validate the analytical period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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

        resolved = {name: library.get(name) for name in dict.fromkeys(configuration.stages)}
        self._cells: List[StandardCell] = [resolved[name] for name in configuration.stages]
        # The unique cells in first-appearance order (by name, as
        # ConfigurationBank indexes them) and each stage's position among them.
        self._unique_cells = list({cell.name: cell for cell in resolved.values()}.values())
        position = {cell.name: u for u, cell in enumerate(self._unique_cells)}
        self._stage_cells = np.asarray([position[resolved[n].name] for n in configuration.stages])
        for cell in self._unique_cells:
            if not cell.topology.inverting:
                raise ConfigurationError(
                    f"cell {cell.name!r} is not inverting and cannot be a ring stage"
                )
            if cell.topology.stages != 1:
                raise ConfigurationError(
                    f"cell {cell.name!r} is a multi-stage cell and cannot be a ring stage"
                )
        self._row: Optional[tuple] = None

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
        input_f = np.asarray([cell.input_capacitance() for cell in self._unique_cells])
        loads = self.stage_loads(self._stage_cells, input_f, self.technology)
        return [
            RingStage(index=index, cell=cell, load_f=load)
            for index, (cell, load) in enumerate(zip(self._cells, loads))
        ]

    def stage_loads(self, cell_index: np.ndarray, input_f: np.ndarray, technology) -> np.ndarray:
        """Output load (F) of every stage, in ring order.

        ``input_f[cell_index[i]]`` is the input capacitance (a scalar,
        or a population's ``(samples, 1)`` column) of stage ``i``'s
        cell.  Stage ``i`` drives the input of stage ``i + 1`` and the
        inter-stage wire (in ``technology``), and the tapped stage also
        the external load.
        """
        following = np.concatenate((cell_index[1:], cell_index[:1]))
        loads = input_f[following] + wire_capacitance(technology, self.wire_length_um)
        tap = self.effective_tap_stage()
        if tap is not None:
            loads[tap] += self.external_load_f
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
        per-stage delays because the stages need not be identical.  It
        is :meth:`period_series` at one point.
        """
        return self.period_series(temperature_c)

    def frequency(self, temperature_c: float) -> float:
        """Oscillation frequency (Hz) at a junction temperature."""
        return 1.0 / self.period(temperature_c)

    def _bank_row(self) -> tuple:
        """The unique cells' :func:`_cell_drives` and :func:`_load_weights`
        (as a one-row ``(U, 1, ...)`` table), and each cell's users.

        Worked out on first use and kept: a ring is not changed after
        construction.
        """
        row = self._row
        if row is None:
            cells = self._unique_cells
            weights = _load_weights(
                [self],
                [self._stage_cells],
                np.asarray([cell.input_capacitance() for cell in cells]),
                np.asarray([cell.output_parasitic_capacitance() for cell in cells]),
                self.technology,
            )
            row = self._row = (_cell_drives(cells), weights, ((0,),) * len(cells))
        return row

    def cell_curves(self, temperatures_c) -> "CellCurves":
        """The ring's per-cell delay curves over a grid, as a one-row :class:`CellCurves`."""
        drives, weights, users = self._bank_row()
        temps = np.asarray(temperatures_c, dtype=float)
        return CellCurves(_delay_curves(drives, temps), weights, users)

    def period_series(self, temperatures_c: Sequence[float]) -> np.ndarray:
        """Periods (s) over a temperature grid of any shape (vectorized).

        The contraction ``sum_u W_u * K_u`` over the ring's unique
        cells (:meth:`CellCurves.contract`), summed in ascending ``u`` as
        :meth:`ConfigurationBank.period_tensor
        <repro.oscillator.bank.ConfigurationBank.period_tensor>` sums
        one row: one :func:`~repro.delay.alpha_power.drive_currents`
        call per technology among the cells and one curve per unique
        cell.  For a ring bound to a stacked population (see
        :meth:`rebind`) the weights and curves are ``(samples, 1)``
        columns, and any temperature shape that broadcasts against them
        — ``(temperatures,)``, ``(site, 1, 1)`` — works.  A single
        temperature gives :meth:`period`, bitwise that point of a grid.
        """
        temps = np.asarray(temperatures_c, dtype=float)
        if temps.ndim == 0:
            # One point goes through a one-element grid: numpy's scalar
            # arithmetic is not bitwise its array arithmetic.
            weights = self._bank_row()[1]
            return self.period_series(temps.reshape((1,) * (weights.ndim - 1)))[0]
        cells = self.cell_curves(temps)
        return cells.contract(cells.curves)[0]

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
        for cell in self._unique_cells:
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
        broadcast contraction — no per-sample rebind, no Python loop over
        samples.  A list whose samples disagree on the geometry scalars
        (different technology nodes) raises
        :class:`~repro.tech.TechnologyError`; nodes are compared through
        the sweep's ``technology`` axis.
        """
        temps = np.asarray(temperatures_c, dtype=float)
        stacked = stack_technologies(technologies)
        matrix = self.rebind(stacked).period_series(temps)
        return np.asarray(matrix, dtype=float).reshape(len(stacked), temps.size)

    def dynamic_power(self, temperature_c: float, activity: float = 1.0) -> float:
        """Dynamic power (W) dissipated by the free-running ring.

        Every stage output swings rail to rail once per period, so
        ``P = f * Vdd^2 * C`` with ``C`` the switched capacitance: every
        stage's output load plus its own drain parasitics, the sum of
        the ring's load weights (an ``(samples, 1)`` column for a ring
        bound to a stacked population).  The sweep engine's ``power``
        observable is the same law.
        """
        switched = self._bank_row()[1].sum(axis=0)[0]
        return (
            activity
            * self.frequency(temperature_c)
            * self.technology.vdd ** 2
            * switched
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


#: Size of one row's values from which :meth:`CellCurves.contract`
#: updates its rows one at a time (measured crossover of the two
#: contraction orders on a Xeon host: 1000-2000).
_ROW_VALUES = 2048


@dataclass(frozen=True)
class CellCurves:
    """The unique cells' delay curves of a set of rings and the weights that contract them.

    ``curves[u]`` is cell ``u``'s delay per farad ``K_u``
    (:func:`_delay_curves`), ``weights[u, r]`` the summed total load of
    ring ``r``'s stages built from cell ``u`` (:func:`_load_weights`; a
    scalar or a population's ``(samples, 1)`` column), and ``users[u]``
    the rings that use cell ``u``, ascending.  Ring ``r``'s period is
    row ``r`` of ``contract(curves)``.
    """

    curves: List[np.ndarray]
    weights: np.ndarray
    users: Tuple[Tuple[int, ...], ...]

    def contract(self, terms: Sequence) -> np.ndarray:
        """``out[r] = sum_u weights[u, r] * terms[u]``, summed in ascending ``u``.

        ``terms`` holds one array per cell, of any shape that broadcasts
        against the weights.  A ring that does not use cell ``u`` has
        ``weights[u, r] == 0``; its term would add an exact ``+0.0``, so
        it is left out.  Each row starts from its first term, not from
        zero: every ``weights * term`` product is ``0.0 + x``, which is
        ``x`` unless ``x`` is ``-0.0``.  One ring (a
        :class:`RingOscillator`) is summed term by term.  Small rows (a
        cell-mix search at one sample) take one indexed multiply-add per
        cell for all its rings; large ones (Fig. 3 x Monte-Carlo) update
        one ring at a time through one reused scratch row, which keeps
        the operands cache-sized.
        """
        weights = self.weights
        if weights.shape[1] == 1:
            total = weights[0, 0] * terms[0]
            for u in range(1, len(terms)):
                total = total + weights[u, 0] * terms[u]
            return total[np.newaxis]
        shape = np.broadcast_shapes(weights.shape[2:], *(np.shape(term) for term in terms))
        out = np.empty(weights.shape[1:2] + shape)
        started = np.zeros(len(out), dtype=bool)
        if math.prod(shape) >= _ROW_VALUES:
            scratch = np.empty(shape)
            for u, rows in enumerate(self.users):
                for row in rows:
                    if started[row]:
                        np.multiply(weights[u, row], terms[u], out=scratch)
                        out[row] += scratch
                    else:
                        np.multiply(weights[u, row], terms[u], out=out[row])
                        started[row] = True
            return out
        for u, rows in enumerate(self.users):
            rows = np.asarray(rows)
            first = rows[~started[rows]]
            rest = rows[started[rows]]
            if first.size:
                out[first] = weights[u, first] * terms[u]
            if rest.size:
                out[rest] += weights[u, rest] * terms[u]
            started[rows] = True
        return out


def _load_weights(
    rings: Sequence[RingOscillator],
    cell_indices: Sequence[np.ndarray],
    input_f: np.ndarray,
    parasitic_f: np.ndarray,
    technology,
) -> np.ndarray:
    """``W[u, r]``: the summed ``load + parasitic_f[u]`` of ring ``r``'s stages built from cell ``u``.

    ``cell_indices[r]`` maps ring ``r``'s stages to cells, and the loads
    come from :meth:`RingOscillator.stage_loads`.  Per ring, one bincount
    over ``(cell, sample)`` bins, fed stage by stage, sums each weight in
    stage order from zero.  A negative stage load raises
    :class:`CellError`, a non-positive total load
    :class:`~repro.tech.parameters.TechnologyError`, as
    :meth:`StandardCell.delays` does.
    """
    # bins[u] numbers cell u's (sample) bins; a stage's loads go to its cell's row.
    bins = np.arange(parasitic_f.size).reshape(len(parasitic_f), -1)
    weights = []
    for ring, index in zip(rings, cell_indices):
        loads = ring.stage_loads(index, input_f, technology)
        if loads.min() < 0.0:
            raise CellError("load capacitance must be non-negative")
        loads += parasitic_f[index]
        if loads.min() <= 0.0:
            raise TechnologyError("load capacitance must be positive")
        summed = np.bincount(bins[index].ravel(), weights=loads.ravel(), minlength=bins.size)
        weights.append(summed.reshape(parasitic_f.shape))
    return np.stack(weights, axis=1)


def _cell_drives(cells: Sequence[StandardCell]) -> tuple:
    """What :func:`_delay_curves` needs of ``cells``: one ``(technology,
    drive keys)`` group per distinct technology object, and per cell its
    ``(group, pull-down key, pull-up key, fit * Vdd)``.
    """
    groups: Dict[int, Tuple[int, object, List[DriveKey]]] = {}
    terms = []
    for cell in cells:
        tech = cell.technology
        group, _, keys = groups.setdefault(id(tech), (len(groups), tech, []))
        down, up = cell.drive_keys()
        keys += (down, up)
        terms.append((group, down, up, cell.delay_options.fit_factor * tech.vdd))
    return tuple((tech, keys) for _, tech, keys in groups.values()), tuple(terms)


def _delay_curves(drives: tuple, temps: np.ndarray) -> list:
    """Each cell's delay per farad, ``fit * Vdd * (1/I_pull_down + 1/I_pull_up)``.

    ``drives`` is :func:`_cell_drives` of the cells.  ``tpHL + tpLH`` of
    a stage is its cell's curve times its total output load (see
    :func:`repro.delay.alpha_power.switching_delay`).  One
    :func:`~repro.delay.alpha_power.drive_currents` call per technology
    evaluates each distinct network once; its currents are fresh arrays
    of this call, so each becomes its reciprocal in place.
    """
    groups, terms = drives
    inverse = [
        {
            key: np.divide(1.0, current, out=current)
            if isinstance(current, np.ndarray)
            else 1.0 / current
            for key, current in drive_currents(tech, keys, temps).items()
        }
        for tech, keys in groups
    ]
    curves = []
    for group, down, up, scale in terms:
        curve = inverse[group][down] + inverse[group][up]
        curve *= scale
        curves.append(curve)
    return curves
