"""Stacked ring-configuration banks: the configuration axis of the batch engine.

PR 1 vectorized the temperature axis and PR 2 stacked the technology
*sample* axis, but the paper's Fig. 3 — many ring *configurations*
evaluated against the same library — still cost one full pass through
the delay stack per configuration.  A :class:`ConfigurationBank` stacks
many :class:`~repro.oscillator.config.RingConfiguration`\\ s into one
padded ``(config, stage)`` cell table with a validity mask, so the whole
Fig. 3 x Monte-Carlo cross product evaluates as a single ``(C, S, T)``
broadcast:

* every *unique* cell of the bank contributes one vectorized
  delay-per-farad curve ``K_u = fit * Vdd * (1/I_pull_down + 1/I_pull_up)``
  over the ``(sample, temperature)`` grid.  The currents of all unique
  cells come from one :func:`~repro.cells.cell.cell_currents` call,
  which evaluates the device parameters once per polarity and the
  alpha-power current once per distinct drive network (five for the
  Fig. 3 INV/NAND2/NAND3/NOR2 cells) — the only transcendental work in
  the whole bank,
* the padded cell table reduces each configuration to per-unique-cell
  *load weights* (the summed output loads of the stages driving that
  cell type, tap and wire loads included), computed from each unique
  cell's input and parasitic capacitance, and
* the period tensor is the weights-times-curves contraction
  ``period[c] = sum_u W[u, c] * K[u]`` over the cells each configuration
  uses — per unique cell, one broadcast multiply-add for all its
  configurations, or one per configuration when a configuration's
  ``(sample, temperature)`` slab is large; no Python loop over samples
  or temperatures.

The per-configuration loop (one
:meth:`~repro.oscillator.ring.RingOscillator.period_matrix` per ring) is
the oracle in ``tests/oracles.py`` the equivalence tests pin the
stacked path against (relative tolerance 1e-9; in practice the two
orderings of the same arithmetic agree to a few ULP).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cells.cell import StandardCell, cell_currents
from ..cells.library import CellLibrary
from ..tech.stacked import stack_technologies
from .config import ConfigurationError, RingConfiguration
from .ring import RingOscillator

__all__ = ["ConfigurationBank", "normalise_configurations"]

#: Padding value used in the ``(config, stage)`` cell-index table.
_PAD = -1

#: Size of one configuration's ``(sample, temperature)`` slab from which
#: the period contraction updates configurations one at a time (measured
#: crossover of the two contraction orders on a Xeon host: 1000-2000).
_ROW_VALUES = 2048


class ConfigurationBank:
    """Many ring configurations stacked for one-shot batch evaluation.

    Parameters
    ----------
    library:
        Cell library every configuration draws its stages from.
    configurations:
        The configurations to stack: a mapping of label to
        :class:`~repro.oscillator.config.RingConfiguration` (the Fig. 3
        style), or a sequence of configurations / parseable
        configuration strings (labelled by their canonical
        ``cfg.label()``).
    wire_length_um / external_load_f / tap_stage:
        Forwarded to every ring, matching the
        :class:`~repro.oscillator.ring.RingOscillator` defaults.

    The constructor resolves every configuration into a real
    :class:`~repro.oscillator.ring.RingOscillator` (so all structural
    validation — odd stage counts, inverting single-stage cells —
    happens up front) and builds the padded ``(config, stage)``
    cell-index table the broadcast evaluation consumes.  Configurations
    of different lengths are padded to the longest ring; the validity
    mask marks the real stages.
    """

    def __init__(
        self,
        library: CellLibrary,
        configurations: Union[
            Mapping[str, RingConfiguration],
            Sequence[Union[RingConfiguration, str]],
        ],
        wire_length_um: float = 2.0,
        external_load_f: float = 0.0,
        tap_stage: Optional[int] = None,
    ) -> None:
        labels, configs = normalise_configurations(configurations)
        self.library = library
        self.labels: Tuple[str, ...] = labels
        self.configurations: Tuple[RingConfiguration, ...] = configs
        self.wire_length_um = float(wire_length_um)
        self.external_load_f = float(external_load_f)
        self.tap_stage = tap_stage
        self._rings: List[RingOscillator] = [
            RingOscillator(
                library,
                configuration,
                wire_length_um=wire_length_um,
                external_load_f=external_load_f,
                tap_stage=tap_stage,
            )
            for configuration in configs
        ]

        # The padded (config, stage) cell table: unique cells are
        # indexed in first-appearance order; padding slots hold _PAD and
        # are masked out of every reduction.
        self._unique_names: List[str] = []
        self._cells: List[StandardCell] = []
        index_of: Dict[str, int] = {}
        max_stages = max(ring.stage_count for ring in self._rings)
        table = np.full((len(self._rings), max_stages), _PAD, dtype=int)
        for row, ring in enumerate(self._rings):
            for index, cell in enumerate(ring.cells()):
                if cell.name not in index_of:
                    index_of[cell.name] = len(self._unique_names)
                    self._unique_names.append(cell.name)
                    self._cells.append(cell)
                table[row, index] = index_of[cell.name]
        self._cell_index = table
        # The configurations (rows) each unique cell appears in, ascending.
        self._users: List[np.ndarray] = [
            np.flatnonzero((table == u).any(axis=1))
            for u in range(len(self._unique_names))
        ]

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def config_count(self) -> int:
        return len(self._rings)

    def __len__(self) -> int:
        return self.config_count

    def stage_counts(self) -> np.ndarray:
        """Number of real stages per configuration."""
        return np.asarray([ring.stage_count for ring in self._rings])

    def rings(self) -> List[RingOscillator]:
        """The resolved per-configuration rings (the loop oracle's view)."""
        return list(self._rings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConfigurationBank({self.config_count} configurations, "
            f"{len(self._unique_names)} unique cells, "
            f"library={self.library.name!r})"
        )

    # ------------------------------------------------------------------ #
    # batch evaluation
    # ------------------------------------------------------------------ #

    def period_tensor(
        self,
        temperatures_c: Sequence[float],
        technologies=None,
    ) -> np.ndarray:
        """Periods (s) of every configuration in one broadcast pass.

        Returns a ``(config, temperature)`` matrix, or the full
        ``(config, sample, temperature)`` tensor when ``technologies``
        is a population (a :class:`~repro.tech.stacked.TechnologyArray`
        or a stackable sequence of technologies; a sequence mixing
        technology nodes raises :class:`~repro.tech.TechnologyError`).
        """
        temps = np.asarray(temperatures_c, dtype=float)
        if technologies is None:
            tech, cells, sample_count = self.library.technology, self._cells, 1
        else:
            technologies = stack_technologies(technologies)
            tech, sample_count = technologies, len(technologies)
            cells = [cell.rebind(technologies) for cell in self._cells]

        # One delay-per-farad curve per unique cell: K_u(T) such that a
        # stage built from cell u with total output load L contributes
        # K_u * L to the ring period.  Shapes: (S, T) columns against
        # the temperature row (S = 1 collapses to the scalar case).
        # The currents behind them are gone before the tensor exists.
        curves = _delay_curves(cells, temps)

        # Per-unique-cell load weights from the padded cell table: the
        # summed total output load (next stage's input + wire + tap +
        # own parasitic) of every stage driving that cell type, with the
        # capacitances of each unique cell evaluated once.
        input_f = [cell.input_capacitance() for cell in cells]
        parasitic_f = [cell.output_parasitic_capacitance() for cell in cells]
        weights = np.zeros(
            (len(self._unique_names), self.config_count, sample_count, 1),
            dtype=float,
        )
        for row, ring in enumerate(self._rings):
            row_cells = self._cell_index[row, : ring.stage_count].tolist()
            loads = ring.stage_loads([input_f[u] for u in row_cells], tech)
            for u, load in zip(row_cells, loads):
                total_load = np.asarray(load + parasitic_f[u], dtype=float)
                weights[u, row] += total_load.reshape(-1, 1)

        # The contraction: period[c] = sum_u W[u, c] * K[u], in ascending
        # u, over the configurations that use cell u (a configuration
        # that does not has W[u, c] == 0; its term would add an exact
        # +0.0, so leaving it out changes no bit of the sum).  Small
        # (S, T) slabs — a cell-mix search at one sample — take one
        # indexed multiply-add per cell for all its configurations.
        # Large ones — Fig. 3 x Monte-Carlo — update one configuration
        # in place at a time through one reused (S, T) term, which keeps
        # the operands cache-sized.
        tensor = np.zeros((self.config_count, sample_count, temps.size))
        per_configuration = sample_count * temps.size >= _ROW_VALUES
        if per_configuration:
            term = np.empty(tensor.shape[1:])
        for u, rows in enumerate(self._users):
            if per_configuration:
                for row in rows.tolist():
                    np.multiply(weights[u, row], curves[u], out=term)
                    tensor[row] += term
            else:
                tensor[rows] += weights[u, rows] * curves[u]
        if technologies is None:
            return tensor[:, 0, :]
        return tensor


def _delay_curves(cells: Sequence[StandardCell], temps: np.ndarray) -> list:
    """Each cell's delay per farad, ``fit * Vdd * (1/I_pull_down + 1/I_pull_up)``.

    ``tpHL + tpLH`` of a stage is this times its total output load (see
    :func:`repro.delay.alpha_power.switching_delay`).  The currents are
    fresh arrays of this call, shared by cells that share a drive
    network, so each becomes its reciprocal in place, once.
    """
    currents = cell_currents(cells, temps)
    inverse = {}
    for current in (current for pair in currents for current in pair):
        if id(current) not in inverse:
            inverse[id(current)] = (
                np.divide(1.0, current, out=current)
                if isinstance(current, np.ndarray)
                else 1.0 / current
            )
    curves = []
    for cell, (down, up) in zip(cells, currents):
        curve = inverse[id(down)] + inverse[id(up)]
        curve *= cell.delay_options.fit_factor * cell.technology.vdd
        curves.append(curve)
    return curves


def normalise_configurations(
    configurations,
) -> Tuple[Tuple[str, ...], Tuple[RingConfiguration, ...]]:
    """Resolve the accepted configuration-axis inputs to (labels, configs).

    Shared by :class:`ConfigurationBank` and
    :meth:`repro.engine.sweep.Axis.configuration`, so both ends of the
    configuration axis accept the same inputs (label mapping, or a
    sequence of configurations / parseable strings) and apply the same
    unique-label rule.
    """
    if isinstance(configurations, Mapping):
        items = list(configurations.items())
    else:
        items = []
        for entry in configurations:
            if isinstance(entry, str):
                entry = RingConfiguration.parse(entry)
            items.append((entry.label(), entry))
    if not items:
        raise ConfigurationError("a configuration bank needs at least one configuration")
    labels = [label for label, _ in items]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(
            "configuration labels must be unique within a bank"
        )
    return tuple(labels), tuple(config for _, config in items)
