"""Stacked ring-configuration banks: the configuration axis of the batch engine.

A :class:`ConfigurationBank` stacks many
:class:`~repro.oscillator.config.RingConfiguration`\\ s over one set of
unique cells, so the whole Fig. 3 x Monte-Carlo cross product evaluates
as a single ``(C, S, T)`` broadcast:

* every *unique* cell of the bank contributes one vectorized
  delay-per-farad curve ``K_u = fit * Vdd * (1/I_pull_down + 1/I_pull_up)``
  over the ``(sample, temperature)`` grid
  (:func:`~repro.oscillator.ring._delay_curves`, which evaluates the
  device parameters once per polarity and the alpha-power current once
  per distinct drive network — five for the Fig. 3 INV/NAND2/NAND3/NOR2
  cells — the only transcendental work in the whole bank),
* each configuration reduces to per-unique-cell *load weights* (the
  summed total output loads of the stages built from that cell, tap and
  wire loads included), all configurations in one
  :func:`~repro.oscillator.ring._load_weights` pass, with the
  capacitances of each unique cell evaluated once, and
* the period tensor is the weights-times-curves contraction
  ``period[c] = sum_u W[u, c] * K[u]`` over the cells each configuration
  uses (:meth:`~repro.oscillator.ring.CellCurves.contract`) — per unique
  cell, one broadcast multiply-add for all its configurations, or one
  per configuration when a configuration's ``(sample, temperature)``
  slab is large; no Python loop over samples, temperatures or stages.

:meth:`ConfigurationBank.cell_curves` hands out the curves and weights
before the contraction, so the sweep engine contracts per-cell endpoint
terms into its endpoint observables without forming the period tensor.
A :class:`~repro.oscillator.ring.RingOscillator` is the one-row case of
the same contraction.  ``tests/oracles.py`` pins the bank bitwise to
``period_tensor_per_cell`` (the same contraction, with its own current
calls per cell) and to the per-configuration loop
``period_tensor_loop`` at a relative tolerance of 1e-9.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cells.cell import StandardCell
from ..cells.library import CellLibrary
from ..tech.stacked import stack_technologies
from .config import ConfigurationError, RingConfiguration
from .ring import CellCurves, RingOscillator, _cell_drives, _delay_curves, _load_weights

__all__ = ["ConfigurationBank", "normalise_configurations"]

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
    happens up front) and maps every configuration's stages to the
    bank's unique cells; configurations may differ in length.
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

        # Unique cells in first-appearance order, each configuration's
        # stages as positions among them, and the configurations (rows)
        # each unique cell appears in, ascending.
        self._cells: List[StandardCell] = []
        index_of: Dict[str, int] = {}
        users: List[List[int]] = []
        self._row_cells: List[np.ndarray] = []
        for row, ring in enumerate(self._rings):
            bank_index = []
            for cell in ring._unique_cells:
                if cell.name not in index_of:
                    index_of[cell.name] = len(self._cells)
                    self._cells.append(cell)
                    users.append([])
                users[index_of[cell.name]].append(row)
                bank_index.append(index_of[cell.name])
            self._row_cells.append(np.asarray(bank_index)[ring._stage_cells])
        self._users = tuple(tuple(rows) for rows in users)

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
            f"{len(self._cells)} unique cells, "
            f"library={self.library.name!r})"
        )

    # ------------------------------------------------------------------ #
    # batch evaluation
    # ------------------------------------------------------------------ #

    def cell_curves(self, temperatures_c: Sequence[float], technologies=None) -> CellCurves:
        """The unique cells' delay curves and every configuration's load weights.

        Without ``technologies`` the curves are ``(temperature,)`` rows
        against ``(configuration, 1, 1)`` weights; with a population
        they are ``(sample, temperature)`` slabs against
        ``(configuration, sample, 1)`` weights.
        """
        temps = np.asarray(temperatures_c, dtype=float)
        if technologies is None:
            tech, cells = self.library.technology, self._cells
        else:
            tech = stack_technologies(technologies)
            cells = [cell.rebind(tech) for cell in self._cells]

        # One delay-per-farad curve per unique cell: K_u(T) such that a
        # stage built from cell u with total output load L contributes
        # K_u * L to the ring period.  The currents behind them are gone
        # before any contraction.
        curves = _delay_curves(_cell_drives(cells), temps)

        # Per-unique-cell load weights of every configuration, (U, C, S, 1),
        # from the capacitances of each unique cell evaluated once.
        weights = _load_weights(
            self._rings,
            self._row_cells,
            np.asarray([cell.input_capacitance() for cell in cells]),
            np.asarray([cell.output_parasitic_capacitance() for cell in cells]),
            tech,
        ).reshape(len(cells), self.config_count, -1, 1)
        return CellCurves(curves, weights, self._users)

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
        The contraction ``period[c] = sum_u W[u, c] * K[u]`` is
        :meth:`CellCurves.contract <repro.oscillator.ring.CellCurves.contract>`
        of :meth:`cell_curves`.
        """
        cells = self.cell_curves(temperatures_c, technologies)
        tensor = cells.contract(cells.curves)
        if technologies is None:
            return tensor[:, 0, :]
        return tensor


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
