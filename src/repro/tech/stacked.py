"""Stacked (struct-of-arrays) technology parameters.

A Monte-Carlo population or a corner set is a *collection* of
technologies that differ only in a handful of scalar parameters
(threshold voltage, mobility, oxide capacitance, supply...).  Evaluating
such a population one :class:`~repro.tech.parameters.Technology` at a
time costs one full pass through the delay stack per sample — the
Python-loop bottleneck PR 1 left in
:meth:`~repro.oscillator.ring.RingOscillator.period_matrix`.

This module stores the population the other way around: one
:class:`TechnologyArray` whose parameter fields are ndarrays holding the
value of *every* sample at once.  The arrays are shaped ``(samples, 1)``
— column vectors — so that any arithmetic against a ``(temperatures,)``
grid broadcasts to a ``(samples, temperatures)`` matrix.  Because the
whole delay stack (:mod:`repro.tech.temperature`,
:mod:`repro.delay.alpha_power`, :mod:`repro.cells.cell`,
:meth:`~repro.oscillator.ring.RingOscillator.period_series`) is written
in elementwise NumPy operations, a :class:`TechnologyArray` can be
dropped in anywhere a :class:`~repro.tech.parameters.Technology` is
consumed analytically and the full ``(sample x temperature)`` result
falls out of one broadcast pass — no per-sample rebind, no Python loop.

Every field is stored as a full column, but a population rarely varies
all of them: a Monte-Carlo population draws only ``vth0``, ``mobility``
and ``cox_f_per_um2``.  :class:`TransistorParameterArray` records, once
when it is built, which fields every sample shares bit for bit
(``uniform_fields``).  :func:`~repro.tech.temperature.device_at` reads
those as ``(1, 1)`` rows, so a temperature-only term (the mobility
factor, the threshold drift, ``alpha``, the saturation velocity) is
computed once on a ``(1, temperatures)`` row and broadcasting carries it
to every sample, with the same bits as ``S`` equal rows.

The struct-of-arrays classes deliberately mirror the scalar dataclasses
field for field (same names, same units, same validation rules applied
elementwise), so the scalar objects remain the single source of truth
for semantics and the equivalence tests can compare the two layouts
sample by sample.

Not every consumer understands the stacked layout: the transistor-level
netlist builders (:meth:`repro.cells.cell.StandardCell.build_into`) and
anything else that needs one concrete operating point must unstack a
single sample first via :meth:`TechnologyArray.technology_at`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, FrozenSet, Sequence, Tuple, Union

import numpy as np

from ..fields import integer, real, real_array
from .parameters import (
    _TRANSISTOR_FIELD_NAMES as _TRANSISTOR_FIELDS,
    TRANSISTOR_BOUNDS,
    Technology,
    TechnologyError,
    TransistorParameters,
)

__all__ = [
    "TransistorParameterArray",
    "TechnologyArray",
    "stack_transistor_parameters",
    "stack_technologies",
    "technology_column_arrays",
    "technology_array_from_columns",
]

#: A stacked parameter field: scalar (uniform across samples) on input,
#: always a ``(samples, 1)`` float column after normalisation.
ParameterLike = Union[float, np.ndarray]

def _as_column(
    value: ParameterLike, sample_count: int, field: str, **bounds: float
) -> np.ndarray:
    """Normalise one stacked field to a ``(sample_count, 1)`` float column.

    Every sample must be finite and inside ``bounds`` (the keyword
    bounds of :func:`repro.fields.real_array`), checked in one pass.
    """
    column = real_array(value, field, TechnologyError, **bounds)
    if column.ndim == 0:
        column = np.full((sample_count, 1), float(column))
    elif column.ndim == 1:
        column = column.reshape(-1, 1)
    elif column.ndim == 2 and column.shape[1] == 1:
        pass
    else:
        raise TechnologyError(
            f"stacked field {field!r} must be a scalar, a 1-D array or an "
            f"(n, 1) column, got shape {column.shape}"
        )
    if column.shape[0] != sample_count:
        raise TechnologyError(
            f"stacked field {field!r} holds {column.shape[0]} samples, "
            f"expected {sample_count}"
        )
    return column


def _check_row_range(start: int, stop: int, count: int) -> Tuple[int, int]:
    """Validate a half-open population row range ``[start, stop)``."""
    start, stop = int(start), int(stop)
    if not 0 <= start < stop <= count:
        raise TechnologyError(
            f"row range [{start}, {stop}) outside the population (size {count})"
        )
    return start, stop


def _infer_sample_count(values) -> int:
    counts = {np.asarray(v).reshape(-1).size for v in values if np.asarray(v).ndim > 0}
    if len(counts) > 1:
        raise TechnologyError(
            f"stacked fields disagree on the sample count: {sorted(counts)}"
        )
    return counts.pop() if counts else 1


@dataclass(frozen=True)
class TransistorParameterArray:
    """Struct-of-arrays view of one MOSFET type across a sample population.

    Field names, units and sign conventions are identical to
    :class:`~repro.tech.parameters.TransistorParameters`; every numeric
    field holds a ``(samples, 1)`` float column (scalars passed to the
    constructor are broadcast to the population).  The validation rules
    of the scalar dataclass are applied elementwise, so an array that
    would be rejected sample by sample is rejected here too.

    The class duck-types the scalar parameter block everywhere the
    *analytical* stack touches it (:func:`repro.tech.temperature.device_at`,
    :func:`repro.delay.alpha_power.drive_currents`,
    :func:`repro.delay.load.input_capacitance`...), which is what lets a
    whole population flow through the delay models in one broadcast:
    one ring-period evaluation reads each polarity's parameter block
    once and evaluates each distinct drive network's current once, as
    ``(samples, temperatures)`` arrays.
    """

    polarity: str
    vth0: ParameterLike
    mobility: ParameterLike
    alpha: ParameterLike
    channel_length_um: ParameterLike
    cox_f_per_um2: ParameterLike
    vsat_cm_per_s: ParameterLike
    vth_temp_coeff: ParameterLike
    mobility_temp_exponent: ParameterLike
    vsat_temp_coeff: ParameterLike = 1.0e-4
    alpha_temp_coeff: ParameterLike = 0.0
    body_effect_gamma: ParameterLike = 0.4
    subthreshold_slope_mv_per_dec: ParameterLike = 85.0
    junction_cap_f_per_um: ParameterLike = 1.0e-15
    overlap_cap_f_per_um: ParameterLike = 0.35e-15
    #: The fields whose every sample holds the same bits, decided once
    #: here: :func:`~repro.tech.temperature.device_at` evaluates their
    #: temperature terms on one ``(1, T)`` row instead of ``S`` equal rows.
    uniform_fields: FrozenSet[str] = dataclass_field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise TechnologyError(
                f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}"
            )
        count = _infer_sample_count(
            getattr(self, field) for field in _TRANSISTOR_FIELDS
        )
        uniform = set()
        for field in _TRANSISTOR_FIELDS:
            column = _as_column(
                getattr(self, field), count, field, **TRANSISTOR_BOUNDS.get(field, {})
            )
            object.__setattr__(self, field, column)
            # Compared as bit patterns, so 0.0 and -0.0 are not uniform.
            bits = column.view(np.uint64)
            if (bits == bits[:1]).all():
                uniform.add(field)
        object.__setattr__(self, "uniform_fields", frozenset(uniform))

    @property
    def sample_count(self) -> int:
        return int(np.asarray(self.vth0).shape[0])

    @property
    def gate_cap_f_per_um(self) -> np.ndarray:
        """Gate capacitance per micron of width (F / um), per sample."""
        return (
            self.cox_f_per_um2 * self.channel_length_um
            + 2.0 * self.overlap_cap_f_per_um
        )

    @property
    def process_transconductance(self) -> np.ndarray:
        """``k' = mu * Cox`` in A / V^2 for a square device, per sample."""
        mobility_um2 = self.mobility * 1.0e8  # cm^2 -> um^2
        return mobility_um2 * self.cox_f_per_um2

    def tiled(self, repeats: int) -> "TransistorParameterArray":
        """The population repeated ``repeats`` times along the sample axis.

        Used to build cross products against other stacked axes (e.g.
        supply x sample in the sweep planner): the result's flat sample
        order is repeat-major (``r * len(self) + s``).
        """
        repeats = integer(repeats, "repeats", TechnologyError, at_least=1)
        columns = {
            field: np.tile(np.asarray(getattr(self, field), dtype=float), (repeats, 1))
            for field in _TRANSISTOR_FIELDS
        }
        return TransistorParameterArray(polarity=self.polarity, **columns)

    def sliced(self, start: int, stop: int) -> "TransistorParameterArray":
        """Rows ``[start, stop)`` of the population (a tiling sub-range).

        Used by the sweep engine's tiling pass: slicing the stacked
        columns is elementwise, so a sliced population evaluates
        bit-identically to the corresponding rows of the full one.
        """
        start, stop = _check_row_range(start, stop, self.sample_count)
        columns = {
            field: np.asarray(getattr(self, field), dtype=float)[start:stop]
            for field in _TRANSISTOR_FIELDS
        }
        return TransistorParameterArray(polarity=self.polarity, **columns)

    def parameters_at(self, index: int) -> TransistorParameters:
        """Unstack one sample into a scalar parameter block."""
        if not 0 <= index < self.sample_count:
            raise TechnologyError(
                f"sample index {index} outside the population "
                f"(0..{self.sample_count - 1})"
            )
        kwargs = {
            field: float(np.asarray(getattr(self, field))[index, 0])
            for field in _TRANSISTOR_FIELDS
        }
        return TransistorParameters(polarity=self.polarity, **kwargs)


def stack_transistor_parameters(
    parameters: Sequence[TransistorParameters],
) -> TransistorParameterArray:
    """Stack per-sample scalar parameter blocks into one struct of arrays."""
    if not parameters:
        raise TechnologyError("cannot stack an empty parameter sequence")
    polarities = {p.polarity for p in parameters}
    if len(polarities) > 1:
        raise TechnologyError(
            f"cannot stack mixed polarities {sorted(polarities)}"
        )
    columns = {
        field: np.asarray([getattr(p, field) for p in parameters], dtype=float)
        for field in _TRANSISTOR_FIELDS
    }
    return TransistorParameterArray(polarity=parameters[0].polarity, **columns)


@dataclass(frozen=True)
class TechnologyArray:
    """A whole population of CMOS technologies in struct-of-arrays form.

    Mirrors :class:`~repro.tech.parameters.Technology`: ``vdd`` and
    ``wire_cap_f_per_um`` are stacked ``(samples, 1)`` columns (they may
    legitimately differ per sample — e.g. stacked supply sweeps), while
    ``feature_size_um``, ``min_width_um`` and ``metal_layers`` must be
    uniform because they feed scalar geometry decisions (cell widths,
    layout pitch) that define the *design*, not the sample.

    Duck-types ``Technology`` for the analytical delay stack: passing a
    ``TechnologyArray`` to :class:`~repro.cells.cell.StandardCell` /
    :meth:`~repro.oscillator.ring.RingOscillator.rebind` makes every
    delay, load and period evaluation broadcast over the leading sample
    axis, so ``period_series`` on a stacked ring returns a
    ``(samples, temperatures)`` matrix in one pass.
    """

    name: str
    feature_size_um: float
    vdd: ParameterLike
    nmos: TransistorParameterArray
    pmos: TransistorParameterArray
    wire_cap_f_per_um: ParameterLike = 0.2e-15
    min_width_um: float = 0.5
    metal_layers: int = 4
    #: Per-sample ``Technology.extra`` metadata dictionaries (e.g. the
    #: ``t_min_c``/``t_max_c`` design range), preserved verbatim through the
    #: stack/unstack round trip; empty dicts when none were given.
    extras: Tuple[Dict[str, float], ...] = ()

    def __post_init__(self) -> None:
        real(self.feature_size_um, "feature_size_um", TechnologyError, above=0.0)
        if self.nmos.polarity != "nmos":
            raise TechnologyError("nmos parameters must have polarity 'nmos'")
        if self.pmos.polarity != "pmos":
            raise TechnologyError("pmos parameters must have polarity 'pmos'")
        if self.nmos.sample_count != self.pmos.sample_count:
            raise TechnologyError(
                f"nmos ({self.nmos.sample_count}) and pmos "
                f"({self.pmos.sample_count}) populations differ in size"
            )
        count = self.nmos.sample_count
        object.__setattr__(self, "vdd", _as_column(self.vdd, count, "vdd", above=0.0))
        object.__setattr__(
            self,
            "wire_cap_f_per_um",
            _as_column(self.wire_cap_f_per_um, count, "wire_cap_f_per_um"),
        )
        if np.any(self.vdd <= np.maximum(self.nmos.vth0, self.pmos.vth0)):
            raise TechnologyError(
                "vdd must exceed both threshold voltages for the gates to "
                "switch in every sample"
            )
        if not self.extras:
            object.__setattr__(self, "extras", tuple({} for _ in range(count)))
        elif len(self.extras) != count:
            raise TechnologyError(
                f"extras holds {len(self.extras)} entries, expected {count}"
            )

    # ------------------------------------------------------------------ #
    # population structure
    # ------------------------------------------------------------------ #

    @property
    def sample_count(self) -> int:
        return self.nmos.sample_count

    def __len__(self) -> int:
        return self.sample_count

    def technology_at(self, index: int) -> Technology:
        """Unstack one sample into a scalar :class:`Technology`."""
        if not 0 <= index < self.sample_count:
            raise TechnologyError(
                f"sample index {index} outside the population "
                f"(0..{self.sample_count - 1})"
            )
        return Technology(
            name=f"{self.name}[{index}]",
            feature_size_um=self.feature_size_um,
            vdd=float(np.asarray(self.vdd)[index, 0]),
            nmos=self.nmos.parameters_at(index),
            pmos=self.pmos.parameters_at(index),
            wire_cap_f_per_um=float(np.asarray(self.wire_cap_f_per_um)[index, 0]),
            min_width_um=self.min_width_um,
            metal_layers=self.metal_layers,
            extra=dict(self.extras[index]),
        )

    def technologies(self) -> list:
        """Unstack the whole population (one scalar Technology per sample)."""
        return [self.technology_at(index) for index in range(self.sample_count)]

    # ------------------------------------------------------------------ #
    # Technology duck-typed surface
    # ------------------------------------------------------------------ #

    def transistor(self, polarity: str) -> TransistorParameterArray:
        """Return the stacked parameter block for ``"nmos"`` or ``"pmos"``."""
        if polarity == "nmos":
            return self.nmos
        if polarity == "pmos":
            return self.pmos
        raise TechnologyError(f"unknown polarity {polarity!r}")

    def with_supply(self, vdd: ParameterLike) -> "TechnologyArray":
        """A copy operated at different supplies (scalar or per-sample)."""
        return dataclasses.replace(self, vdd=vdd)

    def tiled(self, repeats: int) -> "TechnologyArray":
        """The whole population repeated ``repeats`` times (repeat-major).

        The building block for stacked cross products: the sweep
        planner's supply x sample lowering is
        ``population.tiled(V).with_supply(np.repeat(supplies, S))``, so
        flat sample ``v * S + s`` carries supply ``v`` over sample ``s``
        and the result reshapes cleanly to ``(V, S)``.
        """
        repeats = integer(repeats, "repeats", TechnologyError, at_least=1)
        return TechnologyArray(
            name=f"{self.name}_x{repeats}",
            feature_size_um=self.feature_size_um,
            vdd=np.tile(np.asarray(self.vdd, dtype=float), (repeats, 1)),
            nmos=self.nmos.tiled(repeats),
            pmos=self.pmos.tiled(repeats),
            wire_cap_f_per_um=np.tile(
                np.asarray(self.wire_cap_f_per_um, dtype=float), (repeats, 1)
            ),
            min_width_um=self.min_width_um,
            metal_layers=self.metal_layers,
            extras=tuple(dict(extra) for _ in range(repeats) for extra in self.extras),
        )

    def sliced(self, start: int, stop: int) -> "TechnologyArray":
        """Rows ``[start, stop)`` of the population (a tiling sub-range).

        The sweep engine's tiling pass partitions the sample axis with
        this: every stacked column is sliced elementwise, so evaluating
        the sub-population reproduces the corresponding rows of the full
        broadcast bit for bit.
        """
        start, stop = _check_row_range(start, stop, self.sample_count)
        return TechnologyArray(
            name=f"{self.name}[{start}:{stop}]",
            feature_size_um=self.feature_size_um,
            vdd=np.asarray(self.vdd, dtype=float)[start:stop],
            nmos=self.nmos.sliced(start, stop),
            pmos=self.pmos.sliced(start, stop),
            wire_cap_f_per_um=np.asarray(self.wire_cap_f_per_um, dtype=float)[
                start:stop
            ],
            min_width_um=self.min_width_um,
            metal_layers=self.metal_layers,
            extras=tuple(dict(extra) for extra in self.extras[start:stop]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TechnologyArray({self.name!r}, samples={self.sample_count})"


def technology_column_arrays(array: TechnologyArray) -> Dict[str, np.ndarray]:
    """The stacked ``(samples, 1)`` float columns of a population, flat.

    Keys are ``"vdd"``, ``"wire_cap_f_per_um"`` and the dotted
    per-device fields (``"nmos.vth0"``, ``"pmos.mobility"``, ...).  This
    is the serialized surface of the population — a ``sample`` axis's
    ``to_dict`` writes exactly these arrays, and ``from_dict`` rebuilds
    the population from them via :func:`technology_array_from_columns`.
    """
    columns: Dict[str, np.ndarray] = {
        "vdd": np.asarray(array.vdd, dtype=float),
        "wire_cap_f_per_um": np.asarray(array.wire_cap_f_per_um, dtype=float),
    }
    for polarity in ("nmos", "pmos"):
        block = getattr(array, polarity)
        for field in _TRANSISTOR_FIELDS:
            columns[f"{polarity}.{field}"] = np.asarray(
                getattr(block, field), dtype=float
            )
    return columns


def technology_array_from_columns(
    name: str,
    feature_size_um: float,
    min_width_um: float,
    metal_layers: int,
    extras: Tuple[Dict[str, float], ...],
    columns: Dict[str, np.ndarray],
) -> TechnologyArray:
    """Rebuild a :class:`TechnologyArray` from its transported columns.

    Inverse of :func:`technology_column_arrays`; each column is
    normalized and validated like any other stacked field.
    """
    def block(polarity: str) -> TransistorParameterArray:
        return TransistorParameterArray(
            polarity=polarity,
            **{field: columns[f"{polarity}.{field}"] for field in _TRANSISTOR_FIELDS},
        )

    return TechnologyArray(
        name=name,
        feature_size_um=feature_size_um,
        vdd=columns["vdd"],
        nmos=block("nmos"),
        pmos=block("pmos"),
        wire_cap_f_per_um=columns["wire_cap_f_per_um"],
        min_width_um=min_width_um,
        metal_layers=metal_layers,
        extras=extras,
    )


def stack_technologies(
    technologies: Union[Sequence[Technology], TechnologyArray],
) -> TechnologyArray:
    """Stack per-sample scalar technologies into one :class:`TechnologyArray`.

    The one coercion point of the population layout: a
    :class:`TechnologyArray` is returned unchanged, and a sequence of
    scalar technologies is stacked.  Every sample must share the
    geometry-defining scalars (``feature_size_um``, ``min_width_um``,
    ``metal_layers``); the electrical parameters, the supply and the
    wire capacitance are stacked into ``(samples, 1)`` columns.  The
    result evaluates identically (elementwise) to looping over the input
    technologies, which the stacked-equivalence tests pin down.
    """
    if isinstance(technologies, TechnologyArray):
        return technologies
    techs = list(technologies)
    if not techs:
        raise TechnologyError("cannot stack an empty technology sequence")
    if any(isinstance(t, TechnologyArray) for t in techs):
        raise TechnologyError("technologies are already stacked")
    disagreements = []
    for field in ("feature_size_um", "min_width_um", "metal_layers"):
        values = list(dict.fromkeys(getattr(t, field) for t in techs))
        if len(values) > 1:
            disagreements.append(f"{field}: {' vs '.join(map(str, values))}")
    if disagreements:
        raise TechnologyError(
            "stacked technologies must share feature_size_um, min_width_um "
            "and metal_layers (these define the design, not the sample); "
            f"they disagree on {'; '.join(disagreements)}. To compare "
            "technology nodes, sweep them with Axis.technology"
        )
    base = techs[0]
    return TechnologyArray(
        name=f"{base.name}_stack{len(techs)}",
        feature_size_um=base.feature_size_um,
        vdd=np.asarray([t.vdd for t in techs], dtype=float),
        nmos=stack_transistor_parameters([t.nmos for t in techs]),
        pmos=stack_transistor_parameters([t.pmos for t in techs]),
        wire_cap_f_per_um=np.asarray(
            [t.wire_cap_f_per_um for t in techs], dtype=float
        ),
        min_width_um=base.min_width_um,
        metal_layers=base.metal_layers,
        extras=tuple(dict(t.extra) for t in techs),
    )
