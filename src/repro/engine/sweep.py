"""Declarative sweep API: named-axis workloads over the batch engine.

Every paper-facing artefact is a cross product of the same few axes —
ring ``configuration`` (Fig. 3), transistor ``width_ratio`` (Fig. 2),
process ``sample`` (the Monte-Carlo calibration argument), ``supply``
and ``temperature`` — yet before this module each cross product was a
bespoke entry point threading positional ndarray dimensions by hand.
This module turns the workload itself into data:

* :class:`Axis` — one named axis with coordinate labels.  The known
  axes are ``technology`` (registered process nodes, one evaluation
  context per coordinate), ``configuration``, ``width_ratio``,
  ``resolution`` (the thermal grid's density), ``site``, ``supply``,
  ``sample`` and ``temperature`` (that tuple,
  :data:`CANONICAL_AXIS_ORDER`, is also the canonical broadcast order
  of the result dimensions).
* :class:`Sweep` — a builder that composes axes over a base context
  (technology / library / configuration / ring) plus an observable
  (period, frequency, the sensor transfer curve, calibration error,
  non-linearity).
* :class:`SweepPlan` — the planner: validates the axis combination and
  lowers the named axes onto numpy broadcast dimensions.  The
  ``sample`` and ``supply`` axes stack into one struct-of-arrays
  technology population (:mod:`repro.tech.stacked`); the
  ``configuration`` axis stacks into a
  :class:`~repro.oscillator.bank.ConfigurationBank` so the whole
  Fig. 3 x Monte-Carlo cross product evaluates as a single
  ``(C, S, T)`` broadcast; ``width_ratio`` (a geometry axis that
  rebuilds the cell) evaluates one sized ring per coordinate.  Each
  branch only picks the per-cell delay curves and load weights of its
  ring sources (:class:`~repro.oscillator.ring.CellCurves`); one tail
  contracts them into the periods, or sums an endpoint observable from
  the per-cell terms, and forms the observable.
* :class:`SweepResult` — a labeled ndarray container (axis names +
  coordinates with ``select`` / ``isel`` / ``squeeze`` / ``to_dict``
  accessors), so callers stop tracking which raw dimension is which.

Example — the Fig. 3 x Monte-Carlo cross product in one expression::

    result = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
        .over(Axis.sample(sample_technology_array(CMOS035, 1000, seed=1)))
        .over(Axis.temperature(np.linspace(-50.0, 150.0, 41)))
        .observe("period")
        .run()
    )
    result.dims                       # ('configuration', 'sample', 'temperature')
    result.select(configuration="5INV").values.shape   # (1000, 41)

The rewritten experiments (:mod:`repro.experiments.fig2_sizing`,
:mod:`repro.experiments.fig3_cellmix`,
:mod:`repro.experiments.calibration_study`,
:mod:`repro.analysis.supply`, :mod:`repro.analysis.montecarlo`) all
build their period tensors through this API; it is their only
evaluation path.  The one-point-at-a-time scalar loops it replaced live
in the test suite (``tests/oracles.py``) as equivalence oracles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cells.library import CellLibrary, default_library
from ..core.readout import PeriodCounter, ReadoutConfig
from ..core.sensor_bank import SensorBank
from ..fields import ReproInputError, integer, real, real_array
from ..oscillator.bank import ConfigurationBank, normalise_configurations
from ..oscillator.config import ConfigurationError, RingConfiguration, odd_stage_count
from ..oscillator.period import default_temperature_grid
from ..oscillator.ring import CellCurves, RingOscillator
from ..tech.parameters import CELSIUS_OFFSET, Technology, TechnologyError
from ..tech.stacked import (
    stack_technologies,
    technology_array_from_columns,
    technology_column_arrays,
)
from ..thermal.floorplan import Floorplan
from ..thermal.grid import ThermalGrid, ThermalGridParameters
from ..thermal.operator import ThermalOperator
from ..thermal.power import PowerMap

__all__ = [
    "Axis",
    "CANONICAL_AXIS_ORDER",
    "OBSERVABLES",
    "Sweep",
    "SweepError",
    "SweepPlan",
    "SweepResult",
    "TechnologyMismatchError",
]

#: The canonical broadcast order of the named axes: every
#: :class:`SweepResult` carries its dimensions in this order no matter
#: the order the axes were declared in.  ``technology`` is outermost —
#: each node is a complete evaluation context (its own cell library and
#: rings), so the axis lowers to an outer per-node loop around the fully
#: broadcast inner sweep.  ``site`` (the sensor-bank location axis) sits
#: outside the ``supply``/``sample`` pair because those two lower onto
#: one flat supply-major population axis that must stay contiguous to
#: un-reshape; ``resolution`` (the thermal grid's density — a
#: grid-refinement axis that re-solves the die's thermal field per
#: coordinate, one cached
#: :class:`~repro.thermal.operator.ThermalOperator` entry each) sits
#: just outside ``site`` because each refinement produces one junction
#: temperature per site.
CANONICAL_AXIS_ORDER = (
    "technology",
    "configuration",
    "width_ratio",
    "resolution",
    "site",
    "supply",
    "sample",
    "temperature",
)

#: The observables a sweep can evaluate.  All preserve the axis shape:
#: ``period`` (s) and ``frequency`` (Hz) are the raw tensor;
#: ``code`` is the counter-quantised digital output (the readout comes
#: from the site axis's bank, or the sweep's ``readout=``; codes beyond
#: the counter width are *clamped* to ``max_code`` exactly as the
#: hardware saturates — use :meth:`repro.core.SensorBank.scan` when the
#: saturation mask itself is needed);
#: ``power`` (W) is the free-running dynamic power
#: ``f * Vdd^2 * C_switched``;
#: ``transfer_c`` is the two-point-calibrated temperature estimate (the
#: ideal sensor transfer curve, calibrated per row at the sweep's
#: endpoint temperatures); ``calibration_error_c`` is that estimate
#: minus the true temperature; ``nonlinearity_percent`` is the paper's
#: endpoint-fit non-linearity error in percent of full scale.
OBSERVABLES = (
    "period",
    "frequency",
    "code",
    "power",
    "transfer_c",
    "calibration_error_c",
    "nonlinearity_percent",
)

#: Observables fit against the sweep's endpoint temperatures; they need
#: an explicit (or defaulted) temperature axis, which a site axis with
#: per-site junction temperatures does not have.
_ENDPOINT_OBSERVABLES = ("transfer_c", "calibration_error_c", "nonlinearity_percent")


class SweepError(ReproInputError):
    """Raised for invalid sweep specifications or result queries."""


class TechnologyMismatchError(SweepError):
    """A serialized technology reference does not match this process.

    Raised by :meth:`Sweep.from_dict` / :meth:`Axis.from_dict` when a
    ``{name, digest}`` technology reference names a node this process's
    registry does not know, or knows under a *different* content digest
    — e.g. two hosts sharing a cache directory that disagree about what
    a name means, or one host after
    ``register_technology(..., overwrite=True)``.  Structured so the
    sweep service can answer with its ``tech-mismatch`` error code
    instead of silently evaluating the wrong physics.

    Attributes
    ----------
    technology_name:
        The node name the spec referenced.
    spec_digest:
        The content digest the spec declared (``None`` if absent).
    local_digest:
        The digest this process's registry holds for that name
        (``None`` when the name is unregistered here).
    """

    def __init__(
        self,
        message: str,
        *,
        technology_name: Optional[str] = None,
        spec_digest: Optional[str] = None,
        local_digest: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.technology_name = technology_name
        self.spec_digest = spec_digest
        self.local_digest = local_digest


def _technology_to_dict(tech: Technology) -> Dict[str, Any]:
    """Serialize a base/axis technology as a content-addressed reference.

    Registered nodes (value-equal to their registry entry) travel as a
    compact ``{name, digest}`` pair; unregistered nodes carry their full
    declarative parameter bundle inline (plus the digest computed over
    it, so the receiver can verify the payload survived transport).
    Either way the canonical spec contains the digest — the caches key
    on what the technology *is*, not what it is called.
    """
    from ..tech.registry import default_registry, technology_digest

    spec = default_registry().spec_for(tech)
    if spec is not None:
        return {"name": spec.name, "digest": spec.digest}
    return {
        "name": tech.name,
        "digest": technology_digest(tech),
        "parameters": tech.to_dict(),
    }


def _technology_from_dict(payload: Mapping[str, Any]) -> Technology:
    """Resolve a serialized technology reference against this process.

    ``{name, digest}`` references resolve through the registry and the
    digest must match the registered node's; inline ``parameters``
    bundles are rebuilt (re-running all parameter-range validation) and
    their recomputed digest must match the declared one.  Mismatches
    raise :class:`TechnologyMismatchError` — never a silent fallback to
    whatever this process happens to call ``name``.
    """
    from ..tech.registry import default_registry, technology_digest

    if not isinstance(payload, Mapping):
        raise SweepError(
            f"a serialized technology must be a mapping of the form "
            f"{{name, digest[, parameters]}}, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - {"name", "digest", "parameters"})
    if unknown:
        raise SweepError(
            f"serialized technology has unknown field(s) {unknown}; "
            f"expected {{name, digest[, parameters]}}"
        )
    name = payload.get("name")
    digest = payload.get("digest")
    if not isinstance(name, str) or not name:
        raise SweepError("serialized technology needs a non-empty string 'name'")
    if not isinstance(digest, str) or not digest:
        raise SweepError("serialized technology needs a non-empty string 'digest'")
    if payload.get("parameters") is not None:
        try:
            tech = Technology.from_dict(payload["parameters"])
        except TechnologyError as error:
            raise SweepError(
                f"invalid inline technology parameters for {name!r}: {error}"
            ) from error
        if tech.name != name:
            raise SweepError(
                f"serialized technology name {name!r} does not match its "
                f"inline parameter bundle's name {tech.name!r}"
            )
        actual = technology_digest(tech)
        if actual != digest:
            raise TechnologyMismatchError(
                f"inline parameters for technology {name!r} hash to "
                f"{actual[:12]}..., not the declared digest {digest[:12]}...; "
                f"the spec was corrupted or tampered with in transport",
                technology_name=name,
                spec_digest=digest,
                local_digest=actual,
            )
        return tech
    registry = default_registry()
    if name not in registry:
        raise TechnologyMismatchError(
            f"technology {name!r} (digest {digest[:12]}...) is not registered "
            f"in this process and the spec carries no inline parameters; "
            f"register the node here or serialize it from an unregistered "
            f"Technology object",
            technology_name=name,
            spec_digest=digest,
            local_digest=None,
        )
    spec = registry.spec(name)
    if spec.digest != digest:
        raise TechnologyMismatchError(
            f"technology {name!r} is registered here with digest "
            f"{spec.digest[:12]}... but the spec references digest "
            f"{digest[:12]}...; the two registries disagree about what "
            f"{name!r} means — refusing to evaluate the wrong physics",
            technology_name=name,
            spec_digest=digest,
            local_digest=spec.digest,
        )
    return spec.technology


def _duplicate_labels(labels: Sequence[Any]) -> List[Any]:
    """The labels appearing more than once, in first-appearance order."""
    if len(set(labels)) == len(labels):
        return []
    seen: set = set()
    duplicates: List[Any] = []
    for label in labels:
        if label in seen and label not in duplicates:
            duplicates.append(label)
        seen.add(label)
    return duplicates


# --------------------------------------------------------------------------- #
# axes
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Axis:
    """One named sweep axis: coordinate labels plus the lowering payload.

    Use the named constructors (:meth:`technology`, :meth:`temperature`,
    :meth:`sample`, :meth:`configuration`, :meth:`supply`,
    :meth:`width_ratio`) — they validate the values and attach the
    payload the planner lowers from.
    Coordinates keep the caller's order (the planner never reorders
    *within* an axis, only the axes themselves into
    :data:`CANONICAL_AXIS_ORDER`).
    """

    name: str
    coordinates: Tuple[Any, ...]
    payload: Any = None

    def __post_init__(self) -> None:
        if self.name not in CANONICAL_AXIS_ORDER:
            raise SweepError(
                f"unknown axis {self.name!r}; named axes are "
                f"{', '.join(CANONICAL_AXIS_ORDER)}"
            )
        if not self.coordinates:
            raise SweepError(f"axis {self.name!r} needs at least one coordinate")

    def __len__(self) -> int:
        return len(self.coordinates)

    # ------------------------------------------------------------------ #
    # named constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def technology(
        cls, technologies: Sequence[Union[Technology, str]]
    ) -> "Axis":
        """The technology-node axis: one process node per coordinate.

        Accepts :class:`~repro.tech.parameters.Technology` objects or
        registered node names (resolved through the content-addressed
        registry).  Coordinates are the node names, so they must be
        unique.  Each node is a complete evaluation context — its own
        default cell library and rings — so the axis lowers to an outer
        per-node loop around the fully broadcast inner sweep, stacked
        outermost in the canonical result order.  Mutually exclusive
        with a ``technology=``/``library=``/``ring=`` base and with the
        ``site``/``sample`` axes (a sensor bank or a concrete
        Monte-Carlo population pins one node).
        """
        from ..tech.libraries import get_technology

        nodes: List[Technology] = []
        for entry in list(technologies):
            if isinstance(entry, str):
                try:
                    entry = get_technology(entry)
                except TechnologyError as error:
                    raise SweepError(str(error)) from error
            if not isinstance(entry, Technology):
                raise SweepError(
                    f"the technology axis takes Technology objects or "
                    f"registered names, got {type(entry).__name__}"
                )
            nodes.append(entry)
        if not nodes:
            raise SweepError("technology axis needs at least one node")
        duplicates = _duplicate_labels([node.name for node in nodes])
        if duplicates:
            raise SweepError(
                f"technology axis has duplicate node names {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls(
            "technology", tuple(node.name for node in nodes), payload=tuple(nodes)
        )

    @classmethod
    def temperature(cls, temperatures_c: Sequence[float]) -> "Axis":
        """The junction-temperature axis (deg C), evaluated pointwise.

        The grid is kept in the caller's order (periods are evaluated
        elementwise, so ordering is presentation only).  Each point must
        be unique — duplicates would collide as coordinate labels in the
        result (and re-evaluate the same point for nothing) — finite and
        above absolute zero.  The device models are fitted for roughly
        50–600 K and extrapolate outside that range; nothing else bounds
        a temperature.
        """
        temps = real_array(
            list(temperatures_c), "temperature", SweepError, above=-CELSIUS_OFFSET
        )
        if temps.ndim != 1 or temps.size < 1:
            raise SweepError("temperature axis needs a 1-D grid of at least one point")
        duplicates = _duplicate_labels([float(t) for t in temps])
        if duplicates:
            raise SweepError(
                f"temperature axis has duplicate points {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls("temperature", tuple(float(t) for t in temps))

    @classmethod
    def sample(cls, technologies) -> "Axis":
        """The process-sample axis: a technology population.

        Accepts a stacked :class:`~repro.tech.stacked.TechnologyArray`
        (kept as-is) or a sequence of
        :class:`~repro.tech.parameters.Technology` samples, stacked here
        into one.  A sequence that cannot stack (samples from different
        technology nodes) raises :class:`SweepError`; nodes are compared
        with :meth:`technology`.  Coordinates are the sample indices.
        """
        try:
            population = stack_technologies(technologies)
        except TechnologyError as error:
            raise SweepError(f"invalid sample axis: {error}") from error
        return cls("sample", tuple(range(len(population))), payload=population)

    @classmethod
    def configuration(
        cls,
        configurations: Union[
            Mapping[str, RingConfiguration],
            Sequence[Union[RingConfiguration, str]],
        ],
    ) -> "Axis":
        """The ring-configuration axis (the paper's Fig. 3 knob).

        Accepts a label-to-configuration mapping, or a sequence of
        configurations / parseable strings (labelled by their canonical
        ``cfg.label()``).  Lowered onto a
        :class:`~repro.oscillator.bank.ConfigurationBank` — the whole
        axis evaluates as one broadcast, not one pass per ring.
        """
        try:
            labels, configs = normalise_configurations(configurations)
        except ConfigurationError as error:
            raise SweepError(str(error)) from error
        return cls(
            "configuration",
            labels,
            payload=dict(zip(labels, configs)),
        )

    @classmethod
    def site(
        cls,
        bank: SensorBank,
        junction_temperatures_c: Optional[Sequence[float]] = None,
    ) -> "Axis":
        """The sensor-site axis: a floorplan bank of identical sensors.

        Backed by a :class:`~repro.core.sensor_bank.SensorBank`.  Two
        modes:

        * with ``junction_temperatures_c`` (one per site, in site
          order) the sweep *scans* the bank — every site is evaluated
          at its own local junction temperature (usually gathered from
          a solved :class:`~repro.thermal.grid.TemperatureMap`), and
          the result has a ``site`` dimension instead of a
          ``temperature`` one;
        * without, the sweep *characterises* the bank — every site is
          evaluated over the shared temperature axis.  The sites share
          one ring design (as the multiplexed hardware shares one
          readout), so this mode is a broadcast along the site
          dimension, not a recompute.

        Coordinates are the site names.  Mutually exclusive with the
        ``configuration`` and ``width_ratio`` axes (the bank already
        fixes the ring design).
        """
        if not isinstance(bank, SensorBank):
            raise SweepError(
                f"the site axis takes a SensorBank, got {type(bank).__name__}"
            )
        temps = None
        if junction_temperatures_c is not None:
            temps = real_array(
                list(junction_temperatures_c),
                "junction_temperatures_c",
                SweepError,
                above=-CELSIUS_OFFSET,
            )
            if temps.shape != (bank.site_count,):
                raise SweepError(
                    f"expected one junction temperature per site "
                    f"({bank.site_count}), got shape {temps.shape}"
                )
        return cls(
            "site",
            bank.names(),
            payload={"bank": bank, "junction_temperatures_c": temps},
        )

    @classmethod
    def resolution(
        cls,
        resolutions: Sequence[int],
        floorplan: Floorplan,
        ambient_c: float = 45.0,
        parameters: ThermalGridParameters = ThermalGridParameters(),
    ) -> "Axis":
        """The thermal-grid density axis (a grid-refinement study).

        For each coordinate ``r`` the planner rasterises the floorplan's
        power map onto an ``r x r`` grid, solves the steady-state die
        temperature field through the process-wide
        :class:`~repro.thermal.operator.ThermalOperator` cache (one
        entry — one prepared solve — per resolution) and reads every
        sensor site of the sweep's ``site`` axis at its local junction
        temperature.  The result gains a ``resolution`` dimension just
        outside ``site``.

        Requires a ``site`` axis *without* explicit junction
        temperatures (the solved fields supply them); like a site scan,
        it carries no ``temperature`` axis.  Coordinates are the grid
        resolutions, in the caller's order (each refinement is solved
        independently).
        """
        if not isinstance(floorplan, Floorplan):
            raise SweepError(
                f"the resolution axis takes a Floorplan, got "
                f"{type(floorplan).__name__}"
            )
        values = list(resolutions)
        if not values:
            raise SweepError("resolution axis needs at least one grid resolution")
        coords = []
        for value in values:
            try:
                valid = int(value) == value and int(value) >= 2
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                raise SweepError(
                    f"resolution axis coordinates must be integers >= 2, got {value!r}"
                )
            coords.append(int(value))
        duplicates = _duplicate_labels(coords)
        if duplicates:
            raise SweepError(
                f"resolution axis has duplicate resolutions {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls(
            "resolution",
            tuple(coords),
            payload={
                "floorplan": floorplan,
                "ambient_c": float(ambient_c),
                "parameters": parameters,
            },
        )

    @classmethod
    def supply(cls, supplies_v: Sequence[float]) -> "Axis":
        """The supply-voltage axis (V), applied via ``with_supply``.

        When combined with a ``sample`` axis the supplies override each
        sample's vdd, giving the full supply x sample cross product.
        """
        values = real_array(list(supplies_v), "supply", SweepError, above=0.0)
        if values.ndim != 1 or values.size < 1:
            raise SweepError("supply axis needs a 1-D grid of at least one voltage")
        if len(set(values.tolist())) != values.size:
            raise SweepError("supply voltages must be unique")
        return cls("supply", tuple(float(v) for v in values))

    @classmethod
    def width_ratio(
        cls,
        ratios: Sequence[float],
        nmos_width_um: float = 1.05,
        stage_count: int = 5,
    ) -> "Axis":
        """The Wp/Wn sizing axis (the paper's Fig. 2 knob).

        A geometry axis: every ratio rebuilds the inverter cell (via
        :func:`repro.optimize.sizing.build_sized_ring`), so each ratio
        is its own ring, evaluated over the fully broadcast sample and
        temperature grid, rather than a broadcast dimension of its own.
        Mutually exclusive with
        the ``configuration`` axis.  Ratios must be unique — a duplicate
        would collide as a coordinate label in the result, making
        ``select`` ambiguous and the serialized form lossy.  The rings
        take the sweep's ``wire_length_um``, ``external_load_f`` and
        ``tap_stage``; :meth:`Sweep.plan` builds them, so a width below
        the technology minimum is refused there.
        """
        values = real_array(list(ratios), "width_ratio", SweepError, above=0.0)
        if values.ndim != 1 or values.size < 1:
            raise SweepError("width_ratio axis needs at least one ratio")
        duplicates = _duplicate_labels([float(r) for r in values])
        if duplicates:
            raise SweepError(
                f"width_ratio axis has duplicate ratios {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls(
            "width_ratio",
            tuple(float(r) for r in values),
            payload={
                "nmos_width_um": real(nmos_width_um, "nmos_width_um", SweepError, above=0.0),
                "stage_count": odd_stage_count(stage_count, SweepError),
            },
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form of a serializable axis.

        The payload is built from plain lists and scalars so it
        round-trips through JSON and :meth:`from_dict` — the form a
        sweep spec travels in through the sweep service
        (:mod:`repro.serve`) and its content-addressed result cache.
        The ``site`` and ``resolution`` axes carry live objects (a
        :class:`~repro.core.sensor_bank.SensorBank`, a
        :class:`~repro.thermal.floorplan.Floorplan`) and have no
        serialized form; they raise :class:`SweepError`.
        """
        if self.name == "technology":
            return {
                "name": "technology",
                "nodes": [_technology_to_dict(node) for node in self.payload],
            }
        if self.name == "temperature":
            return {
                "name": "temperature",
                "coordinates": [float(t) for t in self.coordinates],
            }
        if self.name == "supply":
            return {
                "name": "supply",
                "coordinates": [float(v) for v in self.coordinates],
            }
        if self.name == "width_ratio":
            return {
                "name": "width_ratio",
                "coordinates": [float(r) for r in self.coordinates],
                "nmos_width_um": float(self.payload["nmos_width_um"]),
                "stage_count": int(self.payload["stage_count"]),
            }
        if self.name == "configuration":
            return {
                "name": "configuration",
                "labels": [str(label) for label in self.coordinates],
                "stages": [
                    list(self.payload[label].stages) for label in self.coordinates
                ],
            }
        if self.name == "sample":
            population = self.payload
            columns = technology_column_arrays(population)
            return {
                "name": "sample",
                "technology": {
                    "name": str(population.name),
                    "feature_size_um": float(population.feature_size_um),
                    "min_width_um": float(population.min_width_um),
                    "metal_layers": int(population.metal_layers),
                    "extras": [dict(extra) for extra in population.extras],
                },
                "columns": {
                    key: np.asarray(column, dtype=float).reshape(-1).tolist()
                    for key, column in sorted(columns.items())
                },
            }
        raise SweepError(
            f"axis {self.name!r} carries live objects (a sensor bank or "
            f"floorplan) and has no serialized form; a served sweep "
            f"supports the technology, configuration, width_ratio, supply, "
            f"sample and temperature axes"
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Axis":
        """Re-hydrate an axis serialized by :meth:`to_dict`."""
        if not isinstance(payload, Mapping):
            raise SweepError(
                f"Axis.from_dict takes a to_dict() mapping, got "
                f"{type(payload).__name__}"
            )
        name = payload.get("name")
        try:
            if name == "technology":
                nodes = payload["nodes"]
                if not isinstance(nodes, Sequence) or isinstance(nodes, (str, bytes)):
                    raise SweepError(
                        f"serialized technology axis's nodes must be a list, "
                        f"got {type(nodes).__name__}"
                    )
                return cls.technology(
                    [_technology_from_dict(entry) for entry in nodes]
                )
            if name == "temperature":
                return cls.temperature(payload["coordinates"])
            if name == "supply":
                return cls.supply(payload["coordinates"])
            if name == "width_ratio":
                return cls.width_ratio(
                    payload["coordinates"],
                    nmos_width_um=payload["nmos_width_um"],
                    stage_count=payload["stage_count"],
                )
            if name == "configuration":
                labels = [str(label) for label in payload["labels"]]
                stages = payload["stages"]
                if len(labels) != len(stages):
                    raise SweepError(
                        f"configuration axis has {len(labels)} labels but "
                        f"{len(stages)} stage lists"
                    )
                configs = [
                    RingConfiguration(tuple(str(s) for s in entry))
                    for entry in stages
                ]
                return cls.configuration(dict(zip(labels, configs)))
            if name == "sample":
                tech = payload["technology"]
                # Plain lists: the stacked fields check every sample
                # (a string or boolean is refused, not coerced).
                columns = dict(payload["columns"])
                try:
                    population = technology_array_from_columns(
                        name=str(tech["name"]),
                        feature_size_um=float(tech["feature_size_um"]),
                        min_width_um=float(tech["min_width_um"]),
                        metal_layers=int(tech["metal_layers"]),
                        extras=tuple(dict(extra) for extra in tech["extras"]),
                        columns=columns,
                    )
                except (TechnologyError, KeyError) as error:
                    raise SweepError(
                        f"invalid serialized sample population: {error}",
                        getattr(error, "field", None),
                    ) from error
                return cls.sample(population)
        except SweepError:
            raise
        except KeyError as error:
            raise SweepError(
                f"serialized {name!r} axis is missing key {error}"
            ) from None
        except (TypeError, ValueError) as error:
            raise SweepError(f"invalid serialized {name!r} axis: {error}") from error
        raise SweepError(
            f"unknown serialized axis {name!r}; serializable axes are "
            f"technology, configuration, width_ratio, supply, sample and "
            f"temperature"
        )


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepResult:
    """A labeled ndarray: sweep values plus named axes and coordinates.

    ``dims`` names each dimension of ``values`` (a subset of
    :data:`CANONICAL_AXIS_ORDER`, in that order) and ``coords`` maps
    each name to its coordinate labels, so callers select by meaning
    (``result.select(configuration="5INV", temperature=25.0)``) instead
    of tracking raw dimension positions.
    """

    values: np.ndarray
    dims: Tuple[str, ...]
    coords: Dict[str, Tuple[Any, ...]]
    observable: str = "period"

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "coords", dict(self.coords))
        if len(set(self.dims)) != len(self.dims):
            raise SweepError(f"duplicate axis names in {self.dims}")
        if values.ndim != len(self.dims):
            raise SweepError(
                f"values have {values.ndim} dimensions but {len(self.dims)} "
                f"axis names were given"
            )
        if set(self.coords) != set(self.dims):
            raise SweepError("coords must carry exactly one entry per axis name")
        for axis, name in enumerate(self.dims):
            if len(self.coords[name]) != values.shape[axis]:
                raise SweepError(
                    f"axis {name!r} has {values.shape[axis]} entries but "
                    f"{len(self.coords[name])} coordinates"
                )
        for name in self.dims:
            duplicates = _duplicate_labels(self.coords[name])
            if duplicates:
                # Duplicate labels would silently collapse in the
                # coordinate-keyed to_dict tree (later keys overwrite
                # earlier ones, dropping data) and make select() return
                # an arbitrary one of the colliding entries.
                raise SweepError(
                    f"axis {name!r} has duplicate coordinate labels "
                    f"{duplicates}; coordinates must be unique per axis"
                )

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.values.shape

    def axis_index(self, name: str) -> int:
        """Position of a named axis in the value array."""
        try:
            return self.dims.index(name)
        except ValueError:
            raise SweepError(
                f"result has no axis {name!r}; axes are {self.dims}"
            ) from None

    def coordinates(self, name: str) -> Tuple[Any, ...]:
        """Coordinate labels of a named axis."""
        self.axis_index(name)
        return tuple(self.coords[name])

    def item(self) -> float:
        """The single value of a fully selected (size-1) result."""
        if self.values.size != 1:
            raise SweepError(
                f"item() needs a single-element result, got shape {self.shape}"
            )
        return float(self.values.reshape(()))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    def _locate(
        self, name: str, label: Any, index_of: Optional[Dict[Any, int]] = None
    ) -> int:
        """Position of ``label``: an exact match first, else one within tolerance.

        ``index_of`` maps each coordinate of the axis to its position
        and makes the exact match a dict lookup; without it, or for an
        unhashable label, the axis is scanned.
        """
        labels = self.coords[name]
        try:
            return index_of[label]
        except KeyError:
            pass
        except TypeError:  # no index_of, or an unhashable label
            for index, candidate in enumerate(labels):
                if candidate == label:
                    return index
        if isinstance(label, (int, float)) and not isinstance(label, bool):
            numeric = [
                index
                for index, candidate in enumerate(labels)
                if isinstance(candidate, (int, float))
                and np.isclose(float(candidate), float(label), rtol=1e-12, atol=0.0)
            ]
            if len(numeric) > 1:
                # Near-duplicate float coordinates (e.g. a refinement
                # axis converging on one value) make "the first isclose
                # match" an arbitrary choice; force the caller to
                # disambiguate by position instead of silently picking
                # index 0.
                matches = [labels[index] for index in numeric]
                raise SweepError(
                    f"label {label!r} on axis {name!r} is ambiguous: it is "
                    f"within tolerance of coordinates {matches} at positions "
                    f"{numeric}; select by position with isel() instead"
                )
            if numeric:
                return numeric[0]
        raise SweepError(
            f"axis {name!r} has no coordinate {label!r}; coordinates are {labels}"
        )

    def select(self, **selectors: Any) -> "SweepResult":
        """Select by coordinate label.

        A scalar label drops the axis; a list/tuple of labels keeps the
        axis restricted to that subset (in the requested order).
        """
        result = self
        for name, label in selectors.items():
            result.axis_index(name)
            if isinstance(label, (list, tuple)):
                # Coordinates are unique and hashable (checked at construction).
                index_of = {c: i for i, c in enumerate(result.coords[name])}
                position = [result._locate(name, entry, index_of) for entry in label]
            else:
                position = result._locate(name, label)
            result = result.isel(**{name: position})
        return result

    def isel(self, **indexers: Union[int, Sequence[int]]) -> "SweepResult":
        """Select by integer position (same drop/keep rules as :meth:`select`)."""
        result = self
        for name, index in indexers.items():
            result.axis_index(name)
            if isinstance(index, (list, tuple)):
                result = result._take(name, [int(i) for i in index], keep=True)
            else:
                result = result._take(name, [int(index)], keep=False)
        return result

    def _take(self, name: str, indices: List[int], keep: bool) -> "SweepResult":
        axis = self.axis_index(name)
        labels = self.coords[name]
        for index in indices:
            if not -len(labels) <= index < len(labels):
                raise SweepError(
                    f"index {index} outside axis {name!r} (size {len(labels)})"
                )
        taken = np.take(self.values, indices, axis=axis)
        coords = dict(self.coords)
        if keep:
            coords[name] = tuple(labels[index] for index in indices)
            return replace(self, values=taken, coords=coords)
        coords.pop(name)
        dims = tuple(d for d in self.dims if d != name)
        return replace(
            self, values=np.squeeze(taken, axis=axis), dims=dims, coords=coords
        )

    def squeeze(self) -> "SweepResult":
        """Drop every size-1 axis (labels included)."""
        keep = [i for i, name in enumerate(self.dims) if self.values.shape[i] != 1]
        dims = tuple(self.dims[i] for i in keep)
        coords = {name: self.coords[name] for name in dims}
        values = self.values.reshape([self.values.shape[i] for i in keep])
        return replace(self, values=values, dims=dims, coords=coords)

    #: Version tag of the :meth:`to_dict` serialization, bumped on any
    #: incompatible change so cached artifacts can be rejected cleanly.
    SCHEMA_VERSION = 1

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form (dims, coords, values, observable).

        The payload is built from plain lists and scalars, so it
        round-trips through JSON and :meth:`from_dict` rebuilds an
        identical result — the serialization tile results and cached
        sweep artifacts travel as (coordinates are unique, checked at
        construction).
        """
        return {
            "version": self.SCHEMA_VERSION,
            "observable": self.observable,
            "dims": list(self.dims),
            "coords": {name: list(self.coords[name]) for name in self.dims},
            "dtype": str(self.values.dtype),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Re-hydrate a result serialized by :meth:`to_dict`."""
        if not isinstance(payload, Mapping):
            raise SweepError(
                f"from_dict takes a to_dict() mapping, got {type(payload).__name__}"
            )
        missing = [
            key
            for key in ("version", "observable", "dims", "coords", "values")
            if key not in payload
        ]
        if missing:
            raise SweepError(f"serialized sweep result is missing {missing}")
        version = payload["version"]
        if version != cls.SCHEMA_VERSION:
            raise SweepError(
                f"serialized sweep result has version {version!r}; this "
                f"build reads version {cls.SCHEMA_VERSION}"
            )
        dims = tuple(payload["dims"])
        coords = {name: tuple(labels) for name, labels in payload["coords"].items()}
        values = np.asarray(payload["values"], dtype=payload.get("dtype", float))
        return cls(
            values=values,
            dims=dims,
            coords=coords,
            observable=payload["observable"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extent = ", ".join(
            f"{name}={len(self.coords[name])}" for name in self.dims
        )
        return f"SweepResult({self.observable}; {extent})"


# --------------------------------------------------------------------------- #
# the builder and the planner
# --------------------------------------------------------------------------- #


class Sweep:
    """Builder for a declarative sweep over named axes.

    Parameters
    ----------
    technology:
        Base technology (defaults to the library's, or the paper's
        0.35 um process when nothing else pins it down).
    library:
        Cell library the rings draw their stages from (the default X1
        library of the technology when omitted).
    configuration:
        Single ring configuration (a
        :class:`~repro.oscillator.config.RingConfiguration` or a
        parseable string) for sweeps without a ``configuration`` axis.
    ring:
        A fully built :class:`~repro.oscillator.ring.RingOscillator` to
        sweep as-is (wins over technology/library/configuration).
    wire_length_um / external_load_f / tap_stage:
        Ring construction parameters used when the sweep builds rings
        itself (the base ring, a configuration axis's rings or a
        width_ratio axis's sized rings); :meth:`plan` checks them by
        building those rings.
    readout:
        Counter readout used by the ``code`` observable for sweeps
        without a site axis (a site axis brings its bank's readout).

    Compose axes with :meth:`over`, pick an observable with
    :meth:`observe` (``"period"`` by default) and evaluate with
    :meth:`run`.  The builder mutates and returns itself, so the usual
    form is one fluent chain.
    """

    def __init__(
        self,
        technology: Optional[Technology] = None,
        library: Optional[CellLibrary] = None,
        configuration: Optional[Union[RingConfiguration, str]] = None,
        ring: Optional[RingOscillator] = None,
        wire_length_um: float = 2.0,
        external_load_f: float = 0.0,
        tap_stage: Optional[int] = None,
        readout: ReadoutConfig = ReadoutConfig(),
    ) -> None:
        self._technology = technology
        self._library = library
        if isinstance(configuration, str):
            configuration = RingConfiguration.parse(configuration)
        self._configuration = configuration
        self._ring = ring
        self._wire_length_um = wire_length_um
        self._external_load_f = external_load_f
        self._tap_stage = tap_stage
        self._readout = readout
        self._axes: Dict[str, Axis] = {}
        self._observable = "period"

    def over(self, *axes: Axis) -> "Sweep":
        """Add one or more named axes to the sweep."""
        for axis in axes:
            if not isinstance(axis, Axis):
                raise SweepError(f"over() takes Axis objects, got {type(axis).__name__}")
            if axis.name in self._axes:
                raise SweepError(f"axis {axis.name!r} was already added to this sweep")
            self._axes[axis.name] = axis
        return self

    def observe(self, observable: str) -> "Sweep":
        """Choose the observable (one of :data:`OBSERVABLES`)."""
        if observable not in OBSERVABLES:
            raise SweepError(
                f"unknown observable {observable!r}; choose one of {OBSERVABLES}"
            )
        self._observable = observable
        return self

    #: Version tag of the :meth:`to_dict` sweep-spec serialization,
    #: bumped on any incompatible change so a service (or a cached
    #: artifact reader) can reject stale payloads cleanly instead of
    #: misinterpreting them.  Version 2 made technology references
    #: content-addressed: the base technology and technology-axis nodes
    #: serialize as ``{name, digest}`` (inline parameter bundles for
    #: unregistered nodes), so canonical cache keys change whenever a
    #: node's *parameters* change — not just its name.
    SCHEMA_VERSION = 2

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form of a serializable sweep spec.

        The payload is built from plain lists and scalars, so it
        round-trips through JSON and :meth:`from_dict` rebuilds a sweep
        whose :meth:`run` is bit-identical to this one's — the request
        format of the sweep service (:mod:`repro.serve`), which
        content-hashes the canonicalized payload to key its result
        cache.  Serializable sweeps are those declared from data: a
        base technology (a registered node travels as its
        content-addressed ``{name, digest}`` reference, an unregistered
        one inlines its full parameter bundle), a parseable base
        configuration, and the technology / configuration / width_ratio
        / supply / sample / temperature axes.  A ``ring=`` or
        ``library=`` base and the ``site`` / ``resolution`` axes carry
        live objects and raise :class:`SweepError`.
        """
        if self._ring is not None:
            raise SweepError(
                "a ring= base carries a live RingOscillator and cannot be "
                "serialized; pass technology= plus configuration= instead"
            )
        if self._library is not None:
            raise SweepError(
                "a library= base carries a live CellLibrary and cannot be "
                "serialized; pass technology= (the default library is "
                "rebuilt on the far side)"
            )
        technology = None
        if self._technology is not None:
            technology = _technology_to_dict(self._technology)
        return {
            "version": self.SCHEMA_VERSION,
            "observable": self._observable,
            "base": {
                "technology": technology,
                "configuration": (
                    self._configuration.label()
                    if self._configuration is not None
                    else None
                ),
                "wire_length_um": float(self._wire_length_um),
                "external_load_f": float(self._external_load_f),
                "tap_stage": (
                    int(self._tap_stage) if self._tap_stage is not None else None
                ),
                "readout": {
                    "reference_clock_hz": float(self._readout.reference_clock_hz),
                    "window_cycles": int(self._readout.window_cycles),
                    "counter_bits": int(self._readout.counter_bits),
                },
            },
            "axes": [
                self._axes[name].to_dict()
                for name in CANONICAL_AXIS_ORDER
                if name in self._axes
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Sweep":
        """Re-hydrate a sweep spec serialized by :meth:`to_dict`.

        Technology references are verified against this process's
        registry by content digest; a name the registry does not know
        (with no inline parameters) or knows under a different digest
        raises :class:`TechnologyMismatchError` rather than silently
        evaluating whatever this process calls that name.
        """
        if not isinstance(payload, Mapping):
            raise SweepError(
                f"Sweep.from_dict takes a to_dict() mapping, got "
                f"{type(payload).__name__}"
            )
        missing = [
            key for key in ("version", "observable", "base", "axes") if key not in payload
        ]
        if missing:
            raise SweepError(f"serialized sweep spec is missing {missing}")
        version = payload["version"]
        if version != cls.SCHEMA_VERSION:
            raise SweepError(
                f"serialized sweep spec has version {version!r}; this "
                f"build reads version {cls.SCHEMA_VERSION}"
            )
        base = payload["base"]
        if not isinstance(base, Mapping):
            raise SweepError(
                f"serialized sweep spec's base must be a mapping, got "
                f"{type(base).__name__}"
            )
        configuration = base.get("configuration")
        if configuration is not None and not isinstance(configuration, str):
            raise SweepError(
                f"serialized sweep spec's base configuration must be a label "
                f"string or null, got {type(configuration).__name__}"
            )
        try:
            technology = None
            if base.get("technology") is not None:
                technology = _technology_from_dict(base["technology"])
            try:
                readout = ReadoutConfig(**dict(base.get("readout") or {}))
            except (TypeError, TechnologyError) as error:
                raise SweepError(
                    f"invalid serialized readout: {error}", getattr(error, "field", None)
                ) from error
            loads = {
                name: real(base.get(name, default), f"base.{name}", SweepError, at_least=0.0)
                for name, default in (("wire_length_um", 2.0), ("external_load_f", 0.0))
            }
            tap_stage = base.get("tap_stage")
            if tap_stage is not None:
                tap_stage = integer(tap_stage, "base.tap_stage", SweepError, at_least=0)
            sweep = cls(
                technology=technology,
                configuration=configuration,
                tap_stage=tap_stage,
                readout=readout,
                **loads,
            )
        except SweepError:
            raise
        except (TypeError, ValueError) as error:
            raise SweepError(f"invalid serialized base: {error}") from error
        axes = payload["axes"]
        if not isinstance(axes, Sequence) or isinstance(axes, (str, bytes)):
            raise SweepError(
                f"serialized sweep spec's axes must be a list, got "
                f"{type(axes).__name__}"
            )
        for index, axis_payload in enumerate(axes):
            try:
                axis = Axis.from_dict(axis_payload)
            except ReproInputError as error:
                # Name the field by its path in the spec, as the base
                # fields are ("base.tap_stage").
                if error.field is not None:
                    error.field = f"axes[{index}].{error.field}"
                raise
            sweep.over(axis)
        return sweep.observe(payload["observable"])

    def plan(self) -> "SweepPlan":
        """Validate the axis combination and freeze the lowering plan.

        Planning builds every ring the plan will evaluate (per node of a
        technology axis, else once, kept in the plan), so a bad ring
        field raises here, naming the field, before any evaluation.
        """
        axes = tuple(
            self._axes[name] for name in CANONICAL_AXIS_ORDER if name in self._axes
        )
        if "technology" in self._axes:
            if (
                self._technology is not None
                or self._library is not None
                or self._ring is not None
            ):
                raise SweepError(
                    "a technology axis supplies the node per coordinate; "
                    "drop the technology=/library=/ring= base"
                )
            if "site" in self._axes:
                raise SweepError(
                    "the site axis's bank is built in one technology and "
                    "cannot be combined with a technology axis"
                )
            if "sample" in self._axes:
                raise SweepError(
                    "a sample axis holds a concrete Monte-Carlo population "
                    "drawn from one node and cannot be combined with a "
                    "technology axis; draw per-node populations and sweep "
                    "them as separate runs"
                )
        site_axis = self._axes.get("site")
        resolution_axis = self._axes.get("resolution")
        if resolution_axis is not None:
            if site_axis is None:
                raise SweepError(
                    "the resolution axis solves the die's thermal field and "
                    "needs a site axis (a sensor bank) to read it; add "
                    "Axis.site(bank)"
                )
            if site_axis.payload["junction_temperatures_c"] is not None:
                raise SweepError(
                    "a resolution axis solves each refinement's junction "
                    "temperatures itself; drop the site axis's explicit "
                    "junction_temperatures_c"
                )
        site_scan = site_axis is not None and (
            site_axis.payload["junction_temperatures_c"] is not None
            or resolution_axis is not None
        )
        if site_axis is not None:
            for other in ("configuration", "width_ratio"):
                if other in self._axes:
                    raise SweepError(
                        f"the site axis fixes the ring design through its "
                        f"bank and cannot be combined with a {other} axis"
                    )
            if self._ring is not None or self._configuration is not None:
                raise SweepError(
                    "a site axis brings its bank's ring design; drop the "
                    "ring=/configuration= base"
                )
            bank = site_axis.payload["bank"]
            if (
                self._technology is not None
                and bank.technology is not self._technology
                and bank.technology.name != self._technology.name
            ):
                raise SweepError(
                    f"the site axis's bank is built in technology "
                    f"{bank.technology.name!r} but technology= is "
                    f"{self._technology.name!r}; the sweep would mix the two"
                )
        if site_scan:
            if "temperature" in self._axes:
                raise SweepError(
                    "a site axis with junction temperatures (explicit, or "
                    "solved per refinement by a resolution axis) evaluates "
                    "every site at its own temperature and cannot be "
                    "combined with a temperature axis; drop one of the two"
                )
            if self._observable in _ENDPOINT_OBSERVABLES:
                raise SweepError(
                    f"observable {self._observable!r} fits the sweep's "
                    "endpoint temperatures and needs a temperature axis; a "
                    "site scan (junction temperatures or a resolution axis) "
                    "has none"
                )
        elif "temperature" not in self._axes:
            axes = axes + (Axis.temperature(default_temperature_grid()),)
        if "configuration" in self._axes and "width_ratio" in self._axes:
            raise SweepError(
                "the configuration and width_ratio axes both define the ring "
                "and cannot be combined in one sweep"
            )
        if "width_ratio" in self._axes and self._ring is not None:
            raise SweepError("a width_ratio axis rebuilds the ring; drop the ring= base")
        if "configuration" in self._axes and self._ring is not None:
            # Accepting the ring would silently drop its configuration,
            # wire length and tap load in favour of the Sweep defaults.
            raise SweepError(
                "a configuration axis builds its own rings; pass library= "
                "(plus wire_length_um/external_load_f/tap_stage) instead of ring="
            )
        if "configuration" in self._axes and self._configuration is not None:
            raise SweepError(
                "this sweep has both a base configuration= and a "
                "configuration axis; the base would be silently ignored — "
                "drop one of the two"
            )
        if (
            self._technology is not None
            and self._library is not None
            and self._library.technology is not self._technology
            and self._library.technology.name != self._technology.name
        ):
            raise SweepError(
                f"library= is built in technology "
                f"{self._library.technology.name!r} but technology= is "
                f"{self._technology.name!r}; the sweep would mix the two — "
                "pass one of them"
            )
        plan = SweepPlan(
            axes=axes,
            observable=self._observable,
            technology=self._technology,
            library=self._library,
            configuration=self._configuration,
            ring=self._ring,
            wire_length_um=self._wire_length_um,
            external_load_f=self._external_load_f,
            tap_stage=self._tap_stage,
            readout=self._readout,
        )
        tech_axis = plan.axis("technology")
        if tech_axis is None:
            return replace(plan, rings=plan._build_rings())
        return replace(
            plan,
            rings=tuple(
                replace(plan, technology=node)._build_rings() for node in tech_axis.payload
            ),
        )

    def run(
        self,
        *,
        executor: Any = None,
        max_tile_elements: Optional[int] = None,
    ) -> SweepResult:
        """Plan and evaluate the sweep (see :meth:`SweepPlan.execute`)."""
        return self.plan().execute(
            executor=executor, max_tile_elements=max_tile_elements
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [name for name in CANONICAL_AXIS_ORDER if name in self._axes]
        return f"Sweep(axes={names}, observable={self._observable!r})"


#: Default cell libraries built by :meth:`SweepPlan._base_library`, by
#: technology object (each entry keeps its technology alive, so its id
#: is not reused while cached).  Bounded: every served inline
#: technology bundle is a new object.
_DEFAULT_LIBRARIES: "OrderedDict[int, Tuple[Technology, CellLibrary]]" = OrderedDict()
_DEFAULT_LIBRARY_LIMIT = 8
_DEFAULT_LIBRARY_LOCK = threading.Lock()


def _default_library(technology: Technology) -> CellLibrary:
    """``default_library(technology)``, built once per technology object.

    Every call returns its own copy of the cached library, so a
    :meth:`~repro.cells.library.CellLibrary.add` on a plan's library
    never reaches the next plan.
    """
    with _DEFAULT_LIBRARY_LOCK:
        entry = _DEFAULT_LIBRARIES.get(id(technology))
        if entry is None or entry[0] is not technology:
            entry = (technology, default_library(technology))
            _DEFAULT_LIBRARIES[id(technology)] = entry
            while len(_DEFAULT_LIBRARIES) > _DEFAULT_LIBRARY_LIMIT:
                _DEFAULT_LIBRARIES.popitem(last=False)
        else:
            _DEFAULT_LIBRARIES.move_to_end(id(technology))
        return entry[1].copy()


@dataclass(frozen=True)
class SweepPlan:
    """A validated sweep lowered onto concrete broadcast dimensions.

    Produced by :meth:`Sweep.plan`.  ``axes`` holds the named axes in
    canonical order (with the implicit default temperature axis
    appended when none was declared); :meth:`execute` performs the
    lowering:

    * ``technology`` loops the whole inner sweep per node (each node is
      a complete evaluation context — its own default library and rings
      — so per-node slices are bitwise identical to running the inner
      sweep against that node directly),
    * ``supply`` x ``sample`` stack into one struct-of-arrays
      population (supply-major, so the flat sample axis un-reshapes to
      ``(supply, sample)``),
    * ``configuration`` lowers onto a
      :class:`~repro.oscillator.bank.ConfigurationBank` single
      broadcast,
    * ``width_ratio`` evaluates one sized ring per coordinate,
    * ``resolution`` loops steady thermal solves (one cached
      :class:`~repro.thermal.operator.ThermalOperator` entry per grid
      density) around the site axis's scan.

    Every branch only chooses the per-cell delay curves of its ring
    sources (:class:`~repro.oscillator.ring.CellCurves`: the bank's, a
    ring's, or the site bank's shared ring at the site temperatures);
    one tail, :meth:`_observe`, forms the observable from them.
    """

    axes: Tuple[Axis, ...]
    observable: str
    technology: Optional[Technology]
    library: Optional[CellLibrary]
    configuration: Optional[RingConfiguration]
    ring: Optional[RingOscillator]
    wire_length_um: float
    external_load_f: float
    tap_stage: Optional[int]
    readout: ReadoutConfig = ReadoutConfig()
    #: What :meth:`_build_rings` built at plan time; with a technology
    #: axis, a tuple of what it built for each node, in axis order.
    rings: Any = None

    def axis(self, name: str) -> Optional[Axis]:
        for axis in self.axes:
            if axis.name == name:
                return axis
        return None

    # ------------------------------------------------------------------ #
    # base-context resolution
    # ------------------------------------------------------------------ #

    def _base_technology(self) -> Technology:
        if self.ring is not None:
            return self.ring.technology
        if self.technology is not None:
            return self.technology
        if self.library is not None:
            return self.library.technology
        site_axis = self.axis("site")
        if site_axis is not None:
            # The documented Sweep() site-axis form pins nothing else
            # down, so the bank's own technology is the base context
            # (e.g. for a supply axis stacked on top of the bank).
            return site_axis.payload["bank"].technology
        from ..tech.libraries import CMOS035

        return CMOS035

    def _base_library(self) -> CellLibrary:
        if self.ring is not None:
            return self.ring.library
        if self.library is not None:
            return self.library
        site_axis = self.axis("site")
        if site_axis is not None:
            return site_axis.payload["bank"].library
        return _default_library(self._base_technology())

    def _build_rings(self) -> Any:
        """The rings this plan evaluates, built and so checked.

        A :class:`~repro.oscillator.bank.ConfigurationBank` for a
        configuration axis, a tuple of sized rings for a width_ratio
        axis, ``None`` for a site axis (its bank brings the ring), else
        the base ring.  A configuration naming a cell its library lacks
        is a ``SweepError`` naming the configuration and the cell.
        """
        if self.axis("site") is not None:
            return None
        ratio_axis = self.axis("width_ratio")
        if ratio_axis is not None:
            from ..optimize.sizing import build_sized_ring

            return tuple(
                build_sized_ring(
                    self._base_technology(),
                    float(ratio),
                    nmos_width_um=ratio_axis.payload["nmos_width_um"],
                    stage_count=ratio_axis.payload["stage_count"],
                    wire_length_um=self.wire_length_um,
                    external_load_f=self.external_load_f,
                    tap_stage=self.tap_stage,
                )
                for ratio in ratio_axis.coordinates
            )
        if self.ring is not None:
            return self.ring
        config_axis = self.axis("configuration")
        if config_axis is not None:
            configurations = config_axis.payload
        elif self.configuration is not None:
            configurations = {self.configuration.label(): self.configuration}
        else:
            raise SweepError(
                "this sweep has no configuration axis and no base "
                "configuration/ring to evaluate; pass configuration= or ring= "
                "to Sweep, or add Axis.configuration(...)"
            )
        library = self._base_library()
        for label, configuration in configurations.items():
            for stage in configuration.stages:
                if stage not in library:
                    raise SweepError(
                        f"ring configuration {label!r} names cell "
                        f"{stage!r}, which library {library.name!r} "
                        "does not have"
                    )
        ring_fields = dict(
            wire_length_um=self.wire_length_um,
            external_load_f=self.external_load_f,
            tap_stage=self.tap_stage,
        )
        if config_axis is None:
            return RingOscillator(library, self.configuration, **ring_fields)
        return ConfigurationBank(library, configurations, **ring_fields)

    # ------------------------------------------------------------------ #
    # population lowering (supply x sample)
    # ------------------------------------------------------------------ #

    def _lower_population(self):
        """The stacked technology population of the supply/sample axes.

        Returns ``None`` when neither axis is present.  With both, the
        cross product is supply-major: flat index ``v * S + s``.
        """
        supply_axis = self.axis("supply")
        sample_axis = self.axis("sample")
        if supply_axis is None and sample_axis is None:
            return None
        if supply_axis is None:
            return sample_axis.payload
        supplies = np.asarray(supply_axis.coordinates, dtype=float)
        if sample_axis is None:
            return stack_technologies(
                [self._base_technology().with_supply(float(v)) for v in supplies]
            )
        samples = sample_axis.payload
        return samples.tiled(supplies.size).with_supply(
            np.repeat(supplies, len(samples))
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def _ring_curves(
        self, temps: Optional[np.ndarray], population
    ) -> Iterator[Tuple[CellCurves, Any]]:
        """Each ring source's :class:`CellCurves`, with the technology that gives its ``Vdd``.

        The configuration bank is one source.  Otherwise each ring (the
        base ring, each width_ratio ring, or a site axis's shared ring),
        bound to the population, is one source over the sweep's
        temperatures, or one per site scan at the site temperatures
        (:meth:`_site_temperatures`), as ``(site, 1, 1)`` against a
        population's ``(samples, 1)`` columns.
        """
        if self.axis("configuration") is not None:
            bank: ConfigurationBank = self.rings
            technology = population if population is not None else bank.library.technology
            yield bank.cell_curves(temps, population), technology
            return
        site_axis = self.axis("site")
        if site_axis is not None:
            rings = (site_axis.payload["bank"].ring,)
        elif self.axis("width_ratio") is not None:
            rings = self.rings
        else:
            rings = (self.rings,)
        for ring in rings:
            if population is not None:
                ring = ring.rebind(population)
            if temps is not None:
                yield ring.cell_curves(temps), ring.technology
                continue
            for site_temps in self._site_temperatures():
                if population is not None:
                    site_temps = site_temps.reshape(-1, 1, 1)
                yield ring.cell_curves(site_temps), ring.technology

    def _site_temperatures(self) -> Iterator[np.ndarray]:
        """The junction temperatures of each site scan, ``(site,)`` each.

        The site axis's own, or, with a resolution axis, one steady
        thermal solve per resolution (each through its own cached
        ThermalOperator entry) read at the sites.
        """
        site = self.axis("site").payload
        resolution_axis = self.axis("resolution")
        if resolution_axis is None:
            yield site["junction_temperatures_c"]
            return
        spec = resolution_axis.payload
        xs, ys = site["bank"].positions()
        for r in resolution_axis.coordinates:
            power_map = PowerMap.from_floorplan(spec["floorplan"], nx=int(r), ny=int(r))
            grid = ThermalGrid.for_power_map(power_map, spec["parameters"])
            field = ThermalOperator.for_grid(grid).solve_steady_state(
                power_map, spec["ambient_c"]
            )
            yield field.sample_points(xs, ys)

    def _observe(self, cells: CellCurves, temps: Optional[np.ndarray], technology) -> np.ndarray:
        """The plan's observable of every ring of ``cells``, one row per ring.

        The one tail of the dense evaluation.  An endpoint observable is
        summed from the per-cell terms (:func:`_endpoint_observable`).
        Otherwise the curves are contracted once into the periods ``P``,
        which must be finite; ``power`` is ``Vdd^2 * C / P``, where a
        ring's switched capacitance ``C`` (every stage's output load plus
        its own drain parasitics) is the sum of its load weights.
        """
        if self.observable in _ENDPOINT_OBSERVABLES:
            return _endpoint_observable(self.observable, cells, temps)
        periods = cells.contract(cells.curves)
        # min/max propagate NaN, so one reduction each finds any NaN or
        # inf without a mask.
        if periods.size and not (np.isfinite(periods.min()) and np.isfinite(periods.max())):
            raise SweepError(_OVERFLOW_MESSAGE)
        if self.observable == "power":
            return np.asarray(technology.vdd) ** 2 * cells.weights.sum(axis=0) / periods
        return periods

    def execute(
        self,
        *,
        executor: Any = None,
        max_tile_elements: Optional[int] = None,
    ) -> SweepResult:
        """Evaluate the plan and label the result.

        With no arguments (and no ``REPRO_SWEEP_EXECUTOR`` environment
        override) this is the dense in-memory evaluation: each ring
        source's per-cell curves, contracted once into the observable —
        the reference semantics every other path must bit-match.

        ``executor`` selects a tiled execution backend (an
        :class:`~repro.engine.executors.Executor` instance, or one of
        the names ``"serial"`` / ``"process"``); the plan is then
        partitioned by :func:`~repro.engine.tiling.plan_tiles` into
        chunks of at most ``max_tile_elements`` elements along the
        cheapest-to-split axes (``sample``, then ``temperature``) and
        the tiles are evaluated through the backend.  Giving
        ``max_tile_elements`` without an executor runs the tiles
        serially in-process.  Tiled results are bitwise identical to the
        dense pass (each tile is an elementwise slice of the same
        broadcast).
        """
        from .executors import resolve_executor, run_plan

        resolved = resolve_executor(executor)
        if resolved is None and max_tile_elements is None:
            return self._execute_dense()
        return run_plan(
            self, executor=resolved, max_tile_elements=max_tile_elements
        )

    def _execute_dense(self) -> SweepResult:
        """The dense evaluation (the oracle semantics).

        :meth:`_ring_curves` chooses the curves of each ring source,
        :meth:`_observe` forms each one's rows, and the rows stack along
        the ring axis.
        """
        tech_axis = self.axis("technology")
        if tech_axis is not None:
            # Outermost per-node loop: each node re-enters this method
            # as the sub-plan's technology= base with the rings planned
            # for it, so a node's slice takes exactly the code path (and
            # produces bitwise the numbers) of an equivalent single-node
            # sweep.
            inner_axes = tuple(
                axis for axis in self.axes if axis.name != "technology"
            )
            slices = [
                replace(self, axes=inner_axes, technology=node, rings=rings)
                ._execute_dense()
                .values
                for node, rings in zip(tech_axis.payload, self.rings)
            ]
            coords = {axis.name: tuple(axis.coordinates) for axis in self.axes}
            return SweepResult(
                values=np.stack(slices),
                dims=tuple(axis.name for axis in self.axes),
                coords=coords,
                observable=self.observable,
            )
        temp_axis = self.axis("temperature")
        temps = (
            np.asarray(temp_axis.coordinates, dtype=float)
            if temp_axis is not None
            else None
        )
        population = self._lower_population()

        # An overflowing period is refused by _observe's finiteness guard
        # (or, for an endpoint observable, by _endpoint_observable's
        # bound), so the overflow is not also reported as a numpy warning.
        with np.errstate(over="ignore"):
            rows = [
                self._observe(cells, temps, technology)
                for cells, technology in self._ring_curves(temps, population)
            ]
        tensor = rows[0] if len(rows) == 1 else np.concatenate(rows)
        site_axis = self.axis("site")
        if site_axis is not None and temps is not None:
            # Characterisation mode: the sites share one ring design, so
            # its row broadcasts along the site dimension.
            tensor = np.broadcast_to(tensor, (len(site_axis),) + tensor.shape[1:])

        if self.observable == "code":
            counter = (
                site_axis.payload["bank"].counter
                if site_axis is not None
                else PeriodCounter(self.readout)
            )
            tensor, _saturated = counter.convert_batch(tensor)

        # Un-flatten the ring rows and the supply-major population axis
        # into their named dimensions: the canonical shape.
        tensor = np.asarray(tensor).reshape([len(axis) for axis in self.axes])
        coords = {axis.name: tuple(axis.coordinates) for axis in self.axes}
        return SweepResult(
            values=_apply_observable(self.observable, tensor),
            dims=tuple(axis.name for axis in self.axes),
            coords=coords,
            observable=self.observable,
        )


# --------------------------------------------------------------------------- #
# observables
# --------------------------------------------------------------------------- #


#: The finiteness guard's message, for a period tensor or its bound.
_OVERFLOW_MESSAGE = (
    "the ring period overflows to a non-finite value; the stage load is "
    "out of range (check external_load_f and wire_length_um)"
)


def _apply_observable(name: str, tensor: np.ndarray) -> np.ndarray:
    """Map the raw period tensor to a pointwise observable.

    ``code`` and ``power`` carry context (a counter, the switched
    capacitance) and are applied inside :meth:`SweepPlan._execute_dense`
    and :meth:`SweepPlan._observe`; they arrive here already evaluated,
    as does the raw ``period`` and every endpoint observable
    (:func:`_endpoint_observable`).
    """
    if name == "frequency":
        return 1.0 / tensor
    return tensor


def _last_axis_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=-1, keepdims=True)``, as one reduceat over the flat rows.

    Exact like any maximum; about 2.5x faster than the axis reduction on
    the 41-point rows of a Fig. 3 curve.
    """
    flat = values.reshape(-1)
    starts = np.arange(0, flat.size, values.shape[-1])
    return np.maximum.reduceat(flat, starts).reshape(values.shape[:-1] + (1,))


def _endpoint_observable(name: str, cells: CellCurves, temps: np.ndarray) -> np.ndarray:
    """An endpoint observable of every ring of ``cells``, from per-cell terms.

    A ring's period is the load-weighted sum of its cells' delay curves,
    ``P = sum_u W_u * K_u`` (:meth:`CellCurves.contract`), so its
    deviation from its endpoint line is the same sum of each cell's
    deviation from that cell's endpoint line.  With ``il``/``ih`` the
    extreme temperatures, per cell

    * ``low_u = K_u[il]``, ``span_u = K_u[ih] - low_u``,
    * ``f = (temps - t_low) / (t_high - t_low)``,
    * ``D_u = (K_u - low_u) - span_u * f``,

    and, each sum contracted with the same weights,

    * ``nonlinearity_percent = sum W*D * (100 / |sum W*span|)`` — the
      paper's Fig. 2 / Fig. 3 y-axis, the deviation from the endpoint
      line in percent of the full-scale period span;
    * ``transfer_c = t_low + sum W*(K - low) * ((t_high - t_low) / sum W*span)``
      — the per-row two-point calibration through the endpoint
      temperatures, the line a calibrated sensor realises;
    * ``calibration_error_c = transfer_c - temps``.

    No ``(C, S, T)`` period tensor is formed.  The endpoints are the
    extreme *temperatures*, not the grid's first and last positions: the
    temperature axis documents its ordering as presentation-only, so an
    unsorted grid must not change the metric.

    The guards keep their meaning.  An overflowing period is refused
    through its bound ``sum_u W * max_t K_u``: rounding is monotone, so
    the bound is at least every period of its row (a row whose bound
    overflows while its periods stay finite, above ~1e307 s, is refused
    too).  A flat response is ``sum W*span == 0``.

    This re-associates the textbook formulas over ``P`` (a deliberate
    re-pin of these three observables): on five 6 x 1000 x 41 Fig. 3
    sweeps (seeds 1-5) the two differ by at most 8.8e-14 percentage
    points of non-linearity and 1.7e-13 C of transfer, and by at most
    5.6e-13 of each row's peak.  ``cells``' curves are consumed.
    """
    curves = cells.curves
    bound = cells.contract([_last_axis_max(curve) for curve in curves])
    if not np.isfinite(bound).all():
        raise SweepError(_OVERFLOW_MESSAGE)
    if temps.size < 2:
        raise SweepError(
            f"observable {name!r} fits the sweep's endpoint temperatures and "
            "needs a temperature axis with at least two points"
        )
    index_low = int(np.argmin(temps))
    index_high = int(np.argmax(temps))
    t_low = temps[index_low]
    t_high = temps[index_high]
    if t_high == t_low:
        raise SweepError(
            f"observable {name!r} needs at least two distinct temperatures"
        )
    lows = [curve[..., index_low : index_low + 1].copy() for curve in curves]
    spans = [curve[..., index_high : index_high + 1] - low for curve, low in zip(curves, lows)]
    span = cells.contract(spans)
    if np.any(span == 0.0):
        raise SweepError(
            "flat temperature response: the endpoint periods are equal, so "
            f"observable {name!r} is undefined"
        )
    # Each curve becomes its own term in place: K_u - low_u, then, for
    # the non-linearity, minus span_u * f.  The curves are dropped once
    # contracted and the result is formed after them, so it can take
    # their memory.  (Scaled in place instead, the result sat below the
    # curves; freeing them left enough free at the top of the heap for
    # glibc to trim it after every other Fig. 3 op, about 580 page
    # faults per op in perfbench's loop.)
    for curve, low in zip(curves, lows):
        curve -= low
    if name == "nonlinearity_percent":
        fraction = (temps - t_low) / (t_high - t_low)
        for curve, span_u in zip(curves, spans):
            curve -= span_u * fraction
        total = cells.contract(curves)
        curves.clear()
        return total * (100.0 / np.abs(span))
    total = cells.contract(curves)
    curves.clear()
    values = total * ((t_high - t_low) / span)
    values += t_low
    if name == "calibration_error_c":
        values -= temps
    return values
