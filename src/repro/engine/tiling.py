"""Tiling pass: partition a lowered sweep into bounded chunks.

:meth:`~repro.engine.sweep.SweepPlan._execute_dense` materializes the
whole axis product as one in-memory broadcast.  This module splits that
work: :func:`plan_tiles` partitions the *result index space* of a
validated :class:`~repro.engine.sweep.SweepPlan` into :class:`Tile`
chunks of at most ``max_tile_elements`` elements each, and
:func:`subplan` lowers one tile back into an ordinary ``SweepPlan``
over sliced axes, ready for an executor backend
(:mod:`repro.engine.executors`: in order in process, or fanned out over
a worker pool) to evaluate.  The executor assembles the tiles into one
in-memory result.

Only *elementwise* axes are split — ``sample`` first (slicing the
struct-of-arrays technology population by rows), then ``temperature``
(slicing the evaluation grid) — because the whole delay stack is
elementwise in those dimensions: a tile's broadcast computes exactly
the same floating-point operations, in the same order, as the
corresponding slice of the dense pass, so tiled results are **bitwise
identical** to dense ones.  The endpoint-fit observables
(``transfer_c`` / ``calibration_error_c`` / ``nonlinearity_percent``)
couple every temperature to the grid's extremes, so for them the
temperature axis is never split (the sample axis still is).  Axes that
re-solve shared state per coordinate (``technology``, ``configuration``,
``resolution``, ``site``, ``width_ratio``) are never split — a
``technology`` axis rides whole inside every tile, its per-node loop
re-entered by the tile's dense evaluation; when none of the splittable
axes is present the sweep is one tile regardless of budget — the budget
is a bound on what tiling *can* bound, not a hard allocation cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fields import integer
from .sweep import _ENDPOINT_OBSERVABLES, Axis, SweepError, SweepPlan

__all__ = [
    "DEFAULT_TILE_ELEMENTS",
    "Tile",
    "TilingPlan",
    "plan_tiles",
    "subplan",
]

#: Default bound on a tile's dense element count when a tiled execution
#: is requested without an explicit budget: 2^20 float64 elements is an
#: 8 MiB sub-tensor — small enough to stream and pickle cheaply, large
#: enough that per-tile planning overhead stays negligible.
DEFAULT_TILE_ELEMENTS = 1 << 20

#: The axes a tiling pass may split, in preference order.  Both are
#: purely elementwise through the evaluation stack, which is what makes
#: tiled-vs-dense results bitwise identical; ``sample`` first because
#: populations are the axis that actually grows without bound.
SPLITTABLE_AXES = ("sample", "temperature")


@dataclass(frozen=True)
class Tile:
    """One bounded chunk of a sweep's result index space.

    ``bounds`` maps each *split* axis name to its ``(start, stop)``
    index range; axes absent from ``bounds`` are carried whole.  The
    tile knows nothing about values — it is pure coordinates, cheap to
    pickle to a worker process.
    """

    index: int
    bounds: Tuple[Tuple[str, int, int], ...]

    def bounds_for(self, name: str) -> Optional[Tuple[int, int]]:
        for axis, start, stop in self.bounds:
            if axis == name:
                return (start, stop)
        return None

    def slices(self, dims: Tuple[str, ...]) -> Tuple[slice, ...]:
        """Index expression selecting this tile inside the full tensor."""
        expression = []
        for name in dims:
            span = self.bounds_for(name)
            expression.append(slice(*span) if span else slice(None))
        return tuple(expression)


@dataclass(frozen=True)
class TilingPlan:
    """A sweep plan plus its partition into budget-bounded tiles.

    ``dims`` / ``shape`` / ``coords`` describe the *full* canonical
    result the tiles assemble into; ``tiles`` covers that index space
    exactly once (contiguous blocks along the split axes, dense cross
    product, no overlap).
    """

    plan: SweepPlan
    dims: Tuple[str, ...]
    shape: Tuple[int, ...]
    coords: Dict[str, Tuple[Any, ...]]
    tiles: Tuple[Tile, ...]

    @property
    def total_elements(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extent = ", ".join(
            f"{name}={size}" for name, size in zip(self.dims, self.shape)
        )
        return f"TilingPlan({extent}; tiles={len(self.tiles)})"


def _splittable_axes(plan: SweepPlan) -> List[str]:
    """The axes of this plan a tiling pass may slice, in split order."""
    names = [axis.name for axis in plan.axes]
    splittable = [name for name in SPLITTABLE_AXES if name in names]
    if plan.observable in _ENDPOINT_OBSERVABLES and "temperature" in splittable:
        # The endpoint fit calibrates every temperature against the
        # grid's extremes; a temperature tile without both endpoints
        # could not reproduce the dense numbers.
        splittable.remove("temperature")
    return splittable


def plan_tiles(
    plan: SweepPlan, max_tile_elements: Optional[int] = None
) -> TilingPlan:
    """Partition a validated plan into budget-bounded tiles.

    ``max_tile_elements`` bounds each tile's dense sub-tensor
    (:data:`DEFAULT_TILE_ELEMENTS` when omitted).  The bound is
    best-effort: unsplittable axes (everything but ``sample`` and
    ``temperature``) set a floor of one full cross-section per tile.
    """
    if max_tile_elements is None:
        budget = DEFAULT_TILE_ELEMENTS
    else:
        budget = integer(max_tile_elements, "max_tile_elements", SweepError, at_least=1)

    dims = tuple(axis.name for axis in plan.axes)
    shape = tuple(len(axis) for axis in plan.axes)
    coords = {axis.name: tuple(axis.coordinates) for axis in plan.axes}
    tiles = _tile_index_space(dims, shape, _splittable_axes(plan), budget)
    return TilingPlan(plan=plan, dims=dims, shape=shape, coords=coords, tiles=tiles)


def _tile_index_space(
    dims: Tuple[str, ...],
    shape: Tuple[int, ...],
    splittable: Sequence[str],
    budget: int,
) -> Tuple[Tile, ...]:
    """Partition an index space into budget-bounded contiguous tiles.

    The chunking core of :func:`plan_tiles`.  Axes are shrunk in the
    given ``splittable`` order: the first axis splits first, later axes
    only when a single coordinate of the earlier ones still exceeds the
    budget.  The tiles cover the index space exactly once (a dense
    cross product of contiguous blocks, first-split-axis major).
    """
    sizes = dict(zip(dims, shape))
    total = int(np.prod(shape, dtype=np.int64)) if shape else 1

    chunks: Dict[str, int] = {}
    remaining = total
    for name in splittable:
        if remaining <= budget:
            break
        per_unit = remaining // sizes[name]  # elements per single coordinate
        chunks[name] = max(1, min(sizes[name], budget // max(1, per_unit)))
        remaining = per_unit * chunks[name]

    if not chunks:
        return (Tile(index=0, bounds=()),)

    split_names = [name for name in splittable if name in chunks]
    ranges_per_axis = []
    for name in split_names:
        step = chunks[name]
        ranges_per_axis.append(
            [(start, min(start + step, sizes[name]))
             for start in range(0, sizes[name], step)]
        )
    tile_list: List[Tile] = []
    bounds_stack: List[List[Tuple[str, int, int]]] = [[]]
    for name, ranges in zip(split_names, ranges_per_axis):
        bounds_stack = [
            prefix + [(name, start, stop)]
            for prefix in bounds_stack
            for start, stop in ranges
        ]
    for index, bounds in enumerate(bounds_stack):
        tile_list.append(Tile(index=index, bounds=tuple(bounds)))
    return tuple(tile_list)


def _slice_sample_axis(axis: Axis, start: int, stop: int) -> Axis:
    """The sample axis restricted to population rows ``[start, stop)``."""
    return Axis(
        "sample",
        axis.coordinates[start:stop],
        payload=axis.payload.sliced(start, stop),
    )


def _slice_temperature_axis(axis: Axis, start: int, stop: int) -> Axis:
    return Axis("temperature", axis.coordinates[start:stop])


def subplan(plan: SweepPlan, tile: Tile) -> SweepPlan:
    """Lower one tile back into an ordinary dense-executable plan.

    The returned plan is the original with its ``sample`` /
    ``temperature`` axes sliced to the tile's ranges (coordinates keep
    their global labels, so a tile's own ``SweepResult`` is still
    meaningfully labeled).  Executing it densely computes exactly the
    tile's slice of the full tensor, bit for bit.
    """
    axes = []
    for axis in plan.axes:
        span = tile.bounds_for(axis.name)
        if span is None:
            axes.append(axis)
        elif axis.name == "sample":
            axes.append(_slice_sample_axis(axis, *span))
        elif axis.name == "temperature":
            axes.append(_slice_temperature_axis(axis, *span))
        else:  # pragma: no cover - plan_tiles never splits other axes
            raise SweepError(f"axis {axis.name!r} cannot be tiled")
    return replace(plan, axes=tuple(axes))
