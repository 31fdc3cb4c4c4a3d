"""Batch evaluation: the declarative sweep API.

:mod:`repro.engine.sweep` is the engine — named-axis workloads
(:class:`Sweep` / :class:`Axis`) lowered onto numpy broadcast
dimensions in canonical order, returning labeled
:class:`SweepResult` tensors.  Every study in :mod:`repro.analysis`,
:mod:`repro.optimize` and :mod:`repro.experiments` evaluates through
it; there is no second evaluation mode.
"""

from .executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from .sweep import (
    Axis,
    CANONICAL_AXIS_ORDER,
    OBSERVABLES,
    Sweep,
    SweepError,
    SweepPlan,
    SweepResult,
)
from .tiling import Tile, TilingPlan, plan_tiles, subplan

__all__ = [
    "Axis",
    "CANONICAL_AXIS_ORDER",
    "Executor",
    "OBSERVABLES",
    "ProcessExecutor",
    "SerialExecutor",
    "Sweep",
    "SweepError",
    "SweepPlan",
    "SweepResult",
    "Tile",
    "TilingPlan",
    "plan_tiles",
    "resolve_executor",
    "subplan",
]
