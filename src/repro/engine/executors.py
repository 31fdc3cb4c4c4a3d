"""Pluggable execution backends for tiled sweeps.

The planner (:mod:`repro.engine.sweep`) lowers a workload, the tiling
pass (:mod:`repro.engine.tiling`) partitions it into budget-bounded
chunks, and this module runs the chunks:

* :class:`SerialExecutor` — evaluates tiles in order, in process.  With
  one tile this is exactly the dense path; with many it is the
  reference backend the others must bit-match.
* :class:`ProcessExecutor` — fans tiles out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Each task is one
  pickled sub-plan (:func:`~repro.engine.tiling.subplan`), which
  carries only its tile's rows of a technology population.  Workers
  fork where the platform allows, and pools are reused across runs
  (keyed by size) so repeated sweeps pay worker startup once.

Both backends run the same task on each tile's sub-plan, the dense
evaluation; they differ only in the process it runs in.

:func:`run_plan` is the orchestration entry used by
:meth:`~repro.engine.sweep.SweepPlan.execute`: it tiles the plan,
streams ``(tile, values)`` pairs out of the backend and assembles them
positionally into a labeled :class:`~repro.engine.sweep.SweepResult`.
:func:`resolve_executor` maps explicit arguments and the
``REPRO_SWEEP_EXECUTOR`` / ``REPRO_SWEEP_WORKERS`` environment variables
(the CI lane's way of routing the whole test suite through a backend)
onto concrete executors.

Fork/pickle semantics: worker processes never receive prepared thermal
solves or operator caches — those are process-local (see
:mod:`repro.thermal.operator`); a worker warms its own cache from the
tiles it executes.  Nested parallelism is disabled inside workers (a
tile evaluates densely even if the environment selects the process
backend).
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor as _PoolImpl
from concurrent.futures import as_completed
from typing import Any, Dict, Iterator, Optional, Tuple

import multiprocessing
import numpy as np

from ..fields import integer
from .sweep import SweepError, SweepPlan, SweepResult
from .tiling import Tile, TilingPlan, plan_tiles, subplan

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "run_plan",
]

#: Environment variable naming the default backend (``serial`` /
#: ``process``; ``dense`` or empty keeps the single-pass
#: in-memory evaluation).  Lets a CI lane or deployment route every
#: ``Sweep.run()`` through a backend without touching call sites.
EXECUTOR_ENV = "REPRO_SWEEP_EXECUTOR"
#: Worker count of an environment-selected process backend.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
#: Default per-tile element budget when a tiled execution is requested
#: without an explicit ``max_tile_elements`` (the CLI's
#: ``--tile-elements`` flag sets this for a whole experiment run).
TILE_ELEMENTS_ENV = "REPRO_SWEEP_TILE_ELEMENTS"


class Executor:
    """Protocol of a tiled-execution backend.

    ``run_tiles`` streams ``(tile, values)`` pairs — each ``values`` is
    the tile's dense sub-tensor, bitwise identical to the corresponding
    slice of the dense single-pass evaluation; completion order is
    backend-defined (assembly is positional).
    """

    name = "abstract"

    def run_tiles(
        self, tiling: TilingPlan
    ) -> Iterator[Tuple[Tile, np.ndarray]]:  # pragma: no cover - protocol
        raise NotImplementedError


def _evaluate(plan: SweepPlan) -> np.ndarray:
    """Evaluate one tile's sub-plan densely (both backends' tile task)."""
    return plan._execute_dense().values


class SerialExecutor(Executor):
    """In-order, in-process tile evaluation (the reference backend)."""

    name = "serial"

    def run_tiles(self, tiling: TilingPlan) -> Iterator[Tuple[Tile, np.ndarray]]:
        for tile in tiling.tiles:
            yield tile, _evaluate(subplan(tiling.plan, tile))


# --------------------------------------------------------------------------- #
# the multiprocess backend
# --------------------------------------------------------------------------- #


def _worker_initializer() -> None:
    # A tile must evaluate densely inside a worker even when the parent
    # environment routes sweeps through the process backend — nested
    # pools would deadlock-or-fork-bomb.
    os.environ[EXECUTOR_ENV] = "dense"


def _noop() -> None:
    """Prewarm task: forces the lazy pool to actually spawn workers."""


#: Reused worker pools, keyed by worker count.  Reuse amortizes worker
#: startup across the many small sweeps of a test lane or a sweep
#: service; pools are torn down at interpreter exit.
_POOLS: Dict[int, _PoolImpl] = {}


def _shutdown_pools() -> None:  # pragma: no cover - exit hook
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown_pools)


class ProcessExecutor(Executor):
    """Multiprocess backend: one pool task per tile.

    Each task is the tile's pickled sub-plan — the plan with its
    ``sample`` / ``temperature`` axes sliced to the tile, so a
    population travels as the tile's rows only — and the worker
    evaluates it densely.  Results stream back in completion order.

    Worker processes get a cold :class:`~repro.thermal.operator.ThermalOperator`
    cache (cold under ``spawn``; a frozen copy-on-write snapshot under
    ``fork``): prepared solves are warmed per tile inside the worker and
    are never pickled across the process boundary.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = (
            integer(max_workers, "max_workers", SweepError, at_least=1)
            if max_workers
            else (os.cpu_count() or 1)
        )

    def _pool(self) -> _PoolImpl:
        pool = _POOLS.get(self.max_workers)
        if pool is None:
            # Fork where available: workers inherit the imported library
            # instead of re-importing it.
            fork = "fork" in multiprocessing.get_all_start_methods()
            pool = _PoolImpl(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("fork") if fork else None,
                initializer=_worker_initializer,
            )
            _POOLS[self.max_workers] = pool
        return pool

    def prewarm(self) -> None:
        """Spin the worker pool up eagerly (it otherwise spawns lazily).

        ``ProcessPoolExecutor`` forks/spawns workers on first submit, so
        a long-lived embedder (the sweep service) would pay pool startup
        on its first request; submitting one no-op per slot moves that
        cost to initialization time.
        """
        pool = self._pool()
        for future in [pool.submit(_noop) for _ in range(self.max_workers)]:
            future.result()

    def run_tiles(self, tiling: TilingPlan) -> Iterator[Tuple[Tile, np.ndarray]]:
        pool = self._pool()
        try:
            futures = {
                pool.submit(_evaluate, subplan(tiling.plan, tile)): tile
                for tile in tiling.tiles
            }
        except Exception:
            # A broken reused pool (e.g. a worker killed by a previous
            # run) must not poison every later sweep.
            _POOLS.pop(self.max_workers, None)
            raise
        for future in as_completed(futures):
            yield futures[future], future.result()


# --------------------------------------------------------------------------- #
# resolution and orchestration
# --------------------------------------------------------------------------- #

_EXECUTOR_FACTORIES = {
    "serial": lambda workers: SerialExecutor(),
    "process": lambda workers: ProcessExecutor(max_workers=workers),
}


def _env_int(name: str) -> Optional[int]:
    """An integer environment variable; unset or empty is ``None``."""
    text = os.environ.get(name, "").strip()
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        value = text  # not an integer: the checker refuses it, naming the variable
    return integer(value, name, SweepError)


def resolve_executor(executor: Any) -> Optional[Executor]:
    """Resolve an executor argument (or the environment) to a backend.

    ``None`` consults :data:`EXECUTOR_ENV` (and :data:`WORKERS_ENV` for
    the process backend's size); an unset/empty/``dense`` value means
    "no backend" (the dense single-pass path).  Strings name a backend;
    executor instances pass through.
    """
    from_env = executor is None
    if from_env:
        executor = os.environ.get(EXECUTOR_ENV, "")
    if isinstance(executor, str):
        name = executor.strip().lower()
        if not name or name in ("dense", "none"):
            return None
        factory = _EXECUTOR_FACTORIES.get(name)
        if factory is None:
            raise SweepError(
                f"unknown executor {executor!r}; choose one of "
                f"{tuple(sorted(_EXECUTOR_FACTORIES))} (or 'dense')"
            )
        return factory(_env_int(WORKERS_ENV) if from_env else None)
    if isinstance(executor, Executor) or callable(
        getattr(executor, "run_tiles", None)
    ):
        return executor
    raise SweepError(
        f"executor must be an Executor, a backend name or None, got "
        f"{type(executor).__name__}"
    )


def run_plan(
    plan: SweepPlan,
    executor: Optional[Executor] = None,
    max_tile_elements: Optional[int] = None,
) -> SweepResult:
    """Tile a plan, run it through a backend and assemble the result.

    The workhorse behind :meth:`SweepPlan.execute`.  Without an executor
    the tiles run serially; without ``max_tile_elements`` the budget
    comes from :data:`TILE_ELEMENTS_ENV`, then
    :data:`~repro.engine.tiling.DEFAULT_TILE_ELEMENTS`.
    """
    if executor is None:
        executor = SerialExecutor()
    if max_tile_elements is None:
        max_tile_elements = _env_int(TILE_ELEMENTS_ENV)
    tiling = plan_tiles(plan, max_tile_elements=max_tile_elements)
    sink: Optional[np.ndarray] = None
    for tile, values in executor.run_tiles(tiling):
        if sink is None:
            sink = np.empty(tiling.shape, dtype=values.dtype)
        sink[tile.slices(tiling.dims)] = values
    assert sink is not None  # a tiling always has at least one tile
    return SweepResult(
        values=sink,
        dims=tiling.dims,
        coords=tiling.coords,
        observable=plan.observable,
    )
