"""Coalescing of concurrent temperature-split work onto one broadcast.

The dominant traffic pattern of a sensor-evaluation service is
temperature-split repetition: *point queries* ("this spec, at this one
temperature") and *overlapping sweeps* ("this spec, over my grid" from
several experiment fan-outs whose grids differ but whose base spec is
identical).  Both have near-zero marginal cost inside the engine — the
whole delay stack is elementwise in temperature, so evaluating 32
temperatures costs almost the same one broadcast as evaluating 1 — but
full fixed cost (ring construction, population stacking) when each
request is evaluated alone.

The batcher converts concurrency into that almost-free axis.  The
first request for a base spec (the canonical spec *minus* its
temperature axis) opens a batch and starts a short window; every
compatible request arriving inside the window joins it; when the
window closes the batch evaluates **once**, with the union of all the
collected temperature grids stacked onto one shared, sorted,
duplicate-free ``temperature`` axis, and each request is answered with
its own slice of the shared result
(:meth:`~repro.engine.sweep.SweepResult.select` with the request's own
grid, in the request's own order).

Because the engine is elementwise in temperature (the tiling layer's
bitwise-identity guarantee, :mod:`repro.engine.tiling`), a coalesced
request's slice is bit-identical to what a solo evaluation would have
produced — batching changes latency, never values.  (The endpoint-fit
observables couple temperatures and are kept out of the batcher
upstream, in the server's request routing; so are sweeps without an
explicit temperature axis, whose grid is the engine's to choose.)

Batches are keyed on the *base* spec's canonical hash, so only
genuinely compatible requests coalesce — a point query and a full
sweep over the same base land in the same batch.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..engine.sweep import SweepError, SweepResult
from ..fields import real

__all__ = ["DEFAULT_BATCH_WINDOW_MS", "MicroBatcher"]

#: Default batching window: long enough to coalesce a concurrent burst,
#: short enough to be invisible next to an evaluation.
DEFAULT_BATCH_WINDOW_MS = 5.0


class _Member:
    """One coalesced request: its temperature grid and its future."""

    __slots__ = ("temperatures", "future")

    def __init__(self, temperatures: Tuple[float, ...], future: asyncio.Future) -> None:
        self.temperatures = temperatures
        self.future = future


class _Batch:
    """One open batch: the shared base spec plus the queued members."""

    __slots__ = ("spec", "members", "timer")

    def __init__(self, spec: Mapping[str, Any]) -> None:
        self.spec = spec
        self.members: List[_Member] = []
        self.timer: Optional[asyncio.Task] = None


class MicroBatcher:
    """Coalesce concurrent temperature-split requests per base spec.

    ``evaluate(payload)`` is the async evaluation hook: it receives a
    serialized sweep payload (the base spec with the batch's union
    temperature axis appended) and returns the evaluated
    :class:`~repro.engine.sweep.SweepResult`.  The server passes its
    scheduler-routed, counted evaluator, so batch evaluations share
    the same worker pool, queue and evaluation counter as everything
    else.
    """

    def __init__(
        self,
        evaluate: Callable[[Mapping[str, Any]], Awaitable[SweepResult]],
        window_ms: float = DEFAULT_BATCH_WINDOW_MS,
    ) -> None:
        # A NaN or infinite window never flushes: every member would hang.
        self.window_ms = real(window_ms, "batch_window_ms", SweepError, at_least=0.0)
        self._evaluate = evaluate
        self._open: Dict[str, _Batch] = {}
        self._draining: Optional[BaseException] = None
        # Counters, reported via the server's ``stats`` op.
        self.batches = 0
        self.batched_points = 0
        self.coalesced_sweeps = 0
        self.largest_batch = 0

    async def submit(
        self,
        base_key: str,
        spec: Mapping[str, Any],
        temperatures: Sequence[float],
    ) -> SweepResult:
        """Queue one request; resolves to its slice of the batch result.

        ``temperatures`` is the request's own grid — one entry for a
        point query, the full grid for a coalesced sweep.  The returned
        result keeps its temperature axis restricted to exactly that
        grid, in that order, so it is exactly what a solo sweep of
        ``spec`` + ``temperature=temperatures`` would have returned.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if self._draining is not None:
            future.set_exception(self._draining)
            return await future
        batch = self._open.get(base_key)
        if batch is None:
            batch = _Batch(spec)
            self._open[base_key] = batch
            # The window runs from this first request, not from when the
            # timer task first gets the loop (after any queued requests).
            flush_at = loop.time() + self.window_ms / 1000.0
            batch.timer = loop.create_task(self._flush_later(base_key, flush_at))
        grid = tuple(float(t) for t in temperatures)
        batch.members.append(_Member(grid, future))
        if len(grid) == 1:
            self.batched_points += 1
        else:
            self.coalesced_sweeps += 1
        return await future

    async def _flush_later(self, base_key: str, flush_at: float) -> None:
        await asyncio.sleep(max(0.0, flush_at - asyncio.get_running_loop().time()))
        batch = self._open.pop(base_key, None)
        if batch is None:  # pragma: no cover - drained underneath the timer
            return
        await self._flush(batch)

    async def _flush(self, batch: _Batch) -> None:
        # Stack the batch onto one shared, duplicate-free temperature
        # axis (sorted: the canonical grid order, and what makes the
        # batch spec itself deterministic for a given member set).
        union = sorted({t for member in batch.members for t in member.temperatures})
        payload = dict(batch.spec)
        payload["axes"] = list(payload.get("axes", ())) + [
            {"name": "temperature", "coordinates": union}
        ]
        self.batches += 1
        self.largest_batch = max(self.largest_batch, len(batch.members))
        try:
            result = await self._evaluate(payload)
        except Exception as error:  # noqa: BLE001 - forwarded per request
            for member in batch.members:
                if not member.future.done():
                    member.future.set_exception(error)
            return
        for member in batch.members:
            if not member.future.done():  # pragma: no branch - cancelled clients
                member.future.set_result(
                    result.select(temperature=list(member.temperatures))
                )

    def drain(self, error: BaseException) -> int:
        """Fail every pending member with ``error`` and refuse new work.

        The server's graceful-shutdown hook: open batch windows are
        cancelled and their members resolved immediately with the
        structured shutting-down error — no future is ever abandoned
        to hang a client through the shutdown race.  Returns the
        number of members failed.
        """
        self._draining = error
        failed = 0
        for batch in self._open.values():
            if batch.timer is not None:
                batch.timer.cancel()
            for member in batch.members:
                if not member.future.done():
                    member.future.set_exception(error)
                    failed += 1
        self._open.clear()
        return failed

    def stats(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "batched_points": self.batched_points,
            "coalesced_sweeps": self.coalesced_sweeps,
            "largest_batch": self.largest_batch,
            "window_ms": self.window_ms,
        }
