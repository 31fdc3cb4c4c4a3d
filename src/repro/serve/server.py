"""The sweep-evaluation server: asyncio streams over NDJSON.

:class:`SweepServer` binds a TCP socket and answers the protocol ops of
:mod:`repro.serve.protocol`.  The evaluation path is deliberately thin
around the existing engine — a request's spec is canonicalized
(:func:`~repro.serve.spec.canonical_spec`, which *is* validation),
content-addressed (:func:`~repro.serve.spec.canonical_key`), looked up
in the two-tier result cache (:class:`~repro.serve.cache.ResultCache`:
a byte-bounded memory LRU over an optional restart-surviving disk
tier), and only on a miss handed to the evaluation scheduler.

The scheduler is what makes the front end *parallel*: a bounded
first-in, first-out queue feeds ``workers`` concurrent evaluation
slots, each running ``Sweep.from_dict(...).run()`` on a worker thread
— and, with more than one worker, through a shared
:class:`~repro.engine.executors.ProcessExecutor` pool (one pickled
sub-plan per tile), so concurrent distinct sweeps genuinely occupy
multiple cores.  A full queue answers ``busy`` instead of growing
without bound.

A ``point`` is the one-coordinate sweep of its base spec and shares
that sweep's cache entry.  Identical requests in flight at the same
moment share one evaluation (single-flight, across workers); concurrent
requests that differ only along the temperature axis coalesce onto one
union-grid broadcast (:class:`~repro.serve.batcher.MicroBatcher`) and
are each answered with their own bitwise-exact slice.  A result is
encoded once, on its miss; the cache holds those bytes and every
response splices them into its envelope, so a result of any size leaves
as one line.

Every setting is a :class:`SweepServer` argument and the matching
``repro-serve`` flag; the server reads no environment variables.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..engine.executors import ProcessExecutor
from ..engine.sweep import (
    Sweep,
    SweepError,
    SweepResult,
    TechnologyMismatchError,
    _ENDPOINT_OBSERVABLES,
)
from ..fields import ReproInputError, flag, integer, real
from .batcher import DEFAULT_BATCH_WINDOW_MS, MicroBatcher
from .cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_DISK_CACHE_BYTES,
    DiskCache,
    ResultCache,
)
from .protocol import (
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_BAD_SPEC,
    E_BUSY,
    E_INTERNAL,
    E_SHUTTING_DOWN,
    E_TECH_MISMATCH,
    E_UNKNOWN_OP,
    E_VERSION,
    MAX_LINE_BYTES,
    OPS,
    REQUEST_FIELDS,
    decode_line,
    encode_line,
    error_envelope,
    ok_envelope,
)
from .spec import canonical_spec, encode_canonical, split_temperature

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_WORKERS",
    "ServerHandle",
    "SweepServer",
    "main",
    "start_server_thread",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7753

#: Default evaluation concurrency: one slot, evaluated in-process —
#: exactly the pre-scheduler behavior.  More slots route evaluations
#: through a shared process pool of the same size.
DEFAULT_WORKERS = 1

#: Default bound of the evaluation queue.  Deep enough that a burst of
#: fan-out traffic queues instead of failing, shallow enough that a
#: stalled server fails fast (``busy``) rather than accumulating an
#: unbounded backlog of request payloads in memory.
DEFAULT_QUEUE_DEPTH = 128


class _RequestError(Exception):
    """A request-level failure with a stable protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _request_field(check, value: Any, field: str, **bounds: Any) -> Any:
    """``check(value)`` from :mod:`repro.fields`; a refusal is ``bad-request``."""
    try:
        return check(value, field, **bounds)
    except ReproInputError as error:
        raise _RequestError(E_BAD_REQUEST, str(error)) from None


def _shutting_down_error() -> _RequestError:
    return _RequestError(
        E_SHUTTING_DOWN, "server is shutting down; the request was not evaluated"
    )


class _EvalScheduler:
    """A bounded FIFO queue feeding N concurrent evaluation slots.

    Entries are ``(payload, future)`` pairs, evaluated in arrival
    order.  ``submit`` fails fast with ``busy`` when the queue is full
    (backpressure instead of unbounded memory growth).
    """

    def __init__(self, evaluate, workers: int, queue_depth: int) -> None:
        self._evaluate = evaluate
        self.workers = integer(workers, "workers", SweepError, at_least=1)
        self.queue_depth = integer(queue_depth, "queue_depth", SweepError, at_least=1)
        self._queue: Optional[asyncio.Queue] = None
        self._tasks: List[asyncio.Task] = []
        self._draining: Optional[_RequestError] = None
        # Counters, reported via the server's ``stats`` op.
        self.scheduled = 0
        self.completed = 0
        self.rejected_busy = 0
        self.peak_queued = 0

    def start(self) -> None:
        """Create the queue and spawn the worker tasks (on a running loop)."""
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._tasks = [
            asyncio.get_running_loop().create_task(
                self._worker(), name=f"repro-serve-eval-{index}"
            )
            for index in range(self.workers)
        ]

    async def submit(self, payload: Mapping[str, Any]) -> SweepResult:
        """Queue one evaluation; resolves to its result (or a scheduling error)."""
        if self._draining is not None:
            raise self._draining
        assert self._queue is not None, "scheduler used before start()"
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((payload, future))
        except asyncio.QueueFull:
            self.rejected_busy += 1
            raise _RequestError(
                E_BUSY,
                f"evaluation queue is full ({self.queue_depth} pending); "
                f"retry later or raise the queue depth",
            ) from None
        self.scheduled += 1
        self.peak_queued = max(self.peak_queued, self._queue.qsize())
        return await future

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            payload, future = await self._queue.get()
            if future.done():  # requester gone (cancelled connection)
                continue
            try:
                result = await self._evaluate(payload)
            except asyncio.CancelledError:
                if not future.done():
                    future.set_exception(_shutting_down_error())
                raise
            except Exception as error:  # noqa: BLE001 - forwarded per request
                if not future.done():
                    future.set_exception(error)
            else:
                self.completed += 1
                if not future.done():
                    future.set_result(result)

    def drain(self, error: _RequestError) -> None:
        """Refuse new work, fail queued jobs, cancel the worker slots."""
        self._draining = error
        if self._queue is not None:
            while True:
                try:
                    _payload, future = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if not future.done():
                    future.set_exception(error)
        for task in self._tasks:
            task.cancel()

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "peak_queued": self.peak_queued,
            "scheduled": self.scheduled,
            "completed": self.completed,
            "rejected_busy": self.rejected_busy,
        }


class SweepServer:
    """A persistent sweep-evaluation service on one TCP socket.

    ``evaluations`` counts every engine evaluation the server performs
    (full sweeps and coalesced batches alike) — the hook the cache and
    batching tests assert against: a repeat query must leave it
    untouched, eight coalesced points must bump it once, and a restart
    onto a warm disk cache must serve repeats at zero.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int = DEFAULT_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cache_dir: Optional[str] = None,
        disk_cache_bytes: int = DEFAULT_DISK_CACHE_BYTES,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
    ) -> None:
        self.host = host
        self.port = integer(port, "port", SweepError, at_least=0, at_most=65535)
        self.workers = integer(workers, "workers", SweepError, at_least=1)
        cache_bytes = integer(cache_bytes, "cache_bytes", SweepError, at_least=0)
        disk_cache_bytes = integer(
            disk_cache_bytes, "disk_cache_bytes", SweepError, at_least=0
        )
        self.cache_dir = cache_dir
        disk = DiskCache(cache_dir, disk_cache_bytes) if cache_dir else None
        self.cache = ResultCache(cache_bytes, disk=disk)
        # Late binding (not the bound method itself) so a test can
        # swap ``_evaluate_payload`` on the instance to a controlled
        # evaluator and the scheduler picks it up.
        self.scheduler = _EvalScheduler(
            lambda payload: self._evaluate_payload(payload),
            self.workers,
            queue_depth,
        )
        self.batcher = MicroBatcher(self.scheduler.submit, batch_window_ms)
        #: The shared tile executor of a multi-worker server: every
        #: concurrent evaluation submits its tiles to one reused
        #: process pool, sized to the worker count, so N slots
        #: genuinely occupy N cores.
        self._executor: Optional[ProcessExecutor] = (
            ProcessExecutor(max_workers=self.workers) if self.workers > 1 else None
        )
        self.evaluations = 0
        self.requests = 0
        self._inflight: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._stopping = False
        self._active_dispatches = 0
        self._connections: set = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the socket (resolving port 0) and start the scheduler."""
        self._stopped = asyncio.Event()
        self.scheduler.start()
        if self._executor is not None:
            # Pay worker-pool startup now, not on the first request.
            await asyncio.to_thread(self._executor.prewarm)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        try:
            await self._stopped.wait()
        finally:
            await self.aclose()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (safe from within the loop)."""
        if self._stopped is not None:
            self._stopped.set()

    async def aclose(self) -> None:
        # Ordering matters: stop accepting, then resolve every pending
        # future with the structured shutting-down error, then give the
        # request handlers awaiting those futures a bounded window to
        # write their error responses — only then tear down the
        # connections.  Nothing is abandoned: a client blocked on a
        # batched point or a queued sweep sees ``shutting-down``, not a
        # silent hang.
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        error = _shutting_down_error()
        self.batcher.drain(error)
        self.scheduler.drain(error)
        if self._connections:
            deadline = asyncio.get_running_loop().time() + 5.0
            while (
                self._active_dispatches > 0
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
        # Drain open connections: cancel their handler tasks and wait,
        # so loop teardown never races a half-closed stream.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # ------------------------------------------------------------------ #
    # evaluation (the counted hook)
    # ------------------------------------------------------------------ #

    async def _evaluate_payload(self, payload: Mapping[str, Any]) -> SweepResult:
        """One engine evaluation of a serialized spec, off the event loop."""
        sweep = Sweep.from_dict(payload)
        self.evaluations += 1
        return await asyncio.to_thread(sweep.run, executor=self._executor)

    async def _sweep_payload(
        self, key: str, canonical: Dict[str, Any]
    ) -> Tuple[bytes, bool]:
        """The encoded result of a canonical sweep: cache, then engine.

        Returns ``(encoded, cached)``: the result's compact JSON, encoded
        once by the miss that evaluated it.  Concurrent misses on the
        same key share one evaluation (single-flight — the registration
        happens on the event loop before the scheduler or batcher ever
        sees the job, so it holds across workers): the first request
        evaluates, the rest await its future.  A miss
        whose spec carries an explicit temperature axis (and an
        elementwise observable) goes through the coalescer, merging
        with any concurrent sweep or point sharing its base spec;
        everything else is scheduled as an independent evaluation,
        unchanged.
        """
        tech_digest = _tech_digest_of(canonical)
        encoded = self.cache.get(key, tech_digest)
        if encoded is not None:
            return encoded, True
        waiter = self._inflight.get(key)
        if waiter is not None:
            return await asyncio.shield(waiter), True
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Mark exceptions retrieved even when no duplicate request ever
        # awaits the future.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = future
        try:
            base, temperatures = split_temperature(canonical)
            if temperatures and canonical["observable"] not in _ENDPOINT_OBSERVABLES:
                result = await self.batcher.submit(_key_of(base), base, temperatures)
            else:
                result = await self.scheduler.submit(canonical)
            encoded = _encode_result(result.to_dict())
            self.cache.put(key, encoded, tech_digest)
            future.set_result(encoded)
            return encoded, False
        except Exception as error:
            future.set_exception(error)
            raise
        finally:
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_line(
                            error_envelope(
                                E_BAD_REQUEST,
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                keep_going = await self._dispatch(line, writer)
                if not keep_going:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Shutdown cancels open connections; finish closing below
            # instead of ending as a cancelled task (which asyncio's
            # stream machinery would log as an unhandled error).
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch(self, line: bytes, writer: asyncio.StreamWriter) -> bool:
        """Answer one request line; False ends the connection."""
        self.requests += 1
        self._active_dispatches += 1
        request_id: Optional[Any] = None
        try:
            try:
                message = decode_line(line)
            except ValueError as error:
                raise _RequestError(E_BAD_JSON, f"request is not valid JSON: {error}")
            if not isinstance(message, Mapping):
                raise _RequestError(
                    E_BAD_REQUEST,
                    f"request must be a JSON object, got {type(message).__name__}",
                )
            request_id = message.get("id")
            unknown = [field for field in message if field not in REQUEST_FIELDS]
            if unknown:
                raise _RequestError(
                    E_BAD_REQUEST,
                    f"unknown request field(s) {unknown}; a request carries "
                    f"only {list(REQUEST_FIELDS)}",
                )
            op = message.get("op")
            if not isinstance(op, str):
                raise _RequestError(E_BAD_REQUEST, "request is missing its 'op' field")
            if op == "ping":
                writer.write(
                    encode_line(
                        ok_envelope("ping", request_id, version=Sweep.SCHEMA_VERSION)
                    )
                )
            elif op == "stats":
                writer.write(encode_line(ok_envelope("stats", request_id, stats=self.stats())))
            elif op == "shutdown":
                writer.write(encode_line(ok_envelope("shutdown", request_id)))
                await writer.drain()
                self.request_shutdown()
                return False
            elif op == "sweep":
                if self._stopping:
                    raise _shutting_down_error()
                await self._handle_sweep(message, request_id, writer)
            elif op == "point":
                if self._stopping:
                    raise _shutting_down_error()
                await self._handle_point(message, request_id, writer)
            else:
                raise _RequestError(
                    E_UNKNOWN_OP, f"unknown op {op!r}; ops are {list(OPS)}"
                )
        except _RequestError as error:
            writer.write(encode_line(error_envelope(error.code, error.message, request_id)))
        except TechnologyMismatchError as error:
            # Before the input-error catch below (it is one): a digest
            # disagreement is its own stable code, so clients can tell
            # "our registries disagree" from a malformed spec.
            writer.write(
                encode_line(error_envelope(E_TECH_MISMATCH, str(error), request_id))
            )
        except ReproInputError as error:
            # Any malformed or out-of-range input, wherever it is caught.
            writer.write(encode_line(error_envelope(E_BAD_SPEC, str(error), request_id)))
        except Exception as error:  # noqa: BLE001 - a fault of the server itself
            writer.write(
                encode_line(
                    error_envelope(
                        E_INTERNAL, f"{type(error).__name__}: {error}", request_id
                    )
                )
            )
        finally:
            self._active_dispatches -= 1
        await writer.drain()
        return True

    def _spec_from(self, message: Mapping[str, Any]) -> Mapping[str, Any]:
        spec = message.get("spec")
        if not isinstance(spec, Mapping):
            raise _RequestError(
                E_BAD_REQUEST,
                f"request needs a 'spec' object, got "
                f"{type(spec).__name__ if spec is not None else 'nothing'}",
            )
        version = spec.get("version")
        if version is not None and version != Sweep.SCHEMA_VERSION:
            raise _RequestError(
                E_VERSION,
                f"spec has schema version {version!r}; this server reads "
                f"version {Sweep.SCHEMA_VERSION}",
            )
        return spec

    async def _handle_sweep(
        self,
        message: Mapping[str, Any],
        request_id: Optional[Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        canonical = canonical_spec(self._spec_from(message))
        key = _key_of(canonical)
        encoded, cached = await self._sweep_payload(key, canonical)
        await self._respond_result(writer, "sweep", request_id, key, encoded, cached)

    async def _handle_point(
        self,
        message: Mapping[str, Any],
        request_id: Optional[Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        spec = self._spec_from(message)
        temperature = _request_field(real, message.get("temperature_c"), "temperature_c")
        base = canonical_spec(spec)
        if any(axis.get("name") == "temperature" for axis in base["axes"]):
            raise _RequestError(
                E_BAD_REQUEST,
                "a point spec must not carry a temperature axis; the query's "
                "'temperature_c' is the point (use op=sweep for a grid)",
            )
        if base["observable"] in _ENDPOINT_OBSERVABLES:
            raise _RequestError(
                E_BAD_REQUEST,
                f"observable {base['observable']!r} couples every temperature "
                f"to the grid endpoints, so point queries cannot be batched; "
                f"use op=sweep with the full temperature grid",
            )
        # A point is the one-coordinate sweep of its base.  Temperature
        # is the last canonical axis, so appending it keeps the form
        # canonical: the point and that sweep share one cache entry.
        canonical = dict(base)
        canonical["axes"] = list(base["axes"]) + [
            {"name": "temperature", "coordinates": [float(temperature)]}
        ]
        key = _key_of(canonical)
        encoded, cached = await self._sweep_payload(key, canonical)
        await self._respond_result(writer, "point", request_id, key, encoded, cached)

    async def _respond_result(
        self,
        writer: asyncio.StreamWriter,
        op: str,
        request_id: Optional[Any],
        key: str,
        encoded: bytes,
        cached: bool,
    ) -> None:
        """One result line: the envelope with the result bytes spliced in."""
        # ``result`` is the envelope's last field: splice the bytes in
        # before its closing brace instead of encoding them again.
        header = encode_line(ok_envelope(op, request_id, key=key, cached=cached))
        writer.write(header[:-2] + b',"result":' + encoded + b"}\n")
        await writer.drain()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        return {
            "evaluations": self.evaluations,
            "requests": self.requests,
            "inflight": len(self._inflight),
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
            "scheduler": self.scheduler.stats(),
        }


def _encode_result(payload: Mapping[str, Any]) -> bytes:
    """A result payload's compact JSON: the bytes cached and sent.

    A NaN or infinite value raises ``ValueError``, so such a result
    fails its request before it is cached or sent.
    """
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")


def _key_of(canonical: Mapping[str, Any]) -> str:
    """Key an *already canonical* payload without re-round-tripping it."""
    return hashlib.sha256(encode_canonical(canonical)).hexdigest()


def _tech_digest_of(canonical: Mapping[str, Any]) -> Optional[str]:
    """The technology digest a canonical spec's cache entry is stamped with.

    A base technology reference contributes its registration digest; a
    technology *axis* contributes every node's.  One digest is stamped
    verbatim; several collapse into one SHA-256 over the ordered list
    (the stamp is a single string either way).  A spec with no
    technology reference at all (e.g. a sample-axis population, which
    travels as raw parameter columns) stamps None — the canonical key
    still covers its full content.
    """
    digests: List[str] = []
    technology = canonical["base"].get("technology")
    if technology is not None:
        digests.append(str(technology["digest"]))
    for axis in canonical["axes"]:
        if axis.get("name") == "technology":
            digests.extend(str(node["digest"]) for node in axis["nodes"])
    if not digests:
        return None
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256(",".join(digests).encode("ascii")).hexdigest()


# --------------------------------------------------------------------------- #
# threaded embedding (tests, benchmarks, the CI smoke step)
# --------------------------------------------------------------------------- #


class ServerHandle:
    """A server running on a daemon thread, stoppable from the caller."""

    def __init__(self, server: SweepServer) -> None:
        self.server = server
        self.thread: Optional[threading.Thread] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown (idempotent) and join the serving thread."""
        if self.loop is not None:
            try:
                self.loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed: the server stopped on its own
        if self.thread is not None:
            self.thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def start_server_thread(**kwargs: Any) -> ServerHandle:
    """Start a :class:`SweepServer` on a daemon thread and wait for bind.

    Keyword arguments go to the :class:`SweepServer` constructor;
    ``port=0`` (the default here) binds an ephemeral port, readable as
    ``handle.port`` once this returns.
    """
    kwargs.setdefault("port", 0)
    server = SweepServer(**kwargs)
    handle = ServerHandle(server)
    ready = threading.Event()
    failure: List[BaseException] = []

    def _run() -> None:
        async def _main() -> None:
            try:
                await server.start()
            except BaseException as error:  # noqa: BLE001 - reported to caller
                failure.append(error)
                ready.set()
                return
            handle.loop = asyncio.get_running_loop()
            ready.set()
            try:
                await server._stopped.wait()
            finally:
                await server.aclose()

        asyncio.run(_main())

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    handle.thread = thread
    thread.start()
    if not ready.wait(timeout=30.0):  # pragma: no cover - hung interpreter
        raise SweepError("sweep server failed to start within 30 s")
    if failure:
        raise SweepError(f"sweep server failed to bind: {failure[0]}") from failure[0]
    return handle


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    """`repro-serve` / ``python -m repro.serve``: run a server until stopped."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Persistent sweep-evaluation service: NDJSON over TCP, "
            "multi-worker parallel evaluation, restart-surviving "
            "content-addressed result caching, coalesced sweep and "
            "point queries."
        ),
    )
    parser.add_argument(
        "--host", default=DEFAULT_HOST, help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=flag(integer, "port", at_least=0, at_most=65535),
        default=DEFAULT_PORT,
        help="bind port, 0 for ephemeral (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=flag(integer, "workers", at_least=1),
        default=DEFAULT_WORKERS,
        help=(
            "concurrent evaluation slots; above 1, evaluations route "
            "through a shared process pool of the same size "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--queue-depth",
        type=flag(integer, "queue_depth", at_least=1),
        default=DEFAULT_QUEUE_DEPTH,
        help=(
            "bounded evaluation-queue depth — beyond it requests fail "
            "fast with the 'busy' error code (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--cache-bytes",
        type=flag(integer, "cache_bytes", at_least=0),
        default=DEFAULT_CACHE_BYTES,
        help="memory result-cache budget in payload bytes (default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "disk cache directory — results persist across restarts, "
            "and servers sharing the directory share the cache "
            "(default: memory only)"
        ),
    )
    parser.add_argument(
        "--disk-cache-bytes",
        type=flag(integer, "disk_cache_bytes", at_least=0),
        default=DEFAULT_DISK_CACHE_BYTES,
        help="disk-tier byte budget, LRU-evicted via file mtime (default %(default)s)",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=flag(real, "batch_window_ms", at_least=0.0),
        default=DEFAULT_BATCH_WINDOW_MS,
        help=(
            "coalescing window for point queries and overlapping "
            "sweeps, in milliseconds (default %(default)s)"
        ),
    )
    args = parser.parse_args(argv)

    server = SweepServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_bytes=args.cache_bytes,
        cache_dir=args.cache_dir,
        disk_cache_bytes=args.disk_cache_bytes,
        batch_window_ms=args.batch_window_ms,
    )

    async def _serve() -> None:
        await server.start()
        print(f"repro-serve listening on {server.host}:{server.port}", flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
