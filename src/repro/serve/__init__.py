"""repro.serve — the sweep engine as a persistent network service.

The batch workflow (:mod:`repro.engine`) pays the full evaluation cost
on every invocation; a *service* amortizes it across requests.  This
package wraps the engine in a long-lived asyncio server speaking
newline-delimited JSON over TCP (stdlib only), with four layers that
turn repeat and concurrent traffic into cheap traffic:

content addressing (:mod:`repro.serve.spec`)
    A sweep spec's canonical form is its round trip through the real
    builder — ``Sweep.from_dict(payload).to_dict()`` — so validation
    and normalization are one step; :func:`canonical_key` hashes the
    canonical encoding with SHA-256.  Semantically identical requests
    collide on the key, however they were spelled.

result caching (:mod:`repro.serve.cache`)
    A byte-bounded memory LRU over encoded result payloads, keyed on
    the canonical hash, fronting an optional **disk tier**
    (:class:`DiskCache`, ``--cache-dir``): one atomic file
    per entry, corruption-safe loads, mtime-LRU eviction — so a
    restarted server, or a second host sharing the directory, serves
    previously computed sweeps with zero evaluations.  Identical
    sweeps in flight share one evaluation (single-flight, across
    workers).

coalescing (:mod:`repro.serve.batcher`)
    Concurrent temperature-split work — point queries *and* sweeps
    whose specs differ only along the temperature axis — waits a few
    milliseconds, stacks onto one shared union temperature axis,
    evaluates as a single broadcast, and each request receives its own
    slice — bit-identical to a solo evaluation because the engine is
    elementwise in temperature.

parallel evaluation (the scheduler in :mod:`repro.serve.server`)
    A bounded first-in, first-out queue (``busy`` backpressure when
    full) feeding ``--workers`` concurrent evaluation slots over one
    shared process pool, so distinct concurrent sweeps genuinely
    occupy multiple cores.

Every result, whatever its size, travels as one response line; the
synchronous :class:`ServeClient` reads it and retries dead connections
with bounded exponential backoff.  Start a server with
``repro-serve`` (or ``python -m repro.serve``), embed one in-process
with :func:`start_server_thread`; both take the same settings (the
:class:`SweepServer` arguments), and neither reads the environment.
"""

from .batcher import DEFAULT_BATCH_WINDOW_MS, MicroBatcher
from .cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_DISK_CACHE_BYTES,
    DiskCache,
    ResultCache,
)
from .client import ServeClient, ServeError
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_WORKERS,
    ServerHandle,
    SweepServer,
    main,
    start_server_thread,
)
from .spec import canonical_key, canonical_spec, encode_canonical, split_temperature

__all__ = [
    "DEFAULT_BATCH_WINDOW_MS",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_DISK_CACHE_BYTES",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_WORKERS",
    "DiskCache",
    "MicroBatcher",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "ServerHandle",
    "SweepServer",
    "canonical_key",
    "canonical_spec",
    "encode_canonical",
    "main",
    "split_temperature",
    "start_server_thread",
]
