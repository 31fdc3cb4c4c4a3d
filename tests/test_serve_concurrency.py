"""Concurrency, persistence and scheduling contracts of the sweep service.

The multi-worker serving PR's test surface:

* the evaluation **scheduler**: first-in, first-out order under a
  saturated queue, ``busy`` backpressure when the bounded queue is
  full, drain semantics;
* the **request envelope**: a field outside ``op``/``id``/``spec``/
  ``temperature_c`` is ``bad-request`` naming it, never ignored;
* **cross-worker single-flight**: identical concurrent sweeps share one
  evaluation even when several workers could have run them;
* the **disk tier**: a killed-and-restarted server (and a second
  server sharing the directory) serves repeats with zero evaluations;
  a corrupted cache file is skipped and re-evaluated, never crashing
  or poisoning a response;
* **sweep coalescing**: concurrent sweeps sharing a base spec but
  differing along the temperature axis evaluate once, each answer
  bitwise equal to its solo evaluation (hypothesis-tested over random
  grids); non-mergeable requests fall back to independent evaluation
  unchanged;
* **graceful shutdown**: requests pending in the batch window resolve
  with the structured ``shutting-down`` error instead of hanging;
* **client transport**: a dead server surfaces as a structured
  ``transport`` error after ``CONNECT_RETRIES`` backed-off retries, a
  silent server as ``timeout``.
"""

import asyncio
import json
import os
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Axis, Sweep, SweepError, plan_tiles
from repro.engine.executors import TILE_ELEMENTS_ENV
from repro.serve import (
    MicroBatcher,
    ServeClient,
    ServeError,
    canonical_key,
    start_server_thread,
)
from repro.serve.client import CONNECT_RETRIES, RETRY_BACKOFF_S
from repro.serve.protocol import E_BAD_REQUEST, E_BUSY, E_SHUTTING_DOWN
from repro.serve.server import SweepServer, _EvalScheduler, _RequestError
from repro.tech import CMOS035, get_technology_digest, sample_technology_array

TEMPS = [-40.0, 25.0, 125.0]


def small_sweep(observable="period", temps=TEMPS):
    return (
        Sweep(technology=CMOS035, configuration="5INV")
        .over(Axis.temperature(list(temps)))
        .observe(observable)
    )


def base_spec(observable="period"):
    return (
        Sweep(technology=CMOS035, configuration="5INV")
        .observe(observable)
        .to_dict()
    )


# --------------------------------------------------------------------------- #
# scheduler unit contracts (no sockets: a loop, a fake evaluator)
# --------------------------------------------------------------------------- #


def test_scheduler_evaluates_in_arrival_order():
    completed = []

    async def scenario():
        gate = asyncio.Event()

        async def evaluate(payload):
            await gate.wait()
            completed.append(payload["tag"])
            return payload["tag"]

        scheduler = _EvalScheduler(evaluate, workers=1, queue_depth=16)
        scheduler.start()
        # The first job occupies the single worker...
        filler = asyncio.ensure_future(scheduler.submit({"tag": "filler"}))
        await asyncio.sleep(0.01)
        # ...so these queue, and must evaluate in the order they arrived.
        jobs = []
        for tag in "abcd":
            jobs.append(asyncio.ensure_future(scheduler.submit({"tag": tag})))
            await asyncio.sleep(0)  # each submit reaches the queue in turn
        await asyncio.sleep(0.01)
        gate.set()
        await asyncio.gather(filler, *jobs)
        scheduler.drain(_RequestError(E_SHUTTING_DOWN, "test over"))

    asyncio.run(scenario())
    assert completed == ["filler", "a", "b", "c", "d"]


def test_scheduler_rejects_beyond_queue_depth_with_busy():
    async def scenario():
        gate = asyncio.Event()

        async def evaluate(payload):
            await gate.wait()
            return None

        scheduler = _EvalScheduler(evaluate, workers=1, queue_depth=1)
        scheduler.start()
        running = asyncio.ensure_future(scheduler.submit({"tag": "running"}))
        await asyncio.sleep(0.01)
        queued = asyncio.ensure_future(scheduler.submit({"tag": "queued"}))
        await asyncio.sleep(0.01)
        with pytest.raises(_RequestError) as caught:
            await scheduler.submit({"tag": "overflow"})
        assert caught.value.code == E_BUSY
        assert scheduler.rejected_busy == 1
        gate.set()
        await asyncio.gather(running, queued)
        scheduler.drain(_RequestError(E_SHUTTING_DOWN, "test over"))

    asyncio.run(scenario())


def test_scheduler_drain_fails_queued_jobs_and_refuses_new_ones():
    async def scenario():
        async def evaluate(payload):
            await asyncio.sleep(3600)

        scheduler = _EvalScheduler(evaluate, workers=1, queue_depth=16)
        scheduler.start()
        running = asyncio.ensure_future(scheduler.submit({"tag": "running"}))
        queued = asyncio.ensure_future(scheduler.submit({"tag": "queued"}))
        await asyncio.sleep(0.01)
        scheduler.drain(_RequestError(E_SHUTTING_DOWN, "draining"))
        for job in (running, queued):
            with pytest.raises(_RequestError) as caught:
                await job
            assert caught.value.code == E_SHUTTING_DOWN
        with pytest.raises(_RequestError):
            await scheduler.submit({"tag": "late"})

    asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# end-to-end scheduling (real sockets, controlled evaluator)
# --------------------------------------------------------------------------- #


def _slow_evaluator(handle, hold_s):
    """Replace the server's evaluator with one that sleeps first."""
    original = SweepServer._evaluate_payload

    async def slow(payload):
        await asyncio.sleep(hold_s)
        return await original(handle.server, payload)

    handle.server._evaluate_payload = slow


def test_saturated_queue_answers_busy():
    handle = start_server_thread(workers=1, queue_depth=1, batch_window_ms=0.0)
    _slow_evaluator(handle, 0.4)
    try:
        started = threading.Barrier(3)
        codes = []

        def request(observable):
            with ServeClient("127.0.0.1", handle.port) as remote:
                started.wait()
                try:
                    remote.sweep_payload(small_sweep(observable))
                    codes.append("ok")
                except ServeError as error:
                    codes.append(error.code)

        threads = [
            threading.Thread(target=request, args=(obs,))
            for obs in ("period", "power", "frequency")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One ran, one queued, one bounced: exactly one busy rejection
        # (modulo scheduling, at least one request must bounce).
        assert codes.count("busy") >= 1
        assert codes.count("ok") == len(codes) - codes.count("busy")
        assert handle.server.scheduler.rejected_busy >= 1
    finally:
        handle.stop()


def test_unknown_request_fields_are_rejected():
    # The scheduling fields an older client may still send are refused
    # by name, not silently ignored; so is any other unknown field.
    handle = start_server_thread()
    try:
        sweep = {"op": "sweep", "spec": small_sweep().to_dict()}
        point = {"op": "point", "spec": base_spec(), "temperature_c": 25.0}
        with ServeClient("127.0.0.1", handle.port) as remote:
            for request, field, value in (
                (sweep, "priority", "high"),
                (sweep, "priority", True),
                (sweep, "deadline_ms", -5),
                (sweep, "deadline_ms", "soon"),
                (point, "colour", 1),
            ):
                with pytest.raises(ServeError) as caught:
                    remote._request({**request, field: value})
                assert caught.value.code == E_BAD_REQUEST
                assert repr(field) in caught.value.message
        assert handle.server.evaluations == 0
    finally:
        handle.stop()


@pytest.mark.parametrize("window_ms", [-1.0, float("nan"), float("inf")])
def test_invalid_batch_window_is_rejected(window_ms):
    # A NaN or infinite window never flushes, so every coalesced
    # request would wait forever; refuse it at construction.
    with pytest.raises(SweepError, match="batch_window_ms"):
        SweepServer(batch_window_ms=window_ms)


def test_identical_sweeps_share_one_evaluation_across_workers():
    handle = start_server_thread(workers=2, batch_window_ms=1.0)
    try:
        spec = small_sweep("power").to_dict()
        results = [None] * 4
        barrier = threading.Barrier(4)

        def worker(slot):
            with ServeClient("127.0.0.1", handle.port) as remote:
                barrier.wait()
                results[slot] = remote.sweep_payload(spec)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == results[0] for result in results)
        # Two workers were available, but single-flight still collapsed
        # four identical requests into one evaluation.
        assert handle.server.evaluations == 1
    finally:
        handle.stop()


def test_multi_worker_server_serves_a_population_bitwise(monkeypatch):
    # A workers > 1 server evaluates through the process pool, one
    # pickled sub-plan per tile; the small tile budget splits the
    # population over several tiles.
    monkeypatch.setenv(TILE_ELEMENTS_ENV, "16")
    sweep = (
        Sweep(technology=CMOS035, configuration="5INV")
        .over(Axis.sample(sample_technology_array(CMOS035, 23, seed=3)))
        .over(Axis.temperature(TEMPS))
    )
    assert len(plan_tiles(sweep.plan(), 16).tiles) == 5
    local = sweep.run().to_dict()
    handle = start_server_thread(workers=2, batch_window_ms=1.0)
    try:
        with ServeClient("127.0.0.1", handle.port) as remote:
            assert remote.sweep_payload(sweep) == local
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# the disk tier: restart survival and corruption safety
# --------------------------------------------------------------------------- #


def test_restarted_server_serves_repeats_from_disk_with_zero_evaluations(tmp_path):
    cache_dir = str(tmp_path / "serve-cache")
    sweep = small_sweep()
    local = sweep.run().to_dict()
    encoded = json.dumps(local, separators=(",", ":")).encode("utf-8")

    first = start_server_thread(cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", first.port) as remote:
            assert remote.sweep_payload(sweep) == local
        assert first.server.evaluations == 1
    finally:
        first.stop()
    assert not first.thread.is_alive()

    # A brand-new server over the same directory: the repeat must be a
    # disk hit, not an evaluation.
    second = start_server_thread(cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", second.port) as remote:
            assert remote.sweep_payload(sweep) == local
            stats = remote.stats()
        assert second.server.evaluations == 0
        assert stats["cache"]["disk"]["hits"] == 1
        # A disk hit is charged its result bytes, exactly as a fresh
        # evaluation is, not the size of the stamped file.
        assert stats["cache"]["bytes"] == len(encoded)
        # Promoted into memory: the next repeat never touches the disk.
        with ServeClient("127.0.0.1", second.port) as remote:
            assert remote.sweep_payload(sweep) == local
            stats = remote.stats()
        assert stats["cache"]["disk"]["hits"] == 1
        assert second.server.evaluations == 0
    finally:
        second.stop()


def test_two_servers_sharing_a_cache_directory_share_results(tmp_path):
    cache_dir = str(tmp_path / "shared-cache")
    sweep = small_sweep("power")
    writer = start_server_thread(cache_dir=cache_dir)
    reader = start_server_thread(cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", writer.port) as remote:
            expected = remote.sweep_payload(sweep)
        with ServeClient("127.0.0.1", reader.port) as remote:
            assert remote.sweep_payload(sweep) == expected
        assert writer.server.evaluations == 1
        assert reader.server.evaluations == 0
    finally:
        writer.stop()
        reader.stop()


def test_corrupted_cache_file_is_skipped_and_reevaluated(tmp_path):
    cache_dir = str(tmp_path / "serve-cache")
    sweep = small_sweep()
    local = sweep.run().to_dict()

    first = start_server_thread(cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", first.port) as remote:
            remote.sweep_payload(sweep)
    finally:
        first.stop()

    key = canonical_key(sweep)
    entry = os.path.join(cache_dir, key + ".json")
    assert os.path.exists(entry)
    with open(entry, "wb") as handle:
        handle.write(b'{"version": 1, "truncated mid-wri')  # torn write

    second = start_server_thread(cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", second.port) as remote:
            # Never crashes, never serves garbage: the corrupt entry is
            # dropped, the sweep re-evaluates, the answer is exact.
            assert remote.sweep_payload(sweep) == local
        assert second.server.evaluations == 1
        # The re-evaluation healed the entry on disk: a stamped
        # envelope (spec schema version + technology digest) around
        # the exact result payload.
        with open(entry, "rb") as handle:
            envelope = json.load(handle)
        assert envelope["result"] == local
        assert envelope["spec_version"] == Sweep.SCHEMA_VERSION
        assert envelope["tech_digest"] == get_technology_digest("cmos035")
    finally:
        second.stop()


def test_legacy_unstamped_disk_entry_is_dropped_and_reevaluated(tmp_path):
    # A cache directory written by a pre-envelope build holds bare
    # result payloads.  They carry no spec-version / technology-digest
    # stamp, so there is no way to know what they were computed under:
    # they must be dropped and re-evaluated, never served.
    cache_dir = str(tmp_path / "serve-cache")
    os.makedirs(cache_dir)
    sweep = small_sweep()
    local = sweep.run().to_dict()
    key = canonical_key(sweep)
    entry = os.path.join(cache_dir, key + ".json")
    with open(entry, "w") as handle:
        json.dump(local, handle)  # legacy: raw payload, no envelope

    server = start_server_thread(cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", server.port) as remote:
            assert remote.sweep_payload(sweep) == local
        assert server.server.evaluations == 1  # not served from disk
    finally:
        server.stop()
    with open(entry, "rb") as handle:
        assert json.load(handle)["spec_version"] == Sweep.SCHEMA_VERSION


def test_disk_entry_with_foreign_tech_digest_is_never_served(tmp_path):
    # Belt and braces against a tampered / hand-copied shared directory:
    # an envelope whose technology digest disagrees with the requesting
    # spec's is stale by definition, whatever its key claims.
    from repro.serve.cache import DiskCache

    sweep = small_sweep()
    payload = sweep.run().to_dict()
    encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    key = canonical_key(sweep)
    digest = get_technology_digest("cmos035")

    disk = DiskCache(str(tmp_path / "disk"))
    assert disk.put(key, encoded, tech_digest=digest)
    assert disk.get(key, digest) == encoded

    assert disk.get(key, "0" * 64) is None  # foreign digest: dropped
    assert disk.get(key, digest) is None  # and gone for good
    stats = disk.stats()
    assert stats["stale_dropped"] == 1
    assert stats["entries"] == 0


def test_respelled_disk_envelope_is_dropped_not_sliced(tmp_path):
    # A hit hands back the result bytes cut out of the file, so an
    # envelope with the right stamps but not spelled the way put writes
    # it (indented, reordered, trailing newline) counts as corrupt.
    from repro.serve.cache import DiskCache

    sweep = small_sweep()
    key = canonical_key(sweep)
    digest = get_technology_digest("cmos035")
    disk = DiskCache(str(tmp_path / "disk"))
    with open(os.path.join(disk.directory, key + ".json"), "w") as handle:
        json.dump(
            {
                "spec_version": Sweep.SCHEMA_VERSION,
                "tech_digest": digest,
                "result": sweep.run().to_dict(),
            },
            handle,
            indent=1,
        )
    assert disk.get(key, digest) is None
    assert disk.stats()["entries"] == 0


def test_foreign_garbage_in_cache_dir_is_never_served(tmp_path):
    cache_dir = str(tmp_path / "serve-cache")
    os.makedirs(cache_dir)
    sweep = small_sweep()
    key = canonical_key(sweep)
    # Valid JSON, wrong shape: must fail structural validation.
    with open(os.path.join(cache_dir, key + ".json"), "w") as handle:
        json.dump({"version": 1, "totally": "unrelated"}, handle)
    server = start_server_thread(cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", server.port) as remote:
            assert remote.sweep_payload(sweep) == sweep.run().to_dict()
        assert server.server.evaluations == 1
    finally:
        server.stop()


# --------------------------------------------------------------------------- #
# sweep coalescing
# --------------------------------------------------------------------------- #


def test_concurrent_overlapping_sweeps_coalesce_into_one_evaluation():
    handle = start_server_thread(batch_window_ms=500.0)
    try:
        grids = [
            [-40.0, 25.0, 125.0],
            [0.0, 25.0, 85.0],  # overlaps at 25, differs elsewhere
        ]
        results = [None] * len(grids)
        barrier = threading.Barrier(len(grids))

        def worker(slot):
            with ServeClient("127.0.0.1", handle.port) as remote:
                barrier.wait()
                results[slot] = remote.sweep_payload(small_sweep(temps=grids[slot]))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(grids))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert handle.server.evaluations == 1
        assert handle.server.batcher.coalesced_sweeps == 2
        for grid, served in zip(grids, results):
            assert served == small_sweep(temps=grid).run().to_dict()
    finally:
        handle.stop()


def test_unsorted_grid_coalesces_and_preserves_request_order():
    handle = start_server_thread(batch_window_ms=200.0)
    try:
        grid = [125.0, -40.0, 25.0]  # deliberately unsorted
        with ServeClient("127.0.0.1", handle.port) as remote:
            served = remote.sweep_payload(small_sweep(temps=grid))
        assert served == small_sweep(temps=grid).run().to_dict()
        assert served["coords"]["temperature"] == grid
    finally:
        handle.stop()


def test_non_mergeable_concurrent_sweeps_fall_back_to_independent_evaluation():
    handle = start_server_thread(batch_window_ms=300.0)
    try:
        # Same window, but different base specs (different observables):
        # nothing to coalesce — both evaluate, both exact.
        observables = ["period", "power"]
        results = [None] * len(observables)
        barrier = threading.Barrier(len(observables))

        def worker(slot):
            with ServeClient("127.0.0.1", handle.port) as remote:
                barrier.wait()
                results[slot] = remote.sweep_payload(small_sweep(observables[slot]))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(observables))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert handle.server.evaluations == 2
        for observable, served in zip(observables, results):
            assert served == small_sweep(observable).run().to_dict()
    finally:
        handle.stop()


def test_endpoint_observable_sweep_bypasses_the_coalescer():
    handle = start_server_thread(batch_window_ms=200.0)
    try:
        sweep = small_sweep("calibration_error_c")
        with ServeClient("127.0.0.1", handle.port) as remote:
            assert remote.sweep_payload(sweep) == sweep.run().to_dict()
        # Evaluated directly: endpoint-fit observables couple the whole
        # grid, so slicing a union would change their values.
        assert handle.server.batcher.batches == 0
        assert handle.server.evaluations == 1
    finally:
        handle.stop()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    grids=st.lists(
        st.lists(
            st.sampled_from([-40.0, -15.0, 0.0, 25.0, 60.0, 85.0, 125.0]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_coalesced_slices_are_bitwise_equal_to_solo_runs(grids):
    """Property: whatever grids coalesce, every slice is bit-exact.

    Drives the real :class:`MicroBatcher` (window 0: each flush takes
    whatever joined synchronously) with the real engine, comparing each
    member's slice against its solo evaluation — including unsorted,
    partially overlapping and duplicate-across-members grids.
    """
    base = base_spec()
    base_key = canonical_key(base)

    async def scenario():
        async def evaluate(payload):
            return Sweep.from_dict(payload).run()

        batcher = MicroBatcher(evaluate, window_ms=1.0)
        jobs = [
            asyncio.ensure_future(batcher.submit(base_key, base, grid))
            for grid in grids
        ]
        return await asyncio.gather(*jobs)

    results = asyncio.run(scenario())
    for grid, result in zip(grids, results):
        solo = small_sweep(temps=grid).run()
        assert result.to_dict() == solo.to_dict()


# --------------------------------------------------------------------------- #
# graceful shutdown vs. the batch window
# --------------------------------------------------------------------------- #


def test_shutdown_resolves_pending_batch_with_structured_error():
    # A window long enough that the point is still pending when the
    # shutdown lands: the old race left its future (and client) hanging.
    handle = start_server_thread(batch_window_ms=60_000.0)
    try:
        outcome = {}
        pending_sent = threading.Event()

        def pending_point():
            with ServeClient("127.0.0.1", handle.port, timeout=30.0) as remote:
                try:
                    pending_sent.set()
                    remote.point(base_spec(), 25.0)
                    outcome["result"] = "ok"
                except ServeError as error:
                    outcome["result"] = error.code

        waiter = threading.Thread(target=pending_point)
        waiter.start()
        pending_sent.wait(timeout=10)
        time.sleep(0.2)  # let the point land in the open batch window
        with ServeClient("127.0.0.1", handle.port) as remote:
            remote.shutdown()
        waiter.join(timeout=10)
        assert not waiter.is_alive(), "pending client hung through shutdown"
        assert outcome["result"] == E_SHUTTING_DOWN
        assert handle.server.evaluations == 0  # drained, not evaluated
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# client transport errors
# --------------------------------------------------------------------------- #


def test_dead_server_surfaces_as_structured_transport_error():
    # Bind-then-close: the port is real but nobody listens.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    started = time.monotonic()
    with pytest.raises(ServeError) as caught:
        ServeClient("127.0.0.1", port)
    assert caught.value.code == "transport"
    # The retries actually backed off (0.05 + 0.1 + 0.2) before giving up.
    backoff = sum(RETRY_BACKOFF_S * 2**attempt for attempt in range(CONNECT_RETRIES))
    assert time.monotonic() - started >= backoff


def test_request_retries_once_over_a_fresh_connection():
    # Kill the client's connection under it: the next idempotent
    # request must reconnect and succeed instead of raising.
    handle = start_server_thread()
    try:
        client = ServeClient("127.0.0.1", handle.port)
        try:
            assert client.ping()["ok"] is True
            client._sock.shutdown(socket.SHUT_RDWR)
            assert client.ping()["ok"] is True  # reconnected transparently
        finally:
            client.close()
    finally:
        handle.stop()


def test_unresponsive_server_surfaces_as_timeout_error():
    # A listener that accepts and then says nothing.
    mute = socket.socket()
    mute.bind(("127.0.0.1", 0))
    mute.listen(1)
    port = mute.getsockname()[1]
    try:
        client = ServeClient("127.0.0.1", port, timeout=0.2)
        try:
            with pytest.raises(ServeError) as caught:
                client._request({"op": "ping"}, retry=False)
            assert caught.value.code == "timeout"
        finally:
            client.close()
    finally:
        mute.close()
