"""End-to-end contracts of the sweep service (repro.serve).

Each test runs a real :class:`~repro.serve.server.SweepServer` on an
ephemeral port (in-process, daemon thread) and drives it with the
blocking :class:`~repro.serve.client.ServeClient` — the same transport
production trafic uses, no mocked sockets.  The contracts:

* a served result is **byte-identical** (post ``to_dict``) to the same
  sweep evaluated locally;
* every response is one line, whatever the result's size;
* a repeat request is answered from the cache with **zero** new engine
  evaluations (asserted through the server's evaluation counter);
* concurrent compatible point queries coalesce into **one** broadcast
  evaluation, each answer bitwise equal to its solo evaluation;
* the result cache evicts least-recently-used entries under a small
  byte budget;
* malformed or version-foreign payloads are rejected with structured
  error codes, and the connection survives the rejection;
* a ``shutdown`` op stops the server cleanly.
"""

import dataclasses
import functools
import json
import operator
import socket
import threading
import warnings

import numpy as np
import pytest

from repro.engine import Axis, Sweep, SweepError
from repro.serve import (
    DEFAULT_PORT,
    DEFAULT_WORKERS,
    ServeClient,
    ServeError,
    SweepServer,
    canonical_key,
    start_server_thread,
)
from repro.serve.protocol import (
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_BAD_SPEC,
    E_INTERNAL,
    E_TECH_MISMATCH,
    E_UNKNOWN_OP,
    E_VERSION,
    encode_line,
    ok_envelope,
)
from repro.oscillator import PAPER_FIG3_CONFIGURATIONS
from repro.tech import CMOS035, register_technology, sample_technology_array

TEMPS = [-40.0, 25.0, 125.0]


def small_sweep(observable="period"):
    return (
        Sweep(technology=CMOS035, configuration="5INV")
        .over(Axis.temperature(TEMPS))
        .observe(observable)
    )


def base_spec(observable="period"):
    return (
        Sweep(technology=CMOS035, configuration="5INV")
        .observe(observable)
        .to_dict()
    )


@pytest.fixture()
def server():
    handle = start_server_thread(batch_window_ms=1.0)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient("127.0.0.1", server.port) as remote:
        yield remote


# --------------------------------------------------------------------------- #
# round trip + cache
# --------------------------------------------------------------------------- #


def test_served_result_is_byte_identical_to_local(client):
    sweep = small_sweep()
    local = sweep.run().to_dict()
    served = client.sweep_payload(sweep)
    # Through a JSON round trip (as any remote caller sees it), the
    # payloads are equal — same dims, coords, dtype and exact values.
    assert json.loads(json.dumps(served)) == json.loads(json.dumps(local))
    assert served == local


def _raw_response(port, request):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as raw:
        stream = raw.makefile("rwb")
        stream.write(json.dumps(request).encode("utf-8") + b"\n")
        stream.flush()
        return stream.readline()


def test_response_line_framing_is_pinned_byte_for_byte(server):
    one_coordinate = (
        Sweep(technology=CMOS035, configuration="5INV")
        .over(Axis.temperature([85.0]))
        .observe("period")
    )
    # Over 1 MiB encoded: a result of any size is still one line.
    large = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
        .over(Axis.supply([3.0, 3.3]))
        .over(Axis.sample(sample_technology_array(CMOS035, 100, seed=1)))
        .over(Axis.temperature([float(t) for t in np.linspace(-50.0, 150.0, 41)]))
    )
    cases = [
        ("sweep", {"spec": small_sweep().to_dict()}, small_sweep()),
        ("point", {"spec": base_spec(), "temperature_c": 85.0}, one_coordinate),
        ("sweep", {"spec": large.to_dict()}, large),
    ]
    for op, fields, local in cases:
        key = canonical_key(local)
        result = local.run().to_dict()
        for cached in (False, True):  # the miss, then the hit
            line = _raw_response(server.port, {"op": op, "id": 7, **fields})
            assert line == encode_line(
                ok_envelope(op, 7, key=key, cached=cached, result=result)
            )
            assert (len(line) > 1 << 20) == (local is large)


def test_repeat_request_hits_cache_with_zero_evaluations(server, client):
    sweep = small_sweep()
    first = client.sweep_payload(sweep)
    evaluations = server.server.evaluations
    assert evaluations == 1
    again = client.sweep_payload(sweep)
    assert again == first
    assert server.server.evaluations == evaluations  # zero new evaluations
    stats = client.stats()
    assert stats["cache"]["hits"] >= 1
    assert stats["cache"]["entries"] >= 1


def test_respelled_request_still_hits_cache(server, client):
    payload = small_sweep().to_dict()
    client.sweep_payload(payload)
    respelled = json.loads(json.dumps(payload))
    for axis in respelled["axes"]:
        if axis["name"] == "temperature":
            axis["coordinates"] = [-40, 25, 125]  # ints, same grid
    del respelled["base"]["tap_stage"]  # defaults omitted, same spec
    client.sweep_payload(respelled)
    assert server.server.evaluations == 1
    assert canonical_key(respelled) == canonical_key(payload)


def test_concurrent_identical_sweeps_share_one_evaluation(server):
    spec = small_sweep("power").to_dict()
    results = [None] * 4

    def worker(slot):
        with ServeClient("127.0.0.1", server.port) as remote:
            results[slot] = remote.sweep_payload(spec)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(result == results[0] for result in results)
    assert server.server.evaluations == 1  # single-flight, not four passes


# --------------------------------------------------------------------------- #
# micro-batched point queries
# --------------------------------------------------------------------------- #


def test_concurrent_points_coalesce_into_one_evaluation():
    handle = start_server_thread(batch_window_ms=500.0)
    try:
        spec = base_spec()
        temps = [float(t) for t in np.linspace(-40.0, 125.0, 8)]
        results = [None] * len(temps)
        barrier = threading.Barrier(len(temps))

        def worker(slot):
            with ServeClient("127.0.0.1", handle.port) as remote:
                barrier.wait()
                results[slot] = remote.point(spec, temps[slot])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(temps))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert handle.server.evaluations == 1
        assert handle.server.batcher.batches == 1
        assert handle.server.batcher.largest_batch == len(temps)

        local = (
            Sweep(technology=CMOS035, configuration="5INV")
            .over(Axis.temperature(temps))
            .run()
        )
        for temperature, result in zip(temps, results):
            assert result.dims == ("temperature",)
            assert result.item() == local.select(temperature=temperature).item()
    finally:
        handle.stop()


def test_point_slice_equals_solo_point_evaluation(client):
    temperature = 85.0
    served = client.point_payload(base_spec(), temperature)
    solo = (
        Sweep(technology=CMOS035, configuration="5INV")
        .over(Axis.temperature([temperature]))
        .run()
        .to_dict()
    )
    assert served == solo


def test_repeated_point_is_served_from_cache(server, client):
    client.point_payload(base_spec(), 25.0)
    evaluations = server.server.evaluations
    client.point_payload(base_spec(), 25.0)
    assert server.server.evaluations == evaluations

    # A point is the one-coordinate sweep of its base: one cache entry.
    one_coordinate = (
        Sweep(technology=CMOS035, configuration="5INV")
        .over(Axis.temperature([60.0]))
        .observe("period")
    )
    client.sweep_payload(one_coordinate)
    evaluations = server.server.evaluations
    response = client._request(
        {"op": "point", "spec": base_spec(), "temperature_c": 60.0}
    )
    assert response["cached"] is True
    assert response["key"] == canonical_key(one_coordinate)
    assert server.server.evaluations == evaluations


def test_point_rejects_temperature_axis_and_endpoint_observables(client):
    carrying_axis = small_sweep().to_dict()
    with pytest.raises(ServeError, match="temperature axis") as caught:
        client.point_payload(carrying_axis, 25.0)
    assert caught.value.code == E_BAD_REQUEST

    with pytest.raises(ServeError, match="couples every temperature") as caught:
        client.point_payload(base_spec("calibration_error_c"), 25.0)
    assert caught.value.code == E_BAD_REQUEST

    with pytest.raises(ServeError, match="temperature_c") as caught:
        client._request({"op": "point", "spec": base_spec()})
    assert caught.value.code == E_BAD_REQUEST


# --------------------------------------------------------------------------- #
# cache eviction
# --------------------------------------------------------------------------- #


def test_lru_eviction_under_small_byte_budget():
    probe = small_sweep().run().to_dict()
    payload_bytes = len(json.dumps(probe, separators=(",", ":")).encode())
    # Room for roughly one result at a time: the second distinct sweep
    # must push the first out.
    handle = start_server_thread(cache_bytes=payload_bytes + 16)
    try:
        with ServeClient("127.0.0.1", handle.port) as remote:
            remote.sweep_payload(small_sweep("period"))
            remote.sweep_payload(small_sweep("power"))
            stats = remote.stats()
            assert stats["cache"]["evictions"] >= 1
            assert stats["cache"]["bytes"] <= payload_bytes + 16
            # The evicted sweep re-evaluates on the next request.
            before = handle.server.evaluations
            remote.sweep_payload(small_sweep("period"))
            assert handle.server.evaluations == before + 1
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# protocol errors
# --------------------------------------------------------------------------- #


def test_malformed_and_invalid_requests_return_structured_errors(server, client):
    # Raw malformed JSON line, spoken directly over the socket.
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
        stream = raw.makefile("rwb")
        stream.write(b"this is not json\n")
        stream.flush()
        response = json.loads(stream.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == E_BAD_JSON

        # The connection survives the rejection.
        stream.write(b'{"op":"ping"}\n')
        stream.flush()
        assert json.loads(stream.readline())["ok"] is True

    with pytest.raises(ServeError) as caught:
        client._request({"op": "transmogrify"})
    assert caught.value.code == E_UNKNOWN_OP

    with pytest.raises(ServeError) as caught:
        client._request({"no": "op"})
    assert caught.value.code == E_BAD_REQUEST

    with pytest.raises(ServeError) as caught:
        client.sweep_payload({"version": 99, "observable": "period"})
    assert caught.value.code == E_VERSION

    bad_spec = small_sweep().to_dict()
    bad_spec["observable"] = "resistance"
    with pytest.raises(ServeError) as caught:
        client.sweep_payload(bad_spec)
    assert caught.value.code == E_BAD_SPEC

    # After all the rejections the connection still answers.
    assert client.ping()["ok"] is True


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("axes", 0, "stages", 0), 1e30, "configuration"),
        (("axes", 0, "labels"), 7, "configuration"),
        (("axes", 0, "stages"), 7, "configuration"),
        (("axes", 1, "coordinates"), "abc", "temperature"),
        (("axes", 1, "coordinates"), 5, "temperature"),
        (("base", "wire_length_um"), "x", "base"),
        (("base", "configuration"), 5, "base configuration"),
    ],
)
def test_malformed_spec_field_is_a_bad_spec(client, path, value, named):
    spec = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(["5INV", "3NAND2"]))
        .over(Axis.temperature(TEMPS))
        .to_dict()
    )
    parent = functools.reduce(operator.getitem, path[:-1], spec)
    parent[path[-1]] = value
    with pytest.raises(SweepError, match=named):
        Sweep.from_dict(spec)
    with pytest.raises(ServeError, match=named) as caught:
        client.sweep_payload(spec)
    assert caught.value.code == E_BAD_SPEC


def test_unknown_cell_is_a_bad_spec(client):
    spec = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(["5INV", "3NAND2"]))
        .over(Axis.temperature(TEMPS))
        .to_dict()
    )
    spec["axes"][0]["stages"][0][0] = "XOR9"
    with pytest.raises(ServeError, match=r"configuration '5INV' .*'XOR9'") as caught:
        client.sweep_payload(spec)
    assert caught.value.code == E_BAD_SPEC
    with pytest.raises(ServeError, match="'XOR9'") as caught:
        client.point_payload(Sweep(technology=CMOS035, configuration="XOR9+4INV"), 25.0)
    assert caught.value.code == E_BAD_SPEC


def test_overflowing_period_is_a_bad_spec_not_infinity(client):
    # A 1e308 F tap load overflows the period to inf; the engine refuses
    # it before any observable, so the server answers bad-spec instead
    # of sending the non-standard JSON token Infinity.
    def overloaded():
        return Sweep(
            technology=CMOS035, configuration="5INV", external_load_f=1e308, tap_stage=0
        )

    # The overflow is refused, not also warned about: with warnings as
    # errors the requests still get bad-spec and nothing is emitted.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ServeError, match="external_load_f") as caught:
            client.sweep_payload(overloaded().over(Axis.temperature(TEMPS)))
        assert caught.value.code == E_BAD_SPEC
        with pytest.raises(ServeError, match="external_load_f") as caught:
            client.point_payload(overloaded(), 25.0)
        assert caught.value.code == E_BAD_SPEC


def test_non_finite_result_fails_before_the_cache_and_the_wire():
    handle = start_server_thread(batch_window_ms=0.0)
    original = SweepServer._evaluate_payload

    async def nan_valued(payload):
        result = await original(handle.server, payload)
        return dataclasses.replace(result, values=np.full(result.shape, np.nan))

    handle.server._evaluate_payload = nan_valued
    try:
        request = {"op": "sweep", "id": 1, "spec": small_sweep().to_dict()}
        with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as raw:
            stream = raw.makefile("rwb")
            stream.write(json.dumps(request).encode("utf-8") + b"\n")
            stream.flush()
            line = stream.readline()
        assert b"NaN" not in line
        response = json.loads(line)
        assert response["ok"] is False
        assert response["error"]["code"] == E_INTERNAL
        assert handle.server.cache.stats()["entries"] == 0
    finally:
        handle.stop()


def test_server_ignores_the_environment(monkeypatch):
    # Settings are constructor arguments and repro-serve flags only; a
    # deployment's leftover variables must not reach an embedded server.
    monkeypatch.setenv("REPRO_SERVE_WORKERS", "abc")
    monkeypatch.setenv("REPRO_SERVE_PORT", "1")
    server = SweepServer()
    assert server.workers == DEFAULT_WORKERS
    assert server.port == DEFAULT_PORT


def test_disagreeing_registries_fail_with_tech_mismatch(server, client):
    # A client whose registry binds "cmos035" to *different physics*
    # serializes the same name under a different digest.  Simulate it by
    # re-registering the name, serializing, then restoring the original
    # binding before the server (same process, same registry) reads the
    # spec: the digests disagree, and the server must refuse rather
    # than silently evaluate ITS idea of cmos035.
    variant = CMOS035.with_supply(3.0)
    register_technology(variant, overwrite=True)
    try:
        foreign = (
            Sweep(technology=variant, configuration="5INV")
            .over(Axis.temperature(TEMPS))
            .to_dict()
        )
    finally:
        register_technology(CMOS035, overwrite=True)
    reference = foreign["base"]["technology"]
    assert reference["name"] == "cmos035"
    assert "parameters" not in reference  # a bare name+digest reference

    with pytest.raises(ServeError, match="disagree") as caught:
        client.sweep_payload(foreign)
    assert caught.value.code == E_TECH_MISMATCH
    assert server.server.evaluations == 0  # refused before evaluation

    # The connection survives, and the honest spec still evaluates.
    assert client.ping()["ok"] is True
    assert client.sweep_payload(small_sweep()) == small_sweep().run().to_dict()


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #


def test_shutdown_op_stops_the_server_cleanly():
    handle = start_server_thread()
    with ServeClient("127.0.0.1", handle.port) as remote:
        assert remote.ping()["version"] == Sweep.SCHEMA_VERSION
        remote.shutdown()
    handle.thread.join(timeout=10)
    assert not handle.thread.is_alive()
    # The port is released: a fresh connection is refused.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", handle.port), timeout=2)
