"""End-to-end service smoke: one server, one client, one round trip.

``python -m repro.serve.smoke`` is the CI fast-lane's service check: it
starts a real :class:`~repro.serve.server.SweepServer` on an ephemeral
port (in-process, on a daemon thread), drives it with the synchronous
client, and asserts the service contract end to end —

* a served sweep is byte-identical (post ``to_dict``) to the same
  sweep evaluated locally,
* the repeat request is answered from the cache with zero new engine
  evaluations,
* a point query agrees with the sweep's slice, and its repeat is a
  cache hit with zero new evaluations,
* ``shutdown`` stops the server cleanly,
* and, with ``--cache-dir DIR``, a **restarted** server on the same
  cache directory serves the repeat from disk with zero evaluations —
  the warm-restart contract.

``--workers N`` gives both servers N evaluation slots, so the CI lane
also runs ``--workers 2 --cache-dir DIR`` to cover the multi-worker
scheduler path.  Exit code 0 means the service path works
on this interpreter; any assertion or hang (the thread join is
bounded) fails the step.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..engine.sweep import Axis, Sweep
from ..fields import flag, integer
from ..oscillator import RingConfiguration
from ..tech import CMOS035
from .client import ServeClient
from .server import DEFAULT_WORKERS, start_server_thread

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve.smoke")
    parser.add_argument(
        "--workers", type=flag(integer, "workers", at_least=1), default=DEFAULT_WORKERS
    )
    parser.add_argument(
        "--cache-dir", default=None, help="also check a warm restart from this cache"
    )
    args = parser.parse_args(argv)
    options = {"port": 0, "workers": args.workers, "cache_dir": args.cache_dir}
    sweep = (
        Sweep(technology=CMOS035, configuration=RingConfiguration.parse("5INV"))
        .over(Axis.temperature([-40.0, 25.0, 125.0]))
        .observe("period")
    )
    local = sweep.run().to_dict()

    handle = start_server_thread(**options)
    try:
        with ServeClient("127.0.0.1", handle.port) as client:
            pong = client.ping()
            assert pong["version"] == Sweep.SCHEMA_VERSION, pong

            served = client.sweep_payload(sweep)
            assert served == local, "served result differs from local evaluation"

            before = client.stats()["evaluations"]
            repeat = client.sweep_payload(sweep)
            after = client.stats()
            assert repeat == local, "cached result differs from local evaluation"
            assert after["evaluations"] == before, (
                f"repeat request re-evaluated: {before} -> {after['evaluations']}"
            )
            assert after["cache"]["hits"] >= 1, after["cache"]

            base = Sweep(
                technology=CMOS035, configuration=RingConfiguration.parse("5INV")
            ).observe("period")
            point = client.point(base, 25.0)
            assert point.select(temperature=25.0).item() == (
                sweep.run().select(temperature=25.0).item()
            ), "point query disagrees with the sweep slice"
            before = client.stats()["evaluations"]
            request = {"op": "point", "spec": base.to_dict(), "temperature_c": 25.0}
            assert client._request(request)["cached"] is True, "point repeat missed"
            assert client.stats()["evaluations"] == before, "point repeat re-evaluated"

            client.shutdown()
    finally:
        handle.stop()
    alive = handle.thread is not None and handle.thread.is_alive()
    assert not alive, "server thread survived shutdown"

    checks = "round trip, cache hit, point query, point cache hit, shutdown"
    if args.cache_dir:
        # Warm restart: a fresh server process state over the same disk
        # cache must serve the repeat without a single evaluation.
        restarted = start_server_thread(**options)
        try:
            with ServeClient("127.0.0.1", restarted.port) as client:
                warm = client.sweep_payload(sweep)
                assert warm == local, "disk-cached result differs from local"
                stats = client.stats()
                assert stats["evaluations"] == 0, (
                    f"warm restart re-evaluated: {stats['evaluations']}"
                )
                assert stats["cache"]["disk"]["hits"] >= 1, stats["cache"]
                client.shutdown()
        finally:
            restarted.stop()
        checks += ", warm restart from disk"
    print(f"repro.serve smoke: ok ({checks})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
