#!/usr/bin/env python3
"""The sweep engine as a persistent service: cache hits and micro-batching.

A thermal-characterisation campaign asks the same sweeps over and over —
the same Fig. 3 configuration grid from several analysis scripts, the
same operating point from many monitor processes.  ``repro.serve`` keeps
one evaluator warm behind a TCP socket so that repeated work is answered
from a content-addressed cache and concurrent point queries coalesce
into one broadcast evaluation.

This example

1. starts a :class:`~repro.serve.server.SweepServer` in a background
   thread on an ephemeral port (exactly what ``repro-serve`` /
   ``python -m repro.serve`` runs as a standalone process),
2. submits a configuration-grid sweep through the blocking
   :class:`~repro.serve.client.ServeClient` and verifies the served
   payload is byte-identical to evaluating the same ``Sweep`` locally,
3. repeats the request — respelled with integer coordinates, as a
   remote JSON caller would — and shows it costs **zero** new engine
   evaluations because both spellings collide on one canonical key,
4. fires 8 concurrent point queries (same base spec, different
   temperatures) from 8 threads and shows the micro-batcher folds them
   into **one** broadcast evaluation,
5. prints the server's cache / batcher statistics, and
6. **restarts** the server over a persistent disk cache directory
   (``cache_dir`` / ``--cache-dir``) and shows the freshly
   started server answers the repeat sweep from disk with **zero**
   evaluations — the warm-restart contract a long campaign relies on.

Run with:  python examples/sweep_service.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import time

import numpy as np

from repro import Axis, CMOS035, PAPER_FIG3_CONFIGURATIONS, Sweep
from repro.serve import ServeClient, canonical_key, start_server_thread


def main() -> None:
    sweep = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
        .over(Axis.temperature(np.linspace(-40.0, 125.0, 12)))
        .observe("period")
    )

    cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
    handle = start_server_thread(batch_window_ms=25.0, cache_dir=cache_dir)
    try:
        print(f"Server        : 127.0.0.1:{handle.port} (ephemeral, in-process)")

        # -- 1+2: round trip -------------------------------------------------
        with ServeClient("127.0.0.1", handle.port) as client:
            start = time.perf_counter()
            served = client.sweep_payload(sweep)
            first_ms = (time.perf_counter() - start) * 1e3
            local = sweep.run().to_dict()
            print(f"First request : {first_ms:7.1f} ms  (evaluated on the server)")
            print(f"Byte-identical: {served == local}")

            # -- 3: respelled repeat hits the cache --------------------------
            respelled = json.loads(json.dumps(sweep.to_dict()))
            for axis in respelled["axes"]:
                if axis["name"] == "temperature":
                    axis["coordinates"] = [round(c, 6) for c in axis["coordinates"]]
            assert canonical_key(respelled) == canonical_key(sweep)
            before = handle.server.evaluations
            start = time.perf_counter()
            again = client.sweep_payload(respelled)
            repeat_ms = (time.perf_counter() - start) * 1e3
            print(
                f"Repeat request: {repeat_ms:7.1f} ms  "
                f"({handle.server.evaluations - before} new evaluations, "
                f"payload equal: {again == served})"
            )

        # -- 4: concurrent point queries micro-batch -------------------------
        base = Sweep(technology=CMOS035, configuration="2INV+3NAND2").to_dict()
        temps = [float(t) for t in np.linspace(-40.0, 125.0, 8)]
        results = [None] * len(temps)
        barrier = threading.Barrier(len(temps))
        before = handle.server.evaluations

        def worker(slot: int) -> None:
            with ServeClient("127.0.0.1", handle.port) as remote:
                barrier.wait()
                results[slot] = remote.point(base, temps[slot])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(temps))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batch_ms = (time.perf_counter() - start) * 1e3

        periods_ns = [result.item() * 1e9 for result in results]
        print(
            f"Point queries : {len(temps)} concurrent clients in {batch_ms:6.1f} ms, "
            f"{handle.server.evaluations - before} broadcast evaluation(s)"
        )
        print(
            "                periods "
            f"{min(periods_ns):.2f}..{max(periods_ns):.2f} ns over "
            f"{temps[0]:.0f}..{temps[-1]:.0f} degC"
        )

        # -- 5: statistics ---------------------------------------------------
        stats = handle.server.stats()
        cache, batcher = stats["cache"], stats["batcher"]
        print(
            f"Cache         : {cache['hits']} hits / {cache['misses']} misses, "
            f"{cache['entries']} entries, {cache['bytes']} bytes"
        )
        print(
            f"Batcher       : {batcher['batches']} batch(es), "
            f"largest {batcher['largest_batch']} points"
        )
        print(f"Evaluations   : {stats['evaluations']} total for all of the above")
    finally:
        handle.stop()

    # -- 6: warm restart from the disk cache ---------------------------------
    # The server process is gone; its results are not.  A fresh server
    # over the same cache directory serves the repeat without a single
    # engine evaluation — what a multi-day campaign (or a second host
    # sharing the directory) relies on.
    restarted = start_server_thread(batch_window_ms=25.0, cache_dir=cache_dir)
    try:
        with ServeClient("127.0.0.1", restarted.port) as client:
            start = time.perf_counter()
            warm = client.sweep_payload(sweep)
            warm_ms = (time.perf_counter() - start) * 1e3
            disk = client.stats()["cache"]["disk"]
        print(
            f"Warm restart  : {warm_ms:7.1f} ms  "
            f"({restarted.server.evaluations} evaluations on the new server, "
            f"{disk['hits']} disk hit(s), payload equal: "
            f"{warm == sweep.run().to_dict()})"
        )
    finally:
        restarted.stop()


if __name__ == "__main__":
    main()
