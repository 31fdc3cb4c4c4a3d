#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig3-sweep --seed 1 --seconds 15 --trace 0

Workloads: ``fig3-sweep`` and ``dtm-256`` (see ``BENCHMARK.json`` for
why each exists).  Each sets up, then runs its
op in a closed loop for ``--seconds``.  With ``--trace 0`` the run
reports the end-to-end metrics of that workload: its set-up time
``setup_s`` and its median op time ``op_ms_p50``.  With
``--trace 1`` it runs the same loop and then reports every per-layer
metric, timed by calling each layer's public functions from outside (see
``layers``).

Standard output ends with two JSON lines: a record (host fingerprint,
host-speed factor, sample counts, tail percentiles and raw values) and
the result ``{"correct", "attempted", "failed",
"metrics"}``.  Times are reported scaled to the nominal host speed (see
``common.HostSpeed``).  The exit code is 0 when a result was printed and
non-zero when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import dtm, fig3_sweep, layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    BenchmarkError,
    Report,
    check_checkout,
    load_spec,
    render,
)

WORKLOADS = {
    "fig3-sweep": fig3_sweep,
    "dtm-256": dtm,
}
END_TO_END = ("setup_s", "op_ms_p50")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    """One run of ``workload``: its end-to-end or its per-layer metrics."""
    report = Report()
    # This process and every process it starts run on one core, the same
    # every run, where the host-speed kernel samples too: the cores of a
    # shared host run at different speeds from minute to minute.
    os.sched_setaffinity(0, {report.cores[0]})
    setup_s, ops = WORKLOADS[workload].run(seed, seconds, report)
    if not ops:
        raise BenchmarkError(f"{workload} completed no op in {seconds} s")
    if trace:
        report.note_p50("op_ms", ops, scale=1e3)
        layers.measure(seed, report)
    else:
        report.set("setup_s", setup_s)
        report.p50("op_ms_p50", ops, scale=1e3)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    trace = bool(args.trace)
    try:
        check_checkout()
        spec = load_spec()
        report = measure(args.workload, args.seed, args.seconds, trace)
        lines = render(spec, args.workload, report, args.seed, args.seconds, trace)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
