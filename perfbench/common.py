"""Shared pieces of the benchmark: paths, statistics, host speed, reports.

Nothing here imports numpy or the program at module level: a workload
imports them itself, once the sources are on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Percentiles tried, highest first, when recording the tail beside a median.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a reported percentile needs beyond it.
TAIL_MIN_BEYOND = 10
#: Imports the modules named in argv, in order, and prints the seconds taken.
IMPORT_PROBE = (
    "import importlib, sys, time; start = time.perf_counter(); "
    "[importlib.import_module(name) for name in sys.argv[1:]]; "
    "print(time.perf_counter() - start)"
)
IMPORT_TIMEOUT_S = 60.0
#: Units of reported times and of reported rates: the ones host speed scales.
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("1/s",)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run, or produced no usable measurement."""


def check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}; run from a full checkout")
    if not SPEC_PATH.is_file():
        raise BenchmarkError(f"{SPEC_PATH.name} is missing from {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """The environment for a fresh program process (sources on the path)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def import_seconds(modules: Sequence[str]) -> float:
    """Import time of ``modules`` in a fresh interpreter (seconds, one sample).

    The import alone is timed, inside the child, so interpreter start-up
    is excluded.
    """
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *modules],
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=IMPORT_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"importing {list(modules)} failed: {done.stderr[-1000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def usable_core_ids() -> List[int]:
    """The cores this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def deadline_after(seconds: float) -> float:
    return time.perf_counter() + float(seconds)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it, or None."""
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return {"percentile": q, "value": percentile(values, q)}
    return None


# --------------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------------- #


class HostSpeed:
    """How fast this host runs a fixed kernel now, against a nominal speed.

    On the 2-vCPU host the benchmark was built on, the same single-threaded
    op took anywhere from 16 to 39 ms depending on the minute, with CPU time
    equal to wall time (the CPU itself ran slower; nothing was descheduled),
    while its ratio to this kernel's time stayed within a few percent.  So
    every workload samples the kernel after each op, on the thread that runs
    the ops, and each reported time is scaled by ``NOMINAL_S`` over the
    kernel's median time in the run (rates by the inverse): it reads as the
    time at the nominal host speed.  A run pins itself and the processes it
    starts to one core, so the kernel times the core that did the work.  The
    record line keeps the raw values and the factor.  The kernel is numpy
    elementwise math plus pure-Python dict work, and touches no program code.
    """

    #: The kernel's median time on the 2-vCPU Xeon host at its fastest.
    NOMINAL_S = 0.75e-3
    FLOATS = 50_000
    ITEMS = 5_000

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._floats = np.linspace(1.0, 2.0, self.FLOATS)
        self.samples: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self._np.exp(self._np.log(self._floats)).sum()
        table = {item: item * item for item in range(self.ITEMS)}
        sum(table[item] for item in range(0, self.ITEMS, 3))
        self.samples.append(time.perf_counter() - start)

    @property
    def factor(self) -> float:
        """Nominal over current speed: above 1 on a host running faster."""
        return self.NOMINAL_S / median(self.samples)

    def scaled(self, value: float, unit: str) -> float:
        """A raw measurement expressed at the nominal host speed."""
        if unit in TIME_UNITS:
            return value * self.factor
        if unit in RATE_UNITS:
            return value / self.factor
        return value


# --------------------------------------------------------------------------- #
# one workload's measurements
# --------------------------------------------------------------------------- #


class Measured(NamedTuple):
    """A workload run's set-up seconds and the seconds of each timed op."""

    setup_s: float
    op_seconds: List[float]


@dataclass
class Report:
    """What one workload run measured: op counts plus named metric values.

    ``values`` are raw; the result line scales each by the host-speed
    factor, except those named in ``unscaled``.  ``notes`` go to the
    record line only.
    """

    attempted: int = 0
    failed: int = 0
    values: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: The cores the run may use, before it pins itself to the first.
    cores: List[int] = field(default_factory=usable_core_ids)
    #: Present when the workload's times are scaled to the nominal host speed.
    speed: Optional[HostSpeed] = None
    unscaled: set = field(default_factory=set)
    notes: Dict[str, Any] = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def fail(self, count: int = 1) -> None:
        """A check over many ops failed: count it as failed ops."""
        self.attempted += count
        self.failed += count

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def p50(self, name: str, samples: Sequence[float], scale: float = 1.0) -> float:
        """Record the median of ``samples`` (times ``scale``) with its tail."""
        value, self.details[name] = summarize(name, samples, scale)
        self.values[name] = value
        return value

    def note_p50(self, name: str, samples: Sequence[float], scale: float = 1.0) -> None:
        """Like ``p50``, but raw and for the record line only."""
        value, detail = summarize(name, samples, scale)
        self.notes[name] = dict(detail, p50=value)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def summarize(name: str, samples: Sequence[float], scale: float):
    """(median x scale, {count, highest supported percentile x scale})."""
    if not samples:
        raise BenchmarkError(f"{name}: no samples were measured")
    detail: Dict[str, Any] = {"count": len(samples)}
    high = tail(samples)
    if high is not None:
        detail[f"p{high['percentile']:g}"] = high["value"] * scale
    return median(samples) * scale, detail


# --------------------------------------------------------------------------- #
# the record printed beside every result
# --------------------------------------------------------------------------- #


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's Python sources: identifies the code measured."""
    digest = hashlib.sha256()
    package = SRC / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(report: Report) -> Dict[str, Any]:
    """Host, toolchain and code identity of one record."""
    versions: Dict[str, Optional[str]] = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = None
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(report.cores),
        # Every workload runs its ops from one thread of this process.
        "client_threads": 1,
        "client_connections": 0,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": source_digest(),
    }


def metric_units(spec: Dict[str, Any], trace: bool) -> Dict[str, str]:
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def render(
    spec: Dict[str, Any],
    workload: str,
    report: Report,
    seed: int,
    seconds: int,
    trace: bool,
) -> List[str]:
    """The record line and the result line (last) of one run.

    The result carries every metric of the spec's section for ``trace``,
    at the nominal host speed; the record keeps each raw value beside it.
    """
    units = metric_units(spec, trace)
    names = list(units)
    if set(report.values) != set(names):
        raise BenchmarkError(
            f"{workload} measured {sorted(report.values)}, expected {sorted(names)}"
        )
    speed = report.speed
    if speed is not None and not speed.samples:
        raise BenchmarkError(f"{workload} never sampled the host speed")
    for name in names:
        if not math.isfinite(report.values[name]):
            raise BenchmarkError(f"{name} is not finite: {report.values[name]}")
    metrics = {
        name: {
            "value": (
                report.values[name]
                if speed is None or name in report.unscaled
                else speed.scaled(report.values[name], units[name])
            ),
            "unit": units[name],
        }
        for name in names
    }
    record = {
        "record": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "host": fingerprint(report),
            "host_speed": None
            if speed is None
            else {
                "factor": speed.factor,
                "kernel_s_p50": median(speed.samples),
                "kernel_samples": len(speed.samples),
            },
            "samples": {
                name: dict(
                    report.details.get(name, {}),
                    raw=report.values[name],
                    unit=units[name],
                    host_scaled=speed is not None and name not in report.unscaled,
                )
                for name in names
            },
            "notes": report.notes,
        }
    }
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    return [json.dumps(record, sort_keys=True), json.dumps(result)]
