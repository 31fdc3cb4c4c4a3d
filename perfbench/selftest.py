#!/usr/bin/env python3
"""Self-tests of the benchmark.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  They check that the
metric and workload names the benchmark prints match ``BENCHMARK.json``
exactly, that every metric carries a unit and is its raw value scaled by
the run's host-speed factor when it is host-scaled, that a served
result with one value broken fails its check, that a run refuses to
start without the program's sources, and that a short pass of
every workload completes untraced, and of one traced (the traced part is
the same layer suite on every workload).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import fig3_sweep, layers  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.common import (  # noqa: E402
    RATE_UNITS,
    ROOT,
    SPEC_PATH,
    TIME_UNITS,
    check_checkout,
    load_spec,
)

SHORT_SECONDS = 2
TRACED_WORKLOAD = "fig3-sweep"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            str(SHORT_SECONDS),
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


class SpecTest(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = load_spec()

    def test_workload_names_match(self) -> None:
        declared = [workload["name"] for workload in self.spec["workloads"]]
        self.assertEqual(sorted(declared), sorted(bench.WORKLOADS))

    def test_metric_names_match(self) -> None:
        for section, emitted in (
            ("end_to_end", bench.END_TO_END),
            ("per_layer", layers.PER_LAYER),
        ):
            declared = [metric["name"] for metric in self.spec[section]]
            self.assertEqual(len(declared), len(set(declared)), section)
            self.assertEqual(len(emitted), len(set(emitted)), section)
            self.assertEqual(set(declared), set(emitted), section)

    def test_every_metric_has_a_unit(self) -> None:
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(metric["unit"], metric["name"])
            self.assertIn(metric["better"], ("higher", "lower"), metric["name"])

    def test_setup_bound_is_the_largest(self) -> None:
        bounds = {metric["name"]: metric["bound"] for metric in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class OutputCheckTest(unittest.TestCase):
    def test_fig3_result_with_one_nan_fails(self) -> None:
        check_checkout()
        import numpy as np

        fig3 = fig3_sweep.Fig3(seed=3)
        result = fig3.sweep(*fig3.inputs()).run()
        self.assertTrue(fig3.valid(result))
        values = np.array(result.values)
        self.assertFalse(fig3.valid(mock.Mock(dims=result.dims, values=values[:, :-1])))
        values[2, 10, 5] = np.nan
        self.assertFalse(fig3.valid(mock.Mock(dims=result.dims, values=values)))


class RefusalTest(unittest.TestCase):
    def test_refuses_without_program_sources(self) -> None:
        with tempfile.TemporaryDirectory() as scratch:
            bare = Path(scratch)
            shutil.copy(SPEC_PATH, bare / SPEC_PATH.name)
            shutil.copytree(
                ROOT / "perfbench",
                bare / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = _run("fig3-sweep", 0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


class ShortPassTest(unittest.TestCase):
    def test_every_workload_completes(self) -> None:
        spec = load_spec()
        units = {
            0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
            1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
        }
        passes = [(workload, 0) for workload in bench.WORKLOADS] + [(TRACED_WORKLOAD, 1)]
        for workload, trace in passes:
            with self.subTest(workload=workload, trace=trace):
                done = _run(workload, trace)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                record = json.loads(lines[-2])["record"]
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], result)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(units[trace]))
                factor = record["host_speed"]["factor"]
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[trace][name])
                    sample = record["samples"][name]
                    raw = sample["raw"]
                    if sample["host_scaled"] and metric["unit"] in TIME_UNITS:
                        raw *= factor
                    elif sample["host_scaled"] and metric["unit"] in RATE_UNITS:
                        raw /= factor
                    self.assertAlmostEqual(metric["value"], raw, delta=1e-9 * abs(raw))
                self.assertEqual(record["workload"], workload)
                self.assertGreaterEqual(record["host"]["usable_cores"], 1)


if __name__ == "__main__":
    unittest.main()
