"""Per-layer metrics: each layer's public calls, timed from outside the program.

A traced run (``--trace 1``) runs its workload's timed loop exactly as an
untraced run does, then this suite.  The result line of every run must
carry every per-layer metric, so every traced run times every layer, by
the same probes, on inputs drawn from the run's seed with the workloads'
own generators:

* ``oscillator`` and ``engine`` on Fig. 3 inputs (6 x 1000 x 41):
  ``Sweep.plan``, ``SweepPlan.execute`` and a replay of
  ``ConfigurationBank.period_tensor``;
* ``engine`` and ``serve`` on served-size 6 x 2000 sweep requests: each
  layer on a request's server path (``from_dict``, ``canonical_spec``,
  the key, ``Sweep.run``, ``select``, ``to_dict``, ``encode_line``,
  ``decode_line``), replayed in this process (see ``served``);
* ``thermal`` and ``core`` on the 256 x 256 DTM die: operator set-up,
  ``ThermalStepper.step`` on one state and on a 4-column stack,
  ``SensorBank.scan`` and the rest of a ``run`` control step;
* ``import`` (each module alone in a fresh interpreter; raw times, not
  scaled by host speed) and ``experiments`` (``run_fig3`` warm).

No span sits inside a timed op, so tracing adds nothing to the op times.
"""

from __future__ import annotations

import collections
import subprocess
import sys
import time
from typing import Dict, List

from . import dtm, fig3_sweep, served
from .common import ROOT, Report, import_seconds, median, program_env

PER_LAYER = (
    "oscillator.period_tensor_ms",
    "oscillator.elements_per_s",
    "engine.plan_ms",
    "engine.execute_ms",
    "engine.observable_ms",
    "engine.from_dict_ms",
    "engine.run_miss_ms",
    "engine.run_nonlinearity_ms",
    "engine.select_ms",
    "engine.result_to_dict_ms",
    "serve.canonical_spec_ms",
    "serve.canonical_key_ms",
    "serve.encode_ms",
    "serve.decode_ms",
    "thermal.operator_setup_s",
    "thermal.step_ms",
    "thermal.block_step_ms",
    "core.scan_ms",
    "core.loop_overhead_ms",
    "import.interpreter_s",
    "import.numpy_s",
    "import.scipy_sparse_linalg_s",
    "import.repro_engine_s",
    "import.repro_thermal_s",
    "import.repro_serve_s",
    "import.repro_experiments_s",
    "experiments.fig3_warm_s",
)

#: Timed repetitions of every probe, after one warm-up round whose samples
#: go to a throwaway sink.
ROUNDS = 3
#: Modules timed, each alone in a fresh interpreter.
IMPORT_PROBES = {
    "import.numpy_s": "numpy",
    "import.scipy_sparse_linalg_s": "scipy.sparse.linalg",
    "import.repro_engine_s": "repro.engine",
    "import.repro_thermal_s": "repro.thermal",
    "import.repro_serve_s": "repro.serve",
    "import.repro_experiments_s": "repro.experiments",
}

Layers = Dict[str, List[float]]


def _timed(samples: List[float], function, *args, **kwargs):
    start = time.perf_counter()
    value = function(*args, **kwargs)
    samples.append(time.perf_counter() - start)
    return value


def measure(seed: int, report: Report) -> None:
    """Time every layer and set every per-layer metric on ``report``."""
    layers: Layers = collections.defaultdict(list)
    elements = _oscillator_and_engine(seed, report, layers)
    _serve_path(seed, report, layers)
    step_s = _thermal_and_core(seed, report, layers)
    _experiments(report, layers)
    for name, samples in layers.items():
        report.p50(name, samples, scale=1e3 if name.endswith("_ms") else 1.0)
    ms = report.values
    report.set("oscillator.elements_per_s", elements / (ms["oscillator.period_tensor_ms"] / 1e3))
    report.set("engine.observable_ms", ms["engine.execute_ms"] - ms["oscillator.period_tensor_ms"])
    report.set(
        "core.loop_overhead_ms", step_s * 1e3 - ms["thermal.step_ms"] - ms["core.scan_ms"]
    )
    _imports(report)


def _oscillator_and_engine(seed: int, report: Report, layers: Layers) -> int:
    """Fig. 3 sweeps split into plan and execute; returns the elements per sweep."""
    fig3 = fig3_sweep.Fig3(seed)
    for round_ in range(ROUNDS + 1):
        sink = layers if round_ else collections.defaultdict(list)
        population, grid = fig3.inputs()
        sweep = fig3.sweep(population, grid)
        plan = _timed(sink["engine.plan_ms"], sweep.plan)
        result = _timed(sink["engine.execute_ms"], plan.execute)
        report.op(fig3.valid(result))
        _timed(
            sink["oscillator.period_tensor_ms"],
            fig3.bank.period_tensor,
            grid,
            technologies=population,
        )
        report.speed.sample()
    return fig3.shape[0] * fig3.shape[1] * fig3.shape[2]


def _serve_path(seed: int, report: Report, layers: Layers) -> None:
    """Each class's server path, replayed locally on served-size requests."""
    requests = served.Requests(seed)
    for round_ in range(ROUNDS + 1):
        sink = layers if round_ else collections.defaultdict(list)
        for kind in served.CLASSES:
            spec, grid = requests.request(kind)
            payload = requests.payload(spec)
            report.op(requests.shape_ok(spec, payload))
            requests.replay(kind, spec, grid, payload, sink)
        report.speed.sample()


def _thermal_and_core(seed: int, report: Report, layers: Layers) -> float:
    """Thermal and sensor layers; returns the median ``run`` seconds per step."""
    die = dtm.Dtm(seed)
    steps = []
    for round_ in range(ROUNDS + 1):
        sink = layers if round_ else collections.defaultdict(list)
        sink["thermal.operator_setup_s"].append(die.build())
        scale = die.scale()
        elapsed, count, ok = die.single(scale)
        report.op(ok)
        if round_:
            steps.append(elapsed / count)
        die.replay(scale, sink)
        report.speed.sample()
    return median(steps)


def _experiments(report: Report, layers: Layers) -> None:
    from repro import CMOS035, PAPER_FIG3_CONFIGURATIONS
    from repro.experiments import run_fig3

    for round_ in range(ROUNDS + 1):
        sink = layers if round_ else collections.defaultdict(list)
        table = _timed(sink["experiments.fig3_warm_s"], lambda: run_fig3(CMOS035).format_table())
        report.op(all(label in table for label in PAPER_FIG3_CONFIGURATIONS))
        report.speed.sample()


def _imports(report: Report) -> None:
    """Fresh-interpreter times; subprocess work, so reported raw."""
    samples: Layers = collections.defaultdict(list)
    for _ in range(ROUNDS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", "pass"], cwd=ROOT, env=program_env(), timeout=60.0
        )
        samples["import.interpreter_s"].append(time.perf_counter() - start)
        report.op(done.returncode == 0)
        for name, module in IMPORT_PROBES.items():
            samples[name].append(import_seconds((module,)))
    for name, values in samples.items():
        report.p50(name, values)
        report.unscaled.add(name)
