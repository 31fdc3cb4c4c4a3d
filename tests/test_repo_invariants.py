"""The CI fast lane's structural greps, enforced by a local tier-1 run too.

Each row is one ``! grep`` step of ``.github/workflows/ci.yml``: a
pattern that must not appear in the package's Python sources (outside
the listed exemptions).  A second test keeps the table and the CI file
in step, so neither can drift from the other.

A third test is the consumer audit: every function, class and method
the package defines must be used by the package itself, an example, the
repository benchmark or the engine benchmarks.  What only the tests use
belongs in the tests (``tests/oracles.py`` holds the references).

A fourth test audits knobs the same way: every keyword parameter of the
service's and the sweep's entry points must be set by something CI runs
outside the tests, or be a deployment resource limit on ``KNOB_KEEP``.

A fifth scans the package for unused imports: every name an import
binds must be read in its module, listed in its ``__all__`` or named in
a string annotation.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (CI step name, extended regex, searched paths, exempt path suffixes)
INVARIANTS = [
    ("No reference loops in the package", r"def [a-z_]+_loop\(", ("src/repro",), ()),
    (
        "One sensor-scan path",
        r"SensorMultiplexer|ScanResult|SmartSensorRegisters",
        ("src/repro",),
        (),
    ),
    (
        "One readout path",
        r"BankCalibration|ReferenceCounter|CountReading|def convert\(|def code_to_period\(",
        ("src/repro",),
        (),
    ),
    ("No cell power model", r"CellPowerModel|GatePower|cells\.power", ("src/repro",), ()),
    (
        "One served-result line",
        r"plan_result_tiles|stream_threshold|STREAM_THRESHOLD|_read_stream|tile_count",
        ("src/repro",),
        (),
    ),
    (
        "Tiles travel as sub-plans",
        r"shared_memory|SharedMemory|resource_tracker|_SharedPopulation|def sample_technologies\(",
        ("src/repro",),
        (),
    ),
    (
        "One thermal solve",
        r"factorized|SOLVE_METHODS|spectral_threshold|solve_method",
        ("src/repro",),
        (),
    ),
    (
        "No sparse matrices in the package",
        r"scipy\.sparse|from scipy import sparse|conductance_matrix|capacitance_vector"
        r"|solve_transient|TransientThermalResult",
        ("src/repro",),
        (),
    ),
    (
        "Column-major thermal stacks",
        r"axes=\(0, 1\)|power\.sum\(axis=0\)",
        ("src/repro/thermal", "src/repro/core"),
        (),
    ),
    (
        "One field checker",
        r"def _positive_finite|def _resolution\(|def _as_float|validate_operating_point"
        r"|device_at_celsius",
        ("src/repro",),
        (),
    ),
    (
        "One front door per job",
        r"def (mobility|threshold_voltage|saturation_velocity|alpha)_at\(|def gate_delay\("
        r"|fit_polynomial_calibration|PolynomialCalibration|calibrate_one_point"
        r"|def simulated_response\(",
        ("src/repro",),
        (),
    ),
    (
        "One ring-period kernel",
        r"_PeriodPlan|_period_plan|def stage_delay_sum",
        ("src/repro",),
        (),
    ),
    (
        "One sweep lowering",
        r"_single_ring_tensor|_vdd2_switched_cap|def switched_capacitance",
        ("src/repro",),
        (),
    ),
    (
        "One FIFO evaluation queue",
        r"priority|deadline_ms|E_DEADLINE|deadline-expired|PriorityQueue",
        ("src/repro",),
        (),
    ),
    (
        "One reader of the environment",
        r"os\.environ",
        ("src/repro",),
        ("engine/executors.py", "experiments/runner.py"),
    ),
]


@pytest.mark.parametrize(
    "pattern, paths, exempt",
    [row[1:] for row in INVARIANTS],
    ids=[row[0] for row in INVARIANTS],
)
def test_pattern_absent_from_the_package(pattern, paths, exempt):
    regex = re.compile(pattern)
    hits = [
        f"{source.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in paths
        for source in sorted((ROOT / path).rglob("*.py"))
        if not source.as_posix().endswith(exempt or ("\0",))
        for number, line in enumerate(source.read_text().splitlines(), 1)
        if regex.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_table_matches_the_ci_fast_lane():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = re.findall(
        r"- name: (.+)\n(?:\s+#.*\n)*\s+run: '! grep -r\w* \"([^\"]+)\" ([^'|]+)", workflow
    )
    in_ci = {(name, pattern, tuple(paths.split())) for name, pattern, paths in steps}
    in_table = {row[:3] for row in INVARIANTS}
    assert in_ci == in_table


#: Where a consumer may live: the package itself and what runs it
#: outside the tests.
CONSUMER_ROOTS = ("src/repro", "examples", "perfbench", "benchmarks")

#: Public extension points no in-tree code calls, kept on purpose: they
#: are how a user registers, looks up or derives a technology node.
CONSUMER_KEEP = {
    ("src/repro/tech/libraries.py", "register_technology"),
    ("src/repro/tech/libraries.py", "get_technology_digest"),
    ("src/repro/tech/libraries.py", "available_technologies"),
    ("src/repro/tech/scaling.py", "scale_technology"),
}


def _definitions(body, prefix=""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


def _package_definitions_and_uses():
    """Every package definition, and where each name is read.

    A use is a name or attribute reference (``foo`` or ``x.foo``).
    Import statements and ``__all__`` strings are not uses, so an
    ``__init__`` re-export does not count as a consumer.
    """
    definitions = []
    uses = defaultdict(list)
    for root in CONSUMER_ROOTS:
        for source in sorted((ROOT / root).rglob("*.py")):
            path = source.relative_to(ROOT).as_posix()
            tree = ast.parse(source.read_text())
            if root == "src/repro":
                definitions += [(path, qualname, node) for qualname, node in _definitions(tree.body)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    uses[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses[node.attr].append((path, node.lineno))
    return definitions, uses


def test_every_package_definition_has_a_consumer():
    definitions, uses = _package_definitions_and_uses()
    defined = {(path, qualname) for path, qualname, _ in definitions}
    assert CONSUMER_KEEP <= defined, f"stale keep-list entries: {CONSUMER_KEEP - defined}"
    unconsumed = []
    for path, qualname, node in definitions:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue  # called by the interpreter
        # A reference inside the definition itself (recursion) does not count.
        outside = [
            (where, line)
            for where, line in uses[node.name]
            if not (where == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside and (path, qualname) not in CONSUMER_KEEP:
            unconsumed.append(f"{path}: {qualname}")
    assert not unconsumed, "defined but used only by the tests:\n" + "\n".join(unconsumed)


#: The entry points whose keyword parameters are knobs, by defining file.
KNOB_OWNERS = {
    "src/repro/serve/server.py": ("SweepServer.__init__",),
    "src/repro/serve/client.py": (
        "ServeClient.__init__",
        "ServeClient.sweep",
        "ServeClient.sweep_payload",
        "ServeClient.point",
        "ServeClient.point_payload",
    ),
    "src/repro/engine/sweep.py": ("Sweep.run",),
}

#: Where a knob's consumer may live: what CI runs outside the tests.
KNOB_CONSUMERS = ("examples", "perfbench", "benchmarks", "src/repro/serve/smoke.py")

#: Knobs no consumer sets, kept on purpose, each with its reason.  Only
#: deployment resource limits belong here: the right value depends on
#: the host, not on anything a workload in this repository can show.
KNOB_KEEP = {
    ("SweepServer.__init__", "queue_depth"): "the admission bound: requests past it are busy",
    ("SweepServer.__init__", "cache_bytes"): "the memory budget of the result cache",
    ("SweepServer.__init__", "disk_cache_bytes"): "the disk budget of the result cache",
}


def _knobs():
    """``(owner, parameter)`` for every parameter with a default or keyword-only."""
    knobs = []
    for path, owners in KNOB_OWNERS.items():
        found = dict(_definitions(ast.parse((ROOT / path).read_text()).body))
        for owner in owners:
            args = found[owner].args
            with_default = args.args[len(args.args) - len(args.defaults):]
            knobs += [(owner, arg.arg) for arg in with_default + args.kwonlyargs]
    return knobs


def _names_set_by_consumers():
    """Every call keyword and string dict key in the knob consumers."""
    names = set()
    for root in KNOB_CONSUMERS:
        path = ROOT / root
        for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
    return names


def test_every_knob_has_a_consumer():
    knobs = _knobs()
    stale = set(KNOB_KEEP) - set(knobs)
    assert not stale, f"stale keep-list entries: {stale}"
    used = _names_set_by_consumers()
    unset = [
        f"{owner}({name}=)"
        for owner, name in knobs
        if name not in used and (owner, name) not in KNOB_KEEP
    ]
    assert not unset, "knobs no example, benchmark or CI run sets:\n" + "\n".join(unset)


def _annotations(tree):
    """Every annotation expression of a module (arguments, returns, variables)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    """Names a module reads: references, ``__all__`` entries and string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(
                entry.value for entry in ast.walk(node.value) if isinstance(entry, ast.Constant)
            )
    for annotation in _annotations(tree):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_package_has_no_unused_imports():
    unused = []
    for source in sorted((ROOT / "src/repro").rglob("*.py")):
        tree = ast.parse(source.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = _names_read(tree)
        path = source.relative_to(ROOT).as_posix()
        unused += [f"{path}:{line}: {name}" for name, line in bound.items() if name not in read]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
