"""The CI fast lane's structural greps, enforced by a local tier-1 run too.

Each row is one ``! grep`` step of ``.github/workflows/ci.yml``: a
pattern that must not appear in the package's Python sources (outside
the listed exemptions).  A second test keeps the table and the CI file
in step, so neither can drift from the other.

A third test is the consumer audit: every function, class and method
the package defines must be used by the package itself, an example, the
repository benchmark or the engine benchmarks.  What only the tests use
belongs in the tests (``tests/oracles.py`` holds the references).
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
