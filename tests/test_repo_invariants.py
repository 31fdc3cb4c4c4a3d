"""The CI fast lane's structural greps, enforced by a local tier-1 run too.

Each row is one ``! grep`` step of ``.github/workflows/ci.yml``: a
pattern that must not appear in the package's Python sources (outside
the listed exemptions).  A second test keeps the table and the CI file
in step, so neither can drift from the other.
"""

from __future__ import annotations

import re
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
