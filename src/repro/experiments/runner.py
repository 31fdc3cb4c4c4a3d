"""Run every reproduction experiment and emit a consolidated text report.

``python -m repro.experiments.runner`` regenerates the data behind every
figure and claim of the paper (and the ablations added by this
reproduction) and prints the tables recorded in EXPERIMENTS.md.  The
benchmark harness under ``benchmarks/`` wraps the same entry points with
pytest-benchmark so runtimes are tracked as well.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..engine.executors import EXECUTOR_ENV, TILE_ELEMENTS_ENV, WORKERS_ENV
from ..fields import flag, integer
from ..tech.libraries import CMOS035, get_technology
from ..tech.parameters import Technology
from .baseline_comparison import run_baseline_comparison
from .calibration_study import run_calibration_study
from .dtm_study import run_dtm_policy_sweep, run_dtm_study
from .fig1_waveform import run_fig1
from .fig2_sizing import run_fig2
from .fig3_cellmix import run_fig3
from .scaling_study import run_scaling_study
from .selfheating_study import run_selfheating_study
from .smart_unit import run_smart_unit
from .placement_study import run_placement_study
from .stage_count import run_stage_count
from .supply_sensitivity import run_supply_sensitivity
from .thermal_map_study import run_thermal_map_study, run_thermal_resolution_study

__all__ = ["ExperimentRegistry", "run_all", "main"]


@dataclass(frozen=True)
class ExperimentRegistry:
    """Mapping of experiment ids to the callables that produce their report."""

    experiments: Dict[str, Callable[[Technology], str]]

    def names(self) -> List[str]:
        return list(self.experiments)

    def run(self, name: str, technology: Technology) -> str:
        if name not in self.experiments:
            raise KeyError(
                f"unknown experiment {name!r}; available: {', '.join(self.experiments)}"
            )
        return self.experiments[name](technology)


def _fig1_report(technology: Technology) -> str:
    return run_fig1(technology, cycles=4.0, points_per_period=150).format_summary()


def _fig2_report(technology: Technology) -> str:
    return run_fig2(technology).format_table()


def _fig3_report(technology: Technology) -> str:
    return run_fig3(technology).format_table()


def _stages_report(technology: Technology) -> str:
    return run_stage_count(technology).format_table()


def _smart_report(technology: Technology) -> str:
    return run_smart_unit(technology).format_summary()


def _baseline_report(technology: Technology) -> str:
    return run_baseline_comparison(technology).format_table()


def _selfheat_report(technology: Technology) -> str:
    return run_selfheating_study(technology).format_table()


def _calibration_report(technology: Technology) -> str:
    return run_calibration_study(technology, monte_carlo_samples=8).format_table()


def _supply_report(technology: Technology) -> str:
    return run_supply_sensitivity(technology).format_table()


def _scaling_report(technology: Technology) -> str:
    return run_scaling_study(reoptimize=True).format_table()


def _dtm_report(technology: Technology) -> str:
    return run_dtm_study(technology, duration_s=1.0, grid_resolution=16).format_summary()


def _thermal_map_report(technology: Technology) -> str:
    return run_thermal_map_study(
        technology, sample_count=25, grid_resolution=16
    ).format_table()


def _dtm_sweep_report(technology: Technology) -> str:
    return run_dtm_policy_sweep(
        technology, duration_s=1.0, grid_resolutions=16
    ).format_table()


def _placement_report(technology: Technology) -> str:
    return run_placement_study(
        technology, grid_resolution=16, candidate_grid=4, sensor_count=4, anneal_steps=80
    ).format_table()


def _thermal_resolution_report(technology: Technology) -> str:
    return run_thermal_resolution_study(
        technology, sample_count=25, grid_resolutions=(8, 12, 16, 24)
    ).format_table()


def default_registry() -> ExperimentRegistry:
    """The standard experiment set (ids match DESIGN.md)."""
    return ExperimentRegistry(
        experiments={
            "FIG1": _fig1_report,
            "FIG2": _fig2_report,
            "FIG3": _fig3_report,
            "STAGES": _stages_report,
            "SMART": _smart_report,
            "BASE": _baseline_report,
            "ABL-SELFHEAT": _selfheat_report,
            "ABL-CAL": _calibration_report,
            "EXT-SUPPLY": _supply_report,
            "EXT-SCALING": _scaling_report,
            "EXT-DTM": _dtm_report,
            "EXT-DTMSWEEP": _dtm_sweep_report,
            "EXT-THERMALMAP": _thermal_map_report,
            "EXT-THERMALRES": _thermal_resolution_report,
            "EXT-PLACEMENT": _placement_report,
        }
    )


def run_all(
    technology: Optional[Technology] = None,
    only: Optional[List[str]] = None,
    registry: Optional[ExperimentRegistry] = None,
) -> str:
    """Run the selected experiments and return the consolidated report."""
    tech = technology if technology is not None else CMOS035
    reg = registry if registry is not None else default_registry()
    names = only if only else reg.names()
    sections: List[str] = [
        "Reproduction report: Smart Temperature Sensor for Thermal Testing of "
        "Cell-Based ICs (DATE 2005)",
        f"technology: {tech.name} (vdd={tech.vdd} V)",
        "=" * 78,
    ]
    for name in names:
        sections.append(reg.run(name, tech))
        sections.append("-" * 78)
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--technology",
        default="cmos035",
        help="technology node to evaluate (default: cmos035)",
    )
    parser.add_argument(
        "--experiment",
        action="append",
        dest="experiments",
        help="run only the named experiment (may be repeated); "
        "see --list for the available ids",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="print the available experiment ids and exit",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=("dense", "serial", "process"),
        help="execution backend for every sweep in the run: dense "
        "single-pass (default), serial tiles or a multiprocess pool",
    )
    parser.add_argument(
        "--workers",
        type=flag(integer, "workers", at_least=1),
        default=None,
        help="worker count of the process backend (default: cpu count)",
    )
    parser.add_argument(
        "--tile-elements",
        type=flag(integer, "tile_elements", at_least=1),
        default=None,
        help="per-tile element budget for tiled backends "
        "(default: 2**20 elements, an 8 MiB tile)",
    )
    args = parser.parse_args(argv)
    # The registry callables take only a technology; the execution
    # backend rides on the documented environment knobs instead, so it
    # reaches every Sweep.run in every experiment uniformly.
    if args.executor is not None:
        os.environ[EXECUTOR_ENV] = args.executor
    if args.workers is not None:
        os.environ[WORKERS_ENV] = str(args.workers)
    if args.tile_elements is not None:
        os.environ[TILE_ELEMENTS_ENV] = str(args.tile_elements)
    registry = default_registry()
    if args.list_experiments:
        print("\n".join(registry.names()))
        return 0
    unknown = [
        name for name in (args.experiments or []) if name not in registry.experiments
    ]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(available: {', '.join(registry.names())})"
        )
    technology = get_technology(args.technology)
    report = run_all(technology, only=args.experiments, registry=registry)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
