"""One module per paper figure / claim, plus the ablations (see DESIGN.md)."""

from .fig1_waveform import Fig1Result, run_fig1
from .fig2_sizing import Fig2Result, run_fig2
from .fig3_cellmix import Fig3Result, run_fig3
from .stage_count import StageCountResult, run_stage_count
from .smart_unit import SmartUnitResult, run_smart_unit
from .baseline_comparison import BaselineComparisonResult, run_baseline_comparison
from .selfheating_study import SelfHeatingStudyResult, run_selfheating_study
from .calibration_study import CalibrationStudyResult, run_calibration_study
from .supply_sensitivity import SupplySensitivityResult, run_supply_sensitivity
from .scaling_study import ScalingStudyResult, run_scaling_study
from .dtm_study import (
    DtmPolicySweepResult,
    DtmStudyResult,
    example_policy_set,
    never_throttle_policy,
    run_dtm_policy_sweep,
    run_dtm_study,
)
from .placement_study import (
    PlacementStudyResult,
    example_workloads,
    run_placement_study,
)
from .thermal_map_study import (
    ThermalMapDensityPoint,
    ThermalMapStudyResult,
    ThermalResolutionPoint,
    ThermalResolutionStudyResult,
    run_thermal_map_study,
    run_thermal_resolution_study,
)

__all__ = [
    "Fig1Result",
    "run_fig1",
    "Fig2Result",
    "run_fig2",
    "Fig3Result",
    "run_fig3",
    "StageCountResult",
    "run_stage_count",
    "SmartUnitResult",
    "run_smart_unit",
    "BaselineComparisonResult",
    "run_baseline_comparison",
    "SelfHeatingStudyResult",
    "run_selfheating_study",
    "CalibrationStudyResult",
    "run_calibration_study",
    "SupplySensitivityResult",
    "run_supply_sensitivity",
    "ScalingStudyResult",
    "run_scaling_study",
    "DtmPolicySweepResult",
    "DtmStudyResult",
    "example_policy_set",
    "never_throttle_policy",
    "run_dtm_policy_sweep",
    "run_dtm_study",
    "ThermalMapDensityPoint",
    "ThermalMapStudyResult",
    "ThermalResolutionPoint",
    "ThermalResolutionStudyResult",
    "run_thermal_map_study",
    "run_thermal_resolution_study",
    "PlacementStudyResult",
    "example_workloads",
    "run_placement_study",
    "ExperimentRegistry",
    "default_registry",
    "run_all",
]

_RUNNER_EXPORTS = ("ExperimentRegistry", "default_registry", "run_all")


def __getattr__(name):
    # The runner is imported on first use, not here: an eager import
    # would put ``repro.experiments.runner`` in ``sys.modules`` before
    # ``python -m repro.experiments.runner`` executes it, and runpy
    # warns about that with a RuntimeWarning.
    if name in _RUNNER_EXPORTS:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
