"""Experiment EXT-DTM: closed-loop thermal management driven by the sensor.

The final justification for a built-in temperature sensor is the system
it enables: dynamic thermal management.  This extension runs the
closed-loop simulation (workload power -> die temperature -> sensor-bank
readings -> throttling policy -> workload power ...) and compares
it against the same die with no thermal management, answering the two
questions a product team would ask: does the sensor-driven policy keep
the junction below the limit, and how much performance does it cost?

The paper's DTM story is really a *comparison* — many candidate
policies against one die — so the experiment is declared as a policy
sweep: :func:`run_dtm_policy_sweep` stacks the candidate policies (plus
an always-included unmanaged baseline) into a
:class:`~repro.core.thermal_manager.PolicyBank` and advances all of
them through one shared closed loop
(:meth:`~repro.core.thermal_manager.DynamicThermalManager.run_bank` —
one multi-RHS backward-Euler solve over the distinct power histories
and one banked sensor scan per timestep; policies whose powers have
been bitwise equal so far share one temperature column, and each row
takes the decisions a one-policy run takes), optionally
crossed with a Monte-Carlo technology population (the ``sample`` axis)
and with a set of thermal-grid resolutions (the grid-refinement axis
mirroring the sweep engine's ``resolution`` axis — one cached
prepared solve per grid).  The two-policy :func:`run_dtm_study` is the
same machinery specialised to the managed-versus-unmanaged pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.readout import ReadoutConfig
from ..core.thermal_manager import (
    DtmBankResult,
    DtmResult,
    DynamicThermalManager,
    PolicyBank,
    ThrottlingPolicy,
)
from ..engine.sweep import SweepResult
from ..oscillator.config import RingConfiguration
from ..tech.libraries import CMOS035
from ..tech.parameters import Technology, TechnologyError
from ..thermal.floorplan import Floorplan

__all__ = [
    "DtmStudyResult",
    "DtmPolicySweepResult",
    "DTM_SWEEP_OBSERVABLES",
    "example_policy_set",
    "never_throttle_policy",
    "run_dtm_study",
    "run_dtm_policy_sweep",
]

#: The per-policy observables :meth:`DtmPolicySweepResult.observable`
#: can evaluate, each reducing the banked traces to one value per
#: (policy, resolution[, sample]) coordinate.
DTM_SWEEP_OBSERVABLES = (
    "peak_temperature_c",
    "peak_reduction_c",
    "throttle_events",
    "average_performance",
    "time_above_limit_s",
)

#: Label of the automatically appended unmanaged reference policy.
UNMANAGED_LABEL = "unmanaged"


def never_throttle_policy() -> ThrottlingPolicy:
    """The unmanaged reference: thresholds no die can reach.

    The *same* sensors and thermal model run under it — they observe
    but never throttle — so managed-versus-unmanaged differences come
    from the policy alone.
    """
    return ThrottlingPolicy(
        throttle_threshold_c=10_000.0,
        release_threshold_c=9_000.0,
        emergency_threshold_c=11_000.0,
    )


def example_policy_set(limit_c: float = 115.0) -> Dict[str, ThrottlingPolicy]:
    """The example-processor policy candidates, spread around a limit.

    ``eager`` throttles well below the limit (cool die, large
    performance cost), ``default`` is :func:`run_dtm_study`'s policy,
    ``late`` tolerates readings right up to the limit, and
    ``two-state`` drops straight from full speed to the emergency
    state (0.25x power) with no intermediate throttled state — the
    four corners a DTM comparison wants on one axis.
    """
    return {
        "eager": ThrottlingPolicy(
            throttle_threshold_c=limit_c - 20.0,
            release_threshold_c=limit_c - 35.0,
            emergency_threshold_c=limit_c - 5.0,
        ),
        "default": ThrottlingPolicy(
            throttle_threshold_c=limit_c - 10.0,
            release_threshold_c=limit_c - 25.0,
            emergency_threshold_c=limit_c + 5.0,
        ),
        "late": ThrottlingPolicy(
            throttle_threshold_c=limit_c - 2.0,
            release_threshold_c=limit_c - 14.0,
            emergency_threshold_c=limit_c + 8.0,
        ),
        "two-state": ThrottlingPolicy(
            throttle_threshold_c=limit_c - 10.0,
            release_threshold_c=limit_c - 25.0,
            emergency_threshold_c=limit_c + 5.0,
            states=(
                ThrottlingPolicy().states[0],
                ThrottlingPolicy().states[2],
            ),
        ),
    }


@dataclass(frozen=True)
class DtmStudyResult:
    """Outcome of the closed-loop thermal-management experiment."""

    technology_name: str
    configuration_label: str
    limit_c: float
    unmanaged: DtmResult
    managed: DtmResult

    def peak_reduction_c(self) -> float:
        """How much the policy lowers the peak junction temperature."""
        return self.unmanaged.peak_temperature_c() - self.managed.peak_temperature_c()

    def keeps_die_below_limit(self, tolerance_c: float = 2.0) -> bool:
        """Whether the managed die stays (almost) below the limit."""
        return self.managed.peak_temperature_c() <= self.limit_c + tolerance_c

    def performance_cost(self) -> float:
        """Fraction of performance given up by throttling (0 = none)."""
        return 1.0 - self.managed.average_performance()

    def format_summary(self) -> str:
        lines = [
            "EXT-DTM - sensor-driven dynamic thermal management",
            f"  ring configuration       : {self.configuration_label}",
            f"  junction limit            : {self.limit_c:.0f} C",
            f"  unmanaged peak            : {self.unmanaged.peak_temperature_c():.1f} C "
            f"({self.unmanaged.time_above_limit_s() * 1e3:.0f} ms above the limit)",
            f"  managed peak              : {self.managed.peak_temperature_c():.1f} C "
            f"({self.managed.time_above_limit_s() * 1e3:.0f} ms above the limit)",
            f"  peak reduction            : {self.peak_reduction_c():.1f} C",
            f"  throttle events           : {self.managed.throttle_events()}",
            f"  average performance       : {self.managed.average_performance() * 100:.1f} % "
            f"(cost {self.performance_cost() * 100:.1f} %)",
            f"  state occupancy           : "
            + ", ".join(
                f"{name} {fraction * 100:.0f}%"
                for name, fraction in self.managed.state_occupancy().items()
            ),
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class DtmPolicySweepResult:
    """Outcome of the banked DTM policy sweep.

    ``bank_results`` holds one :class:`DtmBankResult` per thermal-grid
    resolution (every result's policy axis includes the appended
    ``unmanaged`` baseline as its last row); :meth:`observable` reduces
    them to labeled :class:`~repro.engine.sweep.SweepResult` tensors on
    a ``policy x resolution`` (``x sample``) grid, so the DTM numbers
    select by meaning exactly like every other sweep in the repo.
    """

    technology_name: str
    configuration_label: str
    limit_c: float
    policy_labels: Tuple[str, ...]
    grid_resolutions: Tuple[int, ...]
    bank_results: Tuple[DtmBankResult, ...]

    @property
    def sample_count(self) -> Optional[int]:
        return self.bank_results[0].sample_count

    def bank_result(self, grid_resolution: Optional[int] = None) -> DtmBankResult:
        """The banked traces of one resolution (the only one by default)."""
        if grid_resolution is None:
            if len(self.grid_resolutions) != 1:
                raise TechnologyError(
                    f"this sweep ran {len(self.grid_resolutions)} grid "
                    f"resolutions {self.grid_resolutions}; name one"
                )
            return self.bank_results[0]
        try:
            index = self.grid_resolutions.index(int(grid_resolution))
        except ValueError:
            raise TechnologyError(
                f"no grid resolution {grid_resolution!r}; resolutions are "
                f"{self.grid_resolutions}"
            ) from None
        return self.bank_results[index]

    def observable(self, name: str) -> SweepResult:
        """One per-policy metric as a labeled sweep tensor.

        ``name`` is one of :data:`DTM_SWEEP_OBSERVABLES`; the result
        has dims ``(policy, resolution)`` — plus ``sample`` when the
        sweep scanned a technology population.  ``peak_reduction_c`` is
        each policy's peak improvement over the unmanaged baseline of
        the *same* resolution (and sample).
        """
        if name not in DTM_SWEEP_OBSERVABLES:
            raise TechnologyError(
                f"unknown DTM observable {name!r}; choose one of "
                f"{DTM_SWEEP_OBSERVABLES}"
            )
        per_resolution = []
        for result in self.bank_results:
            if name == "peak_reduction_c":
                peaks = result.peak_temperature_c()
                values = peaks[-1, ...] - peaks
            else:
                values = getattr(result, name)()
            per_resolution.append(values)
        # (policy[, sample]) slices stack resolution-major; move the
        # resolution axis behind the policy axis for the canonical
        # policy/resolution/sample order.
        tensor = np.moveaxis(np.stack(per_resolution), 0, 1)
        dims = ["policy", "resolution"]
        coords: Dict[str, Tuple] = {
            "policy": self.policy_labels + (UNMANAGED_LABEL,),
            "resolution": self.grid_resolutions,
        }
        if self.sample_count is not None:
            dims.append("sample")
            coords["sample"] = tuple(range(self.sample_count))
        return SweepResult(
            values=tensor, dims=tuple(dims), coords=coords, observable=name
        )

    def state_occupancy(
        self, grid_resolution: Optional[int] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per-policy state-occupancy fractions at one resolution."""
        return self.bank_result(grid_resolution).state_occupancy()

    def format_table(self) -> str:
        sample_note = (
            "" if self.sample_count is None else f", {self.sample_count} samples"
        )
        lines = [
            "EXT-DTMSWEEP - banked throttling-policy comparison "
            f"(limit {self.limit_c:.0f} C{sample_note})",
            f"ring: {self.configuration_label}, technology: {self.technology_name}",
            f"{'policy':>12s} {'grid':>6s} {'peak':>8s} {'reduction':>10s} "
            f"{'events':>7s} {'perf':>7s} {'>limit':>8s}",
        ]
        peak = self.observable("peak_temperature_c")
        reduction = self.observable("peak_reduction_c")
        events = self.observable("throttle_events")
        performance = self.observable("average_performance")
        above = self.observable("time_above_limit_s")

        def cell(result: SweepResult, label: str, resolution: int) -> float:
            values = result.select(policy=label, resolution=resolution).values
            return float(np.mean(values))

        for label in self.policy_labels + (UNMANAGED_LABEL,):
            for resolution in self.grid_resolutions:
                lines.append(
                    f"{label:>12s} {resolution:>4d}^2 "
                    f"{cell(peak, label, resolution):>6.1f} C "
                    f"{cell(reduction, label, resolution):>8.1f} C "
                    f"{cell(events, label, resolution):>7.1f} "
                    f"{cell(performance, label, resolution) * 100:>5.1f} % "
                    f"{cell(above, label, resolution) * 1e3:>5.0f} ms"
                )
        return "\n".join(lines)


def _build_manager(
    technology: Technology,
    configuration: RingConfiguration,
    limit_c: float,
    sensor_grid: int,
    grid_resolution: int,
) -> DynamicThermalManager:
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(sensor_grid, sensor_grid)
    policy = ThrottlingPolicy(
        throttle_threshold_c=limit_c - 10.0,
        release_threshold_c=limit_c - 25.0,
        emergency_threshold_c=limit_c + 5.0,
    )
    return DynamicThermalManager(
        technology,
        floorplan,
        configuration,
        policy=policy,
        readout=ReadoutConfig(),
        grid_resolution=grid_resolution,
    )


def run_dtm_policy_sweep(
    technology: Optional[Technology] = None,
    policies: Optional[
        Union[PolicyBank, Mapping[str, ThrottlingPolicy], Sequence[ThrottlingPolicy]]
    ] = None,
    configuration_text: str = "2INV+3NAND2",
    workload_scale: float = 1.6,
    duration_s: float = 2.0,
    control_interval_s: float = 0.02,
    limit_c: float = 115.0,
    sensor_grid: int = 3,
    grid_resolutions: Union[int, Sequence[int]] = 20,
    technologies=None,
) -> DtmPolicySweepResult:
    """Run the declarative DTM policy sweep (policy x resolution x sample).

    Every candidate policy — plus the always-appended ``unmanaged``
    baseline that :meth:`DtmPolicySweepResult.observable` computes
    ``peak_reduction_c`` against — advances through one shared banked
    closed loop per grid resolution, whose timestep is one multi-RHS
    solve over the distinct power histories.  ``technologies`` adds a
    Monte-Carlo ``sample`` axis: each sample's sensors read the die
    through their own process corner and per-sample calibration, and
    (policy, sample) pairs whose powers have stayed bitwise equal share
    one solved column.
    """
    tech = technology if technology is not None else CMOS035
    configuration = RingConfiguration.parse(configuration_text)
    candidate_bank = PolicyBank.of(
        policies if policies is not None else example_policy_set(limit_c)
    )
    if UNMANAGED_LABEL in candidate_bank.labels():
        raise TechnologyError(
            f"the label {UNMANAGED_LABEL!r} is reserved for the appended "
            "baseline policy"
        )
    stacked = PolicyBank(
        {
            **dict(zip(candidate_bank.labels(), candidate_bank.policies())),
            UNMANAGED_LABEL: never_throttle_policy(),
        }
    )
    if isinstance(grid_resolutions, (int, np.integer)):
        grid_resolutions = (int(grid_resolutions),)
    resolutions = tuple(int(r) for r in grid_resolutions)
    if not resolutions:
        raise TechnologyError("the sweep needs at least one grid resolution")

    results = []
    for resolution in resolutions:
        manager = _build_manager(tech, configuration, limit_c, sensor_grid, resolution)
        results.append(
            manager.run_bank(
                stacked,
                duration_s=duration_s,
                control_interval_s=control_interval_s,
                limit_c=limit_c,
                workload_scale=workload_scale,
                technologies=technologies,
            )
        )
    return DtmPolicySweepResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        limit_c=limit_c,
        policy_labels=candidate_bank.labels(),
        grid_resolutions=resolutions,
        bank_results=tuple(results),
    )


def run_dtm_study(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    workload_scale: float = 1.6,
    duration_s: float = 2.0,
    control_interval_s: float = 0.02,
    limit_c: float = 115.0,
    sensor_grid: int = 3,
    grid_resolution: int = 20,
) -> DtmStudyResult:
    """Run the DTM experiment: unmanaged versus sensor-managed die.

    ``workload_scale`` > 1 represents a power virus / worst-case workload
    that would push the unmanaged die past the junction limit — the case
    thermal management exists for.  The managed/unmanaged pair is the
    two-policy special case of :func:`run_dtm_policy_sweep`: both ride
    one banked closed loop (one multi-RHS solve over the distinct power
    histories per timestep, so the pair shares one solve until the
    managed die first throttles), and each row matches a one-policy
    :meth:`~repro.core.thermal_manager.DynamicThermalManager.run`.
    """
    tech = technology if technology is not None else CMOS035
    configuration = RingConfiguration.parse(configuration_text)
    manager = _build_manager(
        tech, configuration, limit_c, sensor_grid, grid_resolution
    )
    banked = manager.run_bank(
        {"managed": manager.policy, UNMANAGED_LABEL: never_throttle_policy()},
        duration_s=duration_s,
        control_interval_s=control_interval_s,
        limit_c=limit_c,
        workload_scale=workload_scale,
    )
    return DtmStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        limit_c=limit_c,
        unmanaged=banked.to_result(UNMANAGED_LABEL),
        managed=banked.to_result("managed"),
    )
