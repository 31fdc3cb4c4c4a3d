"""Closed-loop dynamic thermal management (DTM) built on the smart sensor.

The paper positions its sensor as "the core part of any thermal
management system".  This module supplies that system so the sensor can
be evaluated in its end application: a throttling controller reads the
multiplexed sensors periodically and switches the die between
performance states (full speed, throttled, emergency) to keep the
junction temperature below a limit, while the die temperature evolves
according to the compact thermal model.

The simulation is deliberately simple — one global performance state,
threshold-with-hysteresis policy — because that is exactly the kind of
policy the 0.35 um-era products cited by the paper (Pentium 4 thermal
throttling, PowerPC thermal assist unit) implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.transient import transient_step_count
from ..fields import real
from ..oscillator.config import RingConfiguration
from ..tech.parameters import Technology, TechnologyError
from ..tech.stacked import stack_technologies
from ..thermal.floorplan import Floorplan
from ..thermal.grid import BilinearSites, TemperatureMap, ThermalGrid, ThermalGridParameters
from ..thermal.operator import ThermalOperator
from ..thermal.power import PowerMap
from .mapping import ThermalMonitor
from .readout import ReadoutConfig

__all__ = [
    "PerformanceState",
    "ThrottlingPolicy",
    "PolicyBank",
    "DtmTracePoint",
    "DtmResult",
    "DtmBankResult",
    "DynamicThermalManager",
]

#: Oven temperatures of the sensors' two-point calibration insertions.
_CALIBRATION_TEMPERATURES_C = (-50.0, 150.0)


@dataclass(frozen=True)
class PerformanceState:
    """One operating point of the managed die."""

    name: str
    power_scale: float
    performance: float

    def __post_init__(self) -> None:
        real(self.power_scale, "power_scale", TechnologyError, at_least=0.0, at_most=1.5)
        real(self.performance, "performance", TechnologyError, at_least=0.0, at_most=1.0)


@dataclass(frozen=True)
class ThrottlingPolicy:
    """Threshold-with-hysteresis throttling policy.

    Attributes
    ----------
    throttle_threshold_c:
        Sensor reading above which the die steps down one performance state.
    release_threshold_c:
        Reading below which the die steps back up (must be lower than the
        throttle threshold to provide hysteresis).
    emergency_threshold_c:
        Reading above which the die jumps straight to the lowest state.
    states:
        Performance states ordered from fastest to slowest.
    """

    throttle_threshold_c: float = 110.0
    release_threshold_c: float = 95.0
    emergency_threshold_c: float = 125.0
    states: Tuple[PerformanceState, ...] = (
        PerformanceState("full-speed", power_scale=1.0, performance=1.0),
        PerformanceState("throttled", power_scale=0.6, performance=0.6),
        PerformanceState("emergency", power_scale=0.25, performance=0.2),
    )

    def __post_init__(self) -> None:
        for name in (
            "throttle_threshold_c",
            "release_threshold_c",
            "emergency_threshold_c",
        ):
            real(getattr(self, name), name, TechnologyError)
        if self.release_threshold_c >= self.throttle_threshold_c:
            raise TechnologyError(
                "release threshold must be below the throttle threshold (hysteresis)"
            )
        if self.emergency_threshold_c <= self.throttle_threshold_c:
            raise TechnologyError(
                "emergency threshold must be above the throttle threshold"
            )
        if len(self.states) < 2:
            raise TechnologyError("at least two performance states are required")
        scales = [state.power_scale for state in self.states]
        if scales != sorted(scales, reverse=True):
            raise TechnologyError("states must be ordered from fastest to slowest")


@dataclass(frozen=True)
class DtmTracePoint:
    """One control-interval sample of the closed-loop simulation."""

    time_s: float
    state_name: str
    power_w: float
    true_peak_c: float
    hottest_reading_c: float
    performance: float


@dataclass(frozen=True)
class DtmResult:
    """Outcome of a closed-loop DTM simulation."""

    trace: Tuple[DtmTracePoint, ...]
    limit_c: float
    final_map: TemperatureMap

    def peak_temperature_c(self) -> float:
        return max(point.true_peak_c for point in self.trace)

    def time_above_limit_s(self) -> float:
        """Total time the true peak temperature exceeded the limit."""
        if len(self.trace) < 2:
            return 0.0
        total = 0.0
        for previous, current in zip(self.trace, self.trace[1:]):
            if current.true_peak_c > self.limit_c:
                total += current.time_s - previous.time_s
        return total

    def average_performance(self) -> float:
        """Mean delivered performance (1.0 = never throttled)."""
        return float(np.mean([point.performance for point in self.trace]))

    def throttle_events(self) -> int:
        """Number of transitions into a slower performance state."""
        events = 0
        names = [point.state_name for point in self.trace]
        ranks = {state: rank for rank, state in enumerate(dict.fromkeys(names))}
        previous_rank: Optional[int] = None
        for point in self.trace:
            rank = ranks[point.state_name]
            if previous_rank is not None and rank > previous_rank:
                events += 1
            previous_rank = rank
        return events

    def state_occupancy(self) -> Dict[str, float]:
        """Fraction of control intervals spent in each performance state."""
        names = [point.state_name for point in self.trace]
        return {name: names.count(name) / len(names) for name in dict.fromkeys(names)}


class PolicyBank:
    """A stack of throttling policies, struct-of-arrays style.

    The DTM policy *comparison* — the paper's actual story — evaluates
    many thresholds/hysteresis/performance-state sets against the same
    die.  Run one at a time, every policy would pay its own transient
    integration and per-step sensor scan.  A :class:`PolicyBank` stores
    the policies as threshold vectors plus padded ``(policy, state)``
    performance-state tables, so
    :meth:`DynamicThermalManager.run_bank` can carry every policy's FSM
    state as one index vector and advance all of them through a single
    shared :class:`~repro.thermal.operator.ThermalStepper` multi-RHS
    solve per timestep.

    Accepts a label-to-policy mapping (preferred — labels name the
    sweep axis), a plain policy sequence (labelled ``policy-0``, ...),
    or another bank.
    """

    def __init__(
        self,
        policies: Union[
            Mapping[str, ThrottlingPolicy], Sequence[ThrottlingPolicy]
        ],
    ) -> None:
        if isinstance(policies, Mapping):
            labels = [str(label) for label in policies]
            stack = list(policies.values())
        else:
            stack = list(policies)
            labels = [f"policy-{index}" for index in range(len(stack))]
        if not stack:
            raise TechnologyError("a policy bank needs at least one policy")
        for policy in stack:
            if not isinstance(policy, ThrottlingPolicy):
                raise TechnologyError(
                    f"policy banks stack ThrottlingPolicy objects, got "
                    f"{type(policy).__name__}"
                )
        if len(set(labels)) != len(labels):
            raise TechnologyError("policy labels must be unique within a bank")
        self._labels = tuple(labels)
        self._policies = tuple(stack)
        self.throttle_c = np.asarray([p.throttle_threshold_c for p in stack])
        self.release_c = np.asarray([p.release_threshold_c for p in stack])
        self.emergency_c = np.asarray([p.emergency_threshold_c for p in stack])
        self.state_counts = np.asarray([len(p.states) for p in stack], dtype=int)
        width = int(self.state_counts.max())
        # Rows are padded with the slowest state's values; the FSM index
        # is clamped to the policy's own last state, so padding is never
        # selected.
        self.power_scales = np.asarray(
            [
                [p.states[min(s, len(p.states) - 1)].power_scale for s in range(width)]
                for p in stack
            ]
        )
        self.performances = np.asarray(
            [
                [p.states[min(s, len(p.states) - 1)].performance for s in range(width)]
                for p in stack
            ]
        )

    @classmethod
    def of(
        cls,
        policies: Union[
            "PolicyBank", Mapping[str, ThrottlingPolicy], Sequence[ThrottlingPolicy]
        ],
    ) -> "PolicyBank":
        """Coerce a mapping/sequence/bank into a :class:`PolicyBank`."""
        if isinstance(policies, cls):
            return policies
        return cls(policies)

    @property
    def policy_count(self) -> int:
        return len(self._policies)

    def __len__(self) -> int:
        return self.policy_count

    def labels(self) -> Tuple[str, ...]:
        return self._labels

    def policies(self) -> Tuple[ThrottlingPolicy, ...]:
        return self._policies

    def policy(self, label: str) -> ThrottlingPolicy:
        """The scalar policy behind a label (the oracle for that row)."""
        try:
            return self._policies[self._labels.index(label)]
        except ValueError:
            raise TechnologyError(
                f"no policy labelled {label!r}; labels are {self._labels}"
            ) from None

    def _per_policy(self, values: np.ndarray, like: np.ndarray) -> np.ndarray:
        """Reshape a ``(policy,)`` vector to broadcast against ``like``."""
        return values.reshape((self.policy_count,) + (1,) * (like.ndim - 1))

    def next_state_indices(
        self, indices: np.ndarray, hottest_readings_c: np.ndarray
    ) -> np.ndarray:
        """Vectorized policy step over the whole bank.

        ``indices`` and ``hottest_readings_c`` share a leading
        ``policy`` axis (plus any trailing sample axes).  Each element
        steps its policy's threshold-with-hysteresis FSM: a reading at
        or above the emergency threshold jumps to the slowest state, one
        at or above the throttle threshold steps one state slower, one
        at or below the release threshold steps one state faster, and
        anything between holds the state.
        """
        indices = np.asarray(indices, dtype=int)
        readings = np.asarray(hottest_readings_c, dtype=float)
        last = self._per_policy(self.state_counts - 1, readings)
        stepped_down = np.minimum(indices + 1, last)
        stepped_up = np.maximum(indices - 1, 0)
        return np.where(
            readings >= self._per_policy(self.emergency_c, readings),
            last,
            np.where(
                readings >= self._per_policy(self.throttle_c, readings),
                stepped_down,
                np.where(
                    readings <= self._per_policy(self.release_c, readings),
                    stepped_up,
                    indices,
                ),
            ),
        )

    def _gather(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        flat = np.take_along_axis(
            table, indices.reshape(self.policy_count, -1), axis=1
        )
        return flat.reshape(indices.shape)

    def power_scales_at(self, indices: np.ndarray) -> np.ndarray:
        """Per-policy power scale of the current FSM state indices."""
        return self._gather(self.power_scales, np.asarray(indices, dtype=int))

    def performances_at(self, indices: np.ndarray) -> np.ndarray:
        """Per-policy delivered performance of the current state indices."""
        return self._gather(self.performances, np.asarray(indices, dtype=int))

    def state_name(self, policy_index: int, state_index: int) -> str:
        return self._policies[policy_index].states[int(state_index)].name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PolicyBank({', '.join(self._labels)})"


@dataclass(frozen=True)
class DtmBankResult:
    """Outcome of a banked multi-policy DTM simulation.

    Every value array carries a leading ``policy`` axis, an optional
    ``sample`` axis (when the run scanned a Monte-Carlo technology
    population) and a trailing ``step`` axis; the metric accessors
    reduce over steps, returning one value per policy (per sample).
    :meth:`to_result` unstacks one policy's trace into a
    :class:`DtmResult`; :meth:`DynamicThermalManager.run` returns exactly
    that for a one-policy bank.
    """

    bank: PolicyBank
    times_s: np.ndarray
    state_indices: np.ndarray
    power_w: np.ndarray
    true_peak_c: np.ndarray
    hottest_reading_c: np.ndarray
    performance: np.ndarray
    limit_c: float
    final_values_c: np.ndarray
    die_width_mm: float
    die_height_mm: float

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.bank.labels()

    @property
    def policy_count(self) -> int:
        return self.bank.policy_count

    @property
    def sample_count(self) -> Optional[int]:
        """Population size, or ``None`` for a single-technology run."""
        if self.state_indices.ndim == 3:
            return int(self.state_indices.shape[1])
        return None

    @property
    def step_count(self) -> int:
        return int(self.times_s.size)

    def _policy_axis_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise TechnologyError(
                f"no policy labelled {label!r}; labels are {self.labels}"
            ) from None

    # ------------------------------------------------------------------ #
    # vectorized metrics (one value per policy [per sample])
    # ------------------------------------------------------------------ #

    def peak_temperature_c(self) -> np.ndarray:
        return self.true_peak_c.max(axis=-1)

    def time_above_limit_s(self) -> np.ndarray:
        """Total time each policy's true peak exceeded the limit.

        Matches :meth:`DtmResult.time_above_limit_s`: intervals are
        counted from the second trace point on (the first has no
        predecessor to span from).
        """
        interval = float(self.times_s[1] - self.times_s[0]) if self.step_count > 1 else 0.0
        above = self.true_peak_c[..., 1:] > self.limit_c
        return above.sum(axis=-1) * interval

    def average_performance(self) -> np.ndarray:
        return self.performance.mean(axis=-1)

    def throttle_events(self) -> np.ndarray:
        """Downward state transitions per policy (scalar-rank semantics).

        Counts with :meth:`DtmResult.throttle_events`'s first-seen-rank
        rule (which differs from a plain index comparison when an
        emergency jump reorders the first appearance of states) applied
        directly to the integer state traces, so the banked metric
        cannot drift from the oracle without materialising a throwaway
        trace per (policy, sample) row.
        """
        flat_indices = self.state_indices.reshape(self.policy_count, -1, self.step_count)
        counts = np.zeros(flat_indices.shape[:2], dtype=int)
        for p in range(flat_indices.shape[0]):
            names = [
                self.bank.state_name(p, state)
                for state in range(int(self.bank.state_counts[p]))
            ]
            for s in range(flat_indices.shape[1]):
                ranks: Dict[str, int] = {}
                events = 0
                previous: Optional[int] = None
                for index in flat_indices[p, s]:
                    rank = ranks.setdefault(names[index], len(ranks))
                    if previous is not None and rank > previous:
                        events += 1
                    previous = rank
                counts[p, s] = events
        return counts.reshape(self.state_indices.shape[:-1])

    def state_occupancy(self) -> Dict[str, Dict[str, float]]:
        """Per-policy state-occupancy fractions (single-technology runs)."""
        if self.sample_count is not None:
            raise TechnologyError(
                "state occupancy dictionaries are only defined for single-"
                "technology runs; index the (policy, sample, step) arrays instead"
            )
        return {
            label: self.to_result(label).state_occupancy() for label in self.labels
        }

    # ------------------------------------------------------------------ #
    # unstacking
    # ------------------------------------------------------------------ #

    def to_result(self, label: str) -> DtmResult:
        """Unstack one policy's full trace into a scalar :class:`DtmResult`.

        Only defined for single-technology runs (the scalar trace has no
        sample axis).
        """
        if self.sample_count is not None:
            raise TechnologyError(
                "to_result() unstacks single-technology runs; population "
                "runs carry (policy, sample, step) arrays instead"
            )
        p = self._policy_axis_index(label)
        trace = tuple(
            DtmTracePoint(
                time_s=float(self.times_s[k]),
                state_name=self.bank.state_name(p, self.state_indices[p, k]),
                power_w=float(self.power_w[p, k]),
                true_peak_c=float(self.true_peak_c[p, k]),
                hottest_reading_c=float(self.hottest_reading_c[p, k]),
                performance=float(self.performance[p, k]),
            )
            for k in range(self.step_count)
        )
        final = TemperatureMap(
            self.die_width_mm, self.die_height_mm, self.final_values_c[p]
        )
        return DtmResult(trace=trace, limit_c=self.limit_c, final_map=final)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extent = f"{self.policy_count} policies x {self.step_count} steps"
        if self.sample_count is not None:
            extent = (
                f"{self.policy_count} policies x {self.sample_count} samples "
                f"x {self.step_count} steps"
            )
        return f"DtmBankResult({extent})"


class DynamicThermalManager:
    """Closed-loop simulation of sensor-driven thermal throttling.

    Parameters
    ----------
    technology:
        CMOS technology of the sensors.
    floorplan:
        Die floorplan; must contain sensor sites (the monitor reads them).
    configuration:
        Ring configuration of every sensor.
    policy:
        Throttling policy.
    readout:
        Sensor readout configuration.
    grid_resolution:
        Thermal-model grid resolution.
    ambient_c:
        Package/board ambient temperature.
    """

    def __init__(
        self,
        technology: Technology,
        floorplan: Floorplan,
        configuration: RingConfiguration,
        policy: ThrottlingPolicy = ThrottlingPolicy(),
        readout: ReadoutConfig = ReadoutConfig(),
        grid_resolution: int = 24,
        ambient_c: float = 45.0,
        thermal_parameters: ThermalGridParameters = ThermalGridParameters(),
    ) -> None:
        self.technology = technology
        self.floorplan = floorplan
        self.policy = policy
        self.ambient_c = float(ambient_c)
        self.monitor = ThermalMonitor(
            technology,
            floorplan,
            configuration,
            readout=readout,
            grid_resolution=grid_resolution,
            ambient_c=ambient_c,
            thermal_parameters=thermal_parameters,
        )
        self.monitor.calibrate(*_CALIBRATION_TEMPERATURES_C)
        self._base_power = PowerMap.from_floorplan(
            floorplan, nx=grid_resolution, ny=grid_resolution
        )
        #: The die's thermal grid.  Its backward-Euler system is the shared
        #: operator's exact DCT solve, so a banked run stays one batched
        #: step over its distinct power histories per timestep at any
        #: grid size.
        self._grid = ThermalGrid.for_power_map(self._base_power, thermal_parameters)
        #: The sensor sites' bilinear read-out plan on that grid.
        self._sites = BilinearSites(
            self._grid.width_mm,
            self._grid.height_mm,
            self._grid.nx,
            self._grid.ny,
            *self.monitor.bank.positions(),
        )
        #: DCT coefficients of the base power map, formed by the first run
        #: (the transform does not depend on the control interval).
        self._base_spectrum: Optional[np.ndarray] = None

    @property
    def base_power_map(self) -> PowerMap:
        """Workload power map at full speed."""
        return self._base_power

    def run(
        self,
        duration_s: float = 2.0,
        control_interval_s: float = 0.02,
        limit_c: float = 115.0,
        workload_scale: float = 1.0,
        policy: Optional[ThrottlingPolicy] = None,
    ) -> DtmResult:
        """Run the closed-loop simulation for one policy.

        This is :meth:`run_bank` with a one-policy bank, unstacked by
        :meth:`DtmBankResult.to_result`.

        Parameters
        ----------
        duration_s:
            Simulated wall-clock time.
        control_interval_s:
            Period of the sensor scan + policy decision (also the thermal
            integration step).
        limit_c:
            Junction-temperature limit used for the reporting metrics
            (time-above-limit); the policy thresholds live in the policy.
        workload_scale:
            Scaling of the workload power (for what-if studies).
        policy:
            Per-run policy override (the manager's own policy when
            omitted).  This is how a study runs the *same* die and
            sensors under different policies — e.g. an unmanaged
            reference whose thresholds are never reached — without
            rebuilding the manager or the thermal model.
        """
        label = "policy"
        banked = self.run_bank(
            {label: policy if policy is not None else self.policy},
            duration_s=duration_s,
            control_interval_s=control_interval_s,
            limit_c=limit_c,
            workload_scale=workload_scale,
        )
        return banked.to_result(label)

    def run_bank(
        self,
        policies: Union[
            PolicyBank, Mapping[str, ThrottlingPolicy], Sequence[ThrottlingPolicy]
        ],
        duration_s: float = 2.0,
        control_interval_s: float = 0.02,
        limit_c: float = 115.0,
        workload_scale: float = 1.0,
        technologies=None,
    ) -> DtmBankResult:
        """Run every policy of a bank through one shared closed loop.

        This is the package's one closed loop (:meth:`run` is a
        one-policy bank): all policies advance in lockstep, so each
        timestep costs **one** multi-column backward-Euler step over the
        distinct power histories, one bilinear gather of the sensor
        sites, one broadcast ring-period evaluation and one vectorized
        FSM step — instead of one full transient integration per
        policy.  Columns (policies, or policy x sample pairs) whose
        power histories are bitwise equal share one temperature-rise
        column: the step, the peak and power reductions and the site
        gather run once per distinct history, and their results expand
        back to every column; the sensor scan runs per column.  Each
        row does the arithmetic of a one-policy loop, so its throttle
        decisions, powers and temperatures are bitwise those of that
        loop.  The rise stack is column-major: each distinct column is
        one contiguous ``(ny, nx)`` plane.

        The rise is kept as DCT coefficients between steps, where
        backward Euler is diagonal
        (:meth:`~repro.thermal.operator.ThermalStepper.advance`): a
        step's right-hand side is each distinct column's factor times
        the base power's coefficients, which are transformed once per
        manager, so a step does no forward transform.  It takes one
        inverse transform over the distinct columns, for the rise
        planes, plus a few passes over the stacks; the temperature field
        is formed once, after the last step.  The peak is each rise
        column's maximum plus the ambient (rounding is monotone, so this
        is bitwise the field's maximum), the sites are read from the
        rise planes by the manager's
        :class:`~repro.thermal.grid.BilinearSites` plan with the ambient
        added to the four gathered neighbours, the power coefficients are
        written into one buffer per run, each factor's total power is
        summed once per run in real space, and the distinct columns are
        found with a dict over (parent history, factor bits).

        A non-finite ``duration_s``, ``control_interval_s``,
        ``limit_c`` or ``workload_scale`` raises
        :class:`TechnologyError` naming the argument.

        Parameters
        ----------
        policies:
            A :class:`PolicyBank`, a label-to-policy mapping or a policy
            sequence.
        duration_s / control_interval_s / limit_c / workload_scale:
            As in :meth:`run` (shared by every policy — the comparison
            holds the workload fixed and varies only the policy).
        technologies:
            Optional Monte-Carlo technology population (a stacked
            :class:`~repro.tech.stacked.TechnologyArray` or a stackable
            technology sequence).  The sensors of every sample read the
            same die through their own process corner and per-sample
            two-point calibration, so the run becomes the full policy x
            sample cross product — result arrays gain a ``sample`` axis
            and each (policy, sample) pair carries its own FSM/thermal
            trajectory.
        """
        for name, value in (
            ("duration_s", duration_s),
            ("control_interval_s", control_interval_s),
            ("limit_c", limit_c),
            ("workload_scale", workload_scale),
        ):
            real(value, name, TechnologyError)
        if duration_s <= 0.0 or control_interval_s <= 0.0:
            raise TechnologyError("duration and control interval must be positive")
        if control_interval_s >= duration_s:
            raise TechnologyError("control interval must be shorter than the duration")
        if workload_scale < 0.0:
            raise TechnologyError("workload_scale must be non-negative")
        bank = PolicyBank.of(policies)
        sensors = self.monitor.bank
        if sensors.calibration is None:
            raise TechnologyError("DTM requires calibrated sensors")
        if technologies is None:
            calibration = sensors.calibration
            population = None
            sample_count = None
        else:
            population = stack_technologies(technologies)
            sample_count = len(population)
            # Every sample's sensors get their own two-point calibration
            # at the manager's insertion temperatures.
            calibration = sensors.two_point_calibration(
                *_CALIBRATION_TEMPERATURES_C, technologies=population
            )

        steps = transient_step_count(duration_s, control_interval_s)
        grid = self._grid
        stepper = ThermalOperator.for_grid(grid).stepper(control_interval_s)
        policy_count = bank.policy_count
        column_shape = (
            (policy_count,) if sample_count is None else (policy_count, sample_count)
        )
        columns = int(np.prod(column_shape))

        base_flat = self._base_power.values_w.reshape(-1)
        if self._base_spectrum is None:
            self._base_spectrum = stepper.spectrum(base_flat)
        base_spectrum = self._base_spectrum
        ambient = self.ambient_c
        sites = self._sites
        # One rise column per distinct power history: ``history`` maps
        # every (policy[, sample]) column to its distinct column, and all
        # columns start from the same zero rise.  The rise is carried as
        # DCT coefficients (``rise_hat``) in a column-major stack, so each
        # distinct column is one contiguous (ny, nx) plane that the
        # inverse transform and the reductions read in place.
        history = np.zeros(columns, dtype=np.int64)
        rise_hat = np.zeros((1, grid.nx * grid.ny)).T
        # The power coefficients, one row per distinct column; grown only
        # when the run splits into more distinct columns than before.
        power_hat_rows = np.empty((1, base_flat.size))
        # Each factor's total power, summed once per run in real space:
        # the trace keeps the bits of ``(factor * base).sum()``.
        power_totals: Dict[int, float] = {}
        indices = np.zeros(column_shape, dtype=int)
        trace_shape = column_shape + (steps,)
        state_trace = np.zeros(trace_shape, dtype=int)
        power_trace = np.zeros(trace_shape)
        peak_trace = np.zeros(trace_shape)
        hottest_trace = np.zeros(trace_shape)
        performance_trace = np.zeros(trace_shape)
        times = (np.arange(steps) + 1) * control_interval_s
        ring = sensors.ring if population is None else sensors.ring.rebind(population)

        for step in range(steps):
            scales = bank.power_scales_at(indices)
            # Same multiplication order as the scalar loop's
            # ``base.scaled(workload_scale * state.power_scale)``.
            factors = (workload_scale * scales).reshape(columns)
            # Columns that share a history and a bitwise-equal factor get
            # bitwise-equal right-hand sides, so they share one column,
            # numbered in order of first appearance.  Each column of a
            # stacked solve is bitwise its solo solve, so the order is free.
            children: Dict[Tuple[int, int], int] = {}
            history = np.array(
                [
                    children.setdefault(key, len(children))
                    for key in zip(history.tolist(), factors.view(np.int64).tolist())
                ],
                dtype=np.int64,
            )
            parents, factor_bits = zip(*children)
            if parents != tuple(range(rise_hat.shape[1])):
                # The basis change is linear, so gathering coefficient
                # columns gathers the rises they stand for.
                rise_hat = rise_hat.T[list(parents)].T
            distinct = len(parents)
            if power_hat_rows.shape[0] < distinct:
                power_hat_rows = np.empty((distinct, base_flat.size))
            distinct_factors = np.array(factor_bits, dtype=np.int64).view(float)
            for bits, factor in zip(factor_bits, distinct_factors.tolist()):
                if bits not in power_totals:
                    power_totals[bits] = float((factor * base_flat).sum())
            power_hat = power_hat_rows[:distinct]
            np.multiply(distinct_factors[:, np.newaxis], base_spectrum, out=power_hat)
            rise_hat = stepper.advance(rise_hat, power_hat.T)
            rise = stepper.field(rise_hat)

            # The sites read the rise planes plus the ambient without
            # forming that field.
            truths = sites.sample(rise.T.reshape((-1, grid.ny, grid.nx)), ambient)
            # The sensor scan stays per column: Monte-Carlo samples read
            # the same field through their own corners.
            truths = truths[history].reshape(column_shape + truths.shape[1:])
            if population is None:
                periods = np.asarray(ring.period_series(truths), dtype=float)
            else:
                # (policy, site, sample, 1) temperatures against the
                # stacked population's (sample, 1) parameter columns;
                # the sample axis stays last so the per-sample
                # calibration rows broadcast without a transpose.
                site_major = np.moveaxis(truths, -1, 1)
                periods = np.asarray(
                    ring.period_series(site_major[..., np.newaxis]), dtype=float
                ).reshape(site_major.shape)
            codes, _saturated = sensors.counter.convert_batch(periods)
            measured = sensors.counter.codes_to_periods(codes)
            estimates = calibration.temperature(measured)
            if population is None:
                hottest = estimates.max(axis=-1)
            else:
                hottest = estimates.max(axis=1)

            state_trace[..., step] = indices
            power_trace[..., step] = np.array(
                [power_totals[bits] for bits in factor_bits]
            )[history].reshape(column_shape)
            # Rounding is monotone, so max(rise) + ambient is bitwise
            # max(rise + ambient).
            peak_trace[..., step] = (rise.max(axis=0) + ambient)[history].reshape(
                column_shape
            )
            hottest_trace[..., step] = hottest
            performance_trace[..., step] = bank.performances_at(indices)
            indices = bank.next_state_indices(indices, hottest)

        final_values = rise.T[history]
        final_values += ambient
        return DtmBankResult(
            bank=bank,
            times_s=times,
            state_indices=state_trace,
            power_w=power_trace,
            true_peak_c=peak_trace,
            hottest_reading_c=hottest_trace,
            performance=performance_trace,
            limit_c=limit_c,
            final_values_c=final_values.reshape(column_shape + (grid.ny, grid.nx)),
            die_width_mm=grid.width_mm,
            die_height_mm=grid.height_mm,
        )
