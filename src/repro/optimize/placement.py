"""Sensor-placement search: where should the multiplexed sensors sit?

The paper's thermal-mapping application distributes ring-oscillator
sensors "on different points" of the die, but leaves the points
themselves to the designer.  This module answers that placement question
as a discrete optimisation: given a set of *candidate* sites (typically
a dense grid over the floorplan) and a corpus of workload power maps,
pick the subset of ``k`` sites whose reconstructed thermal maps track
the true fields best across the whole corpus.

The expensive physics is hoisted out of the search loop entirely:

* the true fields of every workload come from **one** multi-RHS solve
  through the shared :class:`~repro.thermal.operator.ThermalOperator`
  (one batched pair of DCTs), and
* every candidate site's calibrated temperature estimate is measured
  **once** per workload with a banked
  :class:`~repro.core.sensor_bank.SensorBank` scan over the *full*
  candidate set — a site's reading does not depend on which other sites
  are selected, so subset evaluation reduces to an inverse-distance
  reconstruction (:func:`~repro.core.mapping.reconstruct_maps`) of the
  estimate rows the subset keeps.

On top of that objective sit two searchers: deterministic greedy forward
selection (:func:`greedy_placement`) and a seeded simulated-annealing
swap search (:func:`anneal_placement`) that starts from the greedy
answer and trades single sites in and out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.mapping import reconstruct_maps
from ..fields import integer, real
from ..tech.parameters import TechnologyError
from ..thermal.grid import TemperatureMap

__all__ = [
    "PlacementScore",
    "PlacementObjective",
    "PlacementResult",
    "greedy_placement",
    "anneal_placement",
]


@dataclass(frozen=True)
class PlacementScore:
    """Reconstruction quality of one site subset over the workload corpus."""

    mean_rms_error_c: float
    worst_rms_error_c: float
    mean_abs_hotspot_error_c: float
    worst_abs_hotspot_error_c: float
    hotspot_weight: float

    @property
    def combined_c(self) -> float:
        """The scalar the searchers minimise (lower is better)."""
        return self.mean_rms_error_c + self.hotspot_weight * self.mean_abs_hotspot_error_c


class PlacementObjective:
    """Subset-evaluation oracle built from precomputed per-site estimates.

    Parameters
    ----------
    reference:
        Any workload's true :class:`~repro.thermal.grid.TemperatureMap`;
        only its geometry (die size, grid shape) is used.
    site_names / site_x_mm / site_y_mm:
        The candidate sites, in estimate-row order.
    estimates_c:
        ``(site, workload)`` calibrated temperature estimates of every
        candidate site under every workload — the one banked scan per
        workload, done up front.
    true_values_c:
        ``(workload, ny, nx)`` true temperature fields.
    hotspot_weight:
        Weight of the absolute hotspot error relative to the map RMS in
        the combined objective.
    """

    def __init__(
        self,
        reference: TemperatureMap,
        site_names: Sequence[str],
        site_x_mm: np.ndarray,
        site_y_mm: np.ndarray,
        estimates_c: np.ndarray,
        true_values_c: np.ndarray,
        hotspot_weight: float = 1.0,
    ) -> None:
        names = tuple(str(name) for name in site_names)
        xs = np.asarray(site_x_mm, dtype=float)
        ys = np.asarray(site_y_mm, dtype=float)
        estimates = np.asarray(estimates_c, dtype=float)
        truths = np.asarray(true_values_c, dtype=float)
        if estimates.ndim != 2:
            raise TechnologyError("estimates must be a (site, workload) matrix")
        if len(names) != estimates.shape[0] or xs.shape != ys.shape or xs.size != len(names):
            raise TechnologyError("site names, coordinates, and estimates must align")
        if truths.ndim != 3 or truths.shape[0] != estimates.shape[1]:
            raise TechnologyError(
                "true fields must be a (workload, ny, nx) stack matching the estimates"
            )
        if truths.shape[1:] != reference.values_c.shape:
            raise TechnologyError("true fields must match the reference grid shape")
        hotspot_weight = real(hotspot_weight, "hotspot_weight", TechnologyError, at_least=0.0)
        self.reference = reference
        self.site_names = names
        self.site_x_mm = xs
        self.site_y_mm = ys
        self.estimates_c = estimates
        self.true_values_c = truths
        self.hotspot_weight = float(hotspot_weight)
        flat = truths.reshape(truths.shape[0], -1)
        hot = np.argmax(flat, axis=1)
        self._hot_rows, self._hot_cols = np.unravel_index(hot, truths.shape[1:])
        self._hot_peaks = flat[np.arange(truths.shape[0]), hot]
        self.evaluations = 0

    @property
    def site_count(self) -> int:
        return len(self.site_names)

    @property
    def workload_count(self) -> int:
        return self.true_values_c.shape[0]

    def evaluate(self, subset: Sequence[int]) -> PlacementScore:
        """Score one site subset (order-insensitive, lower is better)."""
        indices = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
        if indices.size == 0:
            raise TechnologyError("a placement needs at least one site")
        if indices.min() < 0 or indices.max() >= self.site_count:
            raise TechnologyError("site index out of range")
        self.evaluations += 1
        maps = reconstruct_maps(
            self.reference,
            self.site_x_mm[indices],
            self.site_y_mm[indices],
            self.estimates_c[indices],  # (subset, workload)
        )  # (workload, ny, nx)
        rms = np.sqrt(np.mean((maps - self.true_values_c) ** 2, axis=(1, 2)))
        workloads = np.arange(self.workload_count)
        hotspot = np.abs(
            maps[workloads, self._hot_rows, self._hot_cols] - self._hot_peaks
        )
        return PlacementScore(
            mean_rms_error_c=float(np.mean(rms)),
            worst_rms_error_c=float(np.max(rms)),
            mean_abs_hotspot_error_c=float(np.mean(hotspot)),
            worst_abs_hotspot_error_c=float(np.max(hotspot)),
            hotspot_weight=self.hotspot_weight,
        )


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one placement search."""

    method: str
    selected_indices: Tuple[int, ...]
    selected_names: Tuple[str, ...]
    score: PlacementScore
    #: Objective value after each search step (greedy: one entry per
    #: added sensor; annealing: one entry per accepted move).
    history_c: Tuple[float, ...] = field(default_factory=tuple)
    evaluations: int = 0


def greedy_placement(
    objective: PlacementObjective,
    sensor_count: int,
    must_include: Sequence[int] = (),
) -> PlacementResult:
    """Deterministic greedy forward selection of ``sensor_count`` sites.

    Starting from ``must_include`` (e.g. a site the DTM controller pins
    on a known hotspot), repeatedly adds the candidate that lowers the
    combined objective most; ties break on the lowest site index so the
    result is reproducible across runs and platforms.
    """
    sensor_count = integer(
        sensor_count, "sensor_count", TechnologyError, at_least=1, at_most=objective.site_count
    )
    chosen: List[int] = sorted(set(int(i) for i in must_include))
    if len(chosen) > sensor_count:
        raise TechnologyError("must_include already exceeds the sensor count")
    start = objective.evaluations
    history: List[float] = []
    score = objective.evaluate(chosen) if chosen else None
    while len(chosen) < sensor_count:
        best_index, best_score = None, None
        for candidate in range(objective.site_count):
            if candidate in chosen:
                continue
            trial = objective.evaluate(chosen + [candidate])
            if best_score is None or trial.combined_c < best_score.combined_c:
                best_index, best_score = candidate, trial
        chosen.append(best_index)
        score = best_score
        history.append(score.combined_c)
    chosen_tuple = tuple(sorted(chosen))
    return PlacementResult(
        method="greedy",
        selected_indices=chosen_tuple,
        selected_names=tuple(objective.site_names[i] for i in chosen_tuple),
        score=score,
        history_c=tuple(history),
        evaluations=objective.evaluations - start,
    )


def anneal_placement(
    objective: PlacementObjective,
    sensor_count: int,
    seed: int = 2005,
    steps: int = 200,
    initial: Optional[Sequence[int]] = None,
    initial_temperature_c: float = 0.5,
    cooling: float = 0.97,
) -> PlacementResult:
    """Simulated-annealing swap search over ``sensor_count``-site subsets.

    Each move swaps one selected site for one unselected candidate;
    improving moves are always accepted, worsening moves with
    probability ``exp(-delta / T)`` under a geometric cooling schedule.
    The walk is driven by a seeded generator, so a given
    ``(objective, seed)`` pair always returns the same placement.  Pass
    the greedy answer as ``initial`` to refine it; the default starts
    from a random subset.
    """
    sensor_count = integer(
        sensor_count, "sensor_count", TechnologyError, at_least=1, at_most=objective.site_count
    )
    steps = integer(steps, "steps", TechnologyError, at_least=0)
    real(cooling, "cooling", TechnologyError, above=0.0, at_most=1.0)
    real(initial_temperature_c, "initial_temperature_c", TechnologyError, above=0.0)
    rng = np.random.default_rng(seed)
    if initial is None:
        current = sorted(
            int(i)
            for i in rng.choice(objective.site_count, size=sensor_count, replace=False)
        )
    else:
        current = sorted(set(int(i) for i in initial))
        if len(current) != sensor_count:
            raise TechnologyError("initial placement must have sensor_count distinct sites")
    start = objective.evaluations
    current_score = objective.evaluate(current)
    best, best_score = list(current), current_score
    history: List[float] = [current_score.combined_c]
    temperature = float(initial_temperature_c)
    for _ in range(steps):
        if sensor_count == objective.site_count:
            break  # nothing to swap with
        outside = [i for i in range(objective.site_count) if i not in current]
        leave = current[int(rng.integers(len(current)))]
        enter = outside[int(rng.integers(len(outside)))]
        trial = sorted(i for i in current if i != leave) + [enter]
        trial_score = objective.evaluate(trial)
        delta = trial_score.combined_c - current_score.combined_c
        if delta <= 0.0 or rng.random() < np.exp(-delta / temperature):
            current, current_score = sorted(trial), trial_score
            history.append(current_score.combined_c)
            if current_score.combined_c < best_score.combined_c:
                best, best_score = list(current), current_score
        temperature *= cooling
    best_tuple = tuple(sorted(best))
    return PlacementResult(
        method="anneal",
        selected_indices=best_tuple,
        selected_names=tuple(objective.site_names[i] for i in best_tuple),
        score=best_score,
        history_c=tuple(history),
        evaluations=objective.evaluations - start,
    )
