"""Transient analysis (backward Euler with per-step Newton iteration).

The transient engine integrates the circuit equations with a fixed
timestep backward-Euler scheme.  Backward Euler is only first-order
accurate but unconditionally stable and strongly damped, which is the
right trade-off for free-running ring oscillators: the waveform shape
(and therefore the extracted period) converges quickly as the timestep
shrinks, and there is no risk of trapezoidal ringing artefacts.

Oscillators have no stable DC operating point to start from (the DC
solution is the metastable mid-rail point), so the ring-oscillator
builder provides explicit initial conditions that place the ring in a
valid travelling-wave state; :func:`simulate_transient` honours those
via :attr:`repro.circuit.netlist.Circuit.initial_conditions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dc import DCOptions, _newton_solve, solve_dc
from .elements import SimulationError
from .netlist import Circuit
from .waveform import Waveform

__all__ = [
    "TransientOptions",
    "TransientResult",
    "simulate_transient",
    "transient_step_count",
]


@dataclass(frozen=True)
class TransientOptions:
    """Numerical knobs of the transient solver.

    Attributes
    ----------
    timestep:
        Fixed integration timestep (seconds).
    max_newton_iterations:
        Newton iterations allowed per timestep.
    newton_tolerance_v:
        Voltage convergence tolerance per timestep.
    use_dc_start:
        If true and the circuit has no explicit initial conditions, a DC
        operating point is computed and used as the starting state.
    store_every:
        Keep every n-th timestep in the result (1 keeps everything).
    """

    timestep: float = 1.0e-12
    max_newton_iterations: int = 60
    newton_tolerance_v: float = 1.0e-6
    use_dc_start: bool = True
    store_every: int = 1

    def __post_init__(self) -> None:
        if not np.isfinite(self.timestep):
            raise SimulationError(f"timestep must be finite, got {self.timestep!r}")
        if self.timestep <= 0.0:
            raise SimulationError("timestep must be positive")
        if self.max_newton_iterations <= 0:
            raise SimulationError("max_newton_iterations must be positive")
        if self.newton_tolerance_v <= 0.0:
            raise SimulationError("newton_tolerance_v must be positive")
        if self.store_every < 1:
            raise SimulationError("store_every must be >= 1")


@dataclass
class TransientResult:
    """Node-voltage waveforms produced by a transient analysis."""

    circuit_name: str
    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    timestep: float
    newton_iterations_total: int

    def waveform(self, node: str) -> Waveform:
        """Waveform of one node by name."""
        key = node.strip().lower()
        if key in ("0", "gnd", "vss", "ground"):
            return Waveform(self.times, np.zeros_like(self.times), name="gnd")
        try:
            return Waveform(self.times, self.voltages[key], name=key)
        except KeyError as exc:
            raise SimulationError(
                f"transient result has no node named {node!r}"
            ) from exc

    def node_names(self) -> List[str]:
        return sorted(self.voltages)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


def _initial_state(
    circuit: Circuit, options: TransientOptions, supplies_hint: float
) -> np.ndarray:
    """Build the t = 0 solution vector (node voltages + branch currents)."""
    n_nodes = circuit.node_count
    size = circuit.system_size()
    state = np.zeros(size)

    if circuit.initial_conditions:
        # Start from mid-rail and overwrite the pinned nodes.
        state[:n_nodes] = 0.5 * supplies_hint
        for node, voltage in circuit.initial_conditions.items():
            index = circuit.index_of(node)
            if index >= 0:
                state[index] = voltage
        return state

    if options.use_dc_start:
        dc = solve_dc(circuit)
        for index, name in enumerate(circuit.node_names()):
            state[index] = dc.node_voltages[name]
        for offset, source in enumerate(circuit.voltage_sources()):
            state[n_nodes + offset] = dc.branch_currents[source.name]
        return state

    state[:n_nodes] = 0.5 * supplies_hint
    return state


def transient_step_count(duration_s: float, timestep_s: float) -> int:
    """Number of timesteps that cover ``duration_s``.

    A ratio within 1e-9 relative of an integer is that integer, so float
    error cannot add a step (``0.14 / 0.02`` is 7.000000000000001 and
    spans 7 steps, not 8); any other ratio rounds up.  The circuit
    simulator and the DTM loop both count their steps this way.
    """
    ratio = duration_s / timestep_s
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= 1e-9 * nearest:
        return int(nearest)
    return int(np.ceil(ratio))


def simulate_transient(
    circuit: Circuit,
    duration: float,
    options: TransientOptions = TransientOptions(),
    record_nodes: Optional[Sequence[str]] = None,
) -> TransientResult:
    """Integrate the circuit for ``duration`` seconds.

    Parameters
    ----------
    circuit:
        The circuit to simulate; its ``initial_conditions`` (if any)
        define the starting state.
    duration:
        Total simulated time in seconds.
    options:
        Solver options (timestep, Newton limits, decimation).
    record_nodes:
        Node names to record; all non-ground nodes by default.

    Returns
    -------
    TransientResult
        Recorded node waveforms.

    Raises
    ------
    SimulationError
        If a timestep fails to converge even after the internal retry
        with a reduced step.
    """
    circuit.validate()
    if not np.isfinite(duration):
        raise SimulationError(f"duration must be finite, got {duration!r}")
    if duration <= 0.0:
        raise SimulationError("duration must be positive")
    steps = transient_step_count(duration, options.timestep)
    if steps < 2:
        raise SimulationError("duration must span at least two timesteps")

    n_nodes = circuit.node_count
    names = circuit.node_names()
    if record_nodes is None:
        recorded = list(names)
    else:
        recorded = []
        for node in record_nodes:
            canonical = node.strip().lower()
            circuit.index_of(canonical)  # raises on unknown node
            recorded.append(canonical)

    supplies = [
        abs(getattr(s, "voltage", getattr(s, "pulsed_v", 0.0)))
        for s in circuit.voltage_sources()
    ]
    supplies_hint = max(supplies) if supplies else 1.0

    dc_options = DCOptions(
        max_iterations=options.max_newton_iterations,
        tolerance_v=options.newton_tolerance_v,
        max_update_v=0.5,
    )

    state = _initial_state(circuit, options, supplies_hint)

    stored_times: List[float] = [0.0]
    stored_states: List[np.ndarray] = [state[:n_nodes].copy()]
    newton_total = 0

    time = 0.0
    for step in range(1, steps + 1):
        time = step * options.timestep
        previous_nodes = state[:n_nodes].copy()

        solution, iterations, converged = _newton_solve(
            circuit,
            state,
            dc_options,
            source_scale=1.0,
            previous_voltages=previous_nodes,
            timestep=options.timestep,
            time=time,
        )
        newton_total += iterations

        if not converged:
            # Retry the step with two half steps before giving up.
            half = options.timestep / 2.0
            intermediate, it1, ok1 = _newton_solve(
                circuit, state, dc_options, 1.0, previous_nodes, half,
                time=time - half,
            )
            newton_total += it1
            if ok1:
                solution, it2, converged = _newton_solve(
                    circuit,
                    intermediate,
                    dc_options,
                    1.0,
                    intermediate[:n_nodes].copy(),
                    half,
                    time=time,
                )
                newton_total += it2
            if not converged:
                raise SimulationError(
                    f"transient step at t={time:.3e}s failed to converge for "
                    f"circuit {circuit.name!r}"
                )

        state = solution
        if step % options.store_every == 0 or step == steps:
            stored_times.append(time)
            stored_states.append(state[:n_nodes].copy())

    times = np.asarray(stored_times)
    stacked = np.vstack(stored_states)
    voltages = {
        name: stacked[:, circuit.index_of(name)].copy() for name in recorded
    }
    return TransientResult(
        circuit_name=circuit.name,
        times=times,
        voltages=voltages,
        timestep=options.timestep,
        newton_iterations_total=newton_total,
    )
