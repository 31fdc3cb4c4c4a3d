"""DC operating-point analysis (Newton--Raphson with source stepping)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .elements import SimulationError, StampContext
from .netlist import Circuit

__all__ = ["DCResult", "DCOptions", "solve_dc"]


@dataclass(frozen=True)
class DCOptions:
    """Numerical knobs of the DC solver."""

    max_iterations: int = 200
    tolerance_v: float = 1.0e-7
    max_update_v: float = 0.4
    source_steps: int = 1

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise SimulationError("max_iterations must be positive")
        if self.tolerance_v <= 0.0:
            raise SimulationError("tolerance_v must be positive")
        if self.source_steps <= 0:
            raise SimulationError("source_steps must be positive")


@dataclass
class DCResult:
    """Converged DC operating point."""

    circuit_name: str
    node_voltages: Dict[str, float]
    branch_currents: Dict[str, float]
    iterations: int
    converged: bool = True

    def voltage(self, node: str) -> float:
        """Voltage of a node by name (ground reads as 0 V)."""
        key = node.strip().lower()
        if key in ("0", "gnd", "vss", "ground"):
            return 0.0
        try:
            return self.node_voltages[key]
        except KeyError as exc:
            raise SimulationError(f"no node named {node!r} in the DC result") from exc


def _newton_solve(
    circuit: Circuit,
    initial: np.ndarray,
    options: DCOptions,
    source_scale: float,
    previous_voltages: Optional[np.ndarray] = None,
    timestep: Optional[float] = None,
    time: float = 0.0,
) -> tuple:
    """Shared Newton loop used by both DC and (per step) transient analysis.

    Returns ``(solution_vector, iterations, converged)`` where the
    solution vector contains node voltages followed by voltage-source
    branch currents.
    """
    n_nodes = circuit.node_count
    sources = circuit.voltage_sources()
    size = n_nodes + len(sources)
    solution = initial.copy()

    for iteration in range(1, options.max_iterations + 1):
        matrix = np.zeros((size, size))
        rhs = np.zeros(size)
        context = StampContext(
            voltages=solution[:n_nodes],
            previous_voltages=previous_voltages,
            timestep=timestep,
            source_scale=source_scale,
            time=time,
        )
        branch = n_nodes
        for element in circuit.elements:
            if element.requires_branch():
                element.stamp(matrix, rhs, context, branch_index=branch)
                branch += 1
            else:
                element.stamp(matrix, rhs, context)
        # Tiny diagonal regularisation keeps the matrix invertible if a
        # node is momentarily floating (e.g. all devices off).
        matrix[np.arange(n_nodes), np.arange(n_nodes)] += 1.0e-12

        try:
            new_solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"singular MNA matrix while solving circuit {circuit.name!r}"
            ) from exc

        delta = new_solution - solution
        # Damp the voltage update to keep Newton from overshooting the
        # exponential subthreshold region.
        node_delta = delta[:n_nodes]
        max_delta = float(np.max(np.abs(node_delta))) if n_nodes else 0.0
        if max_delta > options.max_update_v:
            scale = options.max_update_v / max_delta
            delta = delta * scale
        solution = solution + delta

        if max_delta < options.tolerance_v:
            return solution, iteration, True

    return solution, options.max_iterations, False


def solve_dc(
    circuit: Circuit,
    options: DCOptions = DCOptions(),
    initial_guess: Optional[Dict[str, float]] = None,
) -> DCResult:
    """Compute the DC operating point of a circuit.

    Uses plain Newton--Raphson; if that fails to converge, the supply
    voltages are ramped in ``source_steps`` increments (source stepping),
    which is usually enough for the small digital circuits in this
    package.

    Parameters
    ----------
    circuit:
        The circuit to solve.
    options:
        Solver options.
    initial_guess:
        Optional starting voltages keyed by node name; unspecified nodes
        start at half of the largest supply voltage.
    """
    circuit.validate()
    n_nodes = circuit.node_count
    sources = circuit.voltage_sources()
    size = n_nodes + len(sources)

    supplies = [
        abs(getattr(s, "voltage", getattr(s, "pulsed_v", 0.0))) for s in sources
    ]
    start_level = 0.5 * max(supplies) if supplies else 0.0
    initial = np.full(size, 0.0)
    initial[:n_nodes] = start_level
    if initial_guess:
        for node, value in initial_guess.items():
            index = circuit.index_of(node)
            if index >= 0:
                initial[index] = value

    schedule = (
        [1.0]
        if options.source_steps == 1
        else list(np.linspace(1.0 / options.source_steps, 1.0, options.source_steps))
    )

    solution = initial
    total_iterations = 0
    converged = False
    for scale in schedule:
        solution, iterations, converged = _newton_solve(
            circuit, solution, options, source_scale=scale
        )
        total_iterations += iterations
        if not converged:
            break

    if not converged and options.source_steps == 1:
        # Retry with source stepping before giving up.
        retry = DCOptions(
            max_iterations=options.max_iterations,
            tolerance_v=options.tolerance_v,
            max_update_v=options.max_update_v,
            source_steps=10,
        )
        return solve_dc(circuit, retry, initial_guess)

    if not converged:
        raise SimulationError(
            f"DC analysis of circuit {circuit.name!r} did not converge "
            f"after {total_iterations} Newton iterations"
        )

    names = circuit.node_names()
    node_voltages = {name: float(solution[i]) for i, name in enumerate(names)}
    branch_currents = {
        source.name: float(solution[n_nodes + i]) for i, source in enumerate(sources)
    }
    return DCResult(
        circuit_name=circuit.name,
        node_voltages=node_voltages,
        branch_currents=branch_currents,
        iterations=total_iterations,
        converged=True,
    )
