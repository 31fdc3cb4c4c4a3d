"""Scalar reference oracles for the equivalence suites and engine benchmarks.

The package evaluates every workload one way: a numpy broadcast built
on :class:`repro.engine.Sweep` or on the stacked layouts behind it.
Each function here is the one-point-at-a-time loop such a path
replaced, written against public library objects passed in as
arguments.  The suites pin the broadcast paths to these loops: periods
to 1e-9 relative, counter codes exactly.  The ring-period kernels are
pinned bitwise to the per-stage and per-cell loops that evaluate a
drive current for every transition they need, instead of once per
distinct network.

The scalar readout pipeline (``convert_scalar``,
``code_to_period_scalar``, ``two_point_calibration_scalar``,
``one_point_calibration_scalar``) is the one-reading-at-a-time
arithmetic the package's array-only ``PeriodCounter`` and
``LinearCalibration`` replaced; the sensor oracles below use it, never
the package path they check.

The per-sample and per-configuration loops (``period_matrix_loop``,
``period_tensor_loop``, ``site_period_tensor_loop``) and the per-policy
DTM loop (``dtm_run_scalar``, stepping its policy with the scalar
``next_state_index``) are also what
``benchmarks/test_bench_engine.py`` times the broadcast paths against.
The looped Monte-Carlo sampler (``sample_technologies``) is the
reference the stacked ``sample_technology_array`` is pinned to.
The sparse-direct thermal solve (``direct_solve``, a SuperLU
factorization, and ``direct_stepper`` on top of it) is the reference
the package's one thermal solve, the exact DCT solve, is checked
against to 1e-10 relative.  Its matrices are assembled here
(``conductance_matrix``, ``transient_matrix``): the package's grid is
matrix-free and applies its stencil by array slicing, which the
assembled matrix pins.  ``self_heating_error`` is the
solve-per-duty-cycle reference of ``duty_cycle_study``.

The rest are definitions only the tests use: the one-network
``effective_saturation_current`` and ``gate_delay`` the per-stage loop
is written with; the transistor-level ``simulated_response`` (through
``simulated_period``); ``placement_objective_from_bank``, the per-map
bank scans the placement study is checked against; the linear
``Resistor`` and ``CurrentSource`` the circuit-solver tests build
closed-form circuits from; and the probes ``operator_cache_size``,
``cell_center`` and ``block_contains``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import factorized

from repro.analysis.linearity import nonlinearity
from repro.analysis.montecarlo import MonteCarloStudy
from repro.analysis.statistics import summarize
from repro.analysis.supply import SupplySensitivityReport
from repro.cells import default_library
from repro.circuit.elements import CircuitElement, SimulationError, _add, _add_rhs
from repro.circuit.transient import transient_step_count
from repro.core import MeasurementController, ReadoutConfig, SmartTemperatureSensor
from repro.core.calibration import (
    CalibrationError,
    LinearCalibration,
    design_calibration,
)
from repro.core.mapping import ThermalMonitorReport
from repro.core.sensor import SensorReading, SensorTransferFunction
from repro.core.sensor_bank import BankScan, SensorBank
from repro.core.thermal_manager import DtmResult, DtmTracePoint
from repro.delay.alpha_power import (
    DelayModelOptions,
    DriveNetwork,
    drive_currents,
    switching_delay,
)
from repro.engine import Axis, Sweep
from repro.experiments.calibration_study import CalibrationStudyResult
from repro.optimize.cellmix import CellMixCandidate
from repro.optimize.placement import PlacementObjective
from repro.optimize.sizing import (
    PAPER_FIG2_RATIOS,
    SizingPoint,
    SizingSweepResult,
    build_sized_ring,
)
from repro.oscillator import RingConfiguration, RingOscillator, TemperatureResponse
from repro.oscillator.period import default_temperature_grid, validate_temperature_grid
from repro.tech import (
    CMOS035,
    Technology,
    TechnologyArray,
    TechnologyError,
    TransistorParameters,
    VariationModel,
    corner_technologies,
    stack_technologies,
)
import repro.thermal.operator as thermal_operator
from repro.thermal import (
    PowerMap,
    SelfHeatingReport,
    TemperatureMap,
    ThermalGrid,
    ThermalGridParameters,
    ThermalOperator,
    ThermalStepper,
)


# --------------------------------------------------------------------------- #
# Linear circuit elements
# --------------------------------------------------------------------------- #
#
# The package's circuits are transistors, capacitors and sources.  The
# solver tests check DC and transient analysis against closed forms
# (a divider, an RC charge), which need a linear resistor and an ideal
# current source; those two elements live here.


@dataclass
class Resistor(CircuitElement):
    node_a: int = -1
    node_b: int = -1
    ohms: float = 1.0

    def __post_init__(self) -> None:
        if self.ohms <= 0.0:
            raise SimulationError(f"resistor {self.name}: resistance must be positive")

    def nodes(self) -> Tuple[int, ...]:
        return (self.node_a, self.node_b)

    def stamp(self, matrix, rhs, context, branch_index=None) -> None:
        g = 1.0 / self.ohms
        _add(matrix, self.node_a, self.node_a, g)
        _add(matrix, self.node_b, self.node_b, g)
        _add(matrix, self.node_a, self.node_b, -g)
        _add(matrix, self.node_b, self.node_a, -g)


@dataclass
class CurrentSource(CircuitElement):
    node_a: int = -1  # current flows out of node_a ...
    node_b: int = -1  # ... and into node_b
    current: float = 0.0

    def nodes(self) -> Tuple[int, ...]:
        return (self.node_a, self.node_b)

    def stamp(self, matrix, rhs, context, branch_index=None) -> None:
        value = self.current * context.source_scale
        _add_rhs(rhs, self.node_a, -value)
        _add_rhs(rhs, self.node_b, value)


def add_resistor(circuit, node_a: str, node_b: str, ohms: float, name: str = "") -> Resistor:
    """Add a linear resistor between two nodes of ``circuit``."""
    element = Resistor(
        name=name or f"R{len(circuit.elements)}",
        node_a=circuit.node(node_a),
        node_b=circuit.node(node_b),
        ohms=ohms,
    )
    circuit.elements.append(element)
    return element


def add_current_source(
    circuit, node_from: str, node_to: str, current: float, name: str = ""
) -> CurrentSource:
    """Add an ideal DC current source pushing current from -> to."""
    element = CurrentSource(
        name=name or f"I{len(circuit.elements)}",
        node_a=circuit.node(node_from),
        node_b=circuit.node(node_to),
        current=current,
    )
    circuit.elements.append(element)
    return element


# --------------------------------------------------------------------------- #
# Placement objective
# --------------------------------------------------------------------------- #


def placement_objective_from_bank(
    bank: SensorBank,
    true_maps: Sequence[TemperatureMap],
    calibration: Optional[LinearCalibration] = None,
    hotspot_weight: float = 1.0,
) -> PlacementObjective:
    """``PlacementObjective`` built by scanning a candidate bank directly.

    One banked scan per workload map reads every candidate site at
    its local junction temperature through the full smart-sensor
    chain (ring, counter quantisation, two-point calibration).  The
    placement study routes the equivalent scans through the
    :class:`~repro.engine.sweep.Sweep` engine; this loop over maps is
    the reference that path is checked against.
    """
    maps = list(true_maps)
    if not maps:
        raise TechnologyError("placement needs at least one workload map")
    if calibration is None:
        calibration = bank.two_point_calibration()
    xs, ys = bank.positions()
    columns = []
    for true_map in maps:
        scan = bank.scan(true_map.sample_points(xs, ys), calibration=calibration)
        columns.append(np.asarray(scan.estimates_c, dtype=float))
    return PlacementObjective(
        reference=maps[0],
        site_names=bank.names(),
        site_x_mm=xs,
        site_y_mm=ys,
        estimates_c=np.stack(columns, axis=1),
        true_values_c=np.stack([m.values_c for m in maps], axis=0),
        hotspot_weight=hotspot_weight,
    )


# --------------------------------------------------------------------------- #
# Transistor-level temperature response
# --------------------------------------------------------------------------- #


def simulated_period(
    ring: RingOscillator,
    temperature_c: float,
    cycles: float = 8.0,
    points_per_period: int = 400,
) -> float:
    """Oscillation period extracted from a transient simulation."""
    waveform = ring.simulate(temperature_c, cycles=cycles, points_per_period=points_per_period)
    return waveform.period(threshold=0.5 * ring.technology.vdd, skip_cycles=2)


def simulated_response(
    ring: RingOscillator,
    temperatures_c: Sequence[float],
    cycles: float = 8.0,
    points_per_period: int = 300,
) -> TemperatureResponse:
    """Temperature response measured with the transistor-level simulator.

    Considerably slower than :func:`analytical_response`; intended for
    validation at a handful of temperatures.  The grid is validated up
    front (three or more unique temperatures) so a bad grid fails with a
    clear message *before* minutes of transient simulation are spent.
    """
    temps = validate_temperature_grid(temperatures_c, context="simulated_response grid")
    periods = np.asarray(
        [
            simulated_period(ring, float(t), cycles=cycles, points_per_period=points_per_period)
            for t in temps
        ]
    )
    return TemperatureResponse(ring.label(), temps, periods)


# --------------------------------------------------------------------------- #
# Thermal probes and per-cell rasterisation
# --------------------------------------------------------------------------- #


def operator_cache_size() -> int:
    """Number of operators in the process-wide ``ThermalOperator`` cache."""
    with thermal_operator._CACHE_LOCK:
        return len(thermal_operator._OPERATORS)


def cell_center(power: PowerMap, column: int, row: int) -> Tuple[float, float]:
    """(x, y) millimetre coordinates of a power-map cell centre."""
    return (
        (column + 0.5) * power.cell_width_mm,
        (row + 0.5) * power.cell_height_mm,
    )


def block_contains(block, x_mm: float, y_mm: float) -> bool:
    """Whether a floorplan block covers a point, edges included."""
    return (
        block.x_mm <= x_mm <= block.x_mm + block.width_mm
        and block.y_mm <= y_mm <= block.y_mm + block.height_mm
    )


# --------------------------------------------------------------------------- #
# Per-network drive current and delay
# --------------------------------------------------------------------------- #


def effective_saturation_current(
    tech: Technology,
    network: DriveNetwork,
    temperature_c: Union[float, np.ndarray],
    options: DelayModelOptions = DelayModelOptions(),
) -> Union[float, np.ndarray]:
    """Effective saturation current (A) of a drive network at ``temperature_c``.

    The one-network case of :func:`drive_currents`: the stack-corrected
    alpha-power saturation current of a single device of the network's
    width, evaluated elementwise when ``temperature_c`` is an ndarray
    and broadcast over the sample axis when ``tech`` is a stacked
    population (:class:`~repro.tech.stacked.TechnologyArray`), giving a
    ``(samples, temperatures)`` matrix in the same single call.
    """
    key = (network, options.stack)
    return drive_currents(tech, (key,), temperature_c)[key]


def gate_delay(
    tech: Technology,
    network: DriveNetwork,
    load_capacitance_f: Union[float, np.ndarray],
    temperature_c: Union[float, np.ndarray],
    options: DelayModelOptions = DelayModelOptions(),
) -> Union[float, np.ndarray]:
    """Propagation delay (seconds) of one transition.

    ``network.polarity == "nmos"`` gives tpHL (output discharged through
    the pull-down network); ``"pmos"`` gives tpLH.  Passing an ndarray of
    temperatures returns the matching ndarray of delays in one
    vectorized evaluation.  With a stacked technology
    (:class:`~repro.tech.stacked.TechnologyArray`) the load is a
    ``(samples, 1)`` column (gate capacitance varies with the sampled
    oxide capacitance) and the delay broadcasts to a
    ``(samples, temperatures)`` matrix.
    """
    current = effective_saturation_current(tech, network, temperature_c, options)
    return switching_delay(tech, current, load_capacitance_f, options)


# --------------------------------------------------------------------------- #
# Monte-Carlo sampling
# --------------------------------------------------------------------------- #


def sample_technologies(
    tech: Technology,
    count: int,
    model: Optional[VariationModel] = None,
    seed: Optional[int] = None,
) -> List[Technology]:
    """``sample_technology_array`` as a per-sample loop of scalar technologies.

    Draws each sample's nine normals in turn (3 shared, 3 NMOS-local, 3
    PMOS-local), the generator order the stacked sampler reproduces, so
    ``stack_technologies(sample_technologies(...))`` equals
    ``sample_technology_array(...)`` value for value.
    """
    if count <= 0:
        raise TechnologyError("count must be positive")
    model = model or VariationModel()
    rng = np.random.default_rng(seed)
    rho = model.correlated_fraction
    samples: List[Technology] = []
    for index in range(count):
        shared = rng.standard_normal(3)
        local_n = rng.standard_normal(3)
        local_p = rng.standard_normal(3)
        mix_n = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * local_n
        mix_p = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * local_p

        def _vary(params: TransistorParameters, mix: np.ndarray) -> TransistorParameters:
            vth = params.vth0 + model.vth_sigma * float(mix[0])
            mobility = params.mobility * (1.0 + model.mobility_sigma_rel * float(mix[1]))
            cox = params.cox_f_per_um2 * (1.0 + model.cox_sigma_rel * float(mix[2]))
            vth = max(vth, 0.05)
            mobility = max(mobility, 1.0)
            cox = max(cox, 1e-16)
            return params.scaled(vth0=vth, mobility=mobility, cox_f_per_um2=cox)

        varied = tech.with_transistors(
            nmos=_vary(tech.nmos, mix_n), pmos=_vary(tech.pmos, mix_p)
        )
        samples.append(
            Technology(
                name=f"{tech.name}_mc{index:04d}",
                feature_size_um=varied.feature_size_um,
                vdd=varied.vdd,
                nmos=varied.nmos,
                pmos=varied.pmos,
                wire_cap_f_per_um=varied.wire_cap_f_per_um,
                min_width_um=varied.min_width_um,
                metal_layers=varied.metal_layers,
                extra=dict(varied.extra),
            )
        )
    return samples


# --------------------------------------------------------------------------- #
# rings
# --------------------------------------------------------------------------- #


def period_series_scalar(ring, temperatures_c) -> np.ndarray:
    """Periods (s) over a temperature grid, one ``ring.period`` call per point."""
    return np.asarray([ring.period(float(t)) for t in temperatures_c])


def period_matrix_scalar(ring, technologies, temperatures_c) -> np.ndarray:
    """``(sample, temperature)`` periods: rebind per sample, scalar per point.

    A stacked :class:`~repro.tech.TechnologyArray` is unstacked first.
    """
    if isinstance(technologies, TechnologyArray):
        technologies = technologies.technologies()
    temps = np.asarray(temperatures_c, dtype=float)
    matrix = np.zeros((len(technologies), temps.size))
    for row, tech in enumerate(technologies):
        matrix[row] = period_series_scalar(ring.rebind(tech), temps)
    return matrix


def period_matrix_loop(ring, technologies, temperatures_c) -> np.ndarray:
    """``ring.period_matrix`` as a per-sample rebind loop.

    Re-binds the ring to each technology in turn and evaluates the
    vectorized temperature axis once per sample: the path the stacked
    sample axis replaced.  A stacked population is unstacked first.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    if isinstance(technologies, TechnologyArray):
        technologies = technologies.technologies()
    matrix = np.zeros((len(technologies), temps.size))
    for row, tech in enumerate(technologies):
        matrix[row] = ring.rebind(tech).period_series(temps)
    return matrix


def _drive_networks(cell) -> Tuple[DriveNetwork, DriveNetwork]:
    """A cell's pull-down and pull-up networks, built from its attributes."""
    pull_down = DriveNetwork(
        polarity="nmos",
        width_um=cell.nmos_width_um,
        stack_depth=cell.topology.nmos_stack_depth,
    )
    pull_up = DriveNetwork(
        polarity="pmos",
        width_um=cell.pmos_width_um,
        stack_depth=cell.topology.pmos_stack_depth,
    )
    return pull_down, pull_up


def period_series_stage_loop(ring, temperatures_c) -> np.ndarray:
    """``ring.period_series`` as a per-stage ``total = total + stage sum`` loop.

    Each stage's ``tpHL + tpLH`` comes from two :func:`gate_delay` calls,
    so every stage and transition evaluates its own drive current over
    the whole grid.  The kernel sums per unique cell instead, so the two
    agree to rounding (the tests hold them to 1e-9 relative);
    :func:`period_series_per_cell` is the bitwise oracle.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    total = np.zeros(temps.shape)
    for stage in ring.stages():
        cell = stage.cell
        total_load = stage.load_f + cell.output_parasitic_capacitance()
        pull_down, pull_up = _drive_networks(cell)
        tphl = gate_delay(
            cell.technology, pull_down, total_load, temps, cell.delay_options
        )
        tplh = gate_delay(cell.technology, pull_up, total_load, temps, cell.delay_options)
        total = total + (tphl + tplh)
    return total


def _delay_per_farad(cell, temperatures_c: np.ndarray):
    """A cell's ring-stage delay per farad, from two current evaluations."""
    tech = cell.technology
    options = cell.delay_options
    pull_down, pull_up = _drive_networks(cell)
    down = effective_saturation_current(tech, pull_down, temperatures_c, options)
    up = effective_saturation_current(tech, pull_up, temperatures_c, options)
    return options.fit_factor * tech.vdd * (1.0 / down + 1.0 / up)


def period_tensor_per_cell(bank, temperatures_c, technologies=None) -> np.ndarray:
    """``ConfigurationBank.period_tensor`` with its own current calls per cell.

    The same weights-times-curves contraction as the bank, but each
    unique cell's delay-per-farad curve makes two
    :func:`effective_saturation_current` calls of its own, in the cell's
    technology.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    if technologies is None:
        rings, sample_count = bank.rings(), 1
    else:
        technologies = stack_technologies(technologies)
        rings = [ring.rebind(technologies) for ring in bank.rings()]
        sample_count = len(technologies)
    cells = {}
    for ring in rings:
        for stage in ring.stages():
            cells.setdefault(stage.cell.name, stage.cell)
    names = list(cells)  # first-appearance order, as the bank indexes them
    curves = [
        np.broadcast_to(
            _delay_per_farad(cells[name], temps), (sample_count, temps.size)
        )
        for name in names
    ]
    weights = np.zeros((len(names), len(rings), sample_count, 1))
    for row, ring in enumerate(rings):
        for stage in ring.stages():
            total_load = np.asarray(
                stage.load_f + stage.cell.output_parasitic_capacitance(), dtype=float
            )
            weights[names.index(stage.cell.name), row] += total_load.reshape(-1, 1)
    tensor = np.zeros((len(rings), sample_count, temps.size))
    for u in range(len(names)):
        tensor += weights[u] * curves[u][np.newaxis, :, :]
    return tensor[:, 0, :] if technologies is None else tensor


def period_series_per_cell(ring, temperatures_c) -> np.ndarray:
    """``ring.period_series`` as a one-row :func:`period_tensor_per_cell`.

    Each unique cell's weight sums ``load + parasitic`` of its stages
    from :meth:`RingOscillator.stages`, from zero in stage order; the
    period sums ``weight * curve`` over the cells in first-appearance
    order, from zero, each curve from two
    :func:`effective_saturation_current` calls of its own.  Takes any
    temperature grid that broadcasts against the ring's ``(samples, 1)``
    columns.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    total = 0.0
    for weight, cell in _ring_cell_weights(ring):
        total = total + weight * _delay_per_farad(cell, temps)
    return total


def _ring_cell_weights(ring):
    """``(weight, cell)`` per unique cell of a ring, in first-appearance order.

    Each weight sums ``load + parasitic`` of the cell's stages from
    :meth:`RingOscillator.stages`, from zero in stage order.
    """
    cells, weights = {}, {}
    for stage in ring.stages():
        name = stage.cell.name
        cells.setdefault(name, stage.cell)
        total_load = stage.load_f + stage.cell.output_parasitic_capacitance()
        weights[name] = weights.get(name, 0.0) + total_load
    return [(weights[name], cell) for name, cell in cells.items()]


def switched_capacitance_per_stage(ring):
    """A ring's switched capacitance, summed stage by stage from zero.

    Every stage's output load plus its own drain parasitics, from
    :meth:`RingOscillator.stages`: the ``C`` of ``P = f * Vdd^2 * C``.
    The package sums the ring's per-cell load weights instead.
    """
    return sum(
        stage.load_f + stage.cell.output_parasitic_capacitance() for stage in ring.stages()
    )


def endpoint_observable_per_cell(ring, temperatures_c, observable) -> np.ndarray:
    """A ring's endpoint observable summed from per-cell terms, written out.

    The sweep's order: with ``low_u``/``span_u`` each cell's curve at the
    extreme temperatures and its rise between them, the deviation
    ``D_u = (K_u - low_u) - span_u * f`` of each cell from its own
    endpoint line, and ``sum W * D``, ``sum W * span`` and
    ``sum W * (K - low)`` summed over the cells like
    :func:`period_series_per_cell`; each curve from two
    :func:`effective_saturation_current` calls of its own.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    index_low, index_high = int(np.argmin(temps)), int(np.argmax(temps))
    t_low, t_high = temps[index_low], temps[index_high]
    fraction = (temps - t_low) / (t_high - t_low)
    span = rise = deviation = 0.0
    for weight, cell in _ring_cell_weights(ring):
        curve = _delay_per_farad(cell, temps)
        low = curve[..., index_low : index_low + 1]
        span_u = curve[..., index_high : index_high + 1] - low
        span = span + weight * span_u
        rise = rise + weight * (curve - low)
        deviation = deviation + weight * ((curve - low) - span_u * fraction)
    if observable == "nonlinearity_percent":
        return deviation * (100.0 / np.abs(span))
    transfer = t_low + rise * ((t_high - t_low) / span)
    if observable == "calibration_error_c":
        return transfer - temps
    return transfer


def endpoint_observable_textbook(periods, temperatures_c, observable) -> np.ndarray:
    """An endpoint observable by its textbook formula over the periods ``P``.

    ``P`` has temperature last.  Non-linearity is
    ``(P - (P_low + slope * (T - t_low))) / |span| * 100``; the transfer
    curve is ``t_low + (t_high - t_low) / span * (P - P_low)``.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    index_low, index_high = int(np.argmin(temps)), int(np.argmax(temps))
    t_low, t_high = temps[index_low], temps[index_high]
    low = periods[..., index_low : index_low + 1]
    span = periods[..., index_high : index_high + 1] - low
    if observable == "nonlinearity_percent":
        line = low + span / (t_high - t_low) * (temps - t_low)
        return (periods - line) / np.abs(span) * 100.0
    transfer = t_low + (t_high - t_low) / span * (periods - low)
    if observable == "calibration_error_c":
        return transfer - temps
    return transfer


def period_tensor_loop(bank, temperatures_c, technologies=None) -> np.ndarray:
    """``ConfigurationBank.period_tensor`` as one ring evaluation per configuration.

    Evaluates one ring at a time through the stacked delay path
    (``period_series`` / ``period_matrix``): the way the configuration
    axis was swept before the bank existed.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    if technologies is None:
        return np.stack([ring.period_series(temps) for ring in bank.rings()])
    return np.stack(
        [ring.period_matrix(technologies, temps) for ring in bank.rings()]
    )


def monte_carlo_scalar(
    base_technology,
    configuration: RingConfiguration,
    sample_count: int = 25,
    temperatures_c: Optional[Sequence[float]] = None,
    reference_temperature_c: float = 25.0,
    seed: Optional[int] = 1234,
) -> MonteCarloStudy:
    """``run_monte_carlo`` as a per-sample library build and scalar sweep."""
    temps = (
        validate_temperature_grid(temperatures_c, context="monte_carlo_scalar sweep")
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    responses = []
    for sample in sample_technologies(base_technology, sample_count, seed=seed):
        ring = RingOscillator(default_library(sample), configuration)
        responses.append(
            TemperatureResponse(ring.label(), temps, period_series_scalar(ring, temps))
        )
    return MonteCarloStudy(
        label=configuration.label(),
        sample_count=sample_count,
        period_at_reference=summarize(
            [r.period_at(reference_temperature_c) for r in responses]
        ),
        nonlinearity_percent=summarize(
            [nonlinearity(r).max_abs_error_percent for r in responses]
        ),
        sensitivity_s_per_k=summarize([r.mean_sensitivity() for r in responses]),
        responses=responses,
    )


def supply_sensitivity_scalar(
    technology,
    configuration: RingConfiguration,
    temperature_c: float = 85.0,
    supply_delta_v: float = 0.05,
    temperature_delta_c: float = 5.0,
) -> SupplySensitivityReport:
    """``supply_sensitivity`` with a library rebuilt per operating point.

    Four ring builds (two supplies, two temperatures), one scalar
    ``period`` each, combined by the same central differences.
    """
    nominal_vdd = technology.vdd

    def period_at(vdd: float, temp_c: float) -> float:
        tech = technology.with_supply(vdd)
        ring = RingOscillator(default_library(tech), configuration)
        return ring.period(temp_c)

    period_per_volt = (
        period_at(nominal_vdd + supply_delta_v, temperature_c)
        - period_at(nominal_vdd - supply_delta_v, temperature_c)
    ) / (2.0 * supply_delta_v)
    period_per_kelvin = (
        period_at(nominal_vdd, temperature_c + temperature_delta_c)
        - period_at(nominal_vdd, temperature_c - temperature_delta_c)
    ) / (2.0 * temperature_delta_c)
    return SupplySensitivityReport(
        label=configuration.label(),
        nominal_supply_v=nominal_vdd,
        temperature_c=temperature_c,
        period_per_kelvin_s=period_per_kelvin,
        period_per_volt_s=period_per_volt,
    )


# --------------------------------------------------------------------------- #
# sensors
# --------------------------------------------------------------------------- #


def convert_scalar(config: ReadoutConfig, oscillation_period_s: float) -> Tuple[int, bool]:
    """One counter conversion: ``(code, saturated)`` for one period."""
    if oscillation_period_s <= 0.0:
        raise TechnologyError("oscillation period must be positive")
    ideal = config.window_s / oscillation_period_s
    code = int(math.floor(ideal))
    saturated = code > config.max_code
    if saturated:
        code = config.max_code
    return code, saturated


def code_to_period_scalar(config: ReadoutConfig, code: int) -> float:
    """Best-estimate period implied by a code (mid-quantisation-step)."""
    if code <= 0:
        raise TechnologyError("code must be positive to invert the conversion")
    return config.window_s / (code + 0.5)


def measured_period_scalar(ring, config: ReadoutConfig, temperature_c: float) -> float:
    """The period the digital block reconstructs from one scalar reading."""
    code, _saturated = convert_scalar(config, ring.period(float(temperature_c)))
    return code_to_period_scalar(config, code)


def two_point_calibration_scalar(
    periods_s: Sequence[float], temperatures_c: Sequence[float]
) -> LinearCalibration:
    """The line through two (period, temperature) points, in float arithmetic."""
    if len(periods_s) != 2 or len(temperatures_c) != 2:
        raise CalibrationError("two-point calibration needs exactly two points")
    period_low, period_high = float(periods_s[0]), float(periods_s[1])
    temp_low, temp_high = float(temperatures_c[0]), float(temperatures_c[1])
    if period_low <= 0.0 or period_high <= 0.0:
        raise CalibrationError("calibration periods must be positive")
    if period_low == period_high:
        raise CalibrationError("calibration periods must differ")
    if temp_low == temp_high:
        raise CalibrationError("calibration temperatures must differ")
    slope = (temp_high - temp_low) / (period_high - period_low)
    offset = temp_low - slope * period_low
    return LinearCalibration(slope_c_per_second=slope, offset_c=offset, kind="two-point")


def one_point_calibration_scalar(
    period_s: float, temperature_c: float, design_slope_c_per_second: float
) -> LinearCalibration:
    """The design slope anchored at one measured point, in float arithmetic."""
    if design_slope_c_per_second == 0.0:
        raise CalibrationError("design slope must be non-zero")
    if period_s <= 0.0:
        raise CalibrationError("measured period must be positive")
    offset = temperature_c - design_slope_c_per_second * float(period_s)
    return LinearCalibration(
        slope_c_per_second=design_slope_c_per_second, offset_c=offset, kind="one-point"
    )


def transfer_function_scalar(sensor, temperatures_c) -> SensorTransferFunction:
    """A sensor's transfer function, one counter conversion per temperature."""
    temps = np.asarray(temperatures_c, dtype=float)
    codes = []
    measured_periods = []
    for temp in temps:
        code, _saturated = convert_scalar(sensor.readout, sensor.ring.period(float(temp)))
        codes.append(float(code))
        measured_periods.append(code_to_period_scalar(sensor.readout, code))
    return SensorTransferFunction(
        temperatures_c=temps,
        codes=np.asarray(codes),
        measured_periods_s=np.asarray(measured_periods),
    )


def measurement_errors_scalar(sensor, temperatures_c) -> np.ndarray:
    """A calibrated sensor's errors (deg C), one measured period per point."""
    return np.asarray(
        [
            float(
                sensor.calibration.temperature(
                    measured_period_scalar(sensor.ring, sensor.readout, t)
                )
            )
            - float(t)
            for t in temperatures_c
        ]
    )


def _worst_error_scalar(sensor, temperatures_c) -> float:
    return float(np.max(np.abs(measurement_errors_scalar(sensor, temperatures_c))))


def calibration_study_scalar(
    technology=None,
    configuration_text: str = "2INV+3NAND2",
    readout: ReadoutConfig = ReadoutConfig(),
    monte_carlo_samples: int = 12,
    temperatures_c: Optional[Sequence[float]] = None,
    reference_temperature_c: float = 25.0,
    seed: int = 20250617,
) -> CalibrationStudyResult:
    """``run_calibration_study`` with one sensor object per technology sample."""
    tech = technology if technology is not None else CMOS035
    temps = (
        validate_temperature_grid(temperatures_c, context="calibration oracle sweep")
        if temperatures_c is not None
        else default_temperature_grid(points=17)
    )
    configuration = RingConfiguration.parse(configuration_text)

    def sensor_for(sample):
        ring = RingOscillator(default_library(sample), configuration)
        return SmartTemperatureSensor(ring, readout=readout, name=f"cal_{sample.name}")

    design_transfer = transfer_function_scalar(sensor_for(tech), temps)
    design_cal = design_calibration(
        design_transfer.measured_periods_s, design_transfer.temperatures_c
    )
    samples = list(corner_technologies(tech).values())
    samples.extend(sample_technologies(tech, monte_carlo_samples, seed=seed))

    worst_errors: Dict[str, List[float]] = {"design": [], "one-point": [], "two-point": []}
    for sample in samples:
        sensor = sensor_for(sample)

        sensor.install_calibration(design_cal)
        worst_errors["design"].append(_worst_error_scalar(sensor, temps))

        sensor.install_calibration(
            one_point_calibration_scalar(
                measured_period_scalar(sensor.ring, readout, reference_temperature_c),
                reference_temperature_c,
                design_cal.slope_c_per_second,
            )
        )
        worst_errors["one-point"].append(_worst_error_scalar(sensor, temps))

        endpoints = (float(temps[0]), float(temps[-1]))
        sensor.install_calibration(
            two_point_calibration_scalar(
                [measured_period_scalar(sensor.ring, readout, t) for t in endpoints],
                endpoints,
            )
        )
        worst_errors["two-point"].append(_worst_error_scalar(sensor, temps))

    return CalibrationStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        sample_count=len(samples),
        errors_by_scheme={k: summarize(v) for k, v in worst_errors.items()},
        worst_by_scheme={k: float(np.max(v)) for k, v in worst_errors.items()},
    )


def site_period_tensor_loop(
    bank, junction_temperatures_c, technologies=None
) -> np.ndarray:
    """``SensorBank.period_tensor`` as one scalar ring evaluation per site.

    With a population, one ring rebind per sample.
    """
    temps = bank._site_temperatures(junction_temperatures_c)
    if technologies is None:
        return np.asarray([bank.ring.period(float(t)) for t in temps])
    if isinstance(technologies, TechnologyArray):
        technologies = technologies.technologies()
    matrix = np.zeros((bank.site_count, len(technologies)))
    for column, technology in enumerate(technologies):
        ring = bank.ring.rebind(technology)
        matrix[:, column] = [ring.period(float(t)) for t in temps]
    return matrix


def bank_scan_loop(
    bank,
    junction_temperatures_c,
    technologies=None,
    calibrate_at: Optional[Tuple[float, float]] = None,
) -> BankScan:
    """``SensorBank.scan`` as one scalar measurement per site.

    Each site's sensor walks its own controller FSM, takes one scalar
    ring period and one scalar counter conversion and, with
    ``calibrate_at``, two-point calibrates itself from two scalar
    readings.  With a population there is one sensor per site per
    sample, and the result arrays are ``(site, sample)``.
    """
    temps = np.asarray(junction_temperatures_c, dtype=float)
    readout = bank.readout
    if technologies is None:
        rings = [bank.ring]
    else:
        if isinstance(technologies, TechnologyArray):
            technologies = technologies.technologies()
        rings = [bank.ring.rebind(t) for t in technologies]

    readings = []  # [ring][site]
    for ring in rings:
        row = []
        for temperature in temps:
            controller = MeasurementController(readout, bank.controller_config)
            cycles = controller.run_measurement()
            period = ring.period(float(temperature))
            code, saturated = convert_scalar(readout, period)
            measured = code_to_period_scalar(readout, code)
            estimate = None
            if calibrate_at is not None:
                calibration = two_point_calibration_scalar(
                    [measured_period_scalar(ring, readout, t) for t in calibrate_at],
                    calibrate_at,
                )
                estimate = float(calibration.temperature(measured))
            row.append(
                SensorReading(
                    code=code,
                    saturated=saturated,
                    conversion_time_s=cycles / readout.reference_clock_hz,
                    oscillator_period_s=period,
                    measured_period_s=measured,
                    temperature_estimate_c=estimate,
                    true_temperature_c=float(temperature),
                )
            )
        readings.append(row)

    def gather(field):
        arrays = [np.asarray([getattr(r, field) for r in row]) for row in readings]
        return arrays[0] if technologies is None else np.stack(arrays, axis=1)

    return BankScan(
        names=bank.names(),
        true_temperatures_c=temps,
        periods_s=gather("oscillator_period_s"),
        codes=gather("code"),
        saturated=gather("saturated"),
        measured_periods_s=gather("measured_period_s"),
        estimates_c=gather("temperature_estimate_c") if calibrate_at is not None else None,
        conversion_time_s=readings[-1][-1].conversion_time_s,
    )


def monitor_scan_scalar(
    monitor, calibrate_at: Tuple[float, float], power=None
) -> ThermalMonitorReport:
    """``ThermalMonitor.scan`` as one field sample and one sensor per site.

    Each site's junction temperature is sampled from the field one site
    at a time; :func:`bank_scan_loop` then two-point calibrates (at
    ``calibrate_at``, the monitor's insertion temperatures) and
    measures one scalar sensor per site.
    """
    if power is None:
        power = monitor.power_map_for_floorplan()
    true_map = monitor.temperature_field(power)
    bank = monitor.bank
    truths = [true_map.sample(site.x_mm, site.y_mm) for site in bank.sites()]
    scan = bank_scan_loop(bank, truths, calibrate_at=calibrate_at)
    site_truth = dict(zip(scan.names, truths))
    site_estimates = dict(zip(scan.names, (float(e) for e in scan.estimates_c)))
    return ThermalMonitorReport(
        scan=scan,
        true_map=true_map,
        site_true_temperatures_c=site_truth,
        site_estimates_c=site_estimates,
        reconstructed_map=monitor._reconstruct(site_estimates, true_map),
    )


# --------------------------------------------------------------------------- #
# thermal solves and thermal management
# --------------------------------------------------------------------------- #


def bilinear_sample(values, width_mm: float, height_mm: float, xs_mm, ys_mm) -> np.ndarray:
    """Bilinear read of die points from an ``(..., ny, nx)`` field stack.

    The read as one function that derives every point's indices and
    weights on each call: the reference for
    :class:`~repro.thermal.grid.BilinearSites`, which derives them once.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs_mm, dtype=float)
    ys = np.asarray(ys_mm, dtype=float)
    ny, nx = values.shape[-2], values.shape[-1]
    cell_w = width_mm / nx
    cell_h = height_mm / ny
    fx = xs / cell_w - 0.5
    fy = ys / cell_h - 0.5
    x0 = np.clip(np.floor(fx), 0, nx - 2).astype(int)
    y0 = np.clip(np.floor(fy), 0, ny - 2).astype(int)
    tx = np.clip(fx - x0, 0.0, 1.0)
    ty = np.clip(fy - y0, 0.0, 1.0)
    v00 = values[..., y0, x0]
    v01 = values[..., y0, x0 + 1]
    v10 = values[..., y0 + 1, x0]
    v11 = values[..., y0 + 1, x0 + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v01 * tx * (1 - ty)
        + v10 * (1 - tx) * ty
        + v11 * tx * ty
    )


def conductance_matrix(grid: ThermalGrid) -> sparse.csr_matrix:
    """The grid's conductance matrix ``G`` (``G * dT = P``), assembled.

    Vectorized COO assembly of the five-point stencil with adiabatic
    edges.  Each diagonal term is accumulated in a fixed order
    (below-neighbour, left-neighbour, vertical, right-neighbour,
    above-neighbour).
    """
    nx, ny = grid.nx, grid.ny
    size = nx * ny
    g_vertical = grid.vertical_conductance_w_per_k()
    g_h = grid.lateral_conductance_w_per_k(horizontal=True)
    g_v = grid.lateral_conductance_w_per_k(horizontal=False)
    index = np.arange(size).reshape(ny, nx)

    diagonal = np.zeros((ny, nx))
    diagonal[1:, :] += g_v       # edge to the cell below
    diagonal[:, 1:] += g_h       # edge to the cell on the left
    diagonal += g_vertical       # package path to ambient
    diagonal[:, :-1] += g_h      # edge to the cell on the right
    diagonal[:-1, :] += g_v      # edge to the cell above

    left = index[:, :-1].ravel()
    right = index[:, 1:].ravel()
    below = index[:-1, :].ravel()
    above = index[1:, :].ravel()
    rows = np.concatenate([index.ravel(), left, right, below, above])
    cols = np.concatenate([index.ravel(), right, left, above, below])
    data = np.concatenate(
        [
            diagonal.ravel(),
            np.full(left.size, -g_h),
            np.full(right.size, -g_h),
            np.full(below.size, -g_v),
            np.full(above.size, -g_v),
        ]
    )
    return sparse.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()


def transient_matrix(grid: ThermalGrid, timestep_s: float) -> sparse.csr_matrix:
    """The backward-Euler system ``C/dt + G`` of the grid, assembled."""
    capacitance = np.full(grid.nx * grid.ny, grid.cell_heat_capacity_j_per_k())
    return sparse.diags(capacitance / timestep_s) + conductance_matrix(grid)


def direct_solve(matrix):
    """A sparse-direct (SuperLU) solve of ``matrix``: the thermal reference.

    Accepts an ``(n,)`` vector or an ``(n, k)`` stack of right-hand
    sides, as the package's DCT solve does.
    """
    return factorized(matrix.tocsc())


def direct_stepper(grid: ThermalGrid, timestep_s: float) -> ThermalStepper:
    """A backward-Euler stepper whose ``(C/dt + G)`` solve is :func:`direct_solve`."""
    solve = SimpleNamespace(
        solve_owned=direct_solve(transient_matrix(grid, timestep_s))
    )
    return ThermalStepper(grid, timestep_s, solve)


def self_heating_error(
    background_power: PowerMap,
    sensor_x_mm: float,
    sensor_y_mm: float,
    oscillator_power_w: float,
    duty_cycle: float = 1.0,
    ambient_c: float = 45.0,
    parameters: ThermalGridParameters = ThermalGridParameters(),
) -> SelfHeatingReport:
    """``duty_cycle_study`` at one duty cycle, with its own solve.

    The time-averaged heating of a duty-cycled oscillator equals the
    steady-state heating of an oscillator drawing ``duty * power`` (the
    thermal time constants are far longer than the measurement window),
    so the duty cycle enters as a power scaling before the solve, where
    the study scales the solved full-power rise instead.
    """
    if not 0.0 <= duty_cycle <= 1.0:
        raise TechnologyError("duty cycle must lie in [0, 1]")
    if oscillator_power_w < 0.0:
        raise TechnologyError("oscillator power must be non-negative")

    grid = ThermalGrid.for_power_map(background_power, parameters)
    heated = background_power.copy()
    heated.add_point_source(sensor_x_mm, sensor_y_mm, oscillator_power_w * duty_cycle)
    baseline, with_sensor = ThermalOperator.for_grid(grid).solve_steady_state_multi(
        [background_power, heated], ambient_c
    )
    background_temp = baseline.sample(sensor_x_mm, sensor_y_mm)
    sensor_temp = with_sensor.sample(sensor_x_mm, sensor_y_mm)

    return SelfHeatingReport(
        duty_cycle=duty_cycle,
        oscillator_power_w=oscillator_power_w,
        temperature_rise_c=sensor_temp - background_temp,
        background_temperature_c=background_temp,
    )


def next_state_index(policy, index: int, reading: float) -> int:
    """One policy's FSM step: its new state index given the hottest reading."""
    last = len(policy.states) - 1
    if reading >= policy.emergency_threshold_c:
        return last
    if reading >= policy.throttle_threshold_c:
        return min(index + 1, last)
    if reading <= policy.release_threshold_c:
        return max(index - 1, 0)
    return index


def dtm_run_scalar(
    manager,
    policy,
    duration_s: float = 2.0,
    control_interval_s: float = 0.02,
    limit_c: float = 115.0,
    workload_scale: float = 1.0,
    stepper: Optional[ThermalStepper] = None,
) -> DtmResult:
    """``DynamicThermalManager.run`` as one policy's own closed loop.

    Every control interval takes one backward-Euler step of a single
    temperature-rise column, one bank scan of the sites and one scalar
    policy step: the per-policy loop ``run_bank`` advances in lockstep.
    By default the rise is kept as DCT coefficients and advanced by the
    shared operator's stepper in ``run_bank``'s arithmetic order
    (``factor * base_hat`` for the right-hand side, one inverse
    transform per step).  ``stepper`` (for the manager's grid and
    ``control_interval_s``) replaces it, e.g. by :func:`direct_stepper`,
    and then the rise steps in real space through ``stepper.step``.
    """
    bank = manager.monitor.bank
    site_xs, site_ys = bank.positions()
    base_power = manager.base_power_map
    base_flat = base_power.values_w.reshape(-1)
    grid = ThermalGrid.for_power_map(base_power, manager.monitor.thermal_parameters)
    spectral = stepper is None
    if spectral:
        stepper = ThermalOperator.for_grid(grid).stepper(control_interval_s)
        base_hat = stepper.spectrum(base_flat)
        rise_hat = np.zeros(base_flat.size)
    steps = transient_step_count(duration_s, control_interval_s)

    state_index = 0
    rise = np.zeros(base_flat.size)
    trace: List[DtmTracePoint] = []
    for step in range(1, steps + 1):
        state = policy.states[state_index]
        factor = workload_scale * state.power_scale
        power = base_power.scaled(factor)
        if spectral:
            rise_hat = stepper.advance(rise_hat, factor * base_hat)
            rise = stepper.field(rise_hat)
        else:
            rise = stepper.step(rise, power.values_w.reshape(-1))
        die_map = TemperatureMap(
            grid.width_mm,
            grid.height_mm,
            rise.reshape((grid.ny, grid.nx)) + manager.ambient_c,
        )
        scan = bank.scan(die_map.sample_points(site_xs, site_ys))
        hottest = float(np.max(scan.estimates_c))
        trace.append(
            DtmTracePoint(
                time_s=step * control_interval_s,
                state_name=state.name,
                power_w=power.total_power_w(),
                true_peak_c=die_map.max_c(),
                hottest_reading_c=hottest,
                performance=state.performance,
            )
        )
        state_index = next_state_index(policy, state_index, hottest)
    return DtmResult(trace=tuple(trace), limit_c=limit_c, final_map=die_map)


# --------------------------------------------------------------------------- #
# optimisation sweeps and studies
# --------------------------------------------------------------------------- #


def sweep_width_ratio_scalar(
    technology,
    ratios: Sequence[float] = PAPER_FIG2_RATIOS,
    nmos_width_um: float = 1.05,
    stage_count: int = 5,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> SizingSweepResult:
    """``sweep_width_ratio`` as one sized ring and scalar sweep per ratio."""
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    points = []
    for ratio in ratios:
        ring = build_sized_ring(technology, float(ratio), nmos_width_um, stage_count)
        response = TemperatureResponse(ring.label(), temps, period_series_scalar(ring, temps))
        points.append(
            SizingPoint(
                width_ratio=float(ratio),
                response=response,
                linearity=nonlinearity(response, fit_method),
            )
        )
    return SizingSweepResult(
        points=points, stage_count=stage_count, nmos_width_um=nmos_width_um
    )


def evaluate_configuration_scalar(
    library,
    configuration: RingConfiguration,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> CellMixCandidate:
    """``evaluate_configuration`` through a scalar sweep of one ring."""
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    ring = RingOscillator(library, configuration)
    response = TemperatureResponse(ring.label(), temps, period_series_scalar(ring, temps))
    return CellMixCandidate(
        configuration=configuration,
        response=response,
        linearity=nonlinearity(response, fit_method),
        area_um2=ring.area_um2(),
    )


def scaling_node_matrices_loop(configuration, nodes, temps):
    """The EXT-SCALING node matrices, one library and three sweeps per node.

    Same return contract as ``repro.experiments.scaling_study._node_matrices``:
    ``(periods[N, T], periods_25c[N], powers_25c[N])``.
    """
    rows = []
    periods_25c = []
    powers_25c = []
    for tech in nodes:
        library = default_library(tech)
        rows.append(
            Sweep(library=library, configuration=configuration)
            .over(Axis.temperature(temps))
            .run()
            .values
        )
        spot = Sweep(library=library, configuration=configuration).over(
            Axis.temperature([25.0])
        )
        periods_25c.append(spot.run().item())
        powers_25c.append(spot.observe("power").run().item())
    return (
        np.stack(rows),
        np.asarray(periods_25c, dtype=float),
        np.asarray(powers_25c, dtype=float),
    )
