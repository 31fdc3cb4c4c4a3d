"""Tests for the exact DCT-diagonalized (spectral) thermal solve.

The spectral solve is the package's only thermal solve.  Five layers
of evidence:

* the grid's matrix-free stencil (``ThermalGrid.apply_conductance``)
  equal to the assembled matrix (``oracles.conductance_matrix``) to
  1e-13 relative on a vector and on both memory orders of a stack,
* agreement with the sparse-direct reference (``oracles.direct_solve``)
  to 1e-10 relative on steady, multi-RHS and transient workloads over
  square, non-square, odd and two-cell grid extents, plus a hypothesis
  property over random grid parameters and timesteps,
* block solves whose columns are bitwise the single-column solves,
* the set-up guard rejecting a stencil that is not the uniform one the
  transform diagonalizes, and
* the 256x256 full die served exactly (energy conservation, agreement
  with the reference, DTM traces equal to a reference-stepped run), and
  ``import repro`` and ``import repro.engine`` loading no part of ``scipy``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import conductance_matrix, direct_solve, direct_stepper, dtm_run_scalar
from repro.core import DynamicThermalManager
from repro.experiments import example_policy_set
from repro.oscillator import RingConfiguration
from repro.tech import CMOS035, TechnologyError
from repro.thermal import (
    Floorplan,
    PowerMap,
    ThermalGrid,
    ThermalGridParameters,
    ThermalOperator,
)

SPECTRAL_RTOL = 1e-10

#: (width_mm, height_mm, nx, ny): square, non-square, odd and two-cell.
EXTENTS = [
    (8.0, 8.0, 24, 24),
    (8.0, 8.0, 48, 48),
    (8.0, 8.0, 96, 96),
    (10.0, 6.0, 40, 24),
    (7.0, 9.0, 33, 17),
    (8.0, 8.0, 2, 2),
    (8.0, 3.0, 2, 45),
]


def _relative_error(actual, reference):
    return np.max(np.abs(actual - reference) / np.abs(reference))


def _grid_at(resolution):
    power = PowerMap.from_floorplan(
        Floorplan.example_processor(), nx=resolution, ny=resolution
    )
    return ThermalGrid.for_power_map(power), power


@pytest.fixture(scope="module", params=EXTENTS, ids=lambda e: f"{e[2]}x{e[3]}")
def grid_and_rhs(request):
    width, height, nx, ny = request.param
    grid = ThermalGrid(width, height, nx, ny)
    rhs = np.random.default_rng(nx * 1000 + ny).uniform(0.1, 1.0, nx * ny)
    return grid, rhs


class TestStencil:
    """The matrix-free stencil against the assembled conductance matrix."""

    @pytest.mark.parametrize("layout", ["vector", "c-ordered", "column-major"])
    def test_matches_assembled_matrix(self, grid_and_rhs, layout):
        grid, rhs = grid_and_rhs
        if layout == "vector":
            x = rhs
        else:
            x = np.stack([rhs, -0.5 * rhs, rhs[::-1]], axis=1)
            if layout == "column-major":
                x = np.asfortranarray(x)
        expected = conductance_matrix(grid) @ x
        actual = grid.apply_conductance(x)
        assert actual.shape == x.shape
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))
        if x.ndim == 2:
            assert actual.T.flags.c_contiguous  # stacks come back column-major


class TestSpectralSolves:
    """The spectral solve against the sparse-direct reference."""

    def test_steady_agrees_with_direct(self, grid_and_rhs):
        grid, rhs = grid_and_rhs
        direct = direct_solve(conductance_matrix(grid))(rhs)
        spectral = ThermalOperator(grid).steady_rise(rhs)
        assert _relative_error(spectral, direct) <= SPECTRAL_RTOL

    def test_multi_rhs_agrees_with_direct(self, grid_and_rhs):
        grid, rhs = grid_and_rhs
        stack = np.stack([rhs, 0.25 * rhs, np.zeros_like(rhs), 2.0 * rhs], axis=1)
        direct = direct_solve(conductance_matrix(grid))(stack)
        spectral = ThermalOperator(grid).steady_rise(stack)
        assert spectral.shape == stack.shape
        # The zero column must come back exactly zero, not noise.
        assert np.array_equal(spectral[:, 2], np.zeros(rhs.size))
        nonzero = [0, 1, 3]
        assert _relative_error(spectral[:, nonzero], direct[:, nonzero]) <= SPECTRAL_RTOL

    def test_transient_stepping_agrees_with_direct(self, grid_and_rhs):
        grid, rhs = grid_and_rhs
        direct = direct_stepper(grid, 0.01)
        spectral = ThermalOperator(grid).stepper(0.01)
        rise_d = np.zeros(grid.nx * grid.ny)
        rise_s = np.zeros(grid.nx * grid.ny)
        # The agreement bound must hold at every step, not just the first.
        for _ in range(20):
            rise_d = direct.step(rise_d, rhs)
            rise_s = spectral.step(rise_s, rhs)
            assert _relative_error(rise_s, rise_d) <= SPECTRAL_RTOL

    def test_block_columns_equal_single_solves(self, grid_and_rhs):
        grid, rhs = grid_and_rhs
        operator = ThermalOperator(grid)
        stack = np.stack([rhs, 0.5 * rhs, rhs[::-1].copy()], axis=1)
        block = operator.steady_rise(stack)
        stepper = operator.stepper(1e-3)
        block_step = stepper.step(block, stack)
        for k in range(stack.shape[1]):
            assert np.array_equal(block[:, k], operator.steady_rise(stack[:, k]))
            assert np.array_equal(
                block_step[:, k], stepper.step(block[:, k], stack[:, k])
            )


class TestSpectralPropertyBased:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        nx=st.integers(min_value=2, max_value=40),
        ny=st.integers(min_value=2, max_value=40),
        width_mm=st.floats(min_value=1.0, max_value=20.0),
        height_mm=st.floats(min_value=1.0, max_value=20.0),
        thickness_mm=st.floats(min_value=0.1, max_value=1.0),
        conductivity=st.floats(min_value=50.0, max_value=200.0),
        package=st.floats(min_value=50.0, max_value=1000.0),
        timestep_s=st.one_of(st.none(), st.floats(min_value=1e-5, max_value=1.0)),
        data_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_agrees_with_direct(
        self,
        nx,
        ny,
        width_mm,
        height_mm,
        thickness_mm,
        conductivity,
        package,
        timestep_s,
        data_seed,
    ):
        parameters = ThermalGridParameters(
            die_thickness_mm=thickness_mm,
            silicon_conductivity_w_per_mk=conductivity,
            package_resistance_k_mm2_per_w=package,
        )
        grid = ThermalGrid(width_mm, height_mm, nx, ny, parameters)
        rhs = np.random.default_rng(data_seed).uniform(0.1, 1.0, (nx * ny, 2))
        spectral = ThermalOperator(grid)
        if timestep_s is None:
            expected = direct_solve(conductance_matrix(grid))(rhs)
            actual = spectral.steady_rise(rhs)
        else:
            expected = direct_stepper(grid, timestep_s).step(rhs, rhs)
            actual = spectral.stepper(timestep_s).step(rhs, rhs)
        assert _relative_error(actual, expected) <= SPECTRAL_RTOL


class TestSetUpGuard:
    """A stencil the DCT does not diagonalize never gets a spectral solve."""

    def test_non_uniform_conductance_rejected(self, monkeypatch):
        grid = ThermalGrid(8.0, 8.0, 16, 12)
        uniform = grid.apply_conductance

        def perturbed(x):
            result = uniform(x)
            result[40] *= 1.0 + 1e-6
            return result

        monkeypatch.setattr(grid, "apply_conductance", perturbed)
        operator = ThermalOperator(grid)
        with pytest.raises(TechnologyError, match="uniform five-point stencil"):
            operator.steady_solve()
        with pytest.raises(TechnologyError, match="uniform five-point stencil"):
            operator.stepper(1e-3)


class TestFullDieAutoRouting:
    """256x256: the spectral solve serves the full die exactly."""

    def test_steady_and_transient_without_factorizing(self):
        ThermalOperator.clear_cache()
        grid, power = _grid_at(256)
        operator = ThermalOperator.for_grid(grid)
        # Steady state: the mean rise over a uniform-conductance die is
        # pinned by energy conservation to R_ja * P_total.
        rise = operator.steady_rise(power.values_w.reshape(-1))
        expected = grid.junction_to_ambient_resistance_k_per_w() * power.total_power_w()
        assert np.mean(rise) == pytest.approx(expected, rel=1e-9)
        assert rise.min() > 0.0

        # Multi-RHS transient: an (n, 4) stack of workload scalings
        # advances through one block solve per step and stays ordered
        # by power.
        stack = np.stack(
            [scale * power.values_w.reshape(-1) for scale in (0.5, 1.0, 1.5, 2.0)],
            axis=1,
        )
        stepper = operator.stepper(1e-2)
        state = np.zeros_like(stack)
        for _ in range(5):
            state = stepper.step(state, stack)
        means = state.mean(axis=0)
        assert np.all(np.diff(means) > 0.0)
        # Columns scale linearly with the power scaling (linear system).
        assert np.allclose(state[:, 1] * 2.0, state[:, 3], rtol=1e-12)
        ThermalOperator.clear_cache()

    def test_agrees_with_direct_at_full_die(self):
        grid, power = _grid_at(256)
        rhs = power.values_w.reshape(-1)
        spectral = ThermalOperator(grid)
        assert _relative_error(
            spectral.steady_rise(rhs), direct_solve(conductance_matrix(grid))(rhs)
        ) <= SPECTRAL_RTOL
        rise_d = direct_stepper(grid, 0.02).step(np.zeros_like(rhs), rhs)
        rise_s = spectral.stepper(0.02).step(np.zeros_like(rhs), rhs)
        assert _relative_error(rise_s, rise_d) <= SPECTRAL_RTOL

    def test_dtm_state_traces_match_direct(self):
        floorplan = Floorplan.example_processor()
        floorplan.add_sensor_grid(3, 3)
        manager = DynamicThermalManager(
            CMOS035,
            floorplan,
            RingConfiguration.parse("2INV+3NAND2"),
            grid_resolution=256,
        )
        # A low limit makes the policies throttle within the run, so the
        # traces exercise state changes rather than a constant state.
        policies = example_policy_set(limit_c=60.0)
        assert len(policies) == 4
        run_kw = dict(duration_s=0.2, control_interval_s=0.02, workload_scale=1.2)
        grid = ThermalGrid.for_power_map(
            manager.base_power_map, manager.monitor.thermal_parameters
        )
        reference = direct_stepper(grid, run_kw["control_interval_s"])
        bank = manager.run_bank(policies, **run_kw)
        for label, policy in policies.items():
            direct = [
                p.state_name
                for p in dtm_run_scalar(manager, policy, stepper=reference, **run_kw).trace
            ]
            assert [p.state_name for p in bank.to_result(label).trace] == direct
            if label == "default":
                states = [
                    p.state_name for p in manager.run(policy=policy, **run_kw).trace
                ]
                assert states == direct
                assert len(set(states)) > 1
        assert len(np.unique(bank.state_indices)) > 1


def _imported_after_import_repro(module: str, package: str = "repro") -> bool:
    """Whether ``import package`` in a fresh interpreter imports ``module``."""
    source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(source)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = f"import sys, {package}; print({module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip() == "True"


def test_import_repro_does_not_import_scipy_fft():
    assert not _imported_after_import_repro("scipy.fft")


def test_import_repro_does_not_import_scipy_sparse_linalg():
    assert not _imported_after_import_repro("scipy.sparse.linalg")


def test_import_repro_does_not_import_scipy():
    assert not _imported_after_import_repro("scipy")


@pytest.mark.parametrize(
    "package", ["repro.engine", "repro.thermal", "repro.core.sensor_bank", "repro.serve"]
)
def test_import_repro_engine_does_not_import_scipy(package):
    # The cold start of the sweep engine, the thermal stack, the sensor
    # scan and the sweep service: none pays for scipy until a spectral
    # solve or an optimisation runs.
    assert not _imported_after_import_repro("scipy", package=package)
