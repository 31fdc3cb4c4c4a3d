"""Unit tests for the thermal RC grid, its solves and the self-heating study."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import bilinear_sample, self_heating_error
from repro.circuit.transient import transient_step_count
from repro.core import DynamicThermalManager
from repro.oscillator import RingConfiguration
from repro.tech import CMOS035, TechnologyError
from repro.thermal import (
    Floorplan,
    PowerMap,
    TemperatureMap,
    ThermalGrid,
    ThermalGridParameters,
    ThermalOperator,
    duty_cycle_study,
    solve_steady_state,
)
from repro.thermal.grid import BilinearSites


# The uniform power map / grid pair and the example-processor grid are
# shared session fixtures in conftest.py (uniform_power_map /
# uniform_grid / example_grid).


class TestGridConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(TechnologyError):
            ThermalGridParameters(die_thickness_mm=0.0)
        with pytest.raises(TechnologyError):
            ThermalGridParameters(package_resistance_k_mm2_per_w=-1.0)

    def test_small_grid_rejected(self):
        with pytest.raises(TechnologyError):
            ThermalGrid(8.0, 8.0, 1, 8)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width_mm", float("nan")),
            ("width_mm", float("inf")),
            ("height_mm", -8.0),
            ("height_mm", "8"),
            ("nx", 16.7),
            ("nx", float("nan")),
            ("ny", float("inf")),
            ("ny", None),
        ],
    )
    def test_malformed_grid_names_the_field(self, field, value):
        arguments = {"width_mm": 8.0, "height_mm": 8.0, "nx": 16, "ny": 16}
        arguments[field] = value
        with pytest.raises(TechnologyError, match=f"^{field} must be"):
            ThermalGrid(**arguments)

    @pytest.mark.parametrize(
        "field",
        [
            "die_thickness_mm",
            "silicon_conductivity_w_per_mk",
            "package_resistance_k_mm2_per_w",
            "volumetric_heat_capacity_j_per_mm3k",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_malformed_parameter_names_the_field(self, field, value):
        with pytest.raises(TechnologyError, match=f"^{field} must be positive and finite"):
            ThermalGridParameters(**{field: value})

    @pytest.mark.parametrize(
        "parameters",
        [
            ThermalGridParameters(package_resistance_k_mm2_per_w=1e-320),
            ThermalGridParameters(die_thickness_mm=5e-324),
        ],
        ids=["vertical-overflow", "lateral-underflow"],
    )
    def test_cell_conductance_over_or_underflow_rejected(self, parameters):
        with pytest.raises(TechnologyError, match="over- or underflow"):
            ThermalGrid(8.0, 8.0, 16, 16, parameters)

    def test_integral_float_resolution_accepted(self):
        grid = ThermalGrid(8.0, 8.0, 16.0, np.int64(12))
        assert (grid.nx, grid.ny) == (16, 12)
        assert isinstance(grid.nx, int) and isinstance(grid.ny, int)

    def test_junction_to_ambient_resistance_realistic(self, uniform_grid):
        theta = uniform_grid.junction_to_ambient_resistance_k_per_w()
        assert 1.0 < theta < 10.0

    def test_conductance_matrix_symmetric(self, uniform_grid):
        # The stencil is a symmetric operator (x.Gy == y.Gx) whose rows
        # sum to the vertical conductance: lateral flow conserves heat.
        rng = np.random.default_rng(3)
        size = uniform_grid.nx * uniform_grid.ny
        x, y = rng.standard_normal((2, size))
        x_gy = x @ uniform_grid.apply_conductance(y)
        y_gx = y @ uniform_grid.apply_conductance(x)
        assert x_gy == pytest.approx(y_gx, rel=1e-13)
        ones = uniform_grid.apply_conductance(np.ones(size))
        assert np.allclose(
            ones, uniform_grid.vertical_conductance_w_per_k(), rtol=1e-13, atol=0.0
        )

    def test_power_map_mismatch_detected(self, uniform_grid):
        other = PowerMap.zeros(8.0, 8.0, 6, 6)
        with pytest.raises(TechnologyError):
            uniform_grid.check_power_map(other)


class TestSteadyState:
    def test_uniform_power_gives_uniform_rise(self, uniform_grid, uniform_power_map):
        result = solve_steady_state(uniform_grid, uniform_power_map, ambient_c=45.0)
        rise = result.values_c - 45.0
        assert np.all(rise > 0.0)
        # Uniform power on a uniform grid: nearly uniform temperature.
        assert result.gradient_c() < 0.5

    def test_average_rise_matches_theta_ja(self, uniform_grid, uniform_power_map):
        result = solve_steady_state(uniform_grid, uniform_power_map, ambient_c=45.0)
        theta = uniform_grid.junction_to_ambient_resistance_k_per_w()
        expected = 10.0 * theta
        assert result.mean_c() - 45.0 == pytest.approx(expected, rel=0.05)

    def test_linearity_in_power(self, uniform_grid, uniform_power_map):
        single = solve_steady_state(uniform_grid, uniform_power_map, ambient_c=0.0)
        double = solve_steady_state(uniform_grid, uniform_power_map.scaled(2.0), ambient_c=0.0)
        assert np.allclose(double.values_c, 2.0 * single.values_c, rtol=1e-9)

    def test_hotspot_located_at_point_source(self, uniform_grid):
        power = PowerMap.zeros(8.0, 8.0, 12, 12)
        power.add_point_source(2.0, 6.0, 3.0)
        result = solve_steady_state(uniform_grid, power, ambient_c=45.0)
        x, y = result.hotspot_location()
        assert x == pytest.approx(2.0, abs=0.5)
        assert y == pytest.approx(6.0, abs=0.5)

    def test_example_floorplan_produces_gradient(self, example_power_map, example_grid):
        result = solve_steady_state(example_grid, example_power_map, ambient_c=45.0)
        assert result.gradient_c() > 5.0
        assert result.max_c() < 150.0


class TestTemperatureMap:
    def test_sample_interpolates_inside_die(self, uniform_grid, uniform_power_map):
        result = solve_steady_state(uniform_grid, uniform_power_map, ambient_c=45.0)
        centre = result.sample(4.0, 4.0)
        assert result.min_c() <= centre <= result.max_c()

    def test_sample_outside_die_rejected(self, uniform_grid, uniform_power_map):
        result = solve_steady_state(uniform_grid, uniform_power_map, ambient_c=45.0)
        with pytest.raises(TechnologyError):
            result.sample(9.0, 1.0)

    def test_invalid_shape_rejected(self):
        with pytest.raises(TechnologyError):
            TemperatureMap(8.0, 8.0, np.zeros(10))


#: Ambients from well below freezing to far beyond the die's range, so a
#: shifted read meets both signs and large exponents.
ambients = st.one_of(
    st.floats(min_value=-300.0, max_value=300.0),
    st.sampled_from([-1e12, -45.0, 0.0, 1e6, 1e12]),
)


@st.composite
def die_reads(draw):
    """A rise-plane stack, an ambient and sites that include edges and corners."""
    nx = draw(st.integers(min_value=2, max_value=9))
    ny = draw(st.integers(min_value=2, max_value=9))
    width = draw(st.floats(min_value=0.5, max_value=20.0))
    height = draw(st.floats(min_value=0.5, max_value=20.0))
    planes = draw(
        arrays(
            float,
            (draw(st.integers(min_value=1, max_value=3)), ny, nx),
            elements=st.floats(min_value=-50.0, max_value=500.0),
        )
    )
    count = draw(st.integers(min_value=1, max_value=6))

    def coordinate(extent):
        return st.one_of(
            st.sampled_from([0.0, extent]), st.floats(min_value=0.0, max_value=extent)
        )

    xs = np.asarray(draw(st.lists(coordinate(width), min_size=count, max_size=count)))
    ys = np.asarray(draw(st.lists(coordinate(height), min_size=count, max_size=count)))
    return width, height, planes, xs, ys, draw(ambients)


class TestBilinearSites:
    """The site plan reads bitwise what the per-call bilinear read computes."""

    @given(read=die_reads())
    @settings(max_examples=150, deadline=None)
    def test_shifted_read_matches_sample_points_of_shifted_field(self, read):
        width, height, planes, xs, ys, ambient = read
        ny, nx = planes.shape[1:]
        sites = BilinearSites(width, height, nx, ny, xs, ys)
        shifted = sites.sample(planes, ambient)
        for k, plane in enumerate(planes):
            field = TemperatureMap(width, height, plane + ambient)
            assert np.array_equal(shifted[k], field.sample_points(xs, ys))
            assert np.array_equal(
                shifted[k], bilinear_sample(plane + ambient, width, height, xs, ys)
            )

    @given(read=die_reads())
    @settings(max_examples=100, deadline=None)
    def test_unshifted_read_matches_reference(self, read):
        width, height, planes, xs, ys, _ = read
        ny, nx = planes.shape[1:]
        sites = BilinearSites(width, height, nx, ny, xs, ys)
        assert np.array_equal(
            sites.sample(planes), bilinear_sample(planes, width, height, xs, ys)
        )

    @given(read=die_reads())
    @settings(max_examples=150, deadline=None)
    def test_field_free_peak_matches_max_c(self, read):
        # run_bank's peak: the column maxima of the column-major rise
        # stack plus the ambient, never the field itself.
        width, height, planes, _, _, ambient = read
        rise = planes.reshape(planes.shape[0], -1).T
        peaks = rise.max(axis=0) + ambient
        for k, plane in enumerate(planes):
            assert peaks[k] == TemperatureMap(width, height, plane + ambient).max_c()

    @pytest.mark.parametrize(
        "x, y", [(-1e-9, 1.0), (8.0 + 1e-9, 1.0), (1.0, -1.0), (1.0, 9.0), (np.nan, 1.0)]
    )
    def test_off_die_site_rejected(self, x, y):
        with pytest.raises(TechnologyError, match="outside the die"):
            BilinearSites(8.0, 8.0, 4, 4, [1.0, x], [1.0, y])

    def test_mismatched_coordinates_rejected(self):
        with pytest.raises(TechnologyError, match="must match in shape"):
            BilinearSites(8.0, 8.0, 4, 4, [1.0, 2.0], [1.0])


class TestTransient:
    """Backward-Euler stepping through ``ThermalOperator.stepper``."""

    @staticmethod
    def _max_trace(stepper, power, steps, rise):
        trace = [rise.max()]
        for _ in range(steps):
            rise = stepper.step(rise, power.values_w.reshape(-1))
            trace.append(rise.max())
        return np.asarray(trace)

    def test_warms_towards_steady_state(self, uniform_grid, uniform_power_map):
        steady = solve_steady_state(uniform_grid, uniform_power_map, ambient_c=45.0)
        stepper = ThermalOperator.for_grid(uniform_grid).stepper(0.01)
        rise = np.zeros(uniform_grid.nx * uniform_grid.ny)
        trace = 45.0 + self._max_trace(stepper, uniform_power_map, 200, rise)
        assert trace[0] == pytest.approx(45.0, abs=0.1)
        assert np.all(np.diff(trace) >= -1e-9)
        assert trace[-1] == pytest.approx(steady.max_c(), rel=0.05)

    def test_cooling_when_power_removed(self, uniform_grid, uniform_power_map):
        steady = solve_steady_state(uniform_grid, uniform_power_map, ambient_c=45.0)
        off = PowerMap.zeros(8.0, 8.0, 12, 12)
        stepper = ThermalOperator.for_grid(uniform_grid).stepper(0.01)
        rise = (steady.values_c - 45.0).reshape(-1)
        trace = 45.0 + self._max_trace(stepper, off, 100, rise)
        assert trace[-1] < steady.max_c()
        assert np.all(np.diff(trace) <= 1e-9)

    @pytest.fixture(scope="class")
    def manager(self):
        floorplan = Floorplan.example_processor()
        floorplan.add_sensor_grid(2, 2)
        return DynamicThermalManager(
            CMOS035, floorplan, RingConfiguration.parse("2INV+3NAND2"), grid_resolution=8
        )

    @pytest.mark.parametrize(
        "duration_s, timestep_s, steps",
        [(0.14, 0.02, 7), (0.07, 0.01, 7), (0.33, 0.03, 11), (0.54, 0.03, 18), (0.15, 0.02, 8)],
    )
    def test_step_count_does_not_overshoot_duration(
        self, manager, duration_s, timestep_s, steps
    ):
        # 0.14 / 0.02 is 7.000000000000001 in floats: 7 steps, not 8.
        # A ratio that is not an integer (0.15 / 0.02) still rounds up.
        # The DTM loop counts its control steps this way.
        assert transient_step_count(duration_s, timestep_s) == steps
        trace = manager.run(duration_s=duration_s, control_interval_s=timestep_s).trace
        assert len(trace) == steps
        assert trace[-1].time_s == pytest.approx(steps * timestep_s)


class TestSelfHeating:
    def test_heating_scales_with_duty_cycle(self, example_power_map):
        full = self_heating_error(example_power_map, 2.0, 6.0, 0.02, duty_cycle=1.0)
        tenth = self_heating_error(example_power_map, 2.0, 6.0, 0.02, duty_cycle=0.1)
        assert full.temperature_rise_c > 0.0
        assert tenth.temperature_rise_c == pytest.approx(
            0.1 * full.temperature_rise_c, rel=0.05
        )

    def test_invalid_duty_cycle_rejected(self, example_power_map):
        with pytest.raises(TechnologyError):
            self_heating_error(example_power_map, 2.0, 6.0, 0.02, duty_cycle=1.5)

    def test_duty_cycle_study_ordering(self, example_power_map):
        reports = duty_cycle_study(
            example_power_map, 2.0, 6.0, 0.02, duty_cycles=(1.0, 0.1, 0.01)
        )
        rises = [r.temperature_rise_c for r in reports]
        assert rises[0] > rises[1] > rises[2]
