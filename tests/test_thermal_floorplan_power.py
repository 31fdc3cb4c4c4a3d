"""Unit tests for floorplans and power maps."""

import numpy as np
import pytest

from oracles import block_contains, cell_center
from repro.tech import TechnologyError
from repro.thermal import Floorplan, FunctionalBlock, PowerMap, SensorSite


class TestFunctionalBlock:
    def test_contains_points(self):
        block = FunctionalBlock("core", 1.0, 1.0, 2.0, 2.0, 1.0)
        assert block_contains(block, 2.0, 2.0)
        assert not block_contains(block, 0.5, 0.5)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(TechnologyError):
            FunctionalBlock("bad", 0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(TechnologyError):
            FunctionalBlock("bad", 0.0, 0.0, 1.0, 1.0, -1.0)


class TestFloorplan:
    def test_add_block_inside_die(self):
        plan = Floorplan(5.0, 5.0)
        plan.add_block(FunctionalBlock("a", 0.0, 0.0, 2.0, 2.0, 1.0))
        assert plan.total_power_w() == pytest.approx(1.0)

    def test_block_outside_die_rejected(self):
        plan = Floorplan(5.0, 5.0)
        with pytest.raises(TechnologyError):
            plan.add_block(FunctionalBlock("a", 4.0, 4.0, 2.0, 2.0, 1.0))

    def test_duplicate_block_rejected(self):
        plan = Floorplan(5.0, 5.0)
        plan.add_block(FunctionalBlock("a", 0.0, 0.0, 1.0, 1.0, 1.0))
        with pytest.raises(TechnologyError):
            plan.add_block(FunctionalBlock("a", 1.0, 1.0, 1.0, 1.0, 1.0))

    def test_block_lookup(self):
        plan = Floorplan.example_processor()
        assert plan.block("core0").power_w > 0.0
        with pytest.raises(TechnologyError):
            plan.block("gpu")

    def test_sensor_sites_validated(self):
        plan = Floorplan(5.0, 5.0)
        plan.add_sensor_site(SensorSite("s0", 1.0, 1.0))
        with pytest.raises(TechnologyError):
            plan.add_sensor_site(SensorSite("s1", 6.0, 1.0))
        with pytest.raises(TechnologyError):
            plan.add_sensor_site(SensorSite("s0", 2.0, 2.0))

    def test_sensor_grid_placement(self):
        plan = Floorplan(8.0, 8.0)
        sites = plan.add_sensor_grid(3, 2)
        assert len(sites) == 6
        assert len(plan.sensor_sites()) == 6
        xs = sorted({site.x_mm for site in sites})
        assert xs == pytest.approx([8.0 / 6, 8.0 / 2, 8.0 * 5 / 6])

    def test_example_processor_is_consistent(self):
        plan = Floorplan.example_processor()
        assert plan.total_power_w() == pytest.approx(14.5)
        assert len(plan.blocks()) == 5


class TestPowerMap:
    def test_zeros_constructor(self):
        power = PowerMap.zeros(8.0, 8.0, 16, 16)
        assert power.total_power_w() == 0.0
        assert power.nx == 16 and power.ny == 16

    def test_from_floorplan_conserves_power(self, example_power_map):
        assert example_power_map.total_power_w() == pytest.approx(14.5, rel=1e-6)

    def test_power_concentrated_in_blocks(self, example_power_map):
        density = example_power_map.values_w / (
            example_power_map.cell_width_mm * example_power_map.cell_height_mm
        )
        # The hot core has a much higher density than the die average.
        assert density.max() > 3.0 * example_power_map.total_power_w() / 64.0

    def test_cell_geometry_helpers(self):
        power = PowerMap.zeros(8.0, 4.0, 8, 4)
        assert power.cell_width_mm == pytest.approx(1.0)
        assert power.cell_height_mm == pytest.approx(1.0)
        assert cell_center(power, 0, 0) == pytest.approx((0.5, 0.5))
        assert power.cell_index(7.9, 3.9) == (7, 3)

    def test_cell_index_outside_die_rejected(self):
        power = PowerMap.zeros(8.0, 8.0, 8, 8)
        with pytest.raises(TechnologyError):
            power.cell_index(9.0, 1.0)

    def test_point_source_addition(self):
        power = PowerMap.zeros(8.0, 8.0, 8, 8)
        power.add_point_source(4.0, 4.0, 0.5)
        assert power.total_power_w() == pytest.approx(0.5)

    def test_scaled_copy(self, example_power_map):
        scaled = example_power_map.scaled(2.0)
        assert scaled.total_power_w() == pytest.approx(29.0, rel=1e-6)
        assert example_power_map.total_power_w() == pytest.approx(14.5, rel=1e-6)

    def test_negative_power_rejected(self):
        with pytest.raises(TechnologyError):
            PowerMap(8.0, 8.0, np.full((4, 4), -1.0))

    def test_small_grid_rejected(self):
        with pytest.raises(TechnologyError):
            PowerMap.zeros(8.0, 8.0, 1, 4)
        # The constructor checks the map's own shape, not only zeros().
        with pytest.raises(TechnologyError, match="^ny must be an integer >= 2, got 1"):
            PowerMap(8.0, 8.0, [[1.0, 2.0]])
        with pytest.raises(TechnologyError, match="^nx must be an integer >= 2, got 1"):
            PowerMap(8.0, 8.0, [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width_mm", float("nan")),
            ("width_mm", float("inf")),
            ("height_mm", -8.0),
            ("height_mm", "8"),
            ("nx", 16.7),
            ("nx", None),
            ("ny", float("nan")),
            ("ny", float("inf")),
        ],
    )
    def test_malformed_zeros_names_the_field(self, field, value):
        arguments = {"width_mm": 8.0, "height_mm": 8.0, "nx": 16, "ny": 16}
        arguments[field] = value
        with pytest.raises(TechnologyError, match=f"^{field} must be"):
            PowerMap.zeros(**arguments)

    @pytest.mark.parametrize(
        "field, value", [("nx", 16.7), ("nx", None), ("ny", float("nan")), ("ny", "8")]
    )
    def test_malformed_rasterisation_names_the_field(self, field, value):
        arguments = {"nx": 16, "ny": 16, field: value}
        with pytest.raises(TechnologyError, match=f"^{field} must be an integer"):
            PowerMap.from_floorplan(Floorplan.example_processor(), **arguments)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_power_rejected(self, bad):
        values = np.ones((4, 4))
        values[1, 2] = bad
        with pytest.raises(TechnologyError, match="values_w has non-finite"):
            PowerMap(8.0, 8.0, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_malformed_point_source_rejected(self, bad):
        power = PowerMap.zeros(8.0, 8.0, 8, 8)
        with pytest.raises(TechnologyError, match="^power_w must be"):
            power.add_point_source(4.0, 4.0, bad)
        assert power.total_power_w() == 0.0

    def test_integral_float_resolution_accepted(self):
        power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=16.0, ny=12)
        assert power.values_w.shape == (12, 16)
        assert power.total_power_w() == pytest.approx(14.5, rel=1e-6)


def _rasterise_oracle(floorplan, nx, ny):
    """The per-cell loop :meth:`PowerMap.from_floorplan` replaced (the oracle)."""
    power = PowerMap.zeros(floorplan.width_mm, floorplan.height_mm, nx, ny)
    for block in floorplan.blocks():
        mask = np.zeros((ny, nx), dtype=bool)
        for row in range(ny):
            for column in range(nx):
                x, y = cell_center(power, column, row)
                if block_contains(block, x, y):
                    mask[row, column] = True
        covered = int(np.count_nonzero(mask))
        if covered == 0:
            column, row = power.cell_index(*block.center)
            power.values_w[row, column] += block.power_w
        else:
            power.values_w[mask] += block.power_w / covered
    return power


def _random_floorplan(seed, nx, ny):
    """Blocks of three kinds: free, snapped to cell centres, sub-cell."""
    rng = np.random.default_rng(seed)
    width, height = rng.uniform(2.0, 12.0, 2)
    plan = Floorplan(width, height)
    cell_w, cell_h = width / nx, height / ny
    for index in range(int(rng.integers(1, 8))):
        kind = index % 3
        if kind == 0:
            w, h = rng.uniform(0.05, 1.0) * width, rng.uniform(0.05, 1.0) * height
            x, y = rng.uniform(0.0, width - w), rng.uniform(0.0, height - h)
        elif kind == 1:
            # Both edges of the block lie exactly on cell centres.
            c0, c1 = sorted(rng.choice(nx, 2, replace=False))
            r0, r1 = sorted(rng.choice(ny, 2, replace=False))
            x, y = (c0 + 0.5) * cell_w, (r0 + 0.5) * cell_h
            w, h = (c1 + 0.5) * cell_w - x, (r1 + 0.5) * cell_h - y
        else:
            # Smaller than a cell, so it may cover no centre at all.
            w, h = rng.uniform(0.05, 0.4) * cell_w, rng.uniform(0.05, 0.4) * cell_h
            x, y = rng.uniform(0.0, width - w), rng.uniform(0.0, height - h)
        plan.add_block(FunctionalBlock(f"b{index}", x, y, w, h, rng.uniform(0.0, 3.0)))
    return plan


class TestRasterise:
    """The vectorized rasterisation is bitwise the per-cell loop."""

    @pytest.mark.parametrize("resolution", [7, 32, 100])
    def test_example_processor_matches_loop(self, resolution):
        plan = Floorplan.example_processor()
        fast = PowerMap.from_floorplan(plan, nx=resolution, ny=resolution)
        assert np.array_equal(
            fast.values_w, _rasterise_oracle(plan, resolution, resolution).values_w
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_floorplans_match_loop(self, seed):
        nx, ny = (int(n) for n in np.random.default_rng(seed).integers(2, 40, 2))
        plan = _random_floorplan(seed, nx, ny)
        fast = PowerMap.from_floorplan(plan, nx=nx, ny=ny)
        assert np.array_equal(fast.values_w, _rasterise_oracle(plan, nx, ny).values_w)

    def test_edges_on_cell_centres_are_inclusive(self):
        # A block spanning exactly from one cell centre to another covers
        # both end cells: block edges are inclusive.
        plan = Floorplan(8.0, 8.0)
        plan.add_block(FunctionalBlock("strip", 0.5, 0.5, 2.0, 1.0, 6.0))
        power = PowerMap.from_floorplan(plan, nx=8, ny=8)
        assert np.count_nonzero(power.values_w) == 6
        assert power.values_w[0:2, 0:3] == pytest.approx(np.full((2, 3), 1.0))

    def test_sub_cell_block_lands_in_its_centre_cell(self):
        plan = Floorplan(8.0, 8.0)
        plan.add_block(FunctionalBlock("tiny", 5.1, 2.1, 0.2, 0.2, 0.75))
        power = PowerMap.from_floorplan(plan, nx=8, ny=8)
        assert power.values_w[2, 5] == 0.75
        assert power.total_power_w() == 0.75
