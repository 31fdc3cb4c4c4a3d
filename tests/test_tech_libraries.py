"""Unit tests for repro.tech.libraries (predefined nodes and the registry)."""

import dataclasses

import pytest

from repro.tech import (
    CMOS013,
    CMOS018,
    CMOS025,
    CMOS035,
    Technology,
    TechnologyError,
    available_technologies,
    get_technology,
    register_technology,
)


class TestPredefinedNodes:
    def test_paper_node_is_035um_at_3v3(self):
        assert CMOS035.feature_size_um == pytest.approx(0.35)
        assert CMOS035.vdd == pytest.approx(3.3)

    def test_all_nodes_have_consistent_polarity(self):
        for tech in (CMOS035, CMOS025, CMOS018, CMOS013):
            assert tech.nmos.polarity == "nmos"
            assert tech.pmos.polarity == "pmos"

    def test_supply_scales_down_with_feature_size(self):
        nodes = [CMOS035, CMOS025, CMOS018, CMOS013]
        supplies = [tech.vdd for tech in nodes]
        assert supplies == sorted(supplies, reverse=True)

    def test_oxide_capacitance_scales_up_with_scaling(self):
        assert CMOS013.nmos.cox_f_per_um2 > CMOS035.nmos.cox_f_per_um2

    def test_thresholds_below_supply_everywhere(self):
        for tech in (CMOS035, CMOS025, CMOS018, CMOS013):
            assert tech.vdd > tech.nmos.vth0
            assert tech.vdd > tech.pmos.vth0

    def test_pmos_weaker_than_nmos(self):
        for tech in (CMOS035, CMOS025, CMOS018, CMOS013):
            assert tech.pmos.mobility < tech.nmos.mobility

    def test_thermal_range_matches_paper(self):
        assert (CMOS035.extra["t_min_c"], CMOS035.extra["t_max_c"]) == (-50.0, 150.0)


class TestRegistry:
    def test_available_sorted_by_feature_size(self):
        names = list(available_technologies())
        assert names[0] == "cmos035"
        assert names[-1] == "cmos013"

    def test_lookup_by_name(self):
        assert get_technology("cmos018") is CMOS018

    def test_unknown_name_raises(self):
        with pytest.raises(TechnologyError):
            get_technology("cmos007")

    def test_register_and_lookup_custom_node(self):
        custom = dataclasses.replace(CMOS035, name="cmos035_custom_test")
        register_technology(custom)
        assert get_technology("cmos035_custom_test") is custom

    def test_register_duplicate_requires_overwrite(self):
        custom = dataclasses.replace(CMOS035, name="cmos035_dup_test")
        register_technology(custom)
        with pytest.raises(TechnologyError):
            register_technology(custom)
        register_technology(custom, overwrite=True)
