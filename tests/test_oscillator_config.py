"""Unit tests for ring-oscillator configurations and the compact notation."""

import pytest

from repro.oscillator import (
    PAPER_FIG3_CONFIGURATIONS,
    ConfigurationError,
    RingConfiguration,
    paper_fig3_configurations,
)


class TestConstruction:
    def test_minimum_three_stages(self):
        with pytest.raises(ConfigurationError):
            RingConfiguration(("INV",))

    def test_even_stage_count_rejected(self):
        with pytest.raises(ConfigurationError):
            RingConfiguration(("INV", "INV", "INV", "INV"))

    def test_names_normalised_to_uppercase(self):
        config = RingConfiguration(("inv", "nand2", "inv"))
        assert config.stages == ("INV", "NAND2", "INV")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RingConfiguration(("INV", "", "INV"))

    def test_uniform_constructor(self):
        config = RingConfiguration.uniform("NAND2", 7)
        assert config.stage_count == 7
        assert config.is_uniform()

    def test_from_counts_preserves_order(self):
        config = RingConfiguration.from_counts([("INV", 2), ("NAND2", 3)])
        assert config.stages == ("INV", "INV", "NAND2", "NAND2", "NAND2")


class TestParsing:
    def test_parse_simple_group(self):
        assert RingConfiguration.parse("5INV").stage_count == 5

    def test_parse_mixed_groups(self):
        config = RingConfiguration.parse("2INV+3NAND2")
        assert config.counts() == {"INV": 2, "NAND2": 3}

    def test_parse_bare_name_counts_one(self):
        config = RingConfiguration.parse("INV+2NAND2+2NOR2")
        assert config.stage_count == 5

    def test_parse_rejects_empty_string(self):
        with pytest.raises(ConfigurationError):
            RingConfiguration.parse("   ")

    def test_parse_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            RingConfiguration.parse("0INV+5NAND2")

    def test_parse_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            RingConfiguration.parse("2INV++3NAND2")

    def test_label_round_trip(self):
        for text in ("5INV", "2INV+3NAND2", "3NAND3+2NOR2"):
            assert RingConfiguration.parse(text).label() == text

    def test_str_is_label(self):
        config = RingConfiguration.parse("5NAND2")
        assert str(config) == "5NAND2"


class TestQueries:
    def test_counts_summary(self):
        config = RingConfiguration.parse("3INV+2NAND3")
        assert config.counts() == {"INV": 3, "NAND3": 2}


class TestPaperConfigurations:
    def test_six_configurations(self):
        assert len(PAPER_FIG3_CONFIGURATIONS) == 6

    def test_all_are_five_stages(self):
        for config in PAPER_FIG3_CONFIGURATIONS.values():
            assert config.stage_count == 5

    def test_includes_plain_inverter_ring(self):
        assert "5INV" in PAPER_FIG3_CONFIGURATIONS

    def test_factory_returns_fresh_dict(self):
        first = paper_fig3_configurations()
        second = paper_fig3_configurations()
        assert first is not second
        assert first.keys() == second.keys()
