"""Unit tests for repro.tech.corners (process corners and Monte-Carlo)."""

import numpy as np
import pytest

from repro.tech import (
    CMOS035,
    STANDARD_CORNERS,
    CornerSpec,
    TechnologyError,
    VariationModel,
    apply_corner,
    corner_technologies,
    sample_technology_array,
)


class TestCorners:
    def test_standard_corner_set(self):
        assert set(STANDARD_CORNERS) == {"TT", "FF", "SS", "FS", "SF"}

    def test_tt_corner_is_identity(self):
        tt = apply_corner(CMOS035, STANDARD_CORNERS["TT"])
        assert tt.nmos.vth0 == pytest.approx(CMOS035.nmos.vth0)
        assert tt.pmos.mobility == pytest.approx(CMOS035.pmos.mobility)

    def test_ff_corner_is_faster(self):
        ff = apply_corner(CMOS035, STANDARD_CORNERS["FF"])
        assert ff.nmos.vth0 < CMOS035.nmos.vth0
        assert ff.nmos.mobility > CMOS035.nmos.mobility

    def test_ss_corner_is_slower(self):
        ss = apply_corner(CMOS035, STANDARD_CORNERS["SS"])
        assert ss.nmos.vth0 > CMOS035.nmos.vth0
        assert ss.pmos.mobility < CMOS035.pmos.mobility

    def test_skewed_corners_move_devices_oppositely(self):
        fs = apply_corner(CMOS035, STANDARD_CORNERS["FS"])
        assert fs.nmos.vth0 < CMOS035.nmos.vth0
        assert fs.pmos.vth0 > CMOS035.pmos.vth0

    def test_corner_name_appended_to_technology(self):
        ss = apply_corner(CMOS035, STANDARD_CORNERS["SS"])
        assert ss.name.endswith("_ss")

    def test_corner_technologies_selection(self):
        corners = corner_technologies(CMOS035, ["FF", "SS"])
        assert set(corners) == {"FF", "SS"}

    def test_unknown_corner_rejected(self):
        with pytest.raises(TechnologyError):
            corner_technologies(CMOS035, ["XX"])

    def test_extreme_shift_rejected(self):
        bad = CornerSpec("BAD", -1.0, 0.0, 1.0, 1.0)
        with pytest.raises(TechnologyError):
            apply_corner(CMOS035, bad)

    def test_describe_mentions_shifts(self):
        text = STANDARD_CORNERS["FF"].describe()
        assert "FF" in text and "mV" in text


class TestMonteCarlo:
    def test_sample_count_and_names(self):
        samples = sample_technology_array(CMOS035, 5, seed=1).technologies()
        assert len(samples) == 5
        assert len({s.name for s in samples}) == 5

    def test_seed_reproducibility(self):
        a = sample_technology_array(CMOS035, 4, seed=42)
        b = sample_technology_array(CMOS035, 4, seed=42)
        np.testing.assert_array_equal(a.nmos.vth0, b.nmos.vth0)
        np.testing.assert_array_equal(a.pmos.mobility, b.pmos.mobility)

    def test_different_seeds_differ(self):
        a = sample_technology_array(CMOS035, 3, seed=1).technology_at(0)
        b = sample_technology_array(CMOS035, 3, seed=2).technology_at(0)
        assert a.nmos.vth0 != pytest.approx(b.nmos.vth0, abs=1e-12)

    def test_variation_statistics_roughly_match_model(self):
        model = VariationModel(vth_sigma=0.02, mobility_sigma_rel=0.03)
        population = sample_technology_array(CMOS035, 200, model=model, seed=7)
        vths = np.asarray(population.nmos.vth0).reshape(-1)
        assert np.std(vths) == pytest.approx(0.02, rel=0.35)
        assert np.mean(vths) == pytest.approx(CMOS035.nmos.vth0, abs=0.01)

    def test_zero_count_rejected(self):
        with pytest.raises(TechnologyError):
            sample_technology_array(CMOS035, 0)

    def test_invalid_variation_model_rejected(self):
        with pytest.raises(TechnologyError):
            VariationModel(correlated_fraction=1.5)
        with pytest.raises(TechnologyError):
            VariationModel(vth_sigma=-0.1)
