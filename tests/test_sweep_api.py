"""Tests for the declarative sweep API and the stacked configuration axis.

Three concerns, matching the PR's acceptance criteria:

* :class:`~repro.engine.sweep.SweepResult` is a faithful labeled
  container — property-based round trips prove that axis names and
  coordinates survive ``select`` / ``isel`` / ``squeeze``;
* the configuration axis is *correct* — the single ``(C, S, T)``
  broadcast of :class:`~repro.oscillator.bank.ConfigurationBank` is
  pinned to the per-configuration loop oracle (and through it to the
  scalar oracle) at 1e-9 relative on all ``PAPER_FIG3_CONFIGURATIONS``;
* the planner lowers every axis combination onto the same numbers the
  pre-sweep entry points produced.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.linearity import nonlinearity
from repro.cells import default_library
from oracles import period_matrix_loop, period_series_scalar, period_tensor_loop
from repro import ReproInputError
from repro.engine import Axis, Sweep, SweepError, SweepResult
from repro.oscillator import (
    PAPER_FIG3_CONFIGURATIONS,
    ConfigurationBank,
    RingConfiguration,
    RingOscillator,
)
from repro.oscillator.period import TemperatureResponse
from repro.tech import CMOS035, TechnologyError, sample_technology_array

#: The acceptance bound on broadcast-vs-loop relative period error.
RTOL = 1e-9

DEFAULT_SETTINGS = dict(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def relative_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


# --------------------------------------------------------------------------- #
# SweepResult: property-based label round trips
# --------------------------------------------------------------------------- #

_axis_names = st.permutations(
    ["configuration", "width_ratio", "supply", "sample", "temperature"]
).map(tuple)


@st.composite
def labeled_results(draw):
    """A random SweepResult with unique labels on every axis."""
    name_count = draw(st.integers(min_value=1, max_value=4))
    names = draw(_axis_names)[:name_count]
    # Canonical order is part of the contract the planner upholds, but
    # the container itself accepts any order; exercise both.
    coords = {}
    shape = []
    for name in names:
        size = draw(st.integers(min_value=1, max_value=4))
        labels = tuple(f"{name}-{i}" for i in range(size))
        coords[name] = labels
        shape.append(size)
    values = np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
    return SweepResult(values=values, dims=tuple(names), coords=coords)


@given(result=labeled_results(), data=st.data())
@settings(**DEFAULT_SETTINGS)
def test_select_round_trip_preserves_labels_and_values(result, data):
    # Selecting one coordinate from one axis drops exactly that axis,
    # keeps every other axis's labels intact, and slices the values.
    name = data.draw(st.sampled_from(result.dims))
    index = data.draw(
        st.integers(min_value=0, max_value=len(result.coords[name]) - 1)
    )
    label = result.coords[name][index]
    selected = result.select(**{name: label})
    assert name not in selected.dims
    for other in selected.dims:
        assert selected.coords[other] == result.coords[other]
    assert np.array_equal(
        selected.values, np.take(result.values, index, axis=result.axis_index(name))
    )
    # Subset selection (list form) keeps the axis and its label order.
    subset = result.select(**{name: [label]})
    assert subset.coords[name] == (label,)
    assert subset.dims == result.dims


@given(result=labeled_results())
@settings(**DEFAULT_SETTINGS)
def test_squeeze_round_trip_preserves_labels(result):
    squeezed = result.squeeze()
    kept = [name for name in result.dims if len(result.coords[name]) != 1]
    assert list(squeezed.dims) == kept
    for name in squeezed.dims:
        assert squeezed.coords[name] == result.coords[name]
    assert squeezed.values.size == result.values.size
    assert np.array_equal(squeezed.values.ravel(), result.values.ravel())


@given(result=labeled_results())
@settings(**DEFAULT_SETTINGS)
def test_isel_and_select_agree(result):
    name = result.dims[0]
    by_index = result.isel(**{name: 0})
    by_label = result.select(**{name: result.coords[name][0]})
    assert by_index.dims == by_label.dims
    assert by_index.coords == by_label.coords
    assert np.array_equal(by_index.values, by_label.values)


@given(result=labeled_results())
@settings(**DEFAULT_SETTINGS)
def test_to_dict_from_dict_round_trip(result):
    rebuilt = SweepResult.from_dict(result.to_dict())
    assert rebuilt.dims == result.dims
    assert rebuilt.coords == result.coords
    assert rebuilt.observable == result.observable
    assert rebuilt.values.dtype == result.values.dtype
    assert np.array_equal(rebuilt.values, result.values)


def test_duplicate_coordinate_labels_rejected():
    with pytest.raises(SweepError, match="duplicate"):
        SweepResult(
            values=np.zeros(2),
            dims=("temperature",),
            coords={"temperature": (25.0, 25.0)},
        )


def test_from_dict_rejects_bad_payloads():
    result = SweepResult(
        values=np.arange(3, dtype=float),
        dims=("temperature",),
        coords={"temperature": (0.0, 25.0, 50.0)},
    )
    payload = result.to_dict()
    with pytest.raises(SweepError, match="version"):
        SweepResult.from_dict({**payload, "version": 999})
    incomplete = dict(payload)
    del incomplete["coords"]
    with pytest.raises(SweepError, match="coords"):
        SweepResult.from_dict(incomplete)
    with pytest.raises(SweepError, match="mapping"):
        SweepResult.from_dict([payload])


def test_select_ambiguous_close_float_labels_raise():
    # Two distinct float coordinates, both within the isclose fallback's
    # tolerance of the queried label (which matches neither exactly):
    # selection must refuse to silently pick the first.
    result = SweepResult(
        values=np.arange(2, dtype=float),
        dims=("temperature",),
        coords={"temperature": (25.0 + 1e-12, 25.0 + 2e-12)},
    )
    with pytest.raises(SweepError, match="ambiguous"):
        result.select(temperature=25.0)
    # An exact match stays unambiguous, and positional selection works.
    assert result.select(temperature=25.0 + 2e-12).values == 1.0
    assert result.isel(temperature=1).values == 1.0


def test_select_label_list_equals_isel_at_the_same_positions():
    temperatures = tuple(float(t) for t in np.linspace(-50.0, 150.0, 2000))
    result = SweepResult(
        values=np.arange(2000, dtype=float) * 1e-9,
        dims=("temperature",),
        coords={"temperature": temperatures},
    )
    positions = list(np.random.default_rng(7).permutation(2000))
    selected = result.select(temperature=[temperatures[i] for i in positions])
    expected = result.isel(temperature=[int(i) for i in positions])
    assert selected.coords == expected.coords
    assert np.array_equal(selected.values, expected.values)


def test_select_label_list_exact_match_wins_over_close_neighbour():
    # 25.0 is exact at position 1 and within tolerance of position 0;
    # 25.0 + 2e-12 is within tolerance of both and matches neither.
    result = SweepResult(
        values=np.arange(2, dtype=float),
        dims=("temperature",),
        coords={"temperature": (25.0 + 1e-12, 25.0)},
    )
    assert list(result.select(temperature=[25.0, 25.0 + 1e-12]).values) == [1.0, 0.0]
    with pytest.raises(SweepError, match="ambiguous"):
        result.select(temperature=[25.0 + 2e-12])


def test_select_unknown_label_raises():
    result = SweepResult(
        values=np.zeros((2,)), dims=("supply",), coords={"supply": (3.3, 3.0)}
    )
    with pytest.raises(SweepError):
        result.select(supply=5.0)
    with pytest.raises(SweepError):
        result.select(temperature=25.0)
    assert result.select(supply=3.3 + 1e-14).values.shape == ()


def test_mismatched_coords_rejected():
    with pytest.raises(SweepError):
        SweepResult(
            values=np.zeros((2, 3)),
            dims=("supply", "temperature"),
            coords={"supply": (3.3, 3.0), "temperature": (0.0, 1.0)},
        )


# --------------------------------------------------------------------------- #
# the configuration axis: golden (C, S, T) equivalence pin
# --------------------------------------------------------------------------- #


class TestConfigurationAxisGolden:
    """The acceptance pin: the single (C, S, T) broadcast matches the
    retained per-configuration loop to <= 1e-9 relative on all of the
    paper's Fig. 3 configurations."""

    @pytest.fixture(scope="class")
    def bank(self):
        return ConfigurationBank(
            default_library(CMOS035), PAPER_FIG3_CONFIGURATIONS
        )

    @pytest.fixture(scope="class")
    def temps(self):
        return np.linspace(-50.0, 150.0, 41)

    @pytest.fixture(scope="class")
    def population(self):
        return sample_technology_array(CMOS035, 50, seed=20250727)

    def test_scalar_technology_matrix(self, bank, temps):
        assert relative_error(
            bank.period_tensor(temps), period_tensor_loop(bank, temps)
        ) <= RTOL

    def test_full_cross_product_tensor(self, bank, temps, population):
        tensor = bank.period_tensor(temps, technologies=population)
        loop = period_tensor_loop(bank, temps, technologies=population)
        assert tensor.shape == (len(PAPER_FIG3_CONFIGURATIONS), 50, temps.size)
        assert relative_error(tensor, loop) <= RTOL

    def test_loop_rows_match_scalar_oracle(self, bank, temps):
        # Anchors the loop itself to the pre-engine scalar path, so the
        # tensor pin above transitively reaches the original oracle.
        tensor = bank.period_tensor(temps)
        for row, ring in enumerate(bank.rings()):
            assert relative_error(
                tensor[row], period_series_scalar(ring, temps)
            ) <= RTOL

    def test_bank_structure(self, bank):
        assert len(bank) == len(PAPER_FIG3_CONFIGURATIONS)
        assert bank.labels == tuple(PAPER_FIG3_CONFIGURATIONS)
        assert bank.stage_counts().tolist() == [5] * len(bank)  # all Fig. 3 rings

    def test_padded_mixed_stage_counts(self):
        bank = ConfigurationBank(
            default_library(CMOS035), ["3INV", "5NAND2", "2INV+3NOR2"]
        )
        assert bank.stage_counts().tolist() == [3, 5, 5]
        temps = np.linspace(-40.0, 120.0, 9)
        assert relative_error(
            bank.period_tensor(temps), period_tensor_loop(bank, temps)
        ) <= RTOL

    def test_duplicate_labels_rejected(self):
        from repro.oscillator import ConfigurationError

        with pytest.raises(ConfigurationError):
            ConfigurationBank(default_library(CMOS035), ["5INV", "5INV"])


# --------------------------------------------------------------------------- #
# the planner: lowering equivalences
# --------------------------------------------------------------------------- #


ring_cells = st.sampled_from(["INV", "NAND2", "NAND3", "NOR2", "NOR3"])

configurations = (
    st.integers(min_value=1, max_value=2)
    .map(lambda n: 2 * n + 1)
    .flatmap(lambda count: st.lists(ring_cells, min_size=count, max_size=count))
    .map(lambda stages: RingConfiguration(tuple(stages)))
)


@given(
    configs=st.lists(configurations, min_size=1, max_size=4, unique_by=lambda c: c.label()),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sweep_configuration_axis_matches_per_config_loop(configs, seed):
    temps = np.linspace(-50.0, 150.0, 7)
    population = sample_technology_array(CMOS035, 3, seed=seed)
    library = default_library(CMOS035)
    result = (
        Sweep(library=library)
        .over(Axis.configuration(configs))
        .over(Axis.sample(population))
        .over(Axis.temperature(temps))
        .run()
    )
    assert result.dims == ("configuration", "sample", "temperature")
    for config in configs:
        ring = RingOscillator(library, config)
        assert relative_error(
            result.select(configuration=config.label()).values,
            period_matrix_loop(ring, population, temps),
        ) <= RTOL


def test_sweep_single_ring_is_bitwise_period_series(mixed_ring):
    temps = np.linspace(-50.0, 150.0, 21)
    result = Sweep(ring=mixed_ring).over(Axis.temperature(temps)).run()
    assert np.array_equal(result.values, mixed_ring.period_series(temps))
    assert result.coordinates("temperature") == tuple(temps)


def test_sweep_sample_axis_is_bitwise_period_matrix(mixed_ring):
    temps = np.linspace(-20.0, 120.0, 8)
    population = sample_technology_array(CMOS035, 5, seed=11)
    result = (
        Sweep(ring=mixed_ring)
        .over(Axis.sample(population))
        .over(Axis.temperature(temps))
        .run()
    )
    assert np.array_equal(result.values, mixed_ring.period_matrix(population, temps))


def test_supply_sample_cross_product_matches_manual_rebind(mixed_ring):
    temps = np.asarray([-25.0, 25.0, 100.0])
    population = sample_technology_array(CMOS035, 4, seed=2)
    supplies = (3.3, 3.6)
    result = (
        Sweep(ring=mixed_ring)
        .over(Axis.supply(supplies))
        .over(Axis.sample(population))
        .over(Axis.temperature(temps))
        .run()
    )
    assert result.dims == ("supply", "sample", "temperature")
    for supply in supplies:
        for index in range(len(population)):
            tech = population.technology_at(index).with_supply(supply)
            reference = mixed_ring.rebind(tech).period_series(temps)
            observed = result.select(supply=supply, sample=index).values
            assert relative_error(observed, reference) <= RTOL


def test_observables_match_analysis_layer(mixed_ring):
    temps = np.linspace(-50.0, 150.0, 9)
    periods = mixed_ring.period_series(temps)
    response = TemperatureResponse(mixed_ring.label(), temps, periods)
    base = Sweep(ring=mixed_ring).over(Axis.temperature(temps))
    errors = base.observe("nonlinearity_percent").run()
    assert np.allclose(
        errors.values,
        nonlinearity(response).error_percent,
        rtol=1e-12,
        atol=0.0,
    )
    transfer = base.observe("transfer_c").run()
    cal_error = base.observe("calibration_error_c").run()
    # The two-point-calibrated transfer curve passes exactly through the
    # endpoint temperatures, and its error is transfer minus truth.
    assert transfer.values[0] == pytest.approx(temps[0])
    assert transfer.values[-1] == pytest.approx(temps[-1])
    assert np.allclose(cal_error.values, transfer.values - temps, rtol=0, atol=1e-12)
    frequency = base.observe("frequency").run()
    assert np.allclose(frequency.values, 1.0 / periods, rtol=1e-15, atol=0.0)


def test_default_temperature_axis_is_implicit(mixed_ring):
    from repro.oscillator.period import default_temperature_grid

    result = Sweep(ring=mixed_ring).run()
    assert result.dims == ("temperature",)
    assert result.coordinates("temperature") == tuple(default_temperature_grid())


def test_observables_are_grid_order_invariant(mixed_ring):
    # The temperature axis documents ordering as presentation-only, so
    # the endpoint observables must anchor at the extreme temperatures,
    # not the grid's first/last positions.
    sorted_grid = np.asarray([-50.0, 25.0, 150.0])
    shuffled = np.asarray([25.0, 150.0, -50.0])
    base = Sweep(ring=mixed_ring)
    reference = (
        Sweep(ring=mixed_ring)
        .over(Axis.temperature(sorted_grid))
        .observe("nonlinearity_percent")
        .run()
    )
    shuffled_result = (
        base.over(Axis.temperature(shuffled)).observe("nonlinearity_percent").run()
    )
    for temp in sorted_grid:
        assert shuffled_result.select(temperature=temp).item() == pytest.approx(
            reference.select(temperature=temp).item(), rel=1e-12, abs=1e-15
        )


def test_supply_with_unstackable_samples_falls_back_to_loop():
    # Behaviour change: mixed technology nodes cannot stack (different
    # geometry scalars), and a sample axis over them used to fall back
    # to a per-sample loop that evaluated 0.35 um cells with another
    # node's device parameters.  It now raises at Axis.sample, naming
    # the disagreeing fields and pointing to the technology axis.
    from repro.tech import CMOS025

    with pytest.raises(SweepError, match=r"feature_size_um: 0\.35 vs 0\.25") as info:
        (
            Sweep(configuration="5INV")
            .over(Axis.supply([3.3, 3.0]))
            .over(Axis.sample([CMOS035, CMOS025]))
        )
    assert isinstance(info.value.__cause__, TechnologyError)
    assert "Axis.technology" in str(info.value)


def test_invalid_axis_combinations_rejected(mixed_ring):
    with pytest.raises(SweepError):
        (
            Sweep(technology=CMOS035)
            .over(Axis.configuration(["5INV"]))
            .over(Axis.width_ratio([2.0]))
            .run()
        )
    with pytest.raises(SweepError):
        Sweep(ring=mixed_ring).over(Axis.width_ratio([2.0])).run()
    with pytest.raises(SweepError):
        # Accepting ring= here would silently drop the ring's tap load
        # and configuration in favour of the Sweep defaults.
        Sweep(ring=mixed_ring).over(Axis.configuration(["5INV"])).run()
    with pytest.raises(SweepError):
        Axis.configuration(["5INV", "5INV"])  # duplicate labels
    with pytest.raises(SweepError):
        Sweep(technology=CMOS035).run()  # no configuration anywhere
    sweep = Sweep(ring=mixed_ring).over(Axis.temperature([0.0, 50.0]))
    with pytest.raises(SweepError):
        sweep.over(Axis.temperature([25.0]))
    with pytest.raises(SweepError):
        sweep.observe("voltage")
    with pytest.raises(SweepError):
        Axis("process_corner", ("tt",))


@pytest.mark.parametrize(
    "sweep",
    [
        Sweep(technology=CMOS035).over(Axis.configuration(["5INV", "XOR9+4INV"])),
        Sweep(technology=CMOS035, configuration="XOR9+4INV"),
        Sweep(configuration="XOR9+4INV").over(Axis.technology(["cmos035", "cmos018"])),
    ],
    ids=["configuration-axis", "base-configuration", "technology-axis"],
)
def test_unknown_cell_is_a_sweep_error_at_plan_time(sweep):
    # Planning evaluates no period, so the error comes before any work.
    with pytest.raises(SweepError, match=r"configuration '1XOR9\+4INV' .*'XOR9'"):
        sweep.plan()


# --------------------------------------------------------------------------- #
# the one- and two-axis lowerings are the ring's own methods
# --------------------------------------------------------------------------- #


def test_sweep_period_series_matches_ring_method(mixed_ring):
    temps = np.linspace(-50.0, 150.0, 13)
    swept = Sweep(ring=mixed_ring).over(Axis.temperature(temps)).run().values
    assert np.array_equal(swept, mixed_ring.period_series(temps))
    assert relative_error(swept, period_series_scalar(mixed_ring, temps)) <= RTOL


def test_sweep_period_matrix_matches_ring_method(mixed_ring):
    temps = np.linspace(-50.0, 150.0, 5)
    population = sample_technology_array(CMOS035, 3, seed=9)
    assert np.array_equal(
        Sweep(ring=mixed_ring)
        .over(Axis.sample(population))
        .over(Axis.temperature(temps))
        .run()
        .values,
        mixed_ring.period_matrix(population, temps),
    )


# --------------------------------------------------------------------------- #
# planning builds (and so checks) every ring; the width_ratio rings take
# the sweep's ring fields
# --------------------------------------------------------------------------- #


def test_width_ratio_rings_take_the_sweep_ring_fields():
    from repro.cells import CellLibrary
    from repro.cells.factories import inverter

    temps = [0.0, 50.0, 100.0]

    def swept(**base):
        return (
            Sweep(technology=CMOS035, **base)
            .over(Axis.width_ratio([2.0, 3.0]))
            .over(Axis.temperature(temps))
            .run()
            .values
        )

    loaded = swept(wire_length_um=500.0, external_load_f=1e-12, tap_stage=1)
    assert not np.array_equal(loaded, swept())
    for row, ratio in enumerate((2.0, 3.0)):
        library = CellLibrary("hand_sized", CMOS035)
        library.add(
            inverter(CMOS035, nmos_width_um=1.05, pmos_width_um=1.05 * ratio, name="INV_SIZED")
        )
        ring = RingOscillator(
            library,
            RingConfiguration.uniform("INV_SIZED", 5),
            wire_length_um=500.0,
            external_load_f=1e-12,
            tap_stage=1,
        )
        assert np.array_equal(loaded[row], ring.period_series(temps))


def test_plan_keeps_the_base_ring_it_built():
    plan = Sweep(technology=CMOS035, configuration="5INV").plan()
    assert isinstance(plan.rings, RingOscillator)
    assert np.array_equal(
        plan.execute().values, plan.rings.period_series(plan.axis("temperature").coordinates)
    )


def test_plans_share_one_default_library_per_technology():
    first = Sweep(technology=CMOS035, configuration="5INV").plan().rings.library
    second = Sweep(technology=CMOS035, configuration="5INV").plan().rings.library
    assert first is not second
    assert first.names() == second.names() == default_library(CMOS035).names()
    # The cells are built once; a plan's library is its own container.
    assert all(first.get(name) is second.get(name) for name in first.names())
    extra = default_library(CMOS035, drives=(4,)).get("INV_X4")
    first.add(extra)
    third = Sweep(technology=CMOS035, configuration="5INV").plan().rings.library
    assert "INV_X4" in first and "INV_X4" not in third


def test_fig3_sweep_peaks_below_three_results():
    # Host-independent: the bytes one dense Fig. 3 6x1000x41 run holds at
    # its peak, against the bytes of the result it returns.
    sweep = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
        .over(Axis.sample(sample_technology_array(CMOS035, 1000, seed=5)))
        .over(Axis.temperature(np.linspace(-50.0, 150.0, 41)))
        .observe("nonlinearity_percent")
    )
    sweep.run(executor="dense")  # warm: lazy imports, the default library
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = sweep.run(executor="dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.values.shape == (6, 1000, 41)
    assert peak <= 3 * result.values.nbytes, peak / result.values.nbytes


@pytest.mark.parametrize(
    "sweep, field",
    [
        (Sweep(technology=CMOS035, configuration="5INV", tap_stage=5), "tap_stage"),
        (Sweep(technology=CMOS035, configuration="5INV", tap_stage="x"), "tap_stage"),
        (Sweep(technology=CMOS035, configuration="5INV", wire_length_um=-3), "wire_length_um"),
        (
            Sweep(technology=CMOS035, tap_stage=4).over(Axis.configuration(["5INV", "3INV"])),
            "tap_stage",
        ),
        (
            Sweep(technology=CMOS035, external_load_f=-1.0).over(Axis.width_ratio([2.0])),
            "external_load_f",
        ),
        (
            Sweep(tap_stage=7, configuration="5INV").over(
                Axis.technology(["cmos035", "cmos018"])
            ),
            "tap_stage",
        ),
        (
            Sweep(technology=CMOS035).over(Axis.width_ratio([2.0], nmos_width_um=0.1)),
            "INV_SIZED.nmos_width_um",
        ),
    ],
    ids=[
        "tap-outside", "tap-string", "negative-wire", "tap-on-shortest-ring",
        "width-ratio-load", "technology-axis", "width-below-minimum",
    ],
)
def test_bad_ring_field_is_refused_at_plan_time(sweep, field):
    with pytest.raises(ReproInputError, match=f"^{field} must be") as caught:
        sweep.plan()
    assert caught.value.field == field


def test_missing_configuration_is_refused_at_plan_time():
    with pytest.raises(SweepError, match="no configuration axis and no base"):
        Sweep(technology=CMOS035).plan()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Axis.width_ratio([2.0], stage_count=2), "stage_count"),
        (lambda: Axis.width_ratio([2.0], stage_count=4), "stage_count"),
        (lambda: Axis.width_ratio([2.0], stage_count=1e30), "stage_count"),
        (lambda: Axis.width_ratio([2.0], stage_count=5.5), "stage_count"),
        (lambda: Axis.width_ratio([2.0], nmos_width_um=0.0), "nmos_width_um"),
        (lambda: Axis.width_ratio([2.0, True]), "width_ratio"),
        (lambda: Axis.temperature([25.0, -273.15]), "temperature"),
        (lambda: Axis.temperature([-1e30]), "temperature"),
        (lambda: Axis.temperature([25.0, "30"]), "temperature"),
        (lambda: Axis.supply([3.3, float("nan")]), "supply"),
    ],
)
def test_axis_constructors_name_the_field(build, field):
    with pytest.raises(SweepError, match=f"^{field} must be") as caught:
        build()
    assert caught.value.field == field


def test_temperature_axis_accepts_the_extrapolated_range():
    # The device models extrapolate outside 50-600 K; only 0 K bounds the axis.
    result = Sweep(technology=CMOS035, configuration="5INV").over(
        Axis.temperature([-250.0, 25.0, 400.0])
    ).run()
    assert np.isfinite(result.values).all()
