"""The ring-period kernel: a ring is a one-row configuration bank.

:meth:`ConfigurationBank.period_tensor` and
:meth:`RingOscillator.period_series` (and :meth:`RingOscillator.period`,
which is ``period_series`` at one point) compute ``sum_u W_u * K_u``
over unique cells: one delay-per-farad curve per cell, from one
current evaluation per technology, against the cell's summed stage
loads.  These tests pin that kernel from four sides:

* bitwise — the bank equals ``period_tensor_per_cell`` and the ring
  equals ``period_series_per_cell`` and a one-row bank (hypothesis over
  rings, loads, taps and a stacked population); the per-stage and
  per-configuration loops in ``tests/oracles.py`` and the per-stage
  ``delays_from_currents`` sum agree to 1e-9 relative;
* by count — the device parameters are evaluated once per polarity, the
  alpha-power current once per distinct network, and a long ring reads
  each unique cell's drive keys and capacitances once, on its first
  call only;
* at the boundary — a temperature whose drive current is zero or not
  finite raises the same ``TechnologyError`` from both kernels and from
  ``Sweep``, instead of returning ``inf`` or ``NaN``;
* on bad loads — a negative stage load raises ``CellError`` and a
  non-positive total load ``TechnologyError``, as the per-stage path
  does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    period_series_per_cell,
    period_series_stage_loop,
    period_tensor_loop,
    period_tensor_per_cell,
)
from repro.cells import CellLibrary, StandardCell, default_library
from repro.cells.cell import CellError
from repro.cells.factories import inverter
from repro.delay import alpha_power
from repro.engine import Axis, Sweep, SweepError
from repro.optimize.sizing import PAPER_FIG2_RATIOS
from repro.oscillator import (
    PAPER_FIG3_CONFIGURATIONS,
    ConfigurationBank,
    ConfigurationError,
    RingConfiguration,
    RingOscillator,
)
from repro.tech import CMOS035, TechnologyError, sample_technology_array

GRID = np.linspace(-50.0, 150.0, 41)
SITES = np.linspace(20.0, 110.0, 9)
DTM_RING = RingConfiguration.parse("2INV+3NAND2")


@pytest.fixture(scope="module")
def library():
    return default_library(CMOS035)


@pytest.fixture(scope="module")
def population():
    return sample_technology_array(CMOS035, 200, seed=4321)


@pytest.fixture(scope="module")
def small_population():
    return sample_technology_array(CMOS035, 5, seed=77)


@pytest.fixture(scope="module")
def sized_library():
    """Inverters at the Fig. 2 width ratios: one NMOS width, four PMOS widths.

    Every cell has the same polarities and stack depths, so only the
    width tells their pull-up networks apart.
    """
    library = CellLibrary("fig2_sizes", CMOS035)
    for ratio in PAPER_FIG2_RATIOS:
        library.add(
            inverter(
                CMOS035,
                nmos_width_um=1.05,
                pmos_width_um=1.05 * ratio,
                name=f"INV_R{int(round(ratio * 100))}",
            )
        )
    return library


@pytest.fixture(scope="module")
def mixed_supply_library():
    """The default library plus an inverter built for a 3.0 V supply.

    ``CMOS035.with_supply(3.0)`` keeps the technology's name, so the
    library accepts the cell; its stages must switch at the cell's own
    supply, as :meth:`RingOscillator.period` evaluates them.
    """
    library = default_library(CMOS035)
    library.add(inverter(CMOS035.with_supply(3.0), name="INV_3V0"))
    return library


MIXED_SUPPLY_RING = RingConfiguration(("INV", "INV_3V0", "NAND2", "INV_3V0", "INV"))


def _sized_configurations(library):
    names = library.names()
    return {
        "mixed": RingConfiguration((names[0], names[1], names[2], names[3], names[0])),
        "wide": RingConfiguration((names[3],) * 3),
        "narrow-wide": RingConfiguration((names[0], names[0], names[3])),
    }


def _distinct_networks(cells):
    """(polarity, width, depth) of every drive network the cells switch through."""
    networks = set()
    for cell in cells:
        networks.add(("nmos", cell.nmos_width_um, cell.topology.nmos_stack_depth))
        networks.add(("pmos", cell.pmos_width_um, cell.topology.pmos_stack_depth))
    return networks


# --------------------------------------------------------------------------- #
# bitwise equality with the per-stage and per-cell loops
# --------------------------------------------------------------------------- #


class TestBankMatchesPerCellLoop:
    def test_fig3_nominal(self, library):
        bank = ConfigurationBank(library, PAPER_FIG3_CONFIGURATIONS)
        assert np.array_equal(bank.period_tensor(GRID), period_tensor_per_cell(bank, GRID))

    def test_fig3_population(self, library, population):
        bank = ConfigurationBank(library, PAPER_FIG3_CONFIGURATIONS)
        tensor = bank.period_tensor(GRID, technologies=population)
        assert tensor.shape == (len(PAPER_FIG3_CONFIGURATIONS), 200, GRID.size)
        assert np.array_equal(tensor, period_tensor_per_cell(bank, GRID, population))

    def test_cells_differing_only_in_width(self, sized_library, population):
        bank = ConfigurationBank(sized_library, _sized_configurations(sized_library))
        assert np.array_equal(bank.period_tensor(GRID), period_tensor_per_cell(bank, GRID))
        assert np.array_equal(
            bank.period_tensor(GRID, technologies=population),
            period_tensor_per_cell(bank, GRID, population),
        )

    @pytest.mark.parametrize("tap_stage", [None, 0, 2])
    def test_wire_and_tap_loads(self, library, population, tap_stage):
        # The bank resolves stage loads from its cell table; the oracle
        # takes them from RingOscillator.stages().
        bank = ConfigurationBank(
            library,
            PAPER_FIG3_CONFIGURATIONS,
            wire_length_um=7.5,
            external_load_f=12e-15,
            tap_stage=tap_stage,
        )
        assert np.array_equal(bank.period_tensor(GRID), period_tensor_per_cell(bank, GRID))
        assert np.array_equal(
            bank.period_tensor(GRID, technologies=population),
            period_tensor_per_cell(bank, GRID, population),
        )

    def test_cells_in_their_own_technology(self, mixed_supply_library):
        bank = ConfigurationBank(mixed_supply_library, [MIXED_SUPPLY_RING, "5INV"])
        tensor = bank.period_tensor(GRID)
        assert np.array_equal(tensor, period_tensor_per_cell(bank, GRID))
        looped = period_tensor_loop(bank, GRID)
        assert np.max(np.abs(tensor - looped) / looped) <= 1e-9


def assert_ring_kernel(ring, temps, stage_loop=period_series_stage_loop):
    """Bitwise the one-row per-cell oracle, within 1e-9 of a per-stage loop."""
    periods = ring.period_series(temps)
    assert np.array_equal(periods, period_series_per_cell(ring, temps))
    looped = stage_loop(ring, temps)
    assert periods.shape == looped.shape
    assert np.max(np.abs(periods - looped) / looped) <= 1e-9
    return periods


class TestRingMatchesPerStageLoop:
    """period_series is bitwise the one-row per-cell contraction and
    within 1e-9 of the per-stage loop."""

    def test_one_dimensional_grid(self, library):
        assert_ring_kernel(RingOscillator(library, DTM_RING), GRID)

    def test_sensor_bank_population_layout(self, library, population):
        # SensorBank.period_tensor: (site, 1, 1) temperatures against the
        # population's (sample, 1) parameter columns.
        ring = RingOscillator(library, DTM_RING).rebind(population)
        periods = assert_ring_kernel(ring, SITES.reshape(-1, 1, 1))
        assert periods.shape == (SITES.size, 200, 1)

    def test_run_bank_policy_site_layout(self, library):
        ring = RingOscillator(library, DTM_RING)
        temps = np.stack([SITES + offset for offset in (0.0, 3.5, 7.0, 10.5)])
        assert assert_ring_kernel(ring, temps).shape == (4, SITES.size)

    def test_cells_differing_only_in_width(self, sized_library):
        for configuration in _sized_configurations(sized_library).values():
            assert_ring_kernel(RingOscillator(sized_library, configuration), GRID)

    def test_cells_in_their_own_technology(self, mixed_supply_library):
        ring = RingOscillator(mixed_supply_library, MIXED_SUPPLY_RING)
        series = assert_ring_kernel(ring, GRID)
        assert np.array_equal(series, [ring.period(t) for t in GRID])

    @pytest.mark.parametrize("tap_stage", [None, 0, 2])
    def test_one_row_of_the_bank(self, library, population, tap_stage):
        loads = dict(wire_length_um=7.5, external_load_f=12e-15, tap_stage=tap_stage)
        for configuration in PAPER_FIG3_CONFIGURATIONS.values():
            ring = RingOscillator(library, configuration, **loads)
            bank = ConfigurationBank(library, [configuration], **loads)
            assert np.array_equal(ring.period_series(GRID), bank.period_tensor(GRID)[0])
            assert np.array_equal(
                ring.rebind(population).period_series(GRID),
                bank.period_tensor(GRID, technologies=population)[0],
            )


# --------------------------------------------------------------------------- #
# the ring kernel against the per-cell oracle and the per-stage delay sum
# --------------------------------------------------------------------------- #

#: The library's inverting single-stage cells (every cell but the buffers).
RING_CELLS = [
    name for name in default_library(CMOS035).names() if not name.startswith("BUF")
]


def stage_delay_sum_loop(ring, temperatures_c):
    """``ring.period_series`` as the per-stage ``delays_from_currents`` sum.

    :meth:`StandardCell.delays` evaluates the stage's two currents and
    hands them to ``delays_from_currents`` at the stage load, which
    checks the load and re-derives the load terms on every call.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    total = np.zeros(temps.shape)
    for stage in ring.stages():
        total = total + stage.cell.delays(temps, stage.load_f).pair_sum
    return total


@st.composite
def plain_rings(draw):
    """Stage names (an odd count of 3 to 9) of one ring."""
    count = 2 * draw(st.integers(min_value=1, max_value=4)) + 1
    return draw(st.lists(st.sampled_from(RING_CELLS), min_size=count, max_size=count))


temperature_grids = arrays(
    float,
    st.sampled_from([(1,), (7,), (3, 4)]),
    elements=st.floats(min_value=-50.0, max_value=150.0),
)


class TestPeriodPlan:
    """The ring's period plan (its unique cells, drive keys and load
    weights, worked out once) against both oracles, over random rings."""

    @given(stages=plain_rings(), temps=temperature_grids)
    @settings(max_examples=60, deadline=None)
    def test_plain_ring(self, library, stages, temps):
        assert_ring_kernel(
            RingOscillator(library, RingConfiguration(tuple(stages))),
            temps,
            stage_delay_sum_loop,
        )

    @given(
        stages=plain_rings(),
        temps=temperature_grids,
        wire_length_um=st.floats(min_value=0.0, max_value=100.0),
        external_load_f=st.floats(min_value=0.0, max_value=1e-13),
        tap=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_tapped_and_loaded_ring(
        self, library, stages, temps, wire_length_um, external_load_f, tap
    ):
        tap_stage = tap.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=len(stages) - 1))
        )
        ring = RingOscillator(
            library,
            RingConfiguration(tuple(stages)),
            wire_length_um=wire_length_um,
            external_load_f=external_load_f,
            tap_stage=tap_stage,
        )
        assert_ring_kernel(ring, temps, stage_delay_sum_loop)

    @given(stages=plain_rings(), temps=temperature_grids)
    @settings(max_examples=30, deadline=None)
    def test_ring_rebound_to_population(self, library, small_population, stages, temps):
        ring = RingOscillator(
            library, RingConfiguration(tuple(stages)), external_load_f=5e-15
        ).rebind(small_population)
        site_major = temps.reshape(-1, 1, 1)
        periods = assert_ring_kernel(ring, site_major, stage_delay_sum_loop)
        assert periods.shape == (temps.size, len(small_population), 1)

    @pytest.mark.parametrize(
        "patched, value, error",
        [
            (
                "stage_loads",
                lambda self, cell_index, input_f, technology: np.full(
                    len(cell_index), -1e-15
                ),
                CellError,
            ),
            ("output_parasitic_capacitance", lambda self: -1.0, TechnologyError),
        ],
        ids=["negative-load", "non-positive-total-load"],
    )
    def test_bad_load_raises_as_the_per_stage_path(
        self, library, monkeypatch, patched, value, error
    ):
        owner = RingOscillator if patched == "stage_loads" else StandardCell
        monkeypatch.setattr(owner, patched, value)
        ring = RingOscillator(library, DTM_RING)
        with pytest.raises(error):
            stage_delay_sum_loop(ring, SITES)
        with pytest.raises(error):
            ring.period_series(SITES)


# --------------------------------------------------------------------------- #
# evaluation counts
# --------------------------------------------------------------------------- #


@pytest.fixture
def counts(monkeypatch):
    """Count ``device_at`` and alpha-power evaluations inside ``alpha_power``."""
    tally = {"device_at": 0, "alpha_power": 0}
    device_at = alpha_power.device_at
    alpha_power_current = alpha_power._alpha_power_current

    def counted_device_at(*args, **kwargs):
        tally["device_at"] += 1
        return device_at(*args, **kwargs)

    def counted_alpha_power_current(*args, **kwargs):
        tally["alpha_power"] += 1
        return alpha_power_current(*args, **kwargs)

    monkeypatch.setattr(alpha_power, "device_at", counted_device_at)
    monkeypatch.setattr(alpha_power, "_alpha_power_current", counted_alpha_power_current)
    return tally


@pytest.fixture
def cell_reads(monkeypatch):
    """Record, per method, the cells whose drive keys or capacitances are read."""
    tally = {}
    for name in ("drive_keys", "input_capacitance", "output_parasitic_capacitance"):
        calls = tally[name] = []

        def counted(self, _method=getattr(StandardCell, name), _calls=calls):
            _calls.append(self.name)
            return _method(self)

        monkeypatch.setattr(StandardCell, name, counted)
    return tally


class TestEvaluationCounts:
    def test_long_ring_reads_each_unique_cell_once(self, library, counts, cell_reads):
        ring = RingOscillator(library, RingConfiguration(("INV", "NAND2") * 5000 + ("INV",)))
        assert ring.stage_count == 10001
        first = ring.period_series(SITES)
        unique = sorted(library.get(name).name for name in ("INV", "NAND2"))
        assert {method: sorted(cells) for method, cells in cell_reads.items()} == {
            method: unique for method in cell_reads
        }
        assert counts["device_at"] <= 2
        assert counts["alpha_power"] == len(
            _distinct_networks([library.get("INV"), library.get("NAND2")])
        )
        for cells in cell_reads.values():
            cells.clear()
        assert np.array_equal(ring.period_series(SITES), first)
        assert not any(cell_reads.values())

    def test_fig3_period_tensor(self, library, counts):
        bank = ConfigurationBank(library, PAPER_FIG3_CONFIGURATIONS)
        cells = list({c.name: c for ring in bank.rings() for c in ring.cells()}.values())
        bank.period_tensor(GRID)
        assert counts["device_at"] <= 2
        assert counts["alpha_power"] == len(_distinct_networks(cells)) == 5

    def test_fig3_period_tensor_population(self, library, population, counts):
        bank = ConfigurationBank(library, PAPER_FIG3_CONFIGURATIONS)
        bank.period_tensor(GRID, technologies=population)
        assert counts["device_at"] <= 2
        assert counts["alpha_power"] == 5

    def test_dtm_ring_period_series(self, library, counts):
        ring = RingOscillator(library, DTM_RING)
        ring.period_series(SITES)
        assert counts["device_at"] <= 2
        assert counts["alpha_power"] == len(_distinct_networks(ring.cells()))

    def test_width_is_part_of_the_network(self, sized_library, counts):
        configuration = _sized_configurations(sized_library)["mixed"]
        ring = RingOscillator(sized_library, configuration)
        ring.period_series(GRID)
        # One shared NMOS network plus one PMOS network per width.
        assert counts["alpha_power"] == len(_distinct_networks(ring.cells())) == 5


# --------------------------------------------------------------------------- #
# non-positive or non-finite drive currents
# --------------------------------------------------------------------------- #

#: 1e308 degC underflows the mobility to zero, so the drive current is 0.
UNPHYSICAL = [25.0, 80.0, 1e308]


class TestUnphysicalTemperatureRaises:
    def test_ring_kernel(self, library):
        ring = RingOscillator(library, RingConfiguration.parse("5INV"))
        with pytest.raises(TechnologyError, match="drive current must be positive"):
            ring.period_series(UNPHYSICAL)

    def test_bank_kernel(self, library):
        bank = ConfigurationBank(library, ["5INV"])
        with pytest.raises(TechnologyError, match="drive current must be positive"):
            bank.period_tensor(UNPHYSICAL)

    @pytest.mark.parametrize("observable", ["period", "code", "nonlinearity_percent"])
    def test_sweep_observables(self, observable):
        sweep = (
            Sweep(technology=CMOS035)
            .over(Axis.configuration(["5INV"]))
            .over(Axis.temperature(UNPHYSICAL))
            .observe(observable)
        )
        with pytest.raises(TechnologyError, match="drive current must be positive"):
            sweep.run()

    def test_effective_saturation_current(self):
        key = (alpha_power.DriveNetwork("nmos", 1.0), alpha_power.StackModel())
        with pytest.raises(TechnologyError, match="positive and finite"):
            alpha_power.drive_currents(CMOS035, (key,), np.asarray(UNPHYSICAL))


# --------------------------------------------------------------------------- #
# malformed external load and wire length
# --------------------------------------------------------------------------- #

#: (external_load_f, tap_stage) pairs that used to give negative, inf or
#: silently unloaded periods.
BAD_LOADS = [
    (-1e-13, 0),
    (-1e-13, None),
    (float("nan"), None),
    (float("inf"), None),
]


class TestMalformedLoadRaises:
    @pytest.mark.parametrize("load, tap", BAD_LOADS)
    def test_ring(self, library, load, tap):
        with pytest.raises(ConfigurationError, match="external_load_f"):
            RingOscillator(
                library, RingConfiguration.parse("5INV"),
                external_load_f=load, tap_stage=tap,
            )

    @pytest.mark.parametrize("load, tap", BAD_LOADS)
    def test_bank(self, library, load, tap):
        with pytest.raises(ConfigurationError, match="external_load_f"):
            ConfigurationBank(library, ["5INV"], external_load_f=load, tap_stage=tap)

    @pytest.mark.parametrize("observable", ["period", "code"])
    @pytest.mark.parametrize("load, tap", BAD_LOADS)
    def test_sweep_observables(self, observable, load, tap):
        sweep = (
            Sweep(technology=CMOS035, external_load_f=load, tap_stage=tap)
            .over(Axis.configuration(["5INV"]))
            .over(Axis.temperature([25.0, 80.0]))
            .observe(observable)
        )
        with pytest.raises(ConfigurationError, match="external_load_f"):
            sweep.run()

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    @pytest.mark.parametrize("observable", ["period", "code"])
    def test_non_finite_wire_length(self, observable, length):
        sweep = (
            Sweep(technology=CMOS035, wire_length_um=length)
            .over(Axis.configuration(["5INV"]))
            .over(Axis.temperature([25.0, 80.0]))
            .observe(observable)
        )
        # Planning builds the rings, and the ring constructor names the field.
        with pytest.raises(ConfigurationError, match="^wire_length_um must be"):
            sweep.run()


class TestOverflowingPeriodRaises:
    """A load large enough to overflow the period never reaches a result."""

    @pytest.mark.parametrize("executor", [None, "serial"])
    @pytest.mark.parametrize("observable", ["period", "code", "nonlinearity_percent"])
    def test_sweep_observables(self, observable, executor):
        sweep = (
            Sweep(technology=CMOS035, external_load_f=1e308, tap_stage=0)
            .over(Axis.configuration(["5INV"]))
            .over(Axis.temperature([25.0, 80.0]))
            .observe(observable)
        )
        with np.errstate(over="ignore"):
            with pytest.raises(SweepError, match="external_load_f"):
                sweep.run(executor=executor)
