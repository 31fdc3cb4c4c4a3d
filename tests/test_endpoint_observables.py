"""The endpoint observables, summed from per-cell deviation curves.

``nonlinearity_percent``, ``transfer_c`` and ``calibration_error_c`` are
contracted from each cell's own endpoint terms, with the load weights
that give the period, instead of from a period tensor.  These tests pin
that from three sides:

* by structure — an endpoint sweep over the Fig. 3 configurations never
  contracts the delay curves into a ``(C, S, T)`` period tensor;
* by value — hypothesis against the textbook formulas over the periods,
  within 1e-9 of each row's peak, and every dense branch (a ring, the
  configuration, width_ratio and supply axes) on an unsorted grid;
* at the guards — an overflowing period and a flat response raise the
  same ``SweepError`` as before, with no numpy warning.

The ``period`` and ``power`` observables share the one tail too: on
every dense branch (a ring, the width_ratio and configuration axes, and
the site axis characterised, scanned and refined) each ring source's
curves are contracted once, and ``power`` is the ring's
``dynamic_power``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import endpoint_observable_textbook
from repro.cells import default_library
from repro.engine import Axis, Sweep, SweepError
from repro.oscillator import PAPER_FIG3_CONFIGURATIONS, ConfigurationBank
from repro.oscillator import bank as bank_module
from repro.oscillator import ring as ring_module
from repro.oscillator.ring import CellCurves
from repro.tech import CMOS035, sample_technology_array
from repro.thermal import Floorplan, PowerMap, ThermalGrid, ThermalOperator

ENDPOINT_OBSERVABLES = ("nonlinearity_percent", "transfer_c", "calibration_error_c")
TEMPS = np.linspace(-50.0, 150.0, 9)
RTOL = 1e-9

#: The library's inverting single-stage cells (every cell but the buffers).
RING_CELLS = [
    name for name in default_library(CMOS035).names() if not name.startswith("BUF")
]


def _sweep(observable, population=None, temps=TEMPS, **base):
    sweep = Sweep(technology=CMOS035, **base)
    if "configuration" not in base:
        sweep = sweep.over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
    if population is not None:
        sweep = sweep.over(Axis.sample(population))
    return sweep.over(Axis.temperature(temps)).observe(observable)


# --------------------------------------------------------------------------- #
# structure: no period tensor
# --------------------------------------------------------------------------- #


def _contractions(monkeypatch, observable):
    """Run a Fig. 3 sweep; return the shapes of the contractions of the curves.

    Wraps the bank's curve function, to record the ``K_u`` it hands out,
    and :meth:`CellCurves.contract`, to record the output shape of every
    call whose terms hold those curves' values.
    """
    curves_seen = []
    shapes = []
    delay_curves = bank_module._delay_curves
    contract = CellCurves.contract

    def recording_curves(drives, temps):
        curves = delay_curves(drives, temps)
        curves_seen.extend(curve.copy() for curve in curves)
        return curves

    def recording_contract(self, terms):
        out = contract(self, terms)
        if any(
            np.shape(term) == np.shape(seen) and np.array_equal(term, seen)
            for term in terms
            for seen in curves_seen
        ):
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(bank_module, "_delay_curves", recording_curves)
    monkeypatch.setattr(CellCurves, "contract", recording_contract)
    population = sample_technology_array(CMOS035, 50, seed=3)
    # Dense, so the wrappers see the evaluation: a tiled backend from the
    # environment would run it in worker processes.
    _sweep(observable, population).run(executor="dense")
    assert curves_seen
    return shapes


@pytest.mark.parametrize("observable", ENDPOINT_OBSERVABLES)
def test_endpoint_sweep_forms_no_period_tensor(monkeypatch, observable):
    assert _contractions(monkeypatch, observable) == []


def test_period_sweep_contracts_the_curves(monkeypatch):
    # The wrapper sees the contraction it looks for when there is one.
    tensor = (len(PAPER_FIG3_CONFIGURATIONS), 50, TEMPS.size)
    assert _contractions(monkeypatch, "period") == [tensor]


# --------------------------------------------------------------------------- #
# one path per branch: period and power
# --------------------------------------------------------------------------- #

PATH_BRANCHES = ("ring", "width_ratio", "configuration", "site", "site_scan", "resolution")
RATIOS = (1.0, 2.0, 3.0)
RESOLUTIONS = (8, 12)


def _solved_site_temperatures(bank, resolution):
    """Each site's junction temperature on the example die at ``resolution``."""
    power = PowerMap.from_floorplan(
        Floorplan.example_processor(), nx=resolution, ny=resolution
    )
    field = ThermalOperator.for_grid(ThermalGrid.for_power_map(power)).solve_steady_state(
        power, 45.0
    )
    return field.sample_points(*bank.positions())


def _dynamic_powers(ring, temps, population):
    """``ring.dynamic_power`` at each of ``temps``, as a ``(samples, temps)`` array."""
    if population is not None:
        ring = ring.rebind(population)
    return np.stack([np.ravel(ring.dynamic_power(t)) for t in temps], axis=-1)


def _path_case(branch, bank, population):
    """``branch``'s sweep (no observable yet), its ring-source count and its power.

    ``expected(plan)`` lays ``dynamic_power`` out as the sweep's values,
    with the sample axis kept (size 1 without a population).
    """
    if branch == "ring":
        sweep = Sweep(technology=CMOS035, configuration="2INV+3NAND2")
        sources = 1

        def expected(plan):
            return _dynamic_powers(plan.rings, TEMPS, population)

    elif branch == "width_ratio":
        sweep = Sweep(technology=CMOS035).over(Axis.width_ratio(RATIOS))
        sources = len(RATIOS)

        def expected(plan):
            return np.stack([_dynamic_powers(r, TEMPS, population) for r in plan.rings])

    elif branch == "configuration":
        sweep = Sweep(technology=CMOS035).over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
        sources = 1

        def expected(plan):
            rings = plan.rings.rings()
            return np.stack([_dynamic_powers(r, TEMPS, population) for r in rings])

    elif branch == "site":
        sweep = Sweep().over(Axis.site(bank))
        sources = 1

        def expected(plan):
            return np.stack([_dynamic_powers(bank.ring, TEMPS, population)] * bank.site_count)

    elif branch == "site_scan":
        site_temps = np.linspace(30.0, 90.0, bank.site_count)
        sweep = Sweep().over(Axis.site(bank, site_temps))
        sources = 1

        def expected(plan):
            return _dynamic_powers(bank.ring, site_temps, population).T

    else:
        floorplan = Floorplan.example_processor()
        sweep = Sweep().over(Axis.resolution(RESOLUTIONS, floorplan)).over(Axis.site(bank))
        sources = len(RESOLUTIONS)

        def expected(plan):
            return np.stack(
                [
                    _dynamic_powers(bank.ring, _solved_site_temperatures(bank, r), population).T
                    for r in RESOLUTIONS
                ]
            )

    if population is not None:
        sweep = sweep.over(Axis.sample(population))
    if branch not in ("site_scan", "resolution"):
        sweep = sweep.over(Axis.temperature(TEMPS))
    return sweep, sources, expected


@pytest.mark.parametrize("observable", ["period", "power"])
@pytest.mark.parametrize("branch", PATH_BRANCHES)
def test_each_ring_source_is_contracted_once(
    monkeypatch, sensor_bank_factory, branch, observable
):
    bank = sensor_bank_factory(2)
    population = sample_technology_array(CMOS035, 3, seed=4)
    sweep, sources, _ = _path_case(branch, bank, population)
    plan = sweep.observe(observable).plan()

    curves_seen = []
    contractions = []
    contract = CellCurves.contract

    def recording(module):
        delay_curves = module._delay_curves

        def curves(drives, temps):
            made = delay_curves(drives, temps)
            curves_seen.extend(made)
            return made

        return curves

    def recording_contract(self, terms):
        if any(term is seen for term in terms for seen in curves_seen):
            contractions.append(len(terms))
        return contract(self, terms)

    monkeypatch.setattr(ring_module, "_delay_curves", recording(ring_module))
    monkeypatch.setattr(bank_module, "_delay_curves", recording(bank_module))
    monkeypatch.setattr(CellCurves, "contract", recording_contract)
    # Dense, so the wrappers see the evaluation: a tiled backend from the
    # environment would run it in worker processes.
    plan.execute(executor="dense")
    assert curves_seen
    assert len(contractions) == sources


@pytest.mark.parametrize("samples", [None, 3])
@pytest.mark.parametrize("branch", PATH_BRANCHES)
def test_power_is_the_rings_dynamic_power(sensor_bank_factory, branch, samples):
    bank = sensor_bank_factory(2)
    population = None if samples is None else sample_technology_array(CMOS035, samples, seed=6)
    sweep, _, expected = _path_case(branch, bank, population)
    plan = sweep.observe("power").plan()
    values = plan.execute().values
    reference = expected(plan)
    np.testing.assert_allclose(
        values.reshape(reference.shape), reference, rtol=1e-12, atol=0.0
    )


# --------------------------------------------------------------------------- #
# values: the textbook formulas over the periods
# --------------------------------------------------------------------------- #


@st.composite
def ring_configurations(draw):
    """One to three distinct ring configurations of 3 to 9 stages."""
    rings = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        count = 2 * draw(st.integers(min_value=1, max_value=4)) + 1
        stages = draw(
            st.lists(st.sampled_from(RING_CELLS), min_size=count, max_size=count)
        )
        rings.append("+".join(stages))
    return list(dict.fromkeys(rings))


#: Distinct temperatures on a 5 C lattice over -50..150 C, in any order.
temperature_grids = st.lists(
    st.integers(min_value=-10, max_value=30), min_size=3, max_size=12, unique=True
).map(lambda steps: 5.0 * np.asarray(steps, dtype=float))


@given(
    configurations=ring_configurations(),
    temps=temperature_grids,
    samples=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_endpoint_observables_match_the_textbook_formulas(
    configurations, temps, samples, seed
):
    population = (
        None if samples is None else sample_technology_array(CMOS035, samples, seed=seed)
    )
    bank = ConfigurationBank(default_library(CMOS035), configurations)
    periods = bank.period_tensor(temps, technologies=population)
    for observable in ENDPOINT_OBSERVABLES:
        sweep = Sweep(technology=CMOS035).over(Axis.configuration(configurations))
        if population is not None:
            sweep = sweep.over(Axis.sample(population))
        values = sweep.over(Axis.temperature(temps)).observe(observable).run().values
        textbook = endpoint_observable_textbook(periods, temps, observable)
        peak = np.abs(textbook).max(axis=-1, keepdims=True)
        assert values.shape == textbook.shape
        assert np.all(np.abs(values - textbook) <= RTOL * peak), observable


BRANCHES = {
    "ring": lambda: Sweep(technology=CMOS035, configuration="2INV+3NAND2"),
    "configuration": lambda: Sweep(technology=CMOS035).over(
        Axis.configuration(PAPER_FIG3_CONFIGURATIONS)
    ),
    "width_ratio": lambda: Sweep(technology=CMOS035).over(
        Axis.width_ratio([1.0, 2.0, 3.0])
    ),
    "supply": lambda: Sweep(technology=CMOS035, configuration="5INV").over(
        Axis.supply([3.0, 3.3])
    ),
}


@pytest.mark.parametrize("observable", ENDPOINT_OBSERVABLES)
@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_every_dense_branch_matches_the_textbook_formulas(branch, observable):
    # Unsorted grid: the endpoints are the extreme temperatures.
    temps = np.asarray([25.0, -50.0, 100.0, 150.0, 0.0, 60.0])
    population = sample_technology_array(CMOS035, 20, seed=11)

    def sweep():
        return BRANCHES[branch]().over(Axis.sample(population)).over(Axis.temperature(temps))

    periods = sweep().run().values
    values = sweep().observe(observable).run().values
    textbook = endpoint_observable_textbook(periods, temps, observable)
    peak = np.abs(textbook).max(axis=-1, keepdims=True)
    assert values.shape == periods.shape
    assert np.all(np.abs(values - textbook) <= RTOL * peak)


# --------------------------------------------------------------------------- #
# the guards
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("observable", ENDPOINT_OBSERVABLES)
@pytest.mark.parametrize("axis", [False, True], ids=["ring", "configuration-axis"])
def test_overflowing_period_is_refused_without_a_warning(observable, axis):
    # A 1e308 F tap load overflows the period; its bound is refused before
    # any observable is formed, and no overflow warning is emitted.
    base = dict(external_load_f=1e308, tap_stage=0)
    if axis:
        sweep = (
            Sweep(technology=CMOS035, **base)
            .over(Axis.configuration(["5INV", "3NAND2"]))
            .over(Axis.temperature(TEMPS))
            .observe(observable)
        )
    else:
        sweep = _sweep(observable, configuration="5INV", **base)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SweepError, match="external_load_f"):
            sweep.run()


def _flat_curves(delay_curves):
    """``delay_curves`` with each curve replaced by its first temperature's value."""

    def flat(drives, temps):
        curves = delay_curves(drives, temps)
        for curve in curves:
            curve[...] = curve[..., :1]
        return curves

    return flat


@pytest.mark.parametrize("observable", ENDPOINT_OBSERVABLES)
@pytest.mark.parametrize("axis", [False, True], ids=["ring", "configuration-axis"])
def test_flat_response_error_is_unchanged(monkeypatch, observable, axis):
    monkeypatch.setattr(ring_module, "_delay_curves", _flat_curves(ring_module._delay_curves))
    monkeypatch.setattr(bank_module, "_delay_curves", _flat_curves(bank_module._delay_curves))
    base = {} if axis else dict(configuration="5INV")
    message = (
        "flat temperature response: the endpoint periods are equal, so "
        f"observable {observable!r} is undefined"
    )
    with pytest.raises(SweepError) as caught:
        sweep = _sweep(observable, sample_technology_array(CMOS035, 3, seed=1), **base)
        sweep.run(executor="dense")
    assert str(caught.value) == message
