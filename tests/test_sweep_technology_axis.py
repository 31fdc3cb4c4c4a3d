"""The ``technology`` sweep axis (repro.engine.sweep).

The axis declares a per-node loop inside the sweep engine: one
coordinate per technology node, lowered as the outermost loop of the
dense evaluation.  The contracts:

* **oracle equality** — a technology-axis sweep is bitwise identical,
  node for node, to the hand-written per-node loop it replaces (dense
  and tiled/executor paths alike);
* **canonical shape** — the axis is outermost in
  ``CANONICAL_AXIS_ORDER``, its coordinates are the node names, and it
  serializes as content-addressed ``{name, digest}`` references that
  round-trip and canonicalize idempotently;
* **structured rejection** — combinations that cannot mean one thing
  (a technology axis plus a ``technology=``/``library=``/``ring=``
  base, a ``site`` bank, or a concrete one-node ``sample`` population)
  raise ``SweepError`` with a message saying why.
"""

import json

import numpy as np
import pytest

from repro.engine import Axis, Sweep, SweepError
from repro.oscillator import RingOscillator
from repro.serve import canonical_key, canonical_spec
from repro.tech import (
    CMOS013,
    CMOS018,
    CMOS025,
    CMOS035,
    get_technology_digest,
    sample_technology_array,
)

NODES = (CMOS035, CMOS025, CMOS018, CMOS013)
TEMPS = [-40.0, 25.0, 125.0]


def axis_sweep(observable="period"):
    return (
        Sweep(configuration="2INV+3NAND2")
        .over(Axis.technology(NODES))
        .over(Axis.temperature(TEMPS))
        .observe(observable)
    )


# --------------------------------------------------------------------------- #
# oracle equality
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("observable", ["period", "power", "code"])
def test_axis_matches_per_node_loop_bitwise(observable):
    stacked = axis_sweep(observable).run()
    for row, node in enumerate(NODES):
        solo = (
            Sweep(technology=node, configuration="2INV+3NAND2")
            .over(Axis.temperature(TEMPS))
            .observe(observable)
            .run()
        )
        assert np.array_equal(stacked.values[row], solo.values)
        assert stacked.values.dtype == solo.values.dtype


def test_axis_is_outermost_and_labeled_by_node_name():
    result = (
        Sweep(configuration="5INV")
        .over(Axis.temperature(TEMPS))
        .over(Axis.technology([CMOS035, CMOS018]))  # declared innermost
        .run()
    )
    assert result.dims == ("technology", "temperature")
    assert result.coords["technology"] == ("cmos035", "cmos018")


def test_tiled_execution_matches_dense():
    dense = axis_sweep().run()
    tiled = axis_sweep().run(max_tile_elements=4)
    assert tiled.dims == dense.dims
    assert tiled.coords == dense.coords
    assert np.array_equal(tiled.values, dense.values)


def test_each_node_builds_its_rings_once(monkeypatch):
    # Sweep.plan() builds every node's ring and the plan keeps them per
    # node; the evaluation builds none.
    built = []
    init = RingOscillator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingOscillator, "__init__", counting)
    plan = axis_sweep().plan()
    assert len(built) == len(NODES)
    assert [ring.technology for ring in plan.rings] == list(NODES)
    plan.execute(executor="dense")
    assert len(built) == len(NODES)


def test_axis_composes_with_other_axes():
    result = (
        Sweep()
        .over(Axis.technology([CMOS035, CMOS018]))
        .over(Axis.configuration(["5INV", "2INV+3NAND2"]))
        .over(Axis.temperature(TEMPS))
        .run()
    )
    assert result.dims == ("technology", "configuration", "temperature")
    # The lowering runs the *same inner sweep* once per node, so each
    # node's slab is bitwise equal to that inner sweep pinned to the node.
    solo = (
        Sweep(technology=CMOS018)
        .over(Axis.configuration(["5INV", "2INV+3NAND2"]))
        .over(Axis.temperature(TEMPS))
        .run()
    )
    assert np.array_equal(result.values[1], solo.values)


# --------------------------------------------------------------------------- #
# declaration
# --------------------------------------------------------------------------- #


def test_axis_accepts_registered_names():
    by_name = Axis.technology(["cmos035", "cmos018"])
    by_object = Axis.technology([CMOS035, CMOS018])
    assert by_name.coordinates == by_object.coordinates
    assert by_name.payload == by_object.payload


def test_unknown_name_rejected():
    with pytest.raises(SweepError, match="cmos007"):
        Axis.technology(["cmos035", "cmos007"])


def test_duplicate_node_names_rejected():
    with pytest.raises(SweepError, match="unique"):
        Axis.technology([CMOS035, CMOS035.with_supply(3.0)])


def test_axis_excludes_base_technology():
    with pytest.raises(SweepError, match="technology axis"):
        (
            Sweep(technology=CMOS035, configuration="5INV")
            .over(Axis.technology([CMOS018]))
            .over(Axis.temperature(TEMPS))
            .plan()
        )


def test_axis_excludes_sample_axis():
    population = sample_technology_array(CMOS035, 4, seed=3)
    with pytest.raises(SweepError, match="sample axis"):
        (
            Sweep(configuration="5INV")
            .over(Axis.technology([CMOS035, CMOS018]))
            .over(Axis.sample(population))
            .over(Axis.temperature(TEMPS))
            .plan()
        )


# --------------------------------------------------------------------------- #
# serialization and content addressing
# --------------------------------------------------------------------------- #


def test_round_trip_runs_bit_identical():
    sweep = axis_sweep()
    payload = json.loads(json.dumps(sweep.to_dict()))
    rebuilt = Sweep.from_dict(payload)
    assert np.array_equal(rebuilt.run().values, sweep.run().values)


def test_nodes_serialize_as_content_addressed_references():
    payload = axis_sweep().to_dict()
    (axis,) = [a for a in payload["axes"] if a["name"] == "technology"]
    assert [node["name"] for node in axis["nodes"]] == [t.name for t in NODES]
    for node, tech in zip(axis["nodes"], NODES):
        assert node["digest"] == get_technology_digest(tech.name)
        assert "parameters" not in node  # registered: reference, not inline


def test_canonicalization_is_idempotent():
    canonical = canonical_spec(axis_sweep().to_dict())
    assert canonical_spec(canonical) == canonical
    assert canonical_key(canonical) == canonical_key(axis_sweep())


def test_node_order_is_semantic():
    forward = (
        Sweep(configuration="5INV")
        .over(Axis.technology([CMOS035, CMOS018]))
        .over(Axis.temperature(TEMPS))
    )
    swapped = (
        Sweep(configuration="5INV")
        .over(Axis.technology([CMOS018, CMOS035]))
        .over(Axis.temperature(TEMPS))
    )
    assert canonical_key(forward) != canonical_key(swapped)
