"""Mutation fuzz of the sweep-spec boundary: bad input is always a named input error.

Three serialized specs are mutated one field at a time (every leaf and
every container of the spec, replaced by one hostile value) and each
mutant is checked locally and over one in-process server:

* locally, ``Sweep.from_dict(spec).run()`` and ``canonical_spec`` raise
  nothing but :class:`~repro.fields.ReproInputError`;
* ``canonical_spec`` refuses every spec that later fails to run, so a
  served spec is either refused up front or evaluated;
* served, the only error codes are ``bad-spec`` and ``tech-mismatch``
  (``version-mismatch`` when the mutated field is the schema version);
* no result holds a non-finite value, nor a negative ``code``.

Requests go over a raw socket with ``allow_nan=True`` so NaN and
infinity reach the server as the non-standard JSON tokens its decoder
accepts.
"""

from __future__ import annotations

import copy
import json
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CMOS035, Axis, ReproInputError, Sweep, sample_technology_array
from repro.engine import SweepError
from repro.serve import server, smoke, start_server_thread
from repro.serve.protocol import E_BAD_SPEC, E_TECH_MISMATCH, E_VERSION
from repro.serve.spec import canonical_spec
from repro.tech import CELSIUS_OFFSET, TechnologyError

TEMPS = [0.0, 50.0, 100.0]

SPECS = {
    "configuration": (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(["5INV", "3NAND2"]))
        .over(Axis.temperature(TEMPS))
        .observe("period")
    ),
    "supply": (
        Sweep(technology=CMOS035, configuration="5INV")
        .over(Axis.supply([3.0, 3.3]))
        .over(Axis.temperature(TEMPS))
        .observe("transfer_c")
    ),
    "width_ratio": (
        Sweep(technology=CMOS035)
        .over(Axis.width_ratio([2.0, 3.0]))
        .over(Axis.temperature(TEMPS))
        .observe("frequency")
    ),
}

#: The hostile values; ``"code"`` also turns a mutated observable into
#: the counter readout, whose codes must never go negative.
MUTATIONS = [
    float("nan"), float("inf"), -float("inf"), 1e30, -1e30,
    0, -1, 2.5, "x", None, True, "code",
]


def _paths(node, prefix=()):
    """Every position in a spec: containers first, then their contents."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutated(spec, path, value):
    mutant = copy.deepcopy(spec)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return mutant


def _check_values(values, observable):
    values = np.asarray(values, dtype=float)
    assert np.isfinite(values).all(), f"{observable} result holds a non-finite value"
    if observable == "code":
        assert (values >= 0).all(), "a code went negative"


@pytest.fixture(scope="module")
def remote():
    handle = start_server_thread(batch_window_ms=0.0)
    connection = socket.create_connection(("127.0.0.1", handle.port), timeout=60)
    reader = connection.makefile("rb")

    def ask(spec):
        line = json.dumps({"op": "sweep", "spec": spec}, allow_nan=True) + "\n"
        connection.sendall(line.encode("utf-8"))
        return json.loads(reader.readline())

    yield ask
    reader.close()
    connection.close()
    handle.stop()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_single_field_mutations_stay_typed(remote, name):
    spec = SPECS[name].to_dict()
    paths = [path for path in _paths(spec) if path]

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(path=st.sampled_from(paths), value=st.sampled_from(MUTATIONS))
    def check(path, value):
        mutant = _mutated(spec, path, value)
        try:
            canonical = canonical_spec(mutant)
        except ReproInputError:
            canonical = None
        try:
            result = Sweep.from_dict(mutant).run()
        except ReproInputError:
            assert canonical is None, f"canonical_spec accepted {path}={value!r}, run refused it"
        else:
            _check_values(result.values, result.observable)
        response = remote(mutant)
        if response["ok"]:
            assert canonical is not None
            _check_values(response["result"]["values"], response["result"]["observable"])
        else:
            allowed = {E_BAD_SPEC, E_TECH_MISMATCH}
            if path == ("version",):
                allowed.add(E_VERSION)
            assert response["error"]["code"] in allowed, (path, value, response["error"])

    check()


def _configuration_spec():
    return SPECS["configuration"].to_dict()


def _width_ratio_spec():
    return SPECS["width_ratio"].to_dict()


def _sample_spec():
    population = sample_technology_array(CMOS035, 3, seed=1)
    return Sweep(technology=CMOS035, configuration="5INV").over(Axis.sample(population)).to_dict()


@pytest.mark.parametrize(
    "make, path, value, field",
    [
        (_configuration_spec, ("base", "tap_stage"), "x", "tap_stage"),
        (_configuration_spec, ("base", "wire_length_um"), -3, "wire_length_um"),
        (_configuration_spec, ("base", "external_load_f"), -1, "external_load_f"),
        (_configuration_spec, ("base", "tap_stage"), 99, "tap_stage"),
        (_width_ratio_spec, ("axes", 0, "stage_count"), 2, "stage_count"),
        (_width_ratio_spec, ("axes", 0, "stage_count"), 1e30, "stage_count"),
        (_width_ratio_spec, ("axes", 0, "nmos_width_um"), 0, "nmos_width_um"),
        (_configuration_spec, ("axes", 1, "coordinates", 0), -1e30, "temperature"),
        (
            _configuration_spec,
            ("base", "readout", "reference_clock_hz"),
            float("nan"),
            "reference_clock_hz",
        ),
        (_sample_spec, ("axes", 0, "columns", "nmos.alpha", 0), True, "alpha"),
    ],
)
def test_bad_field_is_refused_when_canonicalized_and_served(remote, make, path, value, field):
    mutant = _mutated(make(), path, value)
    with pytest.raises(ReproInputError, match=field) as caught:
        canonical_spec(mutant)
    assert caught.value.field.endswith(field)
    response = remote(mutant)
    assert response["error"]["code"] == E_BAD_SPEC
    assert field in response["error"]["message"]


@pytest.mark.parametrize(
    "make, path, value, field",
    [
        (_configuration_spec, ("base", "tap_stage"), "x", "base.tap_stage"),
        (_width_ratio_spec, ("axes", 0, "stage_count"), 2, "axes[0].stage_count"),
        (_width_ratio_spec, ("axes", 0, "nmos_width_um"), 0, "axes[0].nmos_width_um"),
        (_configuration_spec, ("axes", 1, "coordinates", 0), -1e30, "axes[1].temperature"),
    ],
)
def test_from_dict_names_the_field_by_its_path(make, path, value, field):
    with pytest.raises(ReproInputError) as caught:
        Sweep.from_dict(_mutated(make(), path, value))
    assert caught.value.field == field


@pytest.mark.parametrize(
    "make, path, value, field",
    [
        (_configuration_spec, ("base", "tap_stage"), 99, "base.tap_stage"),
        (_width_ratio_spec, ("base", "tap_stage"), 99, "base.tap_stage"),
        (_configuration_spec, ("base", "tap_stage"), "x", "base.tap_stage"),
        (_width_ratio_spec, ("axes", 0, "stage_count"), 2, "axes[0].stage_count"),
    ],
)
def test_canonical_spec_names_the_field_by_its_path(make, path, value, field):
    # A tap stage past the ring's last stage passes Sweep.from_dict and
    # is refused only when planning builds the rings.
    with pytest.raises(ReproInputError) as caught:
        canonical_spec(_mutated(make(), path, value))
    assert caught.value.field == field


# --------------------------------------------------------------------------- #
# site temperatures
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("cold", [-300.0, -CELSIUS_OFFSET])
def test_site_axis_refuses_temperatures_at_or_below_absolute_zero(sensor_bank_factory, cold):
    bank = sensor_bank_factory(2)
    temps = [25.0] * bank.site_count
    temps[1] = cold
    with pytest.raises(SweepError) as caught:
        Axis.site(bank, temps)
    assert caught.value.field == "junction_temperatures_c"


@pytest.mark.parametrize("cold", [-300.0, -CELSIUS_OFFSET])
def test_bank_scan_refuses_temperatures_at_or_below_absolute_zero(sensor_bank_factory, cold):
    bank = sensor_bank_factory(2)
    temps = [25.0] * bank.site_count
    temps[1] = cold
    for population in (None, sample_technology_array(CMOS035, 2, seed=1)):
        with pytest.raises(TechnologyError) as caught:
            bank.scan(temps, technologies=population)
        assert caught.value.field == "junction_temperatures_c"


# --------------------------------------------------------------------------- #
# the sweep service's own arguments
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "argument, value",
    [
        ("workers", 2.7),
        ("workers", 0),
        ("port", 70000),
        ("port", -1),
        ("port", "7753"),
        ("cache_bytes", 2.7),
        ("disk_cache_bytes", -1),
    ],
)
def test_sweep_server_checks_its_arguments(tmp_path, argument, value):
    # With a disk tier, so a cache budget is refused at the server's
    # door under its own name, not as the cache's ``max_bytes``.
    with pytest.raises(SweepError) as caught:
        server.SweepServer(cache_dir=str(tmp_path), **{argument: value})
    assert caught.value.field == argument


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--workers", "0"),
        ("--workers", "2.7"),
        ("--queue-depth", "-1"),
        ("--batch-window-ms", "nan"),
        ("--port", "70000"),
        ("--cache-bytes", "x"),
    ],
)
def test_serve_flag_is_a_usage_error(monkeypatch, capsys, flag, value):
    def accepted(**settings):
        raise AssertionError(f"{flag} {value} reached the server: {settings}")

    monkeypatch.setattr(server, "SweepServer", accepted)
    with pytest.raises(SystemExit) as caught:
        server.main([flag, value])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro-serve")
    assert f"error: argument {flag}: " in err


@pytest.mark.parametrize("value", ["0", "-3", "2.7", "x"])
def test_smoke_workers_flag_is_a_usage_error(monkeypatch, capsys, value):
    def started(**settings):
        raise AssertionError(f"--workers {value} started a server: {settings}")

    monkeypatch.setattr(smoke, "start_server_thread", started)
    with pytest.raises(SystemExit) as caught:
        smoke.main(["--workers", value])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.serve.smoke")
    assert "error: argument --workers: " in err
