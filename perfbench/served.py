"""Served-size sweep requests, and the layers on their server path.

``repro.serve`` answers a sweep request by canonicalizing its spec,
keying it, rebuilding the sweep with ``Sweep.from_dict``, evaluating it
(a sweep with a temperature axis is coalesced and its own grid taken
back out with ``SweepResult.select``), converting the result with
``to_dict`` and encoding the reply line, which the client decodes.  A
cache hit skips the evaluation.  ``Requests.replay`` times each of those
layers locally, on one request of a class:

* ``sweep_miss``: ``period`` over the six Fig. 3 configurations x 2000
  temperatures on a fresh grid;
* ``sweep_hit``: a repeat of one of the last few sweeps;
* ``nonlinearity``: ``nonlinearity_percent`` on a fresh grid, an
  endpoint observable, which is neither coalesced nor sliced.
"""

from __future__ import annotations

import collections
import hashlib
import json
import time
from typing import List

CLASSES = ("sweep_miss", "sweep_hit", "nonlinearity")
OBSERVABLES = {"sweep_miss": "period", "nonlinearity": "nonlinearity_percent"}
GRID_POINTS = 2000
GRID_RANGE = (-50.0, 150.0)
#: ``sweep_hit`` repeats one of this many most recent sweeps.
RECENT = 4


def _timed(samples: List[float], function, *args, **kwargs):
    start = time.perf_counter()
    value = function(*args, **kwargs)
    samples.append(time.perf_counter() - start)
    return value


class Requests:
    """The imported program and a seeded stream of requests."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro import CMOS035, PAPER_FIG3_CONFIGURATIONS, Axis, Sweep
        from repro.serve import canonical_spec, encode_canonical
        from repro.serve.protocol import decode_line, encode_line, ok_envelope

        self.np = np
        self.Axis = Axis
        self.Sweep = Sweep
        self.technology = CMOS035
        self.configurations = PAPER_FIG3_CONFIGURATIONS
        self.canonical_spec = canonical_spec
        self.encode_canonical = encode_canonical
        self.encode_line = encode_line
        self.decode_line = decode_line
        self.ok_envelope = ok_envelope
        self.rng = np.random.default_rng(seed)
        self.recent: collections.deque = collections.deque(maxlen=RECENT)

    def request(self, kind: str):
        """(spec, grid) of the next request of ``kind``; fresh grids never repeat."""
        if kind == "sweep_hit":
            return self.recent[int(self.rng.integers(len(self.recent)))]
        low = GRID_RANGE[0] + self.rng.uniform(0.0, 1.0)
        high = GRID_RANGE[1] - self.rng.uniform(0.0, 1.0)
        grid = [float(t) for t in self.np.linspace(low, high, GRID_POINTS)]
        spec = (
            self.Sweep(technology=self.technology)
            .over(self.Axis.configuration(self.configurations))
            .over(self.Axis.temperature(grid))
            .observe(OBSERVABLES[kind])
            .to_dict()
        )
        self.recent.append((spec, grid))
        return spec, grid

    def payload(self, spec):
        """``Sweep.from_dict(spec).run().to_dict()`` after a JSON round trip."""
        return json.loads(json.dumps(self.Sweep.from_dict(spec).run().to_dict()))

    def shape_ok(self, spec, payload) -> bool:
        values = payload.get("values") or []
        return (
            payload.get("dims") == ["configuration", "temperature"]
            and payload.get("observable") == spec["observable"]
            and len(values) == len(self.configurations)
            and all(len(row) == GRID_POINTS for row in values)
        )

    def replay(self, kind: str, spec, grid, payload, layers) -> None:
        """Time, locally, each layer on this request's server path."""
        sweep = _timed(layers["engine.from_dict_ms"], self.Sweep.from_dict, spec)
        canonical = _timed(layers["serve.canonical_spec_ms"], self.canonical_spec, spec)
        key = _timed(layers["serve.canonical_key_ms"], self._key, canonical)
        if kind != "sweep_hit":
            run_layer = (
                "engine.run_miss_ms" if kind == "sweep_miss" else "engine.run_nonlinearity_ms"
            )
            result = _timed(layers[run_layer], sweep.run)
            if kind == "sweep_miss":
                result = _timed(layers["engine.select_ms"], result.select, temperature=grid)
            _timed(layers["engine.result_to_dict_ms"], result.to_dict)
        envelope = self.ok_envelope(
            "sweep", None, key=key, cached=kind == "sweep_hit", result=payload
        )
        line = _timed(layers["serve.encode_ms"], self.encode_line, envelope)
        _timed(layers["serve.decode_ms"], self.decode_line, line)

    def _key(self, canonical) -> str:
        return hashlib.sha256(self.encode_canonical(canonical)).hexdigest()
