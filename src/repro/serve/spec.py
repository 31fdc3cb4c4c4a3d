"""Canonical sweep-spec form and its content-addressed key.

The sweep service answers repeat queries from a result cache, which is
only as good as its key: two *semantically identical* requests must
collide, however their payloads were spelled.  The serialized form
(:meth:`repro.engine.sweep.Sweep.to_dict`) already fixes most spelling
freedom, but a payload that arrives off the wire may still differ in
JSON key order, axis declaration order, or numeric dtype (``25`` vs
``25.0``, a numpy scalar vs a Python float).

:func:`canonical_spec` removes all of it by round-tripping the payload
through the real builder and planner — ``Sweep.from_dict(payload)``,
then :meth:`~repro.engine.sweep.Sweep.plan`, then ``to_dict()`` — so
canonicalization *is* validation: axes come back in
:data:`~repro.engine.sweep.CANONICAL_AXIS_ORDER`, coordinates come back
as plain Python floats/ints, defaults are materialized, and every ring
the sweep will evaluate has been built.  Anything the engine would
reject raises a :class:`~repro.fields.ReproInputError` naming the field
right here instead of at evaluation time.  :func:`canonical_key` then
hashes the sorted-key compact JSON encoding of that canonical form with
SHA-256.

Technology references inside the canonical form are themselves
content-addressed: a registered node canonicalizes to its ``{name,
digest}`` reference (the digest of its declarative parameter bundle,
verified against this process's registry during the round trip — a
disagreement raises
:class:`~repro.engine.sweep.TechnologyMismatchError`), and an inline
bundle that matches a registered node collapses to the same reference.
Re-registering a node with different parameters therefore changes every
key that mentions it: stale cache entries become unreachable instead of
wrong.

The key's stability across releases is load-bearing (a canonicalization
drift silently splits the cache in two), so
``tests/test_serve_spec.py`` pins the key of a representative spec to a
committed golden hash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..engine.sweep import Sweep, SweepError
from ..fields import ReproInputError

__all__ = ["canonical_key", "canonical_spec", "encode_canonical", "split_temperature"]


def canonical_spec(spec: Union[Sweep, Mapping[str, Any]]) -> Dict[str, Any]:
    """The canonical plain-data form of a sweep spec.

    Accepts a :class:`~repro.engine.sweep.Sweep` or a serialized spec
    mapping; returns the normalized payload (canonical axis order,
    plain Python scalars, defaults materialized) only once the sweep
    has planned.  Planning builds every ring the sweep will evaluate, so
    a bad field anywhere in the spec — a base wire length, external load
    or tap stage, a width_ratio axis's ``stage_count`` or
    ``nmos_width_um``, a temperature at or below 0 K, a readout clock —
    raises a :class:`~repro.fields.ReproInputError` (a
    :class:`~repro.engine.sweep.SweepError`, ``ConfigurationError``,
    ``CellError`` or ``TechnologyError``) whose ``field`` names it.  A
    base ring field refused while planning is named by its path
    (``base.tap_stage``), as :meth:`Sweep.from_dict` names the fields it
    refuses.
    """
    if isinstance(spec, Sweep):
        payload = spec.to_dict()
    elif isinstance(spec, Mapping):
        payload = spec
    else:
        raise SweepError(
            f"canonical_spec takes a Sweep or a serialized spec mapping, "
            f"got {type(spec).__name__}"
        )
    sweep = Sweep.from_dict(payload)
    try:
        sweep.plan()
    except ReproInputError as error:
        # The one base field a ring checks only when it is built.
        if error.field == "tap_stage":
            error.field = "base.tap_stage"
        raise
    return sweep.to_dict()


def encode_canonical(payload: Mapping[str, Any]) -> bytes:
    """The canonical byte encoding of an (already canonical) payload.

    Compact separators and sorted keys, so the encoding is a pure
    function of the payload's content — the exact bytes
    :func:`canonical_key` hashes.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise SweepError(f"spec payload is not JSON-serializable: {error}") from error


def split_temperature(
    canonical: Mapping[str, Any],
) -> Tuple[Dict[str, Any], Optional[List[float]]]:
    """Split an (already canonical) payload into base spec + temperature grid.

    Returns ``(base, temperatures)``: the payload with its explicit
    ``temperature`` axis removed, and that axis's coordinate list — or
    ``None`` when the payload declares no temperature axis (the grid is
    then the engine's to choose, and the spec is not coalescable).  The
    base is what the server's sweep coalescer keys batches on: two
    requests differing only along the temperature axis share a base.
    """
    axes = canonical.get("axes", ())
    temperatures: Optional[List[float]] = None
    rest: List[Any] = []
    for axis in axes:
        if isinstance(axis, Mapping) and axis.get("name") == "temperature":
            temperatures = [float(t) for t in axis.get("coordinates", ())]
        else:
            rest.append(axis)
    base = dict(canonical)
    base["axes"] = rest
    return base, temperatures


def canonical_key(spec: Union[Sweep, Mapping[str, Any]]) -> str:
    """Content-address a sweep spec: SHA-256 of its canonical encoding.

    Semantically identical specs — same axes in any declaration order,
    same coordinates in any numeric dtype, same base context however
    defaulted — map to the same hex key; any semantic difference maps
    to a different one (modulo SHA-256).  This is the result-cache key
    of the sweep service.
    """
    return hashlib.sha256(encode_canonical(canonical_spec(spec))).hexdigest()
