"""The service's wire protocol: newline-delimited JSON envelopes.

One request per line, one response per line whatever the result's size
— the simplest protocol a stdlib socket client can speak while staying
human-debuggable with ``nc``.  Requests are objects with an ``op``
field; responses echo the request's optional ``id`` and carry either
``"ok": true`` plus op-specific fields, or ``"ok": false`` plus a
structured ``error`` object with a stable machine-readable ``code``
(the strings below are API: clients and tests dispatch on them) and a
human-readable ``message``.  Every malformed or out-of-range input is a
:class:`~repro.fields.ReproInputError` naming its field and is answered
``bad-spec`` (``tech-mismatch`` for a technology digest disagreement);
``internal`` is kept for faults of the server itself.

Operations
----------

``ping``
    Liveness plus the spec schema version the server reads.
``sweep``
    Evaluate (or serve from cache) a full serialized sweep spec;
    responds with the result payload.
``point``
    A point query: a serialized *base* spec (no temperature axis) plus
    one ``temperature_c``.  It is the one-coordinate sweep of that base
    over ``temperature_c`` — it shares that sweep's cache key and
    response, and coalesces with concurrent points and sweeps over the
    same base into one broadcast evaluation.
``stats``
    Cache / batcher / scheduler / evaluation counters.
``shutdown``
    Acknowledge, then stop the server cleanly.

A request carries only the fields in :data:`REQUEST_FIELDS`: ``op``,
the optional ``id``, and the ``spec`` / ``temperature_c`` its op reads.
Any other field is refused with ``bad-request`` naming it, so a field
the server does not read is never silently ignored.

Evaluations run in arrival order.  When the bounded evaluation queue
is full, new ``sweep`` / ``point`` requests fail immediately with the
``busy`` error code instead of growing server memory without bound.
While the server is shutting down, pending and newly-arriving
evaluations fail with ``shutting-down``.

Technology identity
-------------------

A spec's technology references are content-addressed: a registered
node travels as ``{"name": ..., "digest": ...}`` (the digest is the
SHA-256 of its declarative parameter bundle, computed at registration),
an unregistered node inlines its full ``parameters`` bundle alongside
the digest.  The server verifies every digest against its own registry
while canonicalizing the spec; a name the server does not know, or
knows under a *different* digest (two hosts disagreeing about what a
name means), fails with the ``tech-mismatch`` error code instead of
silently evaluating the server's idea of that technology.  Because the
digest is part of the canonical spec, the result cache — including a
disk directory shared across hosts — keys on what the technology *is*,
never on what it is called.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "E_BAD_JSON",
    "E_BAD_REQUEST",
    "E_BAD_SPEC",
    "E_BUSY",
    "E_INTERNAL",
    "E_SHUTTING_DOWN",
    "E_TECH_MISMATCH",
    "E_UNKNOWN_OP",
    "E_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "REQUEST_FIELDS",
    "decode_line",
    "encode_line",
    "error_envelope",
    "ok_envelope",
]

#: The longest *request* line the server reads (its asyncio stream-reader
#: limit), far past asyncio's 64 KiB default so large inline specs fit.
#: Response lines are not bounded: a result leaves as one line of any
#: size.
MAX_LINE_BYTES = 64 << 20

OPS = ("ping", "sweep", "point", "stats", "shutdown")

#: Every field a request may carry; any other is ``bad-request``.
REQUEST_FIELDS = ("op", "id", "spec", "temperature_c")

# Stable error codes (API — dispatch on these, not on messages).
E_BAD_JSON = "bad-json"  #: the request line was not valid JSON
E_BAD_REQUEST = "bad-request"  #: valid JSON but not a valid request envelope
E_UNKNOWN_OP = "unknown-op"  #: the ``op`` field names no operation
E_BAD_SPEC = "bad-spec"  #: any ReproInputError: a malformed or out-of-range spec field
E_VERSION = "version-mismatch"  #: the spec's schema version is not ours
E_TECH_MISMATCH = "tech-mismatch"  #: a technology digest disagrees with the server's registry
E_INTERNAL = "internal"  #: a fault of the server itself, never bad input
E_BUSY = "busy"  #: the bounded evaluation queue is full; retry later
E_SHUTTING_DOWN = "shutting-down"  #: the server is draining; request not evaluated


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the terminating newline.

    A NaN or infinite value raises ``ValueError``: the non-standard
    ``NaN``/``Infinity`` tokens never reach the wire.
    """
    return (
        json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
        + b"\n"
    )


def decode_line(line: bytes) -> Any:
    """Parse one protocol line (raises ``ValueError`` on bad JSON)."""
    return json.loads(line.decode("utf-8"))


def ok_envelope(
    op: str, request_id: Optional[Any] = None, **fields: Any
) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {"ok": True, "op": op}
    if request_id is not None:
        envelope["id"] = request_id
    envelope.update(fields)
    return envelope


def error_envelope(
    code: str, message: str, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        envelope["id"] = request_id
    return envelope
