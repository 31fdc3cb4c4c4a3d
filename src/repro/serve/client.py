"""Synchronous client for the sweep service.

A thin blocking wrapper over one TCP connection: it speaks the NDJSON
protocol of :mod:`repro.serve.protocol`, raises :class:`ServeError`
(carrying the structured error ``code``) for server-side rejections,
and reads every result as one response line, so callers see a result
payload byte-identical (post ``to_dict``) to what a local
``Sweep.run()`` would have produced, or the re-hydrated
:class:`~repro.engine.sweep.SweepResult` itself.

Transport failures are structured, never raw socket exceptions: a
server that is down gets a bounded connect-retry loop (exponential
backoff) before ``ServeError("transport", ...)``; a server that stops
answering surfaces as ``ServeError("timeout", ...)`` after the socket
timeout instead of an indefinite hang; and an idempotent request whose
connection died before any response byte arrived is retried once over
a fresh connection (``shutdown`` is never retried — a lost ack may
still have stopped the server).

The client is deliberately stdlib-synchronous (``socket`` +
``makefile``): it is what the tests, the example, the benchmark, and
the runner's smoke path use, none of which want an event loop of
their own.  One client = one connection; concurrency comes from
running several clients (the micro-batcher coalesces across
connections, not within one).
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Mapping, Optional, Union

from ..engine.sweep import Sweep, SweepError, SweepResult

__all__ = ["ServeClient", "ServeError"]

#: Failed connection attempts retried before ``ServeError("transport")``.
CONNECT_RETRIES = 3
#: The first retry's backoff; each later retry waits twice as long.
RETRY_BACKOFF_S = 0.05


class ServeError(RuntimeError):
    """A structured rejection from the server (or a transport failure).

    ``code`` is the stable protocol error code
    (:data:`repro.serve.protocol.E_BAD_SPEC` et al.), or one of two
    client-side codes: ``"transport"`` for connection-level failures
    and ``"timeout"`` for a server that accepted the request but never
    answered within the socket timeout.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.server.SweepServer`.

    :data:`CONNECT_RETRIES` failed connection attempts are retried with
    exponential backoff starting at :data:`RETRY_BACKOFF_S` (so a client
    racing a server's startup, or a server mid-restart, connects as
    soon as the socket binds); exhaustion raises a structured
    ``ServeError("transport", ...)`` instead of a raw
    ``ConnectionRefusedError``.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7753, timeout: float = 60.0
    ) -> None:
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _connect(self) -> None:
        """(Re)open the connection, with bounded exponential backoff."""
        self._teardown()
        backoff = RETRY_BACKOFF_S
        attempts = CONNECT_RETRIES + 1
        for attempt in range(attempts):
            try:
                self._sock = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
                self._file = self._sock.makefile("rwb")
                return
            except OSError as error:
                if attempt + 1 >= attempts:
                    raise ServeError(
                        "transport",
                        f"could not connect to {self._host}:{self._port} after "
                        f"{attempts} attempt(s): {error}",
                    ) from error
                time.sleep(backoff)
                backoff *= 2.0

    def _teardown(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._sock = None

    def _read_line(self) -> Any:
        try:
            line = self._file.readline()
        except socket.timeout as error:
            raise ServeError(
                "timeout",
                f"no response from {self._host}:{self._port} within "
                f"{self._timeout} s",
            ) from error
        if not line:
            raise ServeError("transport", "server closed the connection")
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError as error:  # pragma: no cover - server bug guard
            raise ServeError("transport", f"unparseable response line: {error}")

    def _request(
        self, message: Mapping[str, Any], retry: bool = True
    ) -> Dict[str, Any]:
        """Send one request; return its ok-envelope.

        A request whose connection broke before *any* response byte
        arrived is retried once over a fresh connection when ``retry``
        — safe for every idempotent op (the server's result cache makes
        a replayed sweep/point free); ``shutdown`` passes
        ``retry=False``.
        """
        try:
            return self._round_trip(message)
        except ServeError as error:
            if not retry or error.code != "transport":
                raise
            self._connect()
            return self._round_trip(message)

    def _round_trip(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        try:
            self._file.write(
                json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
            )
            self._file.flush()
        except OSError as error:
            raise ServeError("transport", f"send failed: {error}") from error
        response = self._read_line()
        if not isinstance(response, dict):  # pragma: no cover - server bug guard
            raise ServeError("transport", f"malformed response: {response!r}")
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServeError(
                error.get("code", "unknown"), error.get("message", "unknown error")
            )
        return response

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    def ping(self) -> Dict[str, Any]:
        return self._request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self._request({"op": "stats"})["stats"]

    def sweep_payload(self, spec: Union[Sweep, Mapping[str, Any]]) -> Dict[str, Any]:
        """The served result payload (``SweepResult.to_dict`` form)."""
        return self._request({"op": "sweep", "spec": _spec_payload(spec)})["result"]

    def sweep(self, spec: Union[Sweep, Mapping[str, Any]]) -> SweepResult:
        """Evaluate a full sweep remotely; returns the re-hydrated result."""
        return SweepResult.from_dict(self.sweep_payload(spec))

    def point_payload(
        self, spec: Union[Sweep, Mapping[str, Any]], temperature_c: float
    ) -> Dict[str, Any]:
        message = {
            "op": "point",
            "spec": _spec_payload(spec),
            "temperature_c": float(temperature_c),
        }
        return self._request(message)["result"]

    def point(
        self, spec: Union[Sweep, Mapping[str, Any]], temperature_c: float
    ) -> SweepResult:
        """One micro-batchable point query (base spec + one temperature)."""
        return SweepResult.from_dict(self.point_payload(spec, temperature_c))

    def shutdown(self) -> None:
        """Stop the server cleanly (the connection closes afterwards).

        Never retried: a lost acknowledgement may still have stopped
        the server, and replaying the op against a freshly restarted
        one would stop the wrong instance.
        """
        self._request({"op": "shutdown"}, retry=False)

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _spec_payload(spec: Union[Sweep, Mapping[str, Any]]) -> Mapping[str, Any]:
    if isinstance(spec, Sweep):
        return spec.to_dict()
    if isinstance(spec, Mapping):
        return spec
    raise SweepError(
        f"spec must be a Sweep or a serialized spec mapping, got "
        f"{type(spec).__name__}"
    )
