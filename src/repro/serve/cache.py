"""Result caching for the sweep service: a memory LRU over a disk tier.

The service's working set is "results users keep asking for", whose
sizes span four orders of magnitude (a point query's single value to a
full Monte-Carlo tensor), so the eviction budget is expressed in
*payload bytes*, not entry counts: each entry is charged the size of
its canonical JSON encoding — the same bytes a response line carries —
plus nothing else, and least-recently-*used* entries are evicted until
the budget holds.  An entry larger than the whole budget is simply not
admitted (caching it would evict everything else for a single request).

Two tiers share the canonical spec key (:func:`~repro.serve.spec.canonical_key`):

* The **memory tier** (:class:`ResultCache`) holds each result's
  encoded bytes, answers in microseconds, and dies with the process.
* The optional **disk tier** (:class:`DiskCache`) persists one file per
  entry under a shared directory, so a restarted server — or a second
  host mounting the same directory — serves previously computed sweeps
  with zero evaluations.  Writes are atomic (write to a process-unique
  temp name, then ``os.replace``), loads are corruption-safe (any
  unreadable/unparseable/foreign file is treated as a miss and
  removed, never surfaced to a client), and the byte budget is
  enforced by LRU on file mtime (a disk hit refreshes its file's
  mtime, so recently-served entries survive eviction sweeps).

Because the disk directory outlives any single process — and may be
shared by hosts running different builds — each disk entry is a
*stamped envelope*, not a bare result payload::

    {"spec_version": <Sweep.SCHEMA_VERSION>,
     "tech_digest": <technology digest of the spec, or null>,
     "result": <serialized SweepResult>}

A load validates both stamps: an entry written under a different spec
schema (including any pre-envelope legacy file) or carrying a
different technology digest than the requesting spec is dropped and
the sweep re-evaluated — the cache can never serve a payload computed
under a different idea of the technology than the key claims.

The memory tier always fronts the disk tier: a disk hit is promoted
into memory, and every admission is written through to disk.  Both
tiers are thread-safe — the server touches them from the event loop
while evaluations complete in worker threads, and the hit/miss/eviction
counters (reported by the ``stats`` op and asserted by the service
tests) must not tear.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..engine.sweep import Sweep, SweepError, SweepResult
from ..fields import integer

__all__ = ["DEFAULT_CACHE_BYTES", "DEFAULT_DISK_CACHE_BYTES", "DiskCache", "ResultCache"]

#: Default result-cache budget: 64 MiB of encoded result payloads —
#: thousands of point-query slices, or a handful of full Monte-Carlo
#: tensors.
DEFAULT_CACHE_BYTES = 64 << 20

#: Default disk-tier budget: a restart-surviving archive can afford to
#: be an order of magnitude roomier than the in-memory tier.
DEFAULT_DISK_CACHE_BYTES = 1 << 30

#: Disk-tier entries are ``<key>.json`` (the key is a SHA-256 hex
#: digest, so the name is filesystem-safe by construction); writes land
#: under a ``.tmp``-suffixed process-unique name first.
_ENTRY_SUFFIX = ".json"


class DiskCache:
    """One-file-per-entry persistent payload store under a directory.

    Entries are stamped envelopes (spec schema version + technology
    digest) around the compact JSON encoding of a result payload,
    named by their canonical spec key.  The store is safe against
    concurrent writers (atomic rename; last writer wins — both wrote
    the same bytes for the same key anyway, the key is
    content-addressed), against corruption (a partial/garbled/foreign
    file is a miss, and is deleted so it cannot fail again), and
    against staleness (an envelope whose stamps disagree with the
    requesting spec is dropped, never served).
    """

    def __init__(
        self,
        directory: str,
        max_bytes: int = DEFAULT_DISK_CACHE_BYTES,
    ) -> None:
        max_bytes = integer(max_bytes, "max_bytes", SweepError, at_least=0)
        self.directory = str(directory)
        self.max_bytes = max_bytes
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0
        self._stale_dropped = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + _ENTRY_SUFFIX)

    def get(self, key: str, tech_digest: Optional[str] = None) -> Optional[bytes]:
        """The result bytes stored for ``key`` (exactly as ``put`` got them), or None.

        ``tech_digest`` is the technology digest of the *requesting*
        spec (None for a spec with no registered technology reference);
        an entry stamped with any other digest — or written under a
        different spec schema version, including pre-envelope legacy
        files — is stale: it is dropped and the caller re-evaluates.

        A hit refreshes the entry file's mtime — the disk tier's LRU
        clock — so entries the service keeps serving are the last to
        be evicted.  Any failure to read or validate the file (torn
        write from a crashed process, disk corruption, a stray foreign
        file under the shared directory, an envelope not spelled the
        way ``put`` writes it) is likewise a miss: the offender is
        removed, so a bad file can never crash the server or poison a
        response.
        """
        path = self._path(key)
        stale = False
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            envelope = json.loads(raw.decode("utf-8"))
            if not isinstance(envelope, dict) or "result" not in envelope:
                raise ValueError("not a stamped cache envelope")
            if (
                envelope.get("spec_version") != Sweep.SCHEMA_VERSION
                or envelope.get("tech_digest") != tech_digest
            ):
                stale = True
                raise ValueError("stale cache envelope")
            if not _looks_like_result(envelope["result"]):
                raise ValueError("not a serialized sweep result")
            stamp = _stamp(tech_digest)
            if not (raw.startswith(stamp) and raw.endswith(b"}")):
                raise ValueError("envelope is not spelled the way put writes it")
        except FileNotFoundError:
            with self._lock:
                self._misses += 1
            return None
        except (OSError, ValueError):
            # Corruption/staleness-safe load: drop the entry and miss.
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - racing cleanup
                pass
            with self._lock:
                self._misses += 1
                if stale:
                    self._stale_dropped += 1
            return None
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:  # pragma: no cover - entry evicted underneath us
            pass
        with self._lock:
            self._hits += 1
        return raw[len(stamp) : -1]

    def put(
        self, key: str, encoded: bytes, tech_digest: Optional[str] = None
    ) -> bool:
        """Persist an encoded payload atomically; False when oversized.

        ``encoded`` is the compact JSON encoding of the result payload;
        it is spliced verbatim into the stamped envelope (no decode /
        re-encode of what may be a tens-of-megabytes tensor).  The
        write lands under a process-unique temporary name and is
        renamed into place, so a reader (or a crashed writer) can never
        observe a half-written entry.  After admission the directory is
        swept: oldest-mtime entries are removed until the byte budget
        holds again.
        """
        if len(encoded) > self.max_bytes:
            with self._lock:
                self._rejected += 1
            return False
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(_stamp(tech_digest) + encoded + b"}")
            os.replace(tmp, path)
        except OSError:
            # A full or read-only cache volume degrades to "no disk
            # tier", never to a failed request.
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        self._evict()
        return True

    def _evict(self) -> None:
        """Remove oldest-mtime entries until the byte budget holds."""
        entries = []
        total = 0
        try:
            names = os.listdir(self.directory)
        except OSError:  # pragma: no cover - directory vanished
            return
        for name in names:
            if not name.endswith(_ENTRY_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover - racing eviction
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        for _mtime, size, path in sorted(entries):
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - racing eviction
                continue
            with self._lock:
                self._evictions += 1
            total -= size
            if total <= self.max_bytes:
                return

    def stats(self) -> Dict[str, int]:
        entries = 0
        occupied = 0
        try:
            for name in os.listdir(self.directory):
                if not name.endswith(_ENTRY_SUFFIX):
                    continue
                try:
                    occupied += os.stat(os.path.join(self.directory, name)).st_size
                    entries += 1
                except OSError:  # pragma: no cover - racing eviction
                    continue
        except OSError:  # pragma: no cover - directory vanished
            pass
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "rejected": self._rejected,
                "stale_dropped": self._stale_dropped,
                "entries": entries,
                "bytes": occupied,
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskCache({self.directory!r}, max_bytes={self.max_bytes})"


def _stamp(tech_digest: Optional[str]) -> bytes:
    """The envelope prefix of a disk entry: everything before its result bytes."""
    return b'{"spec_version":%d,"tech_digest":%s,"result":' % (
        Sweep.SCHEMA_VERSION,
        json.dumps(tech_digest).encode("utf-8"),
    )


def _looks_like_result(payload: Any) -> bool:
    """Cheap structural validation of a decoded disk entry."""
    return (
        isinstance(payload, dict)
        and payload.get("version") == SweepResult.SCHEMA_VERSION
        and isinstance(payload.get("dims"), list)
        and isinstance(payload.get("coords"), dict)
        and "values" in payload
        and isinstance(payload.get("observable"), str)
    )


class ResultCache:
    """An LRU mapping of canonical spec keys to encoded result payloads.

    Values are the compact JSON bytes of a result — the exact bytes a
    response line carries — and each is charged its length against the
    budget.  With a ``disk`` tier attached, misses fall through to it
    (promoting hits back into memory) and admissions write through, so
    the cache's contents survive the process.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        disk: Optional[DiskCache] = None,
    ) -> None:
        max_bytes = integer(max_bytes, "max_bytes", SweepError, at_least=0)
        self.max_bytes = max_bytes
        self.disk = disk
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str, tech_digest: Optional[str] = None) -> Optional[bytes]:
        """The cached result bytes for ``key`` (refreshing its recency), or None.

        Memory first; on a memory miss the disk tier (when attached) is
        consulted — passing ``tech_digest``, the requesting spec's
        technology digest, so a stale disk envelope is dropped rather
        than served — and a disk hit is promoted into the memory tier
        so the next repeat is served without touching the filesystem.
        """
        with self._lock:
            encoded = self._entries.get(key)
            if encoded is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return encoded
            self._misses += 1
        if self.disk is None:
            return None
        encoded = self.disk.get(key, tech_digest)
        if encoded is not None:
            self._admit(key, encoded)
        return encoded

    def put(self, key: str, encoded: bytes, tech_digest: Optional[str] = None) -> bool:
        """Admit (or refresh) a result's bytes; returns False when they
        exceed the whole memory budget and were not admitted there.

        With a disk tier the bytes are also written through to it,
        stamped with ``tech_digest``.
        """
        if self.disk is not None:
            self.disk.put(key, encoded, tech_digest)
        return self._admit(key, encoded)

    def _admit(self, key: str, encoded: bytes) -> bool:
        with self._lock:
            if len(encoded) > self.max_bytes:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = encoded
            self._bytes += len(encoded)
            while self._bytes > self.max_bytes:
                _evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self._evictions += 1
            return True

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters plus the current occupancy."""
        with self._lock:
            stats: Dict[str, Any] = {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
            }
        if self.disk is not None:
            stats["disk"] = self.disk.stats()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"ResultCache({stats['entries']} entries, {stats['bytes']}/"
            f"{stats['max_bytes']} bytes, {stats['hits']} hits)"
        )
