"""Content-addressed on-disk cache with atomic, checksummed entries.

Every entry is addressed by a SHA-256 key computed over the *inputs*
that produced it (file bytes, config fields) and over the code that
computed it (:func:`code_digest`, a hash of every module of the
``repro`` package) — there is no invalidation protocol and no version
to bump: changed inputs or an edited module simply hash to a different
key, and the stale entry ages out via LRU eviction.

Entries follow the same rules as artifacts: written atomically (temp file +
``os.replace``) so readers never observe torn bytes, and carry a payload
checksum so a corrupt or truncated entry is detected on load and treated
as a miss — a damaged cache can slow a run down, never crash it or
change its output.  Lookups pass through the ``cache.load`` fault site
so tests can drill that fallback deterministically.

Layout: ``<directory>/<level>/<key>.bin`` where ``level`` groups entries
by pipeline stage (``prepare``, ``frequency``, ``growth``, ``prune``,
``pairs``, ``stats``, ``mine``, ``train``, ``detect``).  Each file is
one JSON header line (level, key, payload sha256, payload size)
followed by the pickled payload.

The payload sha256 is also the entry's *content* address: :meth:`put`
returns it, and :meth:`digest` reads it back from the header alone,
without reading or unpickling the payload.  Mining keys every level
after ``prepare`` on these digests, so an edit that leaves a file's
prepared form unchanged stops at its ``prepare`` entry (early cutoff),
and a run whose ``train`` entry answers never decodes a prepared file
at all; :meth:`decode` reads the payload only when it is used.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.resilience.checkpoint import atomic_write_bytes
from repro.resilience.faults import fault_check

__all__ = ["CacheLevelStats", "ContentCache", "code_digest"]

_HEADER_LIMIT = 4096  # a header line is ~200 bytes; cap reads defensively


@functools.cache
def code_digest() -> str:
    """SHA-256 over the source of every module of the ``repro``
    package: each ``.py`` file's package-relative path and bytes,
    length-prefixed, in sorted path order.

    Part of every cache key, so an entry answers only the exact code
    that stored it: any edit to any module makes the next run refill
    rather than replay bytes an older build computed.  Computed once
    per process, when the first :class:`ContentCache` opens, so a
    long-running process keys on the sources it imported.
    """
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix().encode()
        data = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


@dataclass
class CacheLevelStats:
    """Counters for one cache level, exposed on summaries/metrics."""

    #: lookups (:meth:`ContentCache.get` or :meth:`ContentCache.digest`)
    #: that found a usable entry, and those that did not
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    #: payload bytes read, verified and unpickled, and the seconds that
    #: took (a header-only :meth:`ContentCache.digest` decodes nothing)
    decoded_bytes: int = 0
    decode_seconds: float = 0.0

    def to_json(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "decoded_bytes": self.decoded_bytes,
            "decode_seconds": round(self.decode_seconds, 6),
        }


@dataclass
class _Level:
    directory: Path
    stats: CacheLevelStats = field(default_factory=CacheLevelStats)
    #: keys of the entries on disk, least recently used first: read by
    #: one scan (ordered by mtime) when the level is first stored to,
    #: then kept in step by every hit, store and eviction
    lru: OrderedDict[str, None] | None = None


class ContentCache:
    """Content-addressed pickle store under ``directory``.

    Not safe for concurrent *writers* of the same key beyond what
    ``os.replace`` guarantees (last writer wins, readers see a complete
    entry either way) — the same contract artifacts already rely on.
    """

    def __init__(self, directory: str | Path, *, max_entries_per_level: int = 8192):
        self.directory = Path(directory)
        self.max_entries_per_level = max_entries_per_level
        self._levels: dict[str, _Level] = {}
        self.directory.mkdir(parents=True, exist_ok=True)
        code_digest()  # hash the sources now, before any later edit

    # -- keys ---------------------------------------------------------

    @staticmethod
    def key(*parts: str | bytes) -> str:
        """SHA-256 over :func:`code_digest` plus length-prefixed parts.

        The one place that decides staleness: callers pass only the
        inputs an entry is a function of, never a version.  Length
        prefixes keep distinct part tuples from colliding by
        concatenation (``("ab", "c")`` vs ``("a", "bc")``).
        """
        digest = hashlib.sha256(code_digest().encode())
        for part in parts:
            data = part.encode("utf-8") if isinstance(part, str) else part
            digest.update(f"|{len(data)}:".encode())
            digest.update(data)
        return digest.hexdigest()

    # -- internals ----------------------------------------------------

    def _level(self, name: str) -> _Level:
        level = self._levels.get(name)
        if level is None:
            level = _Level(self.directory / name)
            level.directory.mkdir(parents=True, exist_ok=True)
            self._levels[name] = level
        return level

    @staticmethod
    def _entry_path(level: _Level, key: str) -> Path:
        return level.directory / f"{key}.bin"

    # -- API ----------------------------------------------------------

    @staticmethod
    def _read_header(handle, key: str) -> dict:
        """The entry's header, checked against ``key`` (which hashes the
        code that wrote it)."""
        header = json.loads(handle.readline(_HEADER_LIMIT))
        if header.get("key") != key:
            raise ValueError("cache key mismatch")
        return header

    def _discard(self, level: _Level, path: Path) -> None:
        """Count a damaged entry and unlink it best-effort, so it stops
        costing a read on every warm run."""
        level.stats.corrupt += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    @staticmethod
    def _touch(level: _Level, key: str, path: Path) -> None:
        """Mark an entry most recently used: in the level's record, and
        by its mtime for the next process's scan."""
        if level.lru is not None:
            level.lru[key] = None
            level.lru.move_to_end(key)
        try:
            os.utime(path)
        except OSError:
            pass

    def _decode(self, level: _Level, handle, header: dict) -> Any:
        """Read, verify and unpickle the payload after ``header``."""
        started = time.perf_counter()
        payload = handle.read()
        if len(payload) != header.get("size"):
            raise ValueError("truncated cache payload")
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise ValueError("cache payload checksum mismatch")
        value = pickle.loads(payload)
        level.stats.decoded_bytes += len(payload)
        level.stats.decode_seconds += time.perf_counter() - started
        return value

    def get(self, level_name: str, key: str) -> Any | None:
        """Return the cached payload or ``None`` on any failure.

        Missing entries are plain misses; unreadable, truncated, or
        checksum-mismatched entries additionally bump the ``corrupt``
        counter and are unlinked best-effort.
        """
        level = self._level(level_name)
        path = self._entry_path(level, key)
        try:
            fault_check("cache.load", key=f"{level_name}:{key[:12]}")
            with open(path, "rb") as handle:
                value = self._decode(level, handle, self._read_header(handle, key))
        except FileNotFoundError:
            level.stats.misses += 1
            return None
        except Exception:
            level.stats.misses += 1
            self._discard(level, path)
            return None
        level.stats.hits += 1
        self._touch(level, key, path)
        return value

    def digest(self, level_name: str, key: str) -> str | None:
        """The entry's payload sha256, read from its header alone.

        A lookup like :meth:`get` (same counters, fault site and damage
        handling), except that the payload is neither read nor
        unpickled: the entry's size on disk must match its header, and
        :meth:`decode` verifies the checksum if the payload is ever
        used.  ``None`` when the entry is missing or damaged.
        """
        level = self._level(level_name)
        path = self._entry_path(level, key)
        try:
            fault_check("cache.load", key=f"{level_name}:{key[:12]}")
            with open(path, "rb") as handle:
                header = self._read_header(handle, key)
                size = os.fstat(handle.fileno()).st_size
                if size != handle.tell() + header.get("size", -1):
                    raise ValueError("truncated cache payload")
                digest = header["sha256"]
        except FileNotFoundError:
            level.stats.misses += 1
            return None
        except Exception:
            level.stats.misses += 1
            self._discard(level, path)
            return None
        level.stats.hits += 1
        self._touch(level, key, path)
        return digest

    def decode(self, level_name: str, key: str, digest: str) -> Any | None:
        """The payload of an entry :meth:`digest` found, or ``None``.

        Not a lookup: the hit was counted when the digest was read.  An
        entry that is damaged, or no longer holds the payload with
        sha256 ``digest``, is counted ``corrupt`` and unlinked.  One
        that is gone was evicted since (a run storing more entries than
        the level's cap can evict its own earlier hits) and is counted
        nowhere: the caller's re-store shows up as a store."""
        level = self._level(level_name)
        path = self._entry_path(level, key)
        try:
            with open(path, "rb") as handle:
                header = self._read_header(handle, key)
                if header.get("sha256") != digest:
                    raise ValueError("cache entry replaced since its digest was read")
                return self._decode(level, handle, header)
        except FileNotFoundError:
            return None
        except Exception:
            self._discard(level, path)
            return None

    def put(self, level_name: str, key: str, value: Any) -> str:
        """Store ``value`` and return its payload sha256 (the digest
        :meth:`digest` reads back).  Best-effort — a full disk degrades
        to a skipped store, not a failure."""
        level = self._level(level_name)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        header = {
            "level": level_name,
            "key": key,
            "sha256": digest,
            "size": len(payload),
        }
        data = json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
        del payload
        path = self._entry_path(level, key)
        try:
            atomic_write_bytes(path, data)
        except OSError:
            return digest
        level.stats.stores += 1
        if level.lru is None:
            level.lru = self._scan(level)
        self._touch(level, key, path)
        if len(level.lru) > self.max_entries_per_level:
            self._evict(level)
        return digest

    @staticmethod
    def _scan(level: _Level) -> OrderedDict[str, None]:
        """The keys of the level's entries on disk, oldest mtime first."""

        def mtime(entry: os.DirEntry) -> float:
            try:
                return entry.stat().st_mtime
            except OSError:
                return 0.0

        try:
            with os.scandir(level.directory) as scan:
                entries = [entry for entry in scan if entry.name.endswith(".bin")]
        except OSError:
            entries = []
        return OrderedDict(
            (entry.name[: -len(".bin")], None) for entry in sorted(entries, key=mtime)
        )

    def _evict(self, level: _Level) -> None:
        """Unlink least-recently-used entries until the level is at its
        cap, without a scan.  An entry already gone means the record is
        stale (another process evicted or cleared entries), so the level
        is rescanned and eviction goes on from what is on disk."""
        while len(level.lru) > self.max_entries_per_level:
            key, _ = level.lru.popitem(last=False)
            try:
                os.unlink(self._entry_path(level, key))
                level.stats.evictions += 1
            except FileNotFoundError:
                level.lru = self._scan(level)
            except OSError:
                pass

    def stats_json(self) -> dict[str, dict[str, int | float]]:
        """Per-level counters, sorted by level name for stable output."""
        return {
            name: level.stats.to_json()
            for name, level in sorted(self._levels.items())
        }
