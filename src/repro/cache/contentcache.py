"""Content-addressed on-disk cache with atomic, checksummed entries.

Every entry is addressed by a SHA-256 key computed over the *inputs*
that produced it (file bytes, config fields, schema version) — there is
no invalidation protocol: changed inputs simply hash to a different key
and the stale entry ages out via LRU eviction.

Entries follow the PR 2 artifact rules: written atomically (temp file +
``os.replace``) so readers never observe torn bytes, and carry a payload
checksum so a corrupt or truncated entry is detected on load and treated
as a miss — a damaged cache can slow a run down, never crash it or
change its output.  Loads pass through the ``cache.load`` fault site so
tests can drill that fallback deterministically.

Layout: ``<directory>/<level>/<key>.bin`` where ``level`` groups entries
by pipeline stage (``prepare``, ``frequency``, ``growth``, ``prune``,
``pairs``, ``stats``, ``detect``).  Each file is one JSON header line
(schema, level, key, payload sha256, payload size) followed by the
pickled payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.resilience.checkpoint import atomic_write_bytes
from repro.resilience.faults import fault_check

__all__ = ["CACHE_SCHEMA_VERSION", "CacheLevelStats", "ContentCache"]

#: Bumped whenever the pickled payload layout of any level changes;
#: part of every key, so old entries become unreachable (not corrupt).
#: v2: statistics counters keyed by pattern index.
#: v3: name paths are named tuples; prepared statements hold AST+ walk
#: results instead of a transformed tree.
CACHE_SCHEMA_VERSION = 3

_HEADER_LIMIT = 4096  # a header line is ~200 bytes; cap reads defensively


@dataclass
class CacheLevelStats:
    """Counters for one cache level, exposed on summaries/metrics."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    def to_json(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }


@dataclass
class _Level:
    directory: Path
    stats: CacheLevelStats = field(default_factory=CacheLevelStats)


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

    # -- keys ---------------------------------------------------------

    @staticmethod
    def key(*parts: str | bytes) -> str:
        """SHA-256 over length-prefixed parts plus the schema version.

        Length prefixes keep distinct part tuples from colliding by
        concatenation (``("ab", "c")`` vs ``("a", "bc")``).
        """
        digest = hashlib.sha256()
        digest.update(f"repro-cache-v{CACHE_SCHEMA_VERSION}".encode())
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

    def get(self, level_name: str, key: str) -> Any | None:
        """Return the cached payload or ``None`` on any failure.

        Missing entries are plain misses; unreadable, truncated, or
        checksum-mismatched entries additionally bump the ``corrupt``
        counter and are unlinked best-effort so they stop costing a
        read on every warm run.
        """
        level = self._level(level_name)
        path = self._entry_path(level, key)
        try:
            fault_check("cache.load", key=f"{level_name}:{key[:12]}")
            with open(path, "rb") as handle:
                header_line = handle.readline(_HEADER_LIMIT)
                header = json.loads(header_line)
                payload = handle.read()
            if header.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("cache schema mismatch")
            if header.get("key") != key:
                raise ValueError("cache key mismatch")
            if len(payload) != header.get("size"):
                raise ValueError("truncated cache payload")
            if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
                raise ValueError("cache payload checksum mismatch")
            value = pickle.loads(payload)
        except FileNotFoundError:
            level.stats.misses += 1
            return None
        except Exception:
            level.stats.misses += 1
            level.stats.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        level.stats.hits += 1
        try:
            os.utime(path)  # refresh mtime: entry is recently used
        except OSError:
            pass
        return value

    def put(self, level_name: str, key: str, value: Any) -> None:
        """Store ``value``; best-effort — a full disk degrades, not fails."""
        level = self._level(level_name)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "schema": CACHE_SCHEMA_VERSION,
            "level": level_name,
            "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "size": len(payload),
        }
        data = json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
        try:
            atomic_write_bytes(self._entry_path(level, key), data)
        except OSError:
            return
        level.stats.stores += 1
        self._evict(level)

    def _evict(self, level: _Level) -> None:
        """Drop least-recently-used entries above the per-level cap."""
        try:
            entries = [
                entry
                for entry in os.scandir(level.directory)
                if entry.name.endswith(".bin")
            ]
        except OSError:
            return
        excess = len(entries) - self.max_entries_per_level
        if excess <= 0:
            return

        def mtime(entry: os.DirEntry) -> float:
            try:
                return entry.stat().st_mtime
            except OSError:
                return 0.0

        for entry in sorted(entries, key=mtime)[:excess]:
            try:
                os.unlink(entry.path)
                level.stats.evictions += 1
            except OSError:
                pass

    def stats_json(self) -> dict[str, dict[str, int]]:
        """Per-level counters, sorted by level name for stable output."""
        return {
            name: level.stats.to_json()
            for name, level in sorted(self._levels.items())
        }
