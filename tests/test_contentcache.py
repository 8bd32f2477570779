"""Tests for the content-addressed cache store (`repro.cache`).

The store's contract: a key identifies content exactly (the package's
code digest, length-prefixed parts), entries round-trip through pickle,
damage of any kind — truncation, bit flips, a foreign header, injected
I/O faults — reads as a miss (never an exception), and levels evict LRU
past their cap.
"""

import json
import os

import pytest

from repro.cache import (
    ContentCache,
    config_fingerprint,
    fingerprint_of,
    pattern_fingerprint,
    shard_content_keys,
)
from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import NamePattern, PatternKind
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec

pytestmark = pytest.mark.cache


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


class TestKeys:
    def test_key_is_deterministic(self):
        assert ContentCache.key("a", "b") == ContentCache.key("a", "b")

    def test_length_prefix_prevents_concatenation_collisions(self):
        assert ContentCache.key("ab", "c") != ContentCache.key("a", "bc")

    def test_key_accepts_bytes_and_text(self):
        assert ContentCache.key(b"raw") != ContentCache.key("raw", "x")

    def test_code_digest_is_part_of_every_key(self, monkeypatch):
        before = ContentCache.key("same", "parts")
        monkeypatch.setattr(
            "repro.cache.contentcache.code_digest", lambda: "0" * 64
        )
        assert ContentCache.key("same", "parts") != before

    def test_fingerprint_of_is_order_sensitive(self):
        assert fingerprint_of(["a", "b"]) != fingerprint_of(["b", "a"])
        assert fingerprint_of(["ab"]) != fingerprint_of(["a", "b"])

    def test_config_fingerprint_joins_reprs(self):
        assert config_fingerprint(1, "x") == "1|'x'"

    def test_pattern_fingerprint_sorts_sets(self):
        a = NamePath((PathStep("Call", 0),), "count")
        b = NamePath((PathStep("Attr", 1),), "total")
        sym = [
            NamePath((PathStep("Call", 0),), None),
            NamePath((PathStep("Attr", 1),), None),
        ]
        p1 = NamePattern(
            condition=frozenset([a, b]),
            deduction=frozenset(sym),
            kind=PatternKind.CONSISTENCY,
            support=3,
        )
        p2 = NamePattern(
            condition=frozenset([b, a]),
            deduction=frozenset(reversed(sym)),
            kind=PatternKind.CONSISTENCY,
            support=3,
        )
        assert pattern_fingerprint(p1) == pattern_fingerprint(p2)


class TestShardContentKeys:
    def test_keys_follow_covered_files(self):
        keys = shard_content_keys([(0, 2), (2, 3)], [2, 1], ["k1", "k2"])
        assert keys is not None and len(keys) == 2
        # Same files, same keys; a changed file key changes its shard only.
        changed = shard_content_keys([(0, 2), (2, 3)], [2, 1], ["k1", "XX"])
        assert changed[0] == keys[0] and changed[1] != keys[1]

    def test_misaligned_span_returns_none(self):
        assert shard_content_keys([(0, 1)], [2], ["k1"]) is None

    def test_zero_statement_files_do_not_affect_keys(self):
        with_empty = shard_content_keys(
            [(0, 2), (2, 3)], [2, 0, 1], ["k1", "EMPTY", "k2"]
        )
        without = shard_content_keys([(0, 2), (2, 3)], [2, 1], ["k1", "k2"])
        assert with_empty == without

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            shard_content_keys([(0, 1)], [1, 1], ["k1"])


# ----------------------------------------------------------------------
# Store round-trips and damage handling
# ----------------------------------------------------------------------


@pytest.fixture()
def cache(tmp_path):
    return ContentCache(tmp_path / "cache")


def _entry_files(cache: ContentCache, level: str):
    return sorted((cache.directory / level).glob("*.bin"))


class TestStore:
    def test_roundtrip(self, cache):
        key = ContentCache.key("file-bytes")
        cache.put("prepare", key, {"value": [1, 2, 3]})
        assert cache.get("prepare", key) == {"value": [1, 2, 3]}
        stats = cache.stats_json()["prepare"]
        assert stats["hits"] == 1 and stats["stores"] == 1

    def test_absent_key_is_a_plain_miss(self, cache):
        assert cache.get("prepare", ContentCache.key("nope")) is None
        stats = cache.stats_json()["prepare"]
        assert stats["misses"] == 1 and stats["corrupt"] == 0

    def test_levels_are_isolated(self, cache):
        key = ContentCache.key("shared")
        cache.put("frequency", key, 1)
        assert cache.get("growth", key) is None
        assert cache.get("frequency", key) == 1

    def test_truncated_payload_is_corrupt_miss_and_unlinked(self, cache):
        key = ContentCache.key("t")
        cache.put("prepare", key, list(range(100)))
        (path,) = _entry_files(cache, "prepare")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        assert cache.get("prepare", key) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1
        assert not path.exists()  # damaged entries stop costing reads

    def test_flipped_payload_bit_fails_checksum(self, cache):
        key = ContentCache.key("b")
        cache.put("prepare", key, list(range(100)))
        (path,) = _entry_files(cache, "prepare")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.get("prepare", key) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1

    def test_garbage_header_is_corrupt_miss(self, cache):
        key = ContentCache.key("g")
        path = cache.directory / "prepare" / f"{key}.bin"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not json at all\n\x00\x01")
        assert cache.get("prepare", key) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1

    def test_entry_under_another_key_is_corrupt_miss(self, cache):
        """An entry file whose header names another key (say, one copied
        in from a build with other code) is never decoded."""
        key, other = ContentCache.key("s"), ContentCache.key("t")
        cache.put("prepare", other, "payload")
        (cache.directory / "prepare" / f"{other}.bin").rename(
            cache.directory / "prepare" / f"{key}.bin"
        )
        assert cache.get("prepare", key) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1

    def test_version_2_entry_is_a_miss(self, cache, monkeypatch):
        """Older builds pickled prepared statements as transformed trees
        and keyed mining shards on source bytes; their entries hash
        under their own code digest, so this code's keys never reach
        them: plain misses, never decoded."""
        for old in ("2", "3"):
            with monkeypatch.context() as patched:
                patched.setattr(
                    "repro.cache.contentcache.code_digest", lambda: old * 64
                )
                old_key = ContentCache.key("file-bytes")
                cache.put("prepare", old_key, f"v{old} payload")
            assert ContentCache.key("file-bytes") != old_key
            assert cache.get("prepare", ContentCache.key("file-bytes")) is None
            assert cache.digest("prepare", ContentCache.key("file-bytes")) is None
        stats = cache.stats_json()["prepare"]
        assert (stats["hits"], stats["misses"], stats["corrupt"]) == (0, 4, 0)
        assert stats["decoded_bytes"] == 0

    def test_injected_load_fault_is_a_corrupt_miss(self, cache):
        """The `cache.load` fault site: an injected failure degrades to
        a recompute, never an exception for the caller."""
        key = ContentCache.key("f")
        cache.put("prepare", key, "payload")
        plan = FaultPlan([FaultSpec(site="cache.load", rate=1.0)], seed=1)
        with FAULTS.armed(plan):
            assert cache.get("prepare", key) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1
        # After the plan is disarmed the entry was unlinked (treated as
        # damaged), so the next read is a clean miss and a re-put works.
        assert cache.get("prepare", key) is None
        cache.put("prepare", key, "payload")
        assert cache.get("prepare", key) == "payload"

    def test_eviction_drops_least_recently_used(self, tmp_path):
        cache = ContentCache(tmp_path / "c", max_entries_per_level=3)
        keys = [ContentCache.key(f"k{i}") for i in range(4)]
        for i, key in enumerate(keys):
            cache.put("prepare", key, i)
            path = cache.directory / "prepare" / f"{key}.bin"
            os.utime(path, (1000 + i, 1000 + i))  # deterministic LRU order
        assert len(_entry_files(cache, "prepare")) == 3
        assert cache.get("prepare", keys[0]) is None  # oldest evicted
        assert cache.get("prepare", keys[3]) == 3
        assert cache.stats_json()["prepare"]["evictions"] == 1

    def test_put_survives_unwritable_level(self, tmp_path):
        """A level directory that turns into a non-directory (or any
        other OSError on write) degrades to a skipped store — a sick
        disk slows runs down, never fails them.  (chmod tricks don't
        work under root, so the test swaps the directory for a file.)"""
        cache = ContentCache(tmp_path / "c")
        level_dir = cache._level("prepare").directory
        level_dir.rmdir()
        level_dir.write_text("not a directory")
        cache.put("prepare", ContentCache.key("k"), "v")  # must not raise
        assert cache.stats_json()["prepare"]["stores"] == 0


# ----------------------------------------------------------------------
# Header-only digests and deferred decodes
# ----------------------------------------------------------------------


class TestDigest:
    def test_put_returns_the_digest_the_header_holds(self, cache):
        key = ContentCache.key("d")
        digest = cache.put("prepare", key, {"value": 1})
        assert cache.digest("prepare", key) == digest
        assert cache.decode("prepare", key, digest) == {"value": 1}
        stats = cache.stats_json()["prepare"]
        # One lookup (the digest); the decode is not another.
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["decoded_bytes"] > 0

    def test_digest_reads_no_payload(self, cache):
        key = ContentCache.key("d")
        cache.put("prepare", key, list(range(1000)))
        assert cache.digest("prepare", key) is not None
        stats = cache.stats_json()["prepare"]
        assert stats["decoded_bytes"] == 0 and stats["decode_seconds"] == 0

    def test_digest_of_absent_entry_is_a_plain_miss(self, cache):
        assert cache.digest("prepare", ContentCache.key("nope")) is None
        stats = cache.stats_json()["prepare"]
        assert stats["misses"] == 1 and stats["corrupt"] == 0

    def test_digest_sees_truncation(self, cache):
        key = ContentCache.key("t")
        cache.put("prepare", key, list(range(100)))
        (path,) = _entry_files(cache, "prepare")
        path.write_bytes(path.read_bytes()[:-5])
        assert cache.digest("prepare", key) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1
        assert not path.exists()

    def test_decode_verifies_what_the_digest_did_not_read(self, cache):
        key = ContentCache.key("b")
        digest = cache.put("prepare", key, list(range(100)))
        (path,) = _entry_files(cache, "prepare")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.digest("prepare", key) == digest  # same size
        assert cache.decode("prepare", key, digest) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1
        assert not path.exists()

    def test_decode_refuses_an_entry_replaced_since(self, cache):
        key = ContentCache.key("r")
        first = cache.put("prepare", key, "first")
        cache.put("prepare", key, "second")
        assert cache.decode("prepare", key, first) is None

    def test_decode_of_an_evicted_entry_is_not_corruption(self, cache):
        key = ContentCache.key("e")
        digest = cache.put("prepare", key, "payload")
        assert cache.digest("prepare", key) == digest
        (path,) = _entry_files(cache, "prepare")
        path.unlink()
        assert cache.decode("prepare", key, digest) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 0

    def test_digest_passes_the_fault_site(self, cache):
        key = ContentCache.key("f")
        cache.put("prepare", key, "payload")
        plan = FaultPlan([FaultSpec(site="cache.load", rate=1.0)], seed=1)
        with FAULTS.armed(plan):
            assert cache.digest("prepare", key) is None
        assert cache.stats_json()["prepare"]["corrupt"] == 1


# ----------------------------------------------------------------------
# Eviction bookkeeping
# ----------------------------------------------------------------------


class TestEvictionScans:
    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        scandir = os.scandir

        def counting(path):
            calls.append(path)
            return scandir(path)

        monkeypatch.setattr("repro.cache.contentcache.os.scandir", counting)
        return calls

    def test_stores_under_the_cap_scan_each_level_once(self, tmp_path, scans):
        cache = ContentCache(tmp_path / "c", max_entries_per_level=1000)
        for i in range(200):
            cache.put("prepare", ContentCache.key(f"p{i}"), i)
            cache.put("stats", ContentCache.key(f"s{i}"), i)
        assert len(scans) == 2

    def test_a_fill_past_the_cap_evicts_to_the_cap(self, tmp_path, scans):
        cache = ContentCache(tmp_path / "c", max_entries_per_level=16)
        for i in range(64):
            cache.put("prepare", ContentCache.key(f"k{i}"), i)
        # One scan when the level is first stored to; past the cap each
        # store unlinks the oldest entry the level's record holds.
        assert len(scans) <= 2
        assert cache.stats_json()["prepare"]["evictions"] == 48
        assert len(_entry_files(cache, "prepare")) == 16
        assert _entry_files(cache, "prepare") == sorted(
            cache.directory / "prepare" / f"{ContentCache.key(f'k{i}')}.bin"
            for i in range(48, 64)
        )

    def test_a_hit_keeps_an_entry_past_the_cap(self, tmp_path, scans):
        cache = ContentCache(tmp_path / "c", max_entries_per_level=4)
        keys = [ContentCache.key(f"k{i}") for i in range(6)]
        for i, key in enumerate(keys[:4]):
            cache.put("prepare", key, i)
        assert cache.get("prepare", keys[0]) == 0  # now most recent
        cache.put("prepare", keys[4], 4)
        cache.put("prepare", keys[5], 5)
        assert cache.get("prepare", keys[0]) == 0
        assert cache.get("prepare", keys[1]) is None
        assert cache.get("prepare", keys[2]) is None
        assert len(scans) == 1

    def test_an_entry_gone_from_disk_rescans_the_level(self, tmp_path, scans):
        """Another process removed entries the record still holds:
        eviction rescans once and still stops exactly at the cap."""
        cache = ContentCache(tmp_path / "c", max_entries_per_level=4)
        for i in range(4):
            cache.put("prepare", ContentCache.key(f"k{i}"), i)
        for name in ("k0", "k1"):  # the two oldest in the record
            os.unlink(cache.directory / "prepare" / f"{ContentCache.key(name)}.bin")
        for i in range(4, 8):
            cache.put("prepare", ContentCache.key(f"k{i}"), i)
        assert len(scans) == 2
        assert len(_entry_files(cache, "prepare")) == 4

    def test_count_resynchronizes_with_the_disk(self, tmp_path):
        """An overwrite is one entry, not another: storing one key
        again and again never evicts."""
        cache = ContentCache(tmp_path / "c", max_entries_per_level=4)
        key = ContentCache.key("same")
        for i in range(10):
            cache.put("prepare", key, i)
        assert cache.get("prepare", key) == 9
        assert cache.stats_json()["prepare"]["evictions"] == 0
