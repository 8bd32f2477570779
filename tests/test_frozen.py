"""Differential + damage suite for frozen matcher artifacts.

The frozen blob (``repro.mining.frozen``) is a pure serving-side
acceleration: a namer loaded from it must be indistinguishable — byte
for byte — from one decoded out of the JSON artifact, for every worker
count and interner cap.  And because blobs live on
disks, every kind of damage (truncation, bit flips, bad magic, wrong
schema era) must read as a *miss* that falls back to the JSON path,
never as wrong output or a crash.
"""

from __future__ import annotations

import json
import logging
import pickle

import pytest

from repro.core.namer import Namer, NamerConfig
from repro.__main__ import main
from repro.core.namer import _match_file
from repro.core.persistence import (
    load_namer,
    namer_to_document,
    save_document,
    save_namer,
)
from repro.mining import PIPELINE_VERSION
from repro.mining.frozen import (
    FrozenArtifact,
    FrozenError,
    FrozenStats,
    default_frozen_path,
    freeze_namer,
    load_frozen_namer,
)
from repro.mining.interner import PathInterner
from repro.mining.matcher import PatternMatcher
from repro.resilience.checkpoint import document_checksum
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.service.engine import AnalysisEngine

pytestmark = pytest.mark.frozen


@pytest.fixture(scope="module")
def frozen_setup(fitted_namer, tmp_path_factory):
    root = tmp_path_factory.mktemp("frozen")
    artifact = root / "namer.json"
    save_namer(fitted_namer, artifact)
    frozen_path = default_frozen_path(artifact)
    summary = freeze_namer(fitted_namer, frozen_path)
    return fitted_namer, artifact, frozen_path, summary


def report_blob(groups) -> str:
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


def file_stats(matcher, pf):
    """One prepared file's statistics index, as detection builds it."""
    entries = [
        (ps.stmt, ps.paths, matcher.prepare_ids(ps.paths))
        for ps in pf.statements
    ]
    return _match_file(matcher, entries)[1]


def counter_rows(stats) -> list:
    """Every counter of ``stats`` as an ordered item list."""
    tables = [getattr(stats, name) for name in ("matches", "satisfactions", "violations")]
    tables.append(stats.statement_counts)
    return [list(counter.items()) for table in tables for counter in table.values()]


# ----------------------------------------------------------------------
# Roundtrip: freeze -> load is lossless
# ----------------------------------------------------------------------


class TestRoundtrip:
    def test_summary_counts(self, frozen_setup):
        namer, _, frozen_path, summary = frozen_setup
        assert summary["patterns"] == len(namer.matcher.patterns)
        assert summary["bytes"] == frozen_path.stat().st_size
        assert summary["arrays"] > 50

    def test_fingerprint_is_document_checksum(self, frozen_setup):
        namer, _, frozen_path, summary = frozen_setup
        assert summary["fingerprint"] == document_checksum(
            namer_to_document(namer)
        )
        loaded = load_frozen_namer(frozen_path)
        assert loaded.frozen_fingerprint == summary["fingerprint"]
        # The loaded namer re-encodes to the exact same document, so
        # the precomputed fingerprint is honest.
        assert document_checksum(namer_to_document(loaded)) == (
            summary["fingerprint"]
        )

    def test_resave_is_byte_identical(self, frozen_setup, tmp_path):
        namer, artifact, frozen_path, _ = frozen_setup
        loaded = load_frozen_namer(frozen_path)
        resaved = tmp_path / "resaved.json"
        save_document(namer_to_document(loaded), resaved)
        assert resaved.read_bytes() == artifact.read_bytes()

    def test_stats_counters_equal_in_order(self, frozen_setup):
        namer, _, frozen_path, _ = frozen_setup
        loaded = load_frozen_namer(frozen_path)
        for name in ("matches", "satisfactions", "violations"):
            ours = getattr(loaded.stats, name)
            theirs = getattr(namer.stats, name)
            for level in ("file", "repo", "dataset"):
                assert ours[level] == theirs[level]
                # insertion order too — re-saves depend on it
                assert list(ours[level]) == list(theirs[level])
        assert loaded.stats.statement_counts == namer.stats.statement_counts
        assert loaded.stats.total_statements == namer.stats.total_statements

    def test_classifier_scores_survive(self, frozen_setup):
        namer, _, frozen_path, _ = frozen_setup
        if namer.classifier is None:
            pytest.skip("fitted_namer has no trained classifier")
        loaded = load_frozen_namer(frozen_path)
        assert loaded.classifier is not None
        assert float(loaded.classifier.classifier.intercept_) == float(
            namer.classifier.classifier.intercept_
        )

    def test_refreeze_is_byte_identical(self, frozen_setup, tmp_path):
        """Freezing a frozen-loaded namer writes the original bytes: the
        loader's tables and the writer's derived arrays (fold pool,
        CSR offsets, guard words) are exact inverses."""
        _, _, frozen_path, _ = frozen_setup
        again = tmp_path / "again.frozen"
        freeze_namer(load_frozen_namer(frozen_path), again)
        assert again.read_bytes() == frozen_path.read_bytes()

    def test_freeze_refuses_unmined_namer(self, tmp_path):
        unmined = Namer(NamerConfig())
        with pytest.raises(FrozenError, match="mine"):
            freeze_namer(unmined, tmp_path / "x.frozen")


# ----------------------------------------------------------------------
# Differential: frozen loads serve the same bytes
# ----------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_detect_parity_across_loads(self, frozen_setup, workers):
        namer, _, frozen_path, _ = frozen_setup
        loaded = load_frozen_namer(frozen_path)
        prepared = list(namer.prepared)
        reference = report_blob(namer.detect_many(prepared, workers=workers))
        assert report_blob(
            loaded.detect_many(prepared, workers=workers)
        ) == reference

    @pytest.mark.parametrize(
        "from_frozen,own_interner,pickled",
        [
            (False, True, True),
            (True, False, True),
            (False, False, True),
            (False, True, False),
        ],
    )
    def test_detect_parity_across_matcher_arms(
        self, frozen_setup, from_frozen, own_interner, pickled
    ):
        """The matcher loaded from the blob or rebuilt from the pattern
        list, scanning through its own interner or a zero-cap one (every
        path overflows into the scalar walk), used in place or after the
        pickle round trip pool workers see: the same reports."""
        namer, _, frozen_path, _ = frozen_setup
        prepared = list(namer.prepared)
        reference = report_blob(namer.detect_many(prepared))
        if from_frozen:
            host = load_frozen_namer(frozen_path)
            matcher = host.matcher
        else:
            host = namer
            matcher = PatternMatcher(
                namer.matcher.patterns,
                prefix_counts=namer.matcher._corpus_counts,
            )
        if not own_interner:
            matcher.attach_interner(PathInterner(), cap=0)
        if pickled:
            matcher = pickle.loads(pickle.dumps(matcher))
        original = host.matcher
        try:
            host.matcher = matcher
            assert report_blob(host.detect_many(prepared)) == reference
        finally:
            host.matcher = original

    @pytest.mark.parametrize("cap", ["zero", "half"])
    def test_detect_parity_through_capped_interner(self, frozen_setup, cap):
        """A frozen load scanning through a fresh capped interner: all
        paths (zero cap) or the later half of the vocabulary overflow
        into the scalar walk, with unchanged reports — and every file's
        statistics index equal to the corpus interner's, counters and
        insertion order, which pins how overflow relations fold into
        the aggregates."""
        namer, _, frozen_path, _ = frozen_setup
        loaded = load_frozen_namer(frozen_path)
        vocabulary = len(loaded.matcher._automaton._interner)
        limit = 0 if cap == "zero" else vocabulary // 2
        loaded.matcher.attach_interner(PathInterner(), cap=limit)
        prepared = list(namer.prepared)
        reference = report_blob(namer.detect_many(prepared))
        assert report_blob(loaded.detect_many(prepared)) == reference
        for pf in prepared:
            ours = file_stats(loaded.matcher, pf)
            theirs = file_stats(namer.matcher, pf)
            assert ours == theirs
            assert counter_rows(ours) == counter_rows(theirs)

    def test_frozen_namer_pickles_for_pool_workers(self, frozen_setup):
        namer, _, frozen_path, _ = frozen_setup
        loaded = load_frozen_namer(frozen_path)
        clone = pickle.loads(pickle.dumps(loaded.matcher))
        prepared = list(namer.prepared)
        reference = report_blob(namer.detect_many(prepared))
        try:
            loaded.matcher = clone
            assert report_blob(loaded.detect_many(prepared)) == reference
        finally:
            pass

    def test_frozen_stats_pickle_remaps(self, frozen_setup):
        namer, _, frozen_path, _ = frozen_setup
        loaded = load_frozen_namer(frozen_path)
        assert isinstance(loaded.stats, FrozenStats)
        clone = pickle.loads(pickle.dumps(loaded.stats))
        assert clone.matches == namer.stats.matches
        assert clone.total_statements == namer.stats.total_statements


# ----------------------------------------------------------------------
# Damage is a miss
# ----------------------------------------------------------------------


def _copy(path, target):
    target.write_bytes(path.read_bytes())
    return target


class TestDamage:
    def test_truncation_raises(self, frozen_setup, tmp_path):
        _, _, frozen_path, _ = frozen_setup
        hurt = _copy(frozen_path, tmp_path / "trunc.frozen")
        hurt.write_bytes(hurt.read_bytes()[: hurt.stat().st_size // 2])
        with pytest.raises(FrozenError):
            load_frozen_namer(hurt)

    def test_bit_flip_raises(self, frozen_setup, tmp_path):
        _, _, frozen_path, _ = frozen_setup
        hurt = _copy(frozen_path, tmp_path / "flip.frozen")
        blob = bytearray(hurt.read_bytes())
        blob[len(blob) - 17] ^= 0x40  # somewhere in the last array
        hurt.write_bytes(bytes(blob))
        with pytest.raises(FrozenError, match="CRC"):
            load_frozen_namer(hurt)

    def test_bad_magic_raises(self, tmp_path):
        junk = tmp_path / "junk.frozen"
        junk.write_bytes(b"NOTAFROZENBLOB" * 10)
        with pytest.raises(FrozenError, match="magic"):
            load_frozen_namer(junk)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FrozenError):
            load_frozen_namer(tmp_path / "absent.frozen")

    def test_wrong_schema_era_raises(self, frozen_setup, tmp_path):
        _, _, frozen_path, _ = frozen_setup
        blob = bytearray(frozen_path.read_bytes())
        hlen = int.from_bytes(bytes(blob[8:16]), "little")
        header = json.loads(bytes(blob[16 : 16 + hlen]))
        header["pipeline_version"] = PIPELINE_VERSION + 1
        # re-encode at the same length so offsets stay valid
        encoded = json.dumps(header, separators=(",", ":")).encode()
        hurt = tmp_path / "era.frozen"
        if len(encoded) == hlen:
            blob[16 : 16 + hlen] = encoded
            hurt.write_bytes(bytes(blob))
            with pytest.raises(FrozenError, match="pipeline_version"):
                FrozenArtifact.open(hurt)
        else:  # header length shifted; truncated-header check catches it
            blob[8:16] = (hlen + 10 ** 9).to_bytes(8, "little")
            hurt.write_bytes(bytes(blob))
            with pytest.raises(FrozenError):
                FrozenArtifact.open(hurt)


# ----------------------------------------------------------------------
# The serving fallback ladder
# ----------------------------------------------------------------------


class TestEngineFallback:
    def test_engine_prefers_frozen(self, frozen_setup):
        _, artifact, _, summary = frozen_setup
        engine = AnalysisEngine(artifact_path=str(artifact), workers=1)
        try:
            metrics = engine.metrics_json()
            assert metrics["artifact_source"] == "frozen"
            assert metrics["startup_seconds"] is not None
            assert metrics["artifact_load_seconds"] is not None
            assert engine._namer.frozen_fingerprint == summary["fingerprint"]
        finally:
            engine.shutdown(drain=False)

    def test_damaged_blob_falls_back_to_json(
        self, frozen_setup, tmp_path, caplog
    ):
        namer, artifact, frozen_path, _ = frozen_setup
        twin = _copy(artifact, tmp_path / "namer.json")
        hurt = _copy(frozen_path, default_frozen_path(twin))
        blob = bytearray(hurt.read_bytes())
        blob[-9] ^= 0x01
        hurt.write_bytes(bytes(blob))
        with caplog.at_level(logging.WARNING, logger="repro.service.engine"):
            engine = AnalysisEngine(artifact_path=str(twin), workers=1)
        try:
            assert engine.metrics_json()["artifact_source"] == "json"
            assert any("falling back" in r.message for r in caplog.records)
            prepared = list(namer.prepared)
            assert report_blob(
                engine._namer.detect_many(prepared)
            ) == report_blob(namer.detect_many(prepared))
        finally:
            engine.shutdown(drain=False)

    def test_stale_blob_falls_back_to_json(self, frozen_setup, tmp_path, caplog):
        """``mine --freeze --out X`` then ``mine --out X`` leaves the first
        run's blob beside the second run's JSON: the engine must see
        that the blob is not this artifact's own and serve the JSON."""
        namer = frozen_setup[0]
        out = tmp_path / "namer.json"
        base = ["--out", str(out), "--repos", "8", "--min-frequency", "5",
                "--seed", "3", "--no-cache"]
        assert main(["mine", *base, "--min-support", "10", "--freeze"]) == 0
        assert main(["mine", *base, "--min-support", "14"]) == 0
        stale = load_frozen_namer(default_frozen_path(out))
        fresh = load_namer(out)
        assert len(stale.matcher.patterns) != len(fresh.matcher.patterns)
        with caplog.at_level(logging.WARNING, logger="repro.service.engine"):
            engine = AnalysisEngine(artifact_path=str(out), workers=1)
        try:
            assert engine.metrics_json()["artifact_source"] == "json"
            assert any("falling back" in r.message for r in caplog.records)
            prepared = list(namer.prepared)
            assert report_blob(
                engine._namer.detect_many(prepared)
            ) == report_blob(fresh.detect_many(prepared))
        finally:
            engine.shutdown(drain=False)

    def test_frozen_load_fault_site_forces_fallback(
        self, frozen_setup, caplog
    ):
        _, artifact, _, _ = frozen_setup
        plan = FaultPlan([FaultSpec(site="frozen.load")], seed=1)
        with caplog.at_level(logging.WARNING, logger="repro.service.engine"):
            with FAULTS.armed(plan):
                engine = AnalysisEngine(artifact_path=str(artifact), workers=1)
                try:
                    assert engine.metrics_json()["artifact_source"] == "json"
                finally:
                    engine.shutdown(drain=False)
        assert any("falling back" in r.message for r in caplog.records)
