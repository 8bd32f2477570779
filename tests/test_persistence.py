"""Round-trip tests for Namer artifact persistence."""

import json

import numpy as np
import pytest

from repro.core.namer import Namer
from repro.core.persistence import (
    SCHEMA_VERSION,
    PersistenceError,
    load_namer,
    save_namer,
)
from repro.core.prepare import prepare_file
from repro.corpus.model import SourceFile

BUGGY = (
    "from unittest import TestCase\n"
    "class TestX(TestCase):\n"
    "    def test_a(self):\n"
    "        item = self.build_item()\n"
    "        self.assertEqual(item.size, 3)\n"
    "    def test_b(self):\n"
    "        item = self.build_item()\n"
    "        self.assertTrue(item.count, 5)\n"
)


@pytest.fixture(scope="module")
def roundtrip(fitted_namer, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "namer.json"
    save_namer(fitted_namer, path)
    return fitted_namer, load_namer(path)


class TestRoundTrip:
    def test_pattern_set_identical(self, roundtrip):
        original, loaded = roundtrip
        assert {p.key() for p in original.matcher.patterns} == {
            p.key() for p in loaded.matcher.patterns
        }

    def test_supports_preserved(self, roundtrip):
        original, loaded = roundtrip
        orig = {p.key(): p.support for p in original.matcher.patterns}
        load = {p.key(): p.support for p in loaded.matcher.patterns}
        assert orig == load

    def test_pairs_preserved(self, roundtrip):
        original, loaded = roundtrip
        assert original.pairs.counts == loaded.pairs.counts

    def test_stats_dataset_level_preserved(self, roundtrip):
        original, loaded = roundtrip
        pattern = original.matcher.patterns[0]
        stmt = original.all_violations()[0].statement
        assert original.stats.satisfaction_count(
            pattern, stmt, "dataset"
        ) == loaded.stats.satisfaction_count(pattern, stmt, "dataset")

    def test_total_statements_preserved(self, roundtrip):
        original, loaded = roundtrip
        assert original.stats.total_statements == loaded.stats.total_statements

    def test_classifier_scores_identical(self, roundtrip):
        original, loaded = roundtrip
        X = np.vstack(
            [original.featurize(v) for v in original.all_violations()[:10]]
        )
        a = original.classifier.decision_function(X)
        b = loaded.classifier.decision_function(X)
        assert np.allclose(a, b)

    def test_loaded_namer_detects(self, roundtrip):
        _, loaded = roundtrip
        prepared = prepare_file(
            SourceFile(path="t.py", source=BUGGY), repo="demo"
        )
        violations = loaded.violations_in(prepared)
        assert any(v.observed == "True" for v in violations)

    def test_same_violations_as_original(self, roundtrip):
        original, loaded = roundtrip
        prepared = prepare_file(SourceFile(path="t.py", source=BUGGY), repo="demo")
        a = {(v.observed, v.suggested) for v in original.violations_in(prepared)}
        b = {(v.observed, v.suggested) for v in loaded.violations_in(prepared)}
        assert a == b


class TestErrors:
    def test_save_unmined_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_namer(Namer(), tmp_path / "x.json")

    def test_schema_version_stamped(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_mismatched_version_raises(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="schema_version 999"):
            load_namer(path)

    def test_missing_version_raises(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        del doc["schema_version"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="no schema_version stamp"):
            load_namer(path)

    def test_persistence_error_is_a_value_error(self):
        # Callers written against the pre-PersistenceError API caught
        # ValueError; they must keep working.
        assert issubclass(PersistenceError, ValueError)

    def test_missing_file_raises_persistence_error(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_namer(tmp_path / "does-not-exist.json")

    def test_invalid_json_raises_persistence_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="not valid JSON"):
            load_namer(path)

    def test_truncated_document_fails_checksum(self, tmp_path, fitted_namer):
        # Deleting a section leaves valid JSON; the SHA-256 stamp is
        # what catches it (the pre-checksum failure mode this fixes).
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        del doc["stats"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="SHA-256"):
            load_namer(path)

    def test_truncated_document_with_restamped_checksum(
        self, tmp_path, fitted_namer
    ):
        # Even a re-stamped (checksum-consistent) but incomplete
        # document fails with the decode-layer error.
        from repro.resilience.checkpoint import document_checksum

        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        del doc["stats"]
        del doc["checksum"]
        doc = {"schema_version": doc["schema_version"],
               "checksum": document_checksum(doc),
               **{k: v for k, v in doc.items() if k != "schema_version"}}
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="truncated or malformed"):
            load_namer(path)

    def test_checksum_stamped_next_to_schema_version(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        keys = list(doc.keys())
        assert keys[:2] == ["schema_version", "checksum"]
        assert len(doc["checksum"]) == 64

    def test_missing_checksum_raises(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        del doc["checksum"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="no checksum stamp"):
            load_namer(path)

    def test_single_flipped_value_fails_checksum(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        doc["patterns"][0]["support"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="SHA-256"):
            load_namer(path)


class TestDegradedLoad:
    """`degraded_ok` keeps the pattern half alive through a corrupt
    classifier section (the serving layer's no-500s guarantee)."""

    def _corrupt_classifier(self, path):
        from repro.resilience.checkpoint import document_checksum

        doc = json.loads(path.read_text())
        doc["classifier"] = {"scaler_mean": "garbage"}
        del doc["checksum"]
        doc["checksum"] = document_checksum(doc)
        path.write_text(json.dumps(doc))

    def test_strict_load_rejects_corrupt_classifier(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        self._corrupt_classifier(path)
        with pytest.raises(PersistenceError, match="classifier"):
            load_namer(path)

    def test_degraded_load_drops_classifier_keeps_patterns(
        self, tmp_path, fitted_namer
    ):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        self._corrupt_classifier(path)
        loaded = load_namer(path, degraded_ok=True)
        assert loaded.classifier is None
        assert loaded.degraded_reasons
        assert {p.key() for p in loaded.matcher.patterns} == {
            p.key() for p in fitted_namer.matcher.patterns
        }

    def test_degraded_load_survives_bad_checksum(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        doc["checksum"] = "0" * 64
        path.write_text(json.dumps(doc))
        loaded = load_namer(path, degraded_ok=True)
        assert loaded.classifier is None  # untrusted bytes: pattern-only
        assert any("SHA-256" in r for r in loaded.degraded_reasons)

    def test_degraded_load_still_rejects_corrupt_patterns(
        self, tmp_path, fitted_namer
    ):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        doc["patterns"] = "nonsense"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError):
            load_namer(path, degraded_ok=True)


class TestHashSeedIndependence:
    """Mined artifacts are a function of the corpus and config alone:
    separate processes (CLI runs, spawned workers, cluster replicas)
    with different ``PYTHONHASHSEED`` values must write the same bytes."""

    SCRIPT = (
        "import sys\n"
        "from repro.core.namer import Namer, NamerConfig\n"
        "from repro.core.persistence import save_namer\n"
        "from repro.corpus.generator import GeneratorConfig, "
        "generate_python_corpus\n"
        "from repro.mining.miner import MiningConfig\n"
        "corpus = generate_python_corpus(\n"
        "    GeneratorConfig(num_repos=12, issue_rate=0.15, seed=99))\n"
        "namer = Namer(NamerConfig(mining=MiningConfig(\n"
        "    min_pattern_support=10, min_path_frequency=5)))\n"
        "namer.mine(corpus)\n"
        "save_namer(namer, sys.argv[1])\n"
    )

    def test_small_corpus_artifact_is_seed_independent(self, tmp_path):
        import os
        import subprocess
        import sys

        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(out)],
                env=env,
                check=True,
                timeout=300,
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
