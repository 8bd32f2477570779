"""Round-trip and damage tests for Namer artifact persistence."""

import json
import shutil
import zlib

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
from repro.mining.frozen import default_frozen_path
from tests import blobs

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
def saved(fitted_namer, tmp_path_factory):
    """The frozen blob of the fitted namer, for tests to damage copies
    of."""
    path = tmp_path_factory.mktemp("saved") / "namer.json"
    save_namer(fitted_namer, path)
    return default_frozen_path(path)


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

    def test_mismatched_version_raises(self, tmp_path, saved):
        path = tmp_path / "namer.json"
        blobs.rewrite_header(
            saved, default_frozen_path(path),
            lambda header: header.update(pipeline_version=999),
        )
        with pytest.raises(PersistenceError, match="pipeline_version 999"):
            load_namer(path)

    def test_missing_version_raises(self, tmp_path, saved):
        path = tmp_path / "namer.json"
        blobs.rewrite_header(
            saved, default_frozen_path(path),
            lambda header: header.pop("pipeline_version"),
        )
        with pytest.raises(PersistenceError, match="pipeline_version None"):
            load_namer(path)

    def test_persistence_error_is_a_value_error(self):
        # Callers written against the pre-PersistenceError API caught
        # ValueError; they must keep working.
        assert issubclass(PersistenceError, ValueError)

    def test_missing_file_raises_persistence_error(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_namer(tmp_path / "does-not-exist.json")

    def test_invalid_json_raises_persistence_error(self, tmp_path, saved):
        # A header that passes its CRC but is not JSON (a writer bug,
        # not disk damage) is still a load error.
        garbage = b"{not json"
        path = tmp_path / "namer.json"
        default_frozen_path(path).write_bytes(
            saved.read_bytes()[:8]
            + len(garbage).to_bytes(4, "little")
            + zlib.crc32(garbage).to_bytes(4, "little")
            + garbage
        )
        with pytest.raises(PersistenceError, match="corrupt header"):
            load_namer(path)

    def test_truncated_document_fails_checksum(self, tmp_path, saved):
        # The blob cut short inside its arrays: the manifest no longer
        # fits the file.
        path = tmp_path / "namer.json"
        default_frozen_path(path).write_bytes(
            saved.read_bytes()[: saved.stat().st_size // 2]
        )
        with pytest.raises(PersistenceError, match="truncated"):
            load_namer(path)

    def test_truncated_document_with_restamped_checksum(self, tmp_path, saved):
        # A header missing a section but carrying a matching CRC fails
        # in the decode layer instead.
        path = tmp_path / "namer.json"
        blobs.rewrite_header(
            saved, default_frozen_path(path), lambda header: header.pop("pairs")
        )
        with pytest.raises(PersistenceError, match="malformed"):
            load_namer(path)

    def test_checksum_stamped_next_to_schema_version(self, tmp_path, fitted_namer):
        path = tmp_path / "namer.json"
        save_namer(fitted_namer, path)
        doc = json.loads(path.read_text())
        keys = list(doc.keys())
        assert keys[:2] == ["schema_version", "checksum"]
        assert len(doc["checksum"]) == 64

    def test_missing_checksum_raises(self, tmp_path, saved):
        path = tmp_path / "namer.json"
        blobs.rewrite_header(
            saved,
            default_frozen_path(path),
            lambda header: header["arrays"][0].pop("crc32"),
        )
        with pytest.raises(PersistenceError, match="CRC"):
            load_namer(path)

    def test_single_flipped_value_fails_checksum(self, tmp_path, saved):
        path = tmp_path / "namer.json"
        blobs.flip_array_byte(saved, default_frozen_path(path), "pat_support")
        with pytest.raises(PersistenceError, match="CRC"):
            load_namer(path)

    @pytest.mark.parametrize(
        "pattern",
        [
            r'"intercept":-?\d+\.\d*(\d)',
            r'"max_paths_per_statement":\d*(\d)',
            r'"pairs":\[\["[^"]*","[^"]*",\d*(\d)\]',
        ],
        ids=["intercept", "config", "pairs"],
    )
    def test_one_changed_header_digit_raises(self, tmp_path, saved, pattern):
        """The header is checksummed like the arrays: one digit changed
        in a value only the header holds is a load error, not a namer
        that serves different reports under the same fingerprint."""
        path = tmp_path / "namer.json"
        shutil.copy(saved.with_suffix(""), path)  # the intact JSON export
        blobs.change_header_digit(saved, default_frozen_path(path), pattern)
        with pytest.raises(PersistenceError, match="header CRC"):
            load_namer(path)
        with pytest.raises(PersistenceError):
            load_namer(path, degraded_ok=True)


class TestDegradedLoad:
    """`degraded_ok` keeps the pattern half alive through damaged
    classifier arrays (the serving layer's no-500s guarantee); damage
    anywhere else is always a load error."""

    def _corrupt_classifier(self, saved, path, array="clf_scaler_mean"):
        blobs.flip_array_byte(saved, default_frozen_path(path), array)

    def test_strict_load_rejects_corrupt_classifier(self, tmp_path, saved):
        path = tmp_path / "namer.json"
        self._corrupt_classifier(saved, path)
        with pytest.raises(PersistenceError, match="clf_scaler_mean"):
            load_namer(path)

    def test_degraded_load_drops_classifier_keeps_patterns(
        self, tmp_path, fitted_namer, saved
    ):
        path = tmp_path / "namer.json"
        self._corrupt_classifier(saved, path)
        loaded = load_namer(path, degraded_ok=True)
        assert loaded.classifier is None
        assert loaded.degraded_reasons
        assert {p.key() for p in loaded.matcher.patterns} == {
            p.key() for p in fitted_namer.matcher.patterns
        }

    def test_degraded_load_survives_bad_checksum(self, tmp_path, saved):
        path = tmp_path / "namer.json"
        self._corrupt_classifier(saved, path, array="clf_coef")
        loaded = load_namer(path, degraded_ok=True)
        assert loaded.classifier is None  # untrusted bytes: pattern-only
        assert any("CRC" in r and "clf_coef" in r for r in loaded.degraded_reasons)

    def test_degraded_load_still_rejects_corrupt_patterns(self, tmp_path, saved):
        path = tmp_path / "namer.json"
        blobs.flip_array_byte(saved, default_frozen_path(path), "pat_cond")
        with pytest.raises(PersistenceError, match="pat_cond"):
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

        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(out)],
                env=env,
                check=True,
                timeout=300,
            )
            outputs.append((out.read_bytes(), default_frozen_path(out).read_bytes()))
        assert outputs[0] == outputs[1]
