"""Every supported configuration reproduces the committed goldens.

``tests/golden_digests.json`` pins the sha256 of the mined and trained
artifacts and of their frozen blobs, of every file's
``detect_many_rows`` result, of every file's points-to result, and of
the quarantine records under one seeded fault plan, for the tier-1
Python and Java corpora (see :mod:`tests.goldens` for how each digest
is computed and how to regenerate the file on purpose).  These tests
recompute them through each arm the pipeline offers — worker counts,
cache temperatures, JSON vs frozen artifacts, capped interners — so a
change that moves any output byte fails here.
"""

from __future__ import annotations

import pytest

from repro.core.persistence import load_namer
from repro.mining.frozen import load_frozen_namer
from repro.mining.interner import PathInterner
from tests import goldens as g

GOLDENS = g.load_goldens()


@pytest.fixture(scope="module", params=g.LANGUAGES)
def served(request, tmp_path_factory):
    """(language, trained namer, its JSON artifact path, the artifact's
    and its frozen blob's digests, the frozen twin)."""
    language = request.param
    workdir = tmp_path_factory.mktemp(f"goldens-{language}")
    namer = g.train(g.mine(language), language)
    artifact = workdir / "namer.json"
    trained = g.artifact_digest(namer, artifact)
    frozen_path = workdir / "namer.json.frozen"
    blob = g.frozen_digest(namer, frozen_path)
    frozen = load_frozen_namer(frozen_path)
    return language, namer, artifact, (trained, blob), frozen


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("language", g.LANGUAGES)
def test_mined_artifact(language, workers, tmp_path):
    """Cold (no cache), cache fill and warm cache all write the golden
    bytes, JSON artifact and frozen blob, serially and sharded."""
    expected = GOLDENS[language]["mined_artifact"]
    expected_blob = GOLDENS[language]["mined_frozen"]
    cache = tmp_path / "cache"
    for temperature, cache_dir in (
        ("cold", None),
        ("fill", cache),
        ("warm", cache),
    ):
        namer = g.mine(language, workers=workers, cache_dir=cache_dir)
        got = g.artifact_digest(namer, tmp_path / f"{temperature}.json")
        assert got == expected, temperature
        blob = g.frozen_digest(namer, tmp_path / f"{temperature}.frozen")
        assert blob == expected_blob, temperature


def test_trained_artifact(served):
    language, _, _, (trained, blob), _ = served
    assert trained == GOLDENS[language]["trained_artifact"]
    assert blob == GOLDENS[language]["trained_frozen"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("source", ["json", "frozen"])
def test_reports(served, source, workers):
    language, namer, artifact, _, frozen = served
    loaded = load_namer(artifact) if source == "json" else frozen
    got = g.report_digests(loaded, namer.prepared, workers=workers)
    assert got == GOLDENS[language]["reports"]


@pytest.mark.parametrize("cap", ["zero", "half"])
def test_reports_through_capped_interner(served, cap):
    """Serve-time paths past the interner cap are resolved against the
    trie on every scan instead of through the per-ID tables: a zero cap
    sends every path that way, half the vocabulary mixes interned and
    overflowing paths in one statement.  Reports must not change."""
    language, namer, artifact, _, _ = served
    loaded = load_namer(artifact)
    vocabulary = len(namer.matcher._automaton._interner)
    limit = 0 if cap == "zero" else vocabulary // 2
    interner = PathInterner()
    loaded.matcher.attach_interner(interner, cap=limit)
    got = g.report_digests(loaded, namer.prepared)
    assert len(interner) == limit, "the cap must actually bind"
    assert got == GOLDENS[language]["reports"]


@pytest.mark.parametrize("workers", [1, 2])
def test_quarantine_records_under_fault_plan(served, workers, tmp_path):
    language, namer, artifact, _, _ = served
    expected = GOLDENS[language]["faults"]
    faulted = g.mine_under_faults(language, workers=workers)
    assert g.records_json(faulted.quarantine) == expected["mine_quarantine"]
    assert (
        g.artifact_digest(faulted, tmp_path / "faulted.json")
        == expected["mined_artifact"]
    )
    reports, records = g.detect_under_faults(
        load_namer(artifact), namer.prepared, workers=workers
    )
    assert records == expected["detect_quarantine"]
    assert reports == expected["reports"]


@pytest.mark.parametrize("language", g.LANGUAGES)
def test_pointsto(language):
    """The Datalog points-to solver derives the golden relations for
    every corpus file, context-sensitive (k=5) and insensitive (k=0)."""
    assert g.pointsto_digest(language) == GOLDENS[language]["pointsto"]


def test_goldens_exercise_every_surface():
    """Guard against vacuous goldens: each corpus yields reports and
    every quarantine path trips."""
    empty = g.sha256("[]")
    for language in g.LANGUAGES:
        entry = GOLDENS[language]
        assert any(d != empty for d in entry["reports"].values()), language
        assert entry["faults"]["mine_quarantine"], language
        stages = {r["stage"] for r in entry["faults"]["detect_quarantine"]}
        assert stages == {"detect", "featurize"}, language
