"""Serving cold start: what a serving process imports, and the clock
``/metrics`` reports it on.

The classifier is fitted and evaluated with numpy alone, so no process
imports scipy: not one that loads artifacts and classifies, and not one
that fits a model either.  An engine without a persistent cache never
hashes the package's source for cache keys.  ``startup_seconds`` counts from the first
``import repro`` (:data:`repro.IMPORT_STARTED`), so it covers import
time, under ``repro serve`` and under a cluster replica alike.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.persistence import namer_to_document, save_namer
from repro.core.prepare import prepare_file
from repro.mining.frozen import default_frozen_path, freeze_namer
from repro.resilience.checkpoint import document_checksum

pytestmark = pytest.mark.service

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: runs in a fresh interpreter: serve from a JSON artifact and from a
#: frozen blob, fit a classifier, then check scipy never loaded
SERVE_THEN_FIT = """
import json, sys
import numpy as np
import repro.__main__, repro.service.engine, repro.service.server
from repro.service.engine import AnalysisEngine, AnalysisRequest

spec = json.load(open(sys.argv[1]))
for artifact, source in (
    (spec["json_artifact"], "json"),
    (spec["frozen_artifact"], "frozen"),
):
    engine = AnalysisEngine(artifact_path=artifact, workers=1)
    try:
        assert engine.metrics_json()["artifact_source"] == source
        result = engine.analyze(AnalysisRequest(**spec["files"][0]))
        assert result.reports, "the served file must reach the classifier"
    finally:
        engine.shutdown(drain=False)
from repro.core.persistence import load_namer
from repro.core.prepare import prepare_file
from repro.corpus.model import SourceFile

namer = load_namer(spec["json_artifact"])
violations = [
    v
    for f in spec["files"]
    for v in namer.violations_in(
        prepare_file(SourceFile(path=f["path"], source=f["source"]))
    )
]
labels = [i % 2 for i in range(len(violations))]
namer.train(violations, labels)
weights = namer.classifier.feature_weights()
assert weights.size and np.isfinite(weights).all(), weights
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
print("ok", len(violations))
"""


@pytest.fixture(scope="module")
def served_files(fitted_namer, small_corpus):
    """Corpus files the fitted namer reports on (so analysis runs the
    classifier), as ``AnalysisRequest`` keyword dicts."""
    out = []
    for repo, source in small_corpus.files():
        pf = prepare_file(source, repo=repo.name)
        if pf is not None and fitted_namer.detect(pf):
            out.append({"path": source.path, "source": source.source})
        if len(out) == 4:
            break
    assert out, "the tier-1 corpus must yield a reported file"
    return out


def test_no_process_imports_scipy(
    fitted_namer, served_files, tmp_path
):
    json_dir = tmp_path / "json"
    frozen_dir = tmp_path / "frozen"
    json_dir.mkdir()
    frozen_dir.mkdir()
    save_namer(fitted_namer, json_dir / "namer.json")
    save_namer(fitted_namer, frozen_dir / "namer.json")
    freeze_namer(
        fitted_namer,
        default_frozen_path(frozen_dir / "namer.json"),
        document_checksum(namer_to_document(fitted_namer)),
    )
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "json_artifact": str(json_dir / "namer.json"),
                "frozen_artifact": str(frozen_dir / "namer.json"),
                "files": served_files,
            }
        )
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", SERVE_THEN_FIT, str(spec)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok")


class _Stop(Exception):
    """Ends a host entry point right after it has built its engine."""


def _backdate_import_clock(monkeypatch, module, seconds: float) -> None:
    monkeypatch.setattr(module, "IMPORT_STARTED", time.monotonic() - seconds)


def test_serve_reports_startup_from_first_import(
    fitted_namer, tmp_path, monkeypatch
):
    from repro.__main__ import main
    from repro.service.server import AnalysisServer

    artifact = tmp_path / "namer.json"
    save_namer(fitted_namer, artifact)
    _backdate_import_clock(monkeypatch, repro, 1000.0)
    seen = {}
    serve_forever = AnalysisServer.serve_forever

    def serve_once(server):
        seen.update(server.engine.metrics_json())
        # ask the listener to stop, then let it serve until it does
        threading.Thread(target=server.httpd.shutdown).start()
        serve_forever(server)

    monkeypatch.setattr(AnalysisServer, "serve_forever", serve_once)
    code = main(["serve", "--artifacts", str(artifact), "--port", "0"])
    assert code == 0
    # engine construction alone takes well under a second here
    assert seen["startup_seconds"] >= 1000.0


def test_replica_reports_startup_from_first_import(
    fitted_namer, tmp_path, monkeypatch
):
    from repro.service import replica

    artifact = tmp_path / "namer.json"
    save_namer(fitted_namer, artifact)
    _backdate_import_clock(monkeypatch, replica, 1000.0)
    engines = []

    def no_server(engine, **kwargs):
        engines.append(engine)
        raise _Stop

    monkeypatch.setattr(replica, "AnalysisServer", no_server)
    with pytest.raises(_Stop):
        replica.main(["--artifacts", str(artifact), "--workers", "1"])
    (engine,) = engines
    try:
        engine.complete_load()
        assert engine.metrics_json()["startup_seconds"] >= 1000.0
    finally:
        engine.shutdown(drain=False)


def test_serving_without_a_cache_dir_never_hashes_the_code(
    fitted_namer, served_files, tmp_path, monkeypatch
):
    from repro.service.engine import AnalysisEngine, AnalysisRequest

    hashed = []
    monkeypatch.setattr(
        "repro.cache.contentcache.code_digest",
        lambda: hashed.append(1) or "0" * 64,
    )
    save_namer(fitted_namer, tmp_path / "namer.json")
    for cache_dir in (None, tmp_path / "cache"):
        engine = AnalysisEngine(
            artifact_path=str(tmp_path / "namer.json"),
            workers=1,
            cache_dir=str(cache_dir) if cache_dir else None,
        )
        try:
            result = engine.analyze(AnalysisRequest(**served_files[0]))
            assert result.reports
        finally:
            engine.shutdown(drain=False)
        # Only the engine with a persistent cache keys on the code.
        assert bool(hashed) == (cache_dir is not None)

