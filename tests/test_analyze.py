"""One source-to-reports path: ``Namer.analyze`` behind every surface.

The inference half of Figure 1 must put a new file through the same
AST+ transform that mined the patterns.  The analysis engine (and so
``repro serve``), the repository index and ``repro analyze`` all go
through :meth:`repro.core.namer.Namer.analyze`, which prepares with the
namer's own settings; an ablated "w/o A" namer (``use_analysis=False``)
must therefore report on each surface exactly what its own
``detect_many`` reports over the files it prepared while mining.
"""

from __future__ import annotations

import pytest

from repro.core.namer import Namer, NamerConfig
from repro.core.reports import reports_to_rows
from repro.index import RepoIndex, RepoIndexer
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.service.engine import AnalysisEngine, AnalysisRequest
from tests.conftest import SMALL_MINING


@pytest.fixture(scope="module")
def ablated(small_corpus):
    """A namer mined without the points-to decoration, plus its own
    reports over the files it prepared while mining, by path."""
    namer = Namer(NamerConfig(mining=SMALL_MINING, use_analysis=False))
    namer.mine(small_corpus)
    groups = namer.detect_many(namer.prepared)
    expected = {pf.path: group for pf, group in zip(namer.prepared, groups)}
    assert sum(len(group) for group in groups) > 0
    sources = {source.path: (repo.name, source) for repo, source in small_corpus.files()}
    return namer, expected, sources


class TestAblatedNamerOnEverySurface:
    def test_engine_prepares_with_the_artifacts_settings(self, ablated):
        namer, expected, sources = ablated
        engine = AnalysisEngine(namer=namer, workers=1)
        try:
            results = engine.analyze_many(
                [
                    AnalysisRequest(source=source.source, path=path, repo=repo)
                    for path, (repo, source) in sources.items()
                    if path in expected
                ]
            )
        finally:
            engine.shutdown(drain=False)
        assert {r.path: r.reports for r in results} == {
            path: reports_to_rows(group) for path, group in expected.items()
        }

    def test_index_prepares_with_the_artifacts_settings(self, ablated, tmp_path):
        namer, expected, sources = ablated
        root = tmp_path / "project"
        for path in expected:
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(sources[path][1].source)
        store = RepoIndex(str(tmp_path / "index.db"))
        try:
            RepoIndexer(str(root), namer, store).refresh()
            assert {path: store.get(path).reports for path in expected} == {
                path: reports_to_rows(group) for path, group in expected.items()
            }
        finally:
            store.close()

    def test_cli_analyze_prepares_with_the_artifacts_settings(
        self, ablated, tmp_path, monkeypatch, capsys
    ):
        from repro.__main__ import main
        from repro.core.persistence import save_namer

        namer, expected, sources = ablated
        artifact = tmp_path / "ablated.json"
        save_namer(namer, artifact)
        for path in expected:
            target = tmp_path / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(sources[path][1].source)
        # Analyzing "." names each file by its corpus-relative path,
        # the path the namer prepared it under while mining.
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", ".", "--artifacts", str(artifact), "--workers", "1"]) == 0
        printed = capsys.readouterr().out.splitlines()[:-1]
        assert sorted(printed) == sorted(
            report.describe() for group in expected.values() for report in group
        )


def _fields(result) -> dict:
    body = result.to_json()
    del body["elapsed_ms"]
    return body


class TestSingleEqualsBatch:
    """``analyze(r)`` and ``analyze_many([r])[0]`` are one code path:
    clean files, unparsable files and quarantined faults alike."""

    @pytest.mark.parametrize(
        "case, spec",
        [
            ("clean", None),
            ("unparsable", None),
            ("engine.prepare fault", FaultSpec(site="engine.prepare")),
            ("core.detect fault", FaultSpec(site="core.detect")),
        ],
    )
    def test_single_equals_batch(self, fitted_namer, small_corpus, case, spec):
        _, source = next(iter(small_corpus.files()))
        text = "def broken(:\n" if case == "unparsable" else source.source
        request = AnalysisRequest(source=text, path=source.path)
        # No result cache: each call must run the full path.
        engine = AnalysisEngine(namer=fitted_namer, workers=1, cache_entries=0)
        try:
            with FAULTS.armed(FaultPlan([spec] if spec else [])):
                single = engine.analyze(request)
                batch = engine.analyze_many([request])[0]
        finally:
            engine.shutdown(drain=False)
        assert _fields(single) == _fields(batch)
        assert (single.error is None) == (case == "clean")
