"""The heap invariants behind freezing the long-lived heap.

``Namer.mine`` and ``AnalysisEngine`` move their long-lived objects out
of the cyclic collector's reach with :func:`gc.freeze`.  That is only
safe while those objects hold no reference cycles: a frozen cycle is
never collected, while acyclic objects are freed by refcounting alone,
frozen or not.  These tests pin that invariant on the hot paths (the
per-file prepare step and engine analysis leave no cyclic garbage) and
on the frozen objects themselves (a dropped namer, a replaced serving
generation).  CI also runs this file under ``-X dev`` with
``ResourceWarning`` as an error, so every engine here closes its
threads and sockets.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from contextlib import contextmanager

import pytest

from repro.core.namer import Namer, NamerConfig
from repro.core.persistence import save_namer
from repro.core.prepare import PrepareSettings, prepare_one
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.parallel.profiler import GcTimer
from repro.service.client import HttpClient
from repro.service.engine import AnalysisEngine, AnalysisRequest
from repro.service.server import AnalysisServer
from tests.conftest import SMALL_MINING

WARM_UP = 5
CALLS = 50


@contextmanager
def collector_off():
    """Collect what earlier code left, then run the block with the
    cyclic collector off (explicit ``gc.collect()`` still works)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _sources(corpus, count):
    """``count`` (source, repo) pairs, going round the corpus again if
    it has fewer files."""
    files = [(source, repo.name) for repo, source in corpus.files()]
    return list(itertools.islice(itertools.cycle(files), count))


@pytest.mark.parametrize("corpus_name", ["small_corpus", "small_java_corpus"])
def test_prepare_one_leaves_no_cyclic_garbage(request, corpus_name):
    files = _sources(request.getfixturevalue(corpus_name), WARM_UP + CALLS)
    settings = PrepareSettings()
    for source, repo in files[:WARM_UP]:
        prepare_one(source, repo, settings)
    with collector_off():
        for source, repo in files[WARM_UP:]:
            prepared, error = prepare_one(source, repo, settings)
            assert prepared is not None or error is not None
        del prepared, error
        assert gc.collect() == 0


def test_engine_analyze_leaves_no_cyclic_garbage(fitted_namer, small_corpus):
    files = _sources(small_corpus, WARM_UP + CALLS)
    assert len({source.path for source, _ in files}) == len(files)
    engine = AnalysisEngine(namer=fitted_namer, workers=1, queue_capacity=4)
    try:
        requests = [
            AnalysisRequest(source=source.source, path=source.path, repo=repo)
            for source, repo in files
        ]
        for req in requests[:WARM_UP]:
            engine.analyze(req)
        with collector_off():
            for req in requests[WARM_UP:]:
                # Every file is new to the engine: a full analysis.
                assert engine.analyze(req).cache_level is None
            assert gc.collect() == 0
    finally:
        engine.shutdown(drain=True, timeout=10)


def test_gc_timer_counts_collections_inside_its_block():
    timer = GcTimer()
    with collector_off():
        with timer:
            gc.collect(0)
            gc.collect()
        gc.collect()
    assert timer.collections == [1, 0, 1]
    assert timer.to_json()["seconds"][2] >= 0.0


def test_mined_namer_is_freed_by_refcount():
    corpus = generate_python_corpus(GeneratorConfig(num_repos=4, seed=3))
    namer = Namer(NamerConfig(mining=SMALL_MINING))
    summary = namer.mine(corpus)
    assert len(summary.gc["collections"]) == 3
    assert gc.get_freeze_count() > 0, "mine() froze nothing"
    files = _sources(corpus, 3)
    namer.analyze([source for source, _ in files], repo=[repo for _, repo in files])
    ref = weakref.ref(namer)
    with collector_off():
        del namer
        assert ref() is None, "a reference cycle keeps the mined namer alive"


def test_reload_frees_the_replaced_generation(fitted_namer, small_corpus, tmp_path):
    artifact = tmp_path / "namer.json"
    save_namer(fitted_namer, artifact)
    source, _ = _sources(small_corpus, 1)[0]
    server = AnalysisServer(
        AnalysisEngine(artifact_path=str(artifact), workers=1), port=0
    ).start()
    client = HttpClient(server.url, timeout=30)
    try:
        replaced = weakref.ref(server.engine._namer)
        client.analyze(source.source, path=source.path)
        client.reload(artifact)
        assert server.engine._namer is not replaced()
        assert replaced() is None, "the replaced generation is still alive"
        collector = client.metrics()["gc"]
        assert len(collector["collections"]) == 3
        assert collector["frozen_objects"] > 0
    finally:
        client.close()
        server.stop(drain=True)
