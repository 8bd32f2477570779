"""Tests for the analysis service layer (`repro.service`).

Covers each layer in isolation — result cache, bounded request queue —
and the assembled stack: engine batching, hot reload, and a real HTTP
round-trip over localhost including cache-hit metrics.
"""

import functools
import http.client
import json
import statistics
import threading
import time

import pytest

from repro.core.persistence import PersistenceError, save_namer
from repro.core.prepare import prepare_file
from repro.service.cache import ResultCache, content_key
from repro.service.client import HttpClient, InProcessClient, ServiceError
from repro.service.cluster_http import ClusterServer
from repro.service.engine import AnalysisEngine, AnalysisRequest
from repro.service.queue import (
    QueueFullError,
    RequestQueue,
    RequestTimeout,
    ServiceClosed,
)
from repro.service.server import AnalysisServer
from tests.test_cluster import make_cluster

pytestmark = pytest.mark.service

UNPARSABLE = "def broken(:"


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifact_file(fitted_namer, tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "namer.json"
    save_namer(fitted_namer, path)
    return path


@pytest.fixture(scope="module")
def report_source(fitted_namer, small_corpus):
    """A corpus file on which the full pipeline reports at least one
    violation (so HTTP assertions have something to check)."""
    for repo, source in small_corpus.files():
        prepared = prepare_file(source, repo=repo.name)
        if prepared is not None and fitted_namer.detect(prepared):
            return source
    pytest.fail("no corpus file produced a report")


@pytest.fixture()
def engine(fitted_namer):
    engine = AnalysisEngine(
        namer=fitted_namer, workers=2, queue_capacity=8, cache_entries=32
    )
    yield engine
    engine.shutdown(drain=False, timeout=5)


@pytest.fixture(scope="module")
def server(artifact_file):
    server = AnalysisServer(
        AnalysisEngine(
            artifact_path=str(artifact_file),
            workers=2,
            queue_capacity=8,
            cache_entries=32,
        ),
        port=0,
    ).start()
    yield server
    server.stop(drain=True)


@pytest.fixture(scope="module")
def client(server):
    return HttpClient(server.url, timeout=30)


@pytest.fixture(scope="module")
def coordinator_server():
    """A cluster coordinator over in-memory fake replicas (no
    subprocesses): the second front end built on the shared handler."""
    coordinator, _ = make_cluster(2)
    server = ClusterServer(coordinator, port=0).start()
    yield server
    server.stop()


@pytest.fixture(params=["replica", "coordinator"])
def front_end(request):
    """Each HTTP front end in turn: the single analysis server and the
    cluster coordinator."""
    name = "server" if request.param == "replica" else "coordinator_server"
    return request.getfixturevalue(name)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        key = content_key("x = 1", "python", "a.py")
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_content_key_sensitivity(self):
        base = content_key("x = 1", "python", "a.py")
        assert content_key("x = 2", "python", "a.py") != base
        assert content_key("x = 1", "java", "a.py") != base
        assert content_key("x = 1", "python", "b.py") != base

    def test_lru_eviction_drops_oldest(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_invalidate_and_clear(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.get("a") is None
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None


# ----------------------------------------------------------------------
# Request queue
# ----------------------------------------------------------------------


class TestRequestQueue:
    def test_runs_jobs_and_returns_results(self):
        q = RequestQueue(capacity=4, workers=2)
        try:
            assert q.run(lambda: 21 * 2, timeout=5) == 42
        finally:
            q.shutdown()

    def test_job_exceptions_propagate(self):
        q = RequestQueue(capacity=4, workers=1)
        try:
            with pytest.raises(ValueError, match="boom"):
                q.run(lambda: (_ for _ in ()).throw(ValueError("boom")), timeout=5)
        finally:
            q.shutdown()

    def test_backpressure_rejects_when_full(self):
        release = threading.Event()
        q = RequestQueue(capacity=1, workers=1)
        try:
            started = threading.Event()

            def blocker():
                started.set()
                release.wait(10)

            q.submit(blocker)
            started.wait(5)  # worker busy; capacity now measures the backlog
            q.submit(lambda: None)  # fills the single queue slot
            with pytest.raises(QueueFullError):
                q.submit(lambda: None)
        finally:
            release.set()
            q.shutdown()

    def test_per_request_timeout(self):
        release = threading.Event()
        q = RequestQueue(capacity=2, workers=1)
        try:
            ticket = q.submit(lambda: release.wait(10))
            with pytest.raises(RequestTimeout):
                ticket.result(timeout=0.05)
        finally:
            release.set()
            q.shutdown()

    def test_graceful_shutdown_drains_in_flight(self):
        q = RequestQueue(capacity=4, workers=1)
        done = []
        gate = threading.Event()

        def slow(i):
            gate.wait(5)
            time.sleep(0.01)
            done.append(i)
            return i

        tickets = [q.submit(lambda i=i: slow(i)) for i in range(3)]
        gate.set()
        q.shutdown(drain=True, timeout=10)
        assert sorted(done) == [0, 1, 2]
        assert [t.result(0) for t in tickets] == [0, 1, 2]
        with pytest.raises(ServiceClosed):
            q.submit(lambda: None)

    def test_abort_shutdown_rejects_queued_jobs(self):
        release = threading.Event()
        q = RequestQueue(capacity=4, workers=1)
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(10)
            return "in-flight"

        first = q.submit(blocker)
        started.wait(5)
        queued = q.submit(lambda: "never")
        # Release the blocker only after shutdown has begun (and has
        # already rejected the queued job); shutdown blocks on the join.
        threading.Timer(0.2, release.set).start()
        q.shutdown(drain=False, timeout=10)
        assert first.result(5) == "in-flight"  # in-flight work still finishes
        with pytest.raises(ServiceClosed):
            queued.result(0)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


class TestAnalysisEngine:
    def test_cache_miss_then_hit(self, engine, report_source):
        request = AnalysisRequest(source=report_source.source, path=report_source.path)
        first = engine.analyze(request)
        second = engine.analyze(request)
        assert not first.cached and second.cached
        assert second.reports == first.reports
        assert engine.cache.stats.hits >= 1

    def test_invalidation_forces_reanalysis(self, engine, report_source):
        request = AnalysisRequest(source=report_source.source, path=report_source.path)
        engine.analyze(request)
        assert engine.cache.invalidate(request.cache_key())
        assert not engine.analyze(request).cached

    def test_batch_matches_single_file_analysis(self, engine, small_corpus):
        sources = [source for _, source in small_corpus.files()][:4]
        requests = [
            AnalysisRequest(source=s.source, path=s.path, repo="service")
            for s in sources
        ]
        batch = engine.analyze_many(requests)
        assert [r.path for r in batch] == [s.path for s in sources]
        for request, result in zip(requests, batch):
            engine.cache.invalidate(request.cache_key())
            assert engine.analyze(request).reports == result.reports

    def test_batch_reuses_cache(self, engine, report_source):
        requests = [
            AnalysisRequest(source=report_source.source, path=report_source.path)
        ]
        engine.analyze_many(requests)
        again = engine.analyze_many(requests)
        assert again[0].cached

    def test_warm_result_cache_is_at_least_10x_faster(
        self, fitted_namer, small_corpus
    ):
        """A re-sent batch is answered from the content-hash cache with
        the cold pass's exact reports, at least an order of magnitude
        faster than analyzing it."""
        requests = [
            AnalysisRequest(source=source.source, path=source.path, repo=repo.name)
            for repo, source in small_corpus.files()
        ]
        engine = AnalysisEngine(
            namer=fitted_namer, workers=2, queue_capacity=256, cache_entries=4096
        )
        try:
            started = time.perf_counter()
            cold = engine.analyze_many(requests)
            cold_seconds = time.perf_counter() - started
            warm_seconds = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                warm = engine.analyze_many(requests)
                warm_seconds = min(warm_seconds, time.perf_counter() - started)
        finally:
            engine.shutdown(drain=False, timeout=5)
        assert not any(r.cached for r in cold)
        assert all(r.cached for r in warm)
        assert [r.reports for r in warm] == [r.reports for r in cold]
        assert engine.cache.stats.hit_rate > 0.5
        assert cold_seconds >= 10 * warm_seconds, (
            f"cold {cold_seconds * 1000:.0f} ms, warm {warm_seconds * 1000:.0f} ms"
        )

    def test_unparsable_source_reports_error(self, engine):
        result = engine.analyze(AnalysisRequest(source=UNPARSABLE, path="bad.py"))
        assert result.error is not None and result.reports == []
        assert engine.metrics.errors == 1

    def test_detect_many_parity_with_detect(self, fitted_namer, report_source):
        prepared = prepare_file(report_source, repo="service")
        single = fitted_namer.detect(prepared)
        batch = fitted_namer.detect_many([prepared, prepared])
        for group in batch:
            assert [(r.observed, r.suggested) for r in group] == [
                (r.observed, r.suggested) for r in single
            ]
            assert [r.score for r in group] == pytest.approx(
                [r.score for r in single]
            )

    def test_reload_swaps_artifact_and_clears_cache(
        self, engine, artifact_file, report_source
    ):
        request = AnalysisRequest(source=report_source.source, path=report_source.path)
        engine.analyze(request)
        outcome = engine.reload(str(artifact_file))
        assert outcome["cache_entries_dropped"] >= 1
        assert len(engine.cache) == 0
        assert engine.metrics.reloads == 1
        assert not engine.analyze(request).cached

    def test_reload_rejects_bad_artifact(self, engine, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(PersistenceError):
            engine.reload(str(bad))

    def test_in_process_client_round_trip(self, engine, report_source):
        client = InProcessClient(engine)
        assert client.health()["status"] == "ok"
        result = client.analyze(report_source.source, path=report_source.path)
        assert result["reports"]
        assert client.metrics()["requests_total"] >= 1


# ----------------------------------------------------------------------
# HTTP server: end-to-end over localhost
# ----------------------------------------------------------------------


class TestHttpService:
    def test_health(self, client, artifact_file):
        health = client.health()
        assert health["status"] == "ok"
        assert health["artifacts"] == str(artifact_file)
        assert health["patterns"] > 0

    def test_analyze_round_trip_with_correct_violations(
        self, client, fitted_namer, report_source
    ):
        expected = {
            (r.observed, r.suggested)
            for r in fitted_namer.detect(prepare_file(report_source, repo="service"))
        }
        result = client.analyze(
            report_source.source, path=report_source.path, language="python"
        )
        assert result["error"] is None
        got = {(r["observed"], r["suggested"]) for r in result["reports"]}
        assert got == expected
        for row in result["reports"]:
            assert row["file"] == report_source.path
            assert row["line"] >= 1
            assert row["fixed_identifier"]

    def test_second_submission_hits_cache(self, client, report_source):
        client.analyze(report_source.source, path=report_source.path)
        result = client.analyze(report_source.source, path=report_source.path)
        assert result["cached"] is True
        metrics = client.metrics()
        assert metrics["cache"]["hit_rate"] > 0
        assert metrics["cache"]["hits"] >= 1

    def test_metrics_counters_and_latency(self, client, report_source):
        client.analyze(report_source.source, path=report_source.path)
        metrics = client.metrics()
        assert metrics["requests_total"] >= 1
        assert metrics["violations_reported"] >= 1
        assert metrics["latency"]["count"] >= 1
        assert metrics["latency"]["p50_ms"] >= 0
        assert metrics["queue"]["capacity"] == 8

    def test_batch_analyze_over_http(self, client, report_source):
        results = client.analyze_files(
            [
                {"path": report_source.path, "source": report_source.source},
                {"path": "broken.py", "source": UNPARSABLE},
            ]
        )
        assert len(results) == 2
        assert results[0]["reports"]
        assert results[1]["error"] is not None

    def test_reload_over_http(self, client, artifact_file):
        outcome = client.reload(artifact_file)
        assert outcome["artifacts"] == str(artifact_file)

    def test_bad_requests_are_4xx(self, client):
        with pytest.raises(ServiceError) as exc:
            client.analyze_files([{"path": "x.py"}])  # no source
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._call("POST", "/analyze", {"source": "x=1", "language": "cobol"})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._call("GET", "/nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.reload("/nonexistent/namer.json")
        assert exc.value.status == 400

    @pytest.mark.parametrize(
        "length, body",
        [
            ("abc", b'{"source": "x = 1"}'),
            (None, b'{"source": "\xff"}'),  # not UTF-8
            (None, b'{"source": '),
            (None, b"[1, 2]"),
            (None, b""),
        ],
        ids=["bad-length", "non-utf8", "bad-json", "not-object", "empty"],
    )
    def test_malformed_bodies_are_400(self, front_end, length, body):
        """``length`` overrides the Content-Length header."""
        conn = http.client.HTTPConnection(front_end.host, front_end.port, timeout=30)
        try:
            conn.putrequest("POST", "/analyze")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length or len(body))
            conn.endheaders(body)
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
        finally:
            conn.close()
        assert response.status == 400, error
        # A body left unread ends the connection instead of being
        # parsed as the next request.
        assert response.will_close == (length is not None)

    def test_cache_disposition_header(self, client, report_source):
        entries = [{"path": "header.py", "source": report_source.source}]
        client.analyze_files(entries)
        first = client.last_headers["X-Repro-Cache"]
        assert first.endswith("miss=1") or "memory=1" in first
        client.analyze_files(entries)
        assert "memory=1" in client.last_headers["X-Repro-Cache"]

    def test_stop_returns_when_never_served(self, fitted_namer):
        # An interrupt between the bind and serve_forever reaches
        # stop() on a listener whose serve loop never ran.
        server = AnalysisServer(AnalysisEngine(namer=fitted_namer), port=0)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive(), "stop() hung on a never-served listener"
        # A stopped listener never starts serving afterwards.
        server.serve_forever()


# ----------------------------------------------------------------------
# Wire latency: one write per reply, TCP_NODELAY
# ----------------------------------------------------------------------


#: Over 64 KiB of reply JSON from either front end: more than one
#: loopback segment.
LARGE_BATCH = [
    {"path": f"wire/{'d' * 1200}.py", "source": "x = 1\n", "language": "python"}
] * 64


class TestWireLatency:
    """Sequential requests over one kept-alive connection.  A reply
    written as two sends waits ~40 ms for the client's delayed ACK, so
    the median round trip would sit on that floor."""

    @pytest.mark.parametrize("kind", ["health", "large-batch"])
    def test_keepalive_round_trip_has_no_delayed_ack_stall(self, front_end, kind):
        client = HttpClient(front_end.url, timeout=30)
        if kind == "health":
            call = client.health
        else:
            call = functools.partial(client.analyze_files, LARGE_BATCH)
        try:
            reply = call()  # connects, and fills the replica's cache
            if kind == "large-batch":
                assert len(json.dumps({"results": reply})) > 64 * 1024
            rounds = []
            for _ in range(20):
                started = time.perf_counter()
                call()
                rounds.append(time.perf_counter() - started)
        finally:
            client.close()
        assert statistics.median(rounds) < 0.015, rounds


# ----------------------------------------------------------------------
# Persistent (disk) result cache: X-Repro-Cache, /metrics, restarts
# ----------------------------------------------------------------------


@pytest.mark.cache
class TestPersistentDetectCache:
    def fresh_engine(self, artifact_file, cache_dir):
        return AnalysisEngine(
            artifact_path=str(artifact_file),
            workers=1,
            cache_entries=32,
            cache_dir=str(cache_dir),
        )

    def test_disk_hit_survives_engine_restart(
        self, artifact_file, report_source, tmp_path
    ):
        request = AnalysisRequest(
            source=report_source.source, path=report_source.path
        )
        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            cold = engine.analyze(request)
            assert cold.cached is False and cold.cache_level is None
            warm = engine.analyze(request)
            assert warm.cache_level == "memory"
        finally:
            engine.shutdown(drain=False, timeout=5)

        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            disk = engine.analyze(request)
            assert disk.cached is True and disk.cache_level == "disk"
            assert disk.reports == cold.reports
            # A disk hit warms the in-memory LRU for the next call.
            assert engine.analyze(request).cache_level == "memory"
        finally:
            engine.shutdown(drain=False, timeout=5)

    def test_batch_is_served_from_disk_after_restart(
        self, artifact_file, small_corpus, tmp_path
    ):
        requests = [
            AnalysisRequest(source=source.source, path=source.path, repo=repo.name)
            for repo, source in small_corpus.files()
        ]
        requests.append(AnalysisRequest(source=UNPARSABLE, path="broken.py"))
        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            cold = engine.analyze_many(requests)
        finally:
            engine.shutdown(drain=False, timeout=5)
        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            warm = engine.analyze_many(requests)
            detect = engine.metrics_json()["content_cache"]["detect"]
        finally:
            engine.shutdown(drain=False, timeout=5)
        assert detect["decoded_bytes"] > 0 and detect["decode_seconds"] > 0
        assert [r.reports for r in warm] == [r.reports for r in cold]
        # every error-free file comes off disk; the error is recomputed
        assert [r.cache_level == "disk" for r in warm] == [
            r.error is None for r in cold
        ]
        assert cold[-1].error is not None

    def test_errors_are_never_persisted(self, artifact_file, tmp_path):
        request = AnalysisRequest(source=UNPARSABLE, path="broken.py")
        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            assert engine.analyze(request).error is not None
        finally:
            engine.shutdown(drain=False, timeout=5)
        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            again = engine.analyze(request)
            assert again.error is not None and again.cache_level is None
        finally:
            engine.shutdown(drain=False, timeout=5)

    def test_metrics_expose_cache_sections(self, artifact_file, tmp_path):
        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            engine.analyze(AnalysisRequest(source="x = 1\n", path="m.py"))
            metrics = engine.metrics_json()
            assert metrics["content_cache"]["detect"]["stores"] >= 1
            assert isinstance(metrics["mining_cache"], dict)
        finally:
            engine.shutdown(drain=False, timeout=5)

    def test_engine_without_cache_dir_reports_empty_sections(self, engine):
        metrics = engine.metrics_json()
        assert metrics["content_cache"] == {}

    def test_in_process_client_reports_disposition(
        self, artifact_file, report_source, tmp_path
    ):
        engine = self.fresh_engine(artifact_file, tmp_path / "c")
        try:
            client = InProcessClient(engine)
            entries = [
                {"path": report_source.path, "source": report_source.source}
            ]
            client.analyze_files(entries)
            assert client.last_headers["X-Repro-Cache"] == "memory=0 disk=0 miss=1"
            client.analyze_files(entries)
            assert client.last_headers["X-Repro-Cache"] == "memory=1 disk=0 miss=0"
        finally:
            engine.shutdown(drain=False, timeout=5)


# ----------------------------------------------------------------------
# Races: shutdown vs. in-flight submits, reload vs. in-flight analyze
# ----------------------------------------------------------------------


class TestServiceRaces:
    """Concurrency seams exercised with delay faults from the
    resilience harness (`repro.resilience.faults`): every request is
    either served completely or rejected cleanly — never half-done,
    never a hang."""

    def test_shutdown_drains_under_concurrent_submits(self, fitted_namer):
        from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec

        engine = AnalysisEngine(
            namer=fitted_namer, workers=2, queue_capacity=16, cache_entries=0
        )
        # Each prepare sleeps a little so shutdown overlaps live work.
        plan = FaultPlan(
            [FaultSpec(site="engine.prepare", delay=0.02, raises=None)]
        )
        outcomes: list[str] = []
        lock = threading.Lock()

        def submit(i: int) -> None:
            try:
                result = engine.analyze(
                    AnalysisRequest(source="x = 1\n", path=f"race_{i}.py"),
                    timeout=10,
                )
                with lock:
                    outcomes.append("done" if result.error is None else "error")
            except (ServiceClosed, QueueFullError):
                with lock:
                    outcomes.append("rejected")

        with FAULTS.armed(plan):
            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            time.sleep(0.01)
            engine.shutdown(drain=True, timeout=30)
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "a submit hung"
        # every request got exactly one clean outcome, and the work the
        # queue accepted before close was drained, not dropped
        assert len(outcomes) == 8
        assert set(outcomes) <= {"done", "rejected"}
        with pytest.raises(ServiceClosed):
            engine.queue.submit(lambda: None)

    def test_reload_races_inflight_analyze(
        self, client, artifact_file, report_source
    ):
        from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec

        # Slow down exactly the in-flight request so /reload lands while
        # it is being prepared on a worker thread.
        plan = FaultPlan(
            [FaultSpec(site="engine.prepare", match="inflight_race.py",
                       delay=0.3, raises=None)]
        )
        box: dict[str, dict] = {}

        def analyze() -> None:
            box["result"] = client.analyze(
                report_source.source, path="inflight_race.py"
            )

        with FAULTS.armed(plan):
            thread = threading.Thread(target=analyze)
            thread.start()
            time.sleep(0.1)
            outcome = client.reload(artifact_file)
            thread.join(timeout=30)
        assert not thread.is_alive(), "in-flight analyze hung across reload"
        assert outcome["artifacts"] == str(artifact_file)
        result = box["result"]
        assert result["error"] is None and result["reports"]
        # Generation fencing: the in-flight result must not have seeded
        # the post-reload cache, so the same request misses once ...
        again = client.analyze(report_source.source, path="inflight_race.py")
        assert again["cached"] is False
        # ... and only then is cached as usual.
        third = client.analyze(report_source.source, path="inflight_race.py")
        assert third["cached"] is True

    def test_concurrent_analyze_during_reload_storm(
        self, client, artifact_file, report_source
    ):
        errors: list[Exception] = []

        def analyze_loop() -> None:
            for i in range(5):
                try:
                    client.analyze(
                        report_source.source, path=f"storm_{i % 2}.py"
                    )
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

        threads = [threading.Thread(target=analyze_loop) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(3):
            client.reload(artifact_file)
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
