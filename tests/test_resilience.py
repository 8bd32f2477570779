"""Tests for the resilience subsystem (`repro.resilience`).

Covers the fault-injection harness itself, per-file quarantine through
mining, atomic writes and checksummed checkpoints, byte-identical
``--resume``, retry/backoff + circuit breaker, and degraded-mode
serving — the failure paths a clean CI box never exercises naturally.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace

import pytest

from repro.core.namer import Namer, NamerConfig
from repro.core.persistence import save_namer
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.frozen import default_frozen_path
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointStore,
    atomic_write_text,
    document_checksum,
)
from repro.resilience.faults import (
    FAULTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_check,
)
from repro.resilience.pipeline import run_mine_pipeline
from repro.resilience.quarantine import ErrorRecord, Quarantine
from repro.resilience.retry import CircuitBreaker, CircuitOpenError, RetryPolicy

from tests import blobs
from tests.conftest import SMALL_MINING


# ----------------------------------------------------------------------
# Fault injection harness
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_disarmed_check_is_a_noop(self):
        assert FAULTS.plan is None
        FAULTS.check("any.site", key="any-key")  # must not raise

    def test_rate_one_always_trips(self):
        plan = FaultPlan([FaultSpec(site="s")])
        with pytest.raises(InjectedFault) as exc:
            plan.fire("s", key="k")
        assert exc.value.site == "s" and exc.value.key == "k"

    def test_other_sites_unaffected(self):
        plan = FaultPlan([FaultSpec(site="s")])
        plan.fire("other.site", key="k")  # no matching spec: no-op

    def test_partial_rate_is_deterministic_across_instances(self):
        keys = [f"file_{i}.py" for i in range(400)]
        a = FaultPlan([FaultSpec(site="s", rate=0.1)], seed=3)
        b = FaultPlan([FaultSpec(site="s", rate=0.1)], seed=3)
        tripped_a = {k for k in keys if a.would_trip("s", k)}
        tripped_b = {k for k in keys if b.would_trip("s", k)}
        assert tripped_a == tripped_b
        # roughly the requested fraction, and seed-dependent
        assert 10 <= len(tripped_a) <= 90
        c = FaultPlan([FaultSpec(site="s", rate=0.1)], seed=4)
        assert {k for k in keys if c.would_trip("s", k)} != tripped_a

    def test_max_trips_budget(self):
        plan = FaultPlan([FaultSpec(site="s", max_trips=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("s")
        plan.fire("s")  # budget spent: no-op
        assert plan.total_trips == 2
        assert plan.trips_for("s") == 2

    def test_match_filters_keys(self):
        plan = FaultPlan([FaultSpec(site="s", match="bad")])
        plan.fire("s", key="good.py")
        with pytest.raises(InjectedFault):
            plan.fire("s", key="bad.py")

    def test_raises_kinds(self):
        for kind, exc_type in (
            ("os", OSError),
            ("value", ValueError),
            ("timeout", TimeoutError),
        ):
            plan = FaultPlan([FaultSpec(site="s", raises=kind)])
            with pytest.raises(exc_type):
                plan.fire("s")

    def test_delay_only_spec_does_not_raise(self):
        plan = FaultPlan([FaultSpec(site="s", delay=0.001, raises=None)])
        plan.fire("s")
        assert plan.total_trips == 1

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(site="s", rate=0.25, max_trips=3, match="x", delay=0.5)],
            seed=11,
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        loaded = FaultPlan.load(path)
        assert loaded.seed == 11
        assert loaded.specs == plan.specs

    def test_disarmed_sites_add_under_5_percent_to_detect_many(
        self, fitted_namer
    ):
        """With no plan armed each site costs one attribute load and a
        ``None`` test: the sites one warm ``detect_many`` pass consults
        must cost under 5% of the pass."""
        files = fitted_namer.prepared
        fitted_namer.detect_many(files)  # warm up
        detect_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            fitted_namer.detect_many(files)
            detect_seconds = min(detect_seconds, time.perf_counter() - started)

        class CountingPlan(FaultPlan):
            calls = 0

            def fire(self, site: str, key: str = "") -> None:
                self.calls += 1

        counter = CountingPlan()
        FAULTS.arm(counter)
        try:
            fitted_namer.detect_many(files)
        finally:
            FAULTS.disarm()
        assert counter.calls >= len(files)  # at least one site per file

        batch = max(100_000, counter.calls * 100)
        started = time.perf_counter()
        for _ in range(batch):
            fault_check("bench.site", key="bench-key")
        per_check = (time.perf_counter() - started) / batch
        ratio = counter.calls * per_check / detect_seconds
        assert ratio < 0.05, (
            f"disarmed fault checks cost {ratio * 100:.2f}% of a warm "
            "detect_many pass (budget: 5%)"
        )

    def test_armed_context_restores_previous_plan(self):
        assert FAULTS.plan is None
        with FAULTS.armed(FaultPlan([FaultSpec(site="s")])):
            with pytest.raises(InjectedFault):
                FAULTS.check("s")
        assert FAULTS.plan is None
        FAULTS.check("s")  # disarmed again


class TestQuarantine:
    def test_capture_and_describe(self):
        q = Quarantine()
        record = q.capture("a.py", "parse", ValueError("boom"), repo="r")
        assert record.kind == "ValueError"
        assert "a.py" in record.describe() and "parse" in record.describe()
        assert record.brief() == "parse failed: boom"
        assert len(q) == 1 and q.paths() == ["a.py"]

    def test_bounded_records_count_everything(self):
        q = Quarantine(max_records=5)
        for i in range(20):
            q.add(ErrorRecord(path=f"{i}.py", stage="parse", kind="E", message="m"))
        assert len(q) == 20
        assert len(q.records) == 5
        body = q.to_json()
        assert body["total"] == 20 and body["truncated"] is True

    def test_thread_safe_adds(self):
        q = Quarantine(max_records=10_000)

        def add_many():
            for i in range(500):
                q.capture(f"{i}.py", "detect", RuntimeError("x"))

        threads = [threading.Thread(target=add_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(q) == 2000


# ----------------------------------------------------------------------
# Quarantine through mining (the acceptance drill: 10% parse faults)
# ----------------------------------------------------------------------


class TestMiningQuarantine:
    def test_mine_quarantines_exactly_the_faulted_files(self, small_corpus):
        plan = FaultPlan(
            [FaultSpec(site="corpus.prepare_file", rate=0.1)], seed=21
        )
        expected = {
            source.path
            for _, source in small_corpus.files()
            if plan.would_trip("corpus.prepare_file", source.path)
        }
        assert expected, "plan must fault at least one file for this test"
        namer = Namer(NamerConfig(mining=SMALL_MINING))
        with FAULTS.armed(plan):
            summary = namer.mine(small_corpus)
        assert summary.quarantined_files == len(expected)
        assert set(namer.quarantine.paths()) == expected
        assert all(r.stage == "parse" for r in namer.quarantine.records)
        # the run still completed: every healthy file was mined
        total = sum(1 for _ in small_corpus.files())
        assert summary.total_files == total - len(expected)
        assert summary.num_patterns > 0

    def test_mine_without_faults_quarantines_nothing(self, fitted_namer):
        assert len(fitted_namer.quarantine) == 0

    def test_detect_many_quarantines_failing_file(self, fitted_namer, small_corpus):
        from repro.core.prepare import prepare_file

        files = [source for _, source in small_corpus.files()][:3]
        prepared = [prepare_file(f, repo="t") for f in files]
        prepared = [p for p in prepared if p is not None]
        assert prepared
        plan = FaultPlan(
            [FaultSpec(site="core.detect", match=prepared[0].path)]
        )
        q = Quarantine()
        with FAULTS.armed(plan):
            groups = fitted_namer.detect_many(prepared, quarantine=q)
        assert len(groups) == len(prepared)
        assert groups[0] == []
        assert q.paths() == [prepared[0].path]

    def test_detect_many_without_quarantine_still_raises(
        self, fitted_namer, small_corpus
    ):
        from repro.core.prepare import prepare_file

        source = next(s for _, s in small_corpus.files())
        prepared = prepare_file(source, repo="t")
        plan = FaultPlan([FaultSpec(site="core.detect")])
        with FAULTS.armed(plan):
            with pytest.raises(InjectedFault):
                fitted_namer.detect_many([prepared])


# ----------------------------------------------------------------------
# Atomic writes and checksummed checkpoints
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_failed_write_leaves_old_bytes_and_no_temp(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "precious")
        plan = FaultPlan([FaultSpec(site="checkpoint.save", raises="os")])
        store = CheckpointStore(tmp_path)
        with FAULTS.armed(plan):
            with pytest.raises(OSError):
                store.save("f", {"x": 1})
        assert path.read_text() == "precious"
        assert not list(tmp_path.glob("*.tmp"))


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        payload = {"numbers": [1, 2, 3], "nested": {"a": 0.5}}
        store.save("mine", payload)
        assert store.has("mine")
        assert store.load("mine") == payload

    def test_missing_stage_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nope") is None

    def test_tampered_payload_fails_verification(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("mine", {"x": 1})
        doc = json.loads(path.read_text())
        doc["payload"]["x"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="SHA-256"):
            store.load("mine")

    def test_payload_is_encoded_once_and_stored_as_that_text(
        self, tmp_path, monkeypatch
    ):
        payload = {"numbers": [1, 2.5, 1e-05], "nested": {"b": None, "a": "é"}}
        encodes = []
        dumps = json.dumps

        def counting(value, *args, **kwargs):
            if value is payload:
                encodes.append(kwargs)
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr("repro.resilience.checkpoint.json.dumps", counting)
        path = CheckpointStore(tmp_path).save("mine", payload, "inputs-1")
        assert len(encodes) == 1
        monkeypatch.undo()
        text = path.read_text()
        assert dumps(payload) in text
        assert json.loads(text)["payload"] == payload
        assert CheckpointStore(tmp_path).load("mine", "inputs-1") == payload

    def test_checkpoint_of_the_canonical_stamp_format_is_ignored(self, tmp_path):
        """Checkpoints stamped with the canonical whole-document checksum
        fail verification once, and the stage is re-run."""
        store = CheckpointStore(tmp_path)
        document = {"stage": "mine", "inputs": "", "payload": {"x": 1}}
        document["checksum"] = document_checksum(document)
        store.path_for("mine").write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="SHA-256"):
            store.load("mine")

    def test_checkpoint_moved_to_another_stage_fails_verification(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("mine", {"x": 1})
        store.path_for("mine").rename(store.path_for("train"))
        with pytest.raises(CheckpointError, match="SHA-256"):
            store.load("train")

    def test_invalid_json_is_an_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path_for("mine").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("mine").write_text("{torn")
        with pytest.raises(CheckpointError, match="JSON"):
            store.load("mine")

    def test_clear_removes_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("mine", {"x": 1})
        store.save("train", {"y": 2})
        assert store.clear() == 2
        assert not (tmp_path / "ckpt").exists()

    def test_document_checksum_ignores_order_and_own_stamp(self):
        a = {"x": 1, "y": [2, 3]}
        b = {"y": [2, 3], "x": 1, "checksum": "whatever"}
        assert document_checksum(a) == document_checksum(b)
        assert document_checksum({"x": 2, "y": [2, 3]}) != document_checksum(a)


# ----------------------------------------------------------------------
# Checkpoint/resume: interrupted runs resume byte-identically
# ----------------------------------------------------------------------


_CORPUS = GeneratorConfig(num_repos=8, issue_rate=0.15, seed=42)

_PIPELINE_KWARGS = dict(
    corpus_factory=lambda: generate_python_corpus(_CORPUS),
    corpus_settings=("python", _CORPUS),
    namer_config=NamerConfig(mining=SMALL_MINING),
    training_size=80,
    seed=5,
)


@pytest.fixture(scope="module")
def baseline_out(tmp_path_factory):
    """Where one uninterrupted pipeline run saved its artifact."""
    out = tmp_path_factory.mktemp("pipeline") / "baseline.json"
    result = run_mine_pipeline(out=out, **_PIPELINE_KWARGS)
    assert result.resumed_stages == []
    return out


@pytest.fixture(scope="module")
def baseline_artifact(baseline_out):
    """The uninterrupted run's JSON export; resumed runs must match its
    bytes."""
    return baseline_out.read_bytes()


class TestCheckpointResume:
    def test_uninterrupted_run_leaves_no_checkpoints(
        self, tmp_path, baseline_artifact
    ):
        out = tmp_path / "namer.json"
        run_mine_pipeline(out=out, **_PIPELINE_KWARGS)
        assert not (tmp_path / "namer.json.ckpt").exists()
        assert out.read_bytes() == baseline_artifact

    def test_resume_after_kill_past_training(
        self, tmp_path, baseline_out, baseline_artifact
    ):
        out = tmp_path / "namer.json"
        plan = FaultPlan([FaultSpec(site="pipeline.after_train", max_trips=1)])
        with FAULTS.armed(plan):
            with pytest.raises(InjectedFault):
                run_mine_pipeline(out=out, **_PIPELINE_KWARGS)
        assert not out.exists()  # killed before the final save

        messages = []
        result = run_mine_pipeline(
            out=out, resume=True, log=messages.append, **_PIPELINE_KWARGS
        )
        assert result.resumed_stages == ["train"]
        assert any("resumed" in m for m in messages)
        assert out.read_bytes() == baseline_artifact
        # The blob is frozen from the decoded checkpoint: the same
        # document's fingerprint, loadable.
        from repro.core.persistence import load_namer

        resumed, baseline = load_namer(out), load_namer(baseline_out)
        assert resumed.frozen_fingerprint == baseline.frozen_fingerprint
        assert not (tmp_path / "namer.json.ckpt").exists()  # cleaned up

    def test_resume_after_kill_past_mining(self, tmp_path, baseline_artifact):
        out = tmp_path / "namer.json"
        plan = FaultPlan([FaultSpec(site="pipeline.after_mine", max_trips=1)])
        with FAULTS.armed(plan):
            with pytest.raises(InjectedFault):
                run_mine_pipeline(out=out, **_PIPELINE_KWARGS)
        assert not out.exists()

        result = run_mine_pipeline(out=out, resume=True, **_PIPELINE_KWARGS)
        assert result.resumed_stages == ["mine"]
        assert out.read_bytes() == baseline_artifact

    def test_corrupt_checkpoint_is_ignored_not_trusted(
        self, tmp_path, baseline_artifact
    ):
        out = tmp_path / "namer.json"
        ckpt_dir = tmp_path / "namer.json.ckpt"
        plan = FaultPlan([FaultSpec(site="pipeline.after_train", max_trips=1)])
        with FAULTS.armed(plan):
            with pytest.raises(InjectedFault):
                run_mine_pipeline(out=out, **_PIPELINE_KWARGS)
        # Tear the train checkpoint; resume must fall back to re-running
        # (via the still-valid mine checkpoint), never continue from it.
        train = ckpt_dir / "train.ckpt.json"
        train.write_text(train.read_text()[: train.stat().st_size // 2])
        messages = []
        result = run_mine_pipeline(
            out=out, resume=True, log=messages.append, **_PIPELINE_KWARGS
        )
        assert result.resumed_stages == ["mine"]
        assert any("unusable checkpoint" in m for m in messages)
        assert out.read_bytes() == baseline_artifact

    @pytest.mark.parametrize(
        "changed",
        [
            {"corpus_settings": ("python", replace(_CORPUS, num_repos=4))},
            {"seed": 6},
        ],
        ids=["corpus", "seed"],
    )
    def test_resume_ignores_checkpoints_of_other_inputs(
        self, tmp_path, baseline_artifact, changed
    ):
        # Checkpoints left by a run over other inputs (a smaller corpus,
        # another training seed) must never finish this run.
        out = tmp_path / "namer.json"
        earlier = {**_PIPELINE_KWARGS, **changed}
        if "corpus_settings" in changed:
            small = changed["corpus_settings"][1]
            earlier["corpus_factory"] = lambda: generate_python_corpus(small)
        run_mine_pipeline(out=out, keep_checkpoints=True, **earlier)
        assert out.read_bytes() != baseline_artifact

        messages = []
        result = run_mine_pipeline(
            out=out, resume=True, log=messages.append, **_PIPELINE_KWARGS
        )
        assert result.resumed_stages == []
        assert any("ignoring unusable checkpoint" in m for m in messages)
        assert out.read_bytes() == baseline_artifact

    def test_resume_without_checkpoints_runs_fresh(self, tmp_path, baseline_artifact):
        out = tmp_path / "namer.json"
        result = run_mine_pipeline(out=out, resume=True, **_PIPELINE_KWARGS)
        assert result.resumed_stages == []
        assert out.read_bytes() == baseline_artifact

    def test_final_artifact_loads(self, baseline_out):
        from repro.core.persistence import load_namer

        namer = load_namer(baseline_out)
        assert namer.matcher is not None and namer.matcher.patterns


# ----------------------------------------------------------------------
# Retry policy and circuit breaker
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_seeded_delays_are_reproducible(self):
        a = RetryPolicy(max_attempts=5, base_delay=0.1, seed=9).delays()
        b = RetryPolicy(max_attempts=5, base_delay=0.1, seed=9).delays()
        assert a == b and len(a) == 4

    def test_delays_grow_and_cap(self):
        delays = RetryPolicy(
            max_attempts=8, base_delay=1.0, multiplier=2.0,
            max_delay=5.0, jitter=0.0,
        ).delays()
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0, 5.0, 5.0]

    def test_jitter_stays_within_band(self):
        for delay, raw in zip(
            RetryPolicy(max_attempts=6, base_delay=1.0, jitter=0.5,
                        max_delay=100.0, seed=1).delays(),
            [1.0, 2.0, 4.0, 8.0, 16.0],
        ):
            assert raw * 0.5 <= delay <= raw


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow() and breaker.state == breaker.CLOSED
        breaker.record_failure()
        assert not breaker.allow() and breaker.state == breaker.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow() and breaker.state == breaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == breaker.CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10, clock=clock)
        breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == breaker.OPEN and breaker.opens == 2
        assert not breaker.allow()


# ----------------------------------------------------------------------
# Degraded-mode serving and client retries (end to end)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def healthy_artifact(fitted_namer, tmp_path_factory):
    path = tmp_path_factory.mktemp("resilience") / "namer.json"
    save_namer(fitted_namer, path)
    return path


def _corrupt_classifier_section(src, dst):
    """``dst`` names an artifact whose blob is ``src``'s with one byte
    of a classifier array flipped."""
    blobs.flip_array_byte(
        default_frozen_path(src), default_frozen_path(dst), "clf_scaler_mean"
    )


@pytest.mark.service
class TestDegradedServing:
    def test_corrupt_classifier_serves_pattern_only(
        self, healthy_artifact, tmp_path, small_corpus
    ):
        from repro.service.client import HttpClient
        from repro.service.engine import AnalysisEngine
        from repro.service.server import AnalysisServer

        broken = tmp_path / "broken.json"
        _corrupt_classifier_section(healthy_artifact, broken)
        engine = AnalysisEngine(artifact_path=str(broken), workers=1)
        server = AnalysisServer(engine, port=0).start()
        try:
            client = HttpClient(server.url, timeout=30)
            health = client.health()
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert health["degraded_reasons"]
            assert health["classifier"] is False
            # every analyze answers 200, flagged degraded, never a 500
            for _, source in list(small_corpus.files())[:3]:
                result = client.analyze(source.source, path=source.path)
                assert result["degraded"] is True
                assert result["error"] is None
            assert client.metrics()["degraded"] is True
        finally:
            server.stop(drain=False)

    def test_strict_engine_refuses_corrupt_artifact(
        self, healthy_artifact, tmp_path
    ):
        from repro.core.persistence import PersistenceError
        from repro.service.engine import AnalysisEngine

        broken = tmp_path / "broken.json"
        _corrupt_classifier_section(healthy_artifact, broken)
        with pytest.raises(PersistenceError):
            AnalysisEngine(artifact_path=str(broken), workers=1, degraded_ok=False)

    def test_reload_into_and_out_of_degraded(self, healthy_artifact, tmp_path):
        from repro.service.engine import AnalysisEngine

        broken = tmp_path / "broken.json"
        _corrupt_classifier_section(healthy_artifact, broken)
        engine = AnalysisEngine(artifact_path=str(healthy_artifact), workers=1)
        try:
            assert engine.degraded is False
            assert engine.reload(str(broken))["degraded"] is True
            assert engine.health()["status"] == "degraded"
            assert engine.reload(str(healthy_artifact))["degraded"] is False
            assert engine.health()["status"] == "ok"
        finally:
            engine.shutdown(drain=False)


@pytest.mark.service
class TestClientRetries:
    def test_transient_fault_is_retried_and_counted(self, healthy_artifact):
        from repro.service.client import HttpClient
        from repro.service.engine import AnalysisEngine
        from repro.service.server import AnalysisServer

        engine = AnalysisEngine(artifact_path=str(healthy_artifact), workers=1)
        server = AnalysisServer(engine, port=0).start()
        try:
            client = HttpClient(
                server.url,
                timeout=30,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01, seed=1),
            )
            plan = FaultPlan(
                [FaultSpec(site="client.request", match="/health", max_trips=1)]
            )
            with FAULTS.armed(plan):
                health = client.health()
            assert health["status"] in ("ok", "degraded")
            assert client.stats.retries == 1
            assert client.stats.attempts == 2
            # the server saw the retry via the X-Repro-Retry header
            assert client.metrics()["retried_requests"] >= 1
        finally:
            server.stop(drain=False)

    def test_retry_budget_exhausted_raises_last_error(self):
        from repro.service.client import HttpClient

        sleeps = []
        client = HttpClient(
            "http://example.invalid",
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, seed=1),
            sleep=sleeps.append,
        )
        plan = FaultPlan([FaultSpec(site="client.request")])
        with FAULTS.armed(plan):
            with pytest.raises(InjectedFault):
                client.health()
        assert client.stats.attempts == 3
        assert client.stats.retries == 2
        assert len(sleeps) == 2

    def test_circuit_opens_against_a_dead_server(self):
        from repro.service.client import HttpClient

        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60)
        client = HttpClient(
            "http://example.invalid",
            retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0),
            breaker=breaker,
            sleep=lambda _s: None,
        )
        plan = FaultPlan([FaultSpec(site="client.request")])
        with FAULTS.armed(plan):
            with pytest.raises(CircuitOpenError):
                client.health()
        assert breaker.state == breaker.OPEN
        assert client.stats.circuit_rejections == 1
        assert client.stats.attempts == 2  # breaker stopped the rest

    def test_load_paths_skips_undecodable_files(self, tmp_path, capsys):
        from repro.service.client import load_paths

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"\xff\xfe\x00junk")
        entries = load_paths([good, bad])
        assert [e["path"] for e in entries] == [str(good)]
        assert "cannot read" in capsys.readouterr().err

    def test_4xx_is_not_retried(self, healthy_artifact):
        from repro.service.client import HttpClient, ServiceError
        from repro.service.engine import AnalysisEngine
        from repro.service.server import AnalysisServer

        engine = AnalysisEngine(artifact_path=str(healthy_artifact), workers=1)
        server = AnalysisServer(engine, port=0).start()
        try:
            client = HttpClient(server.url, timeout=30)
            with pytest.raises(ServiceError) as exc:
                client._call("GET", "/nope")
            assert exc.value.status == 404
            assert client.stats.attempts == 1
            assert client.stats.retries == 0
        finally:
            server.stop(drain=False)


# ----------------------------------------------------------------------
# Engine quarantine surfacing
# ----------------------------------------------------------------------


@pytest.mark.service
class TestEngineQuarantine:
    def test_injected_prepare_fault_becomes_error_result(self, fitted_namer):
        from repro.service.engine import AnalysisEngine, AnalysisRequest

        engine = AnalysisEngine(namer=fitted_namer, workers=1)
        try:
            plan = FaultPlan([FaultSpec(site="engine.prepare", match="hit.py")])
            with FAULTS.armed(plan):
                results = engine.analyze_many(
                    [
                        AnalysisRequest(source="x = 1\n", path="hit.py"),
                        AnalysisRequest(source="y = 2\n", path="miss.py"),
                    ]
                )
            by_path = {r.path: r for r in results}
            assert by_path["hit.py"].error is not None
            assert by_path["miss.py"].error is None
            assert engine.metrics.quarantined_files >= 1
            assert engine.metrics_json()["quarantined_files"] >= 1
        finally:
            engine.shutdown(drain=False)
