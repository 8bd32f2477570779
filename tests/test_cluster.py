"""HA cluster tests: routing, failover, rollout, and live replicas.

Two layers:

* **Unit** — a :class:`FakeReplica` (a :class:`ReplicaHandle` with the
  process and network edges stubbed out) drives the coordinator's
  routing, ejection, restart, rollout, and aggregation logic without
  spawning anything.
* **End-to-end** — a real 2-replica cluster (each replica a
  ``python -m repro.service.replica`` subprocess) under the load
  harness: killing a replica mid-load loses zero requests, and a
  rolling reload under load serves byte-identical reports throughout.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import types

import pytest

from repro.core.persistence import save_namer
from repro.mining.frozen import default_frozen_path
from repro.resilience.retry import CircuitBreaker
from repro.evaluation.loadtest import (
    latency_percentile,
    reference_digests,
    run_load,
)
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.service.client import HttpClient, ServiceError
from repro.service.cluster import (
    DRAINING,
    EJECTED,
    READY,
    STARTING,
    ClusterCoordinator,
    ClusterUnavailable,
    ReplicaHandle,
    RolloutInProgress,
    rendezvous_order,
)
from repro.service.cluster_http import serve_cluster

pytestmark = pytest.mark.cluster


# ----------------------------------------------------------------------
# unit layer: the coordinator against fake replica handles
# ----------------------------------------------------------------------


class FakeReplica(ReplicaHandle):
    """A handle whose process/network edges are in-memory stubs; the
    state machine, locks, and counters are the real thing."""

    def __init__(self, name: str, artifact: str = "/art/v1.json") -> None:
        super().__init__(name, artifact, runtime_dir="/nonexistent")
        self.state = READY
        self.client = types.SimpleNamespace(last_headers={})
        self.probe_ok = True
        self.fail_forward = False
        self.bad_artifacts: set[str] = set()
        self.reload_calls: list[str] = []
        self.forwarded: list[dict] = []
        self.metrics_doc = {
            "requests_total": 3,
            "files_analyzed": 5,
            "errors": 1,
            "violations_reported": 2,
        }
        self.unreachable_metrics = False
        self._alive = True

    def spawn(self) -> None:
        self._alive = True
        with self._lock:
            self.state = STARTING
            self.consecutive_failures = 0

    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        self._alive = False

    def terminate(self, timeout: float = 10.0) -> None:
        self._alive = False

    def wait_ready(self, timeout, stop=None) -> bool:
        return self.probe_ok

    def probe_ready(self) -> bool:
        return self.probe_ok

    def forward_analyze(self, payload: dict) -> dict:
        self.forwarded.append(payload)
        if self.fail_forward:
            raise ServiceError(503, "injected backpressure")
        if "files" in payload:
            # A batch answers one row per file, as a real replica does.
            return {"results": [self._row(f) for f in payload["files"]]}
        return self._row(payload)

    def _row(self, entry: dict) -> dict:
        return {"path": entry.get("path"), "reports": [], "served_by": self.name}

    def reload(self, artifact_path: str) -> dict:
        self.reload_calls.append(artifact_path)
        if artifact_path in self.bad_artifacts:
            raise ServiceError(500, f"corrupt artifact {artifact_path}")
        return {"artifacts": artifact_path, "degraded": False}

    def fetch_metrics(self) -> dict:
        if self.unreachable_metrics:
            raise ServiceError(0, "connection refused")
        return dict(self.metrics_doc)


def make_cluster(n: int = 3, **kwargs) -> tuple[ClusterCoordinator, list[FakeReplica]]:
    handles = [FakeReplica(f"replica-{i}") for i in range(n)]
    coordinator = ClusterCoordinator(
        artifact_path="/art/v1.json", handles=handles, **kwargs
    )
    return coordinator, handles


class TestRendezvousRouting:
    def test_order_is_deterministic(self):
        names = [f"replica-{i}" for i in range(5)]
        for key in ("a", "b", "c", "0123"):
            assert rendezvous_order(key, names) == rendezvous_order(key, names)

    def test_orders_differ_across_keys(self):
        names = [f"replica-{i}" for i in range(5)]
        orders = {tuple(rendezvous_order(f"key-{i}", names)) for i in range(32)}
        assert len(orders) > 1

    def test_removing_a_name_preserves_relative_order(self):
        # The HRW property: dropping one replica never reshuffles the
        # others, so an ejection only remaps the keys it owned.
        names = [f"replica-{i}" for i in range(5)]
        for i in range(20):
            key = f"key-{i}"
            full = rendezvous_order(key, names)
            without = rendezvous_order(key, names[1:])
            assert [n for n in full if n != "replica-0"] == without

    def test_same_payload_routes_to_same_replica(self):
        coordinator, _ = make_cluster(3)
        payload = {"source": "x = 1", "path": "a.py"}
        first, headers1 = coordinator.analyze_payload(payload)
        _, headers2 = coordinator.analyze_payload(payload)
        assert headers1["X-Repro-Replica"] == headers2["X-Repro-Replica"]
        assert first["served_by"] == headers1["X-Repro-Replica"]
        assert coordinator.routed_requests == 2

    def test_route_order_covers_every_replica(self):
        coordinator, handles = make_cluster(3)
        order = coordinator.route_order(coordinator.request_key({"a": 1}))
        assert sorted(h.name for h in order) == sorted(h.name for h in handles)


class TestFailover:
    def test_failing_first_choice_fails_over(self):
        coordinator, handles = make_cluster(3)
        payload = {"source": "y = 2", "path": "b.py"}
        first = coordinator.route_order(coordinator.request_key(payload))[0]
        first.fail_forward = True
        body, headers = coordinator.analyze_payload(payload)
        assert headers["X-Repro-Replica"] != first.name
        assert body["served_by"] != first.name
        assert coordinator.failovers >= 1
        assert first.consecutive_failures == 1

    def test_non_transient_errors_pass_through(self):
        coordinator, handles = make_cluster(2)

        def bad_request(payload):
            raise ServiceError(400, "no source")

        for handle in handles:
            handle.forward_analyze = bad_request
        with pytest.raises(ServiceError) as excinfo:
            coordinator.analyze_payload({"path": "x.py"})
        assert excinfo.value.status == 400
        assert coordinator.failovers == 0

    def test_unroutable_cluster_raises_unavailable(self):
        coordinator, handles = make_cluster(2, failover_deadline=0.3)
        for handle in handles:
            handle.state = EJECTED
        with pytest.raises(ClusterUnavailable):
            coordinator.analyze_payload({"source": "z", "path": "c.py"})
        assert coordinator.unavailable_errors == 1

    def test_ejection_after_consecutive_failures_and_readmission(self):
        coordinator, handles = make_cluster(1, eject_after=3)
        handle = handles[0]
        assert not handle.record_failure(3)
        assert not handle.record_failure(3)
        assert handle.record_failure(3)  # third strike ejects
        assert handle.state == EJECTED
        assert handle.ejections == 1
        assert not handle.routable
        assert handle.record_success()  # a good probe re-admits
        assert handle.state == READY
        assert handle.readmissions == 1

    def test_monitor_tick_restarts_dead_replica(self):
        coordinator, handles = make_cluster(1, restart_backoff=0.01)
        handle = handles[0]
        handle.kill()
        coordinator._monitor_tick(handle)
        assert handle.restarts == 1
        assert handle.state == READY  # wait_ready + record_success
        assert handle.restart_streak == 0

    def test_injected_replica_crash_site(self):
        coordinator, handles = make_cluster(1, restart_backoff=0.01)
        handle = handles[0]
        plan = FaultPlan(
            [FaultSpec(site="cluster.replica_crash", match=handle.name, max_trips=1)],
            seed=3,
        )
        with FAULTS.armed(plan):
            coordinator._monitor_tick(handle)
        assert handle.injected_crashes == 1
        assert handle.restarts == 1  # killed, then restarted in the same tick


class TestRollingRollout:
    def test_complete_rollout_upgrades_every_replica(self):
        coordinator, handles = make_cluster(3)
        record = coordinator.rolling_reload("/art/v2.json")
        assert record["status"] == "complete"
        assert [s["replica"] for s in record["steps"]] == [h.name for h in handles]
        assert all(s["reloaded"] for s in record["steps"])
        assert all(h.artifact_path == "/art/v2.json" for h in handles)
        assert all(h.state == READY for h in handles)
        assert coordinator.artifact_path == "/art/v2.json"
        assert coordinator.rollouts_completed == 1
        assert coordinator.rollout["phase"] == "complete"

    def test_bad_artifact_halts_and_rolls_back(self):
        coordinator, handles = make_cluster(3)
        handles[1].bad_artifacts.add("/art/v2.json")
        record = coordinator.rolling_reload("/art/v2.json")
        assert record["status"] == "rolled_back"
        assert record["failed_replica"] == "replica-1"
        # replica-2 was never touched with the new artifact.
        assert handles[2].reload_calls == []
        # replica-0 (already upgraded) and replica-1 went back to v1.
        assert handles[0].reload_calls == ["/art/v2.json", "/art/v1.json"]
        assert handles[1].reload_calls[-1] == "/art/v1.json"
        assert all(h.artifact_path == "/art/v1.json" for h in handles)
        assert all(h.state == READY for h in handles)
        assert coordinator.artifact_path == "/art/v1.json"
        assert coordinator.rollbacks == 1
        assert coordinator.rollouts_completed == 0

    def test_injected_bad_artifact_site(self):
        coordinator, handles = make_cluster(2)
        plan = FaultPlan(
            [FaultSpec(site="cluster.bad_artifact", match="poisoned")], seed=1
        )
        with FAULTS.armed(plan):
            record = coordinator.rolling_reload("/art/poisoned.json")
        assert record["status"] == "rolled_back"
        # The injected fault fires before the replica is even asked.
        assert handles[0].reload_calls == ["/art/v1.json"]
        assert coordinator.artifact_path == "/art/v1.json"

    def test_injected_slow_drain_exceeds_deadline_but_proceeds(self):
        coordinator, handles = make_cluster(2, drain_deadline=0.2)
        plan = FaultPlan(
            [FaultSpec(site="cluster.slow_drain", match="replica-0")], seed=1
        )
        with FAULTS.armed(plan):
            record = coordinator.rolling_reload("/art/v2.json")
        assert record["status"] == "complete"
        step0 = record["steps"][0]
        assert step0["drain_fault"] and step0["drained"] is False
        assert record["steps"][1]["drained"] is True

    def test_concurrent_rollout_rejected(self):
        coordinator, _ = make_cluster(2)
        acquired = coordinator._rollout_lock.acquire(blocking=False)
        assert acquired
        try:
            with pytest.raises(RolloutInProgress):
                coordinator.rolling_reload("/art/v2.json")
        finally:
            coordinator._rollout_lock.release()
        assert coordinator.rolling_reload("/art/v2.json")["status"] == "complete"

    def test_draining_replica_is_not_routable(self):
        coordinator, handles = make_cluster(2)
        payload = {"source": "q = 3", "path": "d.py"}
        owner = coordinator.route_order(coordinator.request_key(payload))[0]
        owner.set_state(DRAINING)
        _, headers = coordinator.analyze_payload(payload)
        assert headers["X-Repro-Replica"] != owner.name


class TestAggregation:
    def test_metrics_sums_replica_counters(self):
        coordinator, handles = make_cluster(3)
        handles[2].unreachable_metrics = True
        document = coordinator.metrics()
        assert document["cluster"]["replicas"] == 3
        assert document["totals"]["requests_total"] == 6  # two reachable x 3
        assert document["totals"]["violations_reported"] == 4
        assert "unreachable" in document["replicas"]["replica-2"]
        assert document["replicas"]["replica-0"]["requests_total"] == 3

    def test_status_document_shape(self):
        coordinator, handles = make_cluster(2)
        coordinator.analyze_payload({"source": "s = 1", "path": "e.py"})
        status = coordinator.status()
        assert status["routing"] == "rendezvous-sha256"
        assert status["ready"] is True
        assert status["counters"]["routed_requests"] == 1
        assert {r["name"] for r in status["replicas"]} == {
            "replica-0", "replica-1",
        }
        assert sum(r["routed"] for r in status["replicas"]) == 1

    def test_health_reflects_routability(self):
        coordinator, handles = make_cluster(2)
        assert coordinator.health()["ready"] is True
        for handle in handles:
            handle.state = EJECTED
        health = coordinator.health()
        assert health["ready"] is False and health["status"] == "unavailable"

    def test_latency_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert latency_percentile(samples, 50) == pytest.approx(50.0, abs=1.0)
        assert latency_percentile(samples, 99) == pytest.approx(99.0, abs=1.0)
        assert latency_percentile([], 50) == 0.0


# ----------------------------------------------------------------------
# end-to-end layer: real replica subprocesses
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifact_file(fitted_namer, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "namer.json"
    save_namer(fitted_namer, path)
    return path


@pytest.fixture(scope="module")
def payloads(small_corpus):
    out = []
    for repo, source in small_corpus.files():
        out.append({"source": source.source, "path": source.path})
        if len(out) == 4:
            break
    return out


@pytest.fixture(scope="module")
def cluster(artifact_file):
    server = serve_cluster(
        str(artifact_file), port=0, replicas=2, replica_workers=2
    )
    yield server
    server.stop()


@pytest.fixture(scope="module")
def reference(artifact_file, payloads):
    from repro.service.engine import AnalysisEngine

    engine = AnalysisEngine(
        artifact_path=str(artifact_file), workers=1, cache_entries=8
    )
    try:
        return reference_digests(engine, payloads)
    finally:
        engine.shutdown(drain=False)


class TestClusterEndToEnd:
    def test_cluster_comes_up_ready(self, cluster):
        client = HttpClient(cluster.url)
        health = client.health(ready=True)
        assert health["ready"] is True
        status = client.request("GET", "/cluster/status")
        assert [r["state"] for r in status["replicas"]] == [READY, READY]
        # The coordinator's readiness probe pulled each replica's own
        # cold-start numbers onto its handle.
        for replica in status["replicas"]:
            assert replica["artifact_source"] == "frozen", replica
            assert replica["startup_seconds"] is not None, replica
            assert replica["artifact_load_seconds"] is not None, replica

    def test_stable_routing_and_cache_affinity(self, cluster, payloads):
        client = HttpClient(cluster.url)
        client.request("POST", "/analyze", payloads[0])
        owner = client.last_headers.get("X-Repro-Replica")
        assert owner
        for _ in range(3):
            client.request("POST", "/analyze", payloads[0])
            assert client.last_headers.get("X-Repro-Replica") == owner
        # The owning replica's result cache answers the repeats.
        assert "memory=1" in client.last_headers.get("X-Repro-Cache", "")
        # Different files spread over the replicas.
        owners = set()
        for payload in payloads:
            client.request("POST", "/analyze", payload)
            owners.add(client.last_headers.get("X-Repro-Replica"))
        assert len(owners) >= 2, owners

    def test_kill_replica_under_load_loses_nothing(
        self, cluster, payloads, reference
    ):
        coordinator = cluster.coordinator
        victim = coordinator.handles[0]
        result = run_load(
            cluster.url,
            payloads,
            clients=4,
            total_requests=60,
            mid_run=(0.3, victim.kill),
        )
        assert result.failures == [], [s.error for s in result.failures]
        assert result.requests == 60
        for index, digests in result.digests_by_payload().items():
            assert digests == {reference[index]}, f"payload {index} diverged"
        # The monitor notices the corpse and brings it back.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not victim.routable:
            time.sleep(0.2)
        assert victim.routable and victim.restarts >= 1

    def test_rolling_reload_under_load_is_invisible(
        self, cluster, payloads, reference, artifact_file, tmp_path_factory
    ):
        new_artifact = tmp_path_factory.mktemp("rollout") / "namer-v2.json"
        new_artifact.write_bytes(artifact_file.read_bytes())
        blob = default_frozen_path(artifact_file).read_bytes()
        default_frozen_path(new_artifact).write_bytes(blob)
        rollout_client = HttpClient(cluster.url, timeout=300.0)
        outcome: dict = {}

        def start_rollout():
            outcome.update(
                rollout_client.request(
                    "POST", "/reload", {"artifacts": str(new_artifact)}
                )
            )

        result = run_load(
            cluster.url,
            payloads,
            clients=4,
            total_requests=80,
            mid_run=(0.2, start_rollout),
        )
        assert result.failures == [], [s.error for s in result.failures]
        for index, digests in result.digests_by_payload().items():
            assert digests == {reference[index]}, f"payload {index} diverged"
        assert outcome["status"] == "complete"
        status = HttpClient(cluster.url).request("GET", "/cluster/status")
        assert status["artifact"] == str(new_artifact)
        assert all(r["artifacts"] == str(new_artifact) for r in status["replicas"])

    def test_rollout_of_bad_artifact_rolls_back(
        self, cluster, artifact_file, tmp_path_factory
    ):
        # A blob cut short, beside an intact JSON export.
        bad = tmp_path_factory.mktemp("rollout") / "bad.json"
        bad.write_bytes(artifact_file.read_bytes())
        blob = default_frozen_path(artifact_file).read_bytes()
        default_frozen_path(bad).write_bytes(blob[: len(blob) // 2])
        before = HttpClient(cluster.url).request("GET", "/cluster/status")
        record = HttpClient(cluster.url, timeout=300.0).request(
            "POST", "/reload", {"artifacts": str(bad)}
        )
        assert record["status"] == "rolled_back"
        after = HttpClient(cluster.url).request("GET", "/cluster/status")
        assert after["artifact"] == before["artifact"]
        assert HttpClient(cluster.url).health(ready=True)["ready"] is True

    def test_cluster_metrics_aggregate_replica_traffic(self, cluster, payloads):
        client = HttpClient(cluster.url)
        client.request("POST", "/analyze", payloads[1])
        metrics = client.request("GET", "/metrics")
        assert metrics["cluster"]["routed_requests"] >= 1
        assert metrics["totals"]["requests_total"] >= 1
        assert set(metrics["replicas"]) == {"replica-0", "replica-1"}
        assert "p95_ms" in metrics["cluster"]["latency"]


class TestReplicaProcess:
    """The replica runner on its own: readiness split + graceful drain."""

    def _spawn(self, artifact_file, tmp_path, fault_plan=None):
        port_file = tmp_path / "replica.port"
        cmd = [
            sys.executable, "-m", "repro.service.replica",
            "--artifacts", str(artifact_file),
            "--port", "0", "--port-file", str(port_file),
            "--workers", "2",
        ]
        if fault_plan is not None:
            plan_path = tmp_path / "plan.json"
            plan_path.write_text(json.dumps(fault_plan.to_json()))
            cmd += ["--fault-plan", str(plan_path)]
        import pathlib

        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
        )
        return process, port_file

    def _wait_port(self, process, port_file, timeout=120.0):
        from repro.service.replica import read_port_file

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert process.poll() is None, "replica died during startup"
            port = read_port_file(port_file)
            if port is not None:
                return port
            time.sleep(0.05)
        raise AssertionError("replica never wrote its port file")

    def test_liveness_before_readiness(self, artifact_file, tmp_path):
        # A delayed artifact load keeps the replica warming while its
        # HTTP listener is already up: alive yes, ready no.
        plan = FaultPlan(
            [FaultSpec(site="engine.load", delay=2.0, raises=None)], seed=1
        )
        process, port_file = self._spawn(artifact_file, tmp_path, fault_plan=plan)
        try:
            port = self._wait_port(process, port_file)
            # A polling client: warming 503s must not open its breaker.
            client = HttpClient(
                f"http://127.0.0.1:{port}", timeout=10.0,
                breaker=CircuitBreaker(failure_threshold=1_000_000_000),
            )
            alive = client.health()
            assert alive["status"] in ("warming", "ok", "degraded")
            saw_warming = False
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if client.health(ready=True)["ready"]:
                        break
                except ServiceError as exc:
                    assert exc.status == 503
                    saw_warming = True
                time.sleep(0.1)
            else:
                raise AssertionError("replica never became ready")
            assert saw_warming, "readiness probe never answered 503 while warming"
        finally:
            process.kill()
            process.wait(10)

    def test_sigterm_drains_in_flight_request(self, artifact_file, tmp_path):
        # Every analyze sleeps 1.5s (delay-only fault), so a request is
        # reliably in flight when SIGTERM lands; the replica must finish
        # it before exiting.
        plan = FaultPlan(
            [FaultSpec(site="engine.prepare", delay=1.5, raises=None)], seed=1
        )
        process, port_file = self._spawn(artifact_file, tmp_path, fault_plan=plan)
        try:
            port = self._wait_port(process, port_file)
            url = f"http://127.0.0.1:{port}"
            ready_client = HttpClient(
                url, timeout=10.0,
                breaker=CircuitBreaker(failure_threshold=1_000_000_000),
            )
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if ready_client.health(ready=True)["ready"]:
                        break
                except ServiceError:
                    pass
                time.sleep(0.1)
            outcome: dict = {}

            def slow_request():
                client = HttpClient(url, timeout=30.0)
                try:
                    outcome["body"] = client.analyze("x = 1", path="slow.py")
                except ServiceError as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.5)  # the request is now sleeping inside analyze
            process.send_signal(signal.SIGTERM)
            thread.join(timeout=30)
            assert not thread.is_alive(), "in-flight request never completed"
            assert "error" not in outcome, f"dropped in-flight: {outcome.get('error')}"
            assert outcome["body"]["path"] == "slow.py"
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10)
