"""Multi-replica HA serving tier: coordinator + replica processes.

One :class:`AnalysisServer` is a single point of failure: a crash takes
the service down and ``/reload`` is a brief outage window.  This module
turns the daemon into a small cluster, in the style of OpenStack
Congress's DSE: a **coordinator** process owns N replica subprocesses
(each ``python -m repro.service.replica``, a full engine + HTTP server
on its own port) and fronts them with one HTTP endpoint.

* **Routing.**  ``/analyze`` bodies are routed by *content hash* using
  rendezvous (highest-random-weight) hashing over the replica set, so
  the same request always lands on the same replica — its result cache
  stays hot — and losing a replica remaps only the keys it owned.
* **Health.**  A monitor thread per replica probes ``/health?ready=1``
  through the circuit-breaker :class:`HttpClient`.  ``eject_after``
  consecutive failures eject a replica from routing; a later successful
  probe re-admits it.  Dead processes are restarted with exponential
  backoff, and a request already bound for a failing replica fails over
  to the next replica in its rendezvous order.
* **Rolling reload.**  ``/reload`` on the coordinator upgrades one
  replica at a time: stop routing to it, wait for its in-flight
  requests (bounded by a drain deadline), reload, verify readiness,
  re-admit, then move on.  A bad artifact halts the rollout at the
  first replica that rejects it — every replica already upgraded is
  rolled back to the prior artifact, so the cluster stays entirely on
  the old version.  New artifacts therefore ship with zero downtime.
* **Observability.**  ``/cluster/status`` reports per-replica state,
  restart/ejection counters, and the rollout phase; ``/metrics``
  aggregates every replica's metrics document under the coordinator's
  own routing/latency counters.

Fault-injection sites (deterministic via :class:`FaultPlan`):
``cluster.replica_crash`` (keyed by replica name; kills the replica
process), ``cluster.slow_drain`` (keyed by replica name; a delay spec
stretches the drain window past its deadline), and
``cluster.bad_artifact`` (keyed by artifact path; fails the reload as a
poisoned artifact would).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.resilience.faults import InjectedFault, fault_check
from repro.resilience.retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.service.client import HttpClient, ServiceError
from repro.service.metrics import LatencyWindow
from repro.service.replica import read_port_file

__all__ = [
    "ClusterError",
    "ClusterUnavailable",
    "RolloutInProgress",
    "ReplicaHandle",
    "ClusterCoordinator",
    "rendezvous_order",
]

#: Replica lifecycle states (strings so they serialize as-is).
STARTING = "starting"   # process spawned, not yet ready
READY = "ready"         # routable
DRAINING = "draining"   # rollout owns it: no new routes, finishing in-flight
EJECTED = "ejected"     # alive but failing probes; not routable
DOWN = "down"           # process dead; restart machinery engaged


class ClusterError(RuntimeError):
    """A cluster-level operational failure."""


class ClusterUnavailable(ClusterError):
    """No routable replica answered within the failover deadline
    (surfaced as HTTP 503 with ``retry: true``)."""


class RolloutInProgress(ClusterError):
    """A rolling reload is already running (HTTP 409 upstream)."""

    def __init__(self) -> None:
        super().__init__("a rolling reload is already in progress")


def rendezvous_order(key: str, names: list[str]) -> list[str]:
    """Replica names by descending rendezvous weight for ``key``.

    Highest-random-weight hashing: each (key, name) pair gets a stable
    score; the max wins.  Removing one name never reshuffles the
    relative order of the others, so ejections only move the keys the
    ejected replica owned — every other replica's cache stays hot.
    """
    def score(name: str) -> int:
        digest = hashlib.sha256(f"{key}|{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    return sorted(names, key=score, reverse=True)


def _replica_env() -> dict:
    """The spawn environment: inherit, but make sure the repro package
    the coordinator runs from is importable in the child."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    parts = env.get("PYTHONPATH", "")
    if src not in parts.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + parts if parts else "")
    return env


class ReplicaHandle:
    """One replica subprocess: process management, clients, counters.

    Three clients with different failure policies talk to the replica:
    the **forwarding** client fails fast (one attempt, no breaker — the
    coordinator's failover loop is the retry), the **probe** client
    carries the circuit breaker (repeated failures fail fast until the
    cooldown's half-open probe), and the **control** client gives
    ``/reload`` a long deadline.
    """

    def __init__(
        self,
        name: str,
        artifact_path: str,
        runtime_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        workers: int = 2,
        detect_workers: int = 1,
        queue_capacity: int = 64,
        cache_entries: int = 1024,
        cache_dir: str | None = None,
        strict_artifacts: bool = False,
        fault_plan_path: str | None = None,
        request_timeout: float = 60.0,
        probe_timeout: float = 3.0,
        probe_breaker: CircuitBreaker | None = None,
    ) -> None:
        self.name = name
        self.artifact_path = artifact_path
        self.runtime_dir = Path(runtime_dir)
        self.host = host
        self.workers = workers
        self.detect_workers = detect_workers
        self.queue_capacity = queue_capacity
        self.cache_entries = cache_entries
        self.cache_dir = cache_dir
        self.strict_artifacts = strict_artifacts
        self.fault_plan_path = fault_plan_path
        self.request_timeout = request_timeout
        self.probe_timeout = probe_timeout
        self._probe_breaker = probe_breaker

        self.state = DOWN
        #: cold-start observability: coordinator-side spawn-to-ready
        #: plus the replica's own reported load timings (refreshed from
        #: its /metrics after each readiness transition)
        self.spawned_at: float | None = None
        self.spawn_to_ready_seconds: float | None = None
        self.startup_seconds: float | None = None
        self.artifact_load_seconds: float | None = None
        self.artifact_source: str | None = None
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.client: HttpClient | None = None
        self.probe: HttpClient | None = None
        self.control: HttpClient | None = None

        self.restarts = 0
        self.restart_streak = 0
        self.ejections = 0
        self.readmissions = 0
        self.consecutive_failures = 0
        self.injected_crashes = 0
        self.routed = 0

        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self.in_flight = 0

    # -- process management --------------------------------------------

    @property
    def port_file(self) -> Path:
        return self.runtime_dir / f"{self.name}.port"

    def command(self) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro.service.replica",
            "--artifacts", self.artifact_path,
            "--host", self.host,
            "--port", "0",
            "--port-file", str(self.port_file),
            "--workers", str(self.workers),
            "--detect-workers", str(self.detect_workers),
            "--queue-capacity", str(self.queue_capacity),
            "--cache-size", str(self.cache_entries),
        ]
        if self.cache_dir:
            cmd += ["--cache-dir", self.cache_dir]
        if self.strict_artifacts:
            cmd.append("--strict-artifacts")
        if self.fault_plan_path:
            cmd += ["--fault-plan", self.fault_plan_path]
        return cmd

    def spawn(self) -> None:
        """Start (or restart) the replica process; readiness comes later."""
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        try:
            self.port_file.unlink()
        except OSError:
            pass
        self.port = None
        self.client = self.probe = self.control = None
        self.spawned_at = time.monotonic()
        self.spawn_to_ready_seconds = None
        self.startup_seconds = None
        self.artifact_load_seconds = None
        self.artifact_source = None
        log = open(self.runtime_dir / f"{self.name}.log", "ab")
        try:
            self.process = subprocess.Popen(
                self.command(), env=_replica_env(),
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        with self._lock:
            self.state = STARTING
            self.consecutive_failures = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        if self.process is not None:
            self.process.kill()

    def terminate(self, timeout: float = 10.0) -> None:
        """Graceful stop: SIGTERM (the replica drains), then SIGKILL."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(5)
        with self._lock:
            self.state = DOWN

    def wait_ready(
        self, timeout: float, stop: threading.Event | None = None
    ) -> bool:
        """Poll the port file, then the readiness probe, until ``timeout``.
        Leaves the handle's clients built on success."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if stop is not None and stop.is_set():
                return False
            if not self.alive():
                return False
            if self.port is None:
                port = read_port_file(self.port_file)
                if port is not None:
                    self.port = port
                    self._build_clients()
            if self.port is not None and self.probe_ready():
                if self.spawned_at is not None:
                    self.spawn_to_ready_seconds = (
                        time.monotonic() - self.spawned_at
                    )
                self.refresh_load_stats()
                return True
            time.sleep(0.05)
        return False

    def refresh_load_stats(self) -> None:
        """Best-effort pull of the replica's own cold-start numbers
        (``startup_seconds`` etc. from its /metrics) onto the handle, so
        ``cluster-status`` can report them without another round trip."""
        try:
            document = self.fetch_metrics()
        except (ServiceError, CircuitOpenError):
            return
        self.startup_seconds = document.get("startup_seconds")
        self.artifact_load_seconds = document.get("artifact_load_seconds")
        self.artifact_source = document.get("artifact_source")

    def _build_clients(self) -> None:
        base = f"http://{self.host}:{self.port}"
        one_shot = RetryPolicy(max_attempts=1)
        # Forwarding must fail fast so the coordinator can fail over;
        # an effectively-disabled breaker keeps that decision in one
        # place (the coordinator's ejection machinery).
        self.client = HttpClient(
            base, timeout=self.request_timeout, retry=one_shot,
            breaker=CircuitBreaker(failure_threshold=1_000_000_000),
        )
        self.probe = HttpClient(
            base, timeout=self.probe_timeout, retry=one_shot,
            breaker=self._probe_breaker or CircuitBreaker(
                failure_threshold=5, reset_timeout=1.0
            ),
        )
        self.control = HttpClient(
            base, timeout=max(120.0, self.request_timeout), retry=one_shot,
            breaker=CircuitBreaker(failure_threshold=1_000_000_000),
        )

    # -- health & routing ----------------------------------------------

    @property
    def routable(self) -> bool:
        return self.state == READY and self.client is not None

    def probe_ready(self) -> bool:
        """One readiness probe through the circuit-breaker client."""
        if self.probe is None:
            return False
        try:
            self.probe.health(ready=True)
            return True
        except (ServiceError, CircuitOpenError):
            return False

    def record_success(self) -> bool:
        """A good probe: reset the failure streak; re-admit an ejected
        or still-starting replica.  Returns True when it re-admitted."""
        with self._lock:
            self.consecutive_failures = 0
            if self.state in (EJECTED, STARTING):
                readmitted = self.state == EJECTED
                self.state = READY
                if readmitted:
                    self.readmissions += 1
                return readmitted
        return False

    def record_failure(self, eject_after: int) -> bool:
        """A failed probe or forward: bump the streak; eject past the
        threshold.  Returns True when this call ejected the replica."""
        with self._lock:
            self.consecutive_failures += 1
            if self.state == READY and self.consecutive_failures >= eject_after:
                self.state = EJECTED
                self.ejections += 1
                return True
        return False

    def set_state(self, state: str) -> None:
        with self._lock:
            self.state = state

    # -- in-flight accounting (drain) ----------------------------------

    def begin_request(self) -> None:
        with self._lock:
            self.in_flight += 1

    def end_request(self) -> None:
        with self._drained:
            self.in_flight -= 1
            self._drained.notify_all()

    def wait_drained(self, timeout: float) -> bool:
        """Block until no request is in flight on this replica, or the
        drain deadline passes (False: the rollout proceeds anyway and
        stragglers fail over)."""
        deadline = time.monotonic() + timeout
        with self._drained:
            while self.in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._drained.wait(remaining)
        return True

    # -- control -------------------------------------------------------

    def forward_analyze(self, payload: dict) -> dict:
        if self.client is None:
            raise ServiceError(0, f"{self.name} has no bound port yet")
        return self.client.request("POST", "/analyze", payload)

    def reload(self, artifact_path: str) -> dict:
        if self.control is None:
            raise ServiceError(0, f"{self.name} has no bound port yet")
        return self.control.request(
            "POST", "/reload", {"artifacts": artifact_path}
        )

    def fetch_metrics(self) -> dict:
        if self.probe is None:
            raise ServiceError(0, f"{self.name} has no bound port yet")
        return self.probe.request("GET", "/metrics")

    def status_json(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "state": self.state,
                "port": self.port,
                "pid": self.process.pid if self.process is not None else None,
                "alive": self.alive(),
                "artifacts": self.artifact_path,
                "in_flight": self.in_flight,
                "routed": self.routed,
                "restarts": self.restarts,
                "ejections": self.ejections,
                "readmissions": self.readmissions,
                "consecutive_failures": self.consecutive_failures,
                "injected_crashes": self.injected_crashes,
                "spawn_to_ready_seconds": self.spawn_to_ready_seconds,
                "startup_seconds": self.startup_seconds,
                "artifact_load_seconds": self.artifact_load_seconds,
                "artifact_source": self.artifact_source,
            }


class ClusterCoordinator:
    """Owns N replica handles: routing, health, restarts, rollouts."""

    def __init__(
        self,
        artifact_path: str | None = None,
        replicas: int = 3,
        *,
        host: str = "127.0.0.1",
        runtime_dir: str | None = None,
        health_interval: float = 0.25,
        eject_after: int = 3,
        drain_deadline: float = 10.0,
        verify_deadline: float = 30.0,
        restart_backoff: float = 0.25,
        restart_backoff_max: float = 5.0,
        start_timeout: float = 120.0,
        failover_deadline: float = 20.0,
        replica_workers: int = 2,
        detect_workers: int = 1,
        queue_capacity: int = 64,
        cache_entries: int = 1024,
        strict_artifacts: bool = False,
        fault_plan_path: str | None = None,
        handles: list[ReplicaHandle] | None = None,
    ) -> None:
        self.artifact_path = artifact_path
        self.health_interval = health_interval
        self.eject_after = eject_after
        self.drain_deadline = drain_deadline
        self.verify_deadline = verify_deadline
        self.restart_backoff = restart_backoff
        self.restart_backoff_max = restart_backoff_max
        self.start_timeout = start_timeout
        self.failover_deadline = failover_deadline

        if handles is not None:
            self.handles = list(handles)
        else:
            if artifact_path is None:
                raise ValueError("ClusterCoordinator needs an artifact_path")
            self.runtime_dir = runtime_dir or tempfile.mkdtemp(prefix="repro-cluster-")
            self.handles = [
                ReplicaHandle(
                    f"replica-{i}", artifact_path, self.runtime_dir,
                    host=host, workers=replica_workers,
                    detect_workers=detect_workers,
                    queue_capacity=queue_capacity,
                    cache_entries=cache_entries,
                    strict_artifacts=strict_artifacts,
                    fault_plan_path=fault_plan_path,
                )
                for i in range(max(1, replicas))
            ]

        self.latency = LatencyWindow()
        self._counter_lock = threading.Lock()
        self.routed_requests = 0
        self.failovers = 0
        self.unavailable_errors = 0
        self.rollouts_completed = 0
        self.rollbacks = 0

        self._stop = threading.Event()
        self._monitors: list[threading.Thread] = []
        self._rollout_lock = threading.Lock()
        self._rollout_state_lock = threading.Lock()
        self._rollout = {"phase": "idle", "artifact": None, "replica": None}

    # -- lifecycle -----------------------------------------------------

    def start(self, wait_ready: bool = True) -> "ClusterCoordinator":
        """Spawn every replica, optionally block until all are ready,
        then start the per-replica health monitors."""
        for handle in self.handles:
            handle.spawn()
        if wait_ready:
            for handle in self.handles:
                if not handle.wait_ready(self.start_timeout, stop=self._stop):
                    self.stop()
                    raise ClusterError(
                        f"{handle.name} did not become ready within "
                        f"{self.start_timeout}s (see {handle.runtime_dir})"
                    )
                handle.record_success()
        for handle in self.handles:
            thread = threading.Thread(
                target=self._monitor_loop, args=(handle,),
                name=f"repro-monitor-{handle.name}", daemon=True,
            )
            self._monitors.append(thread)
            thread.start()
        return self

    def stop(self) -> None:
        """Stop monitoring, then gracefully terminate every replica
        (SIGTERM first so each drains its in-flight requests)."""
        self._stop.set()
        for thread in self._monitors:
            thread.join(timeout=10)
        self._monitors.clear()
        for handle in self.handles:
            handle.terminate()

    # -- health monitoring ---------------------------------------------

    def _monitor_loop(self, handle: ReplicaHandle) -> None:
        while not self._stop.wait(self.health_interval):
            try:
                self._monitor_tick(handle)
            except Exception:
                # The monitor must survive anything a probe throws;
                # the next tick tries again.
                continue

    def _monitor_tick(self, handle: ReplicaHandle) -> None:
        # Deterministic chaos: a seeded plan can kill a named replica.
        try:
            fault_check("cluster.replica_crash", key=handle.name)
        except InjectedFault:
            handle.injected_crashes += 1
            handle.kill()
        if not handle.alive():
            self._restart(handle)
            return
        if handle.state == DRAINING:
            return  # the rollout owns this replica right now
        if handle.probe_ready():
            handle.record_success()
        else:
            handle.record_failure(self.eject_after)

    def _restart(self, handle: ReplicaHandle) -> None:
        """Exponential-backoff restart of a dead replica process."""
        handle.set_state(DOWN)
        delay = min(
            self.restart_backoff_max,
            self.restart_backoff * (2 ** handle.restart_streak),
        )
        if self._stop.wait(delay):
            return
        handle.restart_streak += 1
        handle.restarts += 1
        handle.spawn()
        if handle.wait_ready(self.start_timeout, stop=self._stop):
            handle.restart_streak = 0
            handle.record_success()
        # else: still dead or slow; the next tick backs off further.

    # -- routing -------------------------------------------------------

    @staticmethod
    def request_key(payload: dict) -> str:
        """Content hash of the analyze body — the routing key."""
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def route_order(self, key: str) -> list[ReplicaHandle]:
        by_name = {handle.name: handle for handle in self.handles}
        return [
            by_name[name]
            for name in rendezvous_order(key, sorted(by_name))
        ]

    @property
    def ready(self) -> bool:
        return any(handle.routable for handle in self.handles)

    def analyze_payload(self, payload: dict) -> tuple[dict, dict[str, str]]:
        """Route one ``/analyze`` body to its replica, failing over to
        the next replica in rendezvous order on transient errors, and
        retrying the whole scan (bounded by ``failover_deadline``) when
        no replica is momentarily routable.  Returns (body, headers).
        """
        key = self.request_key(payload)
        deadline = time.monotonic() + self.failover_deadline
        started = time.perf_counter()
        last_error: Exception | None = None
        first_choice = True
        while True:
            for handle in self.route_order(key):
                if not handle.routable:
                    continue
                if not first_choice:
                    with self._counter_lock:
                        self.failovers += 1
                handle.begin_request()
                try:
                    body = handle.forward_analyze(payload)
                except (ServiceError, CircuitOpenError) as exc:
                    if isinstance(exc, ServiceError) and not exc.transient:
                        raise  # a coherent 4xx belongs to the caller
                    handle.record_failure(self.eject_after)
                    last_error = exc
                    first_choice = False
                    continue
                finally:
                    handle.end_request()
                elapsed = time.perf_counter() - started
                self.latency.observe(elapsed)
                with self._counter_lock:
                    self.routed_requests += 1
                with handle._lock:
                    handle.routed += 1
                headers = {
                    "X-Repro-Replica": handle.name,
                }
                cache = (handle.client.last_headers or {}).get("X-Repro-Cache")
                if cache:
                    headers["X-Repro-Cache"] = cache
                return body, headers
            if time.monotonic() >= deadline:
                with self._counter_lock:
                    self.unavailable_errors += 1
                detail = f": {last_error}" if last_error else ""
                raise ClusterUnavailable(
                    f"no healthy replica answered within "
                    f"{self.failover_deadline}s{detail}"
                )
            first_choice = False
            time.sleep(0.05)

    # -- rolling reload ------------------------------------------------

    def _set_rollout(self, **fields) -> None:
        with self._rollout_state_lock:
            self._rollout.update(fields)

    @property
    def rollout(self) -> dict:
        with self._rollout_state_lock:
            return dict(self._rollout)

    def rolling_reload(self, artifact_path: str) -> dict:
        """Ship ``artifact_path`` replica by replica with zero downtime.

        Per replica: drain (stop routing, wait for in-flight up to the
        drain deadline), reload, verify readiness and health, re-admit.
        The first replica that rejects or degrades on the new artifact
        halts the rollout; it and every replica already upgraded are
        rolled back to the prior artifact, so the cluster is never left
        mixed.  Raises :class:`RolloutInProgress` when one is running.
        """
        if not self._rollout_lock.acquire(blocking=False):
            raise RolloutInProgress()
        try:
            prior = self.artifact_path
            record: dict = {
                "artifact": artifact_path,
                "prior": prior,
                "status": "running",
                "steps": [],
            }
            self._set_rollout(
                phase="running", artifact=artifact_path, replica=None
            )
            upgraded: list[ReplicaHandle] = []
            for handle in self.handles:
                step: dict = {"replica": handle.name}
                record["steps"].append(step)
                was_ready = handle.state == READY
                if was_ready:
                    handle.set_state(DRAINING)
                self._set_rollout(phase="draining", replica=handle.name)
                try:
                    fault_check("cluster.slow_drain", key=handle.name)
                except InjectedFault:
                    # A raising slow-drain spec models a drain that
                    # would never finish: skip straight to "deadline
                    # exceeded" without sleeping through it.
                    step["drain_fault"] = True
                step["drained"] = (
                    False
                    if step.get("drain_fault")
                    else handle.wait_drained(self.drain_deadline)
                )
                self._set_rollout(phase="reloading", replica=handle.name)
                try:
                    fault_check("cluster.bad_artifact", key=artifact_path)
                    body = handle.reload(artifact_path)
                    if body.get("degraded"):
                        raise ClusterError(
                            f"artifact {artifact_path} loads degraded on "
                            f"{handle.name}"
                        )
                    self._set_rollout(phase="verifying", replica=handle.name)
                    if not self._await_ready(handle):
                        raise ClusterError(
                            f"{handle.name} failed readiness after reload"
                        )
                except (ServiceError, CircuitOpenError, InjectedFault,
                        ClusterError) as exc:
                    step["error"] = str(exc)
                    self._rollback(handle, prior, step)
                    for earlier in reversed(upgraded):
                        rollback_step = {"replica": earlier.name, "rollback": True}
                        record["steps"].append(rollback_step)
                        earlier.set_state(DRAINING)
                        earlier.wait_drained(self.drain_deadline)
                        self._rollback(earlier, prior, rollback_step)
                    record["status"] = "rolled_back"
                    record["failed_replica"] = handle.name
                    with self._counter_lock:
                        self.rollbacks += 1
                    self._set_rollout(phase="rolled_back", replica=handle.name)
                    return record
                handle.artifact_path = artifact_path
                handle.set_state(READY if was_ready or handle.alive() else DOWN)
                step["reloaded"] = True
                # How the replica loaded the new artifact, and how long
                # the load took, as its /reload answer reports them.
                step["artifact_source"] = body.get("artifact_source")
                handle.artifact_load_seconds = body.get("artifact_load_seconds")
                handle.artifact_source = body.get("artifact_source")
                upgraded.append(handle)
            self.artifact_path = artifact_path
            record["status"] = "complete"
            with self._counter_lock:
                self.rollouts_completed += 1
            self._set_rollout(phase="complete", replica=None)
            return record
        finally:
            self._rollout_lock.release()

    def _await_ready(self, handle: ReplicaHandle) -> bool:
        deadline = time.monotonic() + self.verify_deadline
        while time.monotonic() < deadline:
            if handle.probe_ready():
                return True
            if self._stop.wait(0.05):
                return False
        return False

    def _rollback(
        self, handle: ReplicaHandle, prior: str | None, step: dict
    ) -> None:
        """Put one replica back on the prior artifact (best effort; a
        replica whose reload never swapped is already on it)."""
        restored = False
        if prior is not None:
            try:
                handle.reload(prior)
                restored = self._await_ready(handle)
            except (ServiceError, CircuitOpenError):
                restored = False
        else:
            restored = handle.probe_ready()
        handle.artifact_path = prior if prior is not None else handle.artifact_path
        handle.set_state(READY if restored else EJECTED)
        step["rolled_back_ok"] = restored

    # -- observability -------------------------------------------------

    def status(self) -> dict:
        """The ``/cluster/status`` document."""
        with self._counter_lock:
            counters = {
                "routed_requests": self.routed_requests,
                "failovers": self.failovers,
                "unavailable_errors": self.unavailable_errors,
                "rollouts_completed": self.rollouts_completed,
                "rollbacks": self.rollbacks,
            }
        return {
            "artifact": self.artifact_path,
            "ready": self.ready,
            "routing": "rendezvous-sha256",
            "rollout": self.rollout,
            "counters": counters,
            "restarts": sum(h.restarts for h in self.handles),
            "ejections": sum(h.ejections for h in self.handles),
            "replicas": [handle.status_json() for handle in self.handles],
        }

    def health(self) -> dict:
        """The coordinator's ``/health`` document: the cluster is ready
        while at least one replica is routable."""
        states = {handle.name: handle.state for handle in self.handles}
        ready = self.ready
        return {
            "status": "ok" if ready else "unavailable",
            "ready": ready,
            "replicas": states,
            "artifact": self.artifact_path,
        }

    def metrics(self) -> dict:
        """Aggregated ``/metrics``: coordinator counters + latency, a
        best-effort fetch of every replica's document, and sums of the
        headline counters across reachable replicas."""
        with self._counter_lock:
            cluster = {
                "replicas": len(self.handles),
                "routed_requests": self.routed_requests,
                "failovers": self.failovers,
                "unavailable_errors": self.unavailable_errors,
                "rollouts_completed": self.rollouts_completed,
                "rollbacks": self.rollbacks,
            }
        cluster["restarts"] = sum(h.restarts for h in self.handles)
        cluster["ejections"] = sum(h.ejections for h in self.handles)
        cluster["readmissions"] = sum(h.readmissions for h in self.handles)
        cluster["latency"] = self.latency.to_json()
        cluster["rollout"] = self.rollout
        per_replica: dict[str, dict] = {}
        totals = {
            "requests_total": 0,
            "files_analyzed": 0,
            "errors": 0,
            "violations_reported": 0,
        }
        for handle in self.handles:
            try:
                document = handle.fetch_metrics()
            except (ServiceError, CircuitOpenError) as exc:
                per_replica[handle.name] = {"unreachable": str(exc)}
                continue
            per_replica[handle.name] = document
            for field in totals:
                value = document.get(field)
                if isinstance(value, (int, float)):
                    totals[field] += value
        return {
            "cluster": cluster,
            "totals": totals,
            "replicas": per_replica,
        }
