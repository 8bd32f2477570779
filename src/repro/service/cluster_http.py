"""HTTP front end for the cluster coordinator.

The coordinator speaks the same wire protocol as a single
:class:`~repro.service.server.AnalysisServer`, so clients (the CLI's
``analyze-remote``, the load harness, anything built on
:class:`HttpClient`) work unchanged against a cluster:

* ``POST /analyze``       — routed by content hash to one replica and
  passed through verbatim; the answering replica is named in the
  ``X-Repro-Replica`` response header.
* ``GET  /health``        — cluster liveness; ``?ready=1`` answers 503
  until at least one replica is routable.
* ``GET  /metrics``       — the coordinator's aggregated view (routing
  counters, latency distribution, per-replica metric documents).
* ``GET  /cluster/status``— per-replica state, restart/ejection
  counters, and the rollout phase.
* ``POST /reload``        — a *rolling* reload: one replica at a time,
  zero downtime, automatic rollback on a bad artifact.  Answers 409
  while another rollout is running.

Unroutable moments (every replica restarting at once) map to 503 with
``retry: true``; replica-side client errors (a malformed body, an
unknown artifact path) pass through with their original status.
"""

from __future__ import annotations

import threading
import urllib.parse

from repro.service.client import ServiceError
from repro.service.cluster import (
    ClusterCoordinator,
    ClusterUnavailable,
    RolloutInProgress,
)
from repro.service.server import DrainingListener, JsonHandler, _BadRequest

__all__ = ["ClusterServer", "serve_cluster"]


class _ClusterHandler(JsonHandler):
    server_version = "repro-cluster/1.0"
    coordinator: ClusterCoordinator  # injected by ClusterServer

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self.server.connection_busy(self)
        parsed = urllib.parse.urlsplit(self.path)
        try:
            if parsed.path == "/health":
                body = self.coordinator.health()
                params = urllib.parse.parse_qs(parsed.query)
                ready_probe = params.get("ready", ["0"])[0] not in ("", "0")
                status = 503 if ready_probe and not body["ready"] else 200
                self._reply(status, body)
            elif parsed.path == "/metrics":
                self._reply(200, self.coordinator.metrics())
            elif parsed.path == "/cluster/status":
                self._reply(200, self.coordinator.status())
            else:
                self._reply(404, {"error": f"unknown path {self.path}"})
        except Exception as exc:  # last-resort: never drop the connection
            self._reply(500, {"error": f"internal error: {exc!r}"})

    def do_POST(self) -> None:  # noqa: N802
        self.server.connection_busy(self)
        try:
            body = self._read_json()
            if self.path == "/analyze":
                result, headers = self.coordinator.analyze_payload(body)
                self._reply(200, result, headers=headers)
            elif self.path == "/reload":
                if not isinstance(body.get("artifacts"), str):
                    raise _BadRequest("reload needs an 'artifacts' path")
                self._reply(200, self.coordinator.rolling_reload(body["artifacts"]))
            else:
                self._reply(404, {"error": f"unknown path {self.path}"})
        except _BadRequest as exc:
            self._reply(400, {"error": str(exc)})
        except RolloutInProgress as exc:
            self._reply(409, {"error": str(exc)})
        except ClusterUnavailable as exc:
            self._reply(503, {"error": str(exc), "retry": True})
        except ServiceError as exc:
            # A replica answered coherently (4xx/5xx): pass it through.
            status = exc.status if exc.status >= 400 else 502
            self._reply(status, {"error": exc.message})
        except Exception as exc:  # last-resort: never drop the connection
            self._reply(500, {"error": f"internal error: {exc!r}"})


class ClusterServer:
    """Binds a coordinator to a host/port; mirrors AnalysisServer."""

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        host: str = "127.0.0.1",
        port: int = 8750,
        quiet: bool = True,
    ) -> None:
        self.coordinator = coordinator
        handler = type(
            "BoundClusterHandler",
            (_ClusterHandler,),
            {"coordinator": coordinator, "quiet": quiet},
        )
        self.httpd = DrainingListener((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ClusterServer":
        """Serve on a daemon thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-cluster-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self.httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting connections, then stop the whole cluster
        (each replica drains before exiting)."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.coordinator.stop()


def serve_cluster(
    artifact_path: str,
    host: str = "127.0.0.1",
    port: int = 8750,
    *,
    replicas: int = 3,
    replica_workers: int = 2,
    detect_workers: int = 1,
    queue_capacity: int = 64,
    cache_entries: int = 1024,
    strict_artifacts: bool = False,
    fault_plan_path: str | None = None,
    quiet: bool = True,
    start: bool = True,
) -> ClusterServer:
    """Spawn the replicas, wait for readiness, bind the coordinator,
    and (by default) begin serving on a daemon thread.  Pass
    ``start=False`` to serve on the calling thread instead (the CLI
    path: ``server.serve_forever()``)."""
    coordinator = ClusterCoordinator(
        artifact_path,
        replicas=replicas,
        host=host,
        replica_workers=replica_workers,
        detect_workers=detect_workers,
        queue_capacity=queue_capacity,
        cache_entries=cache_entries,
        strict_artifacts=strict_artifacts,
        fault_plan_path=fault_plan_path,
    )
    coordinator.start(wait_ready=True)
    try:
        server = ClusterServer(coordinator, host=host, port=port, quiet=quiet)
    except OSError:
        coordinator.stop()
        raise
    if start:
        server.start()
    return server
