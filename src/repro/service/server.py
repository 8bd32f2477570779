"""Stdlib-only JSON HTTP front end for the analysis engine.

Endpoints:

* ``GET  /health``  — liveness + loaded-artifact summary.
* ``GET  /metrics`` — request counts, latency percentiles, cache hit
  rate, queue depth, violations reported.
* ``POST /analyze`` — ``{"source": ..., "path": ..., "language": ...}``
  for one file, or ``{"files": [...]}`` for a batch; returns report
  rows (see :meth:`repro.core.reports.Report.to_json`).
* ``POST /reload``  — ``{"artifacts": path}``; hot-swaps the artifact.
* ``GET  /index/summary`` — repository-index row counts + staleness
  (``serve --index`` only; 400 without an attached index).
* ``GET  /index/file?path=`` — one file's stored analysis straight
  from the index (404 for unindexed paths, ``"stale": true`` for rows
  from another artifact).
* ``POST /index/refresh`` — run one refresh cycle (re-walk, re-analyze
  only changed files, evict deleted rows) and return the delta.

Overload maps onto status codes: a full queue answers 503 (retry
later), a missed deadline 504, a bad artifact or malformed body 400.
``ThreadingHTTPServer`` gives one thread per connection; actual
analysis work still funnels through the engine's bounded queue, so
concurrency is governed in exactly one place.  :class:`JsonHandler`
holds the request/response plumbing this server shares with the
cluster coordinator (``repro.service.cluster_http``).
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.parse
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.persistence import PersistenceError
from repro.service.engine import (
    AnalysisEngine,
    AnalysisRequest,
    AnalysisResult,
    EngineNotReady,
    IndexNotAttached,
)
from repro.service.queue import QueueFullError, RequestTimeout, ServiceClosed

__all__ = [
    "AnalysisServer",
    "DrainingListener",
    "JsonHandler",
    "cache_disposition",
    "serve",
]


def cache_disposition(results: list[AnalysisResult]) -> str:
    """The ``X-Repro-Cache`` header value: how this response's files
    were answered (in-memory LRU hit, persistent disk hit, or a full
    analysis)."""
    memory = sum(1 for r in results if r.cache_level == "memory")
    disk = sum(1 for r in results if r.cache_level == "disk")
    return f"memory={memory} disk={disk} miss={len(results) - memory - disk}"

MAX_BODY_BYTES = 32 * 1024 * 1024


class _BadRequest(ValueError):
    """Client error; message goes into the 400 response body."""


class JsonHandler(BaseHTTPRequestHandler):
    """The request/response plumbing both front ends share: the replica
    server's :class:`_Handler` and the cluster coordinator's handler.

    Every reply leaves in one write with ``TCP_NODELAY`` set.  Writing
    the header block and the body as two sends let Nagle's algorithm
    hold the body until the client acknowledged the headers, and the
    client delays that ACK by ~40 ms: a floor under every response.
    One write removes the small-send pair; ``TCP_NODELAY`` covers what
    one write cannot (a reply larger than a segment, the stdlib's
    ``send_error`` pages).
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    quiet = True
    # Bound how long an idle keep-alive connection can pin a handler
    # thread; graceful shutdown joins these threads, so an abandoned
    # connection must age out rather than stall the drain.
    timeout = 60

    def handle_one_request(self) -> None:
        # Park/unpark bracketing for graceful drain: while this thread
        # waits for a kept-alive connection's next request, shutdown
        # may close the socket out from under it (DrainingListener).
        if not self.server.connection_idle(self):
            self.close_connection = True
            return
        try:
            super().handle_one_request()
        finally:
            self.server.connection_busy(self)

    def _read_json(self) -> dict:
        """The request body as a JSON object; anything else is a 400."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length < 0:
                raise _BadRequest("invalid Content-Length header")
            raise _BadRequest(f"request body over {MAX_BODY_BYTES} bytes")
        if length == 0:
            raise _BadRequest("missing request body")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise _BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    def _reply(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        """Status line, headers and body in one buffer, one write."""
        data = json.dumps(payload).encode("utf-8")
        self.log_request(status)
        lines = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
        ]
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + data)

    def log_message(self, format: str, *args) -> None:
        if not self.quiet:
            super().log_message(format, *args)


def _parse_requests(body: dict) -> tuple[list[AnalysisRequest], bool]:
    """The analyze payload: one file object or ``{"files": [...]}``."""
    if "files" in body:
        files = body["files"]
        if not isinstance(files, list) or not files:
            raise _BadRequest("'files' must be a non-empty list")
        return [_parse_one(f) for f in files], True
    return [_parse_one(body)], False


def _parse_one(entry: object) -> AnalysisRequest:
    if not isinstance(entry, dict) or not isinstance(entry.get("source"), str):
        raise _BadRequest("each file needs a string 'source' field")
    language = entry.get("language")
    if language is not None and language not in ("python", "java"):
        raise _BadRequest(f"unsupported language: {language!r}")
    return AnalysisRequest(
        source=entry["source"],
        path=str(entry.get("path", "<memory>")),
        language=language,
        repo=str(entry.get("repo", "")),
    )


class _Handler(JsonHandler):
    server_version = "repro-namer/1.0"
    engine: AnalysisEngine  # injected by AnalysisServer

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self.server.connection_busy(self)
        self._count_retry_header()
        parsed = urllib.parse.urlsplit(self.path)
        try:
            if parsed.path == "/health":
                self._handle_health(parsed.query)
            elif parsed.path == "/metrics":
                self._reply(200, self.engine.metrics_json())
            elif parsed.path == "/index/summary":
                self._reply(200, self.engine.index_summary())
            elif parsed.path == "/index/file":
                self._handle_index_file(parsed.query)
            else:
                self._reply(404, {"error": f"unknown path {self.path}"})
        except (_BadRequest, IndexNotAttached) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # last-resort: never drop the connection
            self.engine.metrics.record_error()
            self._reply(500, {"error": f"internal error: {exc!r}"})

    def do_POST(self) -> None:  # noqa: N802
        self.server.connection_busy(self)
        self._count_retry_header()
        try:
            if self.path == "/index/refresh":
                # A refresh takes no body; re-walks the indexed root.
                self._reply(200, self.engine.index_refresh())
                return
            body = self._read_json()
            if self.path == "/analyze":
                self._handle_analyze(body)
            elif self.path == "/reload":
                self._handle_reload(body)
            else:
                self._reply(404, {"error": f"unknown path {self.path}"})
        except (_BadRequest, IndexNotAttached) as exc:
            self._reply(400, {"error": str(exc)})
        except (ValueError, PersistenceError) as exc:
            # PersistenceError (bad reload artifact) and the index's
            # "no recorded root" both trace back to client input.
            self._reply(400, {"error": str(exc)})
        except EngineNotReady as exc:
            self._reply(503, {"error": str(exc), "retry": True})
        except QueueFullError as exc:
            self._reply(503, {"error": str(exc), "retry": True})
        except RequestTimeout as exc:
            self._reply(504, {"error": str(exc)})
        except ServiceClosed as exc:
            self._reply(503, {"error": str(exc), "retry": False})
        except Exception as exc:  # last-resort: never drop the connection
            self.engine.metrics.record_error()
            self._reply(500, {"error": f"internal error: {exc!r}"})

    def _handle_health(self, query: str) -> None:
        """Liveness by default; ``?ready=1`` turns the same document
        into a readiness probe that answers 503 until the artifacts are
        loaded and the detect pool is warm — so a cluster coordinator
        never routes to a replica that is still warming."""
        body = self.engine.health()
        params = urllib.parse.parse_qs(query)
        ready_probe = params.get("ready", ["0"])[0] not in ("", "0")
        if ready_probe and not body.get("ready"):
            self._reply(503, body)
        else:
            self._reply(200, body)

    def _handle_analyze(self, body: dict) -> None:
        requests, batch = _parse_requests(body)
        if batch:
            results = self.engine.analyze_many(requests)
            self._reply(
                200,
                {"results": [r.to_json() for r in results]},
                headers={"X-Repro-Cache": cache_disposition(results)},
            )
        else:
            result = self.engine.analyze(requests[0])
            self._reply(
                200,
                result.to_json(),
                headers={"X-Repro-Cache": cache_disposition([result])},
            )

    def _handle_reload(self, body: dict) -> None:
        if not isinstance(body.get("artifacts"), str):
            raise _BadRequest("reload needs an 'artifacts' path")
        self._reply(200, self.engine.reload(body["artifacts"]))

    def _handle_index_file(self, query: str) -> None:
        params = urllib.parse.parse_qs(query)
        paths = params.get("path")
        if not paths or not paths[0]:
            raise _BadRequest("/index/file needs a ?path= query parameter")
        body = self.engine.index_file(paths[0])
        if body is None:
            self._reply(404, {"error": f"not indexed: {paths[0]}"})
        else:
            self._reply(200, body)

    # ------------------------------------------------------------------

    def _count_retry_header(self) -> None:
        # Client backoff made visible server-side: retried attempts
        # carry X-Repro-Retry (see HttpClient), surfaced in /metrics.
        if self.headers.get("X-Repro-Retry"):
            self.engine.metrics.record_retried()


class DrainingListener(ThreadingHTTPServer):
    """Threaded listener whose shutdown wakes idle keep-alive sockets.

    Handler threads are non-daemon and joined on ``server_close`` so
    in-flight responses always finish (graceful drain).  Persistent
    connections cut both ways, though: a thread parked on the *next*
    request line of a kept-alive socket would pin that join until the
    handler's idle timeout.  Handlers register the park via
    :meth:`connection_idle` and clear it via :meth:`connection_busy`;
    :meth:`shutdown` flips the draining flag and half-closes every
    parked socket, so parked threads wake immediately and only
    genuinely in-flight work delays exit.
    """

    # The stdlib default listen(5) backlog resets connections under
    # request bursts; overload policy belongs to the bounded request
    # queue (503), not the TCP accept queue.
    request_queue_size = 128
    # Graceful shutdown: handler threads must be joinable so
    # ``server_close`` waits for in-flight responses to be written
    # (ThreadingMixIn only tracks non-daemon threads).  SIGTERM/SIGINT
    # therefore drain instead of dropping whatever was being served.
    daemon_threads = False
    block_on_close = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._conn_lock = threading.Lock()
        self._parked: dict[int, socket.socket] = {}
        self._draining = False
        self._serving = False

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        with self._conn_lock:
            if self._draining:  # stopped before it ever served
                return
            self._serving = True
        super().serve_forever(poll_interval)

    def connection_idle(self, handler) -> bool:
        """A handler is about to block for its connection's next
        request line; returns False when draining (close instead)."""
        with self._conn_lock:
            if self._draining:
                return False
            self._parked[id(handler)] = handler.connection
        return True

    def connection_busy(self, handler) -> None:
        """A request arrived (or the connection died): the handler is
        no longer parked, so shutdown must not touch its socket."""
        with self._conn_lock:
            self._parked.pop(id(handler), None)

    def shutdown(self) -> None:
        with self._conn_lock:
            self._draining = True
            serving = self._serving
            parked = list(self._parked.values())
            self._parked.clear()
        for conn in parked:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if serving:  # the stdlib waits for a serve loop to acknowledge
            super().shutdown()


class AnalysisServer:
    """Owns the HTTP listener; binds an engine to a host/port.

    ``port=0`` binds an ephemeral port (tests); read it back from
    :attr:`port` after construction.
    """

    def __init__(
        self,
        engine: AnalysisEngine,
        host: str = "127.0.0.1",
        port: int = 8750,
        quiet: bool = True,
    ) -> None:
        self.engine = engine
        handler = type("BoundHandler", (_Handler,), {"engine": engine, "quiet": quiet})
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

    def start(self) -> "AnalysisServer":
        """Serve on a daemon thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self.httpd.serve_forever()

    def stop(self, drain: bool = True) -> None:
        """Stop accepting connections, then drain the analysis queue."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.engine.shutdown(drain=drain)


def serve(
    artifact_path: str,
    host: str = "127.0.0.1",
    port: int = 8750,
    *,
    workers: int = 4,
    queue_capacity: int = 64,
    cache_entries: int = 1024,
    cache_dir: str | None = None,
    index_path: str | None = None,
    quiet: bool = False,
) -> AnalysisServer:
    """Build an engine from saved artifacts and bind the HTTP server."""
    engine = AnalysisEngine(
        artifact_path=artifact_path,
        workers=workers,
        queue_capacity=queue_capacity,
        cache_entries=cache_entries,
        cache_dir=cache_dir,
        index_path=index_path,
    )
    return AnalysisServer(engine, host=host, port=port, quiet=quiet)
