"""The analysis engine: a loaded Namer behind a cache and worker pool.

The paper's deployment split (mine once, infer many times) is realized
here as a long-lived object: the expensive artifacts are loaded exactly
once, then every analysis request pays only inference — and unchanged
sources pay only a cache lookup.  Layering (bottom-up):

``Namer.analyze``      — prepare under the artifact's own settings,
                         then batch inference, one classifier pass
:class:`ResultCache`   — content-hash LRU over finished results
:class:`RequestQueue`  — bounded worker pool with backpressure
:class:`AnalysisEngine`— ties the three together; the HTTP server and
                         the in-process client both talk to this.

A request (one file or a batch) answers its cache hits on the calling
thread and sends all of its misses to the queue as one job, which
prepares them and classifies them in a single ``detect_many`` pass.
"""

from __future__ import annotations

import gc
import logging
import threading
import time
from dataclasses import dataclass, field, replace

from repro.cache import ContentCache
from repro.core.namer import Namer
from repro.mining.frozen import (
    FrozenError,
    default_frozen_path,
    load_frozen_namer,
)
from repro.core.persistence import (
    PersistenceError,
    artifact_checksum,
    load_namer,
)
# Kept importable here: namerbench's layer table names this binding.
from repro.core.prepare import prepare_file_checked  # noqa: F401
from repro.corpus.model import SourceFile
from repro.resilience.faults import InjectedFault, fault_check
from repro.resilience.quarantine import ErrorRecord
from repro.service.cache import ResultCache, content_key
from repro.service.metrics import ServiceMetrics
from repro.service.queue import QueueFullError, RequestQueue

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisEngine",
    "EngineNotReady",
    "IndexNotAttached",
]

logger = logging.getLogger(__name__)


class EngineNotReady(RuntimeError):
    """Analysis was requested before the deferred artifact load finished
    (a 503-with-retry upstream: the replica is alive but still warming)."""

    def __init__(self) -> None:
        super().__init__("engine is still loading its artifacts; retry shortly")


class IndexNotAttached(RuntimeError):
    """An ``/index/*`` endpoint was called on an engine started without
    ``serve --index`` (a 400 upstream, not a server fault)."""

    def __init__(self) -> None:
        super().__init__(
            "no repository index attached; start the daemon with --index"
        )

_SUFFIX_LANGUAGES = {".py": "python", ".java": "java"}


def _infer_language(path: str) -> str:
    for suffix, language in _SUFFIX_LANGUAGES.items():
        if path.endswith(suffix):
            return language
    return "python"


@dataclass(frozen=True)
class AnalysisRequest:
    """One source file to analyze."""

    source: str
    path: str = "<memory>"
    language: str | None = None
    repo: str = ""

    @property
    def resolved_language(self) -> str:
        return self.language or _infer_language(self.path)

    def cache_key(self) -> str:
        return content_key(self.source, self.resolved_language, self.path)


@dataclass
class AnalysisResult:
    """The analysis of one file, as served over the wire."""

    path: str
    reports: list[dict] = field(default_factory=list)
    cached: bool = False
    error: str | None = None
    elapsed_ms: float = 0.0
    #: True when served pattern-only because the classifier artifact
    #: was missing or corrupt (see AnalysisEngine degraded mode)
    degraded: bool = False
    #: which cache answered: "memory" (LRU), "disk" (persistent
    #: content cache), or None for a full analysis
    cache_level: str | None = None

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "reports": self.reports,
            "cached": self.cached,
            "error": self.error,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "degraded": self.degraded,
            "cache_level": self.cache_level,
        }


class AnalysisEngine:
    """Long-lived analysis service over one loaded Namer artifact."""

    def __init__(
        self,
        namer: Namer | None = None,
        artifact_path: str | None = None,
        *,
        workers: int = 4,
        detect_workers: int = 1,
        queue_capacity: int = 64,
        cache_entries: int = 1024,
        request_timeout: float = 60.0,
        degraded_ok: bool = True,
        cache_dir: str | None = None,
        index_path: str | None = None,
        defer_load: bool = False,
    ) -> None:
        if namer is None and artifact_path is None:
            raise ValueError("AnalysisEngine needs a namer or an artifact_path")
        #: from process start (or engine construction, whichever the
        #: host marked) to readiness — the cold-start number /metrics
        #: and cluster-status report per replica
        self._start_monotonic = time.monotonic()
        self._startup_seconds: float | None = None
        self._artifact_load_seconds: float | None = None
        #: "frozen" when the mmap'd blob served the load, "json" for the
        #: legacy artifact decode, "inline" for an in-memory namer
        self._artifact_source: str | None = None
        self.degraded_ok = degraded_ok
        self.artifact_path = artifact_path
        self.request_timeout = request_timeout
        #: process-pool width for batch detection; 1 keeps detection
        #: inline on the queue threads (identical output either way)
        self.detect_workers = max(1, int(detect_workers))
        self.cache = ResultCache(cache_entries)
        #: persistent result cache surviving restarts, keyed by
        #: (artifact fingerprint, request content) — a restarted or
        #: reloaded daemon skips detection for unchanged files
        self.content_cache = ContentCache(cache_dir) if cache_dir else None
        #: persistent repository index (``serve --index``): ``/index/*``
        #: endpoints answer from its rows instead of running detection
        self.index = None
        if index_path is not None:
            from repro.index import RepoIndex

            self.index = RepoIndex(index_path)
        self.queue = RequestQueue(capacity=queue_capacity, workers=workers)
        self.metrics = ServiceMetrics()
        self._reload_lock = threading.Lock()
        #: bumped on reload; in-flight results from the old artifact must
        #: not repopulate the freshly-cleared cache
        self._generation = 0
        #: set once artifacts are loaded and the detect pool is warmed;
        #: readiness (``/health?ready=1``) gates on it so a cluster
        #: coordinator never routes to a replica that is still warming
        self._ready = threading.Event()
        self._namer: Namer | None = None
        self._detect_executor = None
        self._artifact_fp: str | None = None
        if namer is None and defer_load:
            # Replica warm-up path: the HTTP listener binds (liveness)
            # before the expensive load; ``complete_load`` flips ready.
            return
        if namer is None:
            namer = self._load_artifact(artifact_path)
        else:
            self._artifact_source = "inline"
        self._install_namer(namer)

    def mark_process_start(self, monotonic_t0: float) -> None:
        """Backdate the startup clock to the hosting process's start
        (:data:`repro.IMPORT_STARTED`), so reported ``startup_seconds``
        covers import + load + bind time, not just engine construction.
        An engine that is already ready moves its recorded number by
        the same amount."""
        if self._startup_seconds is not None:
            self._startup_seconds += self._start_monotonic - monotonic_t0
        self._start_monotonic = monotonic_t0

    def _load_artifact(self, artifact_path: str) -> Namer:
        """Load the serving artifact, preferring the frozen sibling.

        The fallback ladder: a healthy ``<artifacts>.frozen`` blob
        frozen from this very artifact (its fingerprint equals the
        artifact's stamped checksum) maps in; a damaged, truncated,
        era-mismatched or stale one logs a warning and falls back to
        the JSON artifact (same reports either way — damage is a cache
        miss, never an outage).  Timing is recorded for /metrics."""
        started = time.monotonic()
        namer: Namer | None = None
        frozen_path = default_frozen_path(artifact_path)
        if frozen_path.exists():
            try:
                namer = load_frozen_namer(frozen_path)
                # A blob left by an earlier `mine --freeze` carries
                # another document's fingerprint.
                stamped = artifact_checksum(artifact_path)
                if stamped is None or namer.frozen_fingerprint != stamped:
                    raise FrozenError(
                        f"fingerprint {namer.frozen_fingerprint!r} is not "
                        f"the artifact's checksum {stamped!r}"
                    )
                self._artifact_source = "frozen"
            except (FrozenError, InjectedFault) as exc:
                namer = None
                logger.warning(
                    "frozen artifact %s unusable (%s); falling back to %s",
                    frozen_path,
                    exc,
                    artifact_path,
                )
        if namer is None:
            namer = load_namer(artifact_path, degraded_ok=self.degraded_ok)
            self._artifact_source = "json"
        self._artifact_load_seconds = time.monotonic() - started
        return namer

    def _install_namer(self, namer: Namer) -> None:
        """Make ``namer`` the serving artifact: warm the detect pool,
        stamp the fingerprint, publish mining phases, flip readiness."""
        self._namer = namer
        self._detect_executor = self._new_detect_executor(namer)
        self._artifact_fp = (
            self._artifact_fingerprint(namer)
            if (self.content_cache or self.index)
            else None
        )
        self.metrics.set_mining_phases(namer.summary.phase_timings)
        # The loaded artifact is the long-lived heap: frozen, no later
        # collection rescans it (see "Heap and garbage collection" in
        # DESIGN.md).
        gc.freeze()
        if self._startup_seconds is None:
            self._startup_seconds = time.monotonic() - self._start_monotonic
        self._ready.set()

    @property
    def ready(self) -> bool:
        """Whether artifacts are loaded and the detect pool is warm."""
        return self._ready.is_set()

    def complete_load(self) -> None:
        """Finish a deferred artifact load (``defer_load=True``).

        Raises :class:`PersistenceError` exactly like eager construction
        would; the engine stays unready (liveness without readiness)."""
        if self.ready:
            return
        fault_check("engine.load", key=self.artifact_path or "")
        namer = self._load_artifact(self.artifact_path)
        self._install_namer(namer)

    def _require_ready(self) -> Namer:
        namer = self._namer
        if namer is None:
            raise EngineNotReady()
        return namer

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def analyze(
        self, request: AnalysisRequest, timeout: float | None = None
    ) -> AnalysisResult:
        """Analyze one file (cache-aware).

        Raises :class:`QueueFullError` under backpressure and
        :class:`RequestTimeout` past the deadline; both are counted.
        """
        return self._serve([request], timeout)[0]

    def analyze_many(
        self, requests: list[AnalysisRequest], timeout: float | None = None
    ) -> list[AnalysisResult]:
        """Analyze a batch: cache hits answered inline, every miss
        analyzed by one queue job through one shared ``detect_many``
        pass.  Raises like :meth:`analyze`."""
        return self._serve(requests, timeout)

    # ------------------------------------------------------------------

    def _serve(
        self, requests: list[AnalysisRequest], timeout: float | None
    ) -> list[AnalysisResult]:
        """Hits are answered on the calling thread; the misses go to the
        queue as **one** job (:meth:`_analyze_misses`)."""
        self._require_ready()
        started = time.perf_counter()
        results = [self._cache_hit(request) for request in requests]
        misses = [i for i, result in enumerate(results) if result is None]
        if misses:
            try:
                ticket = self.queue.submit(
                    lambda: self._analyze_misses([requests[i] for i in misses])
                )
            except QueueFullError:
                self.metrics.record_rejected()
                raise
            try:
                fresh = ticket.result(timeout or self.request_timeout)
            except TimeoutError:
                self.metrics.record_timeout()
                raise
            for i, result in zip(misses, fresh):
                results[i] = result
        self._count_batch(results, time.perf_counter() - started)
        return results

    def _analyze_misses(
        self, requests: list[AnalysisRequest]
    ) -> list[AnalysisResult]:
        """The queue job: :meth:`Namer.analyze` over every miss, on the
        artifact loaded when the job starts.  Failures come back as
        error results (quarantine), never as exceptions."""
        with self._reload_lock:
            generation = self._generation
            namer = self._namer
            executor = self._detect_executor
        faulted: dict[int, tuple] = {}
        sources, repos = [], []
        for i, r in enumerate(requests):
            try:
                fault_check("engine.prepare", key=r.path)
            except InjectedFault as exc:
                record = ErrorRecord.capture(r.path, "prepare", exc, repo=r.repo)
                faulted[i] = ([], record)
                continue
            sources.append(
                SourceFile(path=r.path, source=r.source, language=r.resolved_language)
            )
            repos.append(r.repo or "service")
        analyzed = iter(namer.analyze(sources, repo=repos, executor=executor))
        results = []
        quarantined = 0
        for i, request in enumerate(requests):
            reports, error = faulted.get(i) or next(analyzed)
            if error is not None:
                quarantined += 1
                if error.stage == "parse":
                    # Preserve the long-standing wire message for the
                    # overwhelmingly common case.
                    error = replace(
                        error,
                        message=f"unparsable {request.resolved_language} source",
                    )
            results.append(
                self._finish(
                    request,
                    [report.to_json() for report in reports],
                    error.brief() if error is not None else None,
                    generation,
                )
            )
        if quarantined:
            self.metrics.record_quarantined(quarantined)
        return results

    def _finish(
        self,
        request: AnalysisRequest,
        reports: list[dict],
        error: str | None,
        generation: int,
    ) -> AnalysisResult:
        result = AnalysisResult(
            path=request.path, reports=reports, error=error,
            degraded=self.degraded,
        )
        if generation == self._generation:
            self.cache.put(request.cache_key(), result)
            # Persist clean results only: errors stay uncached so a
            # transient failure is re-analyzed, and the generation
            # fence guarantees the fingerprint still matches the
            # artifact that produced these reports.
            if error is None and self.content_cache is not None:
                fp = self._artifact_fp
                if fp is not None:
                    self.content_cache.put(
                        "detect",
                        self._detect_key(fp, request),
                        reports,
                    )
        return result

    @staticmethod
    def _detect_key(fp: str, request: AnalysisRequest) -> str:
        """Persistent detect-cache key: artifact fingerprint + request
        content (the key itself hashes the code that detects)."""
        return ContentCache.key(fp, request.cache_key())

    def _cache_hit(self, request: AnalysisRequest) -> AnalysisResult | None:
        """Serve one request from the in-memory LRU, else from the
        persistent content cache.

        Disk keys include the loaded artifact's content fingerprint, so
        entries written under a different artifact (or code) can
        never answer — no invalidation protocol, just different keys.
        A disk hit also warms the in-memory LRU.
        """
        hit = self.cache.get(request.cache_key())
        if hit is not None:
            return AnalysisResult(
                path=request.path, reports=hit.reports, cached=True,
                error=hit.error, degraded=self.degraded,
                cache_level="memory",
            )
        cache = self.content_cache
        fp = self._artifact_fp
        if cache is None or fp is None:
            return None
        reports = cache.get("detect", self._detect_key(fp, request))
        if reports is None:
            return None
        result = AnalysisResult(
            path=request.path, reports=reports, cached=True,
            degraded=self.degraded, cache_level="disk",
        )
        self.cache.put(request.cache_key(), result)
        return result

    def _new_detect_executor(self, namer: Namer):
        """A warm detection pool for ``namer``, or None when serial.

        Warming at construction (and on every reload) registers the
        matcher/stats context for fork sharing and forks the workers
        up front, so the first request after start-up or an artifact
        swap pays neither the fork nor the context shipping.
        """
        if self.detect_workers <= 1:
            return None
        from repro.parallel.executor import ShardExecutor

        executor = ShardExecutor(self.detect_workers)
        namer.warm_detect(executor)
        return executor

    @staticmethod
    def _artifact_fingerprint(namer: Namer) -> str | None:
        """Content checksum of the loaded artifact (None disables the
        persistent cache — e.g. a namer that was never mined).  The
        same fingerprint the repository index stamps its rows with."""
        from repro.index.watcher import namer_fingerprint

        return namer_fingerprint(namer)

    # ------------------------------------------------------------------
    # Repository index serving (``serve --index``)
    # ------------------------------------------------------------------

    def index_summary(self) -> dict:
        """``GET /index/summary``: store counts plus artifact currency."""
        if self.index is None:
            raise IndexNotAttached()
        body = self.index.summary()
        fp = self._artifact_fp
        body["artifact_fingerprint"] = fp
        body["stale_rows"] = len(self.index.stale_paths(fp)) if fp else None
        return body

    def index_file(self, path: str) -> dict | None:
        """``GET /index/file?path=``: one file's stored analysis.

        Served straight from the index — no detection runs.  Rows
        produced under a different artifact than the one loaded are
        still served (stale beats 500s, exactly like degraded mode)
        but flagged ``"stale": true`` and counted in ``/metrics``.
        Returns ``None`` when the path has no row (a 404 upstream).
        """
        if self.index is None:
            raise IndexNotAttached()
        record = self.index.get(path)
        if record is None:
            self.metrics.record_index_lookup(hit=False)
            return None
        stale = (
            self._artifact_fp is not None
            and record.fingerprint != self._artifact_fp
        )
        self.metrics.record_index_lookup(hit=True, stale=stale)
        return {
            "path": record.path,
            "reports": record.reports,
            "error": record.error,
            "sha256": record.sha256,
            "language": record.language,
            "stale": stale,
            "analyzed_at": record.analyzed_at,
        }

    def index_refresh(self) -> dict:
        """``POST /index/refresh``: one synchronous refresh cycle.

        Walks the indexed root, re-analyzes only added/changed/stale
        files on the engine's warm detection pool, evicts deleted rows,
        and returns the delta summary.
        """
        if self.index is None:
            raise IndexNotAttached()
        self._require_ready()
        from repro.index.watcher import RepoIndexer

        root = self.index.get_meta("root")
        if root is None:
            raise ValueError(
                "index has no recorded root; build it with 'repro index' first"
            )
        with self._reload_lock:
            namer = self._namer
            executor = self._detect_executor
        indexer = RepoIndexer(
            root, namer, self.index, executor=executor
        )
        delta = indexer.refresh()
        self.metrics.record_index_refresh()
        return delta.to_json()

    def _count_batch(self, results: list[AnalysisResult], seconds: float) -> None:
        for result in results:
            result.elapsed_ms = seconds * 1000
        self.metrics.record_request(
            files=len(results),
            violations=sum(len(r.reports) for r in results),
            seconds=seconds,
        )
        for result in results:
            if result.error is not None:
                self.metrics.record_error()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when serving pattern-only results because the classifier
        half of the artifact was missing or corrupt."""
        namer = self._namer
        return bool(namer is not None and namer.degraded_reasons)

    def reload(self, artifact_path: str) -> dict:
        """Hot-swap the loaded artifact (``POST /reload``).

        The new file is fully loaded and schema-checked *before* the
        swap, so a bad artifact leaves the running service untouched.
        With ``degraded_ok`` (the default), an artifact whose patterns
        decode but whose classifier section is corrupt is still swapped
        in — pattern-only, flagged ``degraded`` — because stale-but-full
        artifacts and fresh-but-degraded ones are both better than 500s.
        In-flight requests finish on the old artifact but cannot write
        into the new cache (generation fencing).
        """
        # Raises PersistenceError when even a degraded load is
        # impossible.  The frozen sibling is tried first, exactly like
        # start-up; a damaged blob falls back to the JSON decode.
        namer = self._load_artifact(artifact_path)
        # The old pool's forked workers inherited the *old* artifact's
        # matcher; build a fresh warm pool for the new one and swap it
        # in with the namer, closing the old pool outside the lock.
        new_executor = self._new_detect_executor(namer)
        with self._reload_lock:
            self._namer = namer
            self.artifact_path = artifact_path
            self._artifact_fp = (
                self._artifact_fingerprint(namer)
                if (self.content_cache or self.index)
                else None
            )
            self._generation += 1
            dropped = self.cache.clear()
            old_executor = self._detect_executor
            self._detect_executor = new_executor
            self._ready.set()
        if old_executor is not None:
            old_executor.close()
        # Refreeze around the new generation.  The replaced one is
        # acyclic and frees itself once its last request finishes; the
        # one collection reclaims whatever cyclic garbage the freeze at
        # load had pinned with it.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        self.metrics.record_reload()
        self.metrics.set_mining_phases(namer.summary.phase_timings)
        # Index rows mined under the old artifact are now stale: they
        # keep serving (flagged) until the next refresh re-analyzes
        # them, but the count is surfaced here and in /metrics so
        # operators see the invalidation the reload caused.
        body = {
            "artifacts": artifact_path,
            "cache_entries_dropped": dropped,
            "degraded": self.degraded,
            "artifact_source": self._artifact_source,
            "artifact_load_seconds": self._artifact_load_seconds,
        }
        if self.index is not None:
            stale = (
                len(self.index.stale_paths(self._artifact_fp))
                if self._artifact_fp
                else 0
            )
            self.metrics.record_index_invalidated(stale)
            body["index_rows_stale"] = stale
        return body

    def health(self) -> dict:
        """Liveness document: always answerable, even mid-warm-up.

        ``status`` distinguishes a replica that is alive but still
        loading (``warming``) from one serving pattern-only results
        (``degraded``) and a fully healthy one (``ok``); ``ready`` is
        the bit the readiness probe (``/health?ready=1``) gates on.
        """
        namer = self._namer
        if namer is None:
            status = "warming"
        else:
            status = "degraded" if self.degraded else "ok"
        return {
            "status": status,
            "ready": self.ready,
            "artifacts": self.artifact_path,
            "patterns": (
                len(namer.matcher.patterns)
                if namer is not None and namer.matcher
                else 0
            ),
            "classifier": namer is not None and namer.classifier is not None,
            "degraded": self.degraded,
            "degraded_reasons": (
                list(namer.degraded_reasons) if namer is not None else []
            ),
            "workers": self.queue.workers,
            "detect_workers": self.detect_workers,
            "pending": self.queue.pending,
            "index": str(self.index.path) if self.index is not None else None,
        }

    def metrics_json(self) -> dict:
        body = self.metrics.to_json()
        body["degraded"] = self.degraded
        body["cache"] = self.cache.stats.to_json()
        body["cache"]["entries"] = len(self.cache)
        body["queue"] = {
            "capacity": self.queue.capacity,
            "pending": self.queue.pending,
            "in_flight": self.queue.in_flight,
        }
        # Incremental-cache observability: the persistent detect cache
        # and the mining run's per-level counters (empty when the
        # artifact was mined without a cache directory).
        body["content_cache"] = (
            self.content_cache.stats_json()
            if self.content_cache is not None
            else {}
        )
        namer = self._namer
        body["ready"] = self.ready
        # Cold-start observability: process-start-to-ready, the
        # artifact decode share of it, and which tier answered the load
        # ("frozen" mmap, "json" decode, or an "inline" namer).
        body["startup_seconds"] = self._startup_seconds
        body["artifact_load_seconds"] = self._artifact_load_seconds
        body["artifact_source"] = self._artifact_source
        body["mining_cache"] = (
            dict(namer.summary.cache_stats) if namer is not None else {}
        )
        # Index-backed serving counters (hit/miss/stale/refresh), plus
        # the store's own row counts when an index is attached.
        if self.index is not None:
            body["index"] = self.metrics.index_json()
            body["index"]["rows"] = len(self.index)
        # Accumulated detection-side phase rows (match / featurize /
        # classify) across every request served by the loaded namer.
        body["detection_phases"] = (
            namer.detect_profiler.to_json() if namer is not None else []
        )
        # Cycle-collector passes since process start, per generation,
        # and the objects frozen out of its reach.
        body["gc"] = {
            "collections": [row["collections"] for row in gc.get_stats()],
            "frozen_objects": gc.get_freeze_count(),
        }
        return body

    def shutdown(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Drain (or abort) the queue and stop the workers."""
        self.queue.shutdown(drain=drain, timeout=timeout)
        if self._detect_executor is not None:
            self._detect_executor.close()
            self._detect_executor = None
        if self.index is not None:
            self.index.close()
            self.index = None
