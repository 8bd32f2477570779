"""Load harness for the serving tier's availability contract.

Requests must not be lost when a replica dies or an artifact rolls out
mid-run.  This harness drives N client threads through any
``/analyze``-speaking endpoint (a single :class:`AnalysisServer` or a
cluster coordinator) and records each request's outcome.

Byte-identity is checked through **normalized digests**: the timing and
cache fields of a response legitimately vary run to run (``elapsed_ms``,
``cached``, ``cache_level``), so each response is reduced to its
semantic content — path, report rows, error — before hashing.  A load
run's digests can then be compared payload-for-payload against a
single-engine reference to prove a failover or a rolling reload never
changed a single report.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field

from repro.resilience.retry import RetryPolicy
from repro.service.client import HttpClient, ServiceError

__all__ = [
    "LoadSample",
    "LoadResult",
    "latency_percentile",
    "normalized_digest",
    "reference_digests",
    "run_load",
]


def latency_percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of raw samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _normalize(body: dict) -> list[dict]:
    """The semantic content of one ``/analyze`` response: path, report
    rows, and error — with the fields that legitimately vary between
    identical runs (timing, cache disposition) stripped."""
    results = body["results"] if "results" in body else [body]
    return [
        {
            "path": entry.get("path"),
            "reports": entry.get("reports"),
            "error": entry.get("error"),
        }
        for entry in results
    ]


def normalized_digest(body: dict) -> str:
    """SHA-256 over the normalized response — equal iff the served
    reports are byte-identical."""
    blob = json.dumps(_normalize(body), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class LoadSample:
    """One request's outcome as a load client saw it."""

    payload_index: int
    ok: bool
    status: int
    digest: str | None = None
    error: str | None = None


@dataclass
class LoadResult:
    """A whole load run: every request's sample."""

    samples: list[LoadSample] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.samples)

    @property
    def failures(self) -> list[LoadSample]:
        return [s for s in self.samples if not s.ok]

    def digests_by_payload(self) -> dict[int, set[str]]:
        """Every distinct normalized digest observed per payload —
        a byte-identity check wants exactly one per payload, matching
        the reference."""
        out: dict[int, set[str]] = {}
        for sample in self.samples:
            if sample.digest is not None:
                out.setdefault(sample.payload_index, set()).add(sample.digest)
        return out


def run_load(
    url: str,
    payloads: list[dict],
    *,
    clients: int = 4,
    total_requests: int = 200,
    timeout: float = 60.0,
    retries: int = 0,
    mid_run: tuple[float, object] | None = None,
) -> LoadResult:
    """Drive ``total_requests`` ``/analyze`` calls through ``url`` from
    ``clients`` concurrent threads, round-robining over ``payloads``.

    Clients do **not** retry by default (``retries=0``): surviving a
    replica crash is the *server's* contract (coordinator failover), and
    a retrying client would mask a dropped request.

    ``mid_run=(fraction, hook)`` fires ``hook()`` once on a separate
    thread after ``fraction`` of the requests have been issued — the
    place to kill a replica or start a rollout while load is running.
    """
    if not payloads:
        raise ValueError("run_load needs at least one payload")
    counter_lock = threading.Lock()
    issued = 0
    samples: list[LoadSample] = []
    hook_fired = threading.Event()
    hook_threads: list[threading.Thread] = []

    def next_index() -> int | None:
        nonlocal issued
        fire = False
        with counter_lock:
            if issued >= total_requests:
                return None
            index = issued
            issued += 1
            if (
                mid_run is not None
                and index >= mid_run[0] * total_requests
                and not hook_fired.is_set()
            ):
                hook_fired.set()
                fire = True
        if fire:
            thread = threading.Thread(target=mid_run[1], daemon=True)
            hook_threads.append(thread)
            thread.start()
        return index

    def worker() -> None:
        client = HttpClient(
            url,
            timeout=timeout,
            retry=RetryPolicy(max_attempts=max(1, retries + 1), base_delay=0.05),
        )
        local: list[LoadSample] = []
        while True:
            index = next_index()
            if index is None:
                break
            payload = payloads[index % len(payloads)]
            try:
                body = client.request("POST", "/analyze", payload)
            except ServiceError as exc:
                local.append(
                    LoadSample(
                        payload_index=index % len(payloads),
                        ok=False,
                        status=exc.status,
                        error=exc.message,
                    )
                )
                continue
            local.append(
                LoadSample(
                    payload_index=index % len(payloads),
                    ok=True,
                    status=200,
                    digest=normalized_digest(body),
                )
            )
        with counter_lock:
            samples.extend(local)

    threads = [
        threading.Thread(target=worker, name=f"load-client-{i}", daemon=True)
        for i in range(max(1, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for thread in hook_threads:
        thread.join(timeout=60)
    return LoadResult(samples=samples)


def reference_digests(engine, payloads: list[dict]) -> list[str]:
    """Single-engine reference: the normalized digest each payload must
    produce, computed through an in-process engine (no cluster, no
    concurrency) so load-run responses can be checked byte-for-byte."""
    from repro.service.client import InProcessClient

    client = InProcessClient(engine)
    out = []
    for payload in payloads:
        if "files" in payload:
            results = client.analyze_files(payload["files"])
            out.append(normalized_digest({"results": results}))
        else:
            out.append(normalized_digest(client.analyze(
                payload["source"],
                path=payload.get("path", "<memory>"),
                language=payload.get("language"),
            )))
    return out
