"""Building and refreshing the repository index; the watch loop.

:class:`RepoIndexer` turns a loaded :class:`~repro.core.namer.Namer`
plus a :class:`~repro.index.store.RepoIndex` into the steady-state
contract the deployment story needs: a refresh cycle costs O(changed
files).  Each cycle:

1. walks the tree with the ignore-spec walker;
2. decides per file whether its stored row is current — the mtime/size
   pair is the fast path (no read, no hash), a changed pair falls back
   to the content hash, and rows produced under a different artifact
   fingerprint (or carrying a quarantine error) are always re-analyzed;
3. analyzes the stale set with ``Namer.analyze`` (prepared under the
   artifact's own settings, then the parallel batch path, one
   classifier pass);
4. applies the whole delta — upserts and evictions of deleted files —
   in one atomic store transaction.

Files that vanish between the walk and the read are treated as deleted
(evicted, never crashed on); unreadable or unparsable files land as
quarantine rows that are retried every cycle, so a repaired file heals
on the next pass without any bookkeeping.

:func:`watch_repository` is the poll loop behind ``repro watch``: it
re-runs :meth:`RepoIndexer.refresh` on an interval and prints a
per-cycle delta summary.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.namer import Namer
from repro.core.reports import reports_to_rows
from repro.corpus.model import SourceFile
from repro.index.store import FileRecord, RepoIndex
from repro.index.walker import WalkedFile, file_sha256, walk_repository
from repro.parallel.executor import ShardExecutor
from repro.resilience.quarantine import ErrorRecord

__all__ = ["IndexDelta", "RepoIndexer", "watch_repository"]


@dataclass
class IndexDelta:
    """What one refresh cycle did."""

    added: list[str] = field(default_factory=list)
    changed: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    #: rows re-analyzed only because their artifact fingerprint was stale
    refreshed: list[str] = field(default_factory=list)
    #: files whose analysis failed this cycle (stored as error rows)
    quarantined: list[str] = field(default_factory=list)
    unchanged: int = 0
    report_rows: int = 0
    seconds: float = 0.0

    @property
    def analyzed(self) -> list[str]:
        """Every path analyzed this cycle, in walk order."""
        merged = sorted(set(self.added + self.changed + self.refreshed))
        return merged

    def to_json(self) -> dict:
        return {
            "added": self.added,
            "changed": self.changed,
            "removed": self.removed,
            "refreshed": self.refreshed,
            "quarantined": self.quarantined,
            "unchanged": self.unchanged,
            "report_rows": self.report_rows,
            "seconds": round(self.seconds, 3),
        }

    def describe(self) -> str:
        return (
            f"+{len(self.added)} ~{len(self.changed)} -{len(self.removed)} "
            f"refreshed {len(self.refreshed)} unchanged {self.unchanged} "
            f"quarantined {len(self.quarantined)} "
            f"({self.report_rows} report row(s), {self.seconds:.2f}s)"
        )


class RepoIndexer:
    """Keeps one repository's index in sync with its working tree."""

    def __init__(
        self,
        root: str,
        namer: Namer,
        store: RepoIndex,
        *,
        workers: int = 1,
        executor=None,
        repo_name: str | None = None,
    ) -> None:
        import pathlib

        self.root = pathlib.Path(root)
        self.namer = namer
        self.store = store
        self.workers = max(1, int(workers))
        #: an optional long-lived ShardExecutor (the serving tier's warm
        #: detection pool); takes precedence over ``workers``
        self.executor = executor
        self.repo_name = repo_name or self.root.name
        self.fingerprint = namer_fingerprint(namer) or "unfingerprinted"
        store.set_meta("root", str(self.root))

    # -- change detection ----------------------------------------------

    def _needs_analysis(self, walked: WalkedFile) -> tuple[bool, str]:
        """(analyze?, reason) for one walked file against its row.

        Reasons: ``added`` (no row), ``changed`` (content differs),
        ``refreshed`` (row is from another artifact or quarantined),
        ``unchanged``.
        """
        record = self.store.get(walked.path)
        if record is None:
            return True, "added"
        if record.error is not None:
            # Quarantined rows never take the fast path: a repaired
            # file (permissions fixed, syntax fixed in place with an
            # unchanged stat pair) must heal on the next cycle.
            return True, "refreshed"
        if record.fingerprint != self.fingerprint:
            return True, "refreshed"
        if record.mtime == walked.mtime and record.size == walked.size:
            return False, "unchanged"
        try:
            sha = file_sha256(walked.abspath)
        except OSError:
            return True, "changed"  # unreadable now; capture downstream
        if sha == record.sha256:
            # Touched but identical (checkout, touch): refresh the stat
            # pair so the next cycle takes the fast path again.
            record.mtime = walked.mtime
            record.size = walked.size
            self.store.upsert(record)
            return False, "unchanged"
        return True, "changed"

    # -- analysis ------------------------------------------------------

    def _analyze(self, targets: list[WalkedFile]) -> tuple[list[FileRecord], list[str]]:
        """Analyze ``targets``; returns (records to upsert, paths that
        vanished between the walk and the read)."""
        sources: list[tuple[WalkedFile, str, str]] = []  # (file, sha, text)
        records: dict[str, FileRecord] = {}
        vanished: list[str] = []
        now = time.time()
        for walked in targets:
            try:
                with open(walked.abspath, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                vanished.append(walked.path)
                continue
            except OSError as exc:
                records[walked.path] = self._error_record(
                    walked, "", ErrorRecord(
                        path=walked.path, stage="read",
                        kind=type(exc).__name__, message=str(exc),
                    ), now,
                )
                continue
            sha = _sha256_bytes(data)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                records[walked.path] = self._error_record(
                    walked, sha, ErrorRecord(
                        path=walked.path, stage="read",
                        kind="UnicodeDecodeError", message=str(exc),
                    ), now,
                )
                continue
            sources.append((walked, sha, text))

        pool = (
            ShardExecutor(self.workers)
            if self.executor is None
            else nullcontext(self.executor)
        )
        with pool as executor:
            outcomes = self.namer.analyze(
                [
                    SourceFile(path=w.path, source=text, language=w.language)
                    for w, _, text in sources
                ],
                repo=self.repo_name,
                executor=executor,
            )
        for (walked, sha, _), (reports, error) in zip(sources, outcomes):
            if error is not None:
                records[walked.path] = self._error_record(
                    walked, sha, error, now
                )
                continue
            records[walked.path] = FileRecord(
                path=walked.path,
                sha256=sha,
                mtime=walked.mtime,
                size=walked.size,
                language=walked.language,
                fingerprint=self.fingerprint,
                reports=reports_to_rows(reports),
                analyzed_at=now,
            )
        # Preserve walk order in the returned list.
        ordered = [
            records[w.path] for w in targets if w.path in records
        ]
        return ordered, vanished

    def _error_record(
        self, walked: WalkedFile, sha: str, error: ErrorRecord, now: float
    ) -> FileRecord:
        return FileRecord(
            path=walked.path,
            sha256=sha,
            mtime=walked.mtime,
            size=walked.size,
            language=walked.language,
            fingerprint=self.fingerprint,
            reports=[],
            error=error.brief(),
            stage=error.stage,
            analyzed_at=now,
        )

    # -- the cycle -----------------------------------------------------

    def refresh(self, walked: list[WalkedFile] | None = None) -> IndexDelta:
        """One index cycle: walk, diff, analyze, apply atomically.

        ``walked`` overrides the tree walk (tests drive race windows —
        e.g. a file deleted between walk and analyze — through it).
        """
        started = time.perf_counter()
        if walked is None:
            walked = walk_repository(self.root)
        delta = IndexDelta()
        targets: list[WalkedFile] = []
        reasons: dict[str, str] = {}
        seen: set[str] = set()
        for wf in walked:
            seen.add(wf.path)
            analyze, reason = self._needs_analysis(wf)
            if analyze:
                targets.append(wf)
                reasons[wf.path] = reason
            else:
                delta.unchanged += 1

        records, vanished = self._analyze(targets)
        seen -= set(vanished)
        removed = [path for path in self.store.paths() if path not in seen]

        for record in records:
            reason = reasons.get(record.path, "changed")
            getattr(delta, reason).append(record.path)
            if record.error is not None:
                delta.quarantined.append(record.path)
            delta.report_rows += len(record.reports)
        delta.removed = sorted(removed)

        self.store.upsert_many(records)
        self.store.remove_many(delta.removed)
        self.store.set_meta("last_refresh", str(time.time()))
        self.store.set_meta("artifact_fingerprint", self.fingerprint)
        delta.seconds = time.perf_counter() - started
        return delta


def namer_fingerprint(namer: Namer) -> str | None:
    """Content checksum of a loaded artifact — the identity index rows
    and the serving tier's persistent cache key on (``None`` for a
    namer that was never mined).

    Namers loaded from a frozen blob carry the checksum precomputed in
    the blob header (stamped at freeze time from the same JSON
    document), so they skip the full document re-encode — which is a
    large fraction of a cold start by itself."""
    precomputed = getattr(namer, "frozen_fingerprint", None)
    if precomputed:
        return precomputed
    from repro.core.persistence import namer_to_document
    from repro.resilience.checkpoint import document_checksum

    try:
        return document_checksum(namer_to_document(namer))
    except Exception:
        return None


def _sha256_bytes(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def watch_repository(
    indexer: RepoIndexer,
    *,
    interval: float = 2.0,
    cycles: int | None = None,
    log=print,
) -> list[IndexDelta]:
    """Poll loop behind ``repro watch``: refresh, report, sleep, repeat.

    ``cycles=None`` runs until interrupted; a bounded count (tests, CI
    smoke jobs) returns the deltas it saw.  The first cycle is the
    initial build when the store is empty.
    """
    deltas: list[IndexDelta] = []
    cycle = 0
    try:
        while cycles is None or cycle < cycles:
            delta = indexer.refresh()
            deltas.append(delta)
            cycle += 1
            log(f"[cycle {cycle}] {delta.describe()}")
            if cycles is not None and cycle >= cycles:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        log(f"watch stopped after {cycle} cycle(s)")
    return deltas
