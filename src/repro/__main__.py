"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``mine``  — mine patterns (and optionally train the classifier) from
  the synthetic reference corpus and save the artifacts to a file.
* ``scan``  — load saved artifacts and scan a directory of source
  files, printing reports and (optionally) applying fixes in place.
* ``analyze`` — batch analysis of a directory: one parallel
  ``detect_many`` pass over every prepared file (``--workers N``).
* ``eval``  — run the Table 2-style precision evaluation end to end.
* ``serve`` — run the long-lived analysis daemon (HTTP JSON API);
  ``--index`` attaches a repository index for ``/index/*`` endpoints;
  ``--replicas N`` runs an HA cluster of engine subprocesses behind a
  hash-routing coordinator.
* ``analyze-remote`` — send files to a running daemon for analysis.
* ``cluster-status`` — per-replica state of a running cluster.
* ``rollout`` — roll a new artifact across a cluster, one replica at a
  time, with automatic rollback on failure.
* ``index`` — build (or refresh) the persistent repository index.
* ``watch`` — poll a repository, re-analyzing only what changed.
* ``index-stats`` / ``index-doctor`` / ``index-export`` — inspect,
  health-check, or dump an existing index database.

Example session::

    python -m repro mine --out namer.json --repos 30
    python -m repro scan --artifacts namer.json path/to/project
    python -m repro analyze path/to/project --artifacts namer.json --workers 4
    python -m repro index path/to/project --artifacts namer.json
    python -m repro watch path/to/project --artifacts namer.json --interval 2
    python -m repro serve --artifacts namer.json --port 8750 \
        --index path/to/project/.repro-index.db
    python -m repro analyze-remote path/to/project --url http://127.0.0.1:8750
    python -m repro eval --repos 30 --language python

Failures (bad artifact path, unparseable single-file input, unreachable
daemon) exit nonzero with a one-line message on stderr — no tracebacks.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.core.fixer import apply_fixes
from repro.core.namer import Namer, NamerConfig
from repro.core.persistence import PersistenceError, load_namer
from repro.core.prepare import PREPARE_STAGES, prepare_file
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.javagen import generate_java_corpus
from repro.corpus.model import SourceFile
from repro.evaluation.precision import run_precision_evaluation
from repro.mining.miner import MiningConfig

_SUFFIXES = {".py": "python", ".java": "java"}


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_artifacts(path: str) -> Namer | None:
    """Load saved artifacts; ``None`` (after an stderr message) when the
    file is missing, malformed, or from another schema version."""
    try:
        return load_namer(path)
    except PersistenceError as exc:
        _fail(str(exc))
        return None


def _mining_config(args: argparse.Namespace) -> MiningConfig:
    return MiningConfig(
        min_pattern_support=args.min_support, min_path_frequency=args.min_frequency
    )


def _arm_fault_plan(path: str | None) -> bool:
    """Arm a fault-injection plan from a JSON file, if one was given."""
    if path is None:
        return True
    from repro.resilience.faults import FAULTS, FaultPlan

    try:
        plan = FaultPlan.load(path)
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"cannot load fault plan {path}: {exc}")
        return False
    FAULTS.arm(plan)
    print(
        f"fault injection armed: {len(plan.specs)} spec(s), seed {plan.seed}",
        file=sys.stderr,
    )
    return True


def cmd_mine(args: argparse.Namespace) -> int:
    from repro.parallel.executor import default_workers
    from repro.parallel.profiler import format_phase_table
    from repro.resilience.faults import InjectedFault
    from repro.resilience.pipeline import run_mine_pipeline

    if not _arm_fault_plan(args.fault_plan):
        return 2
    generate = generate_java_corpus if args.language == "java" else generate_python_corpus
    corpus_config = GeneratorConfig(
        num_repos=args.repos, issue_rate=0.12, seed=args.seed
    )

    workers = args.workers if args.workers is not None else default_workers()
    cache_dir = None if args.no_cache else (args.cache_dir or f"{args.out}.cache")
    try:
        result = run_mine_pipeline(
            corpus_factory=lambda: generate(corpus_config),
            corpus_settings=(args.language, corpus_config),
            namer_config=NamerConfig(
                mining=_mining_config(args), workers=workers, cache_dir=cache_dir
            ),
            out=args.out,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            train=not args.no_classifier,
            seed=args.seed,
            keep_checkpoints=args.keep_checkpoints,
            freeze=args.freeze,
            log=print,
        )
    except InjectedFault as exc:
        return _fail(f"injected fault tripped at {exc.site}: {exc}", code=3)
    except OSError as exc:
        return _fail(f"cannot write artifacts to {args.out}: {exc}")
    if args.profile:
        if result.replayed_from is not None:
            print(
                "no phase timings (replayed from cache entry "
                f"train/{result.replayed_from[:16]})"
            )
        elif result.summary is not None and result.summary.phase_timings:
            print(f"phase timings ({workers} worker(s)):")
            print(format_phase_table(result.summary.phase_timings))
        else:
            print("no phase timings (run resumed from checkpoints)")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    namer = _load_artifacts(args.artifacts)
    if namer is None:
        return 2
    root = pathlib.Path(args.path)
    if not root.exists():
        return _fail(f"no such file or directory: {root}")
    single_file = root.is_file()
    targets = [root] if single_file else sorted(
        p for p in root.rglob("*") if p.suffix in _SUFFIXES
    )
    # Prepared exactly as the artifact's patterns were mined.
    settings = namer.prepare_settings()._asdict()
    total = 0
    attempted = 0
    failed = 0
    for path in targets:
        language = _SUFFIXES.get(path.suffix)
        if language is None:
            if single_file:
                return _fail(f"unsupported file type: {path}")
            continue
        attempted += 1
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            # An unreadable or non-UTF-8 file costs one warning line,
            # never the scan (mirrors mining's per-file quarantine).
            failed += 1
            if single_file:
                return _fail(f"cannot read {path}: {exc}")
            print(f"[skip] {path}: cannot read ({exc})", file=sys.stderr)
            continue
        source = SourceFile(path=str(path), source=text, language=language)
        prepared = prepare_file(source, repo=root.name, **settings)
        if prepared is None:
            # A directory scan skips unparsable files like the paper's
            # corpus pipeline; naming one file explicitly is an error.
            if single_file:
                return _fail(f"unparseable {language} source: {path}")
            print(f"[skip] {path}: unparsable", file=sys.stderr)
            continue
        reports = namer.detect(prepared)
        total += len(reports)
        for report in reports:
            print(report.describe())
        if args.style:
            from repro.naming.style_checker import StyleChecker

            for issue in StyleChecker().check(prepared.module):
                total += 1
                print(issue.describe())
        if args.fix and reports:
            fixed, results = apply_fixes(source.source, reports)
            applied = sum(1 for r in results if r.applied)
            if applied:
                path.write_text(fixed)
                print(f"[fixed] {path}: {applied} change(s) applied")
    if failed and failed == attempted:
        return _fail(f"all {failed} file(s) under {root} were unreadable")
    if failed:
        print(f"[skip] {failed} unreadable file(s) skipped", file=sys.stderr)
    print(f"{total} naming issue(s) reported")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Local batch analysis: ``Namer.analyze`` over every file under a
    path — prepared as the artifact was mined, then one parallel
    ``detect_many`` pass over the whole batch."""
    from repro.index.walker import walk_repository
    from repro.parallel.executor import ShardExecutor, default_workers
    from repro.parallel.profiler import format_phase_table

    namer = _load_artifacts(args.artifacts)
    if namer is None:
        return 2
    root = pathlib.Path(args.path)
    if not root.exists():
        return _fail(f"no such file or directory: {root}")
    single_file = root.is_file()
    if single_file:
        language = _SUFFIXES.get(root.suffix)
        if language is None:
            return _fail(f"unsupported file type: {root}")
        targets = [(str(root), language)]
    else:
        # The same ignore-spec walker the index uses: .gitignore-aware,
        # so `analyze` and `index` agree on which files count.
        targets = [
            (wf.abspath, wf.language) for wf in walk_repository(root)
        ]
    sources = []
    for path, language in targets:
        try:
            text = pathlib.Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            if single_file:
                return _fail(f"cannot read {path}: {exc}")
            print(f"[skip] {path}: cannot read ({exc})", file=sys.stderr)
            continue
        sources.append(SourceFile(path=path, source=text, language=language))
    workers = args.workers if args.workers is not None else default_workers()
    with ShardExecutor(workers) as executor:
        outcomes = namer.analyze(sources, repo=root.name, executor=executor)
    total = 0
    analyzed = 0
    for source, (reports, error) in zip(sources, outcomes):
        if error is not None and error.stage in PREPARE_STAGES:
            if single_file:
                return _fail(f"unparseable {source.language} source: {source.path}")
            print(f"[skip] {source.path}: unparsable", file=sys.stderr)
            continue
        analyzed += 1
        if error is not None:
            print(f"[skip] {source.path}: {error.brief()}", file=sys.stderr)
        for report in reports:
            total += 1
            print(report.describe())
    if not analyzed:
        return _fail(f"no analyzable files under {root}")
    print(
        f"{total} naming issue(s) reported across {analyzed} file(s) "
        f"({workers} worker(s))"
    )
    if args.profile:
        print(format_phase_table(namer.detect_profiler.to_json()))
    return 0


def _default_db(root: pathlib.Path) -> str:
    """Where a repository's index lives unless ``--db`` says otherwise.
    The walker's built-in ignores cover this name, so the database never
    indexes itself."""
    return str(root / ".repro-index.db")


def _open_index(path: str, *, must_exist: bool):
    """Open an index database; ``None`` after an stderr message on
    failure (missing file, schema newer than this code)."""
    from repro.index import IndexSchemaError, RepoIndex

    if must_exist and not pathlib.Path(path).is_file():
        _fail(f"no index database at {path}; build one with 'repro index'")
        return None
    try:
        return RepoIndex(path)
    except IndexSchemaError as exc:
        _fail(str(exc))
        return None


def _build_indexer(args: argparse.Namespace):
    """Shared setup for ``index`` and ``watch``: artifacts + store +
    indexer; ``None`` (after an stderr message) on any failure."""
    from repro.index import RepoIndexer
    from repro.parallel.executor import default_workers

    namer = _load_artifacts(args.artifacts)
    if namer is None:
        return None
    root = pathlib.Path(args.path)
    if not root.is_dir():
        _fail(f"not a directory: {root}")
        return None
    store = _open_index(args.db or _default_db(root), must_exist=False)
    if store is None:
        return None
    workers = args.workers if args.workers is not None else default_workers()
    return RepoIndexer(str(root), namer, store, workers=workers)


def cmd_index(args: argparse.Namespace) -> int:
    """Build (or refresh) the persistent index for one repository."""
    indexer = _build_indexer(args)
    if indexer is None:
        return 2
    try:
        delta = indexer.refresh()
        print(delta.describe())
        summary = indexer.store.summary()
        print(
            f"index {summary['database']}: {summary['files']} file(s), "
            f"{summary['report_rows']} report row(s), "
            f"{summary['quarantined']} quarantined"
        )
    finally:
        indexer.store.close()
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Poll loop: refresh the index on an interval until interrupted."""
    from repro.index import watch_repository

    indexer = _build_indexer(args)
    if indexer is None:
        return 2
    print(
        f"watching {indexer.root} -> {indexer.store.path} "
        f"(every {args.interval:g}s; ctrl-c stops)"
    )
    try:
        watch_repository(indexer, interval=args.interval, cycles=args.cycles)
    finally:
        indexer.store.close()
    return 0


def cmd_index_stats(args: argparse.Namespace) -> int:
    import json

    store = _open_index(args.db, must_exist=True)
    if store is None:
        return 2
    try:
        print(json.dumps(store.summary(), indent=2))
    finally:
        store.close()
    return 0


def cmd_index_doctor(args: argparse.Namespace) -> int:
    """Health-check an index: stale rows, quarantined rows, missing
    hashes.  Nonzero exit when anything needs attention."""
    import json

    store = _open_index(args.db, must_exist=True)
    if store is None:
        return 2
    try:
        fingerprint = None
        if args.artifacts is not None:
            from repro.index import namer_fingerprint

            namer = _load_artifacts(args.artifacts)
            if namer is None:
                return 2
            fingerprint = namer_fingerprint(namer)
        else:
            # Judge staleness against the artifact the last refresh ran
            # under when no artifact file is named.
            fingerprint = store.get_meta("artifact_fingerprint")
        report = store.doctor(fingerprint)
        print(json.dumps(report, indent=2))
        return 1 if report["issues"] else 0
    finally:
        store.close()


def cmd_index_export(args: argparse.Namespace) -> int:
    import json

    store = _open_index(args.db, must_exist=True)
    if store is None:
        return 2
    try:
        document = json.dumps(store.export(), indent=2)
    finally:
        store.close()
    if args.out:
        pathlib.Path(args.out).write_text(document + "\n")
        print(f"index exported to {args.out}")
    else:
        print(document)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    generate = generate_java_corpus if args.language == "java" else generate_python_corpus
    corpus = generate(
        GeneratorConfig(num_repos=args.repos, issue_rate=0.12, seed=args.seed)
    )
    result = run_precision_evaluation(
        corpus,
        NamerConfig(mining=_mining_config(args)),
        sample_size=args.sample,
        training_size=120,
        seed=args.seed,
    )
    print(result.format_table())
    return 0


def _install_sigterm_drain() -> None:
    """Make SIGTERM behave like ctrl-c: both unwind through the same
    drain-then-exit path, so an orchestrator stopping the daemon never
    drops in-flight requests."""
    import signal

    def raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, raise_interrupt)


def _serve_cluster(args: argparse.Namespace) -> int:
    """The ``serve --replicas N`` path: spawn N replica subprocesses and
    front them with the hash-routing coordinator."""
    from repro.service.cluster import ClusterError
    from repro.service.cluster_http import serve_cluster

    _install_sigterm_drain()
    try:
        server = serve_cluster(
            args.artifacts,
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            replica_workers=args.workers,
            detect_workers=args.detect_workers,
            queue_capacity=args.queue_capacity,
            cache_entries=args.cache_size,
            strict_artifacts=args.strict_artifacts,
            fault_plan_path=args.fault_plan,
            quiet=False,
            start=False,
        )
    except ClusterError as exc:
        return _fail(str(exc), code=2)
    except OSError as exc:
        return _fail(f"cannot bind {args.host}:{args.port}: {exc}")
    coordinator = server.coordinator
    print(
        f"serving {args.artifacts} on {server.url} "
        f"({args.replicas} replicas, {args.workers} workers each, "
        f"runtime dir {coordinator.runtime_dir})"
    )
    if args.index:
        print(
            "warning: --index is per-engine and ignored in cluster mode",
            file=sys.stderr,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining cluster (replicas finish in-flight work) ...", file=sys.stderr)
    finally:
        server.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro import IMPORT_STARTED
    from repro.service.engine import AnalysisEngine
    from repro.service.server import AnalysisServer

    if not _arm_fault_plan(args.fault_plan):
        return 2
    if args.replicas > 1:
        return _serve_cluster(args)
    _install_sigterm_drain()
    try:
        engine = AnalysisEngine(
            artifact_path=args.artifacts,
            workers=args.workers,
            detect_workers=args.detect_workers,
            queue_capacity=args.queue_capacity,
            cache_entries=args.cache_size,
            cache_dir=args.cache_dir,
            index_path=args.index,
            degraded_ok=not args.strict_artifacts,
        )
    except PersistenceError as exc:
        return _fail(str(exc), code=2)
    # /metrics startup_seconds counts from the first repro import.
    engine.mark_process_start(IMPORT_STARTED)
    try:
        server = AnalysisServer(engine, host=args.host, port=args.port, quiet=False)
    except OSError as exc:
        engine.shutdown(drain=False)
        return _fail(f"cannot bind {args.host}:{args.port}: {exc}")
    health = engine.health()
    if health["degraded"]:
        for reason in health["degraded_reasons"]:
            print(f"warning: {reason}", file=sys.stderr)
        print(
            "warning: serving DEGRADED (pattern-only) results; "
            "re-mine or reload a healthy artifact",
            file=sys.stderr,
        )
    print(
        f"serving {health['patterns']} patterns from {args.artifacts} "
        f"on {server.url} ({args.workers} workers, "
        f"cache {args.cache_size}, queue {args.queue_capacity})"
    )
    if args.index:
        print(f"index attached: {args.index}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining in-flight requests ...", file=sys.stderr)
    finally:
        server.stop(drain=True)
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Print a running cluster's per-replica state as JSON."""
    import json

    from repro.resilience.retry import CircuitOpenError
    from repro.service.client import HttpClient, ServiceError

    client = HttpClient(args.url, timeout=args.timeout)
    try:
        status = client.request("GET", "/cluster/status")
    except (ServiceError, CircuitOpenError, OSError) as exc:
        return _fail(f"cannot reach cluster at {args.url}: {exc}")
    print(json.dumps(status, indent=2))
    return 0


def cmd_rollout(args: argparse.Namespace) -> int:
    """Roll a new artifact across a running cluster, one replica at a
    time; nonzero exit unless every replica came up on the new artifact."""
    import json

    from repro.resilience.retry import CircuitOpenError
    from repro.service.client import HttpClient, ServiceError

    client = HttpClient(args.url, timeout=args.timeout)
    try:
        record = client.request("POST", "/reload", {"artifacts": args.artifacts})
    except (ServiceError, CircuitOpenError, OSError) as exc:
        return _fail(f"rollout failed: {exc}")
    print(json.dumps(record, indent=2))
    if record.get("status") != "complete":
        return _fail(
            f"rollout {record.get('status', 'failed')}; cluster stays on "
            f"{record.get('prior')}"
        )
    print(f"rollout complete: every replica now serves {args.artifacts}")
    return 0


def cmd_analyze_remote(args: argparse.Namespace) -> int:
    from repro.resilience.retry import CircuitOpenError, RetryPolicy
    from repro.service.client import HttpClient, ServiceError, load_paths

    root = pathlib.Path(args.path)
    if not root.exists():
        return _fail(f"no such file or directory: {root}")
    paths = [root] if root.is_file() else sorted(
        p for p in root.rglob("*") if p.suffix in _SUFFIXES
    )
    entries = load_paths(paths)
    if not entries:
        return _fail(f"no analyzable files under {root}")
    retry = RetryPolicy(
        max_attempts=max(1, args.retries + 1), base_delay=args.backoff
    )
    client = HttpClient(args.url, timeout=args.timeout, retry=retry)
    try:
        results = client.analyze_files(entries)
    except (ServiceError, CircuitOpenError) as exc:
        if client.stats.retries:
            print(
                f"gave up after {client.stats.attempts} attempt(s), "
                f"{client.stats.backoff_seconds:.1f}s of backoff",
                file=sys.stderr,
            )
        return _fail(str(exc))
    total = 0
    failed = 0
    for result in results:
        if result.get("error"):
            failed += 1
            print(f"[skip] {result['path']}: {result['error']}", file=sys.stderr)
            continue
        for report in result["reports"]:
            total += 1
            print(report["message"])
    cached = sum(1 for r in results if r.get("cached"))
    print(
        f"{total} naming issue(s) reported across {len(results)} file(s) "
        f"({cached} served from cache)"
    )
    disposition = client.last_headers.get("X-Repro-Cache")
    if disposition:
        print(f"cache: {disposition}")
    return 1 if failed == len(results) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Namer (PLDI 2021) — find and fix naming issues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--repos", type=int, default=30, help="synthetic corpus size")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--language", choices=["python", "java"], default="python")
        p.add_argument("--min-support", type=int, default=15)
        p.add_argument("--min-frequency", type=int, default=6)

    mine = sub.add_parser("mine", help="mine patterns and save artifacts")
    common(mine)
    mine.add_argument("--out", default="namer.json", help="artifact output path")
    mine.add_argument(
        "--no-classifier", action="store_true", help="skip classifier training"
    )
    mine.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run from its stage checkpoints",
    )
    mine.add_argument(
        "--checkpoint-dir", default=None,
        help="where stage checkpoints live (default: <out>.ckpt/)",
    )
    mine.add_argument(
        "--keep-checkpoints", action="store_true",
        help="keep stage checkpoints after a successful run",
    )
    mine.add_argument(
        "--fault-plan", default=None, metavar="PLAN_JSON",
        help="arm a fault-injection plan (testing/chaos runs)",
    )
    mine.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for preparation and sharded mining "
        "(default: every usable core, or 1 below 4 usable cores; "
        "results are identical for any N)",
    )
    mine.add_argument(
        "--profile", action="store_true",
        help="print a per-phase wall-time table after mining",
    )
    mine.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed warm cache for incremental re-mining "
        "(default: <out>.cache/)",
    )
    mine.add_argument(
        "--no-cache", action="store_true",
        help="disable the warm cache; every run recomputes from scratch",
    )
    mine.add_argument(
        "--freeze", action="store_true",
        help="also write <out>.frozen — a memory-mappable compiled-matcher "
        "blob that serving tiers load near-instantly (zero-copy)",
    )
    mine.set_defaults(fn=cmd_mine)

    scan = sub.add_parser("scan", help="scan sources with saved artifacts")
    scan.add_argument("path", help="file or directory to scan")
    scan.add_argument("--artifacts", default="namer.json")
    scan.add_argument(
        "--fix", action="store_true", help="apply suggested fixes in place"
    )
    scan.add_argument(
        "--style",
        action="store_true",
        help="also flag identifiers against the file's naming convention",
    )
    scan.set_defaults(fn=cmd_scan)

    analyze = sub.add_parser(
        "analyze", help="batch-analyze sources with saved artifacts"
    )
    analyze.add_argument("path", help="file or directory to analyze")
    analyze.add_argument("--artifacts", default="namer.json")
    analyze.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for batch detection (default: every "
        "usable core, or 1 below 4 usable cores; reports are identical "
        "for any N)",
    )
    analyze.add_argument(
        "--profile", action="store_true",
        help="print the match/featurize/classify phase table afterwards",
    )
    analyze.set_defaults(fn=cmd_analyze)

    def index_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", help="repository directory to index")
        p.add_argument("--artifacts", default="namer.json")
        p.add_argument(
            "--db", default=None, metavar="DB",
            help="index database path (default: <path>/.repro-index.db)",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="process-pool size for batch detection (default: every "
            "usable core, or 1 below 4 usable cores)",
        )

    index = sub.add_parser(
        "index", help="build or refresh the persistent repository index"
    )
    index_common(index)
    index.set_defaults(fn=cmd_index)

    watch = sub.add_parser(
        "watch", help="poll a repository, re-analyzing only what changed"
    )
    index_common(watch)
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between refresh cycles",
    )
    watch.add_argument(
        "--cycles", type=int, default=None, metavar="N",
        help="stop after N cycles (default: run until interrupted)",
    )
    watch.set_defaults(fn=cmd_watch)

    stats = sub.add_parser("index-stats", help="summarize an index database")
    stats.add_argument("db", help="index database path")
    stats.set_defaults(fn=cmd_index_stats)

    doctor = sub.add_parser(
        "index-doctor", help="health-check an index database"
    )
    doctor.add_argument("db", help="index database path")
    doctor.add_argument(
        "--artifacts", default=None,
        help="judge staleness against this artifact file (default: the "
        "artifact the last refresh ran under)",
    )
    doctor.set_defaults(fn=cmd_index_doctor)

    export = sub.add_parser(
        "index-export", help="dump an index database as one JSON document"
    )
    export.add_argument("db", help="index database path")
    export.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    export.set_defaults(fn=cmd_index_export)

    evaluate = sub.add_parser("eval", help="run the precision evaluation")
    common(evaluate)
    evaluate.add_argument("--sample", type=int, default=300)
    evaluate.set_defaults(fn=cmd_eval)

    serve = sub.add_parser("serve", help="run the analysis daemon (HTTP JSON API)")
    serve.add_argument("--artifacts", default="namer.json")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750)
    serve.add_argument("--workers", type=int, default=4, help="analysis worker threads")
    serve.add_argument(
        "--detect-workers", type=int, default=1, metavar="N",
        help="process-pool size for batch detection (1 = inline on the "
        "worker threads; results are identical for any N)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024, help="result cache entries (0 disables)"
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64,
        help="pending requests before 503 backpressure",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist analysis results on disk, keyed by artifact "
        "fingerprint + file content (survives restarts)",
    )
    serve.add_argument(
        "--strict-artifacts", action="store_true",
        help="refuse to start on a corrupt classifier section instead "
        "of serving degraded pattern-only results",
    )
    serve.add_argument(
        "--index", default=None, metavar="DB",
        help="attach a repository index database (built with "
        "'repro index'); enables the /index/* endpoints",
    )
    serve.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="run N engine replicas behind a hash-routing coordinator "
        "(health-checked, crash-restarted, rolling /reload); 1 = the "
        "classic single-process daemon",
    )
    serve.add_argument(
        "--fault-plan", default=None, metavar="PLAN_JSON",
        help="arm a fault-injection plan (testing/chaos runs); in "
        "cluster mode the plan is also passed to every replica",
    )
    serve.set_defaults(fn=cmd_serve)

    cluster_status = sub.add_parser(
        "cluster-status", help="per-replica state of a running cluster"
    )
    cluster_status.add_argument("--url", default="http://127.0.0.1:8750")
    cluster_status.add_argument("--timeout", type=float, default=10.0)
    cluster_status.set_defaults(fn=cmd_cluster_status)

    rollout = sub.add_parser(
        "rollout", help="roll a new artifact across a running cluster"
    )
    rollout.add_argument("artifacts", help="artifact file to roll out")
    rollout.add_argument("--url", default="http://127.0.0.1:8750")
    rollout.add_argument(
        "--timeout", type=float, default=300.0,
        help="whole-rollout deadline (drain + reload x N replicas)",
    )
    rollout.set_defaults(fn=cmd_rollout)

    remote = sub.add_parser(
        "analyze-remote", help="analyze files via a running daemon"
    )
    remote.add_argument("path", help="file or directory to analyze")
    remote.add_argument("--url", default="http://127.0.0.1:8750")
    remote.add_argument("--timeout", type=float, default=120.0)
    remote.add_argument(
        "--retries", type=int, default=3,
        help="retry attempts for transient failures (0 disables)",
    )
    remote.add_argument(
        "--backoff", type=float, default=0.1,
        help="base delay in seconds for exponential backoff",
    )
    remote.set_defaults(fn=cmd_analyze_remote)

    report = sub.add_parser(
        "report", help="regenerate the paper's full evaluation as markdown"
    )
    common(report)
    report.add_argument("--out", default="RESULTS.md")
    report.add_argument(
        "--no-dl", action="store_true", help="skip the deep-learning comparison"
    )
    report.set_defaults(fn=cmd_report)
    return parser


def cmd_report(args: argparse.Namespace) -> int:
    from repro.evaluation.full_report import ReportOptions, build_full_report

    document = build_full_report(
        ReportOptions(
            language=args.language,
            num_repos=args.repos,
            seed=args.seed,
            include_dl=not args.no_dl,
            min_pattern_support=args.min_support,
            min_path_frequency=args.min_frequency,
        )
    )
    pathlib.Path(args.out).write_text(document)
    print(f"evaluation report written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is how shell
        # pipelines end, not an error.  Detach stdout so the interpreter
        # shutdown does not print a second BrokenPipeError.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
