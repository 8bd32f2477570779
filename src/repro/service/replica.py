"""One cluster replica: an analysis server plus lifecycle plumbing.

``python -m repro.service.replica`` is what the cluster coordinator
spawns N times.  The protocol between coordinator and replica is
deliberately thin — files and signals, no bespoke IPC:

* **Port announcement.** The replica binds (``--port 0`` for an
  ephemeral port), then atomically writes the bound port into
  ``--port-file``.  The coordinator polls for that file instead of
  parsing stdout.
* **Liveness before readiness.** The HTTP listener starts *before* the
  expensive artifact load (``AnalysisEngine(defer_load=True)``), so
  ``/health`` answers immediately while ``/health?ready=1`` keeps
  answering 503 until the artifacts are loaded and the detect pool is
  warm.  The coordinator routes on readiness, not liveness.
* **Graceful shutdown.** SIGTERM/SIGINT set a stop event; the replica
  then stops accepting connections, finishes every in-flight request
  (the listener joins its handler threads and the bounded queue
  drains), and exits 0.  A coordinator draining a replica for a rolling
  reload and an operator bouncing a single ``repro serve`` both rely on
  this: no request that was accepted is ever dropped.

The same fault-injection plumbing as the rest of the pipeline applies:
``--fault-plan`` arms a :class:`~repro.resilience.faults.FaultPlan`
inside the replica process, so HA tests can delay or fail specific
replica-side stages deterministically.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
from pathlib import Path

from repro import IMPORT_STARTED
from repro.core.persistence import PersistenceError
from repro.service.engine import AnalysisEngine
from repro.service.server import AnalysisServer

__all__ = ["main", "write_port_file", "read_port_file"]


def write_port_file(path: str | Path, port: int) -> None:
    """Atomically announce the bound port (write + rename, so a polling
    coordinator never reads a half-written file)."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=".port-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{port}\n")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_port_file(path: str | Path) -> int | None:
    """The announced port, or ``None`` while the file is absent/empty."""
    try:
        text = Path(path).read_text().strip()
    except OSError:
        return None
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-replica",
        description="one analysis-cluster replica (spawned by the coordinator)",
    )
    parser.add_argument("--artifacts", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--port-file", default=None,
        help="announce the bound port here (atomic write)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--detect-workers", type=int, default=1)
    parser.add_argument("--queue-capacity", type=int, default=64)
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--strict-artifacts", action="store_true")
    parser.add_argument("--fault-plan", default=None, metavar="PLAN_JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.fault_plan is not None:
        from repro.resilience.faults import FAULTS, FaultPlan

        try:
            FAULTS.arm(FaultPlan.load(args.fault_plan))
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load fault plan: {exc}", file=sys.stderr)
            return 2

    engine = AnalysisEngine(
        artifact_path=args.artifacts,
        workers=args.workers,
        detect_workers=args.detect_workers,
        queue_capacity=args.queue_capacity,
        cache_entries=args.cache_size,
        cache_dir=args.cache_dir,
        degraded_ok=not args.strict_artifacts,
        defer_load=True,
    )
    # Report cold start from the first repro import, not engine
    # construction, so the number in /metrics matches what an operator
    # experiences.
    engine.mark_process_start(IMPORT_STARTED)
    try:
        server = AnalysisServer(engine, host=args.host, port=args.port, quiet=True)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)

    server.start()  # liveness first …
    if args.port_file:
        write_port_file(args.port_file, server.port)
    try:
        engine.complete_load()  # … readiness once this finishes
    except PersistenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        server.stop(drain=False)
        return 2
    print(
        f"replica ready on {server.url} (pid {os.getpid()}, "
        f"artifacts {args.artifacts})",
        file=sys.stderr,
    )
    stop.wait()
    print("replica draining in-flight requests ...", file=sys.stderr)
    server.stop(drain=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
