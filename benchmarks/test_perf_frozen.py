"""Performance benchmark: frozen matcher artifacts.

Mines the benchmark corpus once, freezes the trained namer into the
mmap blob (``repro.mining.frozen``), and measures what the frozen tier
exists for:

1. **Serial match phase.** ``detect_many`` over the whole prepared
   corpus through the frozen-loaded namer's automaton walk, best-of-N.
   Recorded, not enforced.
2. **Cold start.** ``load_frozen_namer`` (zero-copy mmap) against the
   JSON ``load_namer`` decode of the same artifact, best-of-N; floor
   ``REPRO_BENCH_MIN_COLDSTART_SPEEDUP`` (default 10x).  The loaded
   namer must re-encode to the exact bytes of the JSON artifact's
   document — damage-is-a-miss only works if the blob is lossless.
3. **N-replica memory.** A real 2-replica cluster serving the frozen
   blob: per-replica ``VmRSS`` from ``/proc`` plus the startup metrics
   the replicas report (``startup_seconds``/``artifact_load_seconds``/
   ``artifact_source``).  Recorded, not enforced — RSS depends on the
   allocator and the runner.

``REPRO_BENCH_ENFORCE_SPEEDUP=0`` demotes a missed floor to an
advisory record, as everywhere else.  Results land under the
``"frozen"`` key of ``BENCH_serving.json``, preserving the file's
other records.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from conftest import bench_machine, print_table

from repro.core.namer import Namer, NamerConfig
from repro.core.persistence import load_namer, namer_to_document, save_namer
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.frozen import freeze_namer, load_frozen_namer
from repro.mining.miner import MiningConfig
from repro.service.cluster_http import serve_cluster

BENCH_OUT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_serving.json"
MINING = MiningConfig(min_pattern_support=20, min_path_frequency=8)
ROUNDS = 3  # best-of: the first round pays cache warm-up
REPLICAS = 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=60, issue_rate=0.12, seed=7)
    )
    namer = Namer(NamerConfig(mining=MINING))
    namer.mine(corpus)
    violations = namer.all_violations()[:80]
    namer.train(violations, [i % 2 for i in range(len(violations))])
    root = tmp_path_factory.mktemp("frozen-bench")
    artifact = root / "namer.json"
    save_namer(namer, artifact)
    frozen_path = artifact.with_name(artifact.name + ".frozen")
    summary = freeze_namer(namer, frozen_path)
    return namer, artifact, frozen_path, summary


def _merge_record(record: dict) -> None:
    """Set the ``"frozen"`` key, keeping the file's other records."""
    prior = {}
    if BENCH_OUT.exists():
        try:
            prior = json.loads(BENCH_OUT.read_text())
        except ValueError:
            prior = {}
    prior["frozen"] = record
    BENCH_OUT.write_text(json.dumps(prior, indent=2) + "\n")


def _match_seconds(namer) -> float:
    """Best-of-ROUNDS serial match seconds."""
    from repro.parallel.profiler import PhaseProfiler

    best = None
    for _ in range(ROUNDS):
        profiler = PhaseProfiler()
        namer.detect_many(list(namer.prepared), profiler=profiler)
        rows = {r["phase"]: r["seconds"] for r in profiler.to_json()}
        if best is None or rows["match"] < best:
            best = rows["match"]
    return best


def _vm_rss_kb(pid: int) -> int | None:
    try:
        text = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    return None


def test_frozen_speedups(trained):
    namer, artifact, frozen_path, summary = trained
    min_cold = float(
        os.environ.get("REPRO_BENCH_MIN_COLDSTART_SPEEDUP", "10.0")
    )
    enforce = os.environ.get("REPRO_BENCH_ENFORCE_SPEEDUP", "1") != "0"
    record: dict = {
        **bench_machine(),
        "patterns": summary["patterns"],
        "blob_bytes": summary["bytes"],
        "json_bytes": artifact.stat().st_size,
    }
    advisories: list[str] = []

    # 1. serial match phase
    match_seconds = _match_seconds(namer)
    record["match"] = {
        "files": len(namer.prepared),
        "seconds": round(match_seconds, 3),
    }

    # 2. cold start: mmap load vs JSON decode, lossless re-encode
    json_seconds = min(
        _timed(lambda: load_namer(artifact)) for _ in range(ROUNDS)
    )
    cold_best = None
    for _ in range(ROUNDS):
        seconds, loaded = _timed_value(lambda: load_frozen_namer(frozen_path))
        if cold_best is None or seconds < cold_best:
            cold_best = seconds
    reference = json.dumps(namer_to_document(namer), sort_keys=True)
    assert json.dumps(namer_to_document(loaded), sort_keys=True) == reference, (
        "the frozen load must re-encode to the exact JSON document"
    )
    cold_speedup = json_seconds / max(cold_best, 1e-9)
    record["cold_start"] = {
        "json_seconds": round(json_seconds, 4),
        "frozen_seconds": round(cold_best, 4),
        "speedup": round(cold_speedup, 2),
    }
    if cold_speedup < min_cold:
        advisories.append(
            f"cold-start speedup {cold_speedup:.2f}x < {min_cold}x floor"
        )

    # 3. replica fleet: per-replica RSS + the startup metrics satellite
    server = serve_cluster(
        str(artifact), port=0, replicas=REPLICAS, replica_workers=2
    )
    try:
        replicas = []
        for handle in server.coordinator.handles:
            status = handle.status_json()
            assert status["artifact_source"] == "frozen", status
            assert status["startup_seconds"] is not None
            assert status["artifact_load_seconds"] is not None
            replicas.append(
                {
                    "name": status["name"],
                    "vm_rss_kb": _vm_rss_kb(status["pid"]),
                    "startup_seconds": round(status["startup_seconds"], 3),
                    "artifact_load_seconds": round(
                        status["artifact_load_seconds"], 4
                    ),
                    "artifact_source": status["artifact_source"],
                }
            )
    finally:
        server.stop()
    record["replicas"] = replicas

    if advisories and not enforce:
        record["advisory"] = True
        record["advisory_reason"] = "; ".join(advisories) + (
            " (enforcement disabled)"
        )
    _merge_record(record)

    rss = ", ".join(
        f"{r['name']}: {r['vm_rss_kb'] or '?'} kB" for r in replicas
    )
    print_table(
        "Performance — frozen matcher artifacts",
        f"blob: {summary['bytes'] / 1024:.0f} kB "
        f"({summary['arrays']} arrays, {summary['patterns']} patterns)\n"
        f"match:      {match_seconds:.3f} s\n"
        f"cold start: {json_seconds * 1000:.1f} ms -> "
        f"{cold_best * 1000:.1f} ms ({cold_speedup:.2f}x)\n"
        f"replica RSS ({REPLICAS} frozen replicas): {rss}",
    )
    if enforce:
        assert cold_speedup >= min_cold, (
            f"cold-start speedup {cold_speedup:.2f}x below the "
            f"{min_cold}x floor"
        )


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _timed_value(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value
