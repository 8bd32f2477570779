"""Performance benchmark: sharded parallel mining.

Times the miner's frequency/growth/prune passes serially and over a
4-worker process pool on the same prepared statements, asserts the two
produce identical patterns (the bit-identity contract of
``src/repro/parallel/``), and writes the measurements — including the
per-phase profiler rows — to ``BENCH_mining.json`` at the repo root.

The speedup floor is only enforced when the machine actually has the
benchmark's worker count available; a 1-core box still runs the
equivalence check and emits the JSON.  ``REPRO_BENCH_MIN_SPEEDUP``
overrides the floor, and ``REPRO_BENCH_ENFORCE_SPEEDUP=0`` demotes a
miss to an advisory message — what shared CI runners with noisy
neighbours use, reserving the hard floor for dedicated perf machines.
The equivalence assertion is never relaxed by either variable.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from conftest import bench_machine, print_table

from repro.core.namer import Namer, NamerConfig
from repro.core.patterns import PatternKind
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.miner import MiningConfig, PatternMiner
from repro.parallel.executor import ShardExecutor, default_workers
from repro.parallel.profiler import PhaseProfiler, format_phase_table
from repro.parallel.sharding import pack_spans, spans_by_group

BENCH_WORKERS = 4
BENCH_OUT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_mining.json"
MINING = MiningConfig(min_pattern_support=20, min_path_frequency=8)


@pytest.fixture(scope="module")
def mining_input():
    """Prepared statements and paths plus the per-repo shard plan."""
    # Large enough that shard compute dwarfs the fixed pool overhead
    # (fork, task dispatch, merging) on a 4-core runner.
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=90, issue_rate=0.12, seed=7)
    )
    namer = Namer(NamerConfig(mining=MINING))
    prepared = namer.prepare(corpus)
    statements = [ps.stmt for pf in prepared for ps in pf.statements]
    paths = [ps.paths for pf in prepared for ps in pf.statements]
    spans = spans_by_group((pf.repo, len(pf.statements)) for pf in prepared)
    return statements, paths, spans


def _fingerprint(results):
    return [(p.key(), p.support) for r in results for p in r.patterns]


def _mine_both_kinds(miner, statements, paths, *, executor, spans, profiler):
    return [
        miner.mine(
            statements,
            kind,
            paths=paths,
            spans=spans,
            profiler=profiler,
            executor=executor,
        )
        for kind in (PatternKind.CONSISTENCY, PatternKind.CONFUSING_WORD)
    ]


ROUNDS = 2  # best-of: the first parallel round pays fork/copy-on-write warm-up


def test_parallel_mining_speedup(mining_input):
    statements, paths, repo_spans = mining_input
    # One miner per arm: the frequency memo (kind-independent path
    # counts) is per-instance, so each arm warms only itself and the
    # best-of rounds stay comparable across arms.
    serial_miner = PatternMiner(MINING, confusing_pairs=[("True", "Equal")])
    parallel_miner = PatternMiner(MINING, confusing_pairs=[("True", "Equal")])

    serial_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        with ShardExecutor(1) as executor:
            serial = _mine_both_kinds(
                serial_miner,
                statements,
                paths,
                executor=executor,
                spans=None,
                profiler=PhaseProfiler(),
            )
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    parallel_seconds = float("inf")
    for _ in range(ROUNDS):
        profiler = PhaseProfiler()
        start = time.perf_counter()
        with ShardExecutor(BENCH_WORKERS) as executor:
            spans = pack_spans(repo_spans, executor.shard_hint(len(statements)))
            parallel = _mine_both_kinds(
                parallel_miner,
                statements,
                paths,
                executor=executor,
                spans=spans,
                profiler=profiler,
            )
        parallel_seconds = min(parallel_seconds, time.perf_counter() - start)

    assert _fingerprint(parallel) == _fingerprint(serial), (
        "sharded mining must be bit-identical to serial mining"
    )

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    phases = profiler.to_json()
    # The intern pass (corpus-wide path -> dense-ID table) is memoized
    # on the miner across best-of rounds, so only the round that built
    # the table carries the "intern" row; the recorded profiler is the
    # last round's and may legitimately lack it.
    assert {row["phase"] for row in phases} - {"intern"} == {
        "frequency",
        "growth",
        "generate",
        "prune",
        "prune_shard",  # worker-side prune seconds + shard task count
    }, "miner must fill the caller's profiler"
    # A 4-worker pool time-slicing fewer than 4 cores measures scheduler
    # contention, not parallel mining: keep the raw numbers (the phase
    # rows are still meaningful) but stamp the record advisory so nobody
    # reads the starved-runner "speedup" as a regression.
    starved = default_workers() < BENCH_WORKERS
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.3"))
    enforce = os.environ.get("REPRO_BENCH_ENFORCE_SPEEDUP", "1") != "0"
    record = {
        "workers": BENCH_WORKERS,
        "cores": default_workers(),
        **bench_machine(),
        "shards": len(spans),
        "statements": len(statements),
        "patterns": len(_fingerprint(serial)),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 2),
        "phases": phases,
    }
    if starved:
        record["advisory"] = True
        record["advisory_reason"] = (
            f"starved runner: {default_workers()} usable core(s) for "
            f"{BENCH_WORKERS} workers"
        )
    elif speedup < min_speedup and not enforce:
        record["advisory"] = True
        record["advisory_reason"] = (
            f"missed floor: {speedup:.2f}x < {min_speedup}x "
            f"(enforcement disabled)"
        )
    BENCH_OUT.write_text(json.dumps(record, indent=2) + "\n")

    headline = (
        f"speedup: {speedup:.2f}x\n"
        if not starved
        else f"speedup: n/a ({default_workers()} core(s) for "
        f"{BENCH_WORKERS} workers — advisory record)\n"
    )
    print_table(
        f"Performance — sharded mining at {BENCH_WORKERS} workers",
        f"statements: {len(statements)}, shards: {len(spans)}\n"
        f"serial: {serial_seconds:.2f} s\n"
        f"parallel: {parallel_seconds:.2f} s\n"
        + headline
        + "\n"
        + format_phase_table(phases),
    )

    if starved:
        print(f"[advisory] {record['advisory_reason']}")
    elif speedup < min_speedup:
        message = (
            f"expected >= {min_speedup}x at {BENCH_WORKERS} workers, "
            f"got {speedup:.2f}x"
        )
        if enforce:
            pytest.fail(message)
        # Shared runners with noisy neighbours report instead of flaking;
        # the bit-identity assertion above is never relaxed.
        print(f"[advisory] {record['advisory_reason']}")
