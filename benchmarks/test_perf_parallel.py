"""Multi-core floors: sharded mining and batch detection at 4 workers.

Each test times a serial arm and a 4-worker process-pool arm over the
same input (best of two rounds: the first parallel round pays fork
warm-up), asserts the two produce identical output, and asserts the
pool is faster by a fixed floor.  A pool time-slicing fewer cores than
it has workers measures scheduler contention, not parallelism, so the
module skips on machines with fewer than 4 usable cores.  Every other
speed claim is measured end to end by namerbench (``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import print_table

from repro.core.namer import Namer, NamerConfig
from repro.core.patterns import PatternKind
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.miner import MiningConfig, PatternMiner
from repro.parallel.executor import ShardExecutor, usable_cores
from repro.parallel.sharding import pack_spans, spans_by_group

WORKERS = 4
ROUNDS = 2
MINING = MiningConfig(min_pattern_support=20, min_path_frequency=8)
#: sharded frequency/growth/prune passes over serial
MINING_FLOOR = 1.3
#: ``detect_many`` over a prepared corpus, pool over serial
DETECT_FLOOR = 1.5

pytestmark = pytest.mark.skipif(
    usable_cores() < WORKERS,
    reason=f"needs {WORKERS} usable cores, this machine grants {usable_cores()}",
)


def _best_of(run) -> tuple[float, object]:
    """The fastest of ``ROUNDS`` calls and the last call's result."""
    best, result = float("inf"), None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_sharded_mining_speedup():
    # Large enough that shard compute dwarfs the fixed pool overhead
    # (fork, task dispatch, merging).
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=90, issue_rate=0.12, seed=7)
    )
    prepared = Namer(NamerConfig(mining=MINING)).prepare(corpus)
    statements = [ps.stmt for pf in prepared for ps in pf.statements]
    paths = [ps.paths for pf in prepared for ps in pf.statements]
    repo_spans = spans_by_group((pf.repo, len(pf.statements)) for pf in prepared)

    def mine(miner: PatternMiner, workers: int):
        with ShardExecutor(workers) as executor:
            spans = (
                pack_spans(repo_spans, executor.shard_hint(len(statements)))
                if workers > 1
                else None
            )
            results = [
                miner.mine(statements, kind, paths=paths, spans=spans, executor=executor)
                for kind in (PatternKind.CONSISTENCY, PatternKind.CONFUSING_WORD)
            ]
        return [(p.key(), p.support) for r in results for p in r.patterns]

    # One miner per arm: the miner memoizes its intern table and path
    # counts, so each arm's later rounds reuse only its own.
    serial_miner = PatternMiner(MINING, confusing_pairs=[("True", "Equal")])
    parallel_miner = PatternMiner(MINING, confusing_pairs=[("True", "Equal")])
    serial_seconds, serial = _best_of(lambda: mine(serial_miner, 1))
    parallel_seconds, parallel = _best_of(lambda: mine(parallel_miner, WORKERS))
    assert parallel == serial, "sharded mining must be bit-identical to serial"
    speedup = serial_seconds / parallel_seconds
    print_table(
        f"Sharded mining at {WORKERS} workers",
        f"statements: {len(statements)}, patterns: {len(serial)}\n"
        f"serial {serial_seconds:.2f} s, parallel {parallel_seconds:.2f} s, "
        f"speedup {speedup:.2f}x",
    )
    assert speedup >= MINING_FLOOR, (
        f"expected >= {MINING_FLOOR}x at {WORKERS} workers, got {speedup:.2f}x"
    )


def test_batch_detection_speedup():
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=60, issue_rate=0.12, seed=7)
    )
    namer = Namer(NamerConfig(mining=MINING))
    namer.mine(corpus)
    violations = namer.all_violations()[:80]
    namer.train(violations, [i % 2 for i in range(len(violations))])
    prepared = list(namer.prepared)

    def timed(workers: int) -> tuple[float, str]:
        with ShardExecutor(workers) as executor:
            namer.warm_detect(executor)
            seconds, groups = _best_of(
                lambda: namer.detect_many(prepared, executor=executor)
            )
        blob = json.dumps([[r.to_json() for r in g] for g in groups], sort_keys=True)
        return seconds, blob

    serial_seconds, serial = timed(1)
    parallel_seconds, parallel = timed(WORKERS)
    assert parallel == serial, "parallel detect_many must be byte-identical to serial"
    speedup = serial_seconds / parallel_seconds
    print_table(
        f"Batch detection at {WORKERS} workers",
        f"files: {len(prepared)}\n"
        f"serial {serial_seconds:.2f} s, parallel {parallel_seconds:.2f} s, "
        f"speedup {speedup:.2f}x",
    )
    assert speedup >= DETECT_FLOOR, (
        f"expected >= {DETECT_FLOOR}x at {WORKERS} workers, got {speedup:.2f}x"
    )
