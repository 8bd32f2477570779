"""Sharded mining must be bit-identical to serial mining.

The contract under test (see ``src/repro/parallel/``): for *any*
contiguous shard plan and *any* worker count, the mined patterns — their
sets, supports, and order — and the saved artifact bytes are identical
to a serial run.  The determinism holds under fault injection too: a
seeded fault plan trips on the same (site, key) pairs whether the check
runs inline or inside a pool worker.
"""

from __future__ import annotations

import pytest

from repro.core.namepath import NamePath, PathStep
from repro.core.namer import Namer, NamerConfig
from repro.core.patterns import PatternKind
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.fptree import FPTree
from repro.mining.interner import PathInterner
from repro.mining.miner import MiningConfig, PatternMiner, generate_patterns_ids
from repro.parallel.executor import ShardExecutor, default_workers
from repro.parallel.merge import merge_count_pairs
from repro.parallel.profiler import PhaseProfiler, format_phase_table
from repro.parallel.sharding import (
    even_spans,
    pack_spans,
    slice_spans,
    spans_by_group,
)
from repro.resilience.faults import (
    FAULTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)

from . import test_miner
from .test_detect_parallel import CountingExecutor
from .test_miner import idiom_corpus

SMALL = MiningConfig(min_pattern_support=10, min_path_frequency=5)


# ----------------------------------------------------------------------
# Shard plans
# ----------------------------------------------------------------------


class TestSharding:
    def test_even_spans_partition(self):
        spans = even_spans(10, 3)
        assert spans == [(0, 4), (4, 7), (7, 10)]

    def test_even_spans_more_shards_than_items(self):
        assert even_spans(2, 5) == [(0, 1), (1, 2)]
        assert even_spans(0, 4) == []

    def test_spans_by_group_collapses_runs(self):
        rows = [("a", 2), ("a", 3), ("b", 1), ("c", 0), ("c", 4)]
        assert spans_by_group(rows) == [(0, 5), (5, 6), (6, 10)]

    def test_spans_by_group_skips_empty_runs(self):
        assert spans_by_group([("a", 0), ("b", 2)]) == [(0, 2)]
        assert spans_by_group([]) == []

    def test_pack_spans_balances_without_splitting(self):
        spans = [(0, 4), (4, 8), (8, 10)]
        assert pack_spans(spans, 3) == [(0, 4), (4, 8), (8, 10)]
        assert pack_spans(spans, 2) == [(0, 8), (8, 10)]
        assert pack_spans(spans, 1) == [(0, 10)]

    def test_pack_spans_never_exceeds_span_count(self):
        spans = [(0, 9), (9, 10)]
        packed = pack_spans(spans, 5)
        assert packed == [(0, 9), (9, 10)]

    def test_pack_spans_covers_contiguously(self):
        spans = spans_by_group((str(i % 7), 1 + i % 3) for i in range(50))
        for shards in (1, 2, 3, 8):
            packed = pack_spans(spans, shards)
            assert packed[0][0] == spans[0][0]
            assert packed[-1][1] == spans[-1][1]
            for (_, stop), (start, _) in zip(packed, packed[1:]):
                assert stop == start

    def test_slice_spans(self):
        items = list(range(10))
        assert slice_spans(items, [(0, 3), (3, 10)]) == [
            [0, 1, 2],
            [3, 4, 5, 6, 7, 8, 9],
        ]


# ----------------------------------------------------------------------
# Mergeable summaries
# ----------------------------------------------------------------------


class TestMerge:
    def test_merge_count_pairs(self):
        m, s = merge_count_pairs([({0: 2, 1: 1}, {0: 1}), ({1: 4}, {1: 2})])
        assert m == {0: 2, 1: 5}
        assert s == {0: 1, 1: 2}


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------


class TestProfiler:
    def test_phase_accumulates_same_name(self):
        ticks = iter(range(100))
        profiler = PhaseProfiler(clock=lambda: next(ticks))
        with profiler.phase("growth", items=5):
            pass
        with profiler.phase("growth", items=7):
            pass
        (row,) = profiler.rows()
        assert (row.phase, row.items, row.calls) == ("growth", 12, 2)
        assert row.seconds == 2.0

    def test_phase_records_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("prepare"):
                raise RuntimeError("boom")
        assert profiler.rows()[0].phase == "prepare"

    def test_json_roundtrip(self):
        profiler = PhaseProfiler()
        profiler.record("stats", 1.5, items=10)
        rows = profiler.to_json()
        restored = PhaseProfiler.from_json(rows)
        assert restored.to_json() == rows
        assert restored.seconds_for("stats") == 1.5

    def test_empty_profiler_is_truthy(self):
        # Guards the ``profiler or PhaseProfiler()`` idiom: an empty
        # profiler handed to the miner must be filled, not replaced.
        assert PhaseProfiler()

    def test_miner_fills_caller_profiler(self):
        profiler = PhaseProfiler()
        miner = PatternMiner(SMALL, confusing_pairs=[("True", "Equal")])
        miner.mine(idiom_corpus(20), PatternKind.CONFUSING_WORD, profiler=profiler)
        # Without a caller-built interner the miner interns the corpus
        # itself, under its own phase row.  A serial run maps the same
        # prune tasks inline, so their seconds land in prune_shard too.
        assert {row.phase for row in profiler.rows()} == {
            "intern",
            "frequency",
            "growth",
            "generate",
            "prune_shard",
            "prune",
        }

    def test_pooled_miner_fills_caller_profiler(self):
        # Pool workers send their prune seconds back as prune_shard rows
        # on the caller's profiler.
        profiler = PhaseProfiler()
        miner = PatternMiner(SMALL, confusing_pairs=[("True", "Equal")])
        miner.mine(
            idiom_corpus(20), PatternKind.CONFUSING_WORD, profiler=profiler, workers=2
        )
        assert {row.phase for row in profiler.rows()} == {
            "intern",
            "frequency",
            "growth",
            "generate",
            "prune_shard",
            "prune",
        }

    def test_format_phase_table(self):
        table = format_phase_table(
            [{"phase": "growth", "seconds": 1.0, "items": 3, "calls": 2}]
        )
        assert "growth" in table and "100.0%" in table
        assert format_phase_table([]) == ""


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _sum_shard(payload) -> int:
    from repro.parallel.executor import resolve_shard

    return sum(resolve_shard(payload))


class TestShardExecutor:
    def test_inline_when_single_worker(self):
        with ShardExecutor(1) as executor:
            assert not executor.parallel
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert executor._pool is None

    def test_pool_map_preserves_order(self):
        with ShardExecutor(2) as executor:
            assert executor.map(_square, list(range(20))) == [
                x * x for x in range(20)
            ]

    def test_shard_hint_bounds(self):
        executor = ShardExecutor(4)
        assert executor.shard_hint(100) == 8
        assert executor.shard_hint(3) == 3
        assert ShardExecutor(1).shard_hint(100) == 1

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    @pytest.mark.parametrize(
        "cores, expected", [(1, 1), (2, 1), (3, 1), (4, 4), (16, 16)]
    )
    def test_default_workers_serial_below_four_cores(
        self, monkeypatch, cores, expected
    ):
        from repro.parallel import executor as ex

        monkeypatch.setattr(
            ex.os, "sched_getaffinity", lambda pid: set(range(cores))
        )
        assert ex.usable_cores() == cores
        assert default_workers() == expected

    def test_fork_unavailable_when_default_is_not_fork(self, monkeypatch):
        # An *unset* start method must resolve to the platform default,
        # not be assumed fork-capable (macOS defaults to spawn, Python
        # 3.14+ Linux to forkserver, with os.fork present on both).
        from repro.parallel import executor as ex

        monkeypatch.setattr(ex, "_resolved_start_method", lambda: "spawn")
        assert not ex._fork_available()
        monkeypatch.setattr(ex, "_resolved_start_method", lambda: "forkserver")
        assert not ex._fork_available()

    def test_non_fork_platform_ships_real_slices(self, monkeypatch):
        # With fork unavailable, shard_payloads must fall back to real
        # slices that pool workers can consume without inherited memory.
        from repro.parallel import executor as ex

        monkeypatch.setattr(ex, "_fork_available", lambda: False)
        with ShardExecutor(2) as executor:
            payloads = executor.shard_payloads(list(range(10)), [(0, 5), (5, 10)])
            assert payloads == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
            assert executor.map(_sum_shard, payloads) == [10, 35]

    def test_pool_pinned_to_fork_when_slices_shared(self):
        from repro.parallel import executor as ex
        from repro.parallel.executor import SharedSlice

        if not ex._fork_available():
            pytest.skip("fork start method unavailable on this platform")
        with ShardExecutor(2) as executor:
            payloads = executor.shard_payloads(list(range(6)), [(0, 3), (3, 6)])
            assert all(isinstance(p, SharedSlice) for p in payloads)
            assert executor.map(_sum_shard, payloads) == [3, 12]
            pool_method = executor._pool._mp_context.get_start_method()
            assert pool_method == "fork"


# ----------------------------------------------------------------------
# NamePath hashes are stable and survive process boundaries
# ----------------------------------------------------------------------


class TestNamePathHashCache:
    def test_hash_cached_and_stable(self):
        p = NamePath(prefix=(PathStep("Call", 0),), end="size")
        assert hash(p) == hash(p)
        assert hash(p) == hash(NamePath(prefix=(PathStep("Call", 0),), end="size"))


# ----------------------------------------------------------------------
# Bit-identity: sharded mining == serial mining
# ----------------------------------------------------------------------


def _fingerprint(result):
    return [
        (p.key(), p.support, p.kind) for p in result.patterns
    ], (
        result.total_statements,
        result.total_transactions,
        result.fp_tree_nodes,
        result.candidates_before_pruning,
    )


class TestShardedMiningEquivalence:
    @pytest.fixture(scope="class")
    def statements(self):
        # The assertEqual idiom mines confusing-word patterns, the
        # self.x = x idiom consistency patterns.
        return idiom_corpus(60) + test_miner.TestConsistencyMining().make_corpus()

    @pytest.fixture(scope="class")
    def miner(self):
        return PatternMiner(SMALL, confusing_pairs=[("True", "Equal")])

    @pytest.fixture(scope="class")
    def serial(self, miner, statements):
        return {
            kind: _fingerprint(miner.mine(statements, kind, workers=1))
            for kind in PatternKind
        }

    def _check(self, serial, mine):
        for kind in PatternKind:
            assert _fingerprint(mine(kind)) == serial[kind], kind
            assert serial[kind][0], f"{kind} equivalence is vacuous without patterns"

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_shard_plan_invisible(self, miner, statements, serial, shards):
        spans = even_spans(len(statements), shards)
        with ShardExecutor(2) as executor:
            self._check(
                serial,
                lambda kind: miner.mine(
                    statements, kind, spans=spans, executor=executor
                ),
            )

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_serial_executor_runs_every_span(
        self, miner, statements, serial, shards, cached, tmp_path
    ):
        """A serial executor maps the same per-span tasks inline: every
        pass dispatches one task per span, uncached or through a cold
        and then a warm cache, and the output does not move."""
        from repro.cache import ContentCache

        spans = even_spans(len(statements), shards)
        cache = ContentCache(str(tmp_path / "cache")) if cached else None
        keys = [f"span-{start}-{stop}" for start, stop in spans] if cached else None
        for run in ("cold", "warm") if cached else ("uncached",):
            with CountingExecutor(1) as executor:
                self._check(
                    serial,
                    lambda kind: miner.mine(
                        statements,
                        kind,
                        spans=spans,
                        executor=executor,
                        cache=cache,
                        shard_keys=keys,
                    ),
                )
            if run == "warm":
                # the whole-kind memo answers before any pass runs
                assert executor.task_counts == []
            else:
                assert executor.task_counts
                assert set(executor.task_counts) == {len(spans)}

    def test_workers_invisible(self, miner, statements, serial):
        self._check(
            serial, lambda kind: miner.mine(statements, kind, workers=2)
        )

    def test_empty_statements(self, miner):
        result = miner.mine([], PatternKind.CONFUSING_WORD, workers=2)
        assert result.patterns == []
        assert result.total_statements == 0


class TestSpanValidation:
    """A malformed caller-supplied plan must error, never silently drop
    (gap) or double-count (overlap) statements — see miner._validate_spans."""

    @pytest.fixture(scope="class")
    def statements(self):
        return idiom_corpus(10)

    @pytest.fixture(scope="class")
    def miner(self):
        return PatternMiner(SMALL, confusing_pairs=[("True", "Equal")])

    def _mine(self, miner, statements, spans, workers=2):
        return miner.mine(
            statements, PatternKind.CONFUSING_WORD, spans=spans, workers=workers
        )

    def test_gap_rejected(self, miner, statements):
        n = len(statements)
        with pytest.raises(ValueError, match="contiguously partition"):
            self._mine(miner, statements, [(0, 3), (4, n)])

    def test_overlap_rejected(self, miner, statements):
        n = len(statements)
        with pytest.raises(ValueError, match="contiguously partition"):
            self._mine(miner, statements, [(0, 5), (4, n)])

    def test_nonzero_start_rejected(self, miner, statements):
        n = len(statements)
        with pytest.raises(ValueError, match="contiguously partition"):
            self._mine(miner, statements, [(1, n)])

    def test_short_coverage_rejected(self, miner, statements):
        n = len(statements)
        with pytest.raises(ValueError, match=f"there are {n}"):
            self._mine(miner, statements, [(0, n - 1)])

    def test_serial_mode_validates_too(self, miner, statements):
        n = len(statements)
        with pytest.raises(ValueError, match=f"there are {n}"):
            self._mine(miner, statements, [(0, n - 1)], workers=1)

    def test_exact_partition_accepted(self, miner, statements):
        n = len(statements)
        result = self._mine(miner, statements, [(0, 4), (4, 4), (4, n)])
        assert result.total_statements == n


# ----------------------------------------------------------------------
# Namer-level: byte-identical artifacts, identical quarantine
# ----------------------------------------------------------------------


def _mine_corpus():
    return generate_python_corpus(
        GeneratorConfig(num_repos=8, issue_rate=0.15, seed=31)
    )


class TestNamerParallelEquivalence:
    @pytest.fixture(scope="class")
    def corpus(self):
        return _mine_corpus()

    def _summary_key(self, summary):
        # Timings and collector passes measure the run, not its output.
        return {
            k: v
            for k, v in summary.__dict__.items()
            if k not in ("phase_timings", "gc")
        }

    def test_artifacts_byte_identical(self, corpus, tmp_path_factory):
        from repro.core.persistence import namer_to_document, save_document

        out = tmp_path_factory.mktemp("artifacts")
        namers = {}
        for workers in (1, 2):
            namer = Namer(NamerConfig(mining=SMALL, workers=workers))
            namer.mine(corpus)
            save_document(namer_to_document(namer), out / f"w{workers}.json")
            namers[workers] = namer
        assert (out / "w1.json").read_bytes() == (out / "w2.json").read_bytes()
        assert namers[1].matcher.patterns, "corpus mined no patterns"
        assert self._summary_key(namers[1].summary) == self._summary_key(
            namers[2].summary
        )

    def test_phase_timings_cover_pipeline(self, corpus):
        namer = Namer(NamerConfig(mining=SMALL, workers=2))
        summary = namer.mine(corpus)
        phases = [row["phase"] for row in summary.phase_timings]
        # prune_shard precedes prune: the worker-side seconds are
        # recorded inside the prune block, before its own row closes.
        assert phases == [
            "pairs",
            "prepare",
            "intern",
            "frequency",
            "growth",
            "generate",
            "prune_shard",
            "prune",
            "stats",
        ]
        # The four miner passes ran once per pattern kind.
        by_name = {row["phase"]: row for row in summary.phase_timings}
        assert by_name["frequency"]["calls"] == 2
        # The per-shard prune row reports real fanned-out shard tasks.
        assert by_name["prune_shard"]["items"] >= 2
        assert all(row["seconds"] >= 0.0 for row in summary.phase_timings)

    def test_quarantine_identical_under_faults(self, corpus):
        plan_spec = dict(site="corpus.prepare_file", rate=0.4)
        results = {}
        for workers in (1, 2):
            with FAULTS.armed(FaultPlan([FaultSpec(**plan_spec)], seed=3)):
                namer = Namer(NamerConfig(mining=SMALL, workers=workers))
                namer.mine(corpus)
            results[workers] = (
                [(r.path, r.stage) for r in namer.quarantine.records],
                [(p.key(), p.support) for p in namer.matcher.patterns],
            )
        assert results[1] == results[2]
        assert results[1][0], "fault plan tripped nothing — test is vacuous"

    def test_shard_fault_site_deterministic(self, corpus):
        plan = FaultPlan(
            [FaultSpec(site="mining.shard", match="consistency:0")], seed=1
        )
        for workers in (1, 2):
            with FAULTS.armed(plan):
                namer = Namer(NamerConfig(mining=SMALL, workers=workers))
                with pytest.raises(InjectedFault):
                    namer.mine(corpus)


# ----------------------------------------------------------------------
# Deep FP trees must not hit the recursion limit
# ----------------------------------------------------------------------


class TestDeepTree:
    def test_generate_patterns_on_deep_chain(self):
        depth = 3000
        chain = [
            NamePath(prefix=(PathStep("Call", i),), end="word")
            for i in range(depth)
        ]
        interner = PathInterner(chain)
        tree = FPTree()
        tree.update([interner.id_of(p) for p in chain])
        candidates = generate_patterns_ids(
            tree.root,
            PatternKind.CONFUSING_WORD,
            interner.ensure_symbolic(),
            max_condition_paths=3,
            condition_subsets="full",
        )
        assert len(candidates) == 1
        ((cond, deduct, support),) = candidates
        assert len(cond) == 3
        assert interner.resolve(deduct[0]) == chain[-1]
        assert support == 1
