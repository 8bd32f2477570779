"""The compiled automaton against the paper's definitions.

The compiled :class:`MatchAutomaton` replaces per-pattern
``check_pattern`` with integer-domain checks against one shared trie.
Nothing about its *output* may differ from the definitions —
relations, violations, prune counts, enumeration order — for any
pattern subset, so every test here holds the automaton against the
slow spec oracle in ``tests/spec_oracle.py``; report bytes and
quarantine records are held against the committed golden digests.
"""

from __future__ import annotations

import json
import pickle
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.namer import Namer, NamerConfig
from repro.core.patterns import Relation, check_pattern
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining import PIPELINE_VERSION
from repro.mining.automaton import MatchAutomaton
from repro.mining.interner import PathInterner
from repro.mining.matcher import PatternMatcher, prefix_frequencies_ids
from repro.mining.miner import MiningConfig, _count_matches_ids
from repro.parallel.executor import (
    ShardExecutor,
    SharedContext,
    resolve_context,
)
from tests import goldens as g
from tests.spec_oracle import spec_counts, spec_relations, spec_violations


@pytest.fixture(scope="module")
def trained_namer():
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=8, issue_rate=0.15, seed=31)
    )
    namer = Namer(
        NamerConfig(
            mining=MiningConfig(min_pattern_support=8, min_path_frequency=4)
        )
    )
    namer.mine(corpus)
    violations = namer.all_violations()[:40]
    namer.train(violations, [i % 2 for i in range(len(violations))])
    return namer


@pytest.fixture(scope="module")
def statements(trained_namer):
    """(stmt, paths) pairs across the whole prepared corpus."""
    return [
        (ps.stmt, ps.paths)
        for pf in trained_namer.prepared
        for ps in pf.statements
    ]


def report_blob(groups) -> str:
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


def assert_matches_spec(matcher: PatternMatcher, statements) -> int:
    """Relations and violations of every statement equal the spec
    oracle's, order included; returns the number of relations seen."""
    matched = 0
    for stmt, paths in statements:
        relations = matcher.relations(paths)
        assert relations == spec_relations(matcher.patterns, paths)
        assert matcher.violations(stmt, paths) == spec_violations(
            matcher.patterns, stmt, paths
        )
        matched += len(relations)
    return matched


class TestDifferentialRelations:
    """relations()/violations() against the spec, statement by statement."""

    def test_full_pattern_set(self, trained_namer, statements):
        matched = assert_matches_spec(trained_namer.matcher, statements)
        assert matched, "corpus must exercise the matcher"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pattern_subsets(self, trained_namer, statements, seed):
        patterns = trained_namer.matcher.patterns
        rng = random.Random(seed)
        subset = rng.sample(patterns, max(1, len(patterns) // 3))
        assert_matches_spec(PatternMatcher(subset), statements)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_relation_sets_equal_check_pattern(
        self, trained_namer, statements, data
    ):
        """Over random pattern subsets, the set of automaton relations
        is exactly the set of ``check_pattern`` results with NO_MATCH
        dropped (the goldens pin the order)."""
        patterns = trained_namer.matcher.patterns
        chosen = data.draw(
            st.lists(
                st.integers(0, len(patterns) - 1),
                min_size=1,
                max_size=len(patterns),
                unique=True,
            )
        )
        subset = [patterns[i] for i in chosen]
        matcher = PatternMatcher(subset)
        for _, paths in statements:
            expected = {
                (idx, relation)
                for idx, pattern in enumerate(subset)
                if (relation := check_pattern(pattern, paths))
                is not Relation.NO_MATCH
            }
            assert set(matcher.relations(paths)) == expected

    def test_empty_pattern_set(self, statements):
        matcher = PatternMatcher([])
        for stmt, paths in statements[:50]:
            assert matcher.relations(paths) == []
            assert matcher.violations(stmt, paths) == []

    def test_single_pattern_set(self, trained_namer, statements):
        for pattern in trained_namer.matcher.patterns[:5]:
            assert_matches_spec(PatternMatcher([pattern]), statements)

    def test_duplicate_prefix_statement_paths(self, trained_namer, statements):
        """A statement carrying the same prefix twice orders candidates
        at the first occurrence but resolves lookups at the last."""
        checked = 0
        doctored = []
        for stmt, paths in statements:
            if len(paths) < 2:
                continue
            doctored.append((stmt, list(paths) + [paths[0], paths[-1]]))
            checked += 1
            if checked >= 40:
                break
        assert checked, "need statements with at least two paths"
        assert_matches_spec(trained_namer.matcher, doctored)

    def test_shared_anchor_buckets_exist(self, trained_namer):
        """The mined set must actually exercise shared accept sets —
        several patterns anchored at one trie node — or the ordering
        assertions above prove less than they claim."""
        automaton = trained_namer.matcher._automaton
        assert any(len(b) > 1 for b in automaton._accepts.values())

    def test_rescan_is_stateless(self, trained_namer, statements):
        """No scan may leak state into the next (same or different
        statement)."""
        auto = trained_namer.matcher
        sample = statements[:60]
        first = [auto.relations(paths) for _, paths in sample]
        second = [auto.relations(paths) for _, paths in reversed(sample)]
        assert first == list(reversed(second))


class TestDifferentialReports:
    """End-to-end detect_many against the goldens, serial and parallel,
    through a matcher anchored by pattern-set rarity instead of corpus
    rarity (anchor layout must never reach the bytes)."""

    @pytest.fixture
    def fallback_anchored(self, fitted_namer):
        original = fitted_namer.matcher
        fitted_namer.matcher = PatternMatcher(original.patterns)
        try:
            yield fitted_namer
        finally:
            fitted_namer.matcher = original

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_byte_identical_reports(self, fallback_anchored, workers):
        namer = fallback_anchored
        got = g.report_digests(namer, namer.prepared, workers=workers)
        assert got == g.load_goldens()["python"]["reports"]

    def test_repeat_scan_replay_identical(self, trained_namer):
        """Two detect passes over the same namer (warm scan arrays,
        bumped generations) must be byte-identical."""
        namer = trained_namer
        first = report_blob(namer.detect_many(namer.prepared))
        second = report_blob(namer.detect_many(namer.prepared))
        assert second == first

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_parity_under_faults(self, fallback_anchored, workers):
        namer = fallback_anchored
        expected = g.load_goldens()["python"]["faults"]
        reports, records = g.detect_under_faults(
            namer, namer.prepared, workers=workers
        )
        assert records == expected["detect_quarantine"]
        assert reports == expected["reports"]


class TestPruneParity:
    """The miner's prune counts through the shared automaton matcher."""

    @pytest.fixture(scope="class")
    def interned(self, statements):
        interner, id_lists = PathInterner.build(
            [paths for _, paths in statements]
        )
        interner.ensure_symbolic()
        return interner, id_lists, [ids.tolist() for ids in id_lists]

    def test_count_matches_backend_parity(
        self, trained_namer, statements, interned
    ):
        patterns = trained_namer.matcher.patterns
        interner, id_lists, id_rows = interned
        matcher = PatternMatcher(
            patterns,
            prefix_counts=prefix_frequencies_ids(id_lists, interner),
            interner=interner,
        )
        expected = spec_counts(patterns, [paths for _, paths in statements])
        got = _count_matches_ids(matcher, id_rows)
        assert got == expected
        # Key order is part of the prune-cache entry bytes.
        assert [list(c) for c in got] == [list(c) for c in expected]

    def test_counts_anchor_independent(self, trained_namer, interned):
        """Corpus-rarity anchors and fallback anchors must count
        identically — the invariant that lets one shared matcher serve
        every shard layout and the cache."""
        patterns = trained_namer.matcher.patterns
        interner, id_lists, id_rows = interned
        with_corpus = _count_matches_ids(
            PatternMatcher(
                patterns,
                prefix_counts=prefix_frequencies_ids(id_lists, interner),
                interner=interner,
            ),
            id_rows,
        )
        fallback = PatternMatcher(patterns, interner=interner)
        assert _count_matches_ids(fallback, id_rows) == with_corpus


class TestFallbackFrequencies:
    """The artifact-load fallback rarity table is read off the trie."""

    def test_fallback_counts_match_recounting(self, trained_namer):
        patterns = trained_namer.matcher.patterns
        expected = Counter(
            d.prefix for p in patterns for d in sorted(p.deduction)
        )
        matcher = PatternMatcher(patterns)  # no corpus table: fallback
        assert matcher.prefix_counts == expected
        # Key order is part of the frozen blob's bytes, not just the
        # values: first seen over the pattern list, each pattern's
        # deductions walked in sorted order.  A set's own iteration
        # order would vary by process (symbolic paths hash ``None``).
        assert list(matcher.prefix_counts) == list(expected)
        automaton = matcher._automaton
        assert automaton is not None
        assert automaton.deduction_prefix_counts() == expected

    def test_artifact_load_builds_automaton(self, trained_namer, tmp_path):
        from repro.core.persistence import (
            load_namer,
            namer_to_document,
            save_document,
        )

        artifact = tmp_path / "namer.json"
        save_document(namer_to_document(trained_namer), str(artifact))
        loaded = load_namer(str(artifact))
        assert loaded.matcher._automaton is not None
        expected = Counter(
            d.prefix
            for p in loaded.matcher.patterns
            for d in sorted(p.deduction)
        )
        assert loaded.matcher.prefix_counts == expected
        assert list(loaded.matcher.prefix_counts) == list(expected)


class TestConcurrentGrowth:
    @pytest.mark.parametrize("round_", range(3))
    def test_threads_growing_the_vocabulary_keep_tables_aligned(
        self, trained_namer, statements, round_
    ):
        """A serving engine's queue threads resolve novel paths through
        one automaton at once: every ID must still name its own path,
        every per-ID table row must exist exactly once, and scans must
        agree with a serially grown automaton."""
        matcher = PatternMatcher(trained_namer.matcher.patterns)
        auto = matcher._automaton
        threads = 4
        chunks = [statements[k::threads] for k in range(threads)]
        resolved: list = [None] * threads
        barrier = threading.Barrier(threads)

        def grow(k):
            barrier.wait(timeout=60)
            resolved[k] = [(paths, auto.ids_of(paths)) for _, paths in chunks[k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=grow, args=(k,)) for k in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        interner = auto._interner
        for rows in resolved:
            for paths, ids in rows:
                assert [interner.resolve(i) for i in ids] == list(paths)
        assert len(auto._pid_node) == len(auto._pid_end) == len(interner)
        serial = PatternMatcher(trained_namer.matcher.patterns)
        for stmt, paths in statements:
            assert matcher.relations(paths) == serial.relations(paths)

    def test_threads_scanning_past_the_cap_agree_with_serial(
        self, trained_namer
    ):
        """Queue threads scanning one automaton through a capped
        interner: paths past the cap are resolved on every scan, and
        each thread's violation rows and aggregates (order included)
        must equal a serial scan through the corpus interner."""
        files = list(trained_namer.prepared)
        reference = trained_namer.matcher
        expected = [
            reference.scan_entries(
                [
                    (ps.stmt, ps.paths, reference.prepare_ids(ps.paths))
                    for ps in pf.statements
                ]
            )
            for pf in files
        ]
        vocabulary = len(reference._automaton._interner)
        threads = 2
        for cap in (0, vocabulary // 2):
            matcher = PatternMatcher(reference.patterns)
            matcher.attach_interner(PathInterner(), cap=cap)
            results: dict[int, tuple] = {}
            barrier = threading.Barrier(threads)

            def scan(k):
                barrier.wait(timeout=60)
                for i in range(k, len(files), threads):
                    entries = [
                        (ps.stmt, ps.paths, matcher.prepare_ids(ps.paths))
                        for ps in files[i].statements
                    ]
                    results[i] = matcher.scan_entries(entries)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [
                    threading.Thread(target=scan, args=(k,))
                    for k in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            assert len(matcher._automaton._interner) == cap
            for i, want in enumerate(expected):
                viol_rows, aggregates = results[i]
                assert viol_rows == want[0], (cap, i)
                assert [list(a.items()) for a in aggregates] == [
                    list(a.items()) for a in want[1]
                ], (cap, i)


class TestMergeAndPickle:
    def test_pickle_roundtrip(self, trained_namer, statements):
        """A matcher that has already scanned must pickle without its
        scratch state and match identically on the other side — the
        spawn-platform shipping path."""
        auto = trained_namer.matcher
        sample = statements[:50]
        for _, paths in sample[:5]:
            auto.relations(paths)  # populate scan scratch
        blob = pickle.dumps(auto)
        automaton_state = pickle.loads(
            pickle.dumps(auto._automaton)
        ).__dict__
        loaded = pickle.loads(blob)
        for stmt, paths in sample:
            assert loaded.relations(paths) == auto.relations(paths)
            assert loaded.violations(stmt, paths) == auto.violations(
                stmt, paths
            )

    def test_unfinalized_automaton_refuses_to_scan(self, trained_namer):
        automaton = MatchAutomaton(trained_namer.matcher.patterns[:2])
        with pytest.raises(RuntimeError, match="finalize"):
            automaton.relations([])

    def test_schema_constant_is_int(self):
        assert isinstance(PIPELINE_VERSION, int)


class TestSharedContext:
    """share_context ships the matcher once per pool, not per task."""

    def test_handle_before_pool_raw_after(self):
        value = {"model": 1}
        with ShardExecutor(2) as executor:
            handle = executor.share_context(value)
            assert isinstance(handle, SharedContext)
            assert resolve_context(handle) is value
            # Re-sharing the same object reuses the registration.
            assert executor.share_context(value) == handle
            executor.warm()
            late = executor.share_context({"model": 2})
            assert not isinstance(late, SharedContext)
            assert resolve_context(late) == {"model": 2}

    def test_serial_executor_ships_raw(self):
        with ShardExecutor(1) as executor:
            value = object()
            assert executor.share_context(value) is value

    def test_serial_executor_ships_plain_slices(self):
        from repro.parallel.executor import _SHARED

        before = dict(_SHARED)
        with ShardExecutor(1) as executor:
            payloads = executor.shard_payloads(list(range(6)), [(0, 2), (2, 6)])
            assert payloads == [[0, 1], [2, 3, 4, 5]]
            assert _SHARED == before

    def test_close_unregisters(self):
        from repro.parallel.executor import _SHARED

        executor = ShardExecutor(2)
        handle = executor.share_context(["ctx"])
        assert handle.key in _SHARED
        executor.close()
        assert handle.key not in _SHARED

    def test_workers_resolve_shared_context(self, trained_namer):
        """End to end: a pool created after share_context serves tasks
        that carry only the handle."""
        namer = trained_namer
        expected = report_blob(namer.detect_many(namer.prepared[:6]))
        with ShardExecutor(2) as executor:
            namer.warm_detect(executor)
            got = report_blob(
                namer.detect_many(namer.prepared[:6], executor=executor)
            )
        assert got == expected
