"""Interned path IDs: the table and its ID-domain consumers.

:class:`PathInterner` assigns every distinct ``NamePath`` a dense
integer ID in first-occurrence order, and the mining and detection hot
loops run on those IDs.  These tests pin the table's invariants
directly, hold the ID-domain scans against the spec oracle
(``tests/spec_oracle.py``), and hold reports and quarantine records
against the committed golden digests.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.namer import Namer, NamerConfig
from repro.core.patterns import PatternKind
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining import PIPELINE_VERSION
from repro.mining.interner import (
    PathInterner,
    ShardPathCounts,
    merge_shard_path_counts,
)
from repro.mining.matcher import prefix_frequencies_ids
from repro.mining.miner import MiningConfig, PatternMiner
from tests import goldens as g
from tests.spec_oracle import spec_relations, spec_violations

SMALL = MiningConfig(min_pattern_support=8, min_path_frequency=4)


@pytest.fixture(scope="module")
def trained_namer():
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=8, issue_rate=0.15, seed=23)
    )
    namer = Namer(NamerConfig(mining=SMALL))
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


@pytest.fixture(scope="module")
def path_lists(statements):
    return [paths for _, paths in statements]


@pytest.fixture
def serving_interner(fitted_namer):
    """The golden corpus's namer scanning through a fresh serve-time
    interner that grows with the traffic, instead of the corpus one."""
    original = fitted_namer.matcher._automaton._interner
    fitted_namer.matcher.attach_interner(PathInterner())
    try:
        yield fitted_namer
    finally:
        fitted_namer.matcher.attach_interner(original)


class TestPathInterner:
    """The core table: first-occurrence IDs and derived lookup tables."""

    def test_first_occurrence_order(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        assert len(id_lists) == len(path_lists)
        # The n-th distinct path in stream order gets ID n.
        seen: dict = {}
        for paths in path_lists:
            for path in paths:
                if path not in seen:
                    seen[path] = len(seen)
        assert interner.paths == list(seen)
        assert all(
            interner.id_of(path) == pid for path, pid in seen.items()
        )
        # Round trip: every ID array resolves back to its input row.
        for paths, ids in zip(path_lists, id_lists):
            assert ids.dtype == np.int32
            assert [interner.resolve(int(i)) for i in ids] == list(paths)

    def test_build_matches_streaming_intern(self, path_lists):
        built, _ = PathInterner.build(path_lists)
        streamed = PathInterner()
        for paths in path_lists:
            for path in paths:
                streamed.intern(path)
        assert streamed.paths == built.paths
        assert len(streamed) == len(built)
        assert all(p in streamed for p in built.paths)

    def test_intern_capped(self, path_lists):
        flat = [p for paths in path_lists for p in paths]
        distinct: list = []
        for p in flat:
            if p not in distinct:
                distinct.append(p)
            if len(distinct) == 3:
                break
        interner = PathInterner(distinct[:2])
        # Known paths resolve under any cap; unknown past the cap -> -1.
        assert interner.intern_capped(distinct[0], 2) == 0
        assert interner.intern_capped(distinct[2], 2) == -1
        assert distinct[2] not in interner
        # Room left: the unknown path is admitted and memoized.
        assert interner.intern_capped(distinct[2], 3) == 2
        assert interner.intern_capped(distinct[2], 3) == 2

    def test_symbolic_table(self, path_lists):
        interner, _ = PathInterner.build(path_lists)
        concrete = len(interner)
        sym = interner.ensure_symbolic()
        assert len(sym) >= concrete
        for pid in range(concrete):
            path = interner.resolve(pid)
            expected = path if path.end is None else path.as_symbolic()
            assert interner.resolve(sym[pid]) == expected
        # Symbolic entries map to themselves.
        for pid in range(len(interner)):
            if interner.resolve(pid).end is None:
                assert interner.ensure_symbolic()[pid] == pid
        # Deterministic: a second interner over the same vocabulary
        # assigns identical symbolic IDs.
        twin = PathInterner(interner.paths[:concrete])
        assert twin.ensure_symbolic() == sym[:len(twin.ensure_symbolic())]
        assert twin.paths == interner.paths

    def test_sort_ranks_reproduce_legacy_sort(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        rank = interner.sort_ranks()
        checked = 0
        for paths, ids in zip(path_lists, id_lists):
            if len(paths) < 2:
                continue
            by_rank = sorted((int(i) for i in ids), key=rank.__getitem__)
            legacy = [interner.id_of(p) for p in sorted(paths)]
            assert by_rank == legacy
            checked += 1
        assert checked, "need multi-path statements to exercise sorting"

    def test_fold_and_name_ok_tables(self, path_lists):
        interner, _ = PathInterner.build(path_lists)
        interner.ensure_symbolic()
        fold = interner.fold_table()
        ok = interner.name_ok_table()
        assert len(fold) == len(interner) == len(ok)
        for a in range(len(interner)):
            pa = interner.resolve(a)
            assert ok[a] == (pa.end not in (None, "NUM", "STR", "BOOL"))
            if pa.end is None:
                assert fold[a] == -1
        # Fold IDs equal iff casefolded ends equal (concrete entries).
        concrete = [
            pid for pid in range(len(interner))
            if interner.resolve(pid).end is not None
        ]
        for a in concrete[:40]:
            for b in concrete[:40]:
                same = (
                    interner.resolve(a).end.casefold()
                    == interner.resolve(b).end.casefold()
                )
                assert (fold[a] == fold[b]) == same

    def test_pickle_ships_vocabulary_only(self, path_lists):
        interner, _ = PathInterner.build(path_lists)
        interner.ensure_symbolic()
        interner.sort_ranks()
        loaded = pickle.loads(pickle.dumps(interner))
        assert loaded.paths == interner.paths
        assert all(
            loaded.id_of(p) == interner.id_of(p) for p in interner.paths
        )
        # Derived tables rebuild identically on the other side.
        assert loaded.ensure_symbolic() == interner.ensure_symbolic()
        assert loaded.sort_ranks() == interner.sort_ranks()
        assert loaded.fold_table() == interner.fold_table()

    def test_schema_constant_is_int(self):
        assert isinstance(PIPELINE_VERSION, int)


class TestShardMerge:
    """Vocabulary-carrying shard summaries remap to the flat build."""

    def test_merge_equals_flat_build(self, path_lists):
        flat_interner, id_lists = PathInterner.build(path_lists)
        flat_counts = np.bincount(
            np.concatenate(id_lists), minlength=len(flat_interner)
        )
        third = max(1, len(id_lists) // 3)
        shards = [
            id_lists[:third],
            id_lists[third : 2 * third],
            id_lists[2 * third :],
        ]
        summaries = [
            ShardPathCounts.from_id_arrays(shard, flat_interner)
            for shard in shards
        ]
        # Merging contiguous in-order summaries into a FRESH interner
        # reproduces the serial first-occurrence assignment exactly.
        fresh = PathInterner()
        merged = merge_shard_path_counts(summaries, fresh)
        assert fresh.paths == flat_interner.paths
        assert merged.tolist() == flat_counts.tolist()

    def test_merge_survives_pickle(self, path_lists):
        """Shard summaries cross the process boundary; the remap must
        not care."""
        interner, id_lists = PathInterner.build(path_lists)
        half = len(id_lists) // 2
        summaries = [
            ShardPathCounts.from_id_arrays(id_lists[:half], interner),
            ShardPathCounts.from_id_arrays(id_lists[half:], interner),
        ]
        shipped = [pickle.loads(pickle.dumps(s)) for s in summaries]
        assert shipped == summaries
        fresh_a, fresh_b = PathInterner(), PathInterner()
        assert merge_shard_path_counts(
            shipped, fresh_a
        ).tolist() == merge_shard_path_counts(summaries, fresh_b).tolist()
        assert fresh_a.paths == fresh_b.paths

    def test_empty_shard(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        empty = ShardPathCounts.from_id_arrays([], interner)
        assert empty.vocab == [] and empty.counts == []
        full = ShardPathCounts.from_id_arrays(id_lists, interner)
        fresh = PathInterner()
        merged = merge_shard_path_counts([empty, full, empty], fresh)
        assert fresh.paths == interner.paths
        assert merged.sum() == sum(len(row) for row in id_lists)


class TestFrequencyParity:
    """The vectorized prefix-frequency table vs a direct count."""

    def test_prefix_frequencies_ids_parity(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        interner.ensure_symbolic()
        got = prefix_frequencies_ids(id_lists, interner)
        expected: Counter = Counter()
        for paths in path_lists:
            for path in paths:
                expected[path.prefix] += 1
        assert got == expected
        # First-seen key order is part of the merge/serialization
        # contract, not just the values.
        assert list(got) == list(expected)

    def test_empty_corpus(self):
        assert prefix_frequencies_ids([], PathInterner()) == {}


class TestMinedArtifactParity:
    """PatternMiner.mine entry points: extracting the paths itself,
    taking extracted paths, or taking a prebuilt corpus interner all
    mine the same patterns, serially and sharded."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_documents_identical(self, trained_namer, workers):
        statements = [
            ps.stmt for pf in trained_namer.prepared for ps in pf.statements
        ]
        paths = [
            ps.paths for pf in trained_namer.prepared for ps in pf.statements
        ]
        interner, id_lists = PathInterner.build(paths)
        pairs = [("True", "Equal"), ("Equal", "True")]

        def mined(**kwargs):
            miner = PatternMiner(SMALL, confusing_pairs=pairs)
            return [
                (p.key(), p.support)
                for kind in PatternKind
                for p in miner.mine(
                    statements, kind, workers=workers, **kwargs
                ).patterns
            ]

        reference = mined(paths=paths)
        assert reference, "corpus must mine patterns"
        assert mined() == reference
        assert mined(paths=paths, interner=interner, id_lists=id_lists) == (
            reference
        )


class TestDifferentialDetect:
    """Detection through pre-resolved IDs."""

    def test_relations_parity(self, trained_namer, statements):
        interned = trained_namer.matcher
        matched = 0
        for stmt, paths in statements:
            ids = interned.prepare_ids(paths)
            assert min(ids, default=0) >= 0
            rel = interned.relations(paths, ids)
            assert rel == spec_relations(interned.patterns, paths)
            # The auto-resolving route (no ids passed) agrees too.
            assert interned.relations(paths) == rel
            matched += len(rel)
            assert interned.violations(stmt, paths, ids) == spec_violations(
                interned.patterns, stmt, paths
            )
        assert matched, "corpus must exercise the matchers"

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_byte_identical_reports(self, serving_interner, workers):
        namer = serving_interner
        got = g.report_digests(namer, namer.prepared, workers=workers)
        assert got == g.load_goldens()["python"]["reports"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_parity_under_faults(self, serving_interner, workers):
        namer = serving_interner
        expected = g.load_goldens()["python"]["faults"]
        reports, records = g.detect_under_faults(
            namer, namer.prepared, workers=workers
        )
        assert records == expected["detect_quarantine"]
        assert reports == expected["reports"]

    def test_pickle_keeps_interner_drops_tables(self, trained_namer):
        """A matcher crossing the process boundary keeps its vocabulary
        (the interner travels) but rebuilds the scratch per-ID tables —
        the spawn-platform shipping path of the pooled prune/detect."""
        interned = trained_namer.matcher
        loaded = pickle.loads(pickle.dumps(interned))
        automaton = loaded._automaton
        assert automaton._interner is not None
        assert automaton._interner.paths == (
            interned._automaton._interner.paths
        )
        assert "_pid_node" not in automaton.__dict__
        for stmt, paths in [
            (ps.stmt, ps.paths)
            for pf in trained_namer.prepared[:4]
            for ps in pf.statements
        ]:
            ids = loaded.prepare_ids(paths)
            assert loaded.relations(paths, ids) == interned.relations(paths)
