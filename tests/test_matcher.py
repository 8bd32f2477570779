"""Tests for the selectivity-anchored pattern matcher."""

from collections import Counter

from repro.core.namepath import extract_name_paths
from repro.core.patterns import PatternKind, Relation, check_pattern
from repro.core.transform import transform_statement
from repro.lang.python_frontend import parse_statement
from repro.mining.matcher import PatternMatcher
from repro.mining.miner import MiningConfig, PatternMiner
from tests.spec_oracle import spec_relations


def prefix_frequencies(path_lists):
    """Corpus prefix-frequency table, counted directly."""
    counts = Counter()
    for paths in path_lists:
        for path in paths:
            counts[path.prefix] += 1
    return counts


def anchors(matcher: PatternMatcher) -> dict:
    """pattern index -> the deduction prefix its accept set sits at."""
    automaton = matcher._automaton
    return {
        idx: automaton._node_prefix[node]
        for node, bucket in automaton._accepts.items()
        for idx in bucket
    }


def build_world():
    names = ["user", "record", "packet", "widget"]
    stmts = [
        transform_statement(
            parse_statement(f"self.assertEqual({n}.size, {i})"),
            origins={"self": "TestCase"},
        )
        for i, n in enumerate(names * 10)
    ]
    miner = PatternMiner(
        MiningConfig(min_pattern_support=5, min_path_frequency=4),
        confusing_pairs=[("True", "Equal")],
    )
    patterns = miner.mine(stmts, PatternKind.CONFUSING_WORD).patterns
    return stmts, patterns


class TestPatternMatcher:
    def test_candidates_complete(self):
        """The anchor filter must never miss a matching pattern."""
        stmts, patterns = build_world()
        matcher = PatternMatcher(patterns)
        for stmt in stmts[:10]:
            paths = extract_name_paths(stmt, max_paths=10)
            brute = {
                id(p)
                for p in patterns
                if check_pattern(p, paths) is not Relation.NO_MATCH
            }
            found = {id(patterns[idx]) for idx, _ in matcher.relations(paths)}
            assert brute == found

    def test_check_all_excludes_no_match(self):
        """Every relation the matcher reports is a real match."""
        stmts, patterns = build_world()
        matcher = PatternMatcher(patterns)
        paths = extract_name_paths(stmts[0], max_paths=10)
        for _, relation in matcher.relations(paths):
            assert relation is not Relation.NO_MATCH

    def test_len(self):
        _, patterns = build_world()
        assert len(PatternMatcher(patterns)) == len(patterns)

    def test_empty_matcher(self):
        matcher = PatternMatcher([])
        stmt = transform_statement(parse_statement("x = 1"))
        assert matcher.violations(stmt, extract_name_paths(stmt)) == []


class TestSelectivityIndex:
    def test_rarest_prefix_anchoring(self):
        """With a corpus frequency table, every pattern must be anchored
        at its rarest (lowest-count, ties lexicographic) deduction
        prefix rather than the lexicographic minimum."""
        stmts, patterns = build_world()
        path_lists = [extract_name_paths(s, max_paths=10) for s in stmts]
        counts = prefix_frequencies(path_lists)
        matcher = PatternMatcher(patterns, prefix_counts=counts)
        anchor_of = anchors(matcher)
        for idx, pattern in enumerate(patterns):
            expected = min(
                (d.prefix for d in pattern.deduction),
                key=lambda p: (counts.get(p, 0), p),
            )
            assert anchor_of[idx] == expected

    def test_fallback_rarity_is_pattern_frequency(self):
        """Without corpus counts the matcher's own deduction-prefix
        frequency table decides anchors."""
        _, patterns = build_world()
        matcher = PatternMatcher(patterns)
        expected = Counter(
            d.prefix for p in patterns for d in p.deduction
        )
        assert matcher.prefix_counts == expected

    def test_guard_keeps_all_matches(self):
        """The step-kind bitmask guard may reject candidates but must
        never reject a pattern that actually matches."""
        stmts, patterns = build_world()
        matcher = PatternMatcher(patterns)
        for stmt in stmts[:10]:
            paths = extract_name_paths(stmt, max_paths=10)
            assert matcher.relations(paths) == spec_relations(patterns, paths)

    def test_enumeration_order_is_anchor_independent(self):
        """Candidate order is part of the artifact-bytes contract: a
        matcher with corpus-tuned anchors must report every statement's
        relations in the same order as one with fallback anchors."""
        stmts, patterns = build_world()
        path_lists = [extract_name_paths(s, max_paths=10) for s in stmts]
        plain = PatternMatcher(patterns)
        tuned = PatternMatcher(
            patterns, prefix_counts=prefix_frequencies(path_lists)
        )
        for paths in path_lists:
            assert plain.relations(paths) == tuned.relations(paths)

    def test_duplicate_prefix_orders_at_first_occurrence(self):
        """A prefix appearing at two statement positions must order its
        patterns at the earliest one, as plain path iteration did."""
        stmts, patterns = build_world()
        matcher = PatternMatcher(patterns)
        paths = extract_name_paths(stmts[0], max_paths=10)
        doubled = list(paths) + list(paths)
        assert matcher.relations(doubled) == matcher.relations(paths)
