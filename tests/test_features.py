"""Tests for the 17-feature extractor and the statistics index."""

import numpy as np

from repro.core.features import FEATURE_NAMES, NUM_FEATURES, extract_features
from repro.core.namepath import extract_name_paths
from repro.core.patterns import PatternKind
from repro.core.stats_index import StatsIndex
from repro.core.transform import transform_statement
from repro.lang.python_frontend import parse_statement
from repro.mining.confusing_pairs import ConfusingPairStore
from repro.mining.matcher import PatternMatcher
from repro.mining.miner import MiningConfig, PatternMiner


def build_world():
    """A small idiom corpus plus one violating statement, with stats."""
    stmts = []
    names = ["user", "record", "packet", "widget", "frame"]
    for i, name in enumerate(names * 8):
        stmt = transform_statement(
            parse_statement(f"self.assertEqual({name}.size, {i})"),
            origins={"self": "TestCase"},
        )
        stmt.file_path, stmt.repo = f"r/f{i % 4}.py", "r"
        stmts.append(stmt)
    bug = transform_statement(
        parse_statement("self.assertTrue(picture.rotate_angle, 90)"),
        origins={"self": "TestCase"},
    )
    bug.file_path, bug.repo = "r/f0.py", "r"
    stmts.append(bug)

    miner = PatternMiner(
        MiningConfig(min_pattern_support=10, min_path_frequency=5),
        confusing_pairs=[("True", "Equal")],
    )
    patterns = miner.mine(stmts, PatternKind.CONFUSING_WORD).patterns
    matcher = PatternMatcher(patterns)
    by_file = {}
    for s in stmts:
        paths = extract_name_paths(s, max_paths=10)
        by_file.setdefault(s.file_path, []).append(
            (s, paths, matcher.prepare_ids(paths))
        )
    stats = StatsIndex.merge(
        StatsIndex.build(entries, matcher.scan_entries(entries)[1])
        for entries in by_file.values()
    ).bind(matcher)
    paths = extract_name_paths(bug, max_paths=10)
    violations = matcher.violations(bug, paths)
    return stmts, matcher, stats, violations, paths


class TestStatsIndex:
    def test_total_statements(self):
        stmts, _, stats, _, _ = build_world()
        assert stats.total_statements == len(stmts)

    def test_identical_statement_counts(self):
        stmts, matcher, stats, violations, _ = build_world()
        bug = violations[0].statement
        assert stats.identical_statements(bug, "file") == 1
        assert stats.identical_statements(bug, "repo") == 1

    def test_satisfaction_rate_dataset_high(self):
        _, _, stats, violations, _ = build_world()
        pattern = violations[0].pattern
        stmt = violations[0].statement
        assert stats.satisfaction_rate(pattern, stmt, "dataset") > 0.8

    def test_violation_count_dataset(self):
        _, _, stats, violations, _ = build_world()
        pattern = violations[0].pattern
        stmt = violations[0].statement
        assert stats.violation_count(pattern, stmt, "dataset") >= 1

    def test_match_equals_sat_plus_viol(self):
        _, _, stats, violations, _ = build_world()
        pattern = violations[0].pattern
        stmt = violations[0].statement
        for level in ("file", "repo", "dataset"):
            assert stats.match_count(pattern, stmt, level) == stats.satisfaction_count(
                pattern, stmt, level
            ) + stats.violation_count(pattern, stmt, level)

    def test_zero_for_unseen_scope(self):
        _, _, stats, violations, _ = build_world()
        stmt = violations[0].statement
        other = transform_statement(parse_statement("x = 1"))
        other.file_path, other.repo = "other/f.py", "other"
        assert stats.identical_statements(other, "file") == 0


class TestExtractFeatures:
    def test_vector_shape_and_names(self):
        assert NUM_FEATURES == 17 == len(FEATURE_NAMES)
        _, _, stats, violations, paths = build_world()
        vec = extract_features(violations[0], paths, stats, ConfusingPairStore())
        assert vec.shape == (17,)
        assert np.isfinite(vec).all()

    def test_num_paths_feature(self):
        _, _, stats, violations, paths = build_world()
        vec = extract_features(violations[0], paths, stats, ConfusingPairStore())
        assert vec[0] == len(paths)

    def test_confusing_pair_feature(self):
        _, _, stats, violations, paths = build_world()
        store = ConfusingPairStore()
        store.add("True", "Equal")
        with_pair = extract_features(violations[0], paths, stats, store)
        without = extract_features(violations[0], paths, stats, ConfusingPairStore())
        assert with_pair[16] == 1.0 and without[16] == 0.0

    def test_edit_distance_feature(self):
        _, _, stats, violations, paths = build_world()
        vec = extract_features(violations[0], paths, stats, ConfusingPairStore())
        assert vec[15] == 4.0  # True -> Equal

    def test_function_name_feature(self):
        _, _, stats, violations, paths = build_world()
        vec = extract_features(violations[0], paths, stats, ConfusingPairStore())
        assert vec[12] == 1.0  # assert pattern targets a function name

    def test_match_ratio_in_unit_interval(self):
        _, _, stats, violations, paths = build_world()
        vec = extract_features(violations[0], paths, stats, ConfusingPairStore())
        assert 0.0 <= vec[14] <= 1.0 + 1e-9
