"""Edge-case coverage: fixer word boundaries, local-stats featurization,
report helpers, and Datalog corner cases."""

import numpy as np
import pytest

from repro.core.features import extract_features
from repro.core.fixer import FixResult, apply_fix
from repro.core.namepath import extract_name_paths
from repro.core.patterns import confusing_word_pattern, find_violation
from repro.core.reports import Report, render_fixed_identifier
from repro.core.stats_index import StatsIndex
from repro.core.transform import transform_statement
from repro.datalog.engine import Program
from repro.datalog.terms import Rule, atom
from repro.lang.python_frontend import parse_statement
from repro.mining.confusing_pairs import ConfusingPairStore


def make_report(source: str, observed_position: int, correct: str, line: int = 1):
    """A classifier-free report targeting one subtoken of ``source``."""
    stmt = parse_statement(source)
    stmt.file_path, stmt.line = "f.py", line
    transformed = transform_statement(stmt)
    transformed.file_path, transformed.line = "f.py", line
    paths = extract_name_paths(transformed, max_paths=10)
    named = [p for p in paths if p.end not in (None, "NUM", "STR", "BOOL")]
    target = named[observed_position]
    pattern = confusing_word_pattern(
        [p for p in paths if p.prefix != target.prefix][:2],
        target.with_end(correct),
    )
    violation = find_violation(pattern, transformed, paths)
    assert violation is not None
    return Report(violation=violation, features=np.zeros(17))


class TestFixerWordBoundaries:
    def test_substring_identifier_untouched(self):
        """Fixing ``por`` must not touch ``portal`` on the same line."""
        report = make_report("portal = por", observed_position=1, correct="port")
        result = apply_fix("portal = por\n", report)
        assert result.applied
        assert result.source == "portal = port\n"

    def test_first_occurrence_only(self):
        report = make_report("x = por", observed_position=1, correct="port")
        result = apply_fix("por = por\n", report)
        assert result.applied
        # only one occurrence replaced
        assert result.source.count("port") == 1

    def test_fix_on_correct_line_of_many(self):
        report = make_report("x = por", observed_position=1, correct="port", line=3)
        source = "a = por\nb = por\nx = por\n"
        result = apply_fix(source, report)
        assert result.source.splitlines()[2] == "x = port"
        assert result.source.splitlines()[0] == "a = por"

    def test_unapplied_result_has_empty_diff(self):
        result = FixResult(applied=False, source="x = port\n")
        assert result.diff() == ""


class TestLocalStatsFeaturization:
    def test_local_stats_fill_file_levels(self, fitted_namer):
        violation = fitted_namer.all_violations()[0]
        paths = extract_name_paths(violation.statement, max_paths=10)
        empty_local = StatsIndex()
        vec_empty = extract_features(
            violation, paths, fitted_namer.stats, ConfusingPairStore(),
            local_stats=empty_local,
        )
        vec_global = extract_features(
            violation, paths, fitted_namer.stats, ConfusingPairStore()
        )
        # dataset-level features (indices 5, 8, 11) are identical...
        for i in (5, 8, 11):
            assert vec_empty[i] == vec_global[i]
        # ...while file-level identical-statement count reads zero from
        # the empty local index
        assert vec_empty[1] == 0.0

    def test_detect_uses_local_stats(self, fitted_namer):
        # detect() must not raise on a file outside the mined corpus
        from repro.core.prepare import prepare_file
        from repro.corpus.model import SourceFile

        prepared = prepare_file(
            SourceFile(path="fresh.py", source="value = 1\nother = value\n"),
            repo="fresh",
        )
        assert fitted_namer.detect(prepared) == []


class TestReportHelpers:
    def test_render_fix_preserves_snake(self):
        report = make_report(
            "num_or_process = 3", observed_position=1, correct="of"
        )
        assert render_fixed_identifier(report.violation) == "num_of_process"

    def test_report_properties(self):
        report = make_report("x = por", observed_position=1, correct="port")
        assert report.file_path == "f.py"
        assert report.observed == "por" and report.suggested == "port"
        assert "por" in report.describe()


class TestDatalogCorners:
    EDGE_TO_PATH = Rule(atom("path", "?X", "?Y"), (atom("edge", "?X", "?Y"),))

    def test_duplicate_facts_idempotent(self):
        db = Program([self.EDGE_TO_PATH]).solve({"edge": [("a", "b"), ("a", "b")]})
        assert db["path"] == {("a", "b")}

    def test_rule_with_no_matching_facts(self):
        db = Program([self.EDGE_TO_PATH]).solve({})
        assert db.get("path", set()) == set()

    def test_arity_mismatch_rows_skipped(self):
        rows = [("a", "b"), ("a", "b", "c")]  # wrong arity: dropped
        db = Program([self.EDGE_TO_PATH]).solve({"edge": rows})
        assert db["path"] == {("a", "b")}
        assert db["edge"] == {("a", "b")}

    def test_self_join(self):
        program = Program([Rule(atom("loop", "?X"), (atom("edge", "?X", "?X"),))])
        db = program.solve({"edge": [("a", "a"), ("a", "b")]})
        assert db["loop"] == {("a",)}
