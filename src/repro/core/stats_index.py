"""Corpus-level statistics backing the defect classifier's features.

Most of Table 1's features are counts of matches, satisfactions and
violations of a pattern at three levels — the file containing the
statement, its repository, and the entire mining dataset.  One file's
index is built from one matcher scan of its statements
(:meth:`~repro.mining.matcher.PatternMatcher.scan_entries`); the corpus
index is the shard-ordered :meth:`StatsIndex.merge` of those, alongside
identical-statement counts (features 2-3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.patterns import NamePattern
from repro.lang.astir import StatementAst

__all__ = ["StatsIndex"]


@dataclass
class StatsIndex:
    """Match/satisfaction/violation counts per pattern and level.

    Counters are keyed by pattern *index* — ``(scope, index)`` at file
    and repo level, ``index`` at dataset level — the same integers the
    JSON artifact and the frozen blob store.  Queries take the pattern
    itself and resolve it through ``pattern_index``, the matcher's
    :attr:`~repro.mining.matcher.PatternMatcher.pattern_index` table,
    attached with :meth:`bind`.  The table is never pickled, so cache
    entries hold counts only.
    """

    matches: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter(), "dataset": Counter()}
    )
    satisfactions: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter(), "dataset": Counter()}
    )
    violations: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter(), "dataset": Counter()}
    )
    statement_counts: dict[str, Counter] = field(
        default_factory=lambda: {"file": Counter(), "repo": Counter()}
    )
    total_statements: int = 0
    pattern_index: Mapping[tuple, int] | None = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        entries: Sequence[tuple],
        aggregates: tuple[Mapping[int, int], Mapping[int, int], Mapping[int, int]],
    ) -> "StatsIndex":
        """One file's index from its ``(stmt, ...)`` entries and the
        ``(matches, satisfactions, violations)`` aggregates
        :meth:`~repro.mining.matcher.PatternMatcher.scan_entries`
        returned for them: ``{pattern index: count}`` dicts in
        first-bump order, which becomes counter insertion order.

        All entries come from one prepared file (one file path, one
        repo), so every scope collapses to that file's per-pattern
        count.
        """
        index = cls()
        file_path = repo = None
        file_counts = index.statement_counts["file"]
        repo_counts = index.statement_counts["repo"]
        for entry in entries:
            stmt = entry[0]
            struct = stmt.structural_key()
            file_path = stmt.file_path
            repo = stmt.repo
            file_counts[(file_path, struct)] += 1
            repo_counts[(repo, struct)] += 1
        index.total_statements = len(entries)
        for counts, table in zip(
            aggregates, (index.matches, index.satisfactions, index.violations)
        ):
            table["file"].update({(file_path, i): n for i, n in counts.items()})
            table["repo"].update({(repo, i): n for i, n in counts.items()})
            table["dataset"].update(counts)
        return index

    #: one-line alias kept only because the benchmark's trace table
    #: (``benchmarks/namerbench/launch.py`` ``LAYERS``) names it
    build_from_relations = build

    @classmethod
    def merge(cls, indices: Iterable["StatsIndex"]) -> "StatsIndex":
        """Concatenate per-file (or per-shard) indexes into one.

        ``Counter.update`` preserves first-seen insertion order, so
        merging indexes in corpus order reproduces the counter ordering
        of bumping every relation of the corpus in turn — serialized
        output stays byte-identical however the corpus was split.
        """
        merged = cls()
        for index in indices:
            for name in ("matches", "satisfactions", "violations"):
                target = getattr(merged, name)
                for level, counter in getattr(index, name).items():
                    target[level].update(counter)
            for level, counter in index.statement_counts.items():
                merged.statement_counts[level].update(counter)
            merged.total_statements += index.total_statements
        return merged

    def bind(self, matcher) -> "StatsIndex":
        """Resolve query patterns through ``matcher``'s pattern table."""
        self.pattern_index = matcher.pattern_index
        return self

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["pattern_index"] = None
        return state

    # ------------------------------------------------------------------
    # Queries used by the feature extractor
    # ------------------------------------------------------------------

    def identical_statements(self, stmt: StatementAst, level: str) -> int:
        struct = stmt.structural_key()
        scope = stmt.file_path if level == "file" else stmt.repo
        return self.statement_counts[level][(scope, struct)]

    def match_count(self, pattern: NamePattern, stmt: StatementAst, level: str) -> int:
        return self._lookup(self.matches, pattern, stmt, level)

    def satisfaction_count(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> int:
        return self._lookup(self.satisfactions, pattern, stmt, level)

    def violation_count(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> int:
        return self._lookup(self.violations, pattern, stmt, level)

    def satisfaction_rate(
        self, pattern: NamePattern, stmt: StatementAst, level: str
    ) -> float:
        matched = self.match_count(pattern, stmt, level)
        if matched == 0:
            return 0.0
        return self.satisfaction_count(pattern, stmt, level) / matched

    def _lookup(
        self,
        table: dict[str, Counter],
        pattern: NamePattern,
        stmt: StatementAst,
        level: str,
    ) -> int:
        counter = table[level]
        if not counter:
            return 0
        if self.pattern_index is None:
            raise RuntimeError("StatsIndex queried before bind(matcher)")
        idx = self.pattern_index.get(pattern.key())
        if level == "dataset":
            return counter[idx]
        scope = stmt.file_path if level == "file" else stmt.repo
        return counter[(scope, idx)]


#: one-line alias kept only because the benchmark's trace table
#: (``benchmarks/namerbench/launch.py`` ``LAYERS``) names it
FileStatsView = StatsIndex
