"""The paper's pattern semantics as a slow, obviously-correct oracle.

``check_pattern`` / ``find_violation`` (:mod:`repro.core.patterns`)
implement the match/satisfy/violate definitions of Section 3 directly.
These helpers apply them to every pattern of a set, one by one, and
order the results the way the compiled matcher promises: by the
statement position of the first occurrence of each pattern's
lexicographically smallest deduction prefix, then by pattern index.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core.namepath import NamePath, paths_by_prefix
from repro.core.patterns import (
    NamePattern,
    Relation,
    Violation,
    check_pattern,
    find_violation,
)


def _ordered(patterns: Sequence[NamePattern], paths: Sequence[NamePath], hits):
    first: dict = {}
    for pos, path in enumerate(paths):
        first.setdefault(path.prefix, pos)
    keyed = [
        (first[min(d.prefix for d in patterns[idx].deduction)], idx, value)
        for idx, value in hits
    ]
    keyed.sort(key=lambda row: row[:2])
    return [(idx, value) for _, idx, value in keyed]


def spec_relations(
    patterns: Sequence[NamePattern], paths: Sequence[NamePath]
) -> list[tuple[int, Relation]]:
    """``(pattern index, relation)`` for every pattern the statement
    matches (NO_MATCH dropped), in the pinned order."""
    index = paths_by_prefix(paths)
    hits = []
    for idx, pattern in enumerate(patterns):
        relation = check_pattern(pattern, paths, index)
        if relation is not Relation.NO_MATCH:
            hits.append((idx, relation))
    return _ordered(patterns, paths, hits)


def spec_violations(
    patterns: Sequence[NamePattern], stmt, paths: Sequence[NamePath]
) -> list[Violation]:
    """Every violation of the statement, in the pinned order."""
    index = paths_by_prefix(paths)
    hits = []
    for idx, pattern in enumerate(patterns):
        violation = find_violation(pattern, stmt, paths, index)
        if violation is not None:
            hits.append((idx, violation))
    return [v for _, v in _ordered(patterns, paths, hits)]


def spec_counts(
    patterns: Sequence[NamePattern], path_lists: Sequence[Sequence[NamePath]]
) -> tuple[Counter, Counter]:
    """The prune pass's per-pattern match / satisfaction counters."""
    match_counts: Counter = Counter()
    sat_counts: Counter = Counter()
    for paths in path_lists:
        for idx, relation in spec_relations(patterns, paths):
            match_counts[idx] += 1
            if relation is Relation.SATISFIED:
                sat_counts[idx] += 1
    return match_counts, sat_counts
