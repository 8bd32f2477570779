"""The pattern matcher behind every prune pass and detect scan.

Matching every mined pattern against every statement is quadratic; with
tens of thousands of patterns it dominates everything else.
:class:`PatternMatcher` compiles the whole pattern set into one
:class:`~repro.mining.automaton.MatchAutomaton` (shared trie plus
integer-domain relation checks) so each statement is scanned once for
all patterns.

Matching a pattern requires every deduction prefix to appear among the
statement's path prefixes, so each pattern is *anchored* at one
deduction prefix: a statement only considers patterns anchored at one
of its own prefixes.  Any deduction prefix is a sound anchor, so each
pattern anchors at its *rarest* one — rarest by corpus occurrence when
the caller supplies a prefix-frequency table (``prefix_counts``), by
occurrence across the pattern set otherwise.

The anchor choice may never change *output*: candidate enumeration
order is part of the downstream contract (statistics counters serialize
in first-seen order), so candidates come out ordered by the
statement-path position of the pattern's **lexicographically smallest**
deduction prefix and then by pattern index, whichever prefix physically
anchors the pattern.  The committed golden digests
(``tests/golden_digests.json``) pin the resulting bytes.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import NamePattern, Relation, Violation
from repro.lang.astir import StatementAst
from repro.mining.automaton import MatchAutomaton
from repro.mining.interner import PathInterner
from repro.parallel.merge import merge_counters

__all__ = ["PatternMatcher", "prefix_frequencies_ids"]


def prefix_frequencies_ids(
    id_lists: Sequence[np.ndarray], interner: PathInterner
) -> Counter[tuple[PathStep, ...]]:
    """Corpus-frequency table of path prefixes — how many statement
    paths carry each prefix, keyed in first-seen order — from interned
    ID arrays: one ``bincount`` over the symbolic-ID projection (two
    paths share a prefix iff their symbolic variants share an ID).  The
    selectivity signal for anchor choice, shared by every matcher built
    over the corpus."""
    counts: Counter[tuple[PathStep, ...]] = Counter()
    if not id_lists:
        return counts
    sym = np.asarray(interner.ensure_symbolic(), dtype=np.int64)
    totals = np.bincount(sym[np.concatenate(id_lists)], minlength=len(sym))
    resolve = interner.resolve
    for pid in np.flatnonzero(totals):
        counts[resolve(int(pid)).prefix] = int(totals[pid])
    return counts


def _first_bump_counts(
    rels: Iterable[tuple[int, Relation]],
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """``{pattern index: count}`` of matches, satisfactions and
    violations over a relation stream, each keyed in the order its
    indices first occur."""
    matched: dict[int, int] = {}
    satisfied: dict[int, int] = {}
    violated: dict[int, int] = {}
    for idx, rel in rels:
        matched[idx] = matched.get(idx, 0) + 1
        table = satisfied if rel is Relation.SATISFIED else violated
        table[idx] = table.get(idx, 0) + 1
    return matched, satisfied, violated


class PatternMatcher:
    """A compiled, selectivity-anchored matcher over a fixed pattern set.

    ``prefix_counts`` is an optional corpus prefix-frequency table (see
    :func:`prefix_frequencies_ids`); with one, anchors are chosen by
    real corpus rarity.  Without one, the matcher falls back to prefix
    frequency across its own pattern set — a weaker but still useful
    selectivity proxy (e.g. when loading saved artifacts, where no
    corpus is in sight).  Matched patterns, violations, and their order
    are identical either way; only candidate-list length changes.

    ``interner`` attaches a corpus :class:`PathInterner` (mining holds
    one); otherwise the automaton keeps its own serve-time table, which
    memoizes the paths real traffic presents up to its cap.
    """

    def __init__(
        self,
        patterns: Sequence[NamePattern],
        prefix_counts: Mapping[tuple[PathStep, ...], int] | None = None,
        interner: PathInterner | None = None,
    ) -> None:
        pattern_list = list(patterns)
        automaton = MatchAutomaton(pattern_list)
        if interner is not None:
            automaton.attach_interner(interner)
        #: deduction-prefix occurrences across this matcher's own
        #: patterns — the fallback rarity table, and the table
        #: :meth:`merge` sums instead of recounting — read off the
        #: automaton's trie accept-node counters.
        self._init_from_parts(
            pattern_list,
            automaton.deduction_prefix_counts(),
            Counter(prefix_counts) if prefix_counts is not None else None,
            automaton,
        )

    def _init_from_parts(
        self,
        patterns: list[NamePattern],
        prefix_counts: Counter[tuple[PathStep, ...]],
        corpus_counts: Counter[tuple[PathStep, ...]] | None,
        automaton: MatchAutomaton,
    ) -> None:
        """Finalize the automaton against already-counted tables."""
        self.patterns = patterns
        self._pattern_index: dict[tuple, int] | None = None
        self.prefix_counts = prefix_counts
        self._corpus_counts = corpus_counts
        self._automaton = automaton
        if not automaton._finalized:
            automaton.finalize(
                corpus_counts if corpus_counts is not None else prefix_counts
            )

    @property
    def pattern_index(self) -> dict[tuple, int]:
        """Pattern identity (:meth:`~NamePattern.key`) -> pattern index:
        the one table statistics queries resolve patterns through
        (built on first use)."""
        table = self._pattern_index
        if table is None:
            table = self._pattern_index = {
                p.key(): i for i, p in enumerate(self.patterns)
            }
        return table

    def attach_interner(
        self, interner: PathInterner, cap: int | None = None
    ) -> None:
        """Attach (or replace) the automaton's path interner."""
        self._automaton.attach_interner(interner, cap)

    def prepare_ids(self, paths: Sequence[NamePath]) -> list[int]:
        """Pre-resolve a statement's paths to interned IDs (``-1`` for
        paths the capped interner refuses); callers pass the result
        back as ``ids``."""
        return self._automaton.ids_of(paths)

    def relations(
        self,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[tuple[int, Relation]]:
        """``(pattern index, relation)`` for every pattern that matches,
        in the pinned candidate order (resolving ``ids`` first when the
        caller did not)."""
        return self._automaton.relations(paths, ids)

    def violations(
        self,
        stmt: StatementAst,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[Violation]:
        """All pattern violations triggered by one statement."""
        return self._automaton.violations(stmt, paths, ids)

    def scan_entries(
        self, entries: Sequence[tuple]
    ) -> tuple[list[list[Violation]], tuple[dict[int, int], ...]]:
        """One walk per ``(stmt, paths, ids)`` triple, serving both
        halves of a file's match pass: the per-statement violations and
        the statistics build's ``(matches, satisfactions, violations)``
        aggregates, each a ``{pattern index: count}`` dict in first-bump
        order (the order a per-relation counter would have seen them).
        """
        scan = self._automaton.scan_one
        viol_rows: list[list[Violation]] = []
        rels: list[tuple[int, Relation]] = []
        for stmt, paths, ids in entries:
            viols, stmt_rels = scan(stmt, paths, ids)
            viol_rows.append(viols)
            rels.extend(stmt_rels)
        return viol_rows, _first_bump_counts(rels)

    #: one-line alias kept only because the benchmark's trace table
    #: (``benchmarks/namerbench/launch.py`` ``LAYERS``) names it
    scan_entries_stats = scan_entries

    def __len__(self) -> int:
        return len(self.patterns)

    @staticmethod
    def merge(matchers: Iterable["PatternMatcher"]) -> "PatternMatcher":
        """Combine matchers over disjoint pattern sets.

        Reuses the per-matcher frequency tables instead of recounting:
        prefix occurrence counts are additive, so summing the shard
        tables in shard order reproduces exactly the table (keys in the
        same first-seen order) a flat build over the concatenated
        pattern list would count — and therefore the same anchors and
        candidate order.  Corpus tables, when present, are summed the
        same way; rarity *order* is scale-invariant, so shards built
        over one shared corpus table merge to the same anchor choices a
        flat build over that table makes.
        """
        parts = list(matchers)
        combined: list[NamePattern] = []
        for m in parts:
            combined.extend(m.patterns)
        pattern_counts = merge_counters(m.prefix_counts for m in parts)
        corpus_counts = None
        if any(m._corpus_counts is not None for m in parts):
            corpus_counts = merge_counters(
                m._corpus_counts for m in parts if m._corpus_counts is not None
            )
        automaton = MatchAutomaton(combined)
        # Parts sharing one corpus interner keep it; otherwise the
        # merged automaton starts its own serve-time table.
        interners = {id(m._automaton._interner) for m in parts}
        if len(interners) == 1:
            automaton.attach_interner(parts[0]._automaton._interner)
        merged = PatternMatcher.__new__(PatternMatcher)
        merged._init_from_parts(combined, pattern_counts, corpus_counts, automaton)
        return merged
