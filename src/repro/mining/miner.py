"""Mining name patterns from Big Code (Section 3.3, Algorithms 1 and 2).

The miner runs in four phases:

1. **Frequency pass** — count every concrete name path across the
   dataset and drop infrequent ones (the paper removes paths occurring
   fewer than ~10 times, eliminating over 99% of distinct paths).
2. **Growth pass** — for each statement, enumerate the possible
   condition/deduction splits (``splitPaths``) and insert each resulting
   transaction ``sort(cond) + sort(deduct)`` into the FP tree.
3. **Generation** — traverse the FP tree (Algorithm 2) emitting a
   pattern at every ``is_last`` node.
4. **Pruning** — keep only patterns whose satisfaction/match ratio over
   the dataset is at least ``min_satisfaction_ratio`` (0.8 in the
   paper) and whose support clears ``min_pattern_support``.

The frequency, growth, and prune passes are data-parallel over the
statement sequence.  Each is one task function mapped over a contiguous
span plan by a :class:`~repro.parallel.executor.ShardExecutor`, through
the content cache when one is set, and each task returns a small,
shard-pure summary (a :class:`~repro.mining.interner.ShardPathCounts`,
localized transactions, a pair of match/satisfaction counters) that
merges in span order into exactly the state one pass over the whole
sequence would have built.  Generation runs on the single merged tree.
The worker count picks only where tasks run — inline with one worker,
on a process pool with more — so the output is **bit-identical** for
any worker count and span plan (``tests/test_parallel.py``).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.cache.contentcache import ContentCache
from repro.cache.incremental import (
    config_fingerprint,
    fingerprint_of,
    pattern_fingerprint,
)
from repro.core.namepath import NamePath, extract_name_paths
from repro.core.patterns import NamePattern, PatternKind, Relation
from repro.lang.astir import StatementAst
from repro.mining.fptree import FPNode, FPTree
from repro.mining.interner import (
    PathInterner,
    ShardPathCounts,
    merge_shard_path_counts,
)
from repro.mining.matcher import PatternMatcher, prefix_frequencies_ids
from repro.parallel.executor import (
    ShardExecutor,
    resolve_context,
    resolve_shard,
)
from repro.parallel.merge import merge_count_pairs
from repro.parallel.profiler import PhaseProfiler
from repro.parallel.sharding import Span, even_spans
from repro.resilience.faults import fault_check

__all__ = [
    "MiningConfig",
    "PatternMiner",
    "MiningResult",
    "generate_patterns_ids",
]


@dataclass(frozen=True)
class MiningConfig:
    """Regularization knobs from Section 5.1.

    Attributes:
        max_paths_per_statement: Keep only the first N name paths of a
            statement (paper: 10).
        min_path_frequency: Drop name paths occurring fewer times in
            the dataset (paper: 10).
        max_condition_paths: Cap on condition size (paper: 10).
        min_pattern_support: Occurrence threshold for keeping a mined
            pattern (paper: 100 for Python, 500 for Java).
        min_satisfaction_ratio: pruneUncommon threshold (paper: 0.8).
        condition_subsets: ``"all"`` (the paper's Algorithm 2, line 7)
            enumerates condition subsets smallest-first — general
            patterns whose support aggregates across FP-tree branches —
            bounded by ``max_condition_combinations``; ``"full"`` emits
            a single pattern per is_last node using all visited
            condition paths (matches the worked example in Figure 3(b)).
        max_condition_combinations: Bound on subset enumeration per
            node when ``condition_subsets == "all"``.
    """

    max_paths_per_statement: int = 10
    min_path_frequency: int = 10
    max_condition_paths: int = 10
    min_pattern_support: int = 100
    min_satisfaction_ratio: float = 0.8
    condition_subsets: str = "all"
    max_condition_combinations: int = 64


@dataclass
class MiningResult:
    """Mined patterns plus statistics used by the evaluation."""

    patterns: list[NamePattern]
    total_statements: int = 0
    total_transactions: int = 0
    fp_tree_nodes: int = 0
    candidates_before_pruning: int = 0

    def by_kind(self, kind: PatternKind) -> list[NamePattern]:
        return [p for p in self.patterns if p.kind is kind]


class PatternMiner:
    """End-to-end implementation of Algorithm 1 (``minePatterns``)."""

    def __init__(
        self,
        config: MiningConfig = MiningConfig(),
        confusing_pairs: Iterable[tuple[str, str]] = (),
    ) -> None:
        self.config = config
        #: ``correct word -> set of mistaken words``; deductions of
        #: confusing-word patterns must end at a correct word.
        self.correct_words: dict[str, set[str]] = {}
        for mistaken, correct in confusing_pairs:
            self.correct_words.setdefault(correct, set()).add(mistaken)
        #: memo of the last frequency pass — path counts are independent
        #: of the pattern kind, so mining both kinds over one dataset
        #: pays for the pass once.  Holds the statements and interner to
        #: pin identity (the counts index that interner's IDs); never
        #: pickled into shard tasks.
        self._frequency_memo: tuple[
            Sequence[StatementAst], PathInterner, np.ndarray
        ] | None = None
        #: memo of the last intern pass, keyed on the path-list object:
        #: the corpus interner plus per-statement ID arrays and plain-
        #: list rows, shared by the two per-kind mine passes.  Never
        #: pickled into shard tasks.
        self._intern_memo: tuple | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_frequency_memo"] = None
        state["_intern_memo"] = None
        return state

    def _kind_salt(self, kind: PatternKind) -> str:
        """Cache salt for everything kind-dependent in this miner.

        The confusing-pair list steers transaction splitting for the
        confusing-word kind, so it rides in that kind's salt; the
        consistency kind ignores it, keeping consistency cache entries
        stable across pair-list changes.
        """
        salt = config_fingerprint(self.config, kind.value)
        if kind is PatternKind.CONFUSING_WORD:
            pairs = sorted(
                (correct, tuple(sorted(mistaken)))
                for correct, mistaken in self.correct_words.items()
            )
            salt += "|" + fingerprint_of(pairs)
        return salt

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def mine(
        self,
        statements: Sequence[StatementAst],
        kind: PatternKind,
        *,
        paths: Sequence[Sequence[NamePath]] | None = None,
        workers: int = 1,
        spans: Sequence[Span] | None = None,
        profiler: PhaseProfiler | None = None,
        executor: ShardExecutor | None = None,
        cache: ContentCache | None = None,
        shard_keys: Sequence[str] | None = None,
        interner: PathInterner | None = None,
        id_lists: Sequence[np.ndarray] | None = None,
    ) -> MiningResult:
        """Mine patterns of ``kind`` from transformed statement ASTs.

        ``statements`` must already be AST+ transformed.  ``paths`` may
        supply the statements' already-extracted name paths (one list
        per statement, as a prepared corpus holds them); without it the
        miner extracts them here, in this process — path extraction is
        the single most expensive part of mining, so callers that have
        the paths should always hand them over.

        Every pass runs in the interned ID domain: ``interner``/
        ``id_lists`` may supply an already-built corpus table
        (``PathInterner.build`` output — ``Namer.mine`` builds one and
        shares it with the worker pool); otherwise the miner interns
        the corpus itself under an ``intern`` profiler phase.

        ``spans`` is an optional contiguous shard plan over the
        statement sequence (e.g. the per-repo plan ``Namer.mine``
        builds); it must partition ``[0, len(statements))`` exactly
        (``ValueError`` otherwise); with none given, statements are
        split evenly.  The frequency, growth and prune passes each run
        one task per span on the ``executor`` — inline when it is
        serial, on its pool otherwise — and merge the results in span
        order.  An ``executor`` may be shared across calls so one
        worker pool serves both pattern kinds; otherwise one is created
        from ``workers``.  Output depends on neither the plan nor the
        worker count.

        With a ``cache`` plus one content key per span (``shard_keys``,
        see :func:`repro.cache.incremental.shard_content_keys`), each
        span's task result goes through the cache: a shard whose
        content key and upstream state are unchanged loads its
        mergeable summary instead of recomputing it.  The merge is the
        same either way, so cached, cold-cached, and uncached mining
        are all bit-identical.  A whole-kind memo above the shard
        levels returns the final :class:`MiningResult` outright when
        nothing at all changed.
        """
        fault_check("mining.mine", key=kind.value)
        cfg = self.config
        if paths is None:
            paths = _extract_path_lists(statements, cfg.max_paths_per_statement)
        elif len(paths) != len(statements):
            raise ValueError("paths must align one-to-one with statements")
        if profiler is None:
            profiler = PhaseProfiler()
        own_executor = executor is None
        if executor is None:
            executor = ShardExecutor(workers)
        try:
            n = len(statements)
            if spans is None:
                spans = even_spans(n, executor.shard_hint(n))
            else:
                _validate_spans(spans, n)
            if cache is None or shard_keys is None:
                cache = shard_keys = None
            elif len(shard_keys) != len(spans):
                raise ValueError("shard_keys must align one-to-one with spans")
            if cache is not None:
                # Whole-kind memo: the final MiningResult is a pure
                # function of the corpus content (every shard key, in
                # order), the config, the kind, and — for confusing
                # words — the mined pair list.  A zero-change warm run
                # answers here and skips every pass below; any change
                # falls through to the per-shard caches.
                mine_key = cache.key(
                    fingerprint_of(shard_keys), self._kind_salt(kind)
                )
                memo_result = cache.get("mine", mine_key)
                if memo_result is not None:
                    return memo_result
            for index in range(len(spans)):
                fault_check("mining.shard", key=f"{kind.value}:{index}")
            # Intern once per corpus (memoized across the two per-kind
            # passes): the one pass that hashes every path occurrence.
            # Everything below reads dense IDs.  When the caller
            # (Namer.mine) already built and profiled the table, reuse
            # it without a phase row.
            prebuilt = interner is not None or (
                self._intern_memo is not None and self._intern_memo[0] is paths
            )
            if prebuilt:
                interner, id_lists, id_rows = self._intern_corpus(
                    paths, interner, id_lists
                )
            else:
                with profiler.phase("intern", items=n):
                    interner, id_lists, id_rows = self._intern_corpus(
                        paths, None, None
                    )
            interner.ensure_symbolic()
            # Publish the interner and the ID sequences before any task
            # runs: on a pool that has not forked yet, tasks then carry
            # only handles; inline, the payloads are the values.
            run = _ShardRun(
                executor=executor,
                cache=cache,
                keys=shard_keys,
                interner=interner,
                interner_payload=executor.share_context(interner),
                arrays=executor.shard_payloads(id_lists, spans),
                rows=executor.shard_payloads(id_rows, spans),
            )

            with profiler.phase("frequency", items=n):
                counts = self._frequency(run, statements)
                # `counts >= max(threshold, 1)` is exactly "seen at least
                # `threshold` times": vocabulary entries the corpus never
                # produced concretely (the symbolic variants) count zero
                # and stay out at any threshold.
                frequent_pids = np.flatnonzero(
                    counts >= max(cfg.min_path_frequency, 1)
                )

            with profiler.phase("growth", items=n):
                tree = self._growth(run, kind, frequent_pids)

            fp_nodes = tree.node_count()
            with profiler.phase("generate", items=fp_nodes):
                id_candidates = generate_patterns_ids(
                    tree.root,
                    kind,
                    interner.ensure_symbolic(),
                    max_condition_paths=cfg.max_condition_paths,
                    condition_subsets=cfg.condition_subsets,
                    max_combinations=cfg.max_condition_combinations,
                )
                merged = _merge_duplicates_ids(id_candidates, kind, interner)

            with profiler.phase("prune", items=n):
                supported = [
                    p for p in merged if p.support >= cfg.min_pattern_support
                ]
                pruned = self._prune(run, supported, id_lists, profiler)

            result = MiningResult(
                patterns=pruned,
                total_statements=n,
                total_transactions=tree.transaction_count,
                fp_tree_nodes=fp_nodes,
                candidates_before_pruning=len(merged),
            )
            if cache is not None:
                cache.put("mine", mine_key, result)
            return result
        finally:
            if own_executor:
                executor.close()

    # ------------------------------------------------------------------
    # The three data-parallel passes.  Each maps one task per span over
    # the executor, through the cache, and merges the shard-pure
    # summaries in span order.
    # ------------------------------------------------------------------

    def _frequency(
        self, run: "_ShardRun", statements: Sequence[StatementAst]
    ) -> np.ndarray:
        """Frequency pass: corpus occurrences of every interned path,
        indexed by ID.  Each task counts its span into a
        :class:`ShardPathCounts` (local vocabulary, so entries stay
        shard-pure) and the merge remaps through the interner.  The
        salt has no upstream state — counts depend only on the shard's
        own files and the config — so a k-file edit recomputes exactly
        k shards.  Path counts are independent of the pattern kind, so
        the second kind's pass over the same corpus is memoized."""
        memo = self._frequency_memo
        if memo is not None and memo[0] is statements and memo[1] is run.interner:
            return memo[2]
        counts = merge_shard_path_counts(
            _through_cache(
                run,
                "frequency",
                lambda: config_fingerprint(self.config),
                lambda missing: run.executor.map(
                    _frequency_task,
                    [(run.arrays[i], run.interner_payload) for i in missing],
                ),
            ),
            run.interner,
        )
        self._frequency_memo = (statements, run.interner, counts)
        return counts

    def _growth(
        self, run: "_ShardRun", kind: PatternKind, frequent_pids: np.ndarray
    ) -> FPTree:
        """Growth pass: each task returns its span's distinct FP-tree
        transactions, localized (global IDs depend on other shards;
        results and cache entries must not).  Replaying them into one
        tree in span order is the global first-occurrence order for
        contiguous spans, so the tree (child dict order included) is
        bit-identical to per-statement insertion.  Transactions are
        int tuples, rank-sorted (the order `sorted(paths)` gives)."""
        interner = run.interner
        freq_ok = np.zeros(len(interner), dtype=bool)
        freq_ok[frequent_pids] = True
        frequent = freq_ok.tolist()
        correct = [p.end in self.correct_words for p in interner.paths]

        def salt() -> str:
            # A shard's transactions depend on the *global* frequent-
            # path set, so any corpus change that shifts a path across
            # the threshold invalidates every growth shard.  The kind
            # salt carries the confusing-pair list, which transaction
            # splitting consults for the confusing-word kind.
            return (
                self._kind_salt(kind)
                + "|"
                + fingerprint_of(
                    sorted(interner.resolve(int(pid)) for pid in frequent_pids)
                )
            )

        tree = FPTree()
        for entry in _through_cache(
            run,
            "growth",
            salt,
            lambda missing: run.executor.map(
                _growth_task,
                [
                    (self, run.rows[i], run.interner_payload, frequent, correct, kind)
                    for i in missing
                ],
            ),
        ):
            for transaction, count in _globalize_transactions(
                entry, interner
            ).items():
                tree.update_counted(transaction, count)
        return tree

    def _prune(
        self,
        run: "_ShardRun",
        supported: list[NamePattern],
        id_lists: Sequence[np.ndarray],
        profiler: PhaseProfiler,
    ) -> list[NamePattern]:
        """pruneUncommon (Algorithm 1, line 9): keep candidates commonly
        *satisfied* where they match.

        One compiled matcher over the whole candidate list, anchored by
        corpus prefix frequencies, serves every task.  It keeps the
        constructor's empty vocabulary: each task attaches the
        pool-shared interner (a no-op once attached inline), so a
        matcher shipped to the pool never re-pickles the table.  Tasks
        return per-pattern match / satisfaction counts keyed by
        candidate index; counts are sums over statements, so the span-
        order merge equals one pass.  Task seconds land in a
        ``prune_shard`` profiler row (items = shards computed), which
        separates shard compute from the ``prune`` total and doubles as
        an incrementality probe under the cache: a warm run records
        none, a one-file edit one shard per kind."""
        if not supported:
            return []
        matcher = PatternMatcher(
            supported, prefix_counts=prefix_frequencies_ids(id_lists, run.interner)
        )
        matcher_payload = run.executor.share_context(matcher)

        def count(missing: list[int]) -> list:
            computed = run.executor.map(
                _prune_task,
                [(matcher_payload, run.rows[i], run.interner_payload) for i in missing],
            )
            profiler.record(
                "prune_shard",
                sum(seconds for _, _, seconds in computed),
                items=len(computed),
            )
            return [(match, sat) for match, sat, _ in computed]

        # Entries are a pure function of a shard's files plus the salt;
        # the candidate list rides in the salt because counts are keyed
        # by index into it.
        match_counts, sat_counts = merge_count_pairs(
            _through_cache(
                run, "prune", lambda: _prune_salt(self.config, supported), count
            )
        )
        threshold = self.config.min_satisfaction_ratio
        return [
            pattern
            for idx, pattern in enumerate(supported)
            if match_counts[idx] and sat_counts[idx] / match_counts[idx] >= threshold
        ]

    # ------------------------------------------------------------------
    # Per-shard work, in the interned ID domain: per-ID tables off the
    # interner replace every hash and rich comparison in the hot loops.
    # ------------------------------------------------------------------

    def _intern_corpus(
        self,
        paths: Sequence[Sequence[NamePath]],
        interner: PathInterner | None,
        id_lists: Sequence[np.ndarray] | None,
    ) -> tuple[PathInterner, Sequence[np.ndarray], list[list[int]]]:
        """The corpus interner, per-statement ID arrays, and plain-list
        rows (list indexing beats numpy scalar boxing in the pure-Python
        pair loops), memoized on the path-list object so the two
        per-kind mine passes pay once."""
        memo = self._intern_memo
        if memo is not None and memo[0] is paths:
            return memo[1], memo[2], memo[3]
        if interner is None:
            interner, id_lists = PathInterner.build(paths)
        elif id_lists is None:
            id_lists = [
                np.asarray(
                    [interner.intern(p) for p in row], dtype=np.int32
                )
                for row in paths
            ]
        id_rows = [arr.tolist() for arr in id_lists]
        self._intern_memo = (paths, interner, id_lists, id_rows)
        return interner, id_lists, id_rows

    def _transaction_counts_ids(
        self,
        id_rows: Sequence[list[int]],
        tables: tuple,
        kind: PatternKind,
    ) -> dict[tuple[int, ...], int]:
        """Growth pass over one shard: the FP-tree transactions
        ``sort(cond) + sort(deduct)`` of every ``splitPaths`` split
        (Algorithm 1, line 6) over the statement's frequent paths, as
        rank-sorted int tuples (`sorted(paths)` order), counted and
        keyed in first-occurrence order (the replay order)."""
        frequent, sym, rank, fold, name_ok, correct = tables
        transactions: dict[tuple[int, ...], int] = {}
        max_cond = self.config.max_condition_paths
        rank_key = rank.__getitem__
        consistency = kind is PatternKind.CONSISTENCY
        for row in id_rows:
            kept = [pid for pid in row if frequent[pid]]
            if consistency:
                splits = self._split_consistency_ids(
                    kept, sym, fold, name_ok, max_cond
                )
            else:
                splits = self._split_confusing_ids(kept, sym, correct, max_cond)
            for cond, deduct in splits:
                transaction = tuple(
                    sorted(cond, key=rank_key) + sorted(deduct, key=rank_key)
                )
                if transaction:
                    transactions[transaction] = (
                        transactions.get(transaction, 0) + 1
                    )
        return transactions

    def _split_consistency_ids(
        self,
        pids: list[int],
        sym: list[int],
        fold: list[int],
        name_ok: list[bool],
        max_cond: int,
    ) -> Iterable[tuple[list[int], list[int]]]:
        """Consistency splits: every pair of real-name paths with
        casefold-equal ends and different prefixes becomes the
        deduction, inserted *symbolically* (end set to epsilon) so that
        e.g. ``self.x = x`` and ``self.y = y`` grow the same FP-tree
        branch; the remaining paths (other prefixes) are the condition.
        Casefold equality is one fold-ID compare, prefix identity one
        symbolic-ID compare."""
        for i, a1 in enumerate(pids):
            f1 = fold[a1]
            if f1 < 0 or not name_ok[a1]:
                continue
            s1 = sym[a1]
            for a2 in pids[i + 1 :]:
                if fold[a2] != f1 or sym[a2] == s1 or not name_ok[a2]:
                    continue
                s2 = sym[a2]
                cond = [p for p in pids if sym[p] != s1 and sym[p] != s2]
                del cond[max_cond:]
                yield cond, [s1, s2]

    def _split_confusing_ids(
        self,
        pids: list[int],
        sym: list[int],
        correct: list[bool],
        max_cond: int,
    ) -> Iterable[tuple[list[int], list[int]]]:
        """Confusing-word splits (Definition 3.9): each path ending at
        the correct word of a confusing pair becomes the (concrete)
        deduction; paths with other prefixes are the condition."""
        for a in pids:
            if not correct[a]:
                continue
            sa = sym[a]
            cond = [p for p in pids if sym[p] != sa]
            del cond[max_cond:]
            yield cond, [a]


# ----------------------------------------------------------------------
# Helpers and shard tasks (module-level for process-pool pickling).
# Each task receives small arrays or fork-shared slice handles plus the
# pool-shared interner, and returns only the shard's mergeable summary.
# ----------------------------------------------------------------------


def _prune_salt(config: MiningConfig, supported: list[NamePattern]) -> str:
    """Cache salt for per-shard prune entries: the config and the
    candidate list the counts are keyed into."""
    return config_fingerprint(
        config, "prune", fingerprint_of(pattern_fingerprint(p) for p in supported)
    )


def _validate_spans(spans: Sequence[Span], n: int) -> None:
    """A caller-supplied shard plan must contiguously partition
    ``[0, n)``: gaps silently drop statements and overlaps double-count
    them in the sharded passes — bit-identity violations — so malformed
    plans error instead, whatever the worker count: a serial run maps
    the same per-span tasks inline."""
    cursor = 0
    for span in spans:
        start, stop = span
        if start != cursor or stop < start:
            raise ValueError(
                f"shard plan must contiguously partition [0, {n}): "
                f"span {span!r} does not start at index {cursor}"
            )
        cursor = stop
    if cursor != n:
        raise ValueError(
            f"shard plan covers [0, {cursor}) but there are {n} statement(s)"
        )


def _extract_path_lists(
    statements: Sequence[StatementAst], max_paths: int
) -> list[list[NamePath]]:
    return [extract_name_paths(s, max_paths=max_paths) for s in statements]


def _localize_transactions(
    transactions: dict[tuple[int, ...], int], interner: PathInterner
) -> tuple[list[NamePath], list[tuple[tuple[int, ...], int]]]:
    """Re-express global-ID transactions as a shard-pure summary:
    first-occurrence local IDs plus the vocabulary slice they index.
    Global IDs depend on every preceding shard, so they may not appear
    in cache entries or shard results."""
    local_ids: dict[int, int] = {}
    vocab: list[NamePath] = []
    items: list[tuple[tuple[int, ...], int]] = []
    resolve = interner.resolve
    for transaction, count in transactions.items():
        row = []
        for gid in transaction:
            lid = local_ids.get(gid)
            if lid is None:
                lid = local_ids[gid] = len(vocab)
                vocab.append(resolve(gid))
            row.append(lid)
        items.append((tuple(row), count))
    return vocab, items


def _globalize_transactions(
    entry: tuple[list[NamePath], list[tuple[tuple[int, ...], int]]],
    interner: PathInterner,
) -> dict[tuple[int, ...], int]:
    """Remap a localized shard summary into the parent's ID space
    (get-or-add, so a vocabulary entry the parent has not seen — e.g.
    out of a cache hit predating a corpus change — still resolves)."""
    vocab, items = entry
    gids = [interner.intern(path) for path in vocab]
    return {
        tuple(gids[lid] for lid in row): count for row, count in items
    }


def _frequency_task(task) -> ShardPathCounts:
    """Frequency task: one span's ID arrays and the pool-shared
    interner, counted into a shard-pure summary."""
    arrays_payload, interner_payload = task
    return ShardPathCounts.from_id_arrays(
        resolve_shard(arrays_payload), resolve_context(interner_payload)
    )


def _growth_task(task):
    """Growth task: one span's ID rows, the pool-shared interner, and
    the frequent-ID and correct-word masks.  The interner-derived
    tables are cached on the interner object, so a worker builds them
    once; the result ships back localized."""
    miner, rows_payload, interner_payload, frequent, correct, kind = task
    interner = resolve_context(interner_payload)
    tables = (
        frequent,
        interner.ensure_symbolic(),
        interner.sort_ranks(),
        interner.fold_table(),
        interner.name_ok_table(),
        correct,
    )
    transactions = miner._transaction_counts_ids(
        resolve_shard(rows_payload), tables, kind
    )
    return _localize_transactions(transactions, interner)


def _count_matches_ids(
    matcher: PatternMatcher, id_rows: Sequence[list[int]]
) -> tuple[Counter[int], Counter[int]]:
    """Prune pass over pre-resolved ID rows: per-pattern match /
    satisfaction counts, keyed by pattern index.  Each row's relations
    come back in the pinned candidate order and rows replay in input
    order, so counter bump order — and the counters' key order — is
    deterministic.  Counts are anchor-independent: any matcher over the
    same pattern list, whatever its rarity table, produces identical
    counters."""
    match_counts: Counter[int] = Counter()
    sat_counts: Counter[int] = Counter()
    relations = matcher.relations
    for ids in id_rows:
        # Corpus IDs are all interned, so no path is ever resolved.
        for idx, relation in relations((), ids):
            match_counts[idx] += 1
            if relation is Relation.SATISFIED:
                sat_counts[idx] += 1
    return match_counts, sat_counts


def _prune_task(task) -> tuple[Counter[int], Counter[int], float]:
    """Prune task: the shared candidate matcher, one span's ID rows,
    and the pool-shared interner the task attaches before scanning;
    returns the span's counts plus the task's seconds."""
    matcher_payload, rows_payload, interner_payload = task
    started = time.perf_counter()
    matcher = resolve_context(matcher_payload)
    matcher.attach_interner(resolve_context(interner_payload))
    match_counts, sat_counts = _count_matches_ids(
        matcher, resolve_shard(rows_payload)
    )
    return match_counts, sat_counts, time.perf_counter() - started


class _ShardRun(NamedTuple):
    """What the passes of one mine call share: the executor that runs
    their tasks, the cache with one content key per span (both
    ``None`` without a cache), the corpus interner and its pool
    handle, and per-span payloads of the ID arrays and ID rows."""

    executor: ShardExecutor
    cache: ContentCache | None
    keys: Sequence[str] | None
    interner: PathInterner
    interner_payload: object
    arrays: list
    rows: list


def _through_cache(
    run: _ShardRun,
    level: str,
    salt: Callable[[], str],
    compute: Callable[[list[int]], list],
) -> list:
    """One result per span, in span order.  Without a cache this is
    ``compute(every span index)``.  With one, entries load under each
    span's content key plus ``salt()`` (a callable, so uncached runs
    never pay for hashing), ``compute(missing_indices)`` fills the rest
    (results in that order), and they are stored."""
    if run.cache is None:
        return compute(list(range(len(run.rows))))
    cache, keys, salt = run.cache, run.keys, salt()
    entries = [cache.get(level, cache.key(key, salt)) for key in keys]
    missing = [i for i, entry in enumerate(entries) if entry is None]
    if missing:
        for i, value in zip(missing, compute(missing)):
            entries[i] = value
            cache.put(level, cache.key(keys[i], salt), value)
    return entries


# ----------------------------------------------------------------------
# Algorithm 2
# ----------------------------------------------------------------------


def _condition_combinations(
    conds: list[NamePath],
    max_condition_paths: int,
    mode: str,
    max_combinations: int,
) -> Iterable[tuple[NamePath, ...]]:
    base = tuple(conds[:max_condition_paths])
    if mode == "full":
        yield base
        return
    if mode != "all":
        raise ValueError(f"unknown condition_subsets mode: {mode!r}")
    if not base:
        yield ()
        return
    # Smallest subsets first: general conditions aggregate support from
    # many FP-tree branches (the duplicate-merge step sums them), which
    # is what lets idioms generalize over incidental context paths.
    yield base
    emitted = 1
    for size in range(1, len(base)):
        for combo in itertools.combinations(base, size):
            yield combo
            emitted += 1
            if emitted >= max_combinations:
                return


def _build_pattern(
    cond: tuple[NamePath, ...],
    deduct: list[NamePath],
    kind: PatternKind,
    support: int,
) -> NamePattern | None:
    if kind is PatternKind.CONSISTENCY:
        if len(deduct) != 2 or deduct[0].prefix == deduct[1].prefix:
            return None
    try:
        return NamePattern(
            condition=frozenset(cond),
            deduction=frozenset(deduct),
            kind=kind,
            support=support,
        )
    except ValueError:
        return None


def generate_patterns_ids(
    node: FPNode,
    kind: PatternKind,
    sym: list[int],
    max_condition_paths: int = 10,
    condition_subsets: str = "full",
    max_combinations: int = 32,
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Algorithm 2: traverse an int-keyed FP tree and emit a candidate
    at every ``is_last`` node.  Deduction paths were inserted last in
    every transaction, so they are the final one (confusing word) or
    two (consistency) visited paths; the paths before them are the
    candidate conditions.

    Emits raw ``(condition IDs, deduction IDs, support)`` candidates —
    patterns are materialized once per *merged* key in
    :func:`_merge_duplicates_ids`, not once per emission.  ``sym[v]``
    symbolizes a deduction entry (``with_end(EPSILON)``; the identity on
    already-symbolic IDs), so the consistency same-prefix precheck is
    one int compare.

    The traversal is pre-order over an explicit stack rather than
    recursion: an FP tree over long transactions is as deep as its
    longest transaction, and a paper-scale corpus builds chains far
    past Python's recursion limit.
    """
    candidates: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    visited: list[int] = []
    consistency = kind is PatternKind.CONSISTENCY
    stack: list[tuple[FPNode, bool]] = [(node, True)]
    while stack:
        current, entering = stack.pop()
        if not entering:
            if current.path is not None:
                visited.pop()
            continue
        if current.path is not None:
            visited.append(current.path)
        stack.append((current, False))
        if current.is_last and current.path is not None:
            deduct = None
            conds: list[int] = []
            if consistency:
                if len(visited) >= 2:
                    d0, d1 = sym[visited[-2]], sym[visited[-1]]
                    # Equal symbolic IDs = equal prefixes: _build_pattern
                    # rejects every combination of this node, so skip
                    # enumerating them at all.
                    if d0 != d1:
                        deduct = (d0, d1)
                        conds = visited[:-2]
            elif visited:
                deduct = (visited[-1],)
                conds = visited[:-1]
            if deduct is not None:
                for cond in _condition_combinations(
                    conds, max_condition_paths, condition_subsets, max_combinations
                ):
                    candidates.append((cond, deduct, current.count))
        for child in reversed(list(current.children.values())):
            stack.append((child, True))
    return candidates


def _merge_duplicates_ids(
    candidates: list[tuple[tuple[int, ...], tuple[int, ...], int]],
    kind: PatternKind,
    interner: PathInterner,
) -> list[NamePattern]:
    """The same (condition, deduction) pair can be reached from several
    FP-tree branches: merge raw candidates on frozen ID sets, summing
    support, then materialize one pattern per merged key in first-seen
    order.  Keys :func:`_build_pattern` rejects are dropped after the
    merge — validity is a property of the key."""
    merged: dict[
        tuple[frozenset[int], frozenset[int]],
        tuple[tuple[int, ...], tuple[int, ...], int],
    ] = {}
    for cond, deduct, support in candidates:
        key = (frozenset(cond), frozenset(deduct))
        existing = merged.get(key)
        if existing is None:
            merged[key] = (cond, deduct, support)
        else:
            merged[key] = (existing[0], existing[1], existing[2] + support)
    resolve = interner.resolve
    out: list[NamePattern] = []
    for cond, deduct, support in merged.values():
        pattern = _build_pattern(
            tuple(resolve(c) for c in cond),
            [resolve(d) for d in deduct],
            kind,
            support,
        )
        if pattern is not None:
            out.append(pattern)
    return out
