"""A compiled matching automaton over an entire pattern set.

Checking each pattern on its own costs one prefix-tuple hash per
condition and deduction path, against a per-statement dict rebuilt for
every scan.  :class:`MatchAutomaton` compiles the whole pattern set
once instead:

* **Shared trie.**  Every condition and deduction prefix of every
  pattern is inserted into one trie keyed by :class:`PathStep`; a
  prefix is a node id.  Matching a statement walks each of its paths
  through the trie exactly once — the per-statement cost is one trie
  descent per path, independent of how many patterns are loaded.
* **Per-node bitmask guards.**  Each node carries the OR of the
  step-kind bits along its prefix; a statement's available mask is
  accumulated during the walk and candidates missing a required bit
  (an AST step kind, or a concrete condition end subtoken) are dropped
  with one AND.
* **Pattern-id accept sets.**  Each pattern is anchored at its rarest
  deduction prefix; the anchor's trie node holds the accept set of
  pattern ids to consider when a statement path ends exactly there.
* **Integer-domain relation checks.**  Conditions and deductions are
  pre-resolved to ``(node id, interned end-token id)`` pairs at build
  time, so completing a candidate is a handful of integer array reads —
  an inlined, pre-resolved ``check_pattern`` with exactly its semantics
  (``tests/test_automaton.py`` holds the two against each other).
* **Interned paths.**  Every automaton carries a
  :class:`~repro.mining.interner.PathInterner`; each vocabulary entry
  is resolved against the trie once into per-ID tables, so scanning a
  statement reads one table row per path.  A path past the interner's
  cap is resolved by the same trie-walk helper on each scan, so both
  kinds of path feed one walk with identical results.
* **One stateless walk.**  A scan keeps everything it writes in
  per-call locals (a dict of touched trie nodes), so the serving
  engine's queue threads share one automaton without a scan lock; only
  vocabulary growth is serialized.

**Order-pinning invariant.**  Surviving candidates are emitted in a
fixed order — (statement-path position of the first occurrence of the
pattern's lexicographically smallest deduction prefix, pattern index) —
so statistics counters, artifacts, reports, and quarantine records are
identical for any anchor layout, worker count, start method, or cache
temperature.  Scans record the *first* occurrence position of a prefix
(ordering) but the *last* occurrence's end token (lookup), mirroring
``paths_by_prefix`` where a later duplicate prefix overwrites an
earlier one.

The automaton is picklable (the per-ID tables are dropped and rebuilt
lazily) so one compiled structure ships to a worker pool once
and serves every task.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from typing import Sequence

from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import (
    NamePattern,
    PatternKind,
    Relation,
    Violation,
)
from repro.lang.astir import StatementAst
from repro.mining.interner import PathInterner

__all__ = ["MatchAutomaton"]

#: Floor for the serve-time interning cap (see :meth:`attach_interner`).
_MIN_INTERN_CAP = 1 << 16

#: Serializes vocabulary growth (interning plus the per-ID table
#: extension): a serving engine scans one automaton from several queue
#: threads, and two threads growing the tables at once would hand out
#: one ID twice or append one table row twice.  The tables only grow,
#: so readers need no lock.
_GROW_LOCK = threading.Lock()

_SATISFIED = Relation.SATISFIED
_VIOLATED = Relation.VIOLATED

#: Sentinel end-token ids: ``_TID_EPSILON`` marks a symbolic condition
#: end (matches any statement end); ``_TID_UNKNOWN`` marks a statement
#: end token the pattern set never mentions (can equal no interned id).
_TID_EPSILON = -1
_TID_UNKNOWN = -2


class MatchAutomaton:
    """One deterministic matcher compiled from a whole pattern set.

    Build in two stages: the constructor inserts every pattern path
    into the trie and pre-resolves the relation checks;
    :meth:`finalize` assigns anchors once the rarity table (corpus
    prefix frequencies, or the pattern-set fallback) is known.
    """

    def __init__(self, patterns: Sequence[NamePattern]) -> None:
        self.patterns = list(patterns)
        #: trie: per-node dict of PathStep -> child node id; node 0 is
        #: the root (the empty prefix)
        self._children: list[dict[PathStep, int]] = [{}]
        #: per node: OR of the step-kind bits along its prefix
        self._node_mask: list[int] = [0]
        #: per node: the prefix tuple it spells (diagnostics + the
        #: deduction-frequency table artifact loads fall back to)
        self._node_prefix: list[tuple[PathStep, ...]] = [()]
        self._step_bits: dict[str, int] = {}
        #: concrete condition end token -> guard bit (statement ends
        #: only *look up* here)
        self._end_bits: dict[str, int] = {}
        self._num_bits = 0
        #: end token -> interned id for integer equality checks
        self._end_tid: dict[str, int] = {}
        #: terminal nodes of deduction prefixes in first-insertion
        #: order, with occurrence counts — the fallback rarity table
        self._ded_node_order: list[int] = []
        self._ded_node_counts: dict[int, int] = {}
        # per-pattern compiled checks
        self._conds: list[tuple[tuple[int, int], ...]] = []
        self._deds: list[tuple[int, ...]] = []
        self._req_masks: list[int] = []
        self._order_node: list[int] = []
        self._ded_prefixes: list[list[tuple[PathStep, ...]]] = []
        #: satisfaction data: consistency ``(True, n1, n2, d2)``,
        #: confusing word ``(False, nd, expected_tid, d)``
        self._sat: list[tuple] = []
        #: anchor node -> accept set (pattern ids in pattern order);
        #: assigned by :meth:`finalize`
        self._accepts: dict[int, list[int]] = {}
        self._finalized = False
        for pattern in self.patterns:
            self._compile(pattern)
        #: the attached :class:`~repro.mining.interner.PathInterner`:
        #: per-path trie descents collapse into per-ID table reads.  A
        #: fresh serve-time table until a caller attaches a corpus one.
        self._interner = None
        self.attach_interner(PathInterner())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _insert(self, prefix: tuple[PathStep, ...]) -> int:
        children = self._children
        node = 0
        for step in prefix:
            nxt = children[node].get(step)
            if nxt is None:
                bit = self._step_bits.get(step.value)
                if bit is None:
                    bit = self._step_bits[step.value] = 1 << self._num_bits
                    self._num_bits += 1
                nxt = len(children)
                children[node][step] = nxt
                children.append({})
                self._node_mask.append(self._node_mask[node] | bit)
                self._node_prefix.append(self._node_prefix[node] + (step,))
            node = nxt
        return node

    def _intern_end(self, end: str) -> int:
        tid = self._end_tid.get(end)
        if tid is None:
            tid = self._end_tid[end] = len(self._end_tid)
        return tid

    def _compile(self, pattern: NamePattern) -> None:
        # Walk both path sets sorted, never in set order: a symbolic
        # path hashes ``None``, whose hash varies by process before
        # Python 3.12, and trie numbering is written into frozen blobs.
        mask = 0
        conds: list[tuple[int, int]] = []
        for c in sorted(pattern.condition):
            node = self._insert(c.prefix)
            mask |= self._node_mask[node]
            if c.end is None:
                tid = _TID_EPSILON
            else:
                tid = self._intern_end(c.end)
                bit = self._end_bits.get(c.end)
                if bit is None:
                    bit = self._end_bits[c.end] = 1 << self._num_bits
                    self._num_bits += 1
                mask |= bit
            conds.append((node, tid))
        deds: list[int] = []
        ded_prefixes: list[tuple[PathStep, ...]] = []
        deductions = sorted(pattern.deduction)
        for d in deductions:
            node = self._insert(d.prefix)
            mask |= self._node_mask[node]
            count = self._ded_node_counts.get(node)
            if count is None:
                self._ded_node_order.append(node)
                count = 0
            self._ded_node_counts[node] = count + 1
            deds.append(node)
            ded_prefixes.append(d.prefix)
        self._conds.append(tuple(conds))
        self._deds.append(tuple(deds))
        self._req_masks.append(mask)
        self._ded_prefixes.append(ded_prefixes)
        self._order_node.append(self._insert(min(ded_prefixes)))
        if pattern.kind is PatternKind.CONSISTENCY:
            d1, d2 = deductions
            self._sat.append(
                (True, self._insert(d1.prefix), self._insert(d2.prefix), d2)
            )
        else:
            (d,) = deductions
            self._sat.append(
                (False, self._insert(d.prefix), self._intern_end(d.end), d)
            )

    def deduction_prefix_counts(self) -> Counter[tuple[PathStep, ...]]:
        """Deduction-prefix occurrences across the compiled pattern set,
        read off the trie's accept-node counters — value- and key-order-
        identical to counting ``d.prefix`` over the patterns directly,
        each pattern's deductions in sorted order.
        The fallback rarity table for anchor choice on artifact loads,
        where no corpus frequency table exists."""
        counts: Counter[tuple[PathStep, ...]] = Counter()
        for node in self._ded_node_order:
            counts[self._node_prefix[node]] = self._ded_node_counts[node]
        return counts

    def finalize(self, rarity) -> None:
        """Assign every pattern's accept set to its anchor node: the
        rarest deduction prefix under ``rarity`` (ties lexicographic).
        Anchor choice can change candidate-list length but never
        output."""
        self._accepts = {}
        get = rarity.get
        for idx, prefixes in enumerate(self._ded_prefixes):
            anchor = min(prefixes, key=lambda p: (get(p, 0), p))
            node = self._insert(anchor)
            bucket = self._accepts.get(node)
            if bucket is None:
                bucket = self._accepts[node] = []
            bucket.append(idx)
        self._finalized = True

    # ------------------------------------------------------------------
    # Interned scanning: per-ID tables over an attached PathInterner
    # ------------------------------------------------------------------

    def attach_interner(self, interner, cap: int | None = None) -> None:
        """Attach (or replace) the :class:`~repro.mining.interner.PathInterner`
        scans run through.

        Each vocabulary entry is resolved against the trie exactly once
        (node id, guard bit, end token, end-token id, casefolded end)
        into flat tables; scanning a statement then reads one table row
        per path instead of descending the trie and re-casefolding
        ends.  The tables are pure functions of (trie, vocabulary),
        extended lazily as the vocabulary grows.

        ``cap`` bounds serve-time vocabulary growth: unknown paths past
        it are resolved per scan and never stored (default: twice the
        attached vocabulary, with a floor, so a long-lived service
        memoizes real traffic but hostile input cannot grow the table
        forever).  Re-attaching the same interner is a no-op; attaching
        a different one resets the tables.
        """
        if interner is self._interner:
            return
        self._interner = interner
        self._intern_cap = (
            max(2 * len(interner), _MIN_INTERN_CAP) if cap is None else cap
        )
        self._reset_pid_tables()

    def _reset_pid_tables(self) -> None:
        self._pid_endbit: list[int] = []
        self._pid_end: list[str | None] = []
        self._pid_tid: list[int] = []
        self._pid_fold: list[str] = []
        # Last: a reader that sees ``_pid_node`` sees its companions.
        self._pid_node: list[int] = []

    def ids_of(self, paths: Sequence[NamePath]) -> list[int]:
        """Pre-resolve a statement's paths to interned IDs (``-1`` for
        paths the capped interner refuses), extending the per-ID tables
        to cover the result.  The ``extract`` half of a detect scan —
        hand the result to :meth:`relations` / :meth:`violations` as
        ``ids``."""
        cap = self._intern_cap
        intern = self._interner.intern_capped
        with _GROW_LOCK:
            ids = [intern(path, cap) for path in paths]
            self._extend_pid_tables_locked()
        return ids

    def _extend_pid_tables(self) -> None:
        """Resolve vocabulary entries ``len(tables)..len(interner)-1``
        with :meth:`_resolve_path` — the same rows a scan computes for a
        path the capped interner refused, so the walk agrees
        byte-for-byte whichever way a path was resolved."""
        with _GROW_LOCK:
            self._extend_pid_tables_locked()

    def _extend_pid_tables_locked(self) -> None:
        # getattr: the tables are derived state, dropped on pickle.
        if getattr(self, "_pid_node", None) is None:
            self._reset_pid_tables()
        pid_node = self._pid_node
        vocab = self._interner.paths
        resolve = self._resolve_path
        for pid in range(len(pid_node), len(vocab)):
            node, endbit, end, tid, fold = resolve(vocab[pid])
            self._pid_endbit.append(endbit)
            self._pid_end.append(end)
            self._pid_tid.append(tid)
            # Folded ends are sys-interned so the satisfaction compare
            # usually short-circuits on object identity.
            self._pid_fold.append(sys.intern(fold))
            # Last, so a row is complete once ``_pid_node`` covers it.
            pid_node.append(node)

    def _resolve_path(
        self, path: NamePath
    ) -> tuple[int, int, str | None, int, str]:
        """One path against the trie: ``(node, end guard bit, end
        token, end-token id, casefolded end)``, node ``-1`` when the
        prefix leaves the trie.  Per-ID table rows are exactly these
        values; a path the capped interner refused is resolved here on
        every scan and never stored, so the cap still bounds memory."""
        children = self._children
        node = 0
        for step in path.prefix:
            node = children[node].get(step, -1)
            if node < 0:
                break
        end = path.end
        if end is None:
            return node, 0, None, _TID_UNKNOWN, ""
        return (
            node,
            self._end_bits.get(end, 0),
            end,
            self._end_tid.get(end, _TID_UNKNOWN),
            end.casefold(),
        )

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def _walk(
        self,
        ids: Sequence[int] | None,
        paths: Sequence[NamePath],
        stmt: StatementAst | None = None,
    ) -> tuple[list[tuple[int, Relation]], list[Violation]]:
        """The one statement scan: ``(pattern index, relation)`` for
        every matching pattern in the pinned candidate order, plus the
        :class:`Violation` of each violated one when ``stmt`` is given.

        ``ids`` defaults to :meth:`ids_of` ``(paths)``.  Each
        non-negative ID is one set of per-ID table reads; a ``-1``
        resolves ``paths[pos]`` through :meth:`_resolve_path`.  Every
        write goes to per-call locals, so any number of threads may
        scan one automaton at once."""
        if not self._finalized:
            raise RuntimeError("finalize() must run before matching")
        if ids is None:
            ids = self.ids_of(paths)
        pid_node = getattr(self, "_pid_node", None)
        if pid_node is None or len(pid_node) < len(self._interner):
            self._extend_pid_tables()
            pid_node = self._pid_node
        pid_endbit = self._pid_endbit
        pid_end = self._pid_end
        pid_tid = self._pid_tid
        pid_fold = self._pid_fold
        node_mask = self._node_mask
        accepts = self._accepts
        # touched node -> [first position, end, end-token id, folded
        # end]: the first occurrence pins ordering, the last one's end
        # wins lookups
        touched: dict[int, list] = {}
        stmt_mask = 0
        cand: list[int] = []
        for pos, pid in enumerate(ids):
            if pid >= 0:
                stmt_mask |= pid_endbit[pid]
                node = pid_node[pid]
                if node < 0:
                    continue
                end = pid_end[pid]
                tid = pid_tid[pid]
                fold = pid_fold[pid]
            else:
                node, endbit, end, tid, fold = self._resolve_path(paths[pos])
                stmt_mask |= endbit
                if node < 0:
                    continue
            stmt_mask |= node_mask[node]
            slot = touched.get(node)
            if slot is None:
                touched[node] = [pos, end, tid, fold]
                # Each pattern sits in one bucket, so adding a bucket
                # on its node's first touch never repeats a candidate.
                bucket = accepts.get(node)
                if bucket is not None:
                    cand.extend(bucket)
            else:
                slot[1] = end
                slot[2] = tid
                slot[3] = fold
        rels: list[tuple[int, Relation]] = []
        viols: list[Violation] = []
        if not cand:
            return rels, viols
        req_masks = self._req_masks
        order_node = self._order_node
        ordered: list[tuple[int, int]] = []
        for idx in cand:
            required = req_masks[idx]
            if required & stmt_mask != required:
                continue
            slot = touched.get(order_node[idx])
            if slot is not None:
                ordered.append((slot[0], idx))
        ordered.sort()
        # The integer-domain ``check_pattern``: every deduction and
        # condition node touched, else NO_MATCH.  Epsilon condition ends
        # match anything; a symbolic statement end matches any concrete
        # condition end (the ``equal`` operator).
        deds = self._deds
        conds = self._conds
        matched: list[int] = []
        for _, idx in ordered:
            for node in deds[idx]:
                if node not in touched:
                    break
            else:
                for node, tid in conds[idx]:
                    slot = touched.get(node)
                    if slot is None or (
                        tid >= 0 and slot[2] != tid and slot[1] is not None
                    ):
                        break
                else:
                    matched.append(idx)
        sats = self._sat
        for idx in matched:
            sat = sats[idx]
            first = touched[sat[1]]
            if sat[0]:
                second = touched[sat[2]]
                satisfied = first[3] == second[3]
            else:
                satisfied = first[2] == sat[2]
            if satisfied:
                rels.append((idx, _SATISFIED))
                continue
            rels.append((idx, _VIOLATED))
            if stmt is None:
                continue
            # ``find_violation``'s convention: a consistency pattern
            # reports the second sorted deduction position as the
            # offender and the first as the expectation.
            if sat[0]:
                observed, suggested = second[1], first[1]
            else:
                observed, suggested = first[1], sat[3].end
            viols.append(
                Violation(
                    statement=stmt,
                    pattern=self.patterns[idx],
                    observed=observed or "",
                    suggested=suggested or "",
                    deduction_path=sat[3],
                )
            )
        return rels, viols

    def relations(
        self,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[tuple[int, Relation]]:
        """``(pattern index, relation)`` for every matching pattern, in
        the pinned candidate order; NO_MATCH candidates are dropped.
        Pass pre-resolved ``ids`` (from :meth:`ids_of`, or rows of the
        attached interner's IDs) to skip the resolution."""
        return self._walk(ids, paths)[0]

    def violations(
        self,
        stmt: StatementAst,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[Violation]:
        """All pattern violations of one statement, in the pinned
        candidate order — ``find_violation`` for each matching
        pattern."""
        return self._walk(ids, paths, stmt)[1]

    def scan_one(
        self,
        stmt: StatementAst,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None,
    ) -> tuple[list[Violation], list[tuple[int, Relation]]]:
        """Both halves of a detect pass from one walk: ``(violations,
        relations)`` — what :meth:`violations` and :meth:`relations`
        would each produce."""
        rels, viols = self._walk(ids, paths, stmt)
        return viols, rels

    def __len__(self) -> int:
        return len(self.patterns)

    # ------------------------------------------------------------------
    # Pickling: per-ID tables are derived state, never shipped
    # ------------------------------------------------------------------

    #: The attached interner (its vocabulary) ships; the tables rebuild
    #: lazily on the first scan.
    _DERIVED = ("_pid_node", "_pid_endbit", "_pid_end", "_pid_tid", "_pid_fold")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._DERIVED:
            state.pop(name, None)
        return state
