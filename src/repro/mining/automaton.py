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
  statement reads one table row per path, and whole files scan in one
  vectorized batch walk over a CSR view of the trie.  Paths past the
  interner's cap take a scalar overflow walk with identical results.

**Order-pinning invariant.**  Surviving candidates are emitted in a
fixed order — (statement-path position of the first occurrence of the
pattern's lexicographically smallest deduction prefix, pattern index) —
so statistics counters, artifacts, reports, and quarantine records are
identical for any anchor layout, worker count, start method, or cache
temperature.  Scans record the *first* occurrence position of a prefix
(ordering) but the *last* occurrence's end token (lookup), mirroring
``paths_by_prefix`` where a later duplicate prefix overwrites an
earlier one.

The automaton is picklable (scan scratch arrays are dropped and
rebuilt lazily) so one compiled structure ships to a worker pool once
and serves every task.  :data:`repro.mining.PIPELINE_VERSION`
participates in the content-cache keys of results produced through the
automaton; bump it whenever a change here could alter any output byte.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import Counter
from typing import Sequence

import numpy as np

from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import (
    NamePattern,
    PatternKind,
    Relation,
    Violation,
)
from repro.lang.astir import StatementAst
from repro.mining.interner import PathInterner

__all__ = ["BatchTables", "MatchAutomaton"]

#: Floor for the serve-time interning cap (see :meth:`attach_interner`).
_MIN_INTERN_CAP = 1 << 16

#: Serializes vocabulary growth (interning plus the per-ID table
#: extension): a serving engine scans one automaton from several queue
#: threads, and two threads growing the tables at once would hand out
#: one ID twice or append one table row twice.  The tables only grow,
#: so readers need no lock.
_GROW_LOCK = threading.Lock()

_NO_MATCH = Relation.NO_MATCH
_SATISFIED = Relation.SATISFIED
_VIOLATED = Relation.VIOLATED

#: Sentinel end-token ids: ``_TID_EPSILON`` marks a symbolic condition
#: end (matches any statement end); ``_TID_UNKNOWN`` marks a statement
#: end token the pattern set never mentions (can equal no interned id).
_TID_EPSILON = -1
_TID_UNKNOWN = -2


class BatchTables:
    """The automaton flattened into contiguous numpy arrays — the CSR
    layout the vectorized batch scan gathers over, and (byte-for-byte)
    the array section of a frozen artifact.

    Guard masks can exceed 64 bits (step-kind and concrete-end bits are
    interleaved during compilation), so node and required masks are
    ``(·, W)`` ``uint64`` word matrices with ``W = ceil(num_bits/64)``.
    For a consistency pattern ``sat_b`` holds the second satisfaction
    *node*; for a confusing-word pattern it holds the expected end-token
    id — ``sat_kind`` disambiguates.
    """

    __slots__ = (
        "n_nodes",
        "n_words",
        "node_words",
        "accept_off",
        "accept_pat",
        "req_words",
        "order_node",
        "cond_off",
        "cond_node",
        "cond_tid",
        "ded_off",
        "ded_node",
        "sat_kind",
        "sat_a",
        "sat_b",
    )

    def __init__(self, **arrays) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])


def _mask_words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Arbitrary-width Python int masks -> an ``(len, W)`` uint64 word
    matrix (little-endian word order)."""
    out = np.zeros((len(masks), n_words), dtype=np.uint64)
    full = (1 << 64) - 1
    for row, mask in enumerate(masks):
        word = 0
        while mask:
            out[row, word] = mask & full
            mask >>= 64
            word += 1
    return out


def _csr(rows: Sequence[Sequence[int]], dtype=np.int32) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    flat = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=dtype, count=int(offsets[-1])
    )
    return offsets, flat


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
        self._scan_ready = False
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
        mask = 0
        conds: list[tuple[int, int]] = []
        for c in pattern.condition:
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
        for d in pattern.deduction:
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
            d1, d2 = sorted(pattern.deduction)
            self._sat.append(
                (True, self._insert(d1.prefix), self._insert(d2.prefix), d2)
            )
        else:
            (d,) = pattern.deduction
            self._sat.append(
                (False, self._insert(d.prefix), self._intern_end(d.end), d)
            )

    def deduction_prefix_counts(self) -> Counter[tuple[PathStep, ...]]:
        """Deduction-prefix occurrences across the compiled pattern set,
        read off the trie's accept-node counters — value- and key-order-
        identical to counting ``d.prefix`` over the patterns directly.
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
        self._batch = None

    # ------------------------------------------------------------------
    # Interned scanning: per-ID tables over an attached PathInterner
    # ------------------------------------------------------------------

    def attach_interner(self, interner, cap: int | None = None) -> None:
        """Attach (or replace) the :class:`~repro.mining.interner.PathInterner`
        scans run through.

        Each vocabulary entry is resolved against the trie exactly once
        (node id, end-token id, guard bit, casefolded end) into flat
        tables; scanning a statement then reads one table row per path
        instead of descending the trie and re-casefolding ends.  The
        tables are pure functions of (trie, vocabulary), extended
        lazily as the vocabulary grows.

        ``cap`` bounds serve-time vocabulary growth: unknown paths past
        it scan through the scalar overflow walk instead of interning
        (default: twice the attached vocabulary, with a floor, so a
        long-lived service memoizes real traffic but hostile input
        cannot grow the table forever).  Re-attaching the same interner
        is a no-op; attaching a different one resets the tables.
        """
        if interner is self._interner:
            return
        self._interner = interner
        self._intern_cap = (
            max(2 * len(interner), _MIN_INTERN_CAP) if cap is None else cap
        )
        self._reset_pid_tables()

    def _reset_pid_tables(self) -> None:
        self._pid_node: list[int] = []
        self._pid_endbit: list[int] = []
        self._pid_tid: list[int] = []
        self._pid_fold: list[str] = []
        self._pid_end: list[str | None] = []
        # Batch-scan companions: bit *positions* instead of bit values
        # (numpy cannot hold >64-bit ints), dense casefold ids instead
        # of strings, and a concrete-end flag.  Fold id 0 is seeded to
        # "" so a symbolic end and a literal "" end compare equal —
        # exactly how the scalar scan's ``folda`` strings collide.
        self._pid_endbitpos: list[int] = []
        self._pid_foldid: list[int] = []
        self._pid_conc: list[int] = []
        self._fold_ids: dict[str, int] = {"": 0}
        self._pid_np = None

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
            # getattr: the tables are scratch state, dropped on pickle.
            pid_node = getattr(self, "_pid_node", None)
            if pid_node is None or len(pid_node) < len(self._interner):
                self._extend_pid_tables_locked()
        return ids

    def _extend_pid_tables(self) -> None:
        """Resolve vocabulary entries ``len(tables)..len(interner)-1``
        against the trie.  Values mirror exactly what one overflow-walk
        step computes for the same path — the scan loops then agree
        byte-for-byte whichever branch handled a path."""
        with _GROW_LOCK:
            self._extend_pid_tables_locked()

    def _extend_pid_tables_locked(self) -> None:
        if not hasattr(self, "_pid_node"):
            self._reset_pid_tables()
        pid_node = self._pid_node
        pid_endbit = self._pid_endbit
        pid_tid = self._pid_tid
        pid_fold = self._pid_fold
        pid_end = self._pid_end
        pid_endbitpos = self._pid_endbitpos
        pid_foldid = self._pid_foldid
        pid_conc = self._pid_conc
        fold_ids = self._fold_ids
        children = self._children
        end_bits = self._end_bits
        end_tid = self._end_tid
        vocab = self._interner.paths
        for pid in range(len(pid_node), len(vocab)):
            path = vocab[pid]
            node = 0
            for step in path.prefix:
                nxt = children[node].get(step)
                if nxt is None:
                    node = -1
                    break
                node = nxt
            end = path.end
            pid_node.append(node)
            if end is not None:
                bit = end_bits.get(end, 0)
                pid_endbit.append(bit)
                pid_endbitpos.append(bit.bit_length() - 1 if bit else -1)
                pid_tid.append(end_tid.get(end, _TID_UNKNOWN))
                # Folded ends are sys-interned so the satisfaction
                # compare usually short-circuits on object identity.
                folded = sys.intern(end.casefold())
                pid_fold.append(folded)
                fid = fold_ids.get(folded)
                if fid is None:
                    fid = fold_ids[folded] = len(fold_ids)
                pid_foldid.append(fid)
                pid_conc.append(1)
            else:
                pid_endbit.append(0)
                pid_endbitpos.append(-1)
                pid_tid.append(_TID_UNKNOWN)
                pid_fold.append("")
                pid_foldid.append(0)
                pid_conc.append(0)
            pid_end.append(end)
        self._pid_np = None

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def _prepare_scan(self) -> None:
        """(Re)allocate the generation-stamped scratch arrays.  Nothing
        is cleared between scans — a slot is valid only when its stamp
        equals the current generation."""
        n = len(self._children)
        self._gen = 0
        self._stamp = [0] * n
        self._pos = [0] * n
        self._end: list[str | None] = [None] * n
        self._tid = [0] * n
        self._folded = [""] * n
        self._pat_stamp = [0] * len(self.patterns)
        self._scan_ready = True

    def _scan_ids(
        self, ids: Sequence[int], paths: Sequence[NamePath]
    ) -> list[int]:
        """Scan one statement and return the surviving candidate pattern
        ids in the pinned order.  Each non-negative ID is one set of
        table reads; a ``-1`` (path the capped interner refused) walks
        ``paths[pos]`` through the trie inline — the overflow walk —
        with scratch writes identical to the table branch, so the
        relation checks and candidate order agree byte-for-byte
        whichever branch handled a path.  Stamp arrays stay valid (for
        the relation checks) until the next scan."""
        if not self._scan_ready:
            self._prepare_scan()
        if not self._finalized:
            raise RuntimeError("finalize() must run before matching")
        pid_node = getattr(self, "_pid_node", None)
        if pid_node is None or len(pid_node) < len(self._interner):
            self._extend_pid_tables()
            pid_node = self._pid_node
        gen = self._gen + 1
        self._gen = gen
        pid_endbit = self._pid_endbit
        pid_tid = self._pid_tid
        pid_fold = self._pid_fold
        pid_end = self._pid_end
        children = self._children
        stamp = self._stamp
        posa = self._pos
        enda = self._end
        tida = self._tid
        folda = self._folded
        node_mask = self._node_mask
        end_bits = self._end_bits
        end_tid = self._end_tid
        accepts = self._accepts
        pat_stamp = self._pat_stamp
        stmt_mask = 0
        cand: list[int] = []
        for pos, pid in enumerate(ids):
            if pid >= 0:
                stmt_mask |= pid_endbit[pid]
                node = pid_node[pid]
                if node < 0:
                    continue
                stmt_mask |= node_mask[node]
                if stamp[node] != gen:
                    stamp[node] = gen
                    posa[node] = pos
                enda[node] = pid_end[pid]
                tida[node] = pid_tid[pid]
                folda[node] = pid_fold[pid]
            else:
                path = paths[pos]
                node = 0
                for step in path.prefix:
                    nxt = children[node].get(step)
                    if nxt is None:
                        node = -1
                        break
                    node = nxt
                end = path.end
                if end is not None:
                    bit = end_bits.get(end)
                    if bit is not None:
                        stmt_mask |= bit
                if node < 0:
                    continue
                stmt_mask |= node_mask[node]
                if stamp[node] != gen:
                    stamp[node] = gen
                    posa[node] = pos
                enda[node] = end
                if end is not None:
                    tida[node] = end_tid.get(end, _TID_UNKNOWN)
                    folda[node] = end.casefold()
                else:
                    tida[node] = _TID_UNKNOWN
                    folda[node] = ""
            bucket = accepts.get(node)
            if bucket is not None:
                for idx in bucket:
                    if pat_stamp[idx] != gen:
                        pat_stamp[idx] = gen
                        cand.append(idx)
        if not cand:
            return cand
        req_masks = self._req_masks
        order_node = self._order_node
        ordered: list[tuple[int, int]] = []
        for idx in cand:
            required = req_masks[idx]
            if required & stmt_mask != required:
                continue
            onode = order_node[idx]
            if stamp[onode] != gen:
                continue
            ordered.append((posa[onode], idx))
        ordered.sort()
        return [idx for _, idx in ordered]

    def _relation(self, idx: int, gen: int) -> Relation:
        """The statement/pattern relation, from the current scan's
        stamps — the integer-domain equivalent of ``check_pattern``."""
        stamp = self._stamp
        enda = self._end
        tida = self._tid
        for node, tid in self._conds[idx]:
            if stamp[node] != gen:
                return _NO_MATCH
            # Epsilon condition ends match anything; a symbolic
            # statement end matches any concrete condition end (the
            # ``equal`` operator, pre-resolved).
            if tid >= 0 and tida[node] != tid and enda[node] is not None:
                return _NO_MATCH
        for node in self._deds[idx]:
            if stamp[node] != gen:
                return _NO_MATCH
        sat = self._sat[idx]
        if sat[0]:
            satisfied = self._folded[sat[1]] == self._folded[sat[2]]
        else:
            satisfied = tida[sat[1]] == sat[2]
        return _SATISFIED if satisfied else _VIOLATED

    def relations(
        self,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[tuple[int, Relation]]:
        """``(pattern index, relation)`` for every matching pattern, in
        the pinned candidate order; NO_MATCH candidates are dropped.
        Pass pre-resolved ``ids`` (from :meth:`ids_of`) to skip the
        resolution."""
        out: list[tuple[int, Relation]] = []
        relation = self._relation
        candidates = self._candidates(paths, ids)
        gen = self._gen
        for idx in candidates:
            rel = relation(idx, gen)
            if rel is not _NO_MATCH:
                out.append((idx, rel))
        return out

    def _candidates(
        self, paths: Sequence[NamePath], ids: Sequence[int] | None
    ) -> list[int]:
        if ids is None:
            ids = self.ids_of(paths)
        return self._scan_ids(ids, paths)

    def _violation_for(self, idx: int, stmt: StatementAst) -> Violation:
        """Build the Violation for a VIOLATED candidate from the current
        scan's stamps.  Convention (``find_violation``): a consistency
        pattern reports the second sorted deduction position as the
        offender and the first as the expectation."""
        sat = self._sat[idx]
        enda = self._end
        if sat[0]:
            return Violation(
                statement=stmt,
                pattern=self.patterns[idx],
                observed=enda[sat[2]] or "",
                suggested=enda[sat[1]] or "",
                deduction_path=sat[3],
            )
        d = sat[3]
        return Violation(
            statement=stmt,
            pattern=self.patterns[idx],
            observed=enda[sat[1]] or "",
            suggested=d.end or "",
            deduction_path=d,
        )

    def violations(
        self,
        stmt: StatementAst,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None = None,
    ) -> list[Violation]:
        """All pattern violations of one statement, in the pinned
        candidate order — ``find_violation`` for each matching
        pattern."""
        found: list[Violation] = []
        relation = self._relation
        candidates = self._candidates(paths, ids)
        gen = self._gen
        for idx in candidates:
            if relation(idx, gen) is _VIOLATED:
                found.append(self._violation_for(idx, stmt))
        return found

    def scan_one(
        self,
        stmt: StatementAst,
        paths: Sequence[NamePath],
        ids: Sequence[int] | None,
    ) -> tuple[list[Violation], list[tuple[int, Relation]]]:
        """One scalar scan serving both halves of a detect pass:
        ``(violations, relations)`` — the values :meth:`violations` and
        :meth:`relations` would each produce with their own rescan."""
        viols: list[Violation] = []
        rels: list[tuple[int, Relation]] = []
        relation = self._relation
        candidates = self._candidates(paths, ids)
        gen = self._gen
        for idx in candidates:
            rel = relation(idx, gen)
            if rel is _NO_MATCH:
                continue
            rels.append((idx, rel))
            if rel is _VIOLATED:
                viols.append(self._violation_for(idx, stmt))
        return viols, rels

    # ------------------------------------------------------------------
    # Vectorized batch scan over the CSR layout
    # ------------------------------------------------------------------

    def batch_tables(self) -> BatchTables:
        """The flattened CSR/array view of this automaton (built lazily;
        loaded zero-copy from the frozen blob when this automaton came
        from one — workers that unpickle a frozen-backed automaton
        re-map the blob read-only instead of rebuilding)."""
        bt = getattr(self, "_batch", None)
        if bt is not None:
            return bt
        path = getattr(self, "_frozen_path", None)
        if path is not None:
            try:
                from repro.mining import frozen as _frozen

                bt = _frozen.load_batch_tables(path)
            except Exception:
                bt = None  # damaged blob: derive in-memory instead
        if bt is None:
            bt = self._build_batch_tables()
        self._batch = bt
        return bt

    def _build_batch_tables(self) -> BatchTables:
        if not self._finalized:
            raise RuntimeError("finalize() must run before batch matching")
        n_nodes = len(self._children)
        n_words = max(1, (self._num_bits + 63) // 64)
        accept_off, accept_pat = _csr(
            [self._accepts.get(node, ()) for node in range(n_nodes)]
        )
        cond_off, cond_node = _csr(
            [[node for node, _ in conds] for conds in self._conds]
        )
        _, cond_tid = _csr([[tid for _, tid in conds] for conds in self._conds])
        ded_off, ded_node = _csr(self._deds)
        n_pat = len(self.patterns)
        return BatchTables(
            n_nodes=n_nodes,
            n_words=n_words,
            node_words=_mask_words(self._node_mask, n_words),
            accept_off=accept_off,
            accept_pat=accept_pat,
            req_words=_mask_words(self._req_masks, n_words),
            order_node=np.asarray(self._order_node, dtype=np.int32),
            cond_off=cond_off,
            cond_node=cond_node,
            cond_tid=cond_tid,
            ded_off=ded_off,
            ded_node=ded_node,
            sat_kind=np.fromiter(
                (1 if s[0] else 0 for s in self._sat), dtype=np.int8, count=n_pat
            ),
            sat_a=np.fromiter((s[1] for s in self._sat), dtype=np.int32, count=n_pat),
            sat_b=np.fromiter((s[2] for s in self._sat), dtype=np.int32, count=n_pat),
        )

    def _pid_arrays(self) -> tuple:
        """Numpy mirrors of the per-ID tables (rebuilt whenever the
        vocabulary grew past the cached copy)."""
        arrs = getattr(self, "_pid_np", None)
        if arrs is not None and arrs[0].shape[0] == len(self._pid_node):
            return arrs
        arrs = (
            np.asarray(self._pid_node, dtype=np.int32),
            np.asarray(self._pid_tid, dtype=np.int32),
            np.asarray(self._pid_conc, dtype=np.int8),
            np.asarray(self._pid_foldid, dtype=np.int32),
            np.asarray(self._pid_endbitpos, dtype=np.int32),
        )
        self._pid_np = arrs
        return arrs

    def _batch_core(self, id_rows: Sequence[Sequence[int]]):
        """Scan many fully-interned statements at once.

        Every statement's paths are gathered into one flat ID vector and
        advanced through the per-ID tables with numpy gathers; touched
        ``(statement, node)`` groups are formed by one stable argsort —
        group-**first** supplies the ordering position, group-**last**
        supplies the end-token values (``paths_by_prefix`` overwrite
        parity) — and the relation checks run as array expressions over
        the CSR tables.  Candidate order per statement is the pinned
        historical ``(first-occurrence position of the order node,
        pattern index)`` sort, so outputs are byte-identical to the
        scalar loops.

        Returns ``None`` when there is nothing to match, else
        ``(stmt, pat, satisfied, kind, j1, j2, last_pid)`` lists where
        ``j1``/``j2`` index the touched-group arrays for the two
        satisfaction nodes and ``last_pid[j]`` is the path ID whose end
        token won group ``j``.
        """
        if not self._finalized:
            raise RuntimeError("finalize() must run before matching")
        if not self.patterns or not id_rows:
            return None
        if (
            not hasattr(self, "_pid_node")
            or len(self._pid_node) < len(self._interner)
        ):
            self._extend_pid_tables()
        bt = self.batch_tables()
        pid_node, pid_tid, pid_conc, pid_foldid, pid_ebp = self._pid_arrays()
        nrows = len(id_rows)
        counts = np.fromiter((len(r) for r in id_rows), dtype=np.int64, count=nrows)
        total = int(counts.sum())
        if total == 0:
            return None
        if nrows == 1:
            flat = np.asarray(id_rows[0], dtype=np.int64)
        else:
            flat = np.concatenate(
                [np.asarray(r, dtype=np.int64) for r in id_rows]
            )
        offsets = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        stmt_of = np.repeat(np.arange(nrows, dtype=np.int64), counts)
        pos_in = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
        nodes = pid_node[flat]
        # Per-occurrence guard words: the end-token bit (set whether or
        # not the prefix is in the trie) OR'd with the node's mask.
        n_words = bt.n_words
        words = np.zeros((total, n_words), dtype=np.uint64)
        ebp = pid_ebp[flat]
        with_bit = np.flatnonzero(ebp >= 0)
        if len(with_bit):
            bp = ebp[with_bit].astype(np.uint64)
            words[with_bit, (bp >> np.uint64(6)).astype(np.int64)] = (
                np.uint64(1) << (bp & np.uint64(63))
            )
        valid = np.flatnonzero(nodes >= 0)
        if len(valid) == 0:
            return None
        words[valid] |= bt.node_words[nodes[valid]]
        stmt_words = np.zeros((nrows, n_words), dtype=np.uint64)
        nonempty = np.flatnonzero(counts > 0)
        stmt_words[nonempty] = np.bitwise_or.reduceat(
            words, offsets[nonempty], axis=0
        )
        # Touched (statement, node) groups via one stable argsort: the
        # first member pins the ordering position, the last one's path
        # ID wins the end-token lookup.
        vstmt = stmt_of[valid]
        vnode = nodes[valid].astype(np.int64)
        vpos = pos_in[valid]
        n_nodes = np.int64(bt.n_nodes)
        key = vstmt * n_nodes + vnode
        order = np.argsort(key, kind="stable")
        skey = key[order]
        boundary = np.empty(len(skey), dtype=bool)
        boundary[0] = True
        np.not_equal(skey[1:], skey[:-1], out=boundary[1:])
        gstart = np.flatnonzero(boundary)
        gend = np.append(gstart[1:], len(skey)) - 1
        ukey = skey[gstart]
        gfirst = order[gstart]
        glast = order[gend]
        upos = vpos[gfirst]
        last_pid = flat[valid[glast]]
        last_tid = pid_tid[last_pid]
        last_conc = pid_conc[last_pid]
        last_fold = pid_foldid[last_pid]
        ustmt = ukey // n_nodes
        unode = ukey - ustmt * n_nodes
        n_groups = len(ukey)
        # Candidate enumeration from the accept buckets of touched
        # nodes.  Each pattern lives in exactly one bucket, so the
        # unique (statement, node) groups expand to unique candidates.
        adeg = bt.accept_off[unode + 1] - bt.accept_off[unode]
        hot = np.flatnonzero(adeg > 0)
        if len(hot) == 0:
            return None
        cdeg = adeg[hot]
        n_cand = int(cdeg.sum())
        cand_group = np.repeat(hot, cdeg)
        cum = np.cumsum(cdeg)
        within = np.arange(n_cand, dtype=np.int64) - np.repeat(cum - cdeg, cdeg)
        cand_pat = bt.accept_pat[
            np.repeat(bt.accept_off[unode[hot]], cdeg) + within
        ].astype(np.int64)
        cand_stmt = ustmt[cand_group]
        # Required-bit guard.
        req = bt.req_words[cand_pat]
        ok = np.all((req & stmt_words[cand_stmt]) == req, axis=1)
        # Ordering node: its first-occurrence position pins enumeration
        # order; absence (a deduction prefix) proves NO_MATCH.
        onode = bt.order_node[cand_pat].astype(np.int64)
        oquery = cand_stmt * n_nodes + onode
        j = np.searchsorted(ukey, oquery)
        jc = np.minimum(j, n_groups - 1)
        ok &= (j < n_groups) & (ukey[jc] == oquery)
        opos = upos[jc]
        # Conditions: a missing node is NO_MATCH; a present node fails
        # only when the condition end is concrete, the statement end at
        # the node is concrete, and the token ids differ (epsilon
        # conditions and symbolic statement ends always pass).
        live = np.flatnonzero(ok)
        if len(live) == 0:
            return None
        lpat = cand_pat[live]
        lstmt = cand_stmt[live]
        cdeg2 = bt.cond_off[lpat + 1] - bt.cond_off[lpat]
        n_cond = int(cdeg2.sum())
        if n_cond:
            owner = np.repeat(np.arange(len(live), dtype=np.int64), cdeg2)
            cum2 = np.cumsum(cdeg2)
            within2 = np.arange(n_cond, dtype=np.int64) - np.repeat(
                cum2 - cdeg2, cdeg2
            )
            eidx = np.repeat(bt.cond_off[lpat], cdeg2) + within2
            cnode = bt.cond_node[eidx].astype(np.int64)
            ctid = bt.cond_tid[eidx].astype(np.int64)
            cquery = lstmt[owner] * n_nodes + cnode
            cj = np.searchsorted(ukey, cquery)
            cjc = np.minimum(cj, n_groups - 1)
            cfound = (cj < n_groups) & (ukey[cjc] == cquery)
            bad = ~cfound | (
                (ctid >= 0) & (last_tid[cjc] != ctid) & (last_conc[cjc] != 0)
            )
            nbad = np.bincount(owner[bad], minlength=len(live))
            ok[live[nbad > 0]] = False
            live = np.flatnonzero(ok)
            if len(live) == 0:
                return None
            lpat = cand_pat[live]
            lstmt = cand_stmt[live]
        # Deductions: every deduction node must be touched.
        ddeg = bt.ded_off[lpat + 1] - bt.ded_off[lpat]
        n_ded = int(ddeg.sum())
        owner = np.repeat(np.arange(len(live), dtype=np.int64), ddeg)
        cum3 = np.cumsum(ddeg)
        within3 = np.arange(n_ded, dtype=np.int64) - np.repeat(cum3 - ddeg, ddeg)
        didx = np.repeat(bt.ded_off[lpat], ddeg) + within3
        dnode = bt.ded_node[didx].astype(np.int64)
        dquery = lstmt[owner] * n_nodes + dnode
        dj = np.searchsorted(ukey, dquery)
        djc = np.minimum(dj, n_groups - 1)
        dfound = (dj < n_groups) & (ukey[djc] == dquery)
        nbad = np.bincount(owner[~dfound], minlength=len(live))
        ok[live[nbad > 0]] = False
        surv = np.flatnonzero(ok)
        if len(surv) == 0:
            return None
        # Satisfaction: consistency compares casefold ids at the two
        # deduction nodes, confusing-word compares the token id at the
        # deduction node against the expected id.  Both nodes are
        # deduction prefixes of survivors, so the lookups always hit.
        spat = cand_pat[surv]
        sstmt = cand_stmt[surv]
        kind = bt.sat_kind[spat]
        sat_a = bt.sat_a[spat].astype(np.int64)
        sat_b = bt.sat_b[spat].astype(np.int64)
        j1 = np.minimum(
            np.searchsorted(ukey, sstmt * n_nodes + sat_a), n_groups - 1
        )
        j2 = np.minimum(
            np.searchsorted(
                ukey, sstmt * n_nodes + np.where(kind == 1, sat_b, 0)
            ),
            n_groups - 1,
        )
        satisfied = np.where(
            kind == 1,
            last_fold[j1] == last_fold[j2],
            last_tid[j1] == sat_b,
        )
        # Pinned output order: (statement, first-occurrence position of
        # the order node, pattern index).
        emit = np.lexsort((spat, opos[surv], sstmt))
        return (
            sstmt[emit].tolist(),
            spat[emit].tolist(),
            satisfied[emit].tolist(),
            kind[emit].tolist(),
            j1[emit].tolist(),
            j2[emit].tolist(),
            last_pid.tolist(),
        )

    def relations_batch(
        self, id_rows: Sequence[Sequence[int]]
    ) -> list[list[tuple[int, Relation]]]:
        """:meth:`relations` for many fully-interned statements in one
        vectorized pass — one ``(pattern index, relation)`` list per
        input row, each in the pinned candidate order."""
        rows: list[list[tuple[int, Relation]]] = [[] for _ in id_rows]
        core = self._batch_core(id_rows)
        if core is None:
            return rows
        for stmt_i, pat_i, sat_ok in zip(core[0], core[1], core[2]):
            rows[stmt_i].append(
                (pat_i, _SATISFIED if sat_ok else _VIOLATED)
            )
        return rows

    def scan_batch(
        self,
        stmts: Sequence[StatementAst],
        id_rows: Sequence[Sequence[int]],
    ) -> tuple[list[list[Violation]], tuple[list[int], list[int], list[bool]]]:
        """One vectorized scan serving both halves of a detect pass
        over many fully-interned statements: per-row violations
        (byte-identical to :meth:`scan_one` on each row) plus every
        matched relation as parallel ``(row, pattern index, satisfied)``
        lists, in row order and the pinned candidate order within a
        row."""
        viol_rows: list[list[Violation]] = [[] for _ in id_rows]
        core = self._batch_core(id_rows)
        if core is None:
            return viol_rows, ([], [], [])
        stmt_l, pat_l, sat_l, kind_l, j1_l, j2_l, last_pid = core
        pid_end = self._pid_end
        sat_tab = self._sat
        patterns = self.patterns
        for i in range(len(stmt_l)):
            if sat_l[i]:
                continue
            pat_i = pat_l[i]
            sat = sat_tab[pat_i]
            ded = sat[3]
            if kind_l[i]:
                observed = pid_end[last_pid[j2_l[i]]] or ""
                suggested = pid_end[last_pid[j1_l[i]]] or ""
            else:
                observed = pid_end[last_pid[j1_l[i]]] or ""
                suggested = ded.end or ""
            viol_rows[stmt_l[i]].append(
                Violation(
                    statement=stmts[stmt_l[i]],
                    pattern=patterns[pat_i],
                    observed=observed,
                    suggested=suggested,
                    deduction_path=ded,
                )
            )
        return viol_rows, (stmt_l, pat_l, sat_l)

    def __len__(self) -> int:
        return len(self.patterns)

    # ------------------------------------------------------------------
    # Pickling: scratch arrays are per-process scan state, never shipped
    # ------------------------------------------------------------------

    _SCRATCH = (
        "_gen",
        "_stamp",
        "_pos",
        "_end",
        "_tid",
        "_folded",
        "_pat_stamp",
        # Per-ID tables are derived state: the attached interner (its
        # vocabulary) ships, the tables rebuild lazily on first ID scan.
        "_pid_node",
        "_pid_endbit",
        "_pid_tid",
        "_pid_fold",
        "_pid_end",
        "_pid_endbitpos",
        "_pid_foldid",
        "_pid_conc",
        "_fold_ids",
        "_pid_np",
        # Batch tables rebuild from the Python structures — or re-map
        # the frozen blob read-only when ``_frozen_path`` (which does
        # ship) points at one, so pool workers share the page cache
        # instead of each paying a pickled copy.
        "_batch",
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._SCRATCH:
            state.pop(name, None)
        state["_scan_ready"] = False
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
