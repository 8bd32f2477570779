"""Dense integer IDs for name paths (the interned hot-path domain).

Hashing and comparing rich :class:`NamePath` objects in every mining
pass — frequency counts, FP-tree children, transaction keys, automaton
scans that re-hash path prefixes per statement — would dominate mining.
The :class:`PathInterner` assigns each distinct path a dense integer ID
in **first-occurrence order** over the corpus, so the hot loops run on
integers — ``numpy.bincount`` for frequency, int-tuple keys for growth,
table lookups instead of trie descents for matching — while every
ordering-sensitive structure downstream (FP-tree child dicts, merged
transaction dicts, candidate enumeration) follows corpus order.

Three invariants make this safe:

* **First-occurrence IDs.**  ``build()`` walks the corpus paths in
  statement order; the n-th *distinct* path gets ID ``n``.  Contiguous
  shard merges remap through :meth:`intern` in shard order, which
  reproduces exactly the serial assignment.
* **Order-compatible ranks.**  ``sort_ranks()`` orders the vocabulary
  by ``(prefix, end is not None, end or "")``.  Within one statement
  all path prefixes are distinct, so a ``sorted(paths)`` over one
  statement never compares end tokens of equal prefixes — the rank
  order and the ``NamePath`` tuple order agree on every comparison
  the miner performs, making ``sorted(ids, key=rank)`` reproduce
  ``sorted(paths)`` exactly.
* **Vocabulary-carrying summaries.**  Global IDs depend on preceding
  shards, so cache entries and shard summaries that must be pure
  functions of their own shard carry *local* IDs plus the shard's
  first-occurrence vocabulary slice; the parent remaps through its own
  interner on merge (see :class:`ShardPathCounts`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.namepath import NamePath

__all__ = ["PathInterner", "ShardPathCounts"]


class PathInterner:
    """A bijective ``NamePath`` <-> dense-int table.

    IDs are assigned in first-occurrence order: the vocabulary list
    doubles as the resolve table and its order is part of the public
    contract (shard merges and byte-identity both lean on it).
    """

    __slots__ = ("_ids", "_paths", "_tables_upto")

    def __init__(self, paths: Iterable[NamePath] = ()) -> None:
        self._ids: dict[NamePath, int] = {}
        self._paths: list[NamePath] = []
        #: vocabulary size the cached per-ID tables cover (see
        #: :meth:`sort_ranks` / :meth:`kind_tables`); recomputed lazily
        #: when the vocabulary has grown past it
        self._tables_upto: dict = {}
        for path in paths:
            self.intern(path)

    # ------------------------------------------------------------------
    # Core table
    # ------------------------------------------------------------------

    def intern(self, path: NamePath) -> int:
        """Get-or-assign the ID of ``path`` (first occurrence wins)."""
        pid = self._ids.get(path)
        if pid is None:
            pid = self._ids[path] = len(self._paths)
            self._paths.append(path)
        return pid

    def id_of(self, path: NamePath) -> int | None:
        """The ID of ``path``, or ``None`` when it was never interned."""
        return self._ids.get(path)

    def intern_capped(self, path: NamePath, cap: int) -> int:
        """:meth:`intern`, but refuse to grow past ``cap`` entries:
        returns ``-1`` for an unknown path once the table is full.  The
        serve-time guard — long-lived matchers memoize the paths they
        see without letting hostile traffic grow the table forever."""
        pid = self._ids.get(path)
        if pid is not None:
            return pid
        if len(self._paths) >= cap:
            return -1
        pid = self._ids[path] = len(self._paths)
        self._paths.append(path)
        return pid

    def resolve(self, pid: int) -> NamePath:
        return self._paths[pid]

    @property
    def paths(self) -> list[NamePath]:
        """The vocabulary in ID order (do not mutate)."""
        return self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: NamePath) -> bool:
        return path in self._ids

    # ------------------------------------------------------------------
    # Corpus construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, path_lists: Sequence[Sequence[NamePath]]
    ) -> tuple["PathInterner", list[np.ndarray]]:
        """One pass over per-statement path lists: the corpus interner
        plus one ``int32`` ID array per statement (aligned with the
        input).  This is the single remaining pass that hashes every
        path occurrence; everything downstream reads the arrays."""
        interner = cls()
        ids = interner._ids
        paths_out = interner._paths
        id_lists: list[np.ndarray] = []
        for paths in path_lists:
            row = []
            for path in paths:
                pid = ids.get(path)
                if pid is None:
                    pid = ids[path] = len(paths_out)
                    paths_out.append(path)
                row.append(pid)
            id_lists.append(np.asarray(row, dtype=np.int32))
        return interner, id_lists

    # ------------------------------------------------------------------
    # Derived per-ID tables (plain lists: the consumers are pure-Python
    # loops, where list indexing beats numpy scalar boxing)
    # ------------------------------------------------------------------

    def ensure_symbolic(self) -> list[int]:
        """Intern the symbolic variant of every concrete vocabulary
        entry and return the ``sym`` table: ``sym[pid]`` is the ID of
        ``resolve(pid).as_symbolic()`` (its own ID for already-symbolic
        entries).  Prefix identity — the only thing the miner's split
        loops compare prefixes for — becomes ``sym[a] == sym[b]``.

        Deterministic: symbolic IDs are assigned in concrete-ID order,
        so two processes holding the same vocabulary agree on every
        symbolic ID.  Extends the table when called again after growth.
        """
        cached = self._tables_upto.get("sym")
        sym: list[int] = cached if cached is not None else []
        if cached is None:
            self._tables_upto["sym"] = sym
        paths = self._paths
        while len(sym) < len(paths):
            pid = len(sym)
            path = paths[pid]
            sym.append(pid if path.end is None else self.intern(path.as_symbolic()))
        return sym

    def sort_ranks(self) -> list[int]:
        """``rank[pid]``: the position of ``resolve(pid)`` under the
        total order ``(prefix, end is not None, end or "")``.

        Agrees with the ``NamePath`` tuple order on every pair of
        distinct-prefix paths and on every pair of concrete equal-prefix
        paths — the only comparisons a ``sorted(paths)`` over one
        statement performs — so sorting IDs by rank reproduces
        ``sorted(paths)`` order exactly.  Recomputed (cheaply,
        once) whenever the vocabulary has grown.
        """
        cached = self._tables_upto.get("rank")
        if cached is not None and len(cached[1]) == len(self._paths):
            return cached[1]
        order = sorted(
            range(len(self._paths)),
            key=lambda pid: (
                self._paths[pid].prefix,
                self._paths[pid].end is not None,
                self._paths[pid].end or "",
            ),
        )
        rank = [0] * len(order)
        for position, pid in enumerate(order):
            rank[pid] = position
        self._tables_upto["rank"] = (len(self._paths), rank)
        return rank

    def fold_table(self) -> list[int]:
        """``fold[pid]``: dense ID of ``resolve(pid).end.casefold()``,
        ``-1`` for symbolic entries.  Two concrete paths' ends are
        casefold-equal iff their fold IDs are equal — the consistency
        split's pair test as one int compare."""
        cached = self._tables_upto.get("fold")
        fold: list[int]
        fold_ids: dict[str, int]
        if cached is None:
            fold, fold_ids = [], {}
            self._tables_upto["fold"] = (fold, fold_ids)
        else:
            fold, fold_ids = cached
        paths = self._paths
        while len(fold) < len(paths):
            end = paths[len(fold)].end
            if end is None:
                fold.append(-1)
            else:
                folded = end.casefold()
                fid = fold_ids.get(folded)
                if fid is None:
                    fid = fold_ids[folded] = len(fold_ids)
                fold.append(fid)
        return fold

    def name_ok_table(self) -> list[bool]:
        """``name_ok[pid]``: the ``_is_name_subtoken`` predicate (a real
        name, not a literal placeholder), precomputed per vocabulary
        entry."""
        cached = self._tables_upto.get("name_ok")
        ok: list[bool] = cached if cached is not None else []
        if cached is None:
            self._tables_upto["name_ok"] = ok
        paths = self._paths
        while len(ok) < len(paths):
            ok.append(paths[len(ok)].end not in (None, "NUM", "STR", "BOOL"))
        return ok

    # ------------------------------------------------------------------
    # Pickling: ship only the vocabulary; the dict rebuilds on load
    # (cached NamePath hashes are per-process under PYTHONHASHSEED).
    # ------------------------------------------------------------------

    def __getstate__(self) -> list[NamePath]:
        return self._paths

    def __setstate__(self, paths: list[NamePath]) -> None:
        self._paths = paths
        self._ids = {path: pid for pid, path in enumerate(paths)}
        self._tables_upto = {}


class ShardPathCounts:
    """A shard's path-frequency summary in the interned pipeline.

    Cache entries (and shard results generally) must be pure functions
    of the shard's own content — global IDs are not, their values
    depend on every preceding shard — so the summary pairs *local*
    first-occurrence-ordered counts with the vocabulary slice they
    index.  :func:`merge_shard_path_counts` remaps through the parent's
    interner, which for contiguous in-order shards reproduces exactly
    the serial first-occurrence assignment.
    """

    __slots__ = ("vocab", "counts")

    def __init__(self, vocab: list[NamePath], counts: list[int]) -> None:
        self.vocab = vocab
        self.counts = counts

    @classmethod
    def from_id_arrays(
        cls, id_arrays: Sequence[np.ndarray], interner: PathInterner
    ) -> "ShardPathCounts":
        """Count a shard's (globally-ID'd) path arrays and re-express
        the result in shard-local first-occurrence order."""
        if id_arrays:
            flat = np.concatenate(id_arrays)
        else:
            flat = np.zeros(0, dtype=np.int32)
        totals = np.bincount(flat, minlength=0)
        present = np.flatnonzero(totals)
        if len(present) == 0:
            return cls([], [])
        # First-occurrence order of the *shard*: position of each
        # distinct ID's first appearance in the concatenated stream.
        first = np.full(int(flat.max()) + 1, len(flat), dtype=np.int64)
        # reversed so the earliest occurrence wins the final write
        first[flat[::-1]] = np.arange(len(flat) - 1, -1, -1)
        ordered = present[np.argsort(first[present], kind="stable")]
        resolve = interner.resolve
        return cls(
            [resolve(int(pid)) for pid in ordered],
            [int(totals[pid]) for pid in ordered],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShardPathCounts)
            and self.vocab == other.vocab
            and self.counts == other.counts
        )

    def __getstate__(self) -> tuple[list[NamePath], list[int]]:
        return (self.vocab, self.counts)

    def __setstate__(self, state) -> None:
        self.vocab, self.counts = state


def merge_shard_path_counts(
    summaries: Iterable[ShardPathCounts], interner: PathInterner
) -> np.ndarray:
    """Merge shard summaries into a global-ID count array (``int64``,
    sized to the interner).  Remapping goes through :meth:`intern` —
    get-or-add — so merging also *builds* a fresh interner correctly
    when handed one grown only by earlier shards (the shard-merge ==
    flat-build property the tests pin)."""
    entries = list(summaries)
    for summary in entries:
        for path in summary.vocab:
            interner.intern(path)
    counts = np.zeros(len(interner), dtype=np.int64)
    for summary in entries:
        for path, count in zip(summary.vocab, summary.counts):
            counts[interner.intern(path)] += count
    return counts
