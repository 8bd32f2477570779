"""Frequent-pattern tree over name paths (Section 3.3).

The miner inserts *transactions* — a sorted condition-path list followed
by the deduction path(s) — into an FP tree.  Each tree node stores one
name path and the number of transactions whose prefix reaches it; the
node at which a transaction ends is flagged ``is_last``, which is what
:func:`repro.mining.miner.generate_patterns_ids` (Algorithm 2) keys
on.

This mirrors Han et al.'s FP-tree [24] and Leung et al.'s constrained
variant [32], specialized to the condition/deduction split: deduction
paths always come last in a transaction, so every ``is_last`` node's
final one or two visited paths are the deduction.

The tree is agnostic to what a transaction item *is* — nodes key
children by the item value.  The miner inserts dense ``int`` IDs from
:class:`repro.mining.interner.PathInterner`, which hash and compare in
a few nanoseconds instead of tuple-hashing every path field; the
interner assigns IDs in first-occurrence order, so insertion and
child-dict order follow the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.namepath import NamePath

__all__ = ["FPNode", "FPTree"]


@dataclass
class FPNode:
    """One node of the FP tree.

    Attributes:
        path: The transaction item this node represents — a name path
            or its interned ID (``None`` at the root).
        count: Number of transactions whose prefix includes this node.
        last_count: Number of transactions *ending* exactly here.
        is_last: Whether any transaction ends here (Algorithm 1's flag).
        children: Child nodes keyed by their name path.
    """

    path: NamePath | int | None = None
    count: int = 0
    last_count: int = 0
    is_last: bool = False
    children: dict[NamePath | int, "FPNode"] = field(default_factory=dict)

    def child(self, path: NamePath | int) -> "FPNode":
        """Get or create the child for ``path``."""
        existing = self.children.get(path)
        if existing is None:
            existing = FPNode(path=path)
            self.children[path] = existing
        return existing

    def walk(self) -> Iterator["FPNode"]:
        """Yield this node and all descendants, pre-order."""
        stack = [self]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children.values())


class FPTree:
    """The FP tree grown over all transactions of a dataset."""

    def __init__(self) -> None:
        self.root = FPNode()
        self.transaction_count = 0

    def update(self, transaction: Sequence[NamePath | int]) -> None:
        """Insert one transaction, incrementing counts along its path and
        flagging the final node (Algorithm 1, line 7)."""
        self.update_counted(transaction, 1)

    def update_counted(
        self, transaction: Sequence[NamePath | int], count: int
    ) -> None:
        """Insert ``count`` occurrences of one transaction at once.

        This is how sharded mining replays merged per-shard transaction
        counts into a single tree: node counts are additive, so
        replaying each *distinct* transaction once with its total count
        — in first-occurrence order — produces a tree bit-identical to
        ``count`` separate :meth:`update` calls interleaved in corpus
        order (child dict order included, since a child is created by
        the first transaction through it either way).
        """
        if not transaction or count <= 0:
            return
        self.transaction_count += count
        current = self.root
        for path in transaction:
            current = current.child(path)
            current.count += count
        current.is_last = True
        current.last_count += count

    def node_count(self) -> int:
        """Total number of nodes (excluding the root)."""
        return sum(1 for _ in self.root.walk()) - 1

    def depth(self) -> int:
        """Longest root-to-leaf chain length."""
        best = 0
        stack: list[tuple[FPNode, int]] = [(self.root, 0)]
        while stack:
            n, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in n.children.values())
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FPTree({self.node_count()} nodes, "
            f"{self.transaction_count} transactions)"
        )
