"""Tests for the FP tree, including the worked example of Figure 3.

The miner grows its tree over interned path IDs, so the example does
too: NP1..NP6 are interned into a :class:`PathInterner`, transactions
are int tuples, and Algorithm 2's output is resolved back to paths.
"""

from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import PatternKind
from repro.mining.fptree import FPNode, FPTree
from repro.mining.interner import PathInterner
from repro.mining.miner import generate_patterns_ids


def np_(name: str) -> NamePath:
    """Distinct single-step paths standing in for NP1..NP6."""
    return NamePath(prefix=(PathStep(value=name, index=0),), end=name.lower())


NP1, NP2, NP3, NP4, NP5, NP6 = (np_(f"NP{i}") for i in range(1, 7))
INTERNER = PathInterner([NP1, NP2, NP3, NP4, NP5, NP6])
ID1, ID2, ID3, ID4, ID5, ID6 = (
    INTERNER.id_of(p) for p in (NP1, NP2, NP3, NP4, NP5, NP6)
)


def figure3_tree() -> FPTree:
    """Grow the FP tree of Figure 3(a).

    The figure's node counts are illustrative (33 + 32 > 44, so no
    single transaction multiset yields them exactly); what matters for
    Algorithm 2 — and what Figure 3(b) derives — are the counts at the
    ``is_last`` nodes: NP2=33, NP5=15, NP4=14, NP6=13.  We insert the
    minimal transaction multiset producing exactly those.
    """
    tree = FPTree()
    for _ in range(33):
        tree.update([ID1, ID2])
    for _ in range(15):
        tree.update([ID1, ID3, ID5])
    for _ in range(13):
        tree.update([ID1, ID3, ID4, ID6])
    # One transaction ends at NP4 itself (14 total at the NP4 node).
    tree.update([ID1, ID3, ID4])
    return tree


class TestFPNode:
    def test_child_creates_once(self):
        root = FPNode()
        a = root.child(ID1)
        assert root.child(ID1) is a

    def test_walk(self):
        tree = figure3_tree()
        assert tree.node_count() == 6


class TestFPTree:
    def test_counts_match_figure3(self):
        tree = figure3_tree()
        n1 = tree.root.children[ID1]
        assert n1.count == 62  # all transactions share the NP1 prefix
        assert n1.children[ID2].count == 33
        assert n1.children[ID3].children[ID4].count == 14
        assert n1.children[ID3].children[ID5].count == 15
        assert n1.children[ID3].children[ID4].children[ID6].count == 13

    def test_is_last_flags(self):
        tree = figure3_tree()
        n1 = tree.root.children[ID1]
        assert n1.children[ID2].is_last
        assert n1.children[ID3].children[ID5].is_last
        assert n1.children[ID3].children[ID4].is_last
        assert not n1.children[ID3].is_last

    def test_empty_transaction_ignored(self):
        tree = FPTree()
        tree.update([])
        assert tree.transaction_count == 0

    def test_depth(self):
        assert figure3_tree().depth() == 4

    def test_transaction_count(self):
        assert figure3_tree().transaction_count == 62


class TestGeneratePatternsOnFigure3:
    def test_extracted_patterns_match_figure3b(self):
        """Algorithm 2 over Figure 3(a) must produce exactly the four
        (condition, deduction, count) rows of Figure 3(b)."""
        tree = figure3_tree()
        candidates = generate_patterns_ids(
            tree.root,
            PatternKind.CONFUSING_WORD,
            INTERNER.ensure_symbolic(),
            condition_subsets="full",
        )
        resolve = INTERNER.resolve
        rows = {
            (tuple(sorted(map(resolve, cond))), resolve(deduct[0]), support)
            for cond, deduct, support in candidates
            if cond  # the lone NP1 transactions have no condition
        }
        assert ((NP1,), NP2, 33) in rows
        assert ((NP1, NP3), NP5, 15) in rows
        assert ((NP1, NP3), NP4, 14) in rows
        assert ((NP1, NP3, NP4), NP6, 13) in rows
        assert len(rows) == 4
