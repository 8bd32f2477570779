"""Figure 3: the FP-tree example and the patterns Algorithm 2 extracts.

The transaction multiset reproduces the is_last counts of Figure 3(a)
(NP2=33, NP5=15, NP4=14, NP6=13) and the extracted pattern table must
equal Figure 3(b) exactly.  As in the miner, NP1..NP6 are interned and
the tree grows over int transactions; Algorithm 2's output is resolved
back to paths.  The benchmark times tree growth plus pattern
generation.
"""

from conftest import print_table

from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import PatternKind
from repro.mining.fptree import FPTree
from repro.mining.interner import PathInterner
from repro.mining.miner import generate_patterns_ids


def np_(name: str) -> NamePath:
    return NamePath(prefix=(PathStep(value=name, index=0),), end=name.lower())


NP1, NP2, NP3, NP4, NP5, NP6 = (np_(f"NP{i}") for i in range(1, 7))


def grow_and_generate():
    interner = PathInterner([NP1, NP2, NP3, NP4, NP5, NP6])
    id1, id2, id3, id4, id5, id6 = (
        interner.id_of(p) for p in (NP1, NP2, NP3, NP4, NP5, NP6)
    )
    tree = FPTree()
    for _ in range(33):
        tree.update([id1, id2])
    for _ in range(15):
        tree.update([id1, id3, id5])
    for _ in range(13):
        tree.update([id1, id3, id4, id6])
    tree.update([id1, id3, id4])
    candidates = generate_patterns_ids(
        tree.root,
        PatternKind.CONFUSING_WORD,
        interner.ensure_symbolic(),
        condition_subsets="full",
    )
    return tree, candidates, interner


def test_figure3_fptree(benchmark):
    tree, candidates, interner = benchmark(grow_and_generate)

    resolve = interner.resolve
    rows = {
        (tuple(sorted(map(resolve, cond))), resolve(deduct[0]), support)
        for cond, deduct, support in candidates
        if cond
    }
    expected = {
        ((NP1,), NP2, 33),
        ((NP1, NP3), NP5, 15),
        ((NP1, NP3), NP4, 14),
        ((NP1, NP3, NP4), NP6, 13),
    }
    assert rows == expected, rows

    lines = [f"{'condition':<18} {'deduction':<10} count"]
    for cond, deduct, count in sorted(expected, key=lambda r: -r[2]):
        cond_names = ", ".join(c.prefix[0].value for c in cond)
        lines.append(f"{cond_names:<18} {deduct.prefix[0].value:<10} {count}")
    print_table(
        "Figure 3(b) — name patterns extracted from the example FP tree",
        "\n".join(lines),
    )
