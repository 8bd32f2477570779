"""Name paths: the program abstraction for identifier usages.

A *name path* (Definition 3.2) is a pair ``<S, n>`` where the prefix
``S`` lists the non-terminal nodes (with child indices) along a
root-to-leaf walk of a transformed AST, and ``n`` is the leaf subtoken —
or the symbolic node epsilon, which matches any end node and gives name
patterns their degrees of freedom.

Two relational operators (Definition 3.4) drive pattern matching:

* ``similar(a, b)``  — the ``~`` operator: equal prefixes.
* ``equal(a, b)``    — the ``=`` operator: equal prefixes and equal end
  nodes, where epsilon compares equal to anything.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from repro.lang.astir import Node, StatementAst

__all__ = [
    "EPSILON",
    "PathStep",
    "NamePath",
    "extract_name_paths",
    "similar",
    "equal",
]

#: The symbolic end node; any concrete end node compares equal to it.
EPSILON: Optional[str] = None


class PathStep(NamedTuple):
    """One prefix element: a node value plus the index of the next child."""

    value: str
    index: int

    def __str__(self) -> str:
        return f"{self.value} {self.index}"


class NamePath(NamedTuple):
    """An immutable name path ``<S, n>``.

    ``end is None`` encodes the symbolic node epsilon.  Paths are named
    tuples, so hashing, equality and the canonical sort the FP-tree
    miner relies on (prefix first, then end) all run as C tuple
    operations; the hash of a path is the hash of ``(prefix, end)``.
    """

    prefix: tuple[PathStep, ...]
    end: Optional[str]

    @property
    def is_symbolic(self) -> bool:
        return self.end is EPSILON

    @property
    def is_concrete(self) -> bool:
        return self.end is not EPSILON

    def with_end(self, end: Optional[str]) -> "NamePath":
        """Return a copy of this path with a different end node."""
        return NamePath(prefix=self.prefix, end=end)

    def as_symbolic(self) -> "NamePath":
        """Return the symbolic version of this path (end set to epsilon)."""
        return self.with_end(EPSILON)

    def __str__(self) -> str:
        end = "ε" if self.end is EPSILON else self.end
        steps = " ".join(str(s) for s in self.prefix)
        return f"{steps} {end}" if steps else str(end)


def similar(a: NamePath, b: NamePath) -> bool:
    """The ``~`` operator: true when the prefixes are identical."""
    return a.prefix == b.prefix


def equal(a: NamePath, b: NamePath) -> bool:
    """The ``=`` operator: ``~`` plus end-node equality modulo epsilon."""
    if a.prefix != b.prefix:
        return False
    return a.end is EPSILON or b.end is EPSILON or a.end == b.end


def extract_name_paths(
    stmt: StatementAst | Node,
    max_paths: int | None = None,
) -> list[NamePath]:
    """Extract all concrete name paths of a transformed statement AST.

    Traversal is top-down, left-to-right, so the resulting order is
    deterministic and matches Figure 2(d).  When ``max_paths`` is given
    only the first ``max_paths`` paths are kept (the paper's
    regularization keeps the first 10).

    The returned set satisfies the two properties stated after
    Example 3.5: every path is concrete and all prefixes are distinct
    (distinctness follows from the tree shape: two different leaves
    diverge at some child index).

    An AST+ statement from :func:`repro.core.transform.transform_statement`
    already holds its paths, computed in the transformation's walk, so
    they are returned without building or walking a tree.
    """
    if isinstance(stmt, StatementAst):
        walked = getattr(stmt, "name_paths", None)
        if walked is not None:
            return walked[: max(max_paths, 0)] if max_paths is not None else list(walked)
        stmt = stmt.root
    paths: list[NamePath] = []
    _collect(stmt, [], paths, max_paths)
    return paths


def _collect(
    n: Node,
    prefix: list[PathStep],
    out: list[NamePath],
    max_paths: int | None,
) -> None:
    if max_paths is not None and len(out) >= max_paths:
        return
    if n.is_terminal:
        out.append(NamePath(prefix=tuple(prefix), end=n.value))
        return
    for index, child in enumerate(n.children):
        prefix.append(PathStep(value=n.value, index=index))
        _collect(child, prefix, out, max_paths)
        prefix.pop()


def paths_by_prefix(paths: Iterable[NamePath]) -> dict[tuple[PathStep, ...], NamePath]:
    """Index a statement's paths by prefix (prefixes are unique)."""
    return {p.prefix: p for p in paths}
