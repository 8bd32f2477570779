"""Language-neutral abstract syntax trees for program statements.

The paper (Definition 3.1) models the AST of a single program statement as
a tuple ``<N, T, r, delta, V, phi>``: non-terminals, terminals, a root, a
child function, node values, and a value function.  This module provides a
concrete realization shared by the Python and Java frontends, the AST+
transformation pipeline, and the pattern miner.

A :class:`Node` is a non-terminal when it has children and a terminal
otherwise.  Every node carries a *value* (``phi``); for structural nodes
the value is the node kind (``"Call"``, ``"Assign"``), while for terminal
nodes it is the identifier text or an abstracted literal token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "Node",
    "StatementAst",
    "NUM_TOKEN",
    "STR_TOKEN",
    "BOOL_TOKEN",
    "node",
    "terminal",
]

#: Abstracted literal tokens (transformation step 1 of Section 3.1).
NUM_TOKEN = "NUM"
STR_TOKEN = "STR"
BOOL_TOKEN = "BOOL"


@dataclass
class Node:
    """A single AST node.

    Attributes:
        kind: The syntactic category, e.g. ``"Call"`` or ``"NameLoad"``.
        value: The node value ``phi(n)``.  Defaults to ``kind`` for
            structural nodes.
        children: Child nodes in syntactic order (``delta``).
        meta: Free-form annotations attached by frontends and analyses
            (e.g. ``"role"``, ``"origin"``, source positions).
    """

    kind: str
    value: str = ""
    children: list["Node"] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.value:
            self.value = self.kind

    @property
    def is_terminal(self) -> bool:
        """True when the node has no children (a member of ``T``)."""
        return not self.children

    def add(self, child: "Node") -> "Node":
        """Append ``child`` and return ``self`` for chaining."""
        self.children.append(child)
        return self

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in pre-order."""
        stack = [self]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(current.children))

    def terminals(self) -> Iterator["Node"]:
        """Yield all terminal nodes in left-to-right order."""
        for n in self.walk():
            if n.is_terminal:
                yield n

    def find(self, predicate: Callable[["Node"], bool]) -> Iterator["Node"]:
        """Yield all nodes in pre-order for which ``predicate`` holds."""
        for n in self.walk():
            if predicate(n):
                yield n

    def clone(self) -> "Node":
        """Return a deep copy of the subtree rooted at this node."""
        return Node(
            kind=self.kind,
            value=self.value,
            children=[c.clone() for c in self.children],
            meta=dict(self.meta),
        )

    def size(self) -> int:
        """Number of nodes in the subtree."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the subtree (a lone node has depth 1)."""
        if self.is_terminal:
            return 1
        return 1 + max(c.depth() for c in self.children)

    def structural_key(self) -> str:
        """A canonical string identifying the subtree up to node values.

        Two statements are *identical* in the sense of features 2-3 of
        Table 1 exactly when their structural keys match.
        """
        if self.is_terminal:
            return self.value
        inner = ",".join(c.structural_key() for c in self.children)
        return f"{self.value}({inner})"

    def pretty(self, indent: int = 0) -> str:
        """Render the subtree as an indented multi-line string."""
        pad = "  " * indent
        label = self.value if self.value == self.kind else f"{self.kind}:{self.value}"
        lines = [f"{pad}{label}"]
        lines.extend(c.pretty(indent + 1) for c in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.kind!r}, {self.value!r}, {len(self.children)} children)"


@dataclass
class StatementAst:
    """The AST of one program statement plus provenance.

    Frontends produce one :class:`StatementAst` per statement; the miner
    and the detector both operate at this granularity (Definition 3.1
    models "the abstract syntax tree of the whole program, projected on a
    specific statement only").
    """

    root: Node
    source: str = ""
    file_path: str = ""
    repo: str = ""
    line: int = 0

    def structural_key(self) -> str:
        return self.root.structural_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        location = f"{self.file_path}:{self.line}" if self.file_path else "<memory>"
        return f"StatementAst({location}, {self.source[:40]!r})"


def node(kind: str, *children: Node, value: str = "") -> Node:
    """Construct a non-terminal node; convenience for tests and fixtures."""
    return Node(kind=kind, value=value or kind, children=list(children))


def terminal(kind: str, value: str) -> Node:
    """Construct a terminal node carrying ``value``."""
    return Node(kind=kind, value=value)
