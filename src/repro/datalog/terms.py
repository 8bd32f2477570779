"""Terms, atoms and rules of the Datalog dialect.

The points-to analysis of Section 4.1 is expressed in Datalog (the
paper cites Smaragdakis & Balatsouras for the encoding).  A rule body
holds positive atoms and ``Bind`` builtins, which compute a value from
bound variables (needed to push call sites onto bounded k-contexts).

Constants are arbitrary hashable Python values; variables are
:class:`Var` instances (or, in :func:`atom`, strings starting with
``?``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

__all__ = ["Var", "Atom", "Bind", "Rule", "atom"]


@dataclass(frozen=True)
class Var:
    """A Datalog variable."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Var | Hashable


@dataclass(frozen=True)
class Atom:
    """``predicate(arg1, ..., argn)`` — in a head or a body."""

    predicate: str
    args: tuple[Term, ...]

    def variables(self) -> set[Var]:
        return {a for a in self.args if isinstance(a, Var)}

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.predicate}({inner})"


@dataclass(frozen=True)
class Bind:
    """``var := fn(*args)`` — computes a new binding.

    The compiled program runs a Bind as soon as its variable ``args``
    are bound; onto an already-bound ``target`` it is an equality test.
    """

    target: Var
    fn: Callable[..., Hashable]
    args: tuple[Term, ...] = ()

    def __repr__(self) -> str:
        return f"{self.target!r} := {getattr(self.fn, '__name__', 'fn')}{self.args!r}"


BodyItem = Atom | Bind


@dataclass(frozen=True)
class Rule:
    """``head :- body``. Facts are rules with an empty body."""

    head: Atom
    body: tuple[BodyItem, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        bound: set[Var] = set()
        for item in self.body:
            if isinstance(item, Atom):
                bound |= item.variables()
            else:
                bound.add(item.target)
        unbound = self.head.variables() - bound
        if unbound:
            raise ValueError(f"head variables {unbound} never bound in body")

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r}."
        return f"{self.head!r} :- {', '.join(repr(b) for b in self.body)}."


def atom(predicate: str, *args: Term) -> Atom:
    """Convenience constructor: strings starting with ``?`` become
    variables, everything else stays constant."""
    converted: list[Term] = []
    for a in args:
        if isinstance(a, str) and a[:1] == "?":
            converted.append(Var(a[1:]))
        else:
            converted.append(a)
    return Atom(predicate=predicate, args=tuple(converted))
