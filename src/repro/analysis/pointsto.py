"""Andersen-style points-to analysis with k-call-site sensitivity.

Section 4.1: Namer computes a context-sensitive Andersen points-to
analysis per file, with k-call-site sensitivity (k = 5 by default),
implemented in Datalog.  When a file would explode to more than
``max_avg_contexts`` contexts per method on average, the analysis falls
back to a context-insensitive run — the paper notes this happens for a
few programs in its dataset, and that soundness is not required.  The
k-deep solve is cut off as soon as its ``Reachable`` relation proves
the fallback certain, so an exploding file never runs it to fixpoint.

Contexts are tuples of call-site ids, newest first, truncated to k.
``VarPointsTo`` rows are scoped by (context, function, variable) so that
same-named locals in different functions stay apart.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.facts import FileFacts
from repro.datalog.engine import Program, RowLimitExceeded
from repro.datalog.terms import Atom, Bind, Rule, Var, atom

__all__ = ["PointsToConfig", "PointsToResult", "analyze_pointsto"]

EMPTY_CTX: tuple = ()


@dataclass(frozen=True)
class PointsToConfig:
    """Analysis parameters (paper defaults)."""

    k: int = 5
    max_avg_contexts: float = 8.0


@dataclass
class PointsToResult:
    """Solved relations, flattened for consumers.

    Attributes:
        var_points_to: ``(function, variable) -> set of heap sites``
            (contexts are collapsed — origins only need the heap set).
        reachable_functions: Functions reached from any entry point.
        call_edges: ``(caller, site, callee)`` triples.
        used_k: The context depth actually used (0 after fallback).
        avg_contexts: Average contexts per reachable method.
    """

    var_points_to: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    reachable_functions: set[str] = field(default_factory=set)
    call_edges: set[tuple[str, str, str]] = field(default_factory=set)
    used_k: int = 5
    avg_contexts: float = 0.0

    def heaps_of(self, function: str, variable: str) -> set[str]:
        return self.var_points_to.get((function, variable), set())


def analyze_pointsto(
    facts: FileFacts, config: PointsToConfig = PointsToConfig()
) -> PointsToResult:
    """Run the analysis, falling back to k=0 on context explosion.

    Every ``VarPointsTo`` (context, function) pair is also a
    ``Reachable`` row, so ``avg_contexts`` is |Reachable| over the
    functions reached, and no more functions can be reached than the
    entry points and call targets.  Once |Reachable| passes
    ``max_avg_contexts`` times that count the fallback is certain, and
    the k-deep solve stops there instead of running to fixpoint.
    """
    if config.k > 0:
        functions = set(facts.entry_points())
        functions.update(callee for _, callee in facts.resolves_to)
        limit = config.max_avg_contexts * len(functions)
        try:
            result = _run(facts, config.k, {"Reachable": limit})
        except RowLimitExceeded:
            pass
        else:
            if result.avg_contexts <= config.max_avg_contexts:
                return result
    return _run(facts, 0)


def _run(
    facts: FileFacts, k: int, limits: dict[str, float] | None = None
) -> PointsToResult:
    database = _program(k).solve(_relations(facts), limits)

    vpt: dict[tuple[str, str], set[str]] = defaultdict(set)
    contexts_per_function: dict[str, set[tuple]] = defaultdict(set)
    for ctx, func, variable, heap in database["VarPointsTo"]:
        vpt[(func, variable)].add(heap)
        contexts_per_function[func].add(ctx)
    reachable = set()
    for ctx, func in database["Reachable"]:
        reachable.add(func)
        contexts_per_function[func].add(ctx)
    edges = {
        (_site_owner(site), site, callee)
        for _, site, _, callee in database["CallEdge"]
    }

    counts = [len(v) or 1 for v in contexts_per_function.values()]
    avg = sum(counts) / len(counts) if counts else 0.0
    return PointsToResult(
        var_points_to=dict(vpt),
        reachable_functions=reachable,
        call_edges=edges,
        used_k=k,
        avg_contexts=avg,
    )


def _site_owner(site: str) -> str:
    """Call-site ids are ``siteN@function``."""
    _, _, owner = site.partition("@")
    return owner


def _relations(facts: FileFacts) -> dict[str, list]:
    """The base relations of one file, by predicate."""
    return {
        "AllocF": facts.alloc,
        "MoveF": facts.move,
        "LoadF": facts.load,
        "StoreF": facts.store,
        "FormalParam": facts.formal_param,
        "ActualParam": facts.actual_param,
        "FormalReturn": facts.formal_return,
        "ActualReturn": facts.actual_return,
        "CallSiteIn": facts.call_site_in,
        "ResolvesTo": facts.resolves_to,
        "EntryPoint": [(fn,) for fn in facts.entry_points()],
    }


@functools.cache
def _program(k: int) -> Program:
    """The points-to rules at context depth ``k``, compiled once per
    process; the cache is thread-safe and the program is stateless, so
    serving threads share it."""

    def push(ctx: tuple, site: str) -> tuple:
        if k == 0:
            return EMPTY_CTX
        return ((site,) + ctx)[:k]

    rules: list[Rule] = []

    def rule(head: Atom, *body: Atom | Bind) -> None:
        rules.append(Rule(head, body))

    C, C2, S = Var("C"), Var("C2"), Var("S")

    # Entry points run under the empty context.
    rule(atom("Reachable", EMPTY_CTX, "?F"), atom("EntryPoint", "?F"))

    # Allocation.
    rule(
        atom("VarPointsTo", "?C", "?F", "?V", "?H"),
        atom("Reachable", "?C", "?F"),
        atom("AllocF", "?V", "?H", "?F"),
    )
    # Move.
    rule(
        atom("VarPointsTo", "?C", "?F", "?TO", "?H"),
        atom("MoveF", "?TO", "?FROM", "?F"),
        atom("VarPointsTo", "?C", "?F", "?FROM", "?H"),
    )
    # Call graph with context push.
    rule(
        atom("CallEdge", "?C", "?S", "?C2", "?G"),
        atom("Reachable", "?C", "?F"),
        atom("CallSiteIn", "?S", "?F"),
        atom("ResolvesTo", "?S", "?G"),
        Bind(C2, push, (C, S)),
    )
    rule(atom("Reachable", "?C2", "?G"), atom("CallEdge", "?C", "?S", "?C2", "?G"))
    # Parameter passing.
    rule(
        atom("VarPointsTo", "?C2", "?G", "?P", "?H"),
        atom("CallEdge", "?C", "?S", "?C2", "?G"),
        atom("ActualParam", "?S", "?I", "?A"),
        atom("FormalParam", "?G", "?I", "?P"),
        atom("CallSiteIn", "?S", "?F"),
        atom("VarPointsTo", "?C", "?F", "?A", "?H"),
    )
    # Return values.
    rule(
        atom("VarPointsTo", "?C", "?F", "?TO", "?H"),
        atom("CallEdge", "?C", "?S", "?C2", "?G"),
        atom("ActualReturn", "?S", "?TO"),
        atom("FormalReturn", "?G", "?R"),
        atom("CallSiteIn", "?S", "?F"),
        atom("VarPointsTo", "?C2", "?G", "?R", "?H"),
    )
    # Field store / load (field-sensitive, heap-based).
    rule(
        atom("FieldPointsTo", "?HB", "?FLD", "?H"),
        atom("StoreF", "?V", "?FLD", "?FROM", "?F"),
        atom("VarPointsTo", "?C", "?F", "?V", "?HB"),
        atom("VarPointsTo", "?C", "?F", "?FROM", "?H"),
    )
    rule(
        atom("VarPointsTo", "?C", "?F", "?TO", "?H"),
        atom("LoadF", "?TO", "?V", "?FLD", "?F"),
        atom("VarPointsTo", "?C", "?F", "?V", "?HB"),
        atom("FieldPointsTo", "?HB", "?FLD", "?H"),
    )
    return Program(rules)
