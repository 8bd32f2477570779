"""Semi-naive Datalog evaluation, compiled once per rule set.

``Program(rules)`` compiles every rule into *plans*, one per body atom.
In a plan that atom ranges over the rows the previous round derived
(the delta), and each other atom is probed through a hash index keyed
on the argument positions bound at that step, which are known
statically.  A ``Bind`` runs as soon as its arguments are bound; onto
an already-bound variable it is an equality test.  Each plan becomes
one generated Python function.

Generated source holds only compiler-minted identifiers and integer
positions.  Predicate names, constants and ``Bind`` functions reach it
through the functions' namespace, so no fact value (facts come from
untrusted source files) ever becomes program text.

``Program.solve(facts)`` keeps relations, indexes and deltas in locals
and updates the indexes as rows are inserted, so one compiled program
may be shared by any number of threads.  ``limits`` caps the rows of
chosen predicates: a solve that outgrows one stops at once with
:class:`RowLimitExceeded`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Mapping, Sequence

from repro.datalog.terms import Atom, Bind, Rule, Var

__all__ = ["Program", "RowLimitExceeded"]

Tuple_ = tuple[Hashable, ...]


class RowLimitExceeded(Exception):
    """A relation outgrew its row limit during :meth:`Program.solve`."""


class Program:
    """A fixed rule set, compiled to semi-naive join functions.

    Attributes:
        source: The generated plan functions, for inspection.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self._arity: dict[str, int] = {}
        self._specs: dict[tuple[str, tuple[int, ...]], int] = {}
        self._initial: list[tuple[str, Tuple_]] = []
        namespace: dict[str, object] = {}
        lines: list[str] = []
        plans: list[tuple[str, str, str]] = []
        for rule in rules:
            for item in (rule.head, *rule.body):
                if not isinstance(item, Atom):
                    continue
                arity = self._arity.setdefault(item.predicate, len(item.args))
                if arity != len(item.args):
                    raise ValueError(f"rule {rule!r}: {item!r} breaks arity {arity}")
            atoms = [i for i in rule.body if isinstance(i, Atom)]
            if not rule.body:
                self._initial.append((rule.head.predicate, rule.head.args))
            elif not atoms:
                raise ValueError(f"rule {rule!r} has no body atom")
            for first in atoms:
                name = f"p{len(plans)}"
                lines += self._plan(rule, name, first, atoms, namespace)
                plans.append((first.predicate, name, rule.head.predicate))
        self.source = "\n".join(lines) + "\n"
        exec(compile(self.source, "<datalog plans>", "exec"), namespace)
        self._plans: dict[str, list] = {}
        for delta, name, head in plans:
            self._plans.setdefault(delta, []).append((namespace[name], head))
        self._keys: dict[str, list] = {p: [] for p in self._arity}
        for (predicate, positions), slot in self._specs.items():
            key = itemgetter(*positions) if positions else _empty_key
            self._keys[predicate].append((slot, key))

    def _plan(
        self,
        rule: Rule,
        name: str,
        first: Atom,
        atoms: list[Atom],
        namespace: dict[str, object],
    ) -> list[str]:
        """Source of one plan: ``first`` scans the delta, then each
        other atom in turn, the one with the most bound positions
        first."""
        slots: dict[Var, str] = {}

        def term(t) -> str:
            if isinstance(t, Var):
                return slots[t]
            constant = f"c{len(namespace)}"
            namespace[constant] = t
            return constant

        def bound_positions(item: Atom) -> tuple[int, ...]:
            return tuple(
                i
                for i, a in enumerate(item.args)
                if not isinstance(a, Var) or a in slots
            )

        out = [f"def {name}(delta, I):", "    out = []", "    add = out.append"]
        body: list[str] = []
        pending = [i for i in rule.body if isinstance(i, Bind)]
        rest = [a for a in atoms if a is not first]
        item, indent = first, "    "
        for step in range(len(atoms)):
            if step:
                # The most constrained atom next; ties keep body order.
                item = max(rest, key=lambda a: len(bound_positions(a)))
                rest.remove(item)
            bound = bound_positions(item) if step else ()
            checks, targets = [], []
            for i, a in enumerate(item.args):
                if i in bound:
                    targets.append("_")
                elif isinstance(a, Var) and a not in slots:
                    slots[a] = f"v{len(slots)}"
                    targets.append(slots[a])
                else:
                    targets.append(f"e{i}")
                    checks.append(f"e{i} != {term(a)}")
            if step == 0:
                source = "delta"
            else:
                spec = (item.predicate, bound)
                slot = self._specs.setdefault(spec, len(self._specs))
                out.append(f"    x{step} = I[{slot}]")
                keys = [term(item.args[i]) for i in bound]
                key = keys[0] if len(keys) == 1 else _tuple(keys)
                if len(bound) == len(item.args):
                    # Every position bound: a membership test, not a loop.
                    body.append(f"{indent}if {key} not in x{step}: continue")
                    continue
                source = f"x{step}.get({key}, ())"
            body.append(f"{indent}for {_tuple(targets)} in {source}:")
            indent += "    "
            if checks:
                body.append(f"{indent}if {' or '.join(checks)}: continue")
            while ready := [b for b in pending if _bound(b.args, slots)]:
                for bind in ready:
                    pending.remove(bind)
                    fn = f"f{len(namespace)}"
                    namespace[fn] = bind.fn
                    call = f"{fn}({', '.join(term(a) for a in bind.args)})"
                    if bind.target in slots:
                        target = slots[bind.target]
                        body.append(f"{indent}if {call} != {target}: continue")
                    else:
                        slots[bind.target] = f"v{len(slots)}"
                        body.append(f"{indent}{slots[bind.target]} = {call}")
        if pending:
            raise ValueError(f"rule {rule!r}: {pending[0]!r} has an unbound argument")
        head = _tuple([term(a) for a in rule.head.args])
        return out + body + [f"{indent}add({head})", "    return out"]

    def solve(
        self,
        facts: Mapping[str, Iterable[Sequence[Hashable]]],
        limits: Mapping[str, float] | None = None,
    ) -> dict[str, set[Tuple_]]:
        """Evaluate to fixpoint over ``{predicate: rows}``.

        Returns every relation, given and derived.  Rows whose arity
        differs from the predicate's in the rules are dropped.  Raises
        :class:`RowLimitExceeded` as soon as a predicate in ``limits``
        holds more rows than its limit.
        """
        relations: dict[str, set[Tuple_]] = {p: set() for p in self._arity}
        indexes: list[dict] = [{} for _ in self._specs]
        limits = limits or {}

        def insert(predicate: str, rows: Iterable[Tuple_], fresh: dict) -> None:
            known = relations[predicate]
            arity = self._arity[predicate]
            keys = [(indexes[slot], key) for slot, key in self._keys[predicate]]
            new = fresh.setdefault(predicate, [])
            for row in rows:
                if row in known or len(row) != arity:
                    continue
                known.add(row)
                new.append(row)
                for index, key in keys:
                    k = key(row)
                    if k in index:
                        index[k].append(row)
                    else:
                        index[k] = [row]
            if predicate in limits and len(known) > limits[predicate]:
                raise RowLimitExceeded(f"{predicate} outgrew {limits[predicate]} rows")

        delta: dict[str, list[Tuple_]] = {}
        for predicate, rows in facts.items():
            if predicate in self._arity:
                insert(predicate, map(tuple, rows), delta)
            else:
                relations[predicate] = set(map(tuple, rows))
        for predicate, row in self._initial:
            insert(predicate, (row,), delta)
        while delta:
            fresh: dict[str, list[Tuple_]] = {}
            for predicate, rows in delta.items():
                for plan, head in self._plans.get(predicate, ()):
                    derived = plan(rows, indexes)
                    if derived:
                        insert(head, derived, fresh)
            delta = {p: rows for p, rows in fresh.items() if rows}
        return relations


def _tuple(items: list[str]) -> str:
    """A tuple display (or an unpacking target) of ``items``."""
    return f"({', '.join(items)}{',' * (len(items) == 1)})"


def _bound(args: tuple, slots: dict[Var, str]) -> bool:
    return all(a in slots for a in args if isinstance(a, Var))


def _empty_key(row: Tuple_) -> tuple:
    return ()
