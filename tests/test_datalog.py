"""Tests for the compiled Datalog engine."""

import random

import pytest

from repro.datalog.engine import Program, RowLimitExceeded
from repro.datalog.terms import Bind, Rule, Var, atom

PATH_RULES = [
    Rule(atom("path", "?X", "?Y"), (atom("edge", "?X", "?Y"),)),
    Rule(
        atom("path", "?X", "?Z"),
        (atom("path", "?X", "?Y"), atom("edge", "?Y", "?Z")),
    ),
]

#: ``same(X, Y) :- pair(X, Y), Y := X`` — the Bind onto the bound ``Y``
#: is an equality test
SAME = Rule(
    atom("same", "?X", "?Y"),
    (atom("pair", "?X", "?Y"), Bind(Var("Y"), lambda x: x, (Var("X"),))),
)


def closure(edges):
    """Reference transitive closure, by search from every node."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    out = set()
    for start in succ:
        stack, seen = list(succ[start]), set()
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        out |= {(start, node) for node in seen}
    return out


class TestTerms:
    def test_atom_constructor_variables(self):
        a = atom("edge", "?X", "node1")
        assert a.args[0] == Var("X")
        assert a.args[1] == "node1"

    def test_rule_validates_head_variables(self):
        with pytest.raises(ValueError):
            Rule(head=atom("p", "?X"), body=(atom("q", "?Y"),))

    def test_fact_rule_allows_constants(self):
        Rule(head=atom("p", 1, 2))  # no body, no variables: fine

    def test_bind_binds_head_variable(self):
        Rule(
            head=atom("p", "?Y"),
            body=(atom("q", "?X"), Bind(Var("Y"), lambda x: x + 1, (Var("X"),))),
        )


class TestEvaluation:
    def test_transitive_closure(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        db = Program(PATH_RULES).solve({"edge": edges})
        assert ("a", "d") in db["path"]
        assert len(db["path"]) == 6

    def test_row_limit(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        program = Program(PATH_RULES)
        full = program.solve({"edge": edges})
        assert program.solve({"edge": edges}, {"path": 6}) == full
        with pytest.raises(RowLimitExceeded, match="path"):
            program.solve({"edge": edges}, {"path": 5})

    def test_cycle_terminates(self):
        db = Program(PATH_RULES).solve({"edge": [("a", "b"), ("b", "a")]})
        assert ("a", "a") in db["path"]

    def test_join_on_shared_variable(self):
        program = Program(
            [
                Rule(
                    atom("grandparent", "?X", "?Z"),
                    (atom("parent", "?X", "?Y"), atom("parent", "?Y", "?Z")),
                )
            ]
        )
        db = program.solve({"parent": [("tom", "bob"), ("bob", "ann")]})
        assert db["grandparent"] == {("tom", "ann")}

    def test_constants_in_body(self):
        program = Program([Rule(atom("to_b", "?X"), (atom("edge", "?X", "b"),))])
        db = program.solve({"edge": [("a", "b"), ("c", "b"), ("b", "c")]})
        assert db["to_b"] == {("a",), ("c",)}

    def test_empty_program(self):
        assert Program([]).solve({}) == {}

    def test_fact_rule_and_unused_facts(self):
        """Body-less rules seed their head; facts no rule mentions are
        returned as given."""
        program = Program([Rule(atom("root", "a")), *PATH_RULES])
        db = program.solve({"edge": [("a", "b")], "note": [["x", 1]]})
        assert db["root"] == {("a",)}
        assert db["note"] == {("x", 1)}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_closure(self, seed):
        """Semi-naive rounds, in both join orders, derive exactly the
        closure on random graphs with cycles and self-loops."""
        rng = random.Random(seed)
        edges = {(rng.randrange(12), rng.randrange(12)) for _ in range(30)}
        left = Program(PATH_RULES)
        right = Program(
            [
                PATH_RULES[0],
                Rule(
                    atom("path", "?X", "?Z"),
                    (atom("edge", "?X", "?Y"), atom("path", "?Y", "?Z")),
                ),
            ]
        )
        expected = closure(edges)
        assert left.solve({"edge": edges})["path"] == expected
        assert right.solve({"edge": edges})["path"] == expected

    def test_solves_are_independent(self):
        """A compiled program keeps no state between solves."""
        program = Program(PATH_RULES)
        first = program.solve({"edge": [("a", "b")]})
        second = program.solve({"edge": [("c", "d")]})
        assert first["path"] == {("a", "b")}
        assert second["path"] == {("c", "d")}


class TestBuiltins:
    def test_bind_computes(self):
        program = Program(
            [
                Rule(
                    atom("double", "?Y"),
                    (atom("n", "?X"), Bind(Var("Y"), lambda x: x * 2, (Var("X"),))),
                )
            ]
        )
        assert program.solve({"n": [(1,), (2,)]})["double"] == {(2,), (4,)}

    def test_bind_truncating_context(self):
        push = lambda ctx, s: ((s,) + ctx)[:2]  # noqa: E731
        program = Program(
            [
                Rule(
                    atom("ctx", "?C2"),
                    (
                        atom("start", "?C"),
                        atom("site", "?S"),
                        Bind(Var("C2"), push, (Var("C"), Var("S"))),
                    ),
                ),
                Rule(
                    atom("ctx", "?C2"),
                    (
                        atom("ctx", "?C"),
                        atom("site", "?S"),
                        Bind(Var("C2"), push, (Var("C"), Var("S"))),
                    ),
                ),
            ]
        )
        db = program.solve({"start": [((),)], "site": [("s1",), ("s2",)]})
        contexts = {c for (c,) in db["ctx"]}
        assert all(len(c) <= 2 for c in contexts)
        assert ("s1", "s2") in contexts

    def test_bind_conflict_prunes(self):
        program = Program([SAME])
        assert program.solve({"pair": [(1, 2), (3, 3)]})["same"] == {(3, 3)}

    def test_bind_onto_variable_bound_to_none(self):
        """``None`` is a value like any other: a Bind onto a variable
        bound to ``None`` is an equality test, not a fresh binding."""
        program = Program([SAME])
        assert program.solve({"pair": [(1, None)]})["same"] == set()

    def test_bind_runs_once_its_arguments_are_bound(self):
        """A Bind written before the atom binding its argument still
        runs, and its target then keys the later atom's probe."""
        program = Program(
            [
                Rule(
                    atom("next_name", "?X", "?N"),
                    (
                        Bind(Var("Y"), lambda x: x + 1, (Var("X"),)),
                        atom("n", "?X"),
                        atom("name", "?Y", "?N"),
                    ),
                )
            ]
        )
        db = program.solve({"n": [(1,), (2,)], "name": [(2, "two"), (9, "nine")]})
        assert db["next_name"] == {(1, "two")}

    def test_bind_with_unbound_argument_rejected(self):
        """A Bind whose argument no atom binds is a compile error that
        names the rule, even before any fact arrives."""
        rule = Rule(
            atom("p", "?Y"),
            (atom("q", "?X"), Bind(Var("Y"), lambda z: z, (Var("Z"),))),
        )
        with pytest.raises(ValueError, match="unbound argument") as info:
            Program([rule])
        assert repr(rule) in str(info.value)


class TestCompile:
    def test_generated_source_holds_no_names_or_constants(self):
        """Predicate names and constants reach the plans through their
        namespace; source text is compiler identifiers and integers."""
        predicate = "edge'); import os; ('"
        constant = "x\"); __import__('os').system('true'); (\""
        program = Program(
            [Rule(atom("hit", "?X"), (atom(predicate, "?X", constant),))]
        )
        assert predicate not in program.source
        assert constant not in program.source
        assert "edge" not in program.source
        db = program.solve({predicate: [("a", constant), ("b", "other")]})
        assert db["hit"] == {("a",)}

    def test_fact_values_stay_data(self):
        hostile = "__import__('os').system('false')"
        db = Program(PATH_RULES).solve({"edge": [(hostile, "b"), ("b", "c")]})
        assert (hostile, "c") in db["path"]

    def test_arity_conflict_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            Program(
                [Rule(atom("p", "?X"), (atom("q", "?X"), atom("q", "?X", "?Y")))]
            )

    def test_rule_without_body_atom_rejected(self):
        with pytest.raises(ValueError, match="no body atom"):
            Program([Rule(atom("p", "?Y"), (Bind(Var("Y"), lambda: 1, ()),))])

    def test_zero_arity_atoms(self):
        program = Program(
            [
                Rule(atom("q", 1), (atom("go"),)),
                Rule(atom("done"), (atom("q", "?X"), atom("go"))),
            ]
        )
        assert program.solve({"go": [()]})["done"] == {()}
        assert program.solve({})["done"] == set()
