"""Tests for Datalog fact extraction from modules."""

import time

import pytest

from repro.analysis.facts import MODULE_FUNC, extract_facts
from repro.core.prepare import PrepareError, prepare_file_checked
from repro.corpus.model import SourceFile
from repro.lang import parse_source
from repro.lang.java.frontend import parse_java
from repro.lang.python_frontend import parse_module


class TestPythonFacts:
    def test_alloc_for_class_instantiation(self):
        facts = extract_facts(parse_module("class C:\n    pass\nx = C()"))
        assert any(origin == "C" for origin in facts.heap_origin.values())

    def test_move(self):
        facts = extract_facts(parse_module("x = y"))
        assert ("x", "y", MODULE_FUNC) in facts.move

    def test_load_store(self):
        facts = extract_facts(parse_module("a = b.f\nc.g = d"))
        assert ("a", "b", "f", MODULE_FUNC) in facts.load
        assert ("c", "g", "d", MODULE_FUNC) in facts.store

    def test_prim_assign(self):
        facts = extract_facts(parse_module("x = 1\ny = 'a'\nz = True"))
        types = {t for _, t, _ in facts.prim_assign}
        assert types == {"Num", "Str", "Bool"}

    def test_params_skip_self(self):
        src = "class C:\n    def m(self, a, b):\n        pass"
        facts = extract_facts(parse_module(src))
        rows = [(f, i, p) for f, i, p in facts.formal_param if f == "C.m"]
        assert ("C.m", 0, "a") in rows and ("C.m", 1, "b") in rows
        assert not any(p == "self" for _, _, p in rows)

    def test_self_alloc_origin_root_base(self):
        src = (
            "class Base:\n    pass\n"
            "class Mid(Base):\n    pass\n"
            "class Leaf(Mid):\n    def m(self):\n        pass\n"
        )
        facts = extract_facts(parse_module(src))
        self_heaps = [h for v, h, f in facts.alloc if v == "self" and f == "Leaf.m"]
        assert facts.heap_origin[self_heaps[0]] == "Base"

    def test_cyclic_bases_terminate(self):
        src = (
            "class A(B):\n    def m(self):\n        pass\n"
            "class B(A):\n    pass\n"
        )
        facts = extract_facts(parse_module(src))
        assert facts.classes  # no infinite loop

    def test_imports(self):
        src = "import numpy as np\nfrom unittest import TestCase"
        facts = extract_facts(parse_module(src))
        assert ("np", "numpy") in facts.import_alias
        assert ("TestCase", "TestCase") in facts.import_alias

    def test_external_call_return(self):
        facts = extract_facts(parse_module("x = external()"))
        assert facts.external_call
        origins = set(facts.heap_origin.values())
        assert "external" in origins

    def test_in_file_call_resolution(self):
        src = "def make():\n    return 1\nx = make()"
        facts = extract_facts(parse_module(src))
        assert any(callee == "make" for _, callee in facts.resolves_to)

    def test_constructor_init_resolution(self):
        src = (
            "class C:\n    def __init__(self, a):\n        self.a = a\n"
            "x = C(5)"
        )
        facts = extract_facts(parse_module(src))
        assert any(callee == "C.__init__" for _, callee in facts.resolves_to)

    def test_literal_args_become_temps(self):
        facts = extract_facts(parse_module("f(5, 'x')"))
        literal_params = [p for _, _, p in facts.actual_param if p.startswith("<lit")]
        assert len(literal_params) == 2

    def test_opaque_assign(self):
        facts = extract_facts(parse_module("x = a + b\nx += 1"))
        assert ("x", MODULE_FUNC) in facts.opaque_assign

    def test_formal_return(self):
        facts = extract_facts(parse_module("def f():\n    return value"))
        assert ("f", "value") in facts.formal_return

    def test_entry_points_public_only(self):
        src = "def pub():\n    pass\ndef _priv():\n    pass"
        facts = extract_facts(parse_module(src))
        entries = facts.entry_points()
        assert "pub" in entries and "_priv" not in entries
        assert MODULE_FUNC in entries

    def test_stmt_function_mapping(self):
        src = "x = 1\ndef f():\n    y = 2"
        module = parse_module(src)
        facts = extract_facts(module)
        assert facts.stmt_function[0] == MODULE_FUNC
        assert facts.stmt_function[2] == "f"


class TestJavaFacts:
    def test_this_alloc(self):
        src = "class A extends B { void m() { this.run(); } }"
        facts = extract_facts(parse_java(src))
        this_allocs = [(v, h, f) for v, h, f in facts.alloc if v == "this"]
        assert this_allocs
        assert facts.heap_origin[this_allocs[0][1]] == "B"

    def test_decl_types(self):
        src = "class A { void m() { int count = 0; String name = null; } }"
        facts = extract_facts(parse_java(src))
        decls = {(v, o) for v, o, _ in facts.decl_type}
        assert ("count", "Num") in decls
        assert ("name", "Str") in decls

    def test_param_decl_types(self):
        src = "class A { void m(Intent intent) { } }"
        facts = extract_facts(parse_java(src))
        assert ("intent", "Intent", "A.m") in facts.decl_type

    def test_catch_decl_type(self):
        src = (
            "class A { void m() { try { f(); } catch (Exception e) {"
            " e.printStackTrace(); } } }"
        )
        facts = extract_facts(parse_java(src))
        assert ("e", "Exception", "A.m") in facts.decl_type

    def test_new_allocates(self):
        src = "class A { void m() { Intent i = new Intent(); } }"
        facts = extract_facts(parse_java(src))
        assert "Intent" in facts.heap_origin.values()

    def test_catch_body_calls_extracted(self):
        src = (
            "class A { void m() { try { f(); } catch (Exception e) {"
            " e.printStackTrace(); } } }"
        )
        facts = extract_facts(parse_java(src))
        assert len(facts.call_site_in) >= 2


def _nested_call(language: str, depth: int) -> SourceFile:
    """``x = f(f(...f(1)...))`` with ``depth`` calls."""
    value = "f(" * depth + "1" + ")" * depth
    if language == "python":
        return SourceFile(path="deep.py", source=f"x = {value}\n")
    return SourceFile(
        path="Deep.java",
        source=f"class Deep {{ void m() {{ int x = {value}; }} }}\n",
        language="java",
    )


class TestNestedCallWalk:
    """A call nested d deep under arguments is registered once, not
    2^(d-1) times, so fact extraction stays linear in the nesting."""

    @pytest.mark.parametrize("language", ["python", "java"])
    def test_each_nested_call_is_one_site(self, language):
        source = _nested_call(language, 12)
        module = parse_source(source.source, language, source.path)
        assert len(extract_facts(module).call_site_in) == 12

    def test_calls_under_a_nested_callee_are_registered(self):
        # g(h()) sits in the callee of the nested call, not in its
        # arguments: the outer argument's walk must still reach it.
        module = parse_module("x = f(g(h()).m(k()))")
        assert len(extract_facts(module).call_site_in) == 5

    @pytest.mark.parametrize("language", ["python", "java"])
    def test_depth_200_prepares_in_under_a_second(self, language):
        started = time.perf_counter()
        try:
            prepared = prepare_file_checked(_nested_call(language, 200))
        except PrepareError as exc:
            # The recursive-descent Java parser bottoms out first; a
            # clean parse-stage record is the contract for that input.
            assert language == "java" and exc.stage == "parse"
        else:
            assert prepared.statements
        assert time.perf_counter() - started < 1.0
