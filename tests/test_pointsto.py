"""Tests for the k-call-site-sensitive Andersen points-to analysis."""

import sys
import threading
import time

import pytest

from repro.analysis.facts import extract_facts
from repro.analysis.pointsto import (
    PointsToConfig,
    _program,
    _relations,
    _run,
    analyze_pointsto,
)
from repro.core.prepare import prepare_file_checked
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.model import SourceFile
from repro.datalog.engine import RowLimitExceeded
from repro.lang import parse_source
from repro.lang.python_frontend import parse_module


def run(source, **kwargs):
    facts = extract_facts(parse_module(source))
    return analyze_pointsto(facts, PointsToConfig(**kwargs)), facts


class TestBasics:
    def test_direct_alloc(self):
        result, facts = run("class C:\n    pass\nx = C()")
        heaps = result.heaps_of("<module>", "x")
        assert heaps and all(facts.heap_origin[h] == "C" for h in heaps)

    def test_move_propagates(self):
        result, facts = run("class C:\n    pass\nx = C()\ny = x")
        assert result.heaps_of("<module>", "y") == result.heaps_of("<module>", "x")

    def test_interprocedural_return(self):
        src = (
            "class C:\n    pass\n"
            "def make():\n    c = C()\n    return c\n"
            "def use():\n    obj = make()\n"
        )
        result, facts = run(src)
        heaps = result.heaps_of("use", "obj")
        assert heaps and all(facts.heap_origin[h] == "C" for h in heaps)

    def test_param_passing(self):
        src = (
            "class C:\n    pass\n"
            "def consume(item):\n    return item\n"
            "def go():\n    c = C()\n    consume(c)\n"
        )
        result, facts = run(src)
        heaps = result.heaps_of("consume", "item")
        assert heaps and all(facts.heap_origin[h] == "C" for h in heaps)

    def test_field_store_load(self):
        src = (
            "class Box:\n    pass\n"
            "class C:\n    pass\n"
            "def go():\n"
            "    box = Box()\n"
            "    c = C()\n"
            "    box.item = c\n"
            "    out = box.item\n"
        )
        result, facts = run(src)
        heaps = result.heaps_of("go", "out")
        assert heaps and all(facts.heap_origin[h] == "C" for h in heaps)

    def test_two_call_chain(self):
        src = (
            "class C:\n    pass\n"
            "def inner():\n    return C()\n"
            "def outer():\n    return inner()\n"
            "def top():\n    x = outer()\n"
        )
        result, facts = run(src)
        heaps = result.heaps_of("top", "x")
        assert heaps and all(facts.heap_origin[h] == "C" for h in heaps)


class TestContexts:
    def test_reachability(self):
        src = "def pub():\n    helper()\ndef helper():\n    pass"
        result, _ = run(src)
        assert "helper" in result.reachable_functions

    def test_k_zero_still_sound_enough(self):
        src = (
            "class C:\n    pass\n"
            "def make():\n    return C()\n"
            "def use():\n    x = make()\n"
        )
        result, facts = run(src, k=0)
        assert result.heaps_of("use", "x")

    def test_used_k_recorded(self):
        result, _ = run("x = 1", k=3)
        assert result.used_k == 3

    def test_explosion_fallback(self):
        """A call chain fan-out with a tiny context budget falls back."""
        lines = ["class C:", "    pass"]
        for i in range(6):
            lines.append(f"def f{i}():")
            lines.append(f"    return C()" if i == 0 else f"    return f{i-1}()")
        # many callers of the chain from distinct sites
        for i in range(8):
            lines.append(f"def top{i}():")
            lines.append("    x = f5()")
        result, _ = run("\n".join(lines), k=5, max_avg_contexts=1.0)
        assert result.used_k == 0

    def test_nested_method_calls_stop_at_the_row_limit(self):
        """``o.m(o.m(...))`` pushes a new context per call site at every
        depth: the k=5 solve grows as 14^5 at depth 14.  It must stop at
        the Reachable row limit and answer the k=0 result at once."""
        value = "o.m(" * 14 + "o" + ")" * 14
        source = SourceFile(
            path="Deep.java",
            source=(
                "class Deep { Object o; Object m(Object a) "
                f"{{ Object x = {value}; return x; }} }}\n"
            ),
            language="java",
        )
        started = time.perf_counter()
        prepare_file_checked(source)
        assert time.perf_counter() - started < 1.0
        module = parse_source(source.source, "java", source.path)
        facts = extract_facts(module)
        result = analyze_pointsto(facts)
        assert result.used_k == 0
        assert result == _run(facts, 0)
        with pytest.raises(RowLimitExceeded, match="Reachable"):
            _run(facts, 5, {"Reachable": 16})

    def test_call_edges(self):
        src = "def pub():\n    helper()\ndef helper():\n    pass"
        result, _ = run(src)
        assert any(callee == "helper" for _, _, callee in result.call_edges)


class TestSharedProgram:
    def test_program_compiled_once_per_k(self):
        assert _program(5) is _program(5)
        assert _program(0) is not _program(5)

    def test_threads_sharing_one_program_agree_with_serial(self):
        """Serving threads share one compiled program per k: eight
        threads solving different files' facts at once must each get
        exactly the serial result for their file."""
        corpus = generate_python_corpus(GeneratorConfig(num_repos=4, seed=3))
        relations = [
            _relations(extract_facts(parse_module(source.source)))
            for _, source in corpus.files()
        ]
        program = _program(5)
        serial = [program.solve(r) for r in relations]
        threads = 8
        results: list = [None] * threads
        barrier = threading.Barrier(threads)

        def solve(k: int) -> None:
            barrier.wait(timeout=60)
            results[k] = [
                (i, program.solve(relations[i]))
                for _ in range(3)
                for i in range(k, len(relations), threads)
            ]

        workers = [threading.Thread(target=solve, args=(k,)) for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-solve
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(relations) >= 2 * threads
        for solved in results:
            assert solved and all(db == serial[i] for i, db in solved)
