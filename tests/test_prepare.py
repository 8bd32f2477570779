"""Tests for corpus preparation (including the parallel path)."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.prepare import prepare_corpus, prepare_file
from repro.core.transform import TransformConfig
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.model import SourceFile


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_python_corpus(GeneratorConfig(num_repos=3, seed=31))


class TestPrepareFile:
    def test_prepares_statements_with_paths(self):
        prepared = prepare_file(
            SourceFile(path="a.py", source="x = some_value\ny = x\n"), repo="r"
        )
        assert prepared is not None
        assert prepared.path == "a.py" and prepared.repo == "r"
        for ps in prepared.statements:
            assert ps.paths

    def test_unparsable_returns_none(self):
        assert prepare_file(SourceFile(path="b.py", source="def broken(:")) is None

    def test_analysis_toggle(self):
        source = SourceFile(
            path="c.py",
            source=(
                "class T(TestCase):\n"
                "    def m(self):\n"
                "        self.run_it()\n"
            ),
        )
        with_a = prepare_file(source, use_analysis=True)
        without_a = prepare_file(source, use_analysis=False)
        has_origin = lambda pf: any(
            n.kind == "Origin" for ps in pf.statements for n in ps.stmt.root.walk()
        )
        assert has_origin(with_a)
        assert not has_origin(without_a)

    def test_max_paths_cap(self):
        source = SourceFile(
            path="d.py", source="f(a, b, c, d, e, g, h, i, j, k, l, m)\n"
        )
        prepared = prepare_file(source, max_paths=4)
        assert all(len(ps.paths) <= 4 for ps in prepared.statements)

    def test_java_language(self):
        source = SourceFile(
            path="E.java",
            source="class E { void m() { int x = 1; } }",
            language="java",
        )
        prepared = prepare_file(source)
        assert prepared is not None and prepared.statements


class TestPrepareCorpus:
    def test_sequential(self, tiny_corpus):
        prepared = prepare_corpus(tiny_corpus)
        assert len(prepared) == tiny_corpus.file_count()

    def test_parallel_matches_sequential(self, tiny_corpus):
        sequential = prepare_corpus(tiny_corpus, workers=1)
        parallel = prepare_corpus(tiny_corpus, workers=2)
        assert [pf.path for pf in parallel] == [pf.path for pf in sequential]
        for a, b in zip(sequential, parallel):
            assert len(a.statements) == len(b.statements)
            for ps_a, ps_b in zip(a.statements, b.statements):
                assert ps_a.paths == ps_b.paths

    def test_transform_config_defaults_to_analysis_flag(self, tiny_corpus):
        prepared = prepare_corpus(tiny_corpus, use_analysis=False)
        assert all(
            n.kind != "Origin"
            for pf in prepared[:3]
            for ps in pf.statements
            for n in ps.stmt.root.walk()
        )

    def test_explicit_transform_config(self, tiny_corpus):
        prepared = prepare_corpus(
            tiny_corpus, transform_config=TransformConfig(max_subtokens=1)
        )
        # every identifier kept whole: no NumST(k>1) wrappers
        for pf in prepared[:3]:
            for ps in pf.statements:
                for n in ps.stmt.root.walk():
                    if n.kind == "NumST":
                        assert n.value == "NumST(1)"

    #: Prepares the tiny corpus under one seeded prepare-file fault plan
    #: with workers 1 and 2, pool workers started by ``spawn`` (they
    #: inherit nothing from the parent), and prints the quarantined
    #: paths per worker count.
    SPAWN_SCRIPT = (
        "import json, multiprocessing\n"
        "from repro.core.prepare import prepare_corpus\n"
        "from repro.corpus.generator import GeneratorConfig, "
        "generate_python_corpus\n"
        "from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec\n"
        "from repro.resilience.quarantine import Quarantine\n"
        "multiprocessing.set_start_method('spawn')\n"
        "corpus = generate_python_corpus(GeneratorConfig(num_repos=3, seed=31))\n"
        "plan = FaultPlan([FaultSpec(site='corpus.prepare_file', rate=0.3)], seed=3)\n"
        "paths = {}\n"
        "for workers in (1, 2):\n"
        "    quarantine = Quarantine()\n"
        "    with FAULTS.armed(plan):\n"
        "        prepare_corpus(corpus, workers=workers, quarantine=quarantine)\n"
        "    paths[workers] = [r.path for r in quarantine.records]\n"
        "print(json.dumps(paths))\n"
    )

    def test_spawned_pool_honours_fault_plan(self):
        """Every prepare task carries the armed fault plan, so workers
        that do not fork quarantine exactly the files a serial run
        does."""
        done = subprocess.run(
            [sys.executable, "-c", self.SPAWN_SCRIPT],
            env=dict(os.environ),
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        paths = json.loads(done.stdout.splitlines()[-1])
        assert paths["1"], "fault plan tripped nothing — test is vacuous"
        assert paths["2"] == paths["1"]
