"""Scan a directory of Python files for naming issues.

The downstream-user workflow: patterns are mined once from a reference
corpus, a classifier is trained from a small labeled sample, and then
any project directory can be scanned.  Without arguments the script
writes a small demo project (with two planted issues) and scans it.

Run:  python examples/find_issues_in_project.py [path/to/project]
"""

from __future__ import annotations

import pathlib
import random
import sys
import tempfile

from repro import GeneratorConfig, Namer, NamerConfig, generate_python_corpus
from repro.corpus.model import SourceFile
from repro.evaluation.oracle import Oracle
from repro.evaluation.precision import sample_balanced_training
from repro.mining.miner import MiningConfig

DEMO_FILES = {
    "store.py": (
        "class SessionStore:\n"
        "    def __init__(self, name, port):\n"
        "        self.name = name\n"
        "        self.port = prot\n"  # planted typo
        "\n"
        "def make_store():\n"
        "    return SessionStore('api', 8080)\n"
    ),
    "test_store.py": (
        "from unittest import TestCase\n"
        "\n"
        "class TestStore(TestCase):\n"
        "    def test_port(self):\n"
        "        store = self.build_store()\n"
        "        self.assertTrue(store.port, 8080)\n"  # planted API misuse
    ),
}


def build_namer() -> Namer:
    print("mining reference patterns (one-time setup) ...")
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=25, issue_rate=0.12, seed=3)
    )
    namer = Namer(
        NamerConfig(mining=MiningConfig(min_pattern_support=15, min_path_frequency=6))
    )
    namer.mine(corpus)

    print("training the defect classifier on a small labeled sample ...")
    oracle = Oracle(corpus)
    violations = namer.all_violations()
    training, labels = sample_balanced_training(
        violations, oracle, 120, random.Random(0)
    )
    if len(set(labels)) > 1:
        namer.train(training, labels)
    return namer


def scan(namer: Namer, project: pathlib.Path) -> None:
    print(f"\nscanning {project} ...")
    sources = [
        SourceFile(path=str(path), source=path.read_text())
        for path in sorted(project.rglob("*.py"))
    ]
    total = 0
    # Prepared exactly as the namer mined its patterns, one detect pass.
    for source, (reports, error) in zip(
        sources, namer.analyze(sources, repo=project.name)
    ):
        if error is not None:
            print(f"  [skip] {source.path} ({error.brief()})")
            continue
        for report in reports:
            total += 1
            print(f"  {report.describe()}")
    print(f"\n{total} naming issue(s) reported")


def main() -> None:
    if len(sys.argv) > 1:
        project = pathlib.Path(sys.argv[1])
    else:
        demo = pathlib.Path(tempfile.mkdtemp(prefix="namer-demo-"))
        for name, source in DEMO_FILES.items():
            (demo / name).write_text(source)
        print(f"no path given; using a demo project at {demo}")
        project = demo
    namer = build_namer()
    scan(namer, project)


if __name__ == "__main__":
    main()
