"""Shared fixtures for the per-table/figure benchmarks.

Corpora and fitted systems are session-scoped: each benchmark times its
own kernel but shares the expensive mining/evaluation state.  Every
benchmark also *prints* the regenerated table (run with ``-s`` to see
them) and asserts the paper's qualitative shape.
"""

from __future__ import annotations

import pytest

from repro.core.namer import NamerConfig
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.javagen import generate_java_corpus
from repro.evaluation.oracle import Oracle
from repro.evaluation.precision import run_precision_evaluation
from repro.mining.miner import MiningConfig

#: Mining thresholds for the benchmark-scale corpora (the paper's 100 /
#: 500 thresholds correspond to its ~million-file datasets).
BENCH_MINING = MiningConfig(min_pattern_support=20, min_path_frequency=8)
BENCH_CONFIG = NamerConfig(mining=BENCH_MINING)


@pytest.fixture(scope="session")
def python_corpus():
    return generate_python_corpus(
        GeneratorConfig(num_repos=45, issue_rate=0.12, deviation_rate=0.08)
    )


@pytest.fixture(scope="session")
def java_corpus():
    # The Java ablation orderings stabilize at the 60-repo scale (the
    # "w/o A" row sits within noise of the full system below that).
    return generate_java_corpus(
        GeneratorConfig(num_repos=60, issue_rate=0.12, deviation_rate=0.08)
    )


@pytest.fixture(scope="session")
def python_ablation(python_corpus):
    """Table 2: the four-variant precision evaluation for Python."""
    return run_precision_evaluation(
        python_corpus, BENCH_CONFIG, sample_size=300, training_size=120, seed=7
    )


@pytest.fixture(scope="session")
def java_ablation(java_corpus):
    """Table 5: the four-variant precision evaluation for Java."""
    return run_precision_evaluation(
        java_corpus, BENCH_CONFIG, sample_size=300, training_size=120, seed=7
    )


@pytest.fixture(scope="session")
def python_oracle(python_corpus):
    return Oracle(python_corpus)


@pytest.fixture(scope="session")
def java_oracle(java_corpus):
    return Oracle(java_corpus)


def print_table(title: str, body: str) -> None:
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

