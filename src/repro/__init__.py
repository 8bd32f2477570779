"""repro — a reproduction of "Learning to Find Naming Issues with Big
Code and Small Supervision" (Namer, PLDI 2021).

Public API highlights:

* :class:`~repro.core.namer.Namer` — the end-to-end system: mine name
  patterns from a corpus, train the defect classifier on a small
  labeled set, and detect/fix naming issues.
* :mod:`repro.corpus` — the synthetic Big Code substrate (Python and
  Java generators with ground-truth issue injection).
* :mod:`repro.evaluation` — harnesses regenerating every table and
  figure of the paper's evaluation section.

Quickstart::

    from repro import Namer, NamerConfig, generate_python_corpus

    corpus = generate_python_corpus()
    namer = Namer(NamerConfig())
    namer.mine(corpus)
    for violation in namer.all_violations()[:5]:
        print(violation.describe())
"""

import time

#: ``time.monotonic()`` when the package began importing: the start of
#: the cold-start clock ``repro serve`` and cluster replicas report as
#: ``startup_seconds``, so that number covers import time too
IMPORT_STARTED = time.monotonic()

from repro.core.namer import MiningSummary, Namer, NamerConfig
from repro.core.patterns import NamePattern, PatternKind, Violation
from repro.core.reports import Report
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.javagen import generate_java_corpus
from repro.corpus.model import Corpus, IssueCategory
from repro.mining.miner import MiningConfig, PatternMiner

__version__ = "1.0.0"

__all__ = [
    "Namer",
    "NamerConfig",
    "MiningSummary",
    "NamePattern",
    "PatternKind",
    "Violation",
    "Report",
    "Corpus",
    "IssueCategory",
    "GeneratorConfig",
    "generate_python_corpus",
    "generate_java_corpus",
    "MiningConfig",
    "PatternMiner",
]
