"""Per-file analysis speed (the Section 5.1 "Speed of Namer" text).

The paper reports Namer's runtime is dominated by the Section 4.1
program analyses, averaging 20ms/file for Java and 39ms/file for
Python on their test server.  This harness times the same stage —
parse, fact extraction, points-to, origins — per file of a corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.origins import compute_origins
from repro.corpus.model import Corpus
from repro.lang import parse_source

__all__ = ["SpeedReport", "measure_analysis_speed"]


@dataclass(frozen=True)
class SpeedReport:
    files: int
    total_seconds: float

    @property
    def ms_per_file(self) -> float:
        return 1000.0 * self.total_seconds / self.files if self.files else 0.0

    def __str__(self) -> str:
        return f"{self.files} files analyzed in {self.total_seconds:.2f}s ({self.ms_per_file:.1f} ms/file)"


def measure_analysis_speed(corpus: Corpus, max_files: int | None = None) -> SpeedReport:
    """Time the analysis stage over the corpus's files."""
    modules = []
    for count, (repo, f) in enumerate(corpus.files()):
        if max_files is not None and count >= max_files:
            break
        try:
            modules.append(parse_source(f.source, f.language, f.path, repo.name))
        except ValueError:
            continue
    start = time.perf_counter()
    for module in modules:
        compute_origins(module)
    elapsed = time.perf_counter() - start
    return SpeedReport(files=len(modules), total_seconds=elapsed)
