"""The reference answers behind the serve workloads' correctness gate.

Usage::

    python benchmarks/namerbench/reference.py ARTIFACT PAYLOADS_JSON

Reads a JSON list of ``/analyze`` bodies, answers each through an
in-process ``AnalysisEngine`` on ARTIFACT (no sockets, no concurrency),
and prints the ``normalized_digest`` of every answer as one JSON list.
``run.py`` starts one of these per core, each with a share of the
payloads, after the timed phase.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.evaluation.loadtest import reference_digests  # noqa: E402
from repro.service.engine import AnalysisEngine  # noqa: E402


def main(argv: list[str]) -> int:
    artifact, payloads = argv
    engine = AnalysisEngine(artifact_path=artifact, workers=1)
    try:
        digests = reference_digests(engine, json.loads(Path(payloads).read_text()))
    finally:
        engine.shutdown()
    print(json.dumps(digests))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
