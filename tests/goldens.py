"""Golden digests: the byte-identity contract, pinned.

Mining and detection must produce the same bytes whatever the worker
count, cache temperature, whether the namer was loaded from its blob,
or interner cap.  ``tests/golden_digests.json`` records those bytes as
sha256 digests for the tier-1 corpora (the JSON artifacts and the
frozen blobs frozen from them), together with every
file's points-to result (the Datalog solver's contract), and
``tests/test_goldens.py`` recomputes them through every supported
configuration.

The helpers here compute each digest from scratch.  A change that
alters outputs *on purpose* (a new feature, a fixed analysis bug)
regenerates the file and commits it with the change that explains why:

    PYTHONPATH=src python -m tests.goldens --write

Run without ``--write`` to print the freshly computed document instead.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.analysis.facts import extract_facts
from repro.analysis.pointsto import PointsToConfig, PointsToResult, analyze_pointsto
from repro.core.namer import Namer, NamerConfig
from repro.core.persistence import load_namer, namer_to_document, save_namer
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.javagen import generate_java_corpus
from repro.evaluation.oracle import Oracle
from repro.lang import parse_source
from repro.evaluation.precision import sample_balanced_training
from repro.mining.frozen import freeze_namer
from repro.mining.miner import MiningConfig
from repro.resilience.checkpoint import document_checksum
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.resilience.quarantine import Quarantine

GOLDENS_PATH = Path(__file__).with_name("golden_digests.json")

#: the tier-1 corpora (``tests/conftest.py``) and their mining knobs
LANGUAGES = ("python", "java")
SMALL_MINING = MiningConfig(min_pattern_support=10, min_path_frequency=5)

#: context depths the points-to digest covers: the paper default and the
#: context-insensitive fallback
POINTSTO_KS = (5, 0)

#: one fixed, seeded plan tripping the prepare, detect and featurize
#: quarantine paths
FAULT_PLAN = FaultPlan(
    [
        FaultSpec(site="corpus.prepare_file", rate=0.15),
        FaultSpec(site="core.detect", rate=0.3),
        FaultSpec(site="core.featurize", rate=0.3),
    ],
    seed=5,
)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def corpus(language: str):
    if language == "python":
        return generate_python_corpus(
            GeneratorConfig(num_repos=12, issue_rate=0.15, seed=99)
        )
    return generate_java_corpus(
        GeneratorConfig(num_repos=10, issue_rate=0.15, seed=99)
    )


def mine(language: str, *, workers: int = 1, cache_dir=None) -> Namer:
    namer = Namer(
        NamerConfig(
            mining=SMALL_MINING,
            workers=workers,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        )
    )
    namer.mine(corpus(language))
    return namer


def artifact_digest(namer: Namer, path: Path) -> str:
    """sha256 of the saved artifact bytes, counter insertion order
    included (``document_checksum`` sorts keys and would miss it)."""
    save_namer(namer, path)
    return sha256(path.read_bytes())


def frozen_digest(namer: Namer, path: Path) -> str:
    """sha256 of the frozen blob ``freeze_namer`` writes for ``namer``."""
    freeze_namer(namer, path, document_checksum(namer_to_document(namer)))
    return sha256(path.read_bytes())


def train(namer: Namer, language: str) -> Namer:
    """The ``fitted_namer`` recipe: a balanced oracle-labelled sample."""
    oracle = Oracle(corpus(language))
    rng = random.Random(5)
    training, labels = sample_balanced_training(
        namer.all_violations(), oracle, 80, rng
    )
    if len(set(labels)) > 1:
        namer.train(training, labels)
    return namer


def report_digests(namer: Namer, prepared, *, workers: int = 1) -> dict:
    """``path -> sha256 of the file's detect_many_rows rows``."""
    rows = namer.detect_many_rows(prepared, workers=workers)
    digests = {
        pf.path: sha256(json.dumps(file_rows, separators=(",", ":")))
        for pf, file_rows in zip(prepared, rows)
    }
    assert len(digests) == len(prepared), "file paths must be unique"
    return digests


def canonical_pointsto(result: PointsToResult) -> dict:
    """One points-to result as sorted, JSON-ready lists."""
    return {
        "var_points_to": sorted(
            [function, variable, sorted(heaps)]
            for (function, variable), heaps in result.var_points_to.items()
        ),
        "reachable_functions": sorted(result.reachable_functions),
        "call_edges": sorted(list(edge) for edge in result.call_edges),
        "used_k": result.used_k,
        "avg_contexts": repr(result.avg_contexts),
    }


def pointsto_digest(language: str) -> str:
    """sha256 of every corpus file's canonical points-to result at each
    k in :data:`POINTSTO_KS` (files that do not parse record ``None``)."""
    results = {}
    for repo, source in corpus(language).files():
        try:
            module = parse_source(
                source.source, source.language, source.path, repo.name
            )
        except ValueError:
            results[source.path] = None
            continue
        facts = extract_facts(module)
        results[source.path] = [
            canonical_pointsto(analyze_pointsto(facts, PointsToConfig(k=k)))
            for k in POINTSTO_KS
        ]
    return sha256(json.dumps(results, sort_keys=True, separators=(",", ":")))


def records_json(quarantine: Quarantine) -> list[dict]:
    return [record.to_json() for record in quarantine.records]


def mine_under_faults(language: str, *, workers: int = 1) -> Namer:
    with FAULTS.armed(FAULT_PLAN):
        return mine(language, workers=workers)


def detect_under_faults(namer: Namer, prepared, *, workers: int = 1):
    """(all rows' sha256, quarantine records) of one faulted batch."""
    quarantine = Quarantine()
    with FAULTS.armed(FAULT_PLAN):
        rows = namer.detect_many_rows(
            prepared, quarantine=quarantine, workers=workers
        )
    return sha256(json.dumps(rows, separators=(",", ":"))), records_json(
        quarantine
    )


def compute_language(language: str, workdir: Path) -> dict:
    """Every digest for one corpus, computed serially from a cold
    start (the reference the test suite compares all arms against)."""
    namer = mine(language)
    mined = artifact_digest(namer, workdir / f"{language}.mined.json")
    mined_frozen = frozen_digest(namer, workdir / f"{language}.mined.frozen")
    train(namer, language)
    trained_path = workdir / f"{language}.json"
    trained = artifact_digest(namer, trained_path)
    trained_frozen = frozen_digest(namer, workdir / f"{language}.frozen")
    loaded = load_namer(trained_path)
    faulted = mine_under_faults(language)
    faulted_reports, detect_records = detect_under_faults(
        loaded, namer.prepared
    )
    return {
        "mined_artifact": mined,
        "mined_frozen": mined_frozen,
        "trained_artifact": trained,
        "trained_frozen": trained_frozen,
        "reports": report_digests(loaded, namer.prepared),
        "faults": {
            "mined_artifact": artifact_digest(
                faulted, workdir / f"{language}.faulted.json"
            ),
            "mine_quarantine": records_json(faulted.quarantine),
            "reports": faulted_reports,
            "detect_quarantine": detect_records,
        },
        "pointsto": pointsto_digest(language),
    }


def compute_goldens(workdir: Path) -> dict:
    return {
        "regenerate": "PYTHONPATH=src python -m tests.goldens --write",
        **{lang: compute_language(lang, workdir) for lang in LANGUAGES},
    }


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def main(argv: list[str]) -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        document = compute_goldens(Path(tmp))
    text = json.dumps(document, indent=1) + "\n"
    if "--write" in argv:
        GOLDENS_PATH.write_text(text)
        print(f"wrote {GOLDENS_PATH}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
