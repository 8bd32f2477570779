"""Golden digests: the byte-identity contract, pinned.

Mining and detection must produce the same bytes whatever the worker
count, cache temperature, artifact encoding (JSON document or frozen
blob) or interner cap.  ``tests/golden_digests.json`` records those
bytes as sha256 digests for the tier-1 corpora, and
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

from repro.core.namer import Namer, NamerConfig
from repro.core.persistence import load_namer, save_namer
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.javagen import generate_java_corpus
from repro.evaluation.oracle import Oracle
from repro.evaluation.precision import sample_balanced_training
from repro.mining.frozen import freeze_namer, load_frozen_namer
from repro.mining.miner import MiningConfig
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.resilience.quarantine import Quarantine

GOLDENS_PATH = Path(__file__).with_name("golden_digests.json")

#: the tier-1 corpora (``tests/conftest.py``) and their mining knobs
LANGUAGES = ("python", "java")
SMALL_MINING = MiningConfig(min_pattern_support=10, min_path_frequency=5)

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
    train(namer, language)
    trained_path = workdir / f"{language}.json"
    trained = artifact_digest(namer, trained_path)
    loaded = load_namer(trained_path)
    faulted = mine_under_faults(language)
    faulted_reports, detect_records = detect_under_faults(
        loaded, namer.prepared
    )
    return {
        "mined_artifact": mined,
        "trained_artifact": trained,
        "reports": report_digests(loaded, namer.prepared),
        "faults": {
            "mined_artifact": artifact_digest(
                faulted, workdir / f"{language}.faulted.json"
            ),
            "mine_quarantine": records_json(faulted.quarantine),
            "reports": faulted_reports,
            "detect_quarantine": detect_records,
        },
    }


def compute_goldens(workdir: Path) -> dict:
    return {
        "regenerate": "PYTHONPATH=src python -m tests.goldens --write",
        **{lang: compute_language(lang, workdir) for lang in LANGUAGES},
    }


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def frozen_twin(namer: Namer, path: Path) -> Namer:
    """Freeze a fitted namer to ``path`` and load it back."""
    freeze_namer(namer, path)
    return load_frozen_namer(path)


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
