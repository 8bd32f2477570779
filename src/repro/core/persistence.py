"""Saving and loading a fitted Namer.

Mining over a big corpus is the expensive one-time step; a deployed
tool ships the *artifacts* — mined patterns, confusing word pairs, the
corpus statistics index, and the trained classifier — and only runs
inference.  Saving writes two files: a JSON document of all four
(numpy arrays as lists; everything else is naturally JSON-shaped),
which is the export the golden digests pin, and the frozen blob
(:mod:`repro.mining.frozen`) beside it, which :func:`load_namer`, the
only artifact reader, maps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.namer import Namer, NamerConfig
from repro.core.namepath import EPSILON, NamePath, PathStep
from repro.core.patterns import NamePattern, PatternKind
from repro.core.stats_index import StatsIndex
from repro.mining.confusing_pairs import ConfusingPairStore
from repro.mining.frozen import (
    FrozenError,
    default_frozen_path,
    freeze_namer,
    load_frozen_namer,
)
from repro.mining.matcher import PatternMatcher
from repro.mining.miner import MiningConfig
from repro.ml.linear import LinearSVM
from repro.ml.pipeline import ClassifierPipeline
from repro.ml.preprocess import PCA, StandardScaler
from repro.resilience.checkpoint import atomic_write_text, document_checksum
from repro.resilience.faults import fault_check

__all__ = [
    "config_to_json",
    "pairs_to_json",
    "save_namer",
    "load_namer",
    "namer_to_document",
    "namer_from_document",
    "save_document",
    "PersistenceError",
    "SCHEMA_VERSION",
]

#: Version stamp written into every artifact document (and into the
#: frozen header as ``artifact_schema``).  Bump it whenever the JSON
#: layout changes incompatibly.  v3 added the SHA-256 ``checksum`` stamp.
SCHEMA_VERSION = 3


class PersistenceError(ValueError):
    """Raised when an artifact file cannot be loaded.

    Subclasses :class:`ValueError` so callers that predate the explicit
    error type keep working, but carries a user-facing message instead
    of a raw ``KeyError``/``JSONDecodeError``.
    """


# ----------------------------------------------------------------------
# Name paths and patterns
# ----------------------------------------------------------------------


def _path_to_json(path: NamePath) -> dict:
    return {
        "prefix": [[s.value, s.index] for s in path.prefix],
        "end": path.end,
    }


def _path_from_json(data: dict) -> NamePath:
    return NamePath(
        prefix=tuple(PathStep(value=v, index=i) for v, i in data["prefix"]),
        end=data["end"] if data["end"] is not None else EPSILON,
    )


def _pattern_to_json(pattern: NamePattern) -> dict:
    return {
        "kind": pattern.kind.value,
        "support": pattern.support,
        "condition": [_path_to_json(p) for p in sorted(pattern.condition)],
        "deduction": [_path_to_json(p) for p in sorted(pattern.deduction)],
    }


def _pattern_from_json(data: dict) -> NamePattern:
    return NamePattern(
        condition=frozenset(_path_from_json(p) for p in data["condition"]),
        deduction=frozenset(_path_from_json(p) for p in data["deduction"]),
        kind=PatternKind(data["kind"]),
        support=data["support"],
    )


# ----------------------------------------------------------------------
# Statistics index
# ----------------------------------------------------------------------


def _stats_to_json(stats: StatsIndex) -> dict:
    """Counters are keyed by pattern index already; rows keep their
    insertion order."""

    def encode_table(table) -> dict:
        return {
            "file": [[scope, idx, count] for (scope, idx), count in table["file"].items()],
            "repo": [[scope, idx, count] for (scope, idx), count in table["repo"].items()],
            "dataset": [[idx, count] for idx, count in table["dataset"].items()],
        }

    return {
        "matches": encode_table(stats.matches),
        "satisfactions": encode_table(stats.satisfactions),
        "violations": encode_table(stats.violations),
        "statement_counts": {
            level: [[scope, struct, count] for (scope, struct), count in counter.items()]
            for level, counter in stats.statement_counts.items()
        },
        "total_statements": stats.total_statements,
    }


def _stats_from_json(data: dict) -> StatsIndex:
    stats = StatsIndex()

    def decode_table(table_data: dict, target: dict) -> None:
        for level in ("file", "repo"):
            counter = target[level]
            for scope, index, count in table_data[level]:
                counter[(scope, index)] = count
        for index, count in table_data["dataset"]:
            target["dataset"][index] = count

    decode_table(data["matches"], stats.matches)
    decode_table(data["satisfactions"], stats.satisfactions)
    decode_table(data["violations"], stats.violations)
    for level, rows in data["statement_counts"].items():
        for scope, struct, count in rows:
            stats.statement_counts[level][(scope, struct)] = count
    stats.total_statements = data["total_statements"]
    return stats


# ----------------------------------------------------------------------
# Classifier pipeline
# ----------------------------------------------------------------------


def _classifier_to_json(pipeline: ClassifierPipeline | None) -> dict | None:
    if pipeline is None:
        return None
    classifier = pipeline.classifier
    return {
        "scaler_mean": pipeline.scaler.mean_.tolist(),
        "scaler_scale": pipeline.scaler.scale_.tolist(),
        "pca_components": (
            pipeline.pca.components_.tolist() if pipeline.pca is not None else None
        ),
        "pca_mean": (
            pipeline.pca.mean_.tolist() if pipeline.pca is not None else None
        ),
        "coef": np.asarray(classifier.coef_).tolist(),
        "intercept": float(classifier.intercept_),
    }


def _classifier_from_json(data: dict | None) -> ClassifierPipeline | None:
    if data is None:
        return None
    pipeline = ClassifierPipeline(LinearSVM(), n_components=None)
    pipeline.scaler = StandardScaler()
    pipeline.scaler.mean_ = np.asarray(data["scaler_mean"])
    pipeline.scaler.scale_ = np.asarray(data["scaler_scale"])
    if data["pca_components"] is not None:
        pca = PCA()
        pca.components_ = np.asarray(data["pca_components"])
        pca.mean_ = np.asarray(data["pca_mean"])
        pipeline.pca = pca
    pipeline.classifier.coef_ = np.asarray(data["coef"])
    pipeline.classifier.intercept_ = data["intercept"]
    return pipeline


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def namer_to_document(namer: Namer) -> dict[str, Any]:
    """The artifact JSON document for a mined Namer (no checksum yet;
    :func:`save_document` stamps it at write time)."""
    if namer.matcher is None or namer.stats is None:
        raise ValueError("mine() the Namer before saving it")
    patterns = namer.matcher.patterns
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_json(namer),
        "patterns": [_pattern_to_json(p) for p in patterns],
        "pairs": pairs_to_json(namer),
        "stats": _stats_to_json(namer.stats),
        "classifier": _classifier_to_json(namer.classifier),
    }


def config_to_json(namer: Namer) -> dict[str, Any]:
    """The artifact's ``config`` section (the frozen header carries it
    too)."""
    return {
        "use_analysis": namer.config.use_analysis,
        "use_classifier": namer.config.use_classifier,
        "max_paths_per_statement": namer.config.mining.max_paths_per_statement,
    }


def pairs_to_json(namer: Namer) -> list[list]:
    """The artifact's ``pairs`` section (the frozen header carries it
    too)."""
    return [[m, c, n] for (m, c), n in namer.pairs.counts.items()]


def save_document(document: dict[str, Any], path: str | Path) -> str:
    """Stamp the document's SHA-256 checksum (next to ``schema_version``)
    and write it atomically, so readers only ever see a complete export.

    Returns the checksum, which the frozen blob of the same namer
    carries as its fingerprint."""
    fault_check("persistence.write", key=str(path))
    checksum = document_checksum(document)
    stamped: dict[str, Any] = {
        "schema_version": document["schema_version"],
        "checksum": checksum,
    }
    stamped.update((k, v) for k, v in document.items() if k != "schema_version")
    atomic_write_text(path, json.dumps(stamped))
    return checksum


def save_namer(namer: Namer, path: str | Path) -> None:
    """Save a fitted Namer's artifacts: the JSON export at ``path`` and
    the frozen blob :func:`load_namer` reads beside it.

    The prepared corpus itself is not saved — it is an input, not an
    artifact — so a loaded Namer supports inference
    (:meth:`~repro.core.namer.Namer.violations_in` /
    :meth:`~repro.core.namer.Namer.detect`) but not re-mining.
    """
    checksum = save_document(namer_to_document(namer), path)
    freeze_namer(namer, default_frozen_path(path), checksum)


def namer_from_document(
    document: dict[str, Any], label: str = "<document>"
) -> Namer:
    """Decode an artifact document into a Namer (the stage checkpoints
    of :mod:`repro.resilience.pipeline` hold documents)."""
    try:
        config = document["config"]
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"artifact {label} is missing 'config'") from exc
    try:
        namer = Namer(
            NamerConfig(
                mining=MiningConfig(
                    max_paths_per_statement=config["max_paths_per_statement"]
                ),
                use_analysis=config["use_analysis"],
                use_classifier=config["use_classifier"],
            )
        )
        patterns = [_pattern_from_json(p) for p in document["patterns"]]
        namer.matcher = PatternMatcher(patterns)
        namer.pairs = ConfusingPairStore()
        for mistaken, correct, count in document["pairs"]:
            namer.pairs.add(mistaken, correct, count)
        namer.stats = _stats_from_json(document["stats"])
        namer.stats.bind(namer.matcher)
        namer.classifier = _classifier_from_json(document.get("classifier"))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, PersistenceError):
            raise
        raise PersistenceError(
            f"artifact {label} is truncated or malformed: {exc!r}"
        ) from exc
    return namer


def load_namer(path: str | Path, *, degraded_ok: bool = False) -> Namer:
    """Load the fitted Namer saved at ``path`` by mapping its frozen
    blob, ``<path>.frozen`` (the JSON export itself is never read).

    Raises :class:`PersistenceError` for a missing, truncated or
    damaged blob, or one of another layout version.  ``degraded_ok``
    relaxes exactly the classifier half: a blob whose only damage is in
    the classifier arrays loads pattern-only, with the reason in
    ``degraded_reasons``.
    """
    fault_check("persistence.read", key=str(path))
    try:
        return load_frozen_namer(default_frozen_path(path), degraded_ok=degraded_ok)
    except FrozenError as exc:
        raise PersistenceError(str(exc)) from exc
