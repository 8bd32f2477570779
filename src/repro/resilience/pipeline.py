"""The checkpointed mine → train → save pipeline.

Mining a paper-scale corpus (~1M Python / 4M Java files) runs for
hours; a process killed at hour three must not restart at minute zero.
:func:`run_mine_pipeline` wraps the end-to-end learning flow of
``python -m repro mine`` with stage-level checkpoints:

* ``mine``  — the artifact document right after pattern mining
  (patterns, confusing pairs, statistics; no classifier yet);
* ``train`` — the complete document including the trained classifier.

The run ends by writing the JSON export to ``out`` and the frozen blob
(:mod:`repro.mining.frozen`) that every loader reads next to it.

Each checkpoint is written atomically with a SHA-256 stamp
(:class:`~repro.resilience.checkpoint.CheckpointStore`), so a resumed
run never trusts torn state.  Resuming replays only the missing stages,
and — because corpus generation, mining, and training are all seeded —
produces an artifact **byte-identical** to an uninterrupted run
(asserted in ``tests/test_resilience.py``).

With the content cache on, a finished run also stores the exact bytes
it wrote (artifact and frozen blob) in the cache's ``train`` level,
keyed by everything they are a function of.  A re-run over the same
prepared corpus replays them from that one entry: it decodes no
prepared file and mines, trains and encodes nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.cache import ContentCache, config_fingerprint, fingerprint_of
from repro.core.namer import MiningSummary, Namer, NamerConfig, PreparedIndex
from repro.core.persistence import (
    namer_from_document,
    namer_to_document,
    save_document,
)
from repro.corpus.model import Corpus
from repro.mining.frozen import default_frozen_path
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
    sha256_of,
)
from repro.resilience.faults import fault_check

__all__ = [
    "MinePipelineResult",
    "run_mine_pipeline",
    "train_key",
]

@dataclass
class MinePipelineResult:
    """What a pipeline run did, for CLI reporting."""

    out: str
    summary: MiningSummary | None = None
    trained_on: int | None = None
    resumed_stages: list[str] = field(default_factory=list)
    quarantined_files: int = 0
    #: path of the frozen blob written next to ``out``
    frozen_out: str | None = None
    #: key of the ``train`` cache entry the outputs were replayed from
    #: (nothing was mined or trained), else None
    replayed_from: str | None = None
    #: per-level content-cache counters (empty without a cache)
    cache_stats: dict = field(default_factory=dict)


def run_mine_pipeline(
    *,
    corpus_factory: Callable[[], Corpus],
    corpus_settings: object,
    namer_config: NamerConfig,
    out: str | Path,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    train: bool = True,
    training_size: int = 120,
    seed: int = 7,
    keep_checkpoints: bool = False,
    log: Callable[[str], None] = lambda message: None,
) -> MinePipelineResult:
    """Run (or resume) mine → train → save, checkpointing each stage.

    ``corpus_factory`` is called lazily — a resume that finds a valid
    ``train`` checkpoint never rebuilds the corpus at all; one that
    finds only ``mine`` rebuilds it just to re-prepare files for
    classifier training (pattern mining itself is skipped).
    Checkpoints are stamped with a fingerprint of the run's inputs
    (``corpus_settings`` — a ``repr``-stable description of what the
    factory builds — the output-relevant ``namer_config``, ``train``,
    ``training_size``, ``seed``); a resume ignores any stamped for
    other inputs.

    With ``namer_config.cache_dir`` set, the run first indexes the
    prepared corpus (:meth:`Namer.index_prepared`) and looks up its
    ``train`` entry (:func:`train_key`); a hit writes the stored
    artifact and frozen blob and returns.
    """
    out = str(out)
    store = CheckpointStore(checkpoint_dir or f"{out}.ckpt")
    result = MinePipelineResult(out=out)
    # Worker count and cache directory never change the output.
    output_config = replace(namer_config, workers=1, cache_dir=None)
    inputs = sha256_of(
        config_fingerprint(corpus_settings, output_config, train, training_size, seed)
    )
    frozen_path = default_frozen_path(out)

    corpus: Corpus | None = None

    def get_corpus() -> Corpus:
        nonlocal corpus
        if corpus is None:
            corpus = corpus_factory()
        return corpus

    def load_stage(stage: str) -> dict | None:
        if not resume:
            return None
        try:
            return store.load(stage, inputs)
        except CheckpointError as exc:
            log(f"ignoring unusable checkpoint: {exc}")
            return None

    cache: ContentCache | None = None
    replay_key: str | None = None
    final_document = load_stage("train")
    namer: Namer | None = None
    if final_document is not None:
        result.resumed_stages.append("train")
        log("resumed from checkpoint 'train' (mining and training skipped)")
    else:
        miner = Namer(namer_config)
        cache = miner.content_cache
        index: PreparedIndex | None = None
        if cache is not None:
            index = miner.index_prepared(get_corpus())
            replay_key = train_key(inputs, index, get_corpus())
            entry = cache.get("train", replay_key)
            if entry is not None:
                artifact, frozen = entry
                fault_check("persistence.write", key=out)
                atomic_write_bytes(out, artifact)
                atomic_write_bytes(frozen_path, frozen)
                result.frozen_out = str(frozen_path)
                result.replayed_from = replay_key
                result.quarantined_files = len(index.quarantine)
                result.cache_stats = cache.stats_json()
                log(
                    f"replayed from cache entry train/{replay_key[:16]} "
                    "(mining and training skipped)"
                )
                if result.quarantined_files:
                    log(
                        f"quarantined {result.quarantined_files} "
                        "unpreparable file(s)"
                    )
                if not keep_checkpoints:
                    store.clear()
                log(f"artifacts saved to {out}")
                return result
        mine_document = load_stage("mine")
        if mine_document is not None:
            namer = namer_from_document(mine_document, label="checkpoint 'mine'")
            result.resumed_stages.append("mine")
            log("resumed from checkpoint 'mine' (pattern mining skipped)")
        else:
            namer = miner
            result.summary = namer.mine(get_corpus(), index)
            result.quarantined_files = result.summary.quarantined_files
            store.save("mine", namer_to_document(namer), inputs)
            log(
                f"mined {result.summary.num_patterns} patterns "
                f"({result.summary.num_confusing_pairs} confusing pairs) "
                f"from {result.summary.total_files} files"
            )
            if result.summary.quarantined_files:
                log(
                    f"quarantined {result.summary.quarantined_files} "
                    "unpreparable file(s)"
                )
        fault_check("pipeline.after_mine", key=out)

        if train:
            from repro.evaluation.oracle import Oracle
            from repro.evaluation.precision import sample_balanced_training

            if not namer.prepared:
                # Resumed from the mine checkpoint: the prepared corpus
                # is an input, not an artifact, so rebuild it (seeded —
                # identical to the original run) for training.
                namer.prepared = (
                    miner.load_prepared(index)[0]
                    if index is not None
                    else namer.prepare(get_corpus(), namer.quarantine)
                )
            oracle = Oracle(get_corpus())
            violations = namer.all_violations()
            training, labels = sample_balanced_training(
                violations, oracle, training_size, random.Random(seed)
            )
            if len(set(labels)) > 1:
                namer.train(training, labels)
                result.trained_on = len(training)
                log(f"trained classifier on {len(training)} labeled violations")
        if result.summary is not None:
            passes = result.summary.gc
            log("cycle collections (mine, train): " + ", ".join(
                f"gen{generation} {count} ({seconds:.3f} s)"
                for generation, (count, seconds) in enumerate(
                    zip(passes["collections"], passes["seconds"])
                )
            ))

        final_document = namer_to_document(namer)
        store.save("train", final_document, inputs)
        fault_check("pipeline.after_train", key=out)

    checksum = save_document(final_document, out)
    # The frozen blob next to the JSON export: it is what every loader
    # maps (`load_namer`); the JSON document is written for export only.
    # Looked up at call time, so a tracer wrapping `freeze_namer` in its
    # module (namerbench's `mining.freeze` layer) sees this call.
    from repro.mining.frozen import freeze_namer

    if namer is None:
        # Resumed straight from the 'train' checkpoint: the fitted namer
        # was never materialized, so decode it once to freeze.
        namer = namer_from_document(final_document, label=f"artifact {out}")
    frozen = freeze_namer(namer, frozen_path, checksum)
    result.frozen_out = str(frozen_path)
    log(
        f"frozen matcher blob saved to {frozen_path} "
        f"({frozen['bytes']} bytes, {frozen['arrays']} arrays)"
    )
    if cache is not None:
        # Stored only once both outputs are on disk: the exact bytes a
        # replay writes.  The document and the mined namer go first, so
        # the entry's few MB reuse their memory rather than raise the
        # run's peak.
        del final_document, namer, miner, index
        cache.put("train", replay_key, (
            Path(out).read_bytes(), frozen_path.read_bytes()
        ))
        result.cache_stats = cache.stats_json()
    if not keep_checkpoints:
        store.clear()
    log(f"artifacts saved to {out}")
    return result


def train_key(inputs: str, index: PreparedIndex, corpus: Corpus) -> str:
    """The ``train`` cache key: everything the written artifact and
    frozen blob are a function of — the run's ``inputs`` fingerprint,
    each prepared file's payload digest in corpus order, the commit
    texts the confusing pairs are mined from, and the ground truth the
    training oracle labels with.  The key also hashes the code that
    mines, trains and encodes them, so a replay never writes the bytes
    an older build made."""
    return ContentCache.key(
        inputs,
        fingerprint_of(index.digests),
        Namer.pairs_key(corpus),
        fingerprint_of(corpus.ground_truth),
    )
