"""The Namer system: the paper's end-to-end pipeline (Figure 1).

Learning (top of Figure 1):

1. :meth:`Namer.mine` — mine confusing word pairs from commit
   histories, then mine consistency and confusing-word name patterns
   from the unlabeled corpus, and build the corpus statistics index.
2. :meth:`Namer.train` — fit the defect classifier (scaler + PCA +
   linear SVM by default) on a *small* labeled set of violations.

Inference (bottom of Figure 1):

3. :meth:`Namer.violations_in` — match a file's statements against the
   mined patterns.
4. :meth:`Namer.detect` — keep only the violations the classifier
   predicts to be true naming issues, returning :class:`Report` rows
   with rendered fixes.  :meth:`Namer.analyze` runs both steps on raw
   source files, prepared exactly as mining prepared the corpus.

Ablations: ``use_classifier=False`` reports every violation ("w/o C" in
Tables 2 and 5); ``use_analysis=False`` skips the points-to/data flow
decoration ("w/o A").
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.pointsto import PointsToConfig
from repro.cache import (
    CACHE_SHARD_TARGET,
    ContentCache,
    config_fingerprint,
    fingerprint_of,
    pattern_fingerprint,
    shard_content_keys,
)
from repro.core.features import extract_features, extract_features_batch
from repro.core.namepath import extract_name_paths
from repro.core.prepare import (
    PreparedFile,
    PrepareSettings,
    prepare_corpus,
    prepare_one,
)
from repro.core.patterns import PatternKind, Violation
from repro.core.reports import Report
from repro.core.stats_index import StatsIndex
from repro.core.transform import TransformConfig
from repro.corpus.model import Corpus, Repository, SourceFile
from repro.mining.confusing_pairs import ConfusingPairStore, mine_confusing_pairs
from repro.mining.interner import PathInterner
from repro.mining.matcher import PatternMatcher, prefix_frequencies_ids
from repro.mining.miner import MiningConfig, PatternMiner
from repro.ml.linear import LinearSVM
from repro.ml.pipeline import ClassifierPipeline
from repro.lang import parse_source
from repro.parallel.executor import ShardExecutor, resolve_context, resolve_shard
from repro.parallel.merge import merge_timed_shards
from repro.parallel.profiler import GcTimer, PhaseProfiler
from repro.parallel.sharding import even_spans, pack_spans, spans_by_group
from repro.resilience.faults import armed_plan_json, fault_check, sync_armed_plan
from repro.resilience.quarantine import ErrorRecord, Quarantine

__all__ = [
    "DETECT_FILES_PER_TASK",
    "NamerConfig",
    "Namer",
    "MiningSummary",
    "PreparedIndex",
]

#: Parallel detection batches ~this many files into each worker task.
#: Every task pays fixed overhead (fault-plan JSON, context resolution,
#: result pickling), so small batches get fewer, fatter tasks instead of
#: one near-empty task per file; large batches still fan out to the
#: executor's full shard hint.  Purely a span-plan knob: reports and
#: quarantine ordering are byte-identical for any value.
DETECT_FILES_PER_TASK = 8


@dataclass(frozen=True)
class NamerConfig:
    """All knobs of the system in one place."""

    mining: MiningConfig = MiningConfig()
    transform: TransformConfig = TransformConfig()
    pointsto: PointsToConfig = PointsToConfig()
    use_analysis: bool = True
    use_classifier: bool = True
    #: minimum occurrences for a confusing word pair to be used
    min_pair_count: int = 2
    #: PCA components kept in the classifier pipeline
    pca_components: float = 0.99
    #: process-pool size for corpus preparation and the sharded mining
    #: passes; 1 runs everything inline (output is identical either way)
    workers: int = 1
    #: directory for the content-addressed warm cache; ``None`` (the
    #: library default) disables caching.  A warm re-mine recomputes
    #: only the shards whose files (or config) changed; mined patterns
    #: and artifacts are byte-identical with the cache on, off, cold,
    #: or warm.
    cache_dir: str | None = None


@dataclass
class MiningSummary:
    """Statistics reported in the "pattern mining" paragraphs of 5.2/5.3."""

    num_patterns: int = 0
    num_consistency: int = 0
    num_confusing: int = 0
    num_confusing_pairs: int = 0
    statements_with_violation: int = 0
    files_with_violation: int = 0
    repos_with_violation: int = 0
    total_statements: int = 0
    total_files: int = 0
    total_repos: int = 0
    #: files skipped with a structured error record instead of
    #: aborting the run (full records on ``Namer.quarantine``)
    quarantined_files: int = 0
    #: wall-time/input-size rows from the :class:`PhaseProfiler`, one
    #: per pipeline phase (prepare, pairs, frequency, growth, generate,
    #: prune, stats, train); surfaced by ``repro mine --profile`` and
    #: the service ``/metrics`` endpoint
    phase_timings: list[dict] = field(default_factory=list)
    #: per-level hit/miss/store/eviction/corrupt counters, payload bytes
    #: decoded and decode seconds of the content-addressed cache (empty
    #: without ``config.cache_dir``); surfaced alongside the phase timings
    cache_stats: dict = field(default_factory=dict)
    #: the cyclic collector's passes during mine() and train():
    #: ``collections`` and ``seconds`` per generation (see
    #: :class:`~repro.parallel.profiler.GcTimer`); never persisted,
    #: like the phase timings, and logged by ``repro mine``
    gc: dict = field(default_factory=dict)


@dataclass
class PreparedIndex:
    """A corpus's prepared files by content digest (cache on), from
    :meth:`Namer.index_prepared`.

    ``files`` holds one ``(repo name, source, prepare key, payload
    sha256)`` row per file that prepared, in corpus order.  Files that
    had no usable entry were prepared while indexing and wait in
    ``fresh`` (by key); the rest stay on disk until
    :meth:`Namer.load_prepared` decodes them.  ``quarantine`` holds the
    records of the files that failed to prepare.
    """

    language: str
    files: list[tuple[str, SourceFile, str, str]]
    fresh: dict[str, PreparedFile]
    quarantine: Quarantine

    @property
    def digests(self) -> list[str]:
        return [row[3] for row in self.files]


class Namer:
    """Find and fix naming issues with Big Code and small supervision."""

    def __init__(self, config: NamerConfig = NamerConfig()) -> None:
        self.config = config
        self.pairs: ConfusingPairStore = ConfusingPairStore()
        self.matcher: PatternMatcher | None = None
        self.stats: StatsIndex | None = None
        self.classifier: ClassifierPipeline | None = None
        self.prepared: list[PreparedFile] = []
        self.summary = MiningSummary()
        #: phase timings of the most recent mine()/train() run
        self.profiler = PhaseProfiler()
        #: cycle-collector passes of the most recent mine()/train() run
        self.gc_timer = GcTimer()
        #: accumulated detection-side phase timings (match / featurize /
        #: classify) across every detect()/detect_many() call
        self.detect_profiler = PhaseProfiler()
        #: fork-shared worker context for parallel detection, rebuilt
        #: whenever the matcher changes (one registration per model
        #: generation, reused across batches)
        self._detect_ctx: list | None = None
        #: per-file failures captured (not raised) during mine()
        self.quarantine = Quarantine()
        #: populated by a degraded artifact load (see persistence)
        self.degraded_reasons: list[str] = []
        #: content-addressed warm cache (None without config.cache_dir)
        self.content_cache: ContentCache | None = (
            ContentCache(config.cache_dir) if config.cache_dir else None
        )

    # ------------------------------------------------------------------
    # Learning step (i): unsupervised mining from Big Code
    # ------------------------------------------------------------------

    def prepare(
        self,
        corpus: Corpus,
        quarantine: Quarantine | None = None,
        workers: int | None = None,
    ) -> list[PreparedFile]:
        """Prepare a corpus exactly as :meth:`mine` would (also used to
        restore ``self.prepared`` when resuming from a checkpoint).

        ``workers`` defaults to ``config.workers`` and fans the per-file
        parse/analyze/transform work over a process pool; file order
        (and therefore every downstream result) is preserved.

        With ``config.cache_dir`` set this is :meth:`index_prepared`
        then :meth:`load_prepared`: only changed or new files are
        re-prepared.
        """
        if self.content_cache is None:
            return self._prepare_uncached(corpus, quarantine, workers)
        index = self._index_prepared(corpus, quarantine, workers)
        return self.load_prepared(index, workers)[0]

    def index_prepared(
        self,
        corpus: Corpus,
        quarantine: Quarantine | None = None,
        workers: int | None = None,
    ) -> PreparedIndex:
        """Every corpus file's prepared-payload digest, without decoding
        one (needs ``config.cache_dir``).

        A file's ``prepare`` entry is found by (repo, path, language,
        source bytes, prepare-relevant config), and its digest is read
        from the entry's header.  Files without an entry are prepared
        now, batched through the normal pool fan-out, and stored.
        Failures are never cached, so a warm run re-prepares (and
        re-quarantines, into ``quarantine``) them identically to a cold
        run.

        This starts a new run's phase timings and collector counts, as
        its ``prepare`` phase; :meth:`mine` handed the index continues
        them.
        """
        if self.content_cache is None:
            raise ValueError("index_prepared() needs config.cache_dir")
        self.profiler, self.gc_timer = PhaseProfiler(), GcTimer()
        with self.gc_timer, self.profiler.phase(
            "prepare", items=corpus.file_count()
        ):
            return self._index_prepared(corpus, quarantine, workers)

    def _index_prepared(
        self,
        corpus: Corpus,
        quarantine: Quarantine | None,
        workers: int | None,
    ) -> PreparedIndex:
        cache = self.content_cache
        if quarantine is None:
            quarantine = Quarantine()
        salt = self._prepare_salt()
        keyed = [
            (repo.name, source, self._file_key(repo.name, source, salt))
            for repo, source in corpus.files()
        ]
        digests = {
            key: digest
            for _, _, key in keyed
            if (digest := cache.digest("prepare", key)) is not None
        }
        fresh = self._prepare_rows(
            corpus.language,
            [row for row in keyed if row[2] not in digests],
            quarantine,
            workers,
        )
        for key, prepared in fresh.items():
            digests[key] = cache.put("prepare", key, prepared)
        return PreparedIndex(
            language=corpus.language,
            files=[
                (repo_name, source, key, digests[key])
                for repo_name, source, key in keyed
                if key in digests
            ],
            fresh=fresh,
            quarantine=quarantine,
        )

    def load_prepared(
        self, index: PreparedIndex, workers: int | None = None
    ) -> tuple[list[PreparedFile], list[str]]:
        """The indexed files, prepared, with their payload digests, both
        in corpus order.  Files prepared while indexing are not decoded;
        a payload that fails verification, or was evicted since it was
        indexed (a corpus larger than the level cap), is prepared again
        and re-stored."""
        cache = self.content_cache
        loaded: dict[str, tuple[PreparedFile, str]] = {}
        damaged = []
        for repo_name, source, key, digest in index.files:
            prepared = index.fresh.get(key)
            if prepared is None:
                prepared = cache.decode("prepare", key, digest)
            if prepared is None:
                damaged.append((repo_name, source, key))
            else:
                loaded[key] = (prepared, digest)
        redone = self._prepare_rows(
            index.language, damaged, index.quarantine, workers
        )
        for key, prepared in redone.items():
            loaded[key] = (prepared, cache.put("prepare", key, prepared))
        rows = [loaded[key] for _, _, key, _ in index.files if key in loaded]
        return [row[0] for row in rows], [row[1] for row in rows]

    def _prepare_rows(
        self,
        language: str,
        rows: list[tuple[str, SourceFile, str]],
        quarantine: Quarantine | None,
        workers: int | None,
    ) -> dict[str, PreparedFile]:
        """Prepare ``(repo name, source, key)`` rows uncached, keyed by
        ``key``; files that fail are quarantined and absent.  Rows come
        in corpus order, so grouping consecutive rows of one repo keeps
        the corpus order and repo grouping."""
        if not rows:
            return {}
        repos: list[Repository] = []
        for repo_name, source, _ in rows:
            if repos and repos[-1].name == repo_name:
                repos[-1].files.append(source)
            else:
                repos.append(Repository(name=repo_name, files=[source]))
        prepared = self._prepare_uncached(
            Corpus(repositories=repos, language=language), quarantine, workers
        )
        by_id = {(pf.repo, pf.path): pf for pf in prepared}
        return {
            key: pf
            for repo_name, source, key in rows
            if (pf := by_id.get((repo_name, source.path))) is not None
        }

    def _prepare_uncached(
        self,
        corpus: Corpus,
        quarantine: Quarantine | None,
        workers: int | None,
    ) -> list[PreparedFile]:
        return prepare_corpus(
            corpus,
            **self.prepare_settings()._asdict(),
            workers=self.config.workers if workers is None else workers,
            quarantine=quarantine,
        )

    def prepare_settings(self) -> PrepareSettings:
        """How this namer prepares a file — the one place mining, the
        prepared-file cache salt, and :meth:`analyze` read it from, so
        a file analyzed later lines up with the corpus the patterns
        were mined from (including the "w/o A" ablation)."""
        cfg = self.config
        return PrepareSettings(
            use_analysis=cfg.use_analysis,
            transform_config=TransformConfig(
                use_origins=cfg.use_analysis and cfg.transform.use_origins,
                max_subtokens=cfg.transform.max_subtokens,
            ),
            pointsto_config=cfg.pointsto,
            max_paths=cfg.mining.max_paths_per_statement,
        )

    def _prepare_salt(self) -> str:
        """The prepare settings, fingerprinted.

        Deliberately *not* ``repr(self.config)``: knobs that cannot
        change a prepared file (pattern support thresholds, worker
        count, the cache directory itself) must not invalidate
        prepared-file entries.
        """
        return config_fingerprint(*self.prepare_settings())

    @staticmethod
    def _file_key(repo_name: str, source, salt: str) -> str:
        """Content key of one corpus file: identity + bytes + config.

        The path is part of the key on purpose — statements carry their
        file path into violations and artifacts, so a renamed file with
        identical bytes must be re-prepared.
        """
        return ContentCache.key(
            repo_name, source.path, source.language, source.source, salt
        )

    @staticmethod
    def pairs_key(corpus: Corpus) -> str:
        """Content key of the confusing-pair counts: every commit text."""
        return ContentCache.key(
            corpus.language,
            *(text for c in corpus.commits for text in (c.before, c.after)),
        )

    def mine(
        self, corpus: Corpus, index: PreparedIndex | None = None
    ) -> MiningSummary:
        """Mine name patterns and build the statistics index.

        Per-file parse/analyze/transform failures are quarantined (one
        :class:`~repro.resilience.quarantine.ErrorRecord` each, counted
        in the summary) rather than aborting the run.

        With ``config.workers > 1`` the preparation and the miner's
        frequency/growth/prune passes fan out over a process pool on a
        deterministic per-repo shard plan; the mined patterns, supports,
        and order are bit-identical to a serial run.  Every phase is
        timed by a :class:`~repro.parallel.profiler.PhaseProfiler` whose
        rows land on ``MiningSummary.phase_timings``; the cycle
        collector's passes land on ``MiningSummary.gc``.

        With the cache on, every level after ``prepare`` is keyed on the
        prepared files' payload digests, not on their source bytes.  An
        ``index`` just built by :meth:`index_prepared` for ``corpus``
        spares the header reads and holds the quarantine records; its
        timings and collector counts open this run's.

        Once prepared, the corpus is moved out of the collector's reach
        with :func:`gc.freeze` (see "Heap and garbage collection" in
        DESIGN.md).
        """
        if index is None:
            self.profiler, self.gc_timer = PhaseProfiler(), GcTimer()
        with self.gc_timer:
            self._mine(corpus, index)
        self.summary.gc = self.gc_timer.to_json()
        return self.summary

    def _mine(self, corpus: Corpus, index: PreparedIndex | None) -> None:
        cfg = self.config
        cache = self.content_cache
        self.quarantine = Quarantine()
        profiler = self.profiler

        with profiler.phase("pairs", items=len(corpus.commits)):
            # Confusing-pair counts are a pure function of the commit
            # texts and language; the store pickles losslessly (its
            # Counter keeps insertion order), so a cached load feeds
            # the miner the exact pair order a fresh mine would.
            pairs_key = None
            pairs = None
            if cache is not None:
                pairs_key = self.pairs_key(corpus)
                pairs = cache.get("pairs", pairs_key)
            if pairs is None:
                pairs = mine_confusing_pairs(
                    ((c.before, c.after) for c in corpus.commits),
                    parse=lambda src: parse_source(
                        src, corpus.language
                    ).statements,
                )
                if cache is not None:
                    cache.put("pairs", pairs_key, pairs)
            self.pairs = pairs

        # A handed-in index already counted the files it prepared.
        items = 0 if index is not None else corpus.file_count()
        with profiler.phase("prepare", items=items):
            if cache is None:
                self.prepared = self.prepare(corpus, quarantine=self.quarantine)
            else:
                if index is None:
                    index = self._index_prepared(corpus, self.quarantine, None)
                self.quarantine = index.quarantine
                self.prepared, digests = self.load_prepared(index)
        # The prepared corpus lives as long as the namer and every later
        # phase only adds to the heap; each full collection would rescan
        # it.  It holds no reference cycles, so refcounting alone frees
        # it with the namer, frozen or not.  No collection first: the
        # walk leaves little cyclic garbage to pin.
        gc.freeze()
        statements = [ps.stmt for pf in self.prepared for ps in pf.statements]
        # The prepared corpus already holds every statement's extracted
        # paths; handing them to the miner spares it (and every shard
        # worker) the re-extraction, which dominates each pass.
        paths = [ps.paths for pf in self.prepared for ps in pf.statements]

        miner = PatternMiner(
            cfg.mining, confusing_pairs=self.pairs.pairs(cfg.min_pair_count)
        )
        with ShardExecutor(cfg.workers) as executor:
            # Shards are whole repositories, packed into contiguous
            # balanced spans — deterministic, and repo-aligned so shard
            # results never split a repo's statements.  With the cache
            # on, the plan aims for at least CACHE_SHARD_TARGET shards
            # so one changed file invalidates a small slice of the
            # corpus, not half of it.
            target = executor.shard_hint(len(statements))
            if cache is not None:
                target = max(target, CACHE_SHARD_TARGET)
            spans = pack_spans(
                spans_by_group(
                    (pf.repo, len(pf.statements)) for pf in self.prepared
                ),
                target,
            )
            shard_keys = None
            if cache is not None:
                # Keyed on what each file prepared to, not on its bytes
                # (an edit that prepares identically, like a comment,
                # stops at its prepare entry).
                shard_keys = shard_content_keys(
                    spans, [len(pf.statements) for pf in self.prepared], digests
                )
            with profiler.phase("intern", items=len(statements)):
                # One corpus-wide pass assigns every distinct name path
                # a dense first-occurrence ID; the miner's hot loops,
                # the final matcher, and (via share_context, from inside
                # mine) every shard worker then run in the ID domain.
                interner, id_lists = PathInterner.build(paths)
                interner.ensure_symbolic()
            consistency = miner.mine(
                statements,
                PatternKind.CONSISTENCY,
                paths=paths,
                spans=spans,
                profiler=profiler,
                executor=executor,
                cache=cache,
                shard_keys=shard_keys,
                interner=interner,
                id_lists=id_lists,
            )
            confusing = miner.mine(
                statements,
                PatternKind.CONFUSING_WORD,
                paths=paths,
                spans=spans,
                profiler=profiler,
                executor=executor,
                cache=cache,
                shard_keys=shard_keys,
                interner=interner,
                id_lists=id_lists,
            )
        patterns = consistency.patterns + confusing.patterns
        # Anchor each pattern at its rarest prefix as measured over the
        # corpus it was mined from — the stats pass and all subsequent
        # detection reuse this selectivity-tuned index, with the corpus
        # interner attached so every later scan reads ID tables.  The
        # frequency table's keys come in first-seen prefix order:
        # symbolic IDs are assigned in first-occurrence order of their
        # concrete paths.
        self.matcher = PatternMatcher(
            patterns,
            prefix_counts=prefix_frequencies_ids(id_lists, interner),
            interner=interner,
        )

        with profiler.phase("stats", items=len(statements)):
            self.stats, violation_counts = self._mine_stats(
                spans, shard_keys, id_lists
            )
            self.stats.bind(self.matcher)
        self.summary = self._summarize(
            consistency, confusing, corpus, violation_counts
        )
        self.summary.phase_timings = profiler.to_json()
        if cache is not None:
            self.summary.cache_stats = cache.stats_json()

    def _mine_stats(
        self, spans, shard_keys: list[str] | None, id_lists
    ) -> tuple[StatsIndex, tuple[int, int, int]]:
        """The corpus statistics index plus the summary's violation
        tallies — (statements, files, repos) with at least one
        violation — from one :func:`_match_file` scan per file, over
        the statements' corpus-interned ``id_lists``.

        Both are pure functions of (prepared files, mined patterns).
        With the cache on, each shard's part is cached under its
        content key — a one-file edit re-scans only that file's shard —
        and a corpus-level memo over the shard keys loads a zero-change
        warm run in one read.  Parts merge in corpus order, which keeps
        the counter ordering (and so the serialized artifact)
        byte-identical to one pass over the whole corpus.
        """
        files = []  # (prepared file, its statements' ID rows, offset)
        pos = 0
        for pf in self.prepared:
            stop = pos + len(pf.statements)
            files.append((pf, id_lists[pos:stop], pos))
            pos = stop
        cache = self.content_cache
        if cache is None:
            parts = [self._stats_shard(files)]
        else:
            stats_salt = fingerprint_of(
                pattern_fingerprint(p) for p in self.matcher.patterns
            )
            merged_key = ContentCache.key(fingerprint_of(shard_keys), stats_salt)
            merged = cache.get("stats", merged_key)
            if merged is not None:
                return merged
            parts = []
            for (start, stop), shard_key in zip(spans, shard_keys):
                entry_key = ContentCache.key(shard_key, stats_salt)
                part = cache.get("stats", entry_key)
                if part is None:
                    part = self._stats_shard(
                        [f for f in files if start <= f[2] < stop and f[1]]
                    )
                    cache.put("stats", entry_key, part)
                parts.append(part)
        stats = StatsIndex.merge(part[0] for part in parts)
        # Sets union across shards exactly as one corpus-wide tally
        # would (path collisions across repos dedupe the same way).
        violation_counts = (
            sum(part[1] for part in parts),
            len(set().union(*(part[2] for part in parts))),
            len(set().union(*(part[3] for part in parts))),
        )
        if cache is not None:
            cache.put("stats", merged_key, (stats, violation_counts))
        return stats, violation_counts

    def _stats_shard(self, files: list) -> tuple[StatsIndex, int, set, set]:
        """One shard's statistics plus its violation-tally partials:
        (index, violating statement count, violating file paths,
        violating repo names)."""
        matcher = self.matcher
        indexes = []
        stmts_with = 0
        files_with = set()
        repos_with = set()
        for pf, id_rows, _ in files:
            rows, index = _match_file(
                matcher,
                [
                    (ps.stmt, ps.paths, ids.tolist())
                    for ps, ids in zip(pf.statements, id_rows)
                ],
            )
            indexes.append(index)
            hits = sum(1 for row in rows if row)
            if hits:
                stmts_with += hits
                files_with.add(pf.path)
                repos_with.add(pf.repo)
        return StatsIndex.merge(indexes), stmts_with, files_with, repos_with

    def _summarize(
        self,
        consistency,
        confusing,
        corpus: Corpus,
        violation_counts: tuple[int, int, int],
    ) -> MiningSummary:
        assert self.matcher is not None
        stmts_with, files_with, repos_with = violation_counts
        return MiningSummary(
            num_patterns=len(self.matcher.patterns),
            num_consistency=len(consistency.patterns),
            num_confusing=len(confusing.patterns),
            num_confusing_pairs=len(self.pairs),
            statements_with_violation=stmts_with,
            files_with_violation=files_with,
            repos_with_violation=repos_with,
            total_statements=sum(len(pf.statements) for pf in self.prepared),
            total_files=len(self.prepared),
            total_repos=len(corpus.repositories),
            quarantined_files=len(self.quarantine),
        )

    # ------------------------------------------------------------------
    # Learning step (ii): small-supervision classifier
    # ------------------------------------------------------------------

    def featurize(
        self, violation: Violation, paths=None, local_stats: StatsIndex | None = None
    ) -> np.ndarray:
        """Feature vector for a violation (Table 1).

        ``local_stats`` supplies file/repo-level counters for statements
        from files outside the mining corpus.
        """
        if self.stats is None:
            raise RuntimeError("call mine() before featurize()")
        if paths is None:
            paths = self._paths_of(violation)
        return extract_features(
            violation, paths, self.stats, self.pairs, local_stats=local_stats
        )

    def train(
        self,
        violations: list[Violation],
        labels: list[int],
        make_classifier=None,
    ) -> None:
        """Fit the defect classifier on labeled violations.

        ``labels`` are 1 for a true naming issue, 0 for a false
        positive; the paper labels 120 violations per language.
        """
        with self.profiler.phase("train", items=len(violations)), self.gc_timer:
            X = np.vstack(
                extract_features_batch(
                    violations,
                    [self._paths_of(v) for v in violations],
                    self.stats,
                    self.pairs,
                )
            )
            y = np.asarray(labels)
            classifier = make_classifier() if make_classifier else LinearSVM()
            self.classifier = ClassifierPipeline(
                classifier, n_components=self.config.pca_components
            )
            self.classifier.fit(X, y)
        self.summary.phase_timings = self.profiler.to_json()
        self.summary.gc = self.gc_timer.to_json()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def all_violations(self) -> list[Violation]:
        """Every pattern violation in the mined corpus (the pool the
        paper samples its 300 inspected violations from)."""
        if self.matcher is None:
            raise RuntimeError("call mine() first")
        found: list[Violation] = []
        for pf in self.prepared:
            for ps in pf.statements:
                found.extend(self.matcher.violations(ps.stmt, ps.paths))
        return _dedup_violations(found)

    def violations_in(self, prepared: PreparedFile) -> list[Violation]:
        if self.matcher is None:
            raise RuntimeError("call mine() first")
        found: list[Violation] = []
        for ps in prepared.statements:
            found.extend(self.matcher.violations(ps.stmt, ps.paths))
        return _dedup_violations(found)

    def _reports_from_features(
        self,
        violation_groups: list[list[Violation]],
        featurized: list[list[np.ndarray]],
    ) -> list[list[Report]]:
        """One classifier pass over a whole batch of featurized groups:
        every feature vector is stacked into a single matrix and scored
        with one ``decision_function`` call."""
        flat = [f for group in featurized for f in group]
        use_clf = self.config.use_classifier and self.classifier is not None
        if flat and use_clf:
            scores = self.classifier.decision_function(np.vstack(flat))
        else:
            scores = np.zeros(len(flat))

        reports: list[list[Report]] = []
        cursor = 0
        for group, features in zip(violation_groups, featurized):
            rows: list[Report] = []
            for violation, feats in zip(group, features):
                score = float(scores[cursor])
                cursor += 1
                if use_clf and score < 0.0:
                    continue
                rows.append(Report(violation=violation, features=feats, score=score))
            reports.append(rows)
        return reports

    def classify(
        self,
        violations: list[Violation],
        local_stats: StatsIndex | None = None,
    ) -> list[Report]:
        """Run the defect classifier over violations; with the
        classifier disabled (w/o C) every violation becomes a report."""
        fault_check(
            "core.featurize",
            key=violations[0].statement.file_path if violations else "<empty>",
        )
        features = extract_features_batch(
            violations,
            [self._paths_of(v) for v in violations],
            self.stats,
            self.pairs,
            local_stats=local_stats,
        )
        return self._reports_from_features([violations], [features])[0]

    def detect_many(
        self,
        files: list[PreparedFile],
        quarantine: Quarantine | None = None,
        *,
        workers: int | None = None,
        executor: ShardExecutor | None = None,
        profiler: PhaseProfiler | None = None,
    ) -> list[list[Report]]:
        """Full inference on a batch of prepared files.

        Pattern matching and the local statistics index stay per file,
        but featurization and classification are shared across the batch
        (one classifier pass) — the hot path for the long-running
        analysis service in :mod:`repro.service`.

        The per-file match + featurize work runs as shard tasks on an
        ``executor`` (which takes precedence and lets a long-lived
        caller keep one warm pool across batches) or on one built from
        ``workers`` (default 1): one inline task when serial, a fan-out
        over the pool otherwise.  Files come back in input order and
        reports are byte-identical for any worker count, including
        which quarantine records are captured under an armed fault
        plan.  Classification stays in the calling process: one
        stacked matrix, one ``decision_function`` pass per batch.

        ``profiler`` (default: ``self.detect_profiler``) accumulates
        ``extract`` / ``match`` / ``featurize`` / ``classify`` phase
        rows; the first three are summed task seconds, mirroring the
        miner's ``prune_shard`` convention.

        With a ``quarantine``, per-file matching/featurization failures
        are captured as error records (the file contributes no reports)
        instead of failing the whole batch.
        """
        if self.matcher is None or self.stats is None:
            raise RuntimeError("call mine() first")
        if not files:
            return []
        profiler = self.detect_profiler if profiler is None else profiler
        own_executor = executor is None
        if executor is None:
            executor = ShardExecutor(workers or 1)
        try:
            groups, featurized = self._detect_files(
                files, quarantine, executor, profiler
            )
            with profiler.phase(
                "classify", items=sum(len(f) for f in featurized)
            ):
                return self._reports_from_features(groups, featurized)
        finally:
            if own_executor:
                executor.close()

    def _detect_files(
        self,
        files: list[PreparedFile],
        quarantine: Quarantine | None,
        executor: ShardExecutor,
        profiler: PhaseProfiler,
    ) -> tuple[list[list[Violation]], list[list[np.ndarray]]]:
        """Map :func:`_detect_shard` (per-file match + featurize) over
        contiguous spans of the batch on ``executor``: one inline task
        when it is serial, a fan-out over its pool otherwise.

        The matcher / stats / confusing-pair context is published once
        per **pool** via ``share_context`` (fork-inherited, or shipped
        through the pool initializer on spawn) and reused across
        batches; tasks carry only the tiny handle.  If the pool already
        exists without the context, the raw value rides with each task,
        so results never depend on timing.  Per-batch files ship as
        shared slices when the pool has not forked yet, real slices
        after.  Tasks return picklable per-file entries — violations,
        feature vectors, and optional error records — which are
        reassembled in input order and replayed into the quarantine in
        one fixed order: all detect-stage records first, then all
        featurize-stage records.

        The armed fault plan travels with every task and each worker
        syncs its own injector to it (:func:`sync_armed_plan`), so
        seeded per-(site, key) decisions are identical in-process and
        out; only ``max_trips`` budgets, which are inherently
        per-process, are out of scope.
        """
        ctx = self._detect_ctx
        if ctx is None or ctx[0] is not self.matcher:
            ctx = self._detect_ctx = (
                self.matcher,
                self.stats,
                self.pairs,
                self.config.mining.max_paths_per_statement,
            )
        # Publish the model context before the pool exists so every
        # later batch reuses the per-pool copy instead of shipping it.
        ctx_payload = executor.share_context(ctx)
        # One task per ~DETECT_FILES_PER_TASK files: the shard hint
        # bounds the plan by pool width (one span when serial), the
        # batching floor by per-task overhead; spans stay contiguous
        # and in input order, so the merged results (and quarantine
        # replay order) are identical for any plan.
        max_tasks = -(-len(files) // DETECT_FILES_PER_TASK)
        spans = even_spans(
            len(files), min(executor.shard_hint(len(files)), max_tasks)
        )
        file_payloads = executor.shard_payloads(files, spans)
        plan_json = armed_plan_json()
        capture = quarantine is not None
        shard_results = executor.map(
            _detect_shard,
            [
                (ctx_payload, payload, capture, plan_json)
                for payload in file_payloads
            ],
        )
        entries, extract_seconds, match_seconds, featurize_seconds = (
            merge_timed_shards(shard_results)
        )
        groups = [group for group, _, _, _ in entries]
        featurized = [feats for _, feats, _, _ in entries]
        profiler.record("extract", extract_seconds, items=len(files))
        profiler.record("match", match_seconds, items=len(files))
        profiler.record(
            "featurize",
            featurize_seconds,
            items=sum(len(g) for g in groups),
        )
        if quarantine is not None:
            for _, _, detect_record, _ in entries:
                if detect_record is not None:
                    quarantine.add(detect_record)
            for _, _, _, featurize_record in entries:
                if featurize_record is not None:
                    quarantine.add(featurize_record)
        return groups, featurized

    def warm_detect(self, executor: ShardExecutor) -> None:
        """Pre-pay parallel detection start-up on ``executor``.

        Registers the matcher/stats context for fork sharing and forks
        the pool immediately, so the first ``detect_many`` batch on this
        executor ships no model state and creates no processes.  A
        no-op for serial executors or an unmined namer.
        """
        if not executor.parallel or self.matcher is None:
            return
        ctx = (
            self.matcher,
            self.stats,
            self.pairs,
            self.config.mining.max_paths_per_statement,
        )
        self._detect_ctx = ctx
        executor.share_context(ctx)
        executor.warm()

    def detect(self, prepared: PreparedFile) -> list[Report]:
        """Full inference on one prepared file.

        The file's own statements feed a local statistics index so the
        file/repo-level features are meaningful even when the file was
        not part of the mining corpus.
        """
        return self.detect_many([prepared])[0]

    def analyze(
        self,
        sources: list[SourceFile],
        *,
        repo: str | list[str],
        executor: ShardExecutor | None = None,
    ) -> list[tuple[list[Report], ErrorRecord | None]]:
        """The inference half of Figure 1 on raw source files: each file
        is prepared under :meth:`prepare_settings` (the transform its
        patterns were mined through), then every prepared file goes
        through one :meth:`detect_many` pass on ``executor`` (serial
        without one).  ``repo`` is one repository name for all sources
        or one per source.

        Returns one ``(reports, error)`` per source, in input order:
        ``error`` is the file's prepare record, or the detect/featurize
        record captured under its path when it reports nothing.
        """
        repos = [repo] * len(sources) if isinstance(repo, str) else repo
        settings = self.prepare_settings()
        outcomes = [prepare_one(s, name, settings) for s, name in zip(sources, repos)]
        quarantine = Quarantine()
        groups = iter(
            self.detect_many(
                [pf for pf, _ in outcomes if pf is not None],
                quarantine=quarantine,
                executor=executor,
            )
        )
        detect_errors = {record.path: record for record in quarantine.records}
        results = []
        for prepared, error in outcomes:
            reports = [] if prepared is None else next(groups)
            if prepared is not None and not reports:
                error = detect_errors.get(prepared.path)
            results.append((reports, error))
        return results

    def detect_many_rows(
        self,
        files: list[PreparedFile],
        quarantine: Quarantine | None = None,
        *,
        workers: int | None = None,
        executor: ShardExecutor | None = None,
    ) -> list[list[dict]]:
        """:meth:`detect_many`, serialized: one list of plain-JSON wire
        rows per file (see :func:`repro.core.reports.reports_to_rows`) —
        the rows the service and the repository index serve, and the
        bytes the golden digests pin."""
        from repro.core.reports import reports_to_rows

        groups = self.detect_many(
            files, quarantine=quarantine, workers=workers, executor=executor
        )
        return [reports_to_rows(group) for group in groups]

    # ------------------------------------------------------------------

    def _paths_of(self, violation: Violation):
        from repro.core.namepath import extract_name_paths

        return extract_name_paths(
            violation.statement, max_paths=self.config.mining.max_paths_per_statement
        )


def _dedup_violations(violations: list[Violation]) -> list[Violation]:
    """Collapse violations that propose the same fix at the same spot.

    Subset-condition mining makes several overlapping patterns flag one
    offending subtoken; a user sees that as a single report.  The most
    specific surviving pattern (largest condition, then highest
    support) represents the group.
    """
    best: dict[tuple, Violation] = {}
    order: list[tuple] = []
    for v in violations:
        key = (
            v.statement.file_path,
            v.statement.line,
            v.statement.structural_key(),
            v.deduction_path.prefix,
            v.observed,
            v.suggested,
        )
        current = best.get(key)
        if current is None:
            best[key] = v
            order.append(key)
            continue
        better = (len(v.pattern.condition), v.pattern.support) > (
            len(current.pattern.condition),
            current.pattern.support,
        )
        if better:
            best[key] = v
    return [best[k] for k in order]


def _match_file(matcher, entries):
    """One file's match pass: per-statement violation rows plus the
    file's statistics index, from one
    :meth:`~repro.mining.matcher.PatternMatcher.scan_entries` scan of
    its ``(stmt, paths, ids)`` entries.  Detection dedups the rows into
    reports; the mining stats pass merges the indexes and tallies the
    rows."""
    viol_rows, aggregates = matcher.scan_entries(entries)
    return viol_rows, StatsIndex.build(entries, aggregates).bind(matcher)


def _detect_shard(task):
    """Shard task for one detection span (module-level for pickling).

    Runs the per-file extract + match + featurize stages for a
    contiguous slice of the batch and returns one picklable entry per
    file — ``(violations, feature_vectors, detect_record,
    featurize_record)`` — plus the seconds of each stage.  ``extract``
    resolves each statement's paths to interned IDs, ``match`` scans
    them through the automaton for violations and the file-local
    statistics index.  The featurize fault site fires once per file,
    empty groups included (key ``"<empty>"``), so fault decisions do
    not depend on whether a file lost its violations to a detect-stage
    failure.  Classification is deliberately absent: the caller scores
    the whole batch in one pass.
    """
    ctx_payload, files_payload, capture, plan_json = task
    sync_armed_plan(plan_json)
    matcher, stats, pairs, max_paths = resolve_context(ctx_payload)
    # A pickled context arrives unbound (see StatsIndex.__getstate__).
    stats.bind(matcher)
    files = resolve_shard(files_payload)
    entries = []
    extract_seconds = 0.0
    match_seconds = 0.0
    featurize_seconds = 0.0
    for pf in files:
        started = time.perf_counter()
        detect_record = None
        try:
            fault_check("core.detect", key=pf.path)
            stmt_entries = [
                (ps.stmt, ps.paths, matcher.prepare_ids(ps.paths))
                for ps in pf.statements
            ]
            extract_seconds += time.perf_counter() - started
            started = time.perf_counter()
            rows, local = _match_file(matcher, stmt_entries)
            group = _dedup_violations([v for row in rows for v in row])
        except Exception as exc:
            if not capture:
                raise
            detect_record = ErrorRecord.capture(
                pf.path, "detect", exc, repo=pf.repo
            )
            group, local = [], None
        match_seconds += time.perf_counter() - started

        started = time.perf_counter()
        featurize_record = None
        path = group[0].statement.file_path if group else "<empty>"
        try:
            fault_check("core.featurize", key=path)
            feats = extract_features_batch(
                group,
                [
                    extract_name_paths(v.statement, max_paths=max_paths)
                    for v in group
                ],
                stats,
                pairs,
                local_stats=local,
            )
        except Exception as exc:
            if not capture:
                raise
            featurize_record = ErrorRecord.capture(path, "featurize", exc)
            feats = []
        featurize_seconds += time.perf_counter() - started
        entries.append((group, feats, detect_record, featurize_record))
    return entries, extract_seconds, match_seconds, featurize_seconds
