"""End-to-end tests for the incremental mining pipeline.

The contract under test, in order of importance:

1. **Bit identity** — mined patterns and saved artifact bytes are
   identical with the cache off, cold, or warm.
2. **Incrementality** — a warm re-mine recomputes nothing when nothing
   changed, re-prepares only an edited file, and re-mines only the
   shards whose prepared content changed; a whole ``repro mine`` run
   over an unchanged prepared corpus replays its outputs from the
   ``train`` level.
3. **Invalidation** — content edits, renames with identical bytes,
   config changes, and edits to any ``repro`` module all produce
   different keys (stale entries can never answer).
4. **Resilience** — a damaged or fault-injected cache falls back to a
   cold computation with identical results.
"""

import copy
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.namer import Namer, NamerConfig
from repro.core.persistence import namer_to_document
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.miner import MiningConfig
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.resilience.pipeline import run_mine_pipeline

pytestmark = pytest.mark.cache

MINING = MiningConfig(min_pattern_support=8, min_path_frequency=4)


@pytest.fixture(scope="module")
def corpus():
    return generate_python_corpus(
        GeneratorConfig(num_repos=8, issue_rate=0.12, seed=7)
    )


def mine(corpus, cache_dir=None, *, mining=MINING, workers=1):
    namer = Namer(
        NamerConfig(
            mining=mining,
            workers=workers,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        )
    )
    namer.mine(corpus)
    return namer


def doc_bytes(namer) -> bytes:
    return json.dumps(namer_to_document(namer), sort_keys=True).encode()


def level(namer, name) -> dict:
    return namer.summary.cache_stats.get(name, {})


def phase_names(namer) -> list[str]:
    return [row["phase"] for row in namer.summary.phase_timings]


def edit_module(monkeypatch, module):
    """Key the cache as a build whose ``module`` (package-relative path)
    differs from this one would: every key takes a new code digest."""
    from repro.cache import contentcache

    edited = hashlib.sha256(
        f"{contentcache.code_digest()}|edited {module}".encode()
    ).hexdigest()
    monkeypatch.setattr(contentcache, "code_digest", lambda: edited)


# ----------------------------------------------------------------------
# Bit identity and zero-change warm runs
# ----------------------------------------------------------------------


class TestWarmIdentity:
    def test_cold_and_warm_match_uncached_exactly(self, corpus, tmp_path):
        baseline = mine(corpus)
        cold = mine(corpus, tmp_path / "c")
        warm = mine(corpus, tmp_path / "c")
        assert doc_bytes(cold) == doc_bytes(baseline)
        assert doc_bytes(warm) == doc_bytes(baseline)
        assert (
            cold.matcher.patterns
            == baseline.matcher.patterns
            == warm.matcher.patterns
        )

    def test_cold_run_stores_every_level(self, corpus, tmp_path):
        cold = mine(corpus, tmp_path / "c")
        stats = cold.summary.cache_stats
        for name in (
            "prepare", "pairs", "frequency", "growth", "prune", "stats", "mine",
        ):
            assert stats[name]["stores"] > 0, name
            assert stats[name]["hits"] == 0, name

    def test_warm_run_recomputes_nothing(self, corpus, tmp_path):
        mine(corpus, tmp_path / "c")
        warm = mine(corpus, tmp_path / "c")
        for name, stats in warm.summary.cache_stats.items():
            assert stats["misses"] == 0, name
            assert stats["stores"] == 0, name
            assert stats["hits"] > 0, name
        # The whole-kind memo answers both kinds, so no mining pass —
        # and in particular no prune_shard row (the incrementality
        # probe: that row counts *recomputed* shards) — ever runs.
        assert level(warm, "mine")["hits"] == 2
        for name in ("frequency", "growth", "prune"):
            assert name not in warm.summary.cache_stats, name
            assert name not in phase_names(warm), name
        assert "prune_shard" not in phase_names(warm)

    def test_uncached_namer_reports_no_cache_stats(self, corpus):
        assert mine(corpus).summary.cache_stats == {}

    def test_worker_count_does_not_invalidate(self, corpus, tmp_path):
        """Shard plans aim for CACHE_SHARD_TARGET regardless of the
        worker count, so re-mining warm with different parallelism
        still hits every shard entry."""
        cold = mine(corpus, tmp_path / "c", workers=1)
        warm = mine(corpus, tmp_path / "c", workers=4)
        assert doc_bytes(warm) == doc_bytes(cold)
        for name, stats in warm.summary.cache_stats.items():
            assert stats["misses"] == 0, name


# ----------------------------------------------------------------------
# One-file edits recompute one shard
# ----------------------------------------------------------------------


class TestIncrementalEdit:
    def test_comment_edit_stops_at_its_prepared_file(self, corpus, tmp_path):
        """Early cutoff: every level after ``prepare`` is keyed on the
        prepared payload's digest, and a comment prepares identically,
        so the edit costs one re-prepare and every memo still hits."""
        cold = mine(corpus, tmp_path / "c")
        edited = copy.deepcopy(corpus)
        edited.repositories[0].files[0].source += "\n# cache probe\n"
        warm = mine(edited, tmp_path / "c")

        nfiles = sum(len(r.files) for r in corpus.repositories)
        # Exactly the edited file re-prepares (and is re-stored under
        # its new source key) ...
        assert level(warm, "prepare")["misses"] == 1
        assert level(warm, "prepare")["hits"] == nfiles - 1
        assert level(warm, "prepare")["stores"] == 1
        # ... to the same payload, so both whole-kind memos and the
        # merged statistics index answer: nothing is re-mined.
        assert level(warm, "mine")["hits"] == 2
        assert level(warm, "stats")["hits"] == 1
        assert level(warm, "stats")["misses"] == 0
        for name in ("frequency", "growth", "prune"):
            assert name not in warm.summary.cache_stats, name
        assert "prune_shard" not in phase_names(warm)
        assert level(warm, "pairs")["hits"] == 1
        assert doc_bytes(warm) == doc_bytes(cold)

    def test_code_edit_recomputes_only_that_files_shard(self, corpus, tmp_path):
        """An edit that changes what a file prepares to re-mines exactly
        that file's shard.  A leading blank line moves every statement
        of the file (its line numbers are in the prepared payload) but
        changes no name path, so the global frequent-path and pattern
        sets stay, and every later pass re-runs that shard alone."""
        cold = mine(corpus, tmp_path / "c")
        edited = copy.deepcopy(corpus)
        source = edited.repositories[0].files[0]
        source.source = "\n" + source.source
        warm = mine(edited, tmp_path / "c")

        total_shards = level(cold, "frequency")["stores"]
        assert total_shards >= 2
        assert level(warm, "prepare")["misses"] == 1
        # (The second pattern kind reuses the in-process frequency
        # memo, so the count is per-run, not per-kind.)
        assert level(warm, "frequency")["misses"] == 1
        assert level(warm, "frequency")["hits"] == total_shards - 1
        # Growth and prune re-run only the edited shard, once per
        # pattern kind.
        assert level(warm, "growth")["misses"] == 2
        assert level(warm, "prune")["misses"] == 2
        # The statistics index re-counts only the edited shard too (the
        # extra miss/store is the corpus-level merged-index memo).
        assert level(cold, "stats")["stores"] == total_shards + 1
        assert level(warm, "stats")["misses"] == 2
        assert level(warm, "stats")["hits"] == total_shards - 1
        # The prepared content changed, so both whole-kind memos miss
        # (and are re-stored for the next zero-change run).
        assert level(warm, "mine")["misses"] == 2
        assert level(warm, "mine")["stores"] == 2
        assert doc_bytes(warm) == doc_bytes(mine(edited))

    def test_rename_with_identical_bytes_invalidates(self, corpus, tmp_path):
        """Statement provenance includes the file path, so a rename
        must re-prepare the file even though its bytes are unchanged."""
        mine(corpus, tmp_path / "c")
        renamed = copy.deepcopy(corpus)
        renamed.repositories[0].files[0].path += ".renamed.py"
        warm = mine(renamed, tmp_path / "c")
        assert level(warm, "prepare")["misses"] == 1
        assert warm.summary.num_patterns > 0


# ----------------------------------------------------------------------
# Invalidation: config and code
# ----------------------------------------------------------------------


class TestInvalidation:
    def test_mining_config_change_invalidates_mining_not_prepare(
        self, corpus, tmp_path
    ):
        mine(corpus, tmp_path / "c")
        changed = MiningConfig(
            min_pattern_support=MINING.min_pattern_support + 1,
            min_path_frequency=MINING.min_path_frequency,
        )
        warm = mine(corpus, tmp_path / "c", mining=changed)
        # Preparation doesn't depend on mining thresholds: all hits.
        assert level(warm, "prepare")["misses"] == 0
        assert level(warm, "prepare")["hits"] > 0
        # Every mining-level entry is salted with the config: all miss.
        assert level(warm, "frequency")["hits"] == 0
        assert level(warm, "frequency")["misses"] > 0
        # And the run must match a from-scratch mine at those settings.
        assert doc_bytes(warm) == doc_bytes(mine(corpus, mining=changed))

    def test_commit_change_invalidates_confusing_kind_only(
        self, corpus, tmp_path
    ):
        """The confusing-pair list rides in the confusing-word kind's
        salt, so a commit-history change re-mines that kind while the
        consistency memo still answers — and the result matches a
        from-scratch mine over the changed corpus."""
        mine(corpus, tmp_path / "c")
        edited = copy.deepcopy(corpus)
        del edited.commits[len(edited.commits) // 2 :]
        warm = mine(edited, tmp_path / "c")
        assert level(warm, "pairs")["misses"] == 1
        assert level(warm, "mine")["hits"] == 1  # consistency
        assert level(warm, "mine")["misses"] == 1  # confusing words
        assert doc_bytes(warm) == doc_bytes(mine(edited))

    def test_pipeline_version_bump_misses_every_mining_level(
        self, corpus, tmp_path, monkeypatch
    ):
        """An edit to mining code: the files re-prepare to the same
        payloads, so the code digest must reach the ``mine`` and
        ``stats`` memos through the shard keys, or they would answer
        with the old code's results."""
        mine(corpus, tmp_path / "c")
        edit_module(monkeypatch, "mining/automaton.py")
        warm = mine(corpus, tmp_path / "c")
        for name in ("prepare", "frequency", "growth", "prune", "stats", "mine"):
            assert level(warm, name)["hits"] == 0, name
            assert level(warm, name)["misses"] > 0, name

    def test_schema_bump_orphans_every_entry(self, corpus, tmp_path, monkeypatch):
        mine(corpus, tmp_path / "c")
        edit_module(monkeypatch, "cache/contentcache.py")
        warm = mine(corpus, tmp_path / "c")
        for name, stats in warm.summary.cache_stats.items():
            assert stats["hits"] == 0, name
            # Old entries hash to different keys — unreachable, never
            # misread: these are plain misses, not corruption.
            assert stats["corrupt"] == 0, name


# ----------------------------------------------------------------------
# Damage and fault injection fall back cold
# ----------------------------------------------------------------------


class TestResilience:
    def test_injected_load_faults_fall_back_to_cold_compute(
        self, corpus, tmp_path
    ):
        cold = mine(corpus, tmp_path / "c")
        plan = FaultPlan([FaultSpec(site="cache.load", rate=1.0)], seed=3)
        with FAULTS.armed(plan):
            warm = mine(corpus, tmp_path / "c")
        assert doc_bytes(warm) == doc_bytes(cold)
        total_corrupt = sum(
            stats["corrupt"] for stats in warm.summary.cache_stats.values()
        )
        assert total_corrupt > 0

    def test_truncated_entries_fall_back_to_cold_compute(self, corpus, tmp_path):
        cold = mine(corpus, tmp_path / "c")
        for entry in (tmp_path / "c").rglob("*.bin"):
            entry.write_bytes(entry.read_bytes()[:-10])
        warm = mine(corpus, tmp_path / "c")
        assert doc_bytes(warm) == doc_bytes(cold)
        total_corrupt = sum(
            stats["corrupt"] for stats in warm.summary.cache_stats.values()
        )
        assert total_corrupt > 0


# ----------------------------------------------------------------------
# The train level: a finished run's outputs, replayed
# ----------------------------------------------------------------------


PIPELINE = dict(
    corpus_settings=("python", "incremental-test-corpus"),
    training_size=40,
    seed=7,
)


def run_pipeline(corpus, out_dir, cache_dir=None, **changes):
    """One ``repro mine``-shaped pipeline run; returns the result and
    the bytes of the artifact and the frozen blob it wrote."""
    kwargs = {**PIPELINE, **changes}
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "namer.json"
    result = run_mine_pipeline(
        corpus_factory=lambda: copy.deepcopy(corpus),
        namer_config=NamerConfig(
            mining=MINING,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        ),
        out=out,
        **kwargs,
    )
    return result, (
        out.read_bytes(), out.with_name(out.name + ".frozen").read_bytes()
    )


def comment_edited(corpus):
    edited = copy.deepcopy(corpus)
    edited.repositories[0].files[0].source += "\n# cache probe\n"
    return edited


def code_edited(corpus):
    edited = copy.deepcopy(corpus)
    source = edited.repositories[0].files[0]
    source.source = source.source.replace("fullpath", "fullname")
    return edited


@pytest.fixture(scope="module")
def uncached_outputs(corpus, tmp_path_factory):
    """The artifact and blob bytes of a ``--no-cache`` run."""
    return run_pipeline(corpus, tmp_path_factory.mktemp("nocache"))[1]


@pytest.fixture(scope="module")
def filled_cache(corpus, tmp_path_factory, uncached_outputs):
    """A cache directory one pipeline run filled (copied per test)."""
    root = tmp_path_factory.mktemp("filled")
    result, outputs = run_pipeline(corpus, root, root / "cache")
    assert result.replayed_from is None
    assert result.cache_stats["train"]["stores"] == 1
    assert outputs == uncached_outputs
    return root / "cache"


@pytest.fixture()
def cache_dir(filled_cache, tmp_path):
    return shutil.copytree(filled_cache, tmp_path / "cache")


class TestTrainReplay:
    def test_zero_edit_rerun_replays_without_decoding(
        self, corpus, tmp_path, cache_dir, uncached_outputs
    ):
        messages = []
        result, outputs = run_pipeline(
            corpus, tmp_path, cache_dir, log=messages.append
        )
        assert outputs == uncached_outputs
        assert result.replayed_from is not None
        assert result.summary is None and result.trained_on is None
        stats = result.cache_stats
        assert stats["train"]["hits"] == 1
        assert stats["prepare"]["hits"] == corpus.file_count()
        assert stats["prepare"]["decoded_bytes"] == 0
        for name in ("mine", "stats", "frequency", "growth", "prune", "pairs"):
            assert name not in stats, name
        assert any(
            f"train/{result.replayed_from[:16]}" in message for message in messages
        )

    def test_comment_edit_costs_one_prepare_then_replays(
        self, corpus, tmp_path, cache_dir, uncached_outputs
    ):
        result, outputs = run_pipeline(comment_edited(corpus), tmp_path, cache_dir)
        assert outputs == uncached_outputs
        assert result.replayed_from is not None
        assert result.cache_stats["prepare"]["misses"] == 1
        assert result.cache_stats["prepare"]["decoded_bytes"] == 0

    def test_code_edit_misses_and_matches_a_cold_mine(
        self, corpus, tmp_path, cache_dir
    ):
        edited = code_edited(corpus)
        result, outputs = run_pipeline(edited, tmp_path, cache_dir)
        assert result.replayed_from is None
        assert result.cache_stats["train"]["misses"] == 1
        assert result.cache_stats["prepare"]["misses"] == 1
        # Only the hits are decoded: the edited file was prepared once.
        assert result.cache_stats["prepare"]["decoded_bytes"] > 0
        assert outputs == run_pipeline(edited, tmp_path / "cold")[1]
        # The run's prepare phase covers the indexing the pipeline did
        # before mining (the first call) and the decode (the second).
        (prepare,) = [
            row for row in result.summary.phase_timings if row["phase"] == "prepare"
        ]
        assert prepare["items"] == corpus.file_count() and prepare["calls"] == 2
        # The miss stored the edited run's entry: it replays next time.
        again, replayed = run_pipeline(edited, tmp_path, cache_dir)
        assert again.replayed_from is not None and replayed == outputs

    @pytest.mark.parametrize(
        "changes",
        [
            {"training_size": 30},
            {"seed": 8},
            {"train": False},
        ],
        ids=["training_size", "seed", "train"],
    )
    def test_run_settings_miss_the_train_level(
        self, corpus, tmp_path, cache_dir, changes
    ):
        result, _ = run_pipeline(corpus, tmp_path, cache_dir, **changes)
        assert result.replayed_from is None
        assert result.cache_stats["train"]["misses"] == 1
        assert result.cache_stats["train"]["hits"] == 0

    @pytest.mark.parametrize(
        "module",
        ["mining/automaton.py", "core/persistence.py", "resilience/pipeline.py"],
        # named for the retired constant such an edit once had to bump
        ids=["PIPELINE_VERSION", "SCHEMA_VERSION", "TRAIN_VERSION"],
    )
    def test_code_version_bump_misses_the_train_level(
        self, corpus, tmp_path, cache_dir, monkeypatch, module
    ):
        """A replay writes the bytes the storing build made; a build
        whose mining, artifact or training code differs must mine and
        train afresh."""
        edit_module(monkeypatch, module)
        result, _ = run_pipeline(corpus, tmp_path, cache_dir)
        assert result.replayed_from is None
        assert result.cache_stats["train"]["misses"] == 1
        assert result.cache_stats["train"]["hits"] == 0
        assert result.cache_stats["mine"]["hits"] == 0
        assert result.cache_stats["stats"]["hits"] == 0

    def test_ground_truth_change_misses_the_train_level(
        self, corpus, tmp_path, cache_dir
    ):
        edited = copy.deepcopy(corpus)
        first = edited.ground_truth[0]
        edited.ground_truth[0] = dataclasses.replace(first, line=first.line + 1)
        result, outputs = run_pipeline(edited, tmp_path, cache_dir)
        assert result.replayed_from is None
        assert result.cache_stats["train"]["misses"] == 1
        assert outputs == run_pipeline(edited, tmp_path / "cold")[1]

    def test_replay_reports_the_quarantined_files(self, corpus, tmp_path):
        """Files that fail to prepare are never cached: a replay
        re-prepares (and re-quarantines) them, then replays."""
        plan = FaultPlan([FaultSpec(site="corpus.prepare_file", rate=0.2)], seed=3)
        messages = []
        with FAULTS.armed(plan):
            uncached = run_pipeline(corpus, tmp_path / "nocache")[1]
            first, outputs = run_pipeline(corpus, tmp_path, tmp_path / "cache")
            again, replayed = run_pipeline(
                corpus, tmp_path, tmp_path / "cache", log=messages.append
            )
        assert first.quarantined_files > 0
        assert again.replayed_from is not None
        assert again.quarantined_files == first.quarantined_files
        assert again.cache_stats["prepare"]["misses"] == first.quarantined_files
        assert replayed == outputs == uncached
        assert any("quarantined" in message for message in messages)

    @pytest.mark.parametrize("damage", ["truncate", "flip", "fault"])
    def test_damaged_train_entry_falls_back_to_the_full_run(
        self, corpus, tmp_path, cache_dir, uncached_outputs, damage
    ):
        (entry,) = (cache_dir / "train").glob("*.bin")
        data = bytearray(entry.read_bytes())
        if damage == "truncate":
            entry.write_bytes(data[: len(data) // 2])
        elif damage == "flip":
            data[-100] ^= 0x01
            entry.write_bytes(bytes(data))
        plan = FaultPlan(
            [FaultSpec(site="cache.load", match="train:")]
            if damage == "fault"
            else [],
            seed=1,
        )
        with FAULTS.armed(plan):
            result, outputs = run_pipeline(corpus, tmp_path, cache_dir)
        assert result.replayed_from is None
        assert result.cache_stats["train"]["corrupt"] == 1
        assert outputs == uncached_outputs


# ----------------------------------------------------------------------
# Code edits: every key hashes the package's source
# ----------------------------------------------------------------------

#: ``repro mine`` in a fresh interpreter, printing the run's replay key
#: and per-level cache counters as its last line
MINE = """
import json, sys
import repro.resilience.pipeline as pipeline
from repro.__main__ import main

run = pipeline.run_mine_pipeline

def reporting(**kwargs):
    result = run(**kwargs)
    print(json.dumps([result.replayed_from, result.cache_stats]))
    return result

pipeline.run_mine_pipeline = reporting
sys.exit(main(sys.argv[1:]))
"""


def test_a_module_edit_misses_every_level_then_replays(tmp_path):
    """Appending a comment to one module of an installed copy of the
    package: the next mine replays nothing and hits no level (every key
    hashes the code), yet writes the same bytes; the mine after that
    replays its own run."""
    package = tmp_path / "src" / "repro"
    shutil.copytree(
        Path(repro.__file__).parent,
        package,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    cache = tmp_path / "cache"

    def run_mine(name):
        out = tmp_path / name / "namer.json"
        out.parent.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", MINE, "mine", "--repos", "4",
             "--workers", "1", "--out", str(out), "--cache-dir", str(cache)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        replayed, levels = json.loads(done.stdout.splitlines()[-1])
        outputs = (
            out.read_bytes(),
            out.with_name(out.name + ".frozen").read_bytes(),
        )
        return replayed, levels, outputs

    replayed, _, filled = run_mine("fill")
    assert replayed is None
    with open(package / "mining" / "automaton.py", "a") as module:
        module.write("# cache probe\n")
    replayed, levels, outputs = run_mine("edited")
    assert replayed is None
    assert set(levels) >= {"prepare", "frequency", "stats", "mine", "train"}
    for name, stats in levels.items():
        assert stats["hits"] == 0 and stats["misses"] > 0, name
        assert stats["corrupt"] == 0, name
    assert outputs == filled
    replayed, levels, outputs = run_mine("again")
    assert replayed is not None and levels["train"]["hits"] == 1
    assert outputs == filled
