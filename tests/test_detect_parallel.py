"""Parallel batch detection: equivalence, faults, profiling, service.

``Namer.detect_many(workers=N)`` must be invisible in the output: the
same reports, byte for byte, in the same order as a serial run — for
any worker count, with or without an armed fault plan, and whether the
pool forks or ships real slices.  These tests pin that contract the
same way ``tests/test_parallel.py`` pins it for mining.
"""

from __future__ import annotations

import json

import pytest

from repro.core.namer import Namer, NamerConfig
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.miner import MiningConfig
from repro.parallel.executor import ShardExecutor
from repro.parallel.profiler import PhaseProfiler
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec, InjectedFault
from repro.resilience.quarantine import Quarantine


@pytest.fixture(scope="module")
def trained_namer():
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=8, issue_rate=0.15, seed=31)
    )
    namer = Namer(
        NamerConfig(
            mining=MiningConfig(min_pattern_support=8, min_path_frequency=4)
        )
    )
    namer.mine(corpus)
    violations = namer.all_violations()[:40]
    namer.train(violations, [i % 2 for i in range(len(violations))])
    return namer


def report_blob(groups) -> str:
    """Canonical bytes of a detect_many result."""
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


class TestParallelDetectEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_byte_identical_reports(self, trained_namer, workers):
        namer = trained_namer
        serial = report_blob(namer.detect_many(namer.prepared))
        parallel = report_blob(
            namer.detect_many(namer.prepared, workers=workers)
        )
        assert parallel == serial

    def test_duplicate_file_paths_keep_input_order(self, trained_namer):
        """The same file submitted several times (and interleaved with
        others) must come back once per submission, in input order."""
        namer = trained_namer
        files = namer.prepared[:3]
        batch = [files[0], files[1], files[0], files[2], files[0], files[1]]
        serial = namer.detect_many(batch)
        parallel = namer.detect_many(batch, workers=3)
        assert len(parallel) == len(batch)
        assert report_blob(parallel) == report_blob(serial)
        assert report_blob([parallel[0]]) == report_blob([parallel[2]])

    def test_shared_executor_across_batches(self, trained_namer):
        """A long-lived executor (the service's usage) serves repeated
        batches identically, reusing one warm pool."""
        namer = trained_namer
        serial = report_blob(namer.detect_many(namer.prepared))
        with ShardExecutor(2) as executor:
            namer.warm_detect(executor)
            for _ in range(2):
                assert (
                    report_blob(
                        namer.detect_many(namer.prepared, executor=executor)
                    )
                    == serial
                )

    def test_empty_and_single_batches(self, trained_namer):
        namer = trained_namer
        assert namer.detect_many([], workers=4) == []
        one = namer.prepared[:1]
        assert report_blob(
            namer.detect_many(one, workers=4)
        ) == report_blob(namer.detect_many(one))

    def test_unmined_namer_raises(self):
        with pytest.raises(RuntimeError, match="mine"):
            Namer().detect_many([], workers=2)


class CountingExecutor(ShardExecutor):
    """Records how many tasks each ``map`` call dispatched."""

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self.task_counts: list[int] = []

    def map(self, fn, tasks):
        self.task_counts.append(len(tasks))
        return super().map(fn, tasks)


class TestDetectTaskBatching:
    """Files are batched ~DETECT_FILES_PER_TASK per worker task: the
    span plan is capped by ceil(files / K), and the cap changes nothing
    about the output."""

    def test_task_count_capped_by_batch_size(self, trained_namer):
        from repro.core.namer import DETECT_FILES_PER_TASK

        namer = trained_namer
        files = namer.prepared
        assert len(files) > DETECT_FILES_PER_TASK, (
            "fixture too small for the batching cap to bind"
        )
        serial = report_blob(namer.detect_many(files))
        max_tasks = -(-len(files) // DETECT_FILES_PER_TASK)
        with CountingExecutor(64) as executor:
            # a pool this wide would plan far more than max_tasks spans
            # without the batching floor
            assert executor.shard_hint(len(files)) > max_tasks
            parallel = report_blob(
                namer.detect_many(files, executor=executor)
            )
        assert parallel == serial
        assert executor.task_counts == [max_tasks]

    def test_narrow_pool_keeps_its_own_plan(self, trained_namer):
        """When the pool is the binding constraint the plan is
        unchanged from the unbatched one."""
        namer = trained_namer
        files = namer.prepared
        with CountingExecutor(2) as executor:
            hint = executor.shard_hint(len(files))
            namer.detect_many(files, executor=executor)
        assert executor.task_counts == [hint]

    def test_tiny_batch_runs_as_one_task(self, trained_namer):
        namer = trained_namer
        files = namer.prepared[:3]
        serial = report_blob(namer.detect_many(files))
        with CountingExecutor(8) as executor:
            parallel = report_blob(
                namer.detect_many(files, executor=executor)
            )
        assert parallel == serial
        assert executor.task_counts == [1]


class TestParallelDetectFaults:
    PLAN = dict(
        specs=[
            dict(site="core.detect", rate=0.4),
            dict(site="core.featurize", rate=0.3),
        ],
        seed=5,
    )

    def _plan(self) -> FaultPlan:
        return FaultPlan(
            [FaultSpec(**s) for s in self.PLAN["specs"]],
            seed=self.PLAN["seed"],
        )

    def _run(self, namer, workers):
        with FAULTS.armed(self._plan()):
            quarantine = Quarantine()
            groups = namer.detect_many(
                namer.prepared,
                quarantine=quarantine,
                workers=workers,
            )
        return report_blob(groups), [
            (r.path, r.stage, r.kind, r.repo) for r in quarantine.records
        ]

    @pytest.mark.parametrize("workers", [2, 7])
    def test_quarantine_parity_under_faults(self, trained_namer, workers):
        """An armed plan must trip the same (site, key) pairs and leave
        the same quarantine records — in the same capture order — with
        the work fanned across processes."""
        serial_blob, serial_records = self._run(trained_namer, 1)
        parallel_blob, parallel_records = self._run(trained_namer, workers)
        assert serial_records, "plan must actually trip for this test to bite"
        assert parallel_records == serial_records
        assert parallel_blob == serial_blob

    def test_detect_records_precede_featurize_records(self, trained_namer):
        """Capture order is part of parity: all detect-stage records
        (file order) land before any featurize-stage record."""
        _, records = self._run(trained_namer, 3)
        stages = [stage for _, stage, _, _ in records]
        assert "detect" in stages and "featurize" in stages
        assert stages == sorted(stages)  # "detect" < "featurize"

    def test_faults_raise_without_quarantine(self, trained_namer):
        """No quarantine = fail loudly, parallel included."""
        plan = FaultPlan([FaultSpec(site="core.detect", rate=1.0)], seed=1)
        with FAULTS.armed(plan):
            with pytest.raises(InjectedFault):
                trained_namer.detect_many(trained_namer.prepared, workers=2)

    def test_pool_outliving_armed_block_is_disarmed(self, trained_namer):
        """Workers forked while a plan was armed must not keep injecting
        after the parent disarms: the (empty) plan state ships with
        every task."""
        namer = trained_namer
        with ShardExecutor(2) as executor:
            namer.warm_detect(executor)
            plan = FaultPlan([FaultSpec(site="core.detect", rate=1.0)], seed=1)
            with FAULTS.armed(plan):
                quarantine = Quarantine()
                namer.detect_many(
                    namer.prepared, quarantine=quarantine, executor=executor
                )
                assert len(quarantine.records) == len(namer.prepared)
            clean = namer.detect_many(namer.prepared, executor=executor)
            assert report_blob(clean) == report_blob(
                namer.detect_many(namer.prepared)
            )


class TestDetectProfiling:
    def test_phase_rows(self, trained_namer):
        namer = trained_namer
        for workers in (1, 3):
            profiler = PhaseProfiler()
            namer.detect_many(
                namer.prepared, workers=workers, profiler=profiler
            )
            rows = {row["phase"]: row for row in profiler.to_json()}
            assert set(rows) == {"extract", "match", "featurize", "classify"}
            assert rows["extract"]["items"] == len(namer.prepared)
            assert rows["match"]["items"] == len(namer.prepared)
            assert rows["classify"]["calls"] == 1

    def test_default_profiler_accumulates(self, trained_namer):
        namer = trained_namer
        before = namer.detect_profiler.seconds_for("match")
        namer.detect_many(namer.prepared[:2])
        assert namer.detect_profiler.seconds_for("match") >= before

    def test_profiler_record_is_thread_safe(self):
        import threading

        profiler = PhaseProfiler()
        threads = [
            threading.Thread(
                target=lambda: [
                    profiler.record("match", 0.001, items=1)
                    for _ in range(200)
                ]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (row,) = profiler.rows()
        assert row.calls == 8 * 200
        assert row.items == 8 * 200


class TestEngineParallelDetection:
    def test_detect_workers_equivalence(self, trained_namer, tmp_path):
        """The engine serves identical wire results with detection
        inline or fanned over a warm process pool."""
        from repro.core.persistence import save_namer
        from repro.service.engine import AnalysisEngine, AnalysisRequest

        artifact = tmp_path / "namer.json"
        save_namer(trained_namer, str(artifact))
        requests = [
            AnalysisRequest(
                source="def handle(packet):\n    return packet.payload\n",
                path=f"svc/file_{i}.py",
            )
            for i in range(6)
        ]
        engines = [
            AnalysisEngine(artifact_path=str(artifact), detect_workers=w)
            for w in (1, 2)
        ]
        def wire(engine):
            rows = [r.to_json() for r in engine.analyze_many(requests)]
            for row in rows:
                row.pop("elapsed_ms")  # timing metadata, legitimately differs
            return rows

        try:
            inline, pooled = (wire(engine) for engine in engines)
            assert pooled == inline
            assert engines[1].health()["detect_workers"] == 2
            phases = engines[1].metrics_json()["detection_phases"]
            assert {row["phase"] for row in phases} >= {"classify"}
        finally:
            for engine in engines:
                engine.shutdown(drain=False, timeout=10)
