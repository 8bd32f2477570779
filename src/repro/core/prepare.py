"""Corpus preparation: parse, analyze, transform, extract paths.

Every stage of Namer — mining, statistics, detection — operates on
transformed statement ASTs plus their name paths.  This module runs the
frontends and (optionally) the static analyses over a corpus once and
caches the results as :class:`PreparedStatement` rows.

Failure contract: at corpus scale some files are always broken, so a
per-file failure must cost exactly that file.  :func:`prepare_file`
returns ``None`` for such files (legacy API); callers that need to know
*why* use :func:`prepare_file_checked`, which raises a structured
:class:`PrepareError`, :func:`prepare_one`, which returns it as an
:class:`~repro.resilience.quarantine.ErrorRecord`, or pass a
:class:`~repro.resilience.quarantine.Quarantine` to
:func:`prepare_corpus` to collect the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.origins import compute_origins
from repro.analysis.pointsto import PointsToConfig
from repro.core.namepath import NamePath, extract_name_paths
from repro.core.transform import TransformConfig, transform_statement
from repro.corpus.model import Corpus, SourceFile
from repro.lang import parse_source
from repro.lang.astir import StatementAst
from repro.lang.moduleir import ModuleIr
from repro.parallel.executor import ShardExecutor
from repro.parallel.sharding import even_spans
from repro.resilience.faults import (
    InjectedFault,
    armed_plan_json,
    fault_check,
    sync_armed_plan,
)
from repro.resilience.quarantine import ErrorRecord, Quarantine

__all__ = [
    "PREPARE_STAGES",
    "PrepareSettings",
    "PreparedStatement",
    "PreparedFile",
    "PrepareError",
    "prepare_corpus",
    "prepare_file",
    "prepare_file_checked",
    "prepare_one",
]

#: The :attr:`PrepareError.stage` values: the file never reached detection.
PREPARE_STAGES = ("parse", "analyze", "transform")


class PrepareSettings(NamedTuple):
    """How a file is prepared (§3.1 steps 1-4, §4.1 origins on or off):
    the parameters of :func:`prepare_file_checked`, in its order."""

    use_analysis: bool = True
    transform_config: TransformConfig = TransformConfig()
    pointsto_config: PointsToConfig = PointsToConfig()
    max_paths: int = 10


@dataclass
class PreparedStatement:
    """A transformed statement together with its extracted name paths."""

    stmt: StatementAst
    paths: list[NamePath]


@dataclass
class PreparedFile:
    """All prepared statements of one source file."""

    module: ModuleIr
    statements: list[PreparedStatement] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.module.file_path

    @property
    def repo(self) -> str:
        return self.module.repo


class PrepareError(ValueError):
    """One file failed to prepare; carries where and at which stage."""

    def __init__(self, path: str, stage: str, cause: BaseException) -> None:
        super().__init__(f"cannot prepare {path}: {stage} failed: {cause}")
        self.path = path
        self.stage = stage
        self.cause = cause


def prepare_file_checked(
    source: SourceFile,
    repo: str = "",
    use_analysis: bool = True,
    transform_config: TransformConfig = TransformConfig(),
    pointsto_config: PointsToConfig = PointsToConfig(),
    max_paths: int = 10,
) -> PreparedFile:
    """Parse, analyze and transform one file; raises :class:`PrepareError`
    with the failing stage on any per-file problem."""
    try:
        fault_check("corpus.prepare_file", key=source.path)
        module = parse_source(source.source, source.language, source.path, repo)
    except (ValueError, InjectedFault) as exc:
        raise PrepareError(source.path, "parse", exc) from exc

    try:
        if use_analysis and transform_config.use_origins:
            origins = compute_origins(module, pointsto_config).per_statement
        else:
            origins = [None] * len(module.statements)
    except (ValueError, KeyError, RecursionError, InjectedFault) as exc:
        raise PrepareError(source.path, "analyze", exc) from exc

    try:
        prepared = PreparedFile(module=module)
        for stmt, env in zip(module.statements, origins):
            transformed = transform_statement(stmt, env, transform_config)
            paths = extract_name_paths(transformed, max_paths=max_paths)
            if paths:
                prepared.statements.append(
                    PreparedStatement(stmt=transformed, paths=paths)
                )
    except (ValueError, KeyError, RecursionError, InjectedFault) as exc:
        raise PrepareError(source.path, "transform", exc) from exc
    return prepared


def prepare_file(
    source: SourceFile,
    repo: str = "",
    use_analysis: bool = True,
    transform_config: TransformConfig = TransformConfig(),
    pointsto_config: PointsToConfig = PointsToConfig(),
    max_paths: int = 10,
) -> PreparedFile | None:
    """Parse, analyze and transform one file.

    Returns ``None`` for unpreparable files — a large corpus always
    contains some (the paper simply skips them too).
    """
    settings = PrepareSettings(
        use_analysis, transform_config, pointsto_config, max_paths
    )
    return prepare_one(source, repo, settings)[0]


def prepare_corpus(
    corpus: Corpus,
    use_analysis: bool = True,
    transform_config: TransformConfig | None = None,
    pointsto_config: PointsToConfig = PointsToConfig(),
    max_paths: int = 10,
    workers: int = 1,
    quarantine: Quarantine | None = None,
) -> list[PreparedFile]:
    """Prepare every file of a corpus; unpreparable files are skipped.

    Files are analyzed independently (the paper parallelizes this stage
    across all 28 cores of its test server): one task per contiguous
    span of files runs on a :class:`ShardExecutor` — inline with one
    worker, on its process pool with more — and results come back in
    file order.  Each task carries the armed fault plan, so injected
    faults trip on the same files in any process.  A ``quarantine``
    receives one :class:`ErrorRecord` per skipped file.
    """
    if transform_config is None:
        transform_config = TransformConfig(use_origins=use_analysis)
    files = [(source, repo.name) for repo, source in corpus.files()]
    settings = PrepareSettings(
        use_analysis, transform_config, pointsto_config, max_paths
    )
    plan_json = armed_plan_json()
    with ShardExecutor(min(workers, len(files))) as executor:
        spans = even_spans(len(files), executor.shard_hint(len(files)))
        shards = executor.map(
            _prepare_task,
            [(files[start:stop], settings, plan_json) for start, stop in spans],
        )
    out: list[PreparedFile] = []
    for results in shards:
        for prepared, error in results:
            if prepared is not None:
                out.append(prepared)
            elif error is not None and quarantine is not None:
                quarantine.add(error)
    return out


def _prepare_task(task) -> list[tuple[PreparedFile | None, ErrorRecord | None]]:
    """Shard task (module-level for pickling): prepare one span of
    files under the fault plan armed where the task was built."""
    files, settings, plan_json = task
    sync_armed_plan(plan_json)
    return [prepare_one(source, repo, settings) for source, repo in files]


def prepare_one(
    source: SourceFile, repo: str, settings: PrepareSettings
) -> tuple[PreparedFile | None, ErrorRecord | None]:
    """One file under ``settings``; a failure comes back as a picklable
    :class:`ErrorRecord` row (its stage one of :data:`PREPARE_STAGES`)."""
    try:
        prepared = prepare_file_checked(source, repo, *settings)
    except PrepareError as exc:
        return None, ErrorRecord(
            path=exc.path,
            stage=exc.stage,
            kind=type(exc.cause).__name__,
            message=str(exc.cause),
            repo=repo,
        )
    return prepared, None
