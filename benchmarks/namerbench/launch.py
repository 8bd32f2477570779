"""Run the ``repro`` CLI in this process, optionally tracing its layers.

Usage::

    python benchmarks/namerbench/launch.py [--trace FILE] [--edit N:TEXT] <repro CLI args>

Without options this is ``python -m repro <args>``: the benchmark starts
every ``repro serve`` and ``repro mine`` through this file so that the
untraced and the traced pass have the same process structure.

``--trace FILE`` wraps the public functions of each layer (see
:data:`LAYERS`) before the CLI runs and writes the recorded spans to
``FILE`` when it returns; ``repro serve`` returns after SIGTERM has
drained it.  Nothing under ``src/`` changes: each wrapper replaces a
name where its callers look it up, and a wrapped method replaces the
class attribute.

``--edit N:TEXT`` appends the comment line ``# TEXT`` to the N-th file
of the generated Python corpus (``repro mine``): a one-line edit that
changes the file's bytes, and so its cache keys, but not its AST.

Trace file format (JSON)::

    {"spans": [[name, start, end, id, parent, request, value], ...],
     "requests": {request: [path, ...]},
     "phases": [[{"phase": ..., "seconds": ...}, ...], ...]}

Times are ``time.monotonic()`` seconds, the clock the benchmark process
also reads.  ``parent`` is the id of the enclosing span, which may sit
on another thread: a job handed to the engine's request queue carries
the span and request of the code that submitted it.  ``request`` is set
on every span that runs on behalf of one ``AnalysisEngine.analyze`` /
``analyze_many`` call, whose span is the request's root.  ``value`` is
a per-layer count: tuples derived (``datalog.solve``), paths extracted
(``core.namepath``), 1 for a points-to run that fell back to k=0
(``analysis.pointsto``), 1 for a hit (``cache.get``), bytes written
(``cache.put``).  ``phases`` holds the ``phase_timings`` of every
``Namer.mine`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

PROCESS_START = time.monotonic()

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

NAME, START, END, ID, PARENT, REQUEST, VALUE = range(7)
_RAISED = object()


def _tuples(database) -> int:
    return sum(len(rows) for rows in database.values())


def _fell_back(result) -> int:
    return int(result.used_k == 0)


def _hit(result) -> int:
    return int(result is not None)


#: (span name, "module:attribute" to replace, count taken from the
#: return value).  ``Class.method`` replaces the method on the class;
#: a plain function is replaced in the module whose callers use it.
LAYERS = [
    ("service.analyze", "repro.service.engine:AnalysisEngine.analyze", None),
    ("service.analyze", "repro.service.engine:AnalysisEngine.analyze_many", None),
    ("service.result_cache", "repro.service.cache:ResultCache.get", None),
    ("service.result_cache", "repro.service.cache:ResultCache.put", None),
    ("core.prepare", "repro.service.engine:prepare_file_checked", None),
    ("core.prepare", "repro.core.prepare:prepare_file_checked", None),
    ("lang.parse", "repro.core.prepare:parse_source", None),
    ("analysis.origins", "repro.core.prepare:compute_origins", None),
    ("analysis.facts", "repro.analysis.origins:extract_facts", None),
    ("analysis.pointsto", "repro.analysis.origins:analyze_pointsto", _fell_back),
    ("datalog.solve", "repro.datalog.engine:Program.solve", _tuples),
    ("core.transform", "repro.core.prepare:transform_statement", None),
    ("core.namepath", "repro.core.prepare:extract_name_paths", len),
    ("core.detect", "repro.core.namer:Namer.detect_many", None),
    ("mining.intern", "repro.mining.matcher:PatternMatcher.prepare_ids", None),
    ("mining.match", "repro.mining.matcher:PatternMatcher.scan_entries_stats", None),
    ("mining.match", "repro.mining.matcher:PatternMatcher.scan_entries", None),
    ("mining.match", "repro.mining.matcher:PatternMatcher.violations", None),
    ("core.stats_index", "repro.core.stats_index:StatsIndex.build", None),
    ("core.stats_index", "repro.core.stats_index:StatsIndex.build_from_relations", None),
    ("core.stats_index", "repro.core.stats_index:FileStatsView.__init__", None),
    ("core.featurize", "repro.core.namer:extract_features_batch", None),
    ("ml.classify", "repro.ml.pipeline:ClassifierPipeline.decision_function", None),
    ("core.reports", "repro.core.reports:Report.to_json", None),
    ("core.reports", "repro.core.reports:reports_to_rows", None),
    ("core.mine", "repro.core.namer:Namer.mine", None),
    ("cache.get", "repro.cache.contentcache:ContentCache.get", _hit),
    ("cache.put", "repro.cache.contentcache:ContentCache.put", None),
    ("persistence.namer_to_document", "repro.core.persistence:namer_to_document", None),
    ("persistence.namer_to_document", "repro.resilience.pipeline:namer_to_document", None),
    ("persistence.save_document", "repro.resilience.pipeline:save_document", None),
    ("resilience.checkpoint_save", "repro.resilience.checkpoint:CheckpointStore.save", None),
    ("mining.freeze", "repro.mining.frozen:freeze_namer", None),
    ("core.all_violations", "repro.core.namer:Namer.all_violations", None),
    ("core.train", "repro.core.namer:Namer.train", None),
]

ROOT_LAYER = "service.analyze"


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.requests: dict[int, list[str]] = {}
        self.phases: list[list[dict]] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.parent = None
            local.request = None
        return local

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured outside any wrapper (process start-up)."""
        self.spans.append((name, start, end, next(self._span_ids), None, None, 0))

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            outer_request = local.request
            parent = stack[-1][ID] if stack else local.parent
            span = [name, 0.0, 0.0, next(tracer._span_ids), parent, outer_request, 0]
            if name == ROOT_LAYER:
                request = next(tracer._request_ids)
                tracer.requests[request] = _request_paths(args)
                span[REQUEST] = local.request = request
            stack.append(span)
            result = _RAISED
            span[START] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.monotonic()
                stack.pop()
                local.request = outer_request
                if result is not _RAISED:
                    if count is not None:
                        span[VALUE] += count(result)
                    if name == "core.mine":
                        tracer.phases.append(list(result.phase_timings))
                # a tuple of atoms drops out of the garbage collector's
                # scans, so tens of thousands of spans add no GC time
                tracer.spans.append(tuple(span))

        return traced

    def propagate_submit(self, submit):
        """Wrap ``RequestQueue.submit`` so the queued job runs under the
        submitting span and request on whichever worker picks it up."""
        tracer = self

        @functools.wraps(submit)
        def traced_submit(queue, job):
            local = tracer._state()
            parent = local.stack[-1][ID] if local.stack else local.parent
            request = local.request

            def job_in_context():
                worker = tracer._state()
                saved = worker.parent, worker.request
                worker.parent, worker.request = parent, request
                try:
                    return job()
                finally:
                    worker.parent, worker.request = saved

            return submit(queue, job_in_context)

        return traced_submit

    def count_written(self, write):
        """Wrap the cache's atomic writer: add the bytes to the
        enclosing ``cache.put`` span."""
        tracer = self

        @functools.wraps(write)
        def traced_write(path, data):
            stack = tracer._state().stack
            if stack and stack[-1][NAME] == "cache.put":
                stack[-1][VALUE] += len(data)
            return write(path, data)

        return traced_write

    def install(self) -> None:
        # Import every module before patching any: a module that runs
        # ``from x import f`` after ``x.f`` was wrapped would bind the
        # wrapper, be wrapped again, and record each call twice.
        targets = []
        for name, target, count in LAYERS:
            module_name, _, attribute = target.partition(":")
            targets.append((name, importlib.import_module(module_name), attribute, count))
        for name, owner, attribute, count in targets:
            *classes, leaf = attribute.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            raw = inspect.getattr_static(owner, leaf)
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, leaf, self.wrap(name, raw, count))
        from repro.cache import contentcache
        from repro.service.queue import RequestQueue

        RequestQueue.submit = self.propagate_submit(RequestQueue.submit)
        contentcache.atomic_write_bytes = self.count_written(
            contentcache.atomic_write_bytes
        )

    def dump(self, path: str) -> None:
        document = {
            "spans": self.spans,
            "requests": self.requests,
            "phases": self.phases,
        }
        Path(path).write_text(json.dumps(document))


def _request_paths(args) -> list[str]:
    """The file paths of an ``analyze(request)`` / ``analyze_many(requests)``
    call (``args[0]`` is the engine)."""
    target = args[1]
    requests = target if isinstance(target, list) else [target]
    return [request.path for request in requests]


def _apply_edit(spec: str) -> None:
    """Make the CLI's Python corpus generator append ``# TEXT`` to file N."""
    index, _, text = spec.partition(":")
    import repro.__main__ as cli

    generate = cli.generate_python_corpus

    @functools.wraps(generate)
    def generate_edited(config):
        corpus = generate(config)
        _, source = list(corpus.files())[int(index)]
        source.source = source.source.rstrip("\n") + f"\n# {text}\n"
        return corpus

    cli.generate_python_corpus = generate_edited


def main(argv: list[str]) -> int:
    trace_path = None
    edit = None
    while argv and argv[0] in ("--trace", "--edit"):
        if len(argv) < 2:
            print(f"launch.py: {argv[0]} needs a value", file=sys.stderr)
            return 2
        if argv[0] == "--trace":
            trace_path = argv[1]
        else:
            edit = argv[1]
        argv = argv[2:]
    tracer = Tracer() if trace_path else None
    if tracer is not None:
        tracer.install()
    from repro.__main__ import main as repro_main

    if edit is not None:
        _apply_edit(edit)
    if tracer is None:
        return repro_main(argv)
    started = time.monotonic()
    tracer.record("cli.startup", PROCESS_START, started)
    try:
        return tracer.wrap("cli.main", repro_main)(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
