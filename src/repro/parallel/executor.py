"""Shard task execution: inline for one worker, process pool otherwise.

The miner's shard tasks are pure functions of picklable inputs, so the
executor's contract is tiny: ``map(fn, tasks)`` returns one result per
task, **in task order**, whatever the backend.  With ``workers <= 1``
(or a single task) everything runs inline in the calling process — no
fork, no pickling, and byte-identical behavior to the pre-sharding
serial code.  With more workers a ``ProcessPoolExecutor`` is created
lazily on first use and reused across phases (and across the two
per-kind mine passes), so one ``Namer.mine`` pays process start-up at
most once.

Shipping a shard's statements to a worker costs more than the shard
work itself (megabytes of AST pickle per phase), so the executor also
offers *fork-shared sequences*: :meth:`ShardExecutor.shard_payloads`
registers a sequence in module-level memory **before** the pool forks
and hands out :class:`SharedSlice` handles — a ``(key, start, stop)``
triple a worker resolves against its inherited copy for free.  When
inheritance cannot work (pool already forked without the sequence, or a
spawn-based platform), it silently falls back to shipping real slices;
results are identical either way, only the pickling bill changes.

Context values (a matcher, a statistics index) used by *every* task of
a phase get the same treatment via :meth:`ShardExecutor.share_context`:
the value is published once per **pool** — inherited for free on fork,
pickled once per worker through the pool initializer on spawn — and
tasks carry only a tiny :class:`SharedContext` handle instead of
re-shipping megabytes of matcher per task.  The same fallback contract
applies: if the pool already exists the raw value is returned and rides
along with each task, bytes-for-bytes what the handle would resolve to.

Context values may themselves defer their heavy state to read-only
memory maps: a matcher loaded from a frozen blob (``repro.mining.frozen``)
pickles as little more than the blob path, and each worker re-maps the
arrays on first use — so N workers share one page-cache copy instead of
N private heaps.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

__all__ = [
    "ShardExecutor",
    "SharedContext",
    "SharedSlice",
    "default_workers",
    "resolve_context",
    "resolve_shard",
]

T = TypeVar("T")
R = TypeVar("R")

#: Shards per worker the default plans aim for: enough slack that one
#: slow shard does not idle the pool, few enough that per-shard overhead
#: stays a rounding error.
SHARDS_PER_WORKER = 2

#: Sequences published for fork inheritance, keyed by registration
#: number.  Entries added before a pool forks are visible (copy-on-
#: write) in every worker of that pool.
_SHARED: dict[int, Sequence] = {}
_SHARED_KEYS = itertools.count(1)

def default_workers() -> int:
    """Worker count when the caller does not choose: every core the
    scheduler lets this process use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _resolved_start_method() -> str:
    """The start method a pool created now would actually use: the
    configured one, or the platform default when none is set yet.
    ``get_start_method(allow_none=True)`` returns ``None`` until first
    resolution — on macOS (spawn) and Python 3.14+ Linux (forkserver)
    that default is *not* fork even though ``os.fork`` exists."""
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True)
    if method is None:
        method = multiprocessing.get_context().get_start_method()
    return method


def _fork_available() -> bool:
    return hasattr(os, "fork") and _resolved_start_method() == "fork"


@dataclass(frozen=True)
class SharedSlice:
    """A picklable handle to ``_SHARED[key][start:stop]``.

    Hashable on purpose: workers key their per-shard caches on it.
    """

    key: int
    start: int
    stop: int


def resolve_shard(payload):
    """Materialize a shard payload inside a worker (or inline): either
    a :class:`SharedSlice` into fork-inherited memory, or the real
    slice that was shipped as a fallback."""
    if isinstance(payload, SharedSlice):
        return _SHARED[payload.key][payload.start : payload.stop]
    return payload


@dataclass(frozen=True)
class SharedContext:
    """A picklable handle to a per-pool context value ``_SHARED[key]``.

    Hashable on purpose: workers key per-context caches on it.
    """

    key: int


def resolve_context(payload):
    """Materialize a context value inside a worker (or inline): either
    a :class:`SharedContext` into pool-shared memory (fork-inherited or
    installed by the pool initializer), or the real value that was
    shipped per task as a fallback."""
    if isinstance(payload, SharedContext):
        return _SHARED[payload.key]
    return payload


def _init_worker(contexts: dict[int, object]) -> None:
    """Pool initializer: install shared context values in the worker.

    On fork the values arrive inherited and this is a near-no-op
    (re-installing identical entries); on spawn the ``initargs`` pickle
    carries each value exactly once per worker — the whole point."""
    _SHARED.update(contexts)


class ShardExecutor:
    """Order-preserving ``map`` over shard tasks.

    Usable as a context manager; the underlying pool (if one was ever
    created) is shut down on exit.  Safe to enter with ``workers=1`` —
    no pool is created and ``map`` is a list comprehension.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._pool = None
        self._shared_keys: list[int] = []
        #: context values published to this executor's (future) pool,
        #: shipped through the pool initializer — unlike slices they do
        #: not require fork, so they never pin the start method
        self._context_values: dict[int, object] = {}

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def shard_hint(self, num_items: int) -> int:
        """How many shards a plan should aim for at this worker count."""
        if not self.parallel:
            return 1
        return max(1, min(num_items, self.workers * SHARDS_PER_WORKER))

    def shard_payloads(self, seq: Sequence, spans: Sequence[tuple[int, int]]) -> list:
        """Per-span payloads over ``seq`` for worker tasks.

        Registers ``seq`` for fork inheritance when the pool has not
        forked yet (or returns the existing registration — the two
        per-kind mine passes share one sequence), yielding cheap
        :class:`SharedSlice` handles; otherwise ships real slices.
        """
        key = self._share(seq)
        if key is None:
            return [seq[start:stop] for start, stop in spans]
        return [SharedSlice(key, start, stop) for start, stop in spans]

    def share_context(self, value):
        """Publish a per-pool context value and return its handle.

        Call **before** the pool exists (before the first parallel
        ``map`` or ``warm``): the value then reaches every worker once —
        by fork inheritance or by the pool initializer's ``initargs``
        pickle on spawn — and tasks carry only a :class:`SharedContext`.
        If the pool already forked (or the executor is serial), the raw
        value is returned and ships with each task; ``resolve_context``
        makes both cases look identical to the task function.

        Re-sharing the same object returns the existing handle, so
        long-lived callers (the serving engine's pre-warmed pools) can
        call this once per batch without growing the registry.
        """
        for key, existing in self._context_values.items():
            if existing is value:
                return SharedContext(key)
        if self._pool is not None or not self.parallel:
            return value
        key = next(_SHARED_KEYS)
        _SHARED[key] = value
        self._context_values[key] = value
        return SharedContext(key)

    def _share(self, seq: Sequence) -> int | None:
        for key in self._shared_keys:
            if _SHARED.get(key) is seq:
                return key
        if self._pool is not None or not _fork_available():
            return None
        key = next(_SHARED_KEYS)
        _SHARED[key] = seq
        self._shared_keys.append(key)
        return key

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Run ``fn`` over ``tasks``, returning results in task order.

        Falls back to inline execution for trivial workloads (one task
        or one worker) where a pool could only add overhead.
        """
        if not self.parallel or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        return list(self._ensure_pool().map(fn, tasks))

    def _ensure_pool(self):
        if self._pool is None:
            import concurrent.futures
            import multiprocessing

            # Once SharedSlice handles are out, workers MUST inherit
            # _SHARED: pin the pool to the fork context so a start-
            # method change between shard_payloads() and map() cannot
            # strand handles in non-forking workers.
            ctx = (
                multiprocessing.get_context("fork")
                if self._shared_keys
                else None
            )
            # Context values travel through the initializer: free on
            # fork (already inherited), one pickle per worker on spawn.
            if self._context_values:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=ctx,
                    initializer=_init_worker,
                    initargs=(dict(self._context_values),),
                )
            else:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=ctx
                )
        return self._pool

    def warm(self) -> None:
        """Create the worker pool now instead of at the first ``map``.

        Long-lived callers (the analysis service) register their
        fork-shared payloads and then warm the pool during start-up, so
        the first real request pays neither process fork nor payload
        shipping.  A no-op for serial executors and warm pools.
        """
        if self.parallel:
            self._ensure_pool()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for key in self._shared_keys:
            _SHARED.pop(key, None)
        self._shared_keys.clear()
        for key in self._context_values:
            _SHARED.pop(key, None)
        self._context_values.clear()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
