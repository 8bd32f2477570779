"""Phase-level wall-time profiling for the mining pipeline.

Every phase of the learning flow — prepare, pairs, frequency, growth,
generate, prune, stats, train — is wrapped in a
:meth:`PhaseProfiler.phase` block.  A phase that runs more than once
(the miner runs its four passes once per pattern kind) accumulates into
a single row, keeping the report one line per phase.

Rows are plain JSON dicts (``phase``, ``seconds``, ``items``,
``calls``) so they can ride on ``MiningSummary``, the ``repro mine
--profile`` output, and the service ``/metrics`` endpoint without a
schema of their own.  The profiler is always on: its cost is two
``perf_counter`` calls per phase, invisible next to the phases it
measures.

:class:`GcTimer` does the same for the cyclic garbage collector:
collections and seconds per generation while its ``with`` block runs.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["GcTimer", "PhaseTiming", "PhaseProfiler", "format_phase_table"]


@dataclass
class PhaseTiming:
    """Accumulated wall time and input size for one named phase."""

    phase: str
    seconds: float = 0.0
    items: int = 0
    calls: int = 0

    def to_json(self) -> dict:
        return {
            "phase": self.phase,
            "seconds": round(self.seconds, 6),
            "items": self.items,
            "calls": self.calls,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PhaseTiming":
        return cls(
            phase=data["phase"],
            seconds=data.get("seconds", 0.0),
            items=data.get("items", 0),
            calls=data.get("calls", 0),
        )


class PhaseProfiler:
    """Ordered accumulator of :class:`PhaseTiming` rows."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._rows: dict[str, PhaseTiming] = {}
        # The detection profiler accumulates from the service's queue
        # threads concurrently; a lock keeps row mutation (and the
        # first-recorded row order) coherent.  Mining's single-threaded
        # use pays one uncontended acquire per phase.
        self._lock = threading.Lock()

    @contextmanager
    def phase(self, name: str, items: int = 0) -> Iterator[None]:
        """Time a ``with`` block as one run of phase ``name`` over
        ``items`` input elements (recorded even when the block raises,
        so a failed run still shows where the time went)."""
        started = self._clock()
        try:
            yield
        finally:
            self.record(name, self._clock() - started, items)

    def record(self, name: str, seconds: float, items: int = 0) -> None:
        with self._lock:
            row = self._rows.get(name)
            if row is None:
                row = self._rows[name] = PhaseTiming(phase=name)
            row.seconds += seconds
            row.items += items
            row.calls += 1

    # ------------------------------------------------------------------

    def rows(self) -> list[PhaseTiming]:
        """Rows in first-recorded order."""
        return list(self._rows.values())

    def seconds_for(self, name: str) -> float:
        row = self._rows.get(name)
        return row.seconds if row is not None else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(row.seconds for row in self._rows.values())

    def to_json(self) -> list[dict]:
        return [row.to_json() for row in self.rows()]

    @classmethod
    def from_json(cls, rows: list[dict]) -> "PhaseProfiler":
        profiler = cls()
        for data in rows:
            row = PhaseTiming.from_json(data)
            profiler._rows[row.phase] = row
        return profiler

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        # A profiler with no rows yet is still a real profiler; without
        # this, ``profiler or PhaseProfiler()`` would silently replace
        # an empty one handed in by a caller expecting to read it back.
        return True


class GcTimer:
    """Counts and times the cyclic collector's passes per generation.

    Each ``with`` block registers a :data:`gc.callbacks` hook, so every
    collection the process runs meanwhile, from any thread, is counted;
    blocks accumulate.  The collector never nests and runs under the
    interpreter lock, so one pending start time is enough.
    """

    def __init__(self) -> None:
        self._started = 0.0
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def to_json(self) -> dict:
        """``collections`` and ``seconds``, each a list by generation."""
        return {
            "collections": list(self.collections),
            "seconds": [round(s, 6) for s in self.seconds],
        }


def format_phase_table(rows: list[dict]) -> str:
    """Render phase rows as an aligned text table (the ``--profile``
    output).  Returns an empty string for no rows."""
    if not rows:
        return ""
    total = sum(r.get("seconds", 0.0) for r in rows) or 1.0
    header = f"{'phase':<12} {'seconds':>10} {'items':>10} {'calls':>6} {'share':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        seconds = r.get("seconds", 0.0)
        lines.append(
            f"{r.get('phase', '?'):<12} {seconds:>10.3f} "
            f"{r.get('items', 0):>10} {r.get('calls', 0):>6} "
            f"{seconds / total * 100:>6.1f}%"
        )
    lines.append(f"{'total':<12} {total:>10.3f}")
    return "\n".join(lines)
