"""Order-preserving merges of per-shard results.

The miner's frequency and growth summaries carry a local vocabulary and
merge through the corpus interner
(:func:`repro.mining.interner.merge_shard_path_counts`, the miner's
transaction replay).  This module holds the two merges that need none:

* :func:`merge_count_pairs` — the prune pass's ``(match_counts,
  sat_counts)`` pairs of ``Counter[int]`` keyed by candidate index;
* :func:`merge_timed_shards` — batch detection's per-file entries,
  concatenated, with each shard's stage seconds summed.

Both take shard results in span order.  For contiguous in-order spans
that equals one pass over the whole sequence, whether the shard tasks
ran inline or on a process pool.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

__all__ = [
    "merge_count_pairs",
    "merge_timed_shards",
]


def merge_timed_shards(results: Iterable[tuple]) -> tuple:
    """Concatenate per-shard item lists in shard order and sum the
    worker-side stage timings that ride with them.

    Each shard result is ``(items, *stage_seconds)`` — the detection
    task returns ``(entries, extract_seconds, match_seconds,
    featurize_seconds)`` — and every shard must carry the same number
    of stages.  For a contiguous in-order plan the concatenation is the
    original input order, and the summed seconds are the profiler's
    worker-time rows (the ``prune_shard`` convention).  ``results``
    must be non-empty (the stage arity is read off the first shard).
    """
    items: list = []
    seconds: list[float] = []
    for shard_items, *stage_seconds in results:
        items.extend(shard_items)
        if not seconds:
            seconds = [0.0] * len(stage_seconds)
        for i, s in enumerate(stage_seconds):
            seconds[i] += s
    return (items, *seconds)


def merge_count_pairs(
    pairs: Iterable[tuple[Mapping[int, int], Mapping[int, int]]],
) -> tuple[Counter[int], Counter[int]]:
    """Merge per-shard (match_counts, satisfaction_counts) pairs."""
    matches: Counter[int] = Counter()
    satisfactions: Counter[int] = Counter()
    for match_counts, sat_counts in pairs:
        for idx, count in match_counts.items():
            matches[idx] += count
        for idx, count in sat_counts.items():
            satisfactions[idx] += count
    return matches, satisfactions
