"""Sharded parallel execution for the mining pipeline.

The paper mines its patterns from ~1M Python / 4M Java files by fanning
the work across all 28 cores of its test server (Section 5.2).  This
package provides the three ingredients the pipeline needs to do the
same without giving up determinism:

* :mod:`repro.parallel.sharding` — deterministic, contiguous,
  order-preserving partitions of the prepared corpus (per-repo shards
  packed into balanced spans);
* :mod:`repro.parallel.merge` — order-preserving merges of per-shard
  results (prune match/satisfaction pairs, detection entries);
* :mod:`repro.parallel.executor` — a thin process-pool wrapper that
  runs every shard task (preparation, the mining passes, batch
  detection) inline for ``workers <= 1`` and on a pool otherwise,
  always returning results in shard order;
* :mod:`repro.parallel.profiler` — wall-time/input-size rows for every
  pipeline phase, surfaced on ``MiningSummary``, ``repro mine
  --profile``, and the service ``/metrics`` endpoint.

The correctness contract — enforced by ``tests/test_parallel.py`` and
``benchmarks/test_perf_parallel.py`` — is that sharded mining is
**bit-identical** to serial mining: same patterns, same supports, same
order, for any contiguous shard plan and any worker count.
"""

from repro.parallel.executor import ShardExecutor
from repro.parallel.merge import merge_count_pairs
from repro.parallel.profiler import PhaseProfiler, PhaseTiming, format_phase_table
from repro.parallel.sharding import (
    Span,
    even_spans,
    pack_spans,
    slice_spans,
    spans_by_group,
)

__all__ = [
    "ShardExecutor",
    "PhaseProfiler",
    "PhaseTiming",
    "format_phase_table",
    "Span",
    "even_spans",
    "pack_spans",
    "slice_spans",
    "spans_by_group",
    "merge_count_pairs",
]
