"""Key derivation for the incremental mining pipeline.

The cache contract is *content addressing*: a key must change exactly
when recomputing the entry could produce different bytes.  Four kinds
of inputs feed the keys:

* **File content** — a ``prepare`` entry is keyed by the source bytes
  (plus language/repo/path, since a statement's provenance rides into
  the artifact); every later level by the sha256 of the prepared
  payload that entry holds, so an edit that prepares identically (a
  comment, trailing whitespace) stops there (early cutoff).
* **Config** — the :class:`~repro.core.namer.NamerConfig` fields that
  affect the stage.  Frozen dataclasses have deterministic ``repr``\\ s,
  which we hash rather than parse.
* **Upstream results** — a shard's growth output depends on the global
  frequent-path set, and its prune output on the global candidate
  pattern list; both are fingerprinted and mixed into the shard key so
  a change *anywhere* in the corpus that shifts the global state
  invalidates every shard of the later passes (correctness first —
  the common warm case is "nothing changed", which still hits).
* **Code** — :meth:`~repro.cache.contentcache.ContentCache.key` hashes
  the source of every ``repro`` module into every key, so an edit to
  any of them misses every level instead of replaying what the old
  code computed.  No caller passes a version.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

__all__ = [
    "CACHE_SHARD_TARGET",
    "config_fingerprint",
    "fingerprint_of",
    "pattern_fingerprint",
    "shard_content_keys",
]

#: Minimum shard count for cache-enabled mining plans.  Shards are the
#: cache's recompute granularity, so plans aim for at least this many
#: regardless of worker count — it also keeps the plan (and therefore
#: every shard key) stable when the same corpus is mined warm with a
#: different ``workers`` setting, up to 8 workers at 2 shards each.
CACHE_SHARD_TARGET = 16


def config_fingerprint(*parts: object) -> str:
    """A stable string for config objects: joined ``repr``\\ s.

    Only frozen dataclasses (deterministic field-order reprs) and
    primitives should be passed here.
    """
    return "|".join(repr(part) for part in parts)


def fingerprint_of(items: Iterable[object]) -> str:
    """Order-sensitive SHA-256 over the ``repr`` of each item.

    Used for the frequent-path set (pass a sorted iterable) and the
    candidate pattern list (pass it in list order — prune counts are
    keyed by index, so order matters).
    """
    digest = hashlib.sha256()
    for item in items:
        data = repr(item).encode("utf-8")
        digest.update(f"{len(data)}:".encode())
        digest.update(data)
    return digest.hexdigest()


def pattern_fingerprint(pattern) -> tuple:
    """A deterministic identity tuple for a mined pattern.

    ``frozenset`` iteration order varies across processes (string hash
    randomization), so the condition/deduction sets are sorted first —
    ``NamePath`` is an ordered named tuple with a stable ``repr``.
    """
    return (
        sorted(pattern.condition),
        sorted(pattern.deduction),
        pattern.kind.value,
        pattern.support,
    )


def shard_content_keys(
    spans: Sequence[tuple[int, int]],
    file_statement_counts: Sequence[int],
    file_keys: Sequence[str],
) -> list[str] | None:
    """One content key per shard span, or ``None`` if keys can't be built.

    ``file_statement_counts[i]`` is how many statements file ``i``
    contributed to the flattened statement sequence, and
    ``file_keys[i]`` is that file's content key (in mining, its
    prepared-payload digest).  A span's key hashes the keys of every
    file whose statements it covers, so the key changes iff any
    covered file's prepared content changed.

    Returns ``None`` when a span boundary falls inside a file — then
    per-shard results are not a pure function of whole files and must
    not be cached.  (The per-repo plans ``Namer.mine`` builds always
    align, since they are packed from per-file counts.)

    Files contributing zero statements never affect a shard's mining
    summary, and a zero-count file sitting on a boundary could land in
    either neighbouring span; fold them into neither — their keys are
    excluded so the same corpus always produces the same shard keys.
    """
    if len(file_statement_counts) != len(file_keys):
        raise ValueError("file counts and keys must align")
    starts = {0: 0}  # statement offset -> file index reaching it
    offset = 0
    for i, count in enumerate(file_statement_counts):
        offset += count
        starts[offset] = i + 1
    keys: list[str] = []
    for start, stop in spans:
        if start not in starts or stop not in starts:
            return None
        first, last = starts[start], starts[stop]
        digest = hashlib.sha256()
        for i in range(first, last):
            if file_statement_counts[i] == 0:
                continue
            digest.update(file_keys[i].encode("utf-8"))
            digest.update(b"\n")
        keys.append(digest.hexdigest())
    return keys
