"""Content-addressed warm caches for the incremental pipeline.

:class:`~repro.cache.contentcache.ContentCache` stores pickled stage
outputs under SHA-256 keys derived from the *content* of their inputs
(file bytes, the relevant :class:`~repro.core.namer.NamerConfig` fields)
and of the ``repro`` package's source, so a warm re-run recomputes only
what actually changed, code included.  :mod:`repro.cache.incremental`
holds the key derivation helpers shared by the miner, ``Namer``, and
the service engine.
"""

from repro.cache.contentcache import CacheLevelStats, ContentCache
from repro.cache.incremental import (
    CACHE_SHARD_TARGET,
    config_fingerprint,
    fingerprint_of,
    pattern_fingerprint,
    shard_content_keys,
)

__all__ = [
    "CACHE_SHARD_TARGET",
    "CacheLevelStats",
    "ContentCache",
    "config_fingerprint",
    "fingerprint_of",
    "pattern_fingerprint",
    "shard_content_keys",
]
