"""Name-pattern mining (Algorithms 1 and 2) and the compiled matcher."""

#: Version of the frozen blob layout (:mod:`repro.mining.frozen`),
#: written into every frozen header so a blob from another layout is a
#: load miss, never misread.  Bump when the blob's bytes change shape.
#: Cache entries need no version: every cache key hashes the package's
#: source (:func:`repro.cache.contentcache.code_digest`).
PIPELINE_VERSION = 1
