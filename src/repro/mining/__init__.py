"""Name-pattern mining (Algorithms 1 and 2) and the compiled matcher."""

#: Version of everything between a prepared file's name paths and its
#: match results: path interning, the compiled automaton and its batch
#: walk, and the frozen blob layout.  Salted into the prepare and
#: detect cache keys, into the shard keys every later mining level
#: (frequency, growth, prune, stats, mine) is keyed on, and into the
#: ``train`` key, and written into every frozen header, so cache entries
#: and blobs from another version are misses, never stale bytes.  Bump
#: when a change to any of them could alter an output byte.
PIPELINE_VERSION = 1
