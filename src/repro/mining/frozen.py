"""Frozen matcher artifacts: compile once, mmap instantly, share pages.

Every engine restart, replica spawn, and rolling rollout used to pay
the full artifact decode — JSON parse, pattern materialization,
automaton compile, per-ID table resolution, and a statistics decode
that dwarfs all of them — and N replicas on one host paid it N times
over, each holding a private copy of the result.

A *frozen artifact* is the already-compiled form flattened to disk: a
small JSON header (schema stamps, config, string/step pools, the array
manifest) followed by contiguous, 64-byte-aligned, CRC-checksummed
numpy arrays — the automaton's trie in CSR form (node offsets / edge
arrays / accept-set ranges), multi-word step-kind and required-bit
masks, the per-ID tables, the interner vocabulary with its
sym/rank/fold/name_ok tables, every pattern's condition/deduction CSR,
the statistics counters in insertion order, and the classifier
matrices.  ``repro mine --freeze`` writes one next to the JSON
artifact; loading is an mmap plus a header parse, and because the maps
are read-only every replica on the host shares one page-cache copy.

Three properties the rest of the system leans on:

* **Byte-identity.**  A namer loaded from the frozen blob produces the
  same artifacts, reports, and quarantine records as one decoded from
  the JSON artifact — counters rebuild in their original insertion
  order, accept sets and candidate enumeration are pinned, and the
  precomputed artifact fingerprint equals the JSON document checksum.
  ``tests/test_frozen.py`` hard-fails on any drift.
* **Damage is a miss.**  Truncation, bit flips, or a bad header raise
  :class:`FrozenError`; callers (the serving engine, pool workers) fall
  back to the JSON artifact or to in-memory compilation with a logged
  warning.  The ``frozen.load`` fault site injects exactly this path.
* **Plain structures after load.**  The loader rebuilds the automaton
  as the same Python lists and dicts a compile produces, so pool
  workers receive it by pickle like any other automaton (its per-ID
  tables are dropped and rebuilt there); only :class:`FrozenStats`
  stays array-backed and pickles as its blob path.

The header records :data:`repro.mining.PIPELINE_VERSION`, the blob
layout version; a blob written under another layout is a load miss.
Bump the version whenever the blob's bytes change shape.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import zlib
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.namepath import NamePath, PathStep
from repro.core.patterns import NamePattern, PatternKind
from repro.core.stats_index import StatsIndex
from repro.mining import PIPELINE_VERSION
from repro.mining.automaton import MatchAutomaton
from repro.mining.interner import PathInterner
from repro.mining.matcher import PatternMatcher
from repro.resilience.faults import fault_check

__all__ = [
    "FrozenError",
    "FrozenStats",
    "FrozenArtifact",
    "default_frozen_path",
    "freeze_namer",
    "load_frozen_namer",
]

_MAGIC = b"REPROFZ1"
_ALIGN = 64


class FrozenError(Exception):
    """A frozen blob that cannot be used: unreadable, truncated,
    checksum-damaged, or stamped with another schema era.  Always
    recoverable — the caller falls back to the JSON artifact."""


def default_frozen_path(artifact_path: str | Path) -> Path:
    """Where the frozen twin of a JSON artifact lives: ``<path>.frozen``
    (sibling file, so rollouts that ship an artifact directory carry
    both)."""
    return Path(f"{artifact_path}.frozen")


# ----------------------------------------------------------------------
# Pools (freeze-side deduplication)
# ----------------------------------------------------------------------


def _mask_words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Arbitrary-width Python int masks -> an ``(len, W)`` uint64 word
    matrix (little-endian word order).  Guard masks can exceed 64 bits:
    step-kind and concrete-end bits are interleaved during
    compilation."""
    out = np.zeros((len(masks), n_words), dtype=np.uint64)
    full = (1 << 64) - 1
    for row, mask in enumerate(masks):
        word = 0
        while mask:
            out[row, word] = mask & full
            mask >>= 64
            word += 1
    return out


class _Pool:
    """Insertion-ordered value -> dense index pool."""

    __slots__ = ("index", "items")

    def __init__(self) -> None:
        self.index: dict = {}
        self.items: list = []

    def add(self, value) -> int:
        idx = self.index.get(value)
        if idx is None:
            idx = self.index[value] = len(self.items)
            self.items.append(value)
        return idx


# ----------------------------------------------------------------------
# Freezing
# ----------------------------------------------------------------------


def freeze_namer(namer, path: str | Path, fingerprint: str) -> dict[str, Any]:
    """Flatten a fitted Namer's compiled matcher state to ``path``.

    ``fingerprint`` is the checksum of the namer's artifact document,
    as :func:`~repro.core.persistence.save_document` returns it; a
    server maps the blob only beside the artifact stamped with it.
    Raises :class:`FrozenError` for a namer that has not been mined.
    Returns a small summary dict (sizes, counts) for CLI output.
    """
    from repro.core.persistence import (
        SCHEMA_VERSION,
        config_to_json,
        pairs_to_json,
    )

    matcher = namer.matcher
    if matcher is None or namer.stats is None:
        raise FrozenError("mine() the Namer before freezing it")
    auto = matcher._automaton
    interner = auto._interner
    if not auto._finalized:
        raise FrozenError("automaton is not finalized")

    # Close the vocabulary under symbolic variants *before* snapshotting
    # (mining already did this; artifact-loaded namers may not have),
    # then make the derived tables and per-ID tables cover all of it.
    sym = list(interner.ensure_symbolic())
    rank = list(interner.sort_ranks())
    fold = list(interner.fold_table())
    name_ok = [bool(x) for x in interner.name_ok_table()]
    auto._extend_pid_tables()
    vocab = interner.paths
    n_vocab = len(vocab)

    strings = _Pool()
    steps = _Pool()
    paths = _Pool()

    def step_idx(step: PathStep) -> int:
        return steps.add((strings.add(step.value), step.index))

    def path_idx(p: NamePath) -> int:
        idx = paths.index.get(p)
        if idx is None:
            idx = paths.index[p] = len(paths.items)
            paths.items.append(p)
        return idx

    # Vocabulary first: pool ids 0..V-1 ARE the interner ids.
    for p in vocab:
        path_idx(p)
    assert len(paths.items) == n_vocab

    patterns = matcher.patterns
    pat_cond_rows: list[list[int]] = []
    pat_ded_rows: list[list[int]] = []
    for pattern in patterns:
        pat_cond_rows.append([path_idx(p) for p in sorted(pattern.condition)])
        pat_ded_rows.append([path_idx(p) for p in sorted(pattern.deduction)])
    sat_path = [path_idx(s[3]) for s in auto._sat]

    # Resolve the path pool to step/string indices (after it is closed).
    pool_rows = [[step_idx(s) for s in p.prefix] for p in paths.items]
    pool_end = [
        -1 if p.end is None else strings.add(p.end) for p in paths.items
    ]

    n_nodes = len(auto._children)
    n_words = max(1, (auto._num_bits + 63) // 64)
    trie_rows: list[list[int]] = []
    trie_child_rows: list[list[int]] = []
    for children in auto._children:
        trie_rows.append([step_idx(s) for s in children])
        trie_child_rows.append(list(children.values()))

    stats = namer.stats

    arrays: list[tuple[str, np.ndarray]] = []

    def add(name: str, data, dtype) -> None:
        arrays.append((name, np.asarray(data, dtype=dtype)))

    def add_csr(
        name: str, rows: Sequence[Sequence[int]], off: str | None = None
    ) -> None:
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        if rows:
            np.cumsum([len(r) for r in rows], out=offsets[1:])
        add(off or f"{name}_off", offsets, np.int64)
        flat: list[int] = []
        for r in rows:
            flat.extend(r)
        add(name, flat, np.int32)

    # Trie + automaton tables.
    add_csr("trie_step", trie_rows)
    flat_children: list[int] = []
    for r in trie_child_rows:
        flat_children.extend(r)
    add("trie_child", flat_children, np.int32)
    add("node_words", _mask_words(auto._node_mask, n_words), np.uint64)
    add("ded_order", auto._ded_node_order, np.int32)
    add(
        "ded_counts",
        [auto._ded_node_counts[n] for n in auto._ded_node_order],
        np.int64,
    )
    add_csr(
        "accept_pat",
        [auto._accepts.get(node, ()) for node in range(n_nodes)],
        off="accept_off",
    )
    add("req_words", _mask_words(auto._req_masks, n_words), np.uint64)
    add("order_node", auto._order_node, np.int32)
    add_csr(
        "cond_node",
        [[node for node, _ in conds] for conds in auto._conds],
        off="cond_off",
    )
    add("cond_tid", [tid for conds in auto._conds for _, tid in conds], np.int32)
    add_csr("ded_node", auto._deds, off="ded_off")
    # For a consistency pattern ``sat_b`` holds the second satisfaction
    # node; for a confusing-word pattern, the expected end-token id.
    add("sat_kind", [1 if s[0] else 0 for s in auto._sat], np.int8)
    add("sat_a", [s[1] for s in auto._sat], np.int32)
    add("sat_b", [s[2] for s in auto._sat], np.int32)
    add("sat_path", sat_path, np.int32)

    # Patterns.
    add(
        "pat_kind",
        [1 if p.kind is PatternKind.CONSISTENCY else 0 for p in patterns],
        np.int8,
    )
    add("pat_support", [p.support for p in patterns], np.int64)
    add_csr("pat_cond", pat_cond_rows)
    add_csr("pat_ded", pat_ded_rows)

    # Path pool.
    add_csr("pool_step", pool_rows)
    add("pool_end", pool_end, np.int32)

    # Interner tables + per-ID tables.
    add("int_sym", sym, np.int32)
    add("int_rank", rank, np.int32)
    add("int_fold", fold, np.int32)
    add("int_name_ok", name_ok, np.int8)
    # Casefolded ends as dense ids, first-seen in vocabulary order and
    # seeded with "" (so a symbolic end and a literal "" end share id
    # 0); end guard bits as bit positions (-1 for none).
    fold_ids = {"": 0}
    pid_foldid = [
        fold_ids.setdefault(fold, len(fold_ids)) for fold in auto._pid_fold
    ]
    add("pid_node", auto._pid_node, np.int32)
    add("pid_tid", auto._pid_tid, np.int32)
    add("pid_conc", [end is not None for end in auto._pid_end], np.int8)
    add("pid_foldid", pid_foldid, np.int32)
    add("pid_ebp", [bit.bit_length() - 1 for bit in auto._pid_endbit], np.int32)

    # Statistics counters, in Counter insertion order (mirrors the JSON
    # encoder exactly).
    for name in ("matches", "satisfactions", "violations"):
        table = getattr(stats, name)
        for level in ("file", "repo"):
            counter = table[level]
            add(
                f"st_{name}_{level}_scope",
                [strings.add(scope) for scope, _ in counter],
                np.int32,
            )
            add(f"st_{name}_{level}_pat", [idx for _, idx in counter], np.int32)
            add(f"st_{name}_{level}_cnt", list(counter.values()), np.int64)
        add(f"st_{name}_dataset_pat", list(table["dataset"]), np.int32)
        add(f"st_{name}_dataset_cnt", list(table["dataset"].values()), np.int64)
    for level in ("file", "repo"):
        scope_col, struct_col, cnt_col = [], [], []
        for (scope, struct), count in stats.statement_counts[level].items():
            scope_col.append(strings.add(scope))
            struct_col.append(strings.add(struct))
            cnt_col.append(count)
        add(f"sc_{level}_scope", scope_col, np.int32)
        add(f"sc_{level}_struct", struct_col, np.int32)
        add(f"sc_{level}_cnt", cnt_col, np.int64)

    # Classifier.
    classifier = namer.classifier
    clf_header = None
    if classifier is not None:
        clf_header = {
            "intercept": float(classifier.classifier.intercept_),
            "pca": classifier.pca is not None,
        }
        add("clf_scaler_mean", classifier.scaler.mean_, np.float64)
        add("clf_scaler_scale", classifier.scaler.scale_, np.float64)
        add("clf_coef", np.asarray(classifier.classifier.coef_), np.float64)
        if classifier.pca is not None:
            add("clf_pca_components", classifier.pca.components_, np.float64)
            add("clf_pca_mean", classifier.pca.mean_, np.float64)

    fold_pool = [strings.add(folded) for folded in fold_ids]
    end_tokens = list(auto._end_tid)
    header: dict[str, Any] = {
        "format": "repro-frozen-artifact",
        "pipeline_version": PIPELINE_VERSION,
        "artifact_schema": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "config": config_to_json(namer),
        "pairs": pairs_to_json(namer),
        "classifier": clf_header,
        "strings": strings.items,
        "steps": steps.items,
        "end_tokens": [strings.add(tok) for tok in end_tokens],
        "end_bit_pos": [
            (auto._end_bits[tok].bit_length() - 1)
            if tok in auto._end_bits
            else -1
            for tok in end_tokens
        ],
        "step_bits": [
            [strings.add(value), bit.bit_length() - 1]
            for value, bit in auto._step_bits.items()
        ],
        "fold_pool": fold_pool,
        "num_bits": auto._num_bits,
        "n_nodes": n_nodes,
        "n_patterns": len(patterns),
        "n_vocab": n_vocab,
        "n_pool": len(paths.items),
        "intern_cap": max(2 * n_vocab, 1 << 16),
        "total_statements": stats.total_statements,
    }
    # `steps` entries are (string_idx, index) tuples; JSON turns them
    # into lists, which is what the loader expects.
    header["steps"] = [list(s) for s in steps.items]

    size = _write_blob(Path(path), header, arrays)
    return {
        "path": str(path),
        "bytes": size,
        "arrays": len(arrays),
        "nodes": n_nodes,
        "patterns": len(patterns),
        "vocab": n_vocab,
        "fingerprint": fingerprint,
    }


def _write_blob(
    path: Path, header: dict[str, Any], arrays: list[tuple[str, np.ndarray]]
) -> int:
    manifest = []
    chunks: list[tuple[int, bytes]] = []
    offset = 0
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        raw = arr.tobytes()
        pad = (-offset) % _ALIGN
        offset += pad
        manifest.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
            }
        )
        chunks.append((pad, raw))
        offset += len(raw)
    header = dict(header)
    header["arrays"] = manifest
    hjson = json.dumps(header, separators=(",", ":")).encode("utf-8")
    head = _MAGIC + len(hjson).to_bytes(8, "little") + hjson
    head += b"\0" * ((-len(head)) % _ALIGN)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(head)
            for pad, raw in chunks:
                if pad:
                    out.write(b"\0" * pad)
                out.write(raw)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(head) + sum(pad + len(raw) for pad, raw in chunks)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


class FrozenArtifact:
    """A mapped, checksum-verified frozen blob: the parsed header plus
    zero-copy array views into the file's page cache."""

    __slots__ = ("path", "header", "arrays", "_raw")

    def __init__(self, path: str, header: dict, arrays: dict, raw) -> None:
        self.path = path
        self.header = header
        self.arrays = arrays
        self._raw = raw

    @classmethod
    def open(cls, path: str | Path, *, verify: bool = True) -> "FrozenArtifact":
        raw, header, payload = _open_raw(path)
        if header.get("pipeline_version") != PIPELINE_VERSION:
            raise FrozenError(
                f"frozen artifact {path} has pipeline_version "
                f"{header.get('pipeline_version')!r}, this build reads "
                f"{PIPELINE_VERSION}"
            )
        arrays = _map_arrays(raw, header, payload, str(path), verify=verify)
        return cls(str(path), header, arrays, raw)

    def to_namer(self):
        try:
            return _namer_from_artifact(self)
        except FrozenError:
            raise
        except Exception as exc:
            raise FrozenError(
                f"frozen artifact {self.path} is malformed: {exc!r}"
            ) from exc


def _open_raw(path: str | Path):
    try:
        raw = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise FrozenError(f"cannot map frozen artifact {path}: {exc}") from exc
    if len(raw) < 16 or bytes(raw[:8]) != _MAGIC:
        raise FrozenError(f"frozen artifact {path} has a bad magic header")
    hlen = int.from_bytes(bytes(raw[8:16]), "little")
    if hlen <= 0 or 16 + hlen > len(raw):
        raise FrozenError(f"frozen artifact {path} has a truncated header")
    try:
        header = json.loads(bytes(raw[16 : 16 + hlen]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrozenError(
            f"frozen artifact {path} has a corrupt header: {exc}"
        ) from exc
    if not isinstance(header, dict) or "arrays" not in header:
        raise FrozenError(f"frozen artifact {path} has a malformed header")
    payload = 16 + hlen + ((-(16 + hlen)) % _ALIGN)
    return raw, header, payload


def _map_arrays(
    raw, header: dict, payload: int, label: str, *, verify: bool
) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(d) for d in entry["shape"])
            name = entry["name"]
            offset = int(entry["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FrozenError(
                f"frozen artifact {label} has a malformed array manifest: {exc!r}"
            ) from exc
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        start = payload + offset
        if start < 0 or start + nbytes > len(raw):
            raise FrozenError(
                f"frozen artifact {label} is truncated (array {name!r})"
            )
        view = raw[start : start + nbytes]
        if verify and (zlib.crc32(view) & 0xFFFFFFFF) != entry.get("crc32"):
            raise FrozenError(
                f"frozen artifact {label} failed its CRC check (array {name!r})"
            )
        arrays[name] = view.view(dtype).reshape(shape)
    return arrays


def load_frozen_namer(path: str | Path):
    """Reconstruct a fitted Namer from a frozen blob.

    Raises :class:`FrozenError` for anything that is not a healthy
    blob of the current schema era — callers treat that as a cache
    miss and fall back to the JSON artifact.  The ``frozen.load`` fault
    site injects exactly this failure.
    """
    fault_check("frozen.load", key=str(path))
    art = FrozenArtifact.open(path)
    return art.to_namer()


def _namer_from_artifact(art: FrozenArtifact):
    from repro.core.namer import Namer, NamerConfig
    from repro.mining.confusing_pairs import ConfusingPairStore
    from repro.mining.miner import MiningConfig
    from repro.ml.linear import LinearSVM
    from repro.ml.pipeline import ClassifierPipeline
    from repro.ml.preprocess import PCA, StandardScaler

    header = art.header
    arrays = art.arrays
    strings: list[str] = header["strings"]
    steps = [
        PathStep(value=sys.intern(strings[si]), index=ix)
        for si, ix in header["steps"]
    ]

    # Path pool (vocabulary first — pool ids 0..V-1 are interner ids).
    pool_off = arrays["pool_step_off"].tolist()
    pool_step = arrays["pool_step"].tolist()
    pool_end = arrays["pool_end"].tolist()
    pool: list[NamePath] = []
    for i in range(header["n_pool"]):
        prefix = tuple(steps[k] for k in pool_step[pool_off[i] : pool_off[i + 1]])
        end = pool_end[i]
        pool.append(
            NamePath(prefix=prefix, end=None if end < 0 else strings[end])
        )
    n_vocab = header["n_vocab"]

    interner = PathInterner.__new__(PathInterner)
    interner._paths = pool[:n_vocab]
    interner._ids = {p: i for i, p in enumerate(interner._paths)}
    interner._tables_upto = {
        "sym": arrays["int_sym"].tolist(),
        "rank": (n_vocab, arrays["int_rank"].tolist()),
        "name_ok": [bool(x) for x in arrays["int_name_ok"].tolist()],
    }

    # Patterns from the shared pool.
    pat_kind = arrays["pat_kind"].tolist()
    pat_support = arrays["pat_support"].tolist()
    pc_off = arrays["pat_cond_off"].tolist()
    pc = arrays["pat_cond"].tolist()
    pd_off = arrays["pat_ded_off"].tolist()
    pd = arrays["pat_ded"].tolist()
    patterns: list[NamePattern] = []
    for i in range(header["n_patterns"]):
        patterns.append(
            NamePattern(
                condition=frozenset(pool[j] for j in pc[pc_off[i] : pc_off[i + 1]]),
                deduction=frozenset(pool[j] for j in pd[pd_off[i] : pd_off[i + 1]]),
                kind=(
                    PatternKind.CONSISTENCY
                    if pat_kind[i]
                    else PatternKind.CONFUSING_WORD
                ),
                support=pat_support[i],
            )
        )

    # Automaton: the Python structures a compile builds, rebuilt
    # eagerly (the trie is tiny).
    auto = MatchAutomaton.__new__(MatchAutomaton)
    auto.patterns = patterns
    n_nodes = header["n_nodes"]
    trie_off = arrays["trie_step_off"].tolist()
    trie_step = arrays["trie_step"].tolist()
    trie_child = arrays["trie_child"].tolist()
    children: list[dict[PathStep, int]] = []
    for node in range(n_nodes):
        lo, hi = trie_off[node], trie_off[node + 1]
        children.append(
            {steps[trie_step[k]]: trie_child[k] for k in range(lo, hi)}
        )
    auto._children = children
    node_words = arrays["node_words"]
    auto._node_mask = [
        int.from_bytes(node_words[n].tobytes(), "little")
        for n in range(n_nodes)
    ]
    prefixes: list[tuple[PathStep, ...]] = [()] * n_nodes
    for parent in range(n_nodes):
        base = prefixes[parent]
        for step, child in children[parent].items():
            prefixes[child] = base + (step,)
    auto._node_prefix = prefixes
    auto._step_bits = {
        sys.intern(strings[si]): 1 << pos for si, pos in header["step_bits"]
    }
    end_tokens = [sys.intern(strings[si]) for si in header["end_tokens"]]
    auto._end_bits = {
        tok: 1 << pos
        for tok, pos in zip(end_tokens, header["end_bit_pos"])
        if pos >= 0
    }
    auto._num_bits = header["num_bits"]
    auto._end_tid = {tok: i for i, tok in enumerate(end_tokens)}
    auto._ded_node_order = arrays["ded_order"].tolist()
    auto._ded_node_counts = dict(
        zip(auto._ded_node_order, arrays["ded_counts"].tolist())
    )
    cond_off = arrays["cond_off"].tolist()
    cond_node = arrays["cond_node"].tolist()
    cond_tid = arrays["cond_tid"].tolist()
    auto._conds = [
        tuple(
            zip(
                cond_node[cond_off[i] : cond_off[i + 1]],
                cond_tid[cond_off[i] : cond_off[i + 1]],
            )
        )
        for i in range(len(patterns))
    ]
    ded_off = arrays["ded_off"].tolist()
    ded_node = arrays["ded_node"].tolist()
    auto._deds = [
        tuple(ded_node[ded_off[i] : ded_off[i + 1]])
        for i in range(len(patterns))
    ]
    req_words = arrays["req_words"]
    auto._req_masks = [
        int.from_bytes(req_words[i].tobytes(), "little")
        for i in range(len(patterns))
    ]
    auto._order_node = arrays["order_node"].tolist()
    auto._ded_prefixes = [
        [pool[j].prefix for j in pd[pd_off[i] : pd_off[i + 1]]]
        for i in range(len(patterns))
    ]
    sat_kind = arrays["sat_kind"].tolist()
    sat_a = arrays["sat_a"].tolist()
    sat_b = arrays["sat_b"].tolist()
    sat_path = arrays["sat_path"].tolist()
    auto._sat = [
        (bool(sat_kind[i]), sat_a[i], sat_b[i], pool[sat_path[i]])
        for i in range(len(patterns))
    ]
    accept_off = arrays["accept_off"].tolist()
    accept_pat = arrays["accept_pat"].tolist()
    accepts: dict[int, list[int]] = {}
    for node in range(n_nodes):
        lo, hi = accept_off[node], accept_off[node + 1]
        if hi > lo:
            accepts[node] = accept_pat[lo:hi]
    auto._accepts = accepts
    auto._finalized = True
    auto._interner = interner
    auto._intern_cap = header["intern_cap"]

    # Per-ID tables, seeded from the blob (``_pid_node`` last, as
    # ``_reset_pid_tables`` orders them).
    fold_pool = [sys.intern(strings[si]) for si in header["fold_pool"]]
    auto._pid_endbit = [
        (1 << pos) if pos >= 0 else 0 for pos in arrays["pid_ebp"].tolist()
    ]
    auto._pid_end = [p.end for p in interner._paths]
    auto._pid_tid = arrays["pid_tid"].tolist()
    auto._pid_fold = [fold_pool[f] for f in arrays["pid_foldid"].tolist()]
    auto._pid_node = arrays["pid_node"].tolist()

    matcher = PatternMatcher.__new__(PatternMatcher)
    matcher._init_from_parts(
        patterns, auto.deduction_prefix_counts(), None, auto
    )

    config = header["config"]
    namer = Namer(
        NamerConfig(
            mining=MiningConfig(
                max_paths_per_statement=config["max_paths_per_statement"]
            ),
            use_analysis=config["use_analysis"],
            use_classifier=config["use_classifier"],
        )
    )
    namer.matcher = matcher
    namer.pairs = ConfusingPairStore()
    for mistaken, correct, count in header["pairs"]:
        namer.pairs.add(mistaken, correct, count)
    namer.stats = FrozenStats(art.path, header["total_statements"], art)
    namer.stats.bind(matcher)

    clf_header = header.get("classifier")
    if clf_header is None:
        namer.classifier = None
    else:
        pipeline = ClassifierPipeline(LinearSVM(), n_components=None)
        pipeline.scaler = StandardScaler()
        pipeline.scaler.mean_ = arrays["clf_scaler_mean"]
        pipeline.scaler.scale_ = arrays["clf_scaler_scale"]
        if clf_header.get("pca"):
            pca = PCA()
            pca.components_ = arrays["clf_pca_components"]
            pca.mean_ = arrays["clf_pca_mean"]
            pipeline.pca = pca
        else:
            pipeline.pca = None
        pipeline.classifier.coef_ = arrays["clf_coef"]
        pipeline.classifier.intercept_ = clf_header["intercept"]
        namer.classifier = pipeline

    # The precomputed JSON-document checksum: engines and index tiers
    # read it instead of re-encoding the whole namer (~40% of a
    # JSON-artifact cold start by itself).
    namer.frozen_fingerprint = header.get("fingerprint")
    namer.frozen_path = art.path
    return namer


# ----------------------------------------------------------------------
# Lazy, array-backed statistics
# ----------------------------------------------------------------------


class FrozenStats(StatsIndex):
    """A :class:`StatsIndex` whose counters materialize lazily from the
    frozen blob's arrays.

    Cold start only parses the header; the Counter dicts are rebuilt —
    in their original insertion order, so re-saves stay byte-identical
    — on first access.  Pickling ships only the blob path and the
    statement total; workers re-map the arrays instead of serializing
    the counters.
    """

    def __init__(self, path, total_statements, artifact=None):
        self._path = str(path)
        self._total = int(total_statements)
        self._artifact = artifact
        self._cache = None

    # -- lazy field materialization ------------------------------------

    def _tables(self) -> dict:
        cache = self._cache
        if cache is None:
            cache = self._cache = self._materialize()
        return cache

    def _materialize(self) -> dict:
        art = self._artifact
        if art is None:
            art = FrozenArtifact.open(self._path)
        self._artifact = None
        strings = art.header["strings"]
        arrays = art.arrays

        def column(name: str, pooled: bool = False) -> list:
            values = arrays[name].tolist()
            return [strings[v] for v in values] if pooled else values

        def counter(keys, counts: str) -> Counter:
            out: Counter = Counter()
            dict.update(out, zip(keys, column(counts)))
            return out

        out: dict[str, Any] = {}
        for name in ("matches", "satisfactions", "violations"):
            table = {
                level: counter(
                    zip(
                        column(f"st_{name}_{level}_scope", pooled=True),
                        column(f"st_{name}_{level}_pat"),
                    ),
                    f"st_{name}_{level}_cnt",
                )
                for level in ("file", "repo")
            }
            table["dataset"] = counter(
                column(f"st_{name}_dataset_pat"), f"st_{name}_dataset_cnt"
            )
            out[name] = table
        out["statement_counts"] = {
            level: counter(
                zip(
                    column(f"sc_{level}_scope", pooled=True),
                    column(f"sc_{level}_struct", pooled=True),
                ),
                f"sc_{level}_cnt",
            )
            for level in ("file", "repo")
        }
        return out

    @property
    def matches(self):
        return self._tables()["matches"]

    @property
    def satisfactions(self):
        return self._tables()["satisfactions"]

    @property
    def violations(self):
        return self._tables()["violations"]

    @property
    def statement_counts(self):
        return self._tables()["statement_counts"]

    @property
    def total_statements(self) -> int:
        return self._total

    # -- pickling ------------------------------------------------------

    def __getstate__(self) -> dict:
        return {"path": self._path, "total": self._total}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"], state["total"])
