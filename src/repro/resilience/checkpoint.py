"""Atomic writes and SHA-256-checksummed stage checkpoints.

Two failure modes motivate this module:

* **Torn writes.** A process killed mid-``write_text`` leaves a
  truncated artifact that may still be valid JSON (silently wrong).
  :func:`atomic_write_text` writes to a temp file in the same directory
  and ``os.replace``\\ s it into place, so readers only ever see the old
  bytes or the complete new bytes.
* **Lost work.** Mining a big corpus takes hours; a killed run must not
  restart from scratch.  :class:`CheckpointStore` persists each pipeline
  stage's output under a content checksum, and ``repro mine --resume``
  replays only the stages whose checkpoints are missing or corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "sha256_of",
    "document_checksum",
    "CheckpointError",
    "CheckpointStore",
]


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file + ``os.replace``.

    The temp file lives in the destination directory so the final
    rename is atomic (same filesystem); it is fsynced before the rename
    so a crash cannot publish an empty file under the final name.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_of(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def document_checksum(document: dict) -> str:
    """Content checksum of a JSON document, excluding its own stamp.

    Canonical form (sorted keys, no whitespace) so the checksum is
    independent of key insertion order and formatting.
    """
    payload = {k: v for k, v in document.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256_of(canonical)


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be trusted."""


def _stamp(stage: str, inputs: str, payload: bytes) -> str:
    """A checkpoint's SHA-256 stamp over its stage, its inputs and its
    payload's encoded JSON text."""
    digest = hashlib.sha256(json.dumps([stage, inputs]).encode() + b"\n")
    digest.update(payload)
    return digest.hexdigest()


class CheckpointStore:
    """Named stage checkpoints under one directory.

    Each ``save(stage, payload, inputs)`` writes
    ``<dir>/<stage>.ckpt.json`` atomically with a SHA-256 stamp over the
    stage, the ``inputs`` fingerprint of the run that produced it and
    the payload's ``json.dumps`` text — the same text the file holds, so
    the payload is encoded once.  ``load`` re-encodes the decoded
    payload (``json`` round-trips its own output exactly), verifies the
    stamp, and raises :class:`CheckpointError` on any mismatch, so a
    resume never silently continues from torn state or from a run over
    other inputs.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path_for(self, stage: str) -> Path:
        return self.directory / f"{stage}.ckpt.json"

    def save(self, stage: str, payload: dict, inputs: str = "") -> Path:
        from repro.resilience.faults import fault_check

        self.directory.mkdir(parents=True, exist_ok=True)
        data = json.dumps(payload).encode()
        head = (
            f'{{"stage": {json.dumps(stage)}, "inputs": {json.dumps(inputs)}, '
            f'"checksum": "{_stamp(stage, inputs, data)}", "payload": '
        )
        path = self.path_for(stage)
        fault_check("checkpoint.save", key=str(path))
        atomic_write_bytes(path, head.encode() + data + b"}")
        return path

    def has(self, stage: str) -> bool:
        return self.path_for(stage).exists()

    def load(self, stage: str, inputs: str = "") -> dict | None:
        """The stage's payload, ``None`` if never checkpointed, or
        :class:`CheckpointError` if present but corrupt or written for
        other ``inputs``."""
        path = self.path_for(stage)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON") from exc
        if not isinstance(document, dict) or "payload" not in document:
            raise CheckpointError(f"checkpoint {path} is malformed")
        if document.get("inputs") != inputs:
            raise CheckpointError(f"checkpoint {path} was written for other inputs")
        expected = document.get("checksum")
        actual = _stamp(stage, inputs, json.dumps(document["payload"]).encode())
        if expected != actual:
            raise CheckpointError(
                f"checkpoint {path} failed its SHA-256 verification "
                f"(stamped {str(expected)[:12]}…, computed {actual[:12]}…)"
            )
        return document["payload"]

    def clear(self) -> int:
        """Delete every checkpoint (after a successful full run)."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.ckpt.json"):
                path.unlink(missing_ok=True)
                removed += 1
            try:
                self.directory.rmdir()
            except OSError:
                pass  # non-checkpoint files present; leave the directory
        return removed
