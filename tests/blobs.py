"""Damage frozen blobs on purpose, the way a disk or a hand edit would.

The layout these helpers rely on (:mod:`repro.mining.frozen`): an
8-byte magic, the header's byte length and CRC-32 as two little-endian
uint32 words, the JSON header, zero padding to a 64-byte boundary, then
the arrays at the manifest's offsets from that boundary.
"""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path

PREAMBLE = 16
ALIGN = 64


def split(blob: bytes) -> tuple[dict, bytes, int]:
    """(header, header bytes, payload start) of a blob."""
    hlen = int.from_bytes(blob[8:12], "little")
    raw = blob[PREAMBLE : PREAMBLE + hlen]
    payload = PREAMBLE + hlen + (-(PREAMBLE + hlen)) % ALIGN
    return json.loads(raw), raw, payload


def header_of(path: Path) -> dict:
    return split(Path(path).read_bytes())[0]


def rewrite_header(src: Path, dst: Path, mutate) -> None:
    """Write ``src`` to ``dst`` with ``mutate(header)`` applied and the
    header CRC recomputed, so only the loader's semantic checks see it."""
    blob = Path(src).read_bytes()
    header, _, payload = split(blob)
    mutate(header)
    raw = json.dumps(header, separators=(",", ":")).encode()
    head = blob[:8] + len(raw).to_bytes(4, "little")
    head += zlib.crc32(raw).to_bytes(4, "little") + raw
    head += b"\0" * (-len(head) % ALIGN)
    Path(dst).write_bytes(head + blob[payload:])


def flip_array_byte(src: Path, dst: Path, name: str, at: int = 0) -> None:
    """Write ``src`` to ``dst`` with byte ``at`` of array ``name``
    flipped (its manifest CRC left as it was)."""
    blob = bytearray(Path(src).read_bytes())
    header, _, payload = split(bytes(blob))
    (entry,) = [e for e in header["arrays"] if e["name"] == name]
    blob[payload + entry["offset"] + at] ^= 0x01
    Path(dst).write_bytes(bytes(blob))


def change_header_digit(src: Path, dst: Path, pattern: str) -> None:
    """Write ``src`` to ``dst`` with the digit captured by ``pattern``
    (a regex over the header text) changed and the header CRC left as
    it was: the edit keeps the header's length and its JSON valid."""
    blob = bytearray(Path(src).read_bytes())
    _, raw, _ = split(bytes(blob))
    match = re.search(pattern.encode(), raw)
    assert match, f"{pattern!r} not in the header"
    at = PREAMBLE + match.start(1)
    blob[at] = ord("0") + (blob[at] - ord("0") + 1) % 10
    Path(dst).write_bytes(bytes(blob))
