"""Fetch-trace persistence.

Traces from multi-million-instruction runs are expensive to recreate;
this module stores them compactly (the SimpleScalar world solved the
same problem with EIO trace files).  Format: a small JSON header plus
a zlib-compressed stream of 4-byte little-endian *word deltas* —
instruction fetches are mostly sequential (+1 word), so the delta
stream compresses extremely well.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable

MAGIC = b"RPTR"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TraceHeader:
    """Metadata stored alongside a trace."""

    name: str
    text_base: int
    length: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": FORMAT_VERSION,
                "name": self.name,
                "text_base": self.text_base,
                "length": self.length,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TraceHeader":
        data = json.loads(text)
        if data.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported trace version {data.get('version')!r}")
        return cls(
            name=data["name"],
            text_base=data["text_base"],
            length=data["length"],
        )


def dump_trace(
    addresses: Iterable[int],
    name: str = "trace",
    text_base: int = 0,
    level: int = 6,
) -> bytes:
    """Serialise a fetch trace to bytes."""
    header = TraceHeader(name=name, text_base=text_base, length=len(addresses))
    deltas = bytearray()
    previous = 0
    for address in addresses:
        if address % 4:
            raise ValueError(f"unaligned fetch address {address:#x}")
        delta = (address - previous) >> 2
        deltas += struct.pack("<i", delta)
        previous = address
    payload = zlib.compress(bytes(deltas), level)
    header_bytes = header.to_json().encode()
    return (
        MAGIC
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + payload
    )


def load_trace(blob: bytes) -> tuple[TraceHeader, list[int]]:
    """Deserialise a trace produced by :func:`dump_trace`."""
    if blob[:4] != MAGIC:
        raise ValueError("not a repro trace file (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = TraceHeader.from_json(blob[8 : 8 + header_len].decode())
    deltas = zlib.decompress(blob[8 + header_len :])
    if len(deltas) != 4 * header.length:
        raise ValueError(
            f"trace corrupt: expected {header.length} entries, "
            f"got {len(deltas) // 4}"
        )
    addresses: list[int] = []
    previous = 0
    for (delta,) in struct.iter_unpack("<i", deltas):
        previous += delta << 2
        addresses.append(previous)
    return header, addresses


def save_trace_file(
    path, addresses: Iterable[int], name: str = "trace", text_base: int = 0
) -> int:
    """Write a trace to disk; returns the byte size on disk."""
    blob = dump_trace(addresses, name=name, text_base=text_base)
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_trace_file(path) -> tuple[TraceHeader, list[int]]:
    """Read a trace from disk."""
    with open(path, "rb") as handle:
        return load_trace(handle.read())
