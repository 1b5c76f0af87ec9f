"""Binary on-disk format for rank tables.

Layout: magic b"RNKT", then format version and n_max as little-endian
u32, then the rows in order n = 0 .. n_max.  Row n holds max(2n-1, 1)
counts for m = -(n-1) .. n-1; each count is a LEB128 byte length
followed by that many little-endian magnitude bytes (zero encodes as
length 0).  Counts are nonnegative, so no sign byte is needed.

Saves go through a temporary file next to the target that is renamed
into place, so a reader never sees a half-written table.  Loads
check that every row sums to p(n) and is symmetric in m.
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

from .core import RankTable, partition_numbers

MAGIC = b"RNKT"
VERSION = 1

_HEADER = struct.Struct("<4sII")


class CacheFormatError(ValueError):
    """Raised when a table cache file cannot be understood."""


def _write_varint(buf: bytearray, value: int) -> None:
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def save_table(table: RankTable, path: str | Path) -> None:
    """Serialize a table; atomically replaces path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, table.n_max))
            for n in range(table.n_max + 1):
                buf = bytearray()
                for value in table.row(n):
                    nbytes = (value.bit_length() + 7) // 8
                    _write_varint(buf, nbytes)
                    buf += value.to_bytes(nbytes, "little")
                fh.write(buf)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_table(path: str | Path) -> RankTable:
    """Read a table back; raises CacheFormatError on any malformation."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CacheFormatError("truncated header")
    magic, version, n_max = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CacheFormatError(f"unsupported version {version}")
    pos = _HEADER.size
    end = len(data)
    rows: list[list[int]] = []
    for n in range(n_max + 1):
        width = max(2 * n - 1, 1)
        row = []
        for _ in range(width):
            shift = 0
            nbytes = 0
            while True:
                if pos >= end:
                    raise CacheFormatError("truncated varint")
                byte = data[pos]
                pos += 1
                nbytes |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            if pos + nbytes > end:
                raise CacheFormatError("truncated value")
            row.append(int.from_bytes(data[pos:pos + nbytes], "little"))
            pos += nbytes
        rows.append(row)
    if pos != end:
        raise CacheFormatError(f"{end - pos} trailing bytes")
    # n_max is bounded by the file size here, so p(n_max) is cheap.
    p = partition_numbers(n_max)
    for n, row in enumerate(rows):
        if sum(row) != p[n] or row != row[::-1]:
            raise CacheFormatError(f"row {n} fails the p(n) sum or symmetry check")
    return RankTable(n_max, rows)
