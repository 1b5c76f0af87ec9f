"""Binary on-disk format for rank tables.

Layout (version 2): magic b"RNKT", then format version and n_max as
little-endian u32, then the rows in order n = 0 .. n_max.  A file holds
exactly the rows a RankTable stores: ranks are symmetric,
N(-m, n) = N(m, n), so row n is only the half m = 0 .. n-1 (row 0 is
its single count), written as a LEB128 byte width w >= 1, then the
max(n, 1) counts, each in w little-endian bytes.  Counts are
nonnegative, so no sign byte is needed.  Version 1 files, which stored
every count of the full row with its own length, are rejected.

Saves go through a temporary file next to the target that is renamed
into place, so a reader never sees a half-written table.  Loads check
the magic, the version, that the header, each width and each row are
complete, that no bytes trail the last row, and that every row sums to
p(n), that is 2 * sum(half) - N(0, n); symmetry holds by construction.
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

from .core import RankTable, partition_numbers

MAGIC = b"RNKT"
VERSION = 2

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
                half = table._row(n)
                width = max((max(half).bit_length() + 7) // 8, 1)
                buf = bytearray()
                _write_varint(buf, width)
                for value in half:
                    buf += value.to_bytes(width, "little")
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
    from_bytes = int.from_bytes  # bound once: the row loop calls it per count
    rows: list[list[int]] = []
    for n in range(n_max + 1):
        shift = 0
        width = 0
        while True:
            if pos >= end:
                raise CacheFormatError("truncated varint")
            byte = data[pos]
            pos += 1
            width |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        if width == 0:
            raise CacheFormatError(f"row {n} has byte width 0")
        stop = pos + width * max(n, 1)
        if stop > end:
            raise CacheFormatError("truncated value")
        half = [from_bytes(data[i:i + width], "little")
                for i in range(pos, stop, width)]
        pos = stop
        rows.append(half)
    if pos != end:
        raise CacheFormatError(f"{end - pos} trailing bytes")
    # n_max is bounded by the file size here, so p(n_max) is cheap.
    p = partition_numbers(n_max)
    for n, half in enumerate(rows):
        if 2 * sum(half) - half[0] != p[n]:
            raise CacheFormatError(f"row {n} fails the p(n) sum check")
    return RankTable(n_max, rows)
