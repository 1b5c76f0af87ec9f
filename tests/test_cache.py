"""Round-trip fidelity and malformed-input rejection for the binary
table format."""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct

import pytest

from dysonrank import (
    CacheFormatError,
    build_rank_table,
    load_table,
    save_table,
)
from dysonrank.cli import main


@pytest.fixture()
def saved(tmp_path):
    table = build_rank_table(60)
    path = tmp_path / "table.rnkt"
    save_table(table, path)
    return table, path


class TestRoundTrip:
    def test_equality(self, saved):
        table, path = saved
        assert load_table(path) == table

    def test_zero_size_table(self, tmp_path):
        table = build_rank_table(0)
        path = tmp_path / "zero.rnkt"
        save_table(table, path)
        assert load_table(path) == table

    def test_failed_save_keeps_old_file(self, saved, tmp_path):
        table, path = saved
        bigger = build_rank_table(80)

        class FailsMidWrite:
            n_max = bigger.n_max

            def _row(self, n):
                if n == 40:
                    raise RuntimeError("simulated write failure")
                return bigger._row(n)

        with pytest.raises(RuntimeError):
            save_table(FailsMidWrite(), path)
        assert load_table(path) == table
        assert list(tmp_path.iterdir()) == [path]

    def test_bytes_are_pinned(self, saved):
        # The version-2 file of build_rank_table(60), frozen: a different
        # digest would mean that cache files written before no longer
        # hold what a save writes now.
        _, path = saved
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "05f7e2aa495c02286eef4c1631ab5ea5e76fd35fb502ea2b301da2d8edf99a19")

    def test_header_fields(self, saved):
        _, path = saved
        raw = path.read_bytes()
        magic, version, n_max = struct.unpack_from("<4sII", raw)
        assert magic == b"RNKT"
        assert version == 2
        assert n_max == 60

    @pytest.mark.parametrize("n_max", [0, 1, 60])
    def test_half_rows_round_trip(self, tmp_path, n_max):
        # Row n stores a width byte and the max(n, 1) counts m >= 0.
        table = build_rank_table(n_max)
        path = tmp_path / "t.rnkt"
        save_table(table, path)
        assert load_table(path) == table
        widths = [(max(table.row(n)).bit_length() + 7) // 8
                  for n in range(n_max + 1)]
        assert path.stat().st_size == 12 + sum(
            1 + w * max(n, 1) for n, w in enumerate(widths))


class TestMalformedInput:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_table(tmp_path / "absent.rnkt")

    def test_bad_magic(self, saved, tmp_path):
        _, path = saved
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        bad = tmp_path / "magic.rnkt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CacheFormatError):
            load_table(bad)

    def test_bad_version(self, saved, tmp_path):
        _, path = saved
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        bad = tmp_path / "version.rnkt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CacheFormatError):
            load_table(bad)

    def test_version_1_file_is_a_usage_error(self, tmp_path):
        old = tmp_path / "v1.rnkt"
        old.write_bytes(struct.pack("<4sII", b"RNKT", 1, 0) + b"\x01\x01")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["count", "--r", "0", "--t", "3", "--n", "0",
                         "--n-max", "4", "--show-row", "--table-cache",
                         str(old)])
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "error: unusable table cache: unsupported version 1\n")

    def test_huge_n_max_fails_before_partition_numbers(self, tmp_path,
                                                       monkeypatch):
        def refuse(n_max):
            raise AssertionError(f"p({n_max}) computed")

        monkeypatch.setattr("dysonrank.cache.partition_numbers", refuse)
        bad = tmp_path / "huge.rnkt"
        bad.write_bytes(struct.pack("<4sII", b"RNKT", 2, 2 ** 32 - 1))
        with pytest.raises(CacheFormatError):
            load_table(bad)

    def test_zero_width(self, tmp_path):
        bad = tmp_path / "width.rnkt"
        bad.write_bytes(struct.pack("<4sII", b"RNKT", 2, 0) + b"\x00")
        with pytest.raises(CacheFormatError):
            load_table(bad)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "short.rnkt"
        bad.write_bytes(b"RNKT\x01")
        with pytest.raises(CacheFormatError):
            load_table(bad)

    def test_truncated_body(self, saved, tmp_path):
        _, path = saved
        raw = path.read_bytes()
        bad = tmp_path / "cut.rnkt"
        bad.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CacheFormatError):
            load_table(bad)

    def test_trailing_garbage(self, saved, tmp_path):
        _, path = saved
        bad = tmp_path / "extra.rnkt"
        bad.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CacheFormatError):
            load_table(bad)

    @pytest.mark.parametrize("where", ["middle", "last"])
    def test_flipped_byte(self, saved, tmp_path, where):
        # The last byte is the magnitude of N(59, 60) = 1, so flipping
        # it leaves the file well formed and only the counts wrong.
        _, path = saved
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2 if where == "middle" else -1] ^= 0x01
        bad = tmp_path / "flipped.rnkt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CacheFormatError):
            load_table(bad)
