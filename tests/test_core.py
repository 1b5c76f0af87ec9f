"""Exactness of the partition/rank counting core.

Two independent oracles check the production table, which is built by
the rank-tail recurrence T(m, n) = p(n - 1 - m) - T(m + 3, n - 1 - m),
a rewriting of the Atkin-Swinnerton-Dyer fixed-rank formula.
The production residue counts come from columns, a different sum of
the same formula divided by Euler's product; row_residue_count, which
sums every t-th entry of a table row, is their oracle.
The brute-force enumerator literally builds every partition and
measures its rank.  The series oracle below expands the two-variable
rank generating function, a different algorithm that reaches much
larger n.  A third oracle, entry_half_row, evaluates the same formula
one count at a time, with no telescoping and no slices, and reaches
single rows past any table.  A fourth, strided_half_row, is the row
kernel the production one replaced: strided slices of p summed into the
counts F(m, n) of rank >= m, then differenced, so it reads no cached
d_k.  Small rows are also checked against hand-derived values.
loop_divide_by_euler, the per-term pentagonal loop, is the oracle for
the division behind p(n) and every residue column.
"""

from __future__ import annotations

import cmath
import os
import subprocess
import sys
from operator import add, itemgetter, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonrank import (
    MAX_TABLE_ROWS,
    RankTable,
    a_third_exact,
    brute_rank_counts,
    build_rank_table,
    decomposition_check,
    enumerate_partitions,
    partition_number,
    partition_numbers,
    rank,
    rank_count,
    residue_column,
    residue_count,
    table_for,
)
from dysonrank import core
from dysonrank.core import _half_row


def row_residue_count(table, r, t, n):
    """N(r, t; n) as the sum of every t-th entry of the table's row n."""
    if n == 0:
        return 1 if r == 0 else 0
    row = table.row(n)
    # row index i holds m = i - (n-1), so i runs over (r + n - 1) mod t steps
    return sum(row[(r + n - 1) % t::t])


def entry_decomposition_check(table, r, t, n, tol=1e-6):
    """decomposition_check with one complex power per row entry: the
    root-of-unity average of row n against the exact N(r, t; n)."""
    exact = residue_count(table, r, t, n)
    row = table.row(n)
    lo = 0 if n == 0 else -(n - 1)
    acc = complex(partition_number(n))
    for j in range(1, t):
        z = cmath.exp(2j * cmath.pi * j / t)
        inner = sum(c * z ** (lo + i) for i, c in enumerate(row) if c)
        acc += cmath.exp(-2j * cmath.pi * r * j / t) * inner
    approx = acc / t
    scale = max(1.0, float(abs(exact)))
    return (abs(approx.real - exact) <= tol * scale
            and abs(approx.imag) <= tol * scale)


def entry_half_row(p, n):
    """N(m, n) for m = 0 .. n-1, one count at a time:
    N(m, n) = sum_k (-1)^(k-1) (p(n - a_k) - p(n - a_k - k)) with
    a_k = k(3k-1)/2 + mk, over the k with a_k <= n; n >= 1."""
    half = []
    for m in range(n):
        total = 0
        k = 1
        a = m + 1
        while a <= n:
            term = p[n - a] - p[n - a - k] if a + k <= n else p[n - a]
            total += term if k & 1 else -term
            a += 3 * k + 1 + m  # a_(k+1) - a_k
            k += 1
        half.append(total)
    return half


def strided_half_row(p, n):
    """N(m, n) for m = 0 .. n-1 from F(m, n), the partitions of n with
    rank >= m, as sum_k (-1)^(k-1) p(n - g_k - mk), one strided slice of
    p per k, then N(m, n) = F(m, n) - F(m+1, n); given p at least to n,
    n >= 1."""
    # k = 1 gives F(m, n) = p(n - 1 - m); no partition of n has rank n.
    f = [*p[n - 1::-1], 0]
    k = 2
    g = 5  # g_k
    while g <= n:
        seg = p[n - g::-k]
        width = len(seg)
        f[:width] = map(add if k & 1 else sub, f[:width], seg)
        g += 3 * k + 1  # g_(k+1) - g_k
        k += 1
    return list(map(sub, f, f[1:]))


def coin_partition_numbers(n_max):
    """p(0 .. n_max) by the knapsack over parts, one pass per part: a
    different algorithm from the pentagonal recurrence."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for s in range(part, n_max + 1):
            p[s] += p[s - part]
    return p


def loop_divide_by_euler(series, numerator, n):
    """The per-term loop that core._divide_by_euler replaced: c[m] =
    a[m] + sum_k (-1)^(k-1) (c[m - g_k] + c[m - g_k - k]), one bytecode
    step per pentagonal term."""
    steps = []  # (g_k, g_k + k, k odd) for every g_k <= n
    k, g = 1, 1
    while g <= n:
        steps.append((g, g + k, k & 1))
        g += 3 * k + 1  # g_(k+1) - g_k
        k += 1
    lo = len(series)
    for m in range(lo, n + 1):
        total = numerator[m - lo]
        for g, h, odd in steps:
            if g > m:
                break
            v = series[m - g] + series[m - h] if h <= m else series[m - g]
            if odd:
                total += v
            else:
                total -= v
        series.append(total)


def series_rank_rows(n_max: int) -> list[list[int]]:
    """Rows N(m, n), m = -(n-1) .. n-1, for n <= n_max, by expanding

        1 + sum_{k>=1} q^(k^2) / ((w q; q)_k (w^(-1) q; q)_k)

    to degree n_max.  Summand k contributes only when k^2 <= n_max.
    Each factor 1/(1 - w^(+-1) q^j) is applied as the in-place geometric
    recurrence C[d] += w^(+-1) * C[d-j] for ascending d.

    The Laurent coefficient at q-degree d is packed into one integer,
    with the count of w^m in a fixed-width bit slot at position (m + d).
    Every slot is a nonnegative partial count bounded by p(n_max), so
    with slot width >= p(n_max).bit_length() additions never carry
    across slots, and multiplication by w^(+-1) is a plain shift.
    """
    p = partition_numbers(n_max)
    slot_bytes = p[n_max].bit_length() // 8 + 2  # one spare byte of headroom
    bits = slot_bytes * 8

    # G[d] packs the accumulated coefficient of q^d, slot m at bit bits*(m+d).
    G = [0] * (n_max + 1)
    G[0] = 1
    k = 1
    while k * k <= n_max:
        span = n_max - k * k
        R = [0] * (span + 1)
        R[0] = 1
        for j in range(1, k + 1):
            # factor 1/(1 - w q^j): rebasing d-j -> d costs j slots, the
            # w shift one more, hence bits*(j+1)
            s = bits * (j + 1)
            for d in range(j, span + 1):
                v = R[d - j]
                if v:
                    R[d] += v << s
            # factor 1/(1 - w^(-1) q^j): bits*(j-1), never negative
            s = bits * (j - 1)
            for d in range(j, span + 1):
                v = R[d - j]
                if v:
                    R[d] += v << s
        base = bits * k * k
        off = k * k
        for d in range(span + 1):
            v = R[d]
            if v:
                G[off + d] += v << base
        k += 1

    rows: list[list[int]] = [[1]]
    for d in range(1, n_max + 1):
        width = 2 * d + 1
        raw = G[d].to_bytes(slot_bytes * width, "little")
        row = [
            int.from_bytes(raw[slot_bytes * i: slot_bytes * (i + 1)], "little")
            for i in range(width)
        ]
        # ranks of partitions of d live strictly inside (-d, d)
        assert row[0] == 0 and row[-1] == 0, f"rank overflow in row {d}"
        rows.append(row[1:-1])
    return rows


# First values of the partition function, long established.
_P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
            231, 297, 385, 490, 627]


class TestPartitionFunction:
    def test_small_values(self):
        assert partition_numbers(20) == _P_SMALL

    def test_known_milestones(self):
        assert partition_number(100) == 190569292
        assert partition_number(1000) == 24061467864032622473692149727991

    def test_matches_enumeration(self):
        for n in range(31):
            assert partition_number(n) == sum(1 for _ in enumerate_partitions(n))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_number(-1)


class TestDivideByEuler:
    """core._divide_by_euler, the gathered pentagonal recurrence, against
    the per-term loop it replaced."""

    @staticmethod
    def both(series, numerator, n):
        expected = list(series)
        loop_divide_by_euler(expected, numerator, n)
        core._divide_by_euler(series, numerator, n)
        assert series == expected

    def test_partition_numbers(self):
        self.both([1], [0] * 3000, 3000)
        series = [1]
        self.both(series, [0] * 10000, 10000)
        assert partition_number(10000) == series[10000]

    def test_every_column_to_1500(self):
        for t in range(1, 13):
            for r in range(t):
                expected = []
                loop_divide_by_euler(
                    expected, core._residue_numerator(r, t, 0, 1500), 1500)
                assert list(residue_column(r, t, 1500)) == expected, (r, t)

    def test_extension_from_every_start(self):
        # Offsets enter at 1, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51, 57, so
        # the starts 0 .. 60 put every one of them at a call's boundary.
        for numerator in ([1] + [0] * 200,
                          core._residue_numerator(0, 3, 0, 200)):
            whole = []
            loop_divide_by_euler(whole, numerator, 200)
            for start in range(61):
                series = whole[:start]
                core._divide_by_euler(series, numerator[start:], 200)
                assert series == whole, start

    def test_no_getter_gathers_20_items(self, monkeypatch):
        # CPython 3.11 never reuses a freed 20-item tuple; every getter
        # also needs two items, or it would return a scalar.
        sizes = []

        def recording(*items):
            sizes.append(len(items))
            return itemgetter(*items)

        monkeypatch.setattr(core, "itemgetter", recording)
        for start in range(61):
            core._divide_by_euler(partition_numbers(200)[:start],
                                  [0] * (201 - start), 200)
        core._divide_by_euler([], [1] + [0] * 3000, 3000)
        assert 20 not in sizes and min(sizes) >= 2
        assert max(sizes) > 20

    def test_nothing_below_the_stored_length(self):
        whole = []
        loop_divide_by_euler(whole, [1] + [0] * 40, 40)
        for n in (-1, 0, 20, 40):
            series = list(whole)
            core._divide_by_euler(series, [7] * 50, n)
            assert series == whole, n
        series = []
        core._divide_by_euler(series, [7] * 50, -1)
        assert series == []


class TestEnumeration:
    def test_reverse_lexicographic_order(self):
        assert list(enumerate_partitions(4)) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_empty_partition(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_parts_nonincreasing_and_sum(self):
        for parts in enumerate_partitions(9):
            assert sum(parts) == 9
            assert all(a >= b for a, b in zip(parts, parts[1:]))


class TestRank:
    def test_definition(self):
        assert rank(()) == 0
        assert rank((4,)) == 3
        assert rank((3, 1)) == 1
        assert rank((2, 2)) == 0
        assert rank((1, 1, 1, 1)) == -3

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    def test_conjugation_negates_rank(self, parts):
        parts = tuple(sorted(parts, reverse=True))
        conjugate = tuple(sum(1 for p in parts if p > i)
                          for i in range(parts[0]))
        assert sum(conjugate) == sum(parts)
        assert rank(conjugate) == -rank(parts)


class TestTableAgainstOracle:
    def test_rows_equal_brute_force(self, table):
        for n in range(26):
            counts = brute_rank_counts(n)
            row = table.row(n)
            lo = 0 if n == 0 else 1 - n
            for i, c in enumerate(row):
                assert c == counts.get(lo + i, 0), (n, lo + i)
            assert sum(row) == sum(counts.values())

    def test_rows_equal_series_expansion(self):
        table = build_rank_table(300)
        series = series_rank_rows(300)
        for n in range(301):
            assert table.row(n) == series[n], n

    def test_rows_equal_entry_formula(self):
        table = build_rank_table(600)
        p = partition_numbers(600)
        for n in range(1, 601):
            half = entry_half_row(p, n)
            assert table.row(n) == half[:0:-1] + half, n

    @pytest.mark.parametrize("n", [1000, 2000, 4347])
    def test_large_half_rows_equal_entry_formula(self, n):
        p = partition_numbers(n)
        assert _half_row(n) == entry_half_row(p, n)

    @pytest.mark.parametrize("g", [5, 12, 22, 35, 51, 70])
    def test_rows_where_a_stride_enters(self, g):
        # g = k(3k-1)/2 is the first n whose row reads stride -k.
        for n in (g - 1, g):
            p = partition_numbers(n)
            assert _half_row(n) == entry_half_row(p, n), n

    def test_half_rows_equal_strided_differences(self):
        p = partition_numbers(2000)
        for n in [*range(1, 601), 1000, 2000]:
            assert _half_row(n) == strided_half_row(p, n), n

    def test_hand_derived_rows(self, table):
        assert table.row(0) == [1]
        assert table.row(1) == [1]
        assert table.row(2) == [1, 0, 1]
        assert table.row(4) == [1, 0, 1, 1, 1, 0, 1]

    def test_row_sums_are_partition_numbers(self, table):
        p = partition_numbers(table.n_max)
        for n in range(table.n_max + 1):
            assert sum(table.row(n)) == p[n]

    def test_rank_symmetry(self, table):
        for n in range(table.n_max + 1):
            row = table.row(n)
            assert row == row[::-1]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=-250, max_value=250),
           st.integers(min_value=0, max_value=240))
    def test_count_accessor_matches_row(self, table, m, n):
        if n == 0:
            expected = 1 if m == 0 else 0
        elif -(n - 1) <= m <= n - 1:
            expected = table.row(n)[m + n - 1]
        else:
            expected = 0
        assert table.count(m, n) == expected
        assert rank_count(table, m, n) == expected

    def test_extreme_ranks(self, table):
        for n in range(2, 50):
            assert table.count(n - 1, n) == 1
            assert table.count(1 - n, n) == 1
            assert table.count(n, n) == 0
            assert table.count(-n, n) == 0


class TestRankTailRecurrence:
    """build_rank_table's T(m, n) = p(n - 1 - m) - T(m + 3, n - 1 - m),
    T(m, n) the partitions of n with rank >= m."""

    def test_identity_against_brute_force(self):
        counts = [brute_rank_counts(n) for n in range(31)]

        def tail(m, n):
            return sum(c for r, c in counts[n].items() if r >= m)

        p = partition_numbers(30)
        for n in range(1, 31):
            for m in range(n):  # m = n - 1 reads T(n + 2, 0) = 0
                assert tail(m, n) == p[n - 1 - m] - tail(m + 3, n - 1 - m), \
                    (m, n)

    @pytest.mark.parametrize("n_max", [*range(13), 301])
    def test_build_equals_lazy_rows(self, n_max):
        # n_max <= 12 includes every row with hi = (n - 5) // 2 < 0,
        # where no tails row reads an earlier one.
        assert build_rank_table(n_max) == RankTable(n_max)

    def test_session_table_ends_like_lazy_rows(self, big_table):
        lazy = RankTable(2000)
        for n in (1000, 1999, 2000):
            assert big_table.table.row(n) == lazy.row(n), n


class TestNoPartCounts:
    """The cached d_k(j) = p(j) - p(j - k) that rows are summed from,
    stored by residue class of j modulo k."""

    @pytest.fixture()
    def cold(self, monkeypatch):
        """Empty p and d_k caches for the test, restored after it."""
        monkeypatch.setattr("dysonrank.core._pcache", [1])
        monkeypatch.setattr("dysonrank.core._dcache", {})

    def test_lists_equal_differences_of_p(self, cold):
        # Every row read fills one class per k, so the rows together
        # fill every class that a row of n or less reads.
        n = 300
        lazy = RankTable(n)
        for j in range(n + 1):
            lazy.row(j)
        p = coin_partition_numbers(n)
        keys = set()
        k, g = 1, 1
        while g <= n:
            for c in range(min(k, n - g + 1)):
                assert core._dcache[k, c] == [
                    p[j] - (p[j - k] if j >= k else 0)
                    for j in range(c, n - g + 1, k)], (k, c)
                keys.add((k, c))
            g += 3 * k + 1
            k += 1
        assert set(core._dcache) == keys

    def test_a_row_fills_one_class_per_k(self, cold):
        for n in (5000, 301, 12):
            core._dcache.clear()
            half = _half_row(n)
            expected = {}
            k, g = 1, 1
            while g <= n:
                i, c = divmod(n - g, k)
                expected[k, c] = i + 1
                g += 3 * k + 1
                k += 1
            assert {key: len(d) for key, d in core._dcache.items()} == expected
            if n <= 301:
                assert half == strided_half_row(partition_numbers(n), n)

    def test_full_build_reads_no_row_and_no_list(self, cold,
                                                  monkeypatch):
        computed = []

        def recording(n):
            computed.append(n)
            return _half_row(n)

        monkeypatch.setattr("dysonrank.core._half_row", recording)
        table = build_rank_table(300)
        assert core._dcache == {}
        assert computed == []
        p = partition_numbers(300)
        for n in (1, 5, 6, 299, 300):
            half = strided_half_row(p, n)
            assert table.row(n) == half[:0:-1] + half, n

    def test_rows_read_lazily_in_any_order(self, cold):
        lazy = RankTable(300)
        order = [40, 7, 300, 41, 1, 0, 6, 5, 299, 12, 11, 150]
        rows = {n: lazy.row(n) for n in order}
        stored = {key: (d, list(d)) for key, d in core._dcache.items()}
        full = RankTable(300)
        for n in range(301):  # extends some lists the rows above filled
            full.row(n)
        for key, (d, values) in stored.items():
            # extended in place, never recomputed
            assert core._dcache[key] is d and d[:len(values)] == values, key
        built = build_rank_table(300)
        for n in order:
            assert rows[n] == built.row(n), n
        p = partition_numbers(300)
        for n in filter(None, order):
            half = strided_half_row(p, n)
            assert rows[n] == half[:0:-1] + half, n


class TestResidueCounts:
    def test_established_values(self, table):
        assert residue_count(table, 0, 3, 13) == 37
        assert residue_count(table, 0, 3, 10) == 16
        assert residue_count(table, 0, 3, 22) == 340
        assert residue_count(table, 1, 3, 17) == 101
        assert residue_count(table, 1, 3, 14) == 46
        assert residue_count(table, 1, 3, 20) == 211
        assert residue_count(table, 0, 3, 2) == 0
        assert residue_count(table, 1, 3, 2) == 1
        assert residue_count(table, 2, 3, 2) == 1

    def test_residues_partition_all_partitions(self, table):
        for t in (1, 2, 3, 5, 7):
            for n in (0, 1, 9, 40, 111, 240):
                total = sum(residue_count(table, r, t, n) for r in range(t))
                assert total == partition_number(n)

    def test_count_of_14_forced_by_row_sum(self, table):
        # p(14) = 135 and the two nonzero residues hold 46 each, which
        # pins the residue-0 count to 43.
        assert partition_number(14) == 135
        assert residue_count(table, 1, 3, 14) == 46
        assert residue_count(table, 2, 3, 14) == 46
        assert residue_count(table, 0, 3, 14) == 43

    def test_symmetry_between_conjugate_residues(self, table):
        for n in range(table.n_max + 1):
            assert (residue_count(table, 1, 3, n)
                    == residue_count(table, 2, 3, n))

    def test_empty_partition_convention(self, table):
        assert residue_count(table, 0, 3, 0) == 1
        assert residue_count(table, 1, 3, 0) == 0
        assert residue_count(table, 0, 1, 0) == 1

    def test_modulus_one_gives_partition_numbers(self, table):
        for n in (0, 1, 17, 120):
            assert residue_count(table, 0, 1, n) == partition_number(n)

    def test_validation(self, table):
        with pytest.raises(ValueError):
            residue_count(table, 3, 3, 10)
        with pytest.raises(ValueError):
            residue_count(table, -1, 3, 10)
        with pytest.raises(ValueError):
            residue_count(table, 0, 0, 10)
        with pytest.raises(ValueError):
            residue_count(table, 0, 3, table.n_max + 1)


class TestResidueColumn:
    @pytest.fixture(scope="class")
    def table600(self):
        return build_rank_table(600)

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 7])
    def test_equals_row_slices(self, table600, t):
        for r in range(t):
            assert list(residue_column(r, t, 600)) == [
                row_residue_count(table600, r, t, n) for n in range(601)], r

    def test_equals_row_slices_to_2000(self, big_table):
        table = big_table.table
        for r in range(3):
            assert list(residue_column(r, 3, 2000)) == [
                row_residue_count(table, r, 3, n) for n in range(2001)], r

    def test_extending_a_column_keeps_its_values(self, monkeypatch):
        # A column grown one n at a time, or in uneven steps, equals one
        # computed in a single call.
        for r, t in ((0, 4), (2, 7), (1, 2)):
            monkeypatch.setattr("dysonrank.core._columns", {})
            whole = residue_column(r, t, 300)
            monkeypatch.setattr("dysonrank.core._columns", {})
            grown = [residue_column(r, t, n)[n] for n in range(301)]
            monkeypatch.setattr("dysonrank.core._columns", {})
            steps = [residue_column(r, t, n) for n in (0, 17, 18, 150, 300)]
            assert list(whole) == grown == list(steps[-1])
            assert all(whole[:len(s)] == s for s in steps)

    @pytest.mark.parametrize("t", [2, 3, 5, 7])
    def test_conjugate_residue_shares_the_division(self, monkeypatch, t):
        # N(r, t; n) = N(t - r, t; n): the second residue reads the
        # column the first one computed.
        divide = core._divide_by_euler
        calls = []

        def counting(series, numerator, n):
            calls.append(n)
            divide(series, numerator, n)

        monkeypatch.setattr("dysonrank.core._divide_by_euler", counting)
        for r in range(1, t):
            monkeypatch.setattr("dysonrank.core._columns", {})
            calls.clear()
            first = residue_column(r, t, 200)
            assert residue_column(-r % t, t, 200) == first
            assert calls == [200], r

    def test_shared_column_grown_from_both_keys(self, monkeypatch):
        monkeypatch.setattr("dysonrank.core._columns", {})
        table = build_rank_table(300)
        residue_column(1, 3, 100)
        residue_column(2, 3, 300)
        for r in (1, 2):
            assert list(residue_column(r, 3, 300)) == [
                row_residue_count(table, r, 3, n) for n in range(301)], r
        assert core._columns[1, 3] is core._columns[2, 3]

    def test_claims_pass_stores_one_column_per_conjugate_pair(self):
        # A seed-1 claims-1000 pass of the benchmark reads every residue
        # modulo 2, 3, 5 and 7; the pairs {r, t - r} leave 2 + 2 + 3 + 4
        # distinct columns.
        root = Path(__file__).resolve().parent.parent
        script = (
            "import claims, dysonrank\n"
            "from dysonrank import core\n"
            "ctx = {}\n"
            "for op in claims.build_ops(1, False):\n"
            "    op.call(dysonrank, ctx)\n"
            "print(sorted(core._columns))\n"
            "print(len({id(c) for c in core._columns.values()}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout.splitlines()
        assert out[0] == str(sorted((r, t) for t in (2, 3, 5, 7)
                                    for r in range(t)))
        assert out[1] == "11"

    def test_modulus_one_is_the_partition_function(self):
        assert list(residue_column(0, 1, 1000)) == partition_numbers(1000)

    def test_a_third_at_4347_reads_no_row(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"row {n} computed")

        monkeypatch.setattr("dysonrank.core._half_row", refuse)
        table = RankTable(4347)
        assert a_third_exact(table, 4347) == -6535410516613307218660
        assert residue_count(table, 2, 3, 4347) == residue_count(
            table, 1, 3, 4347)

    def test_returned_column_cannot_change_later_counts(self):
        column = residue_column(0, 3, 20)
        with pytest.raises(TypeError):
            column[13] += 5  # type: ignore[index]
        copy = list(column)
        copy[13] += 5
        assert residue_column(0, 3, 20)[13] == 37
        assert residue_count(RankTable(20), 0, 3, 13) == 37

    @pytest.mark.parametrize("r, t, n", [(3, 3, 10), (-1, 3, 10),
                                         (0, 0, 10), (0, -2, 10),
                                         (0, 3, -1)])
    def test_validation(self, r, t, n):
        with pytest.raises(ValueError):
            residue_column(r, t, n)


class TestAThird:
    def test_small_values(self, table):
        assert a_third_exact(table, 1) == 1
        assert a_third_exact(table, 2) == -1
        assert a_third_exact(table, 7) == 3

    def test_consistent_with_residue_counts(self, table):
        for n in (1, 6, 50, 240):
            expected = (residue_count(table, 0, 3, n)
                        - residue_count(table, 1, 3, n))
            assert a_third_exact(table, n) == expected


class TestDecomposition:
    def test_roots_of_unity_filter(self, table):
        for t in (1, 2, 3, 5, 7):
            for n in (1, 5, 12, 30, 60, 150):
                for r in range(t):
                    assert decomposition_check(table, r, t, n)

    def test_zero_n(self, table):
        assert decomposition_check(table, 0, 3, 0)

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 7])
    def test_agrees_with_entry_oracle(self, table, t):
        for n in (0, 1, 5, 12, 30, 60, 150, 240):
            for r in range(t):
                assert decomposition_check(table, r, t, n) is \
                    entry_decomposition_check(table, r, t, n) is True, (r, n)

    @pytest.mark.parametrize("t", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [12, 60, 150])
    def test_one_wrong_count_fails_every_residue(self, t, n):
        # Raising N(m, n) by 1 moves the average for r by (t - 1)/t if
        # m = r (mod t) and by -1/t otherwise, so every r must see it
        # once the allowance is well below 1/t in absolute terms.
        sound = build_rank_table(n)
        rows = [sound.row(k) for k in range(n + 1)]

        def tol(r):
            return 1 / (4 * t * residue_count(sound, r, t, n))

        for r in range(t):
            assert decomposition_check(sound, r, t, n, tol(r)), r
        for i in range(t):  # row index i holds m = i - (n - 1)
            bumped = [list(row) for row in rows]
            bumped[n][i] += 1
            wrong = RankTable(n, bumped)
            for r in range(t):
                assert not decomposition_check(wrong, r, t, n, tol(r)), (i, r)
                assert not entry_decomposition_check(wrong, r, t, n,
                                                     tol(r)), (i, r)


class TestTableObject:
    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_rank_table(-1)
        with pytest.raises(ValueError):
            RankTable(-1)

    def test_rows_computed_on_read_equal_built_rows(self):
        lazy = RankTable(150)
        built = build_rank_table(150)
        assert [lazy.row(n) for n in range(151)] == [
            built.row(n) for n in range(151)]
        assert lazy == built
        assert RankTable(150) == built

    def test_row_is_computed_once(self, monkeypatch):
        computed = []

        def recording(n):
            computed.append(n)
            return _half_row(n)

        monkeypatch.setattr("dysonrank.core._half_row", recording)
        table = RankTable(30)
        assert table.count(0, 13) == 11
        assert table.row(13)[12] == 11
        assert decomposition_check(table, 0, 3, 13)
        assert residue_count(table, 0, 3, 20) == 205
        assert computed == [13]

    def test_build_extends_p_once(self, monkeypatch):
        # From an empty p cache, the whole table takes one division to
        # n_max, not one per row.
        divide = core._divide_by_euler
        calls = []

        def counting(series, numerator, n):
            calls.append(n)
            divide(series, numerator, n)

        monkeypatch.setattr("dysonrank.core._pcache", [1])
        monkeypatch.setattr("dysonrank.core._divide_by_euler", counting)
        table = build_rank_table(300)
        assert calls == [300]
        half = entry_half_row(core._pcache, 300)
        assert table.row(300) == half[:0:-1] + half

    def test_tiny_table(self):
        t = build_rank_table(3)
        assert t.n_max == 3
        # Partitions of 3 have ranks 2, 0, -2.
        assert t.row(3) == [1, 0, 1, 0, 1]

    def test_equality(self):
        assert build_rank_table(12) == build_rank_table(12)
        assert build_rank_table(12) != build_rank_table(13)

    def test_out_of_range_row(self, table):
        with pytest.raises(ValueError):
            table.row(table.n_max + 1)
        with pytest.raises(ValueError):
            table.row(-1)
        with pytest.raises(TypeError):
            table.row(1.5)

    def test_row_is_a_copy(self):
        t = build_rank_table(13)
        row = t.row(13)
        assert isinstance(row, list)
        row[12] += 5
        row.append(1)
        assert t.row(13) != row
        assert t.count(0, 13) == 11
        assert residue_count(t, 0, 3, 13) == 37

    def test_repr(self, table):
        assert "240" in repr(table)

    def test_range_errors_name_the_bound(self, table):
        # One check serves rows, residue counts, scans and the knapsack.
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            residue_count(table, 0, 3, -1)
        with pytest.raises(ValueError, match="^needs counts up to 241 but "
                                             "table holds 240$"):
            residue_count(table, 0, 3, 241)
        with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
            table._check_n(-1, "n_max")


class TestTableFor:
    """The one policy for what a call may read: sized to its need,
    capped by n_max and by MAX_TABLE_ROWS, and never a row computed."""

    def test_sized_to_the_need_without_rows(self, monkeypatch):
        monkeypatch.setattr("dysonrank.core._half_row", None)
        for n_max in (None, 100, MAX_TABLE_ROWS):
            table = table_for(40, n_max)
            assert table.n_max == 40
            assert residue_count(table, 0, 3, 13) == 37
        assert table_for(MAX_TABLE_ROWS).n_max == MAX_TABLE_ROWS

    def test_need_past_n_max(self):
        with pytest.raises(ValueError, match=r"^this command requires "
                                             r"--n-max >= 41 \(got 40\)$"):
            table_for(41, 40)

    def test_need_past_the_ceiling(self):
        message = (f"^a rank table to n = {MAX_TABLE_ROWS + 1} is past the "
                   f"ceiling of {MAX_TABLE_ROWS} rows; its memory grows as "
                   r"n\^2$")
        for n_max in (None, MAX_TABLE_ROWS + 1, 10 ** 9):
            with pytest.raises(ValueError, match=message):
                table_for(MAX_TABLE_ROWS + 1, n_max)

    def test_negative_need_reads_nothing(self):
        assert table_for(-30).n_max == 0
        assert table_for(-30, 64).n_max == 0

    def test_negative_n_max(self):
        with pytest.raises(ValueError, match=r"--n-max >= 0 \(got -3\)"):
            table_for(0, -3)
        with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
            table_for(-30, -20)
