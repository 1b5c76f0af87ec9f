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
single rows past any table; it and the recurrence build check the
lone-row kernel _half_row, which sums strided slices of p.  Small rows
are also checked against hand-derived values.
loop_divide_by_euler, the per-term pentagonal loop, is the oracle for
the division behind p(n) and every residue column, and for the columns
read off p as p minus the other classes of their modulus.
dyson_a_third expands Dyson's rank generating function at a cube root
of unity, which shares no formula with the columns, for
A(n) = N(0,3;n) - N(1,3;n).
"""

from __future__ import annotations

import cmath
import itertools
import os
import subprocess
import sys
from collections import Counter
from math import isqrt
from operator import itemgetter, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonrank import (
    MAX_TABLE_ROWS,
    RankTable,
    a_third_exact,
    build_rank_table,
    decomposition_check,
    enumerate_partitions,
    partition_number,
    partition_numbers,
    residue_column,
    residue_count,
    table_for,
)
from dysonrank import core
from dysonrank.cli import main as cli_main
from dysonrank.core import _half_row


def row_residue_count(table, r, t, n):
    """N(r, t; n) as the sum of every t-th entry of the table's row n."""
    if n == 0:
        return 1 if r == 0 else 0
    row = table.row(n)
    # row index i holds m = i - (n-1), so i runs over (r + n - 1) mod t steps
    return sum(row[(r + n - 1) % t::t])


def rank(parts):
    """Rank of a partition given as a nonincreasing sequence of parts:
    its largest part minus its number of parts, 0 for the empty one."""
    if not parts:
        return 0
    return parts[0] - len(parts)


def brute_rank_counts(n):
    """Rank counts of n by exhaustive enumeration: every partition built
    and its rank measured.  The oracle for the table's rows."""
    counts = Counter()
    for parts in enumerate_partitions(n):
        counts[rank(parts)] += 1
    return dict(counts)


def checked_residue_count(table, r, t, n):
    """residue_count as it read with RankTable._check_n on every read:
    the column first, to the table's n_max, then n's check."""
    column = core._column(r, t, table.n_max)
    table._check_n(n)
    return column[n]


def _outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def entry_decomposition_check(table, r, t, n):
    """decomposition_check with one complex power per row entry: the
    root-of-unity average of row n against the exact N(r, t; n), within
    the same relative tolerance 1e-6."""
    exact = residue_count(table, r, t, n)
    row = table.row(n)
    lo = 0 if n == 0 else -(n - 1)
    acc = complex(partition_number(n))
    for j in range(1, t):
        z = cmath.exp(2j * cmath.pi * j / t)
        inner = sum(c * z ** (lo + i) for i, c in enumerate(row) if c)
        acc += cmath.exp(-2j * cmath.pi * r * j / t) * inner
    approx = acc / t
    allowance = 1e-6 * max(1.0, float(abs(exact)))
    return (abs(approx.real - exact) <= allowance
            and abs(approx.imag) <= allowance)


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


def dyson_a_third(n_max):
    """A(n) = N(0,3;n) - N(1,3;n) for n = 0 .. n_max from Dyson's rank
    generating function at z = w = e^(2 pi i / 3),

        R(w; q) = sum_{k>=0} q^(k^2) / prod_{j<=k} (1 + q^j + q^(2j)),

    since (1 - w q^j)(1 - w^(-1) q^j) = 1 + q^j + q^(2j).  In Horner
    form S_K = 1 and S_(k-1) = 1 + q^(2k-1) S_k / (1 + q^k + q^(2k)) for
    k = K .. 1 with K^2 <= n_max, and R = S_0: one shift and one
    trinomial division per k.  It shares no formula with the residue
    columns: no Atkin-Swinnerton-Dyer numerator, no pentagonal
    division, no p(n)."""
    s = [1] + [0] * n_max
    for k in range(isqrt(n_max), 0, -1):
        shift = 2 * k - 1
        c = [0] * shift + s[:n_max + 1 - shift]
        # c / (1 + q^k + q^(2k)): c[m] -= c[m - k] + c[m - 2k], ascending
        for m in range(k, min(2 * k, n_max + 1)):
            c[m] -= c[m - k]
        for m in range(2 * k, n_max + 1):
            c[m] -= c[m - k] + c[m - 2 * k]
        c[0] += 1
        s = c
    return s


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


@pytest.fixture()
def cold_divisions(monkeypatch):
    """No p and no column stored, and the n of every pentagonal
    division from here on."""
    monkeypatch.setattr("dysonrank.core._pcache", [1])
    monkeypatch.setattr("dysonrank.core._columns", {})
    divide = core._divide_by_euler
    calls = []

    def counting(series, numerator, n):
        calls.append(n)
        divide(series, numerator, n)

    monkeypatch.setattr("dysonrank.core._divide_by_euler", counting)
    return calls


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

    def test_every_column_to_1500(self, cold_divisions):
        # With no p stored, no class is read off p: each is a division.
        for t in range(1, 13):
            for r in range(t):
                expected = []
                loop_divide_by_euler(
                    expected, core._residue_numerator(r, t, 0, 1500), 1500)
                assert list(residue_column(r, t, 1500)) == expected, (r, t)
        assert len(cold_divisions) == sum(t // 2 + 1 for t in range(1, 13))

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

    def test_half_rows_equal_strided_differences(self, big_table):
        # _half_row's strided differences against the rank-tail
        # recurrence of the session table.
        for n in [*range(1, 601), 1000, 2000]:
            assert _half_row(n) == big_table.table.row(n)[n - 1:], n

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

    def test_extreme_ranks(self, table):
        assert [table.count(m, 0) for m in (-1, 0, 1)] == [0, 1, 0]
        assert [table.count(m, 1) for m in (-1, 0, 1)] == [0, 1, 0]
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


class TestLoneRows:
    """Rows of a table made without rows, each read alone by _half_row,
    which sums strided slices of p; they keep nothing but p, and a full
    build reads none of them."""

    @pytest.fixture()
    def cold(self, monkeypatch):
        """An empty p cache for the test, restored after it."""
        monkeypatch.setattr("dysonrank.core._pcache", [1])

    def test_rows_from_an_empty_p_equal_entry_formula(self, cold):
        # From an empty p, every row equals the formula evaluated one
        # count at a time on the knapsack's p, which shares no code with
        # the pentagonal division.
        n = 300
        lazy = RankTable(n)
        p = coin_partition_numbers(n)
        for j in range(1, n + 1):
            half = entry_half_row(p, j)
            assert lazy.row(j) == half[:0:-1] + half, j
        assert core._pcache == p

    def test_full_build_reads_no_row(self, cold, monkeypatch):
        computed = []

        def recording(n):
            computed.append(n)
            return _half_row(n)

        monkeypatch.setattr("dysonrank.core._half_row", recording)
        table = build_rank_table(300)
        assert computed == []
        p = partition_numbers(300)
        for n in (1, 5, 6, 299, 300):
            half = entry_half_row(p, n)
            assert table.row(n) == half[:0:-1] + half, n

    def test_rows_read_lazily_in_any_order(self, cold):
        lazy = RankTable(300)
        order = [40, 7, 300, 41, 1, 0, 6, 5, 299, 12, 11, 150]
        p = core._pcache
        rows = {}
        for n in order:
            before = list(p)
            rows[n] = lazy.row(n)
            # p is extended in place as far as the row reads, never
            # recomputed
            assert core._pcache is p and p[:len(before)] == before, n
            assert len(p) > n, n
        built = build_rank_table(300)
        for n in order:
            assert rows[n] == built.row(n), n
        p = partition_numbers(300)
        for n in filter(None, order):
            half = entry_half_row(p, n)
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


    def test_refusals_keep_their_type_message_and_order(self, monkeypatch):
        # The inline range check calls RankTable._check_n only to raise,
        # so every outcome equals the check-on-every-read oracle's, on a
        # fresh key and on a column one short of n_max.
        table = RankTable(40)
        keys = ((0, 3), (1, 3), (2, 5), (3, 3), (-1, 3), (0, 0), (0, -2))
        ns = (-1, 0, 7, 40, 41, 10 ** 30, -10 ** 30, 2.0, "3", None, True,
              False)
        for short in (False, True):
            for (r, t), n in itertools.product(keys, ns):
                outcomes = []
                for count in (residue_count, checked_residue_count):
                    monkeypatch.setattr("dysonrank.core._columns", {})
                    if short and 0 <= r < t:
                        residue_column(r, t, table.n_max - 1)
                    outcomes.append((_outcome(count, table, r, t, n),
                                     len(core._columns.get((r, t), ()))))
                assert outcomes[0] == outcomes[1], (short, r, t, n)
                if 0 <= r < t:  # the column reached n_max before n's check
                    assert outcomes[0][1] == table.n_max + 1, (r, t, n)
        # A bool is an int to _check_n, as before: True reads n = 1.
        assert residue_count(table, 0, 3, True) == 1
        assert residue_count(table, 0, 3, False) == 1
        assert residue_count(table, 1, 3, True) == 0
        with pytest.raises(ValueError, match="table holds 40"):
            residue_count(table, 0, 3, 41)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            residue_count(table, 0, 3, -1)
        with pytest.raises(TypeError, match="n must be an int"):
            residue_count(table, 0, 3, 2.0)
        with pytest.raises(ValueError, match="residue r must satisfy"):
            residue_count(table, 3, 3, 41)
        with pytest.raises(ValueError, match="modulus t must be positive"):
            residue_count(table, 0, 0, 2.0)


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

    def test_count_extends_a_column_one_short(self, monkeypatch):
        expected = residue_column(1, 3, 100)
        monkeypatch.setattr("dysonrank.core._columns", {})
        residue_column(2, 3, 99)
        table = RankTable(100)
        assert [residue_count(table, 1, 3, n)
                for n in range(100, -1, -1)] == list(expected[::-1])

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


class TestDerivedColumns:
    """With p stored, a class whose every sibling modulo t is stored is
    p minus the siblings, not a division, where that is cheaper."""

    STEPS = (0, 17, 18, 150, 300)

    @pytest.fixture()
    def divisions(self, cold_divisions):
        """p stored to 1000, no column stored, and the n of every later
        pentagonal division."""
        partition_numbers(1000)
        cold_divisions.clear()
        return cold_divisions

    @staticmethod
    def divided(r, t, n):
        column = []
        loop_divide_by_euler(column, core._residue_numerator(r, t, 0, n), n)
        return column

    @pytest.mark.parametrize("order", [range, lambda t: range(t - 1, -1, -1)])
    def test_every_class_equals_the_division(self, divisions, order):
        # Ascending, the last class derived is t // 2 (doubled for odd t);
        # descending, it is class 0.  Each step extends every column.
        derived = 0
        for t in range(1, 13):
            core._columns.clear()
            divisions.clear()
            for n in self.STEPS:
                for r in order(t):
                    residue_column(r, t, n)
            for r in range(t):
                assert list(residue_column(r, t, 300)) == self.divided(
                    r, t, 300), (r, t)
            derived += len(self.STEPS) * (t // 2 + 1) - len(divisions)
        assert derived > 0

    def test_divisions_for_every_class_to_1000(self, divisions):
        for t, want in ((2, 1), (3, 1), (5, 2), (7, 3)):
            divisions.clear()
            columns = [residue_column(r, t, 1000) for r in range(t)]
            assert len(divisions) == want, t
            assert columns == [tuple(self.divided(r, t, 1000))
                               for r in range(t)], t

    @pytest.mark.parametrize("p_len", [1, 1000])
    def test_p_shorter_than_n_max_is_not_extended(self, divisions,
                                                  monkeypatch, p_len):
        monkeypatch.setattr("dysonrank.core._pcache",
                            core._pcache[:p_len])
        for r in range(3):
            residue_column(r, 3, 1000)
        assert divisions == [1000, 1000]
        assert len(core._pcache) == p_len

    def test_large_modulus_divides(self, divisions):
        # At n = 40 a division adds 2K = 10 terms per degree; t = 101
        # would subtract 100 columns.
        for r in range(101):
            residue_column(r, 101, 40)
        assert divisions == [40] * 51

    def test_wrong_sibling_raises(self, divisions):
        residue_column(0, 3, 300)
        core._columns[0, 3][200] += 1  # p(200) - N(0,3;200) is now odd
        with pytest.raises(ArithmeticError, match="not an integer"):
            residue_column(1, 3, 300)
        assert core._columns[1, 3] == []
        code = cli_main(["count", "--r", "1", "--t", "3", "--n", "250",
                         "--n-max", "250"])
        assert code == 2

    def test_negative_class_raises(self, divisions):
        residue_column(1, 3, 300)
        core._columns[1, 3][200] += partition_number(200)
        with pytest.raises(ArithmeticError, match="negative"):
            residue_column(0, 3, 300)
        assert core._columns[0, 3] == []


class TestAThird:
    def test_small_values(self, table):
        assert a_third_exact(table, 1) == 1
        assert a_third_exact(table, 2) == -1
        assert a_third_exact(table, 7) == 3

    @pytest.mark.parametrize("p_first", [True, False])
    def test_equals_dyson_series_to_3000(self, cold_divisions, p_first):
        # With p stored, (1, 3) is p minus (0, 3); from empty caches
        # both columns are divided and p is never computed.
        if p_first:
            partition_numbers(3000)
            cold_divisions.clear()
        expected = dyson_a_third(3000)
        table = RankTable(3000)
        assert [a_third_exact(table, n) for n in range(3001)] == expected
        assert list(map(sub, residue_column(0, 3, 3000),
                        residue_column(1, 3, 3000))) == expected
        assert cold_divisions == [3000] * (1 if p_first else 2)
        assert len(core._pcache) == (3001 if p_first else 1)

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
        # A table stores half rows, so raising half[i] by 1 raises
        # N(i, n) and N(-i, n) together (once when i = 0), and the class
        # sums then add to more than p(n): every residue must fail.
        # entry_decomposition_check cannot see it at n = 150, where its
        # float average moves by less than 2 against an allowance of
        # 1e-6 N(r, t; n), over 5000.
        table = build_rank_table(n)
        half = table._row(n)
        for r in range(t):
            assert decomposition_check(table, r, t, n), r
        for i in range(n):
            half[i] += 1
            for r in range(t):
                assert not decomposition_check(table, r, t, n), (i, r)
            half[i] -= 1

    def test_a_count_off_by_one_fails(self, table, monkeypatch):
        # The other side of the identity: the class sum for r must equal
        # the count the residue column holds.
        monkeypatch.setattr("dysonrank.core.residue_count",
                            lambda *args: residue_count(*args) + 1)
        for t in (2, 3, 5, 7):
            for n in (12, 60, 150):
                for r in range(t):
                    assert not decomposition_check(table, r, t, n), (t, n, r)


class TestTableObject:
    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_rank_table(-1)
        with pytest.raises(ValueError):
            RankTable(-1)

    def test_rows_are_stored_as_halves(self):
        # Row n is stored as N(m, n) for m = 0 .. n-1 ([1] for n = 0),
        # whether built or read lazily; only row() mirrors it.
        built = build_rank_table(40)
        lazy = RankTable(40)
        for n in range(41):
            for table in (built, lazy):
                assert len(table._row(n)) == max(n, 1), n
                assert table._row(n) == table.row(n)[max(n - 1, 0):], n
        assert built._rows == lazy._rows

    def test_rows_of_the_wrong_length_are_refused(self):
        halves = [build_rank_table(6)._row(n) for n in range(7)]
        assert RankTable(6, halves) == build_rank_table(6)
        # A full mirrored row is refused, not misread as wrong counts.
        full = [build_rank_table(6).row(n) for n in range(7)]
        with pytest.raises(ValueError, match=r"^row 2 must hold the 2 "
                                             r"counts N\(m, 2\) for m >= 0, "
                                             r"not 3$"):
            RankTable(6, full)
        for n, length in ((0, 0), (0, 2), (1, 0), (1, 2), (6, 5), (6, 11)):
            rows = [list(half) for half in halves]
            rows[n] = [1] * length
            with pytest.raises(ValueError, match=f"^row {n} must hold"):
                RankTable(6, rows)

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
