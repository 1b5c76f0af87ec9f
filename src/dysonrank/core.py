"""Exact rank statistics of integer partitions.

The rank of a partition is its largest part minus its number of parts.
The central object here is the table of counts N(m, n), the number of
partitions of n with rank m.  By the Atkin-Swinnerton-Dyer formula for
fixed rank (see build_rank_table), the number of partitions of n with
rank >= m is a short alternating sum of partition numbers p(n - a);
for each k of that sum the terms over m = 0, 1, ... form one strided
slice of p, so a row costs one list-wide pass per k.  p(n) comes from
Euler's pentagonal recurrence.  All counts are exact integers; nothing
here ever passes through a float.
"""

from __future__ import annotations

import cmath
from collections import Counter
from collections.abc import Iterator, Sequence
from operator import add, sub

__all__ = [
    "RankTable",
    "a_third_exact",
    "brute_rank_counts",
    "build_rank_table",
    "decomposition_check",
    "enumerate_partitions",
    "partition_number",
    "partition_numbers",
    "rank",
    "rank_count",
    "residue_count",
]


_pcache = [1]


def _extend_pcache(n: int) -> None:
    # Euler's pentagonal recurrence; generalized pentagonal numbers are
    # k(3k-1)/2 and k(3k+1)/2 with alternating signs.
    p = _pcache
    for m in range(len(p), n + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            s = -1 if k % 2 == 0 else 1
            total += s * p[m - g]
            g += k
            if g <= m:
                total += s * p[m - g]
            k += 1
        p.append(total)


def partition_number(n: int) -> int:
    """Number of partitions of n, exact at any size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(_pcache):
        _extend_pcache(n)
    return _pcache[n]


def partition_numbers(n_max: int) -> list[int]:
    """The list p(0), p(1), ..., p(n_max)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max >= len(_pcache):
        _extend_pcache(n_max)
    return _pcache[: n_max + 1]


def rank(parts: Sequence[int]) -> int:
    """Rank of a partition given as a nonincreasing sequence of parts."""
    if not parts:
        return 0
    return parts[0] - len(parts)


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n as a nonincreasing tuple.

    Order is reverse lexicographic: (n) first, (1, ..., 1) last.  The
    empty partition is the single partition of 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    cur = [n]
    while True:
        yield tuple(cur)
        i = len(cur) - 1
        ones = 0
        while i >= 0 and cur[i] == 1:
            ones += 1
            i -= 1
        if i < 0:
            return
        cur[i] -= 1
        cap = cur[i]
        rem = ones + 1
        del cur[i + 1:]
        while rem:
            take = cap if cap < rem else rem
            cur.append(take)
            rem -= take


def brute_rank_counts(n: int) -> dict[int, int]:
    """Rank counts of n by exhaustive enumeration.  Independent of
    build_rank_table; used as the oracle for it."""
    counts = Counter()
    for parts in enumerate_partitions(n):
        counts[rank(parts)] += 1
    return dict(counts)


class RankTable:
    """Counts N(m, n) for all 0 <= n <= n_max.

    Row n covers m in [-(n-1), n-1]; row 0 is the single count 1 for the
    empty partition.  Instances are built once and never change: row()
    hands out a fresh copy, so a caller that mutates it cannot corrupt
    the table.
    """

    __slots__ = ("n_max", "_rows")

    def __init__(self, n_max: int, rows: list[list[int]]):
        if len(rows) != n_max + 1:
            raise ValueError("row count does not match n_max")
        self.n_max = n_max
        self._rows = rows

    def row(self, n: int) -> list[int]:
        """Counts for m = -(n-1) .. n-1 in order, as a new list."""
        self._check_n(n)
        return list(self._rows[n])

    def count(self, m: int, n: int) -> int:
        self._check_n(n)
        if n == 0:
            return 1 if m == 0 else 0
        if m <= -n or m >= n:
            return 0
        return self._rows[n][m + n - 1]

    def _check_n(self, n: int) -> None:
        if not isinstance(n, int):
            raise TypeError("n must be an int")
        if n < 0 or n > self.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.n_max}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankTable):
            return NotImplemented
        return self.n_max == other.n_max and self._rows == other._rows

    def __repr__(self) -> str:
        return f"RankTable(n_max={self.n_max})"


def build_rank_table(n_max: int) -> RankTable:
    """Counts N(m, n) for every n <= n_max, by the Atkin-Swinnerton-Dyer
    formula for fixed rank m >= 0,

        sum_n N(m, n) q^n
            = (1/(q)_inf) sum_{k>=1} (-1)^(k-1) q^(k(3k-1)/2 + mk) (1 - q^k).

    Since q^(k(3k-1)/2 + mk) q^k = q^(k(3k-1)/2 + (m+1)k), the sum over
    ranks >= m telescopes: F(m, n), the number of partitions of n with
    rank >= m, is

        F(m, n) = sum_{k>=1} (-1)^(k-1) p(n - g_k - mk),   g_k = k(3k-1)/2,

    over the k with g_k <= n, with p zero at negative arguments, and
    N(m, n) = F(m, n) - F(m+1, n).  For fixed k the terms over
    m = 0, 1, ... are the stride -k slice p[n - g_k :: -k], so each k
    adds or subtracts one slice into F.  Rows are symmetric,
    N(-m, n) = N(m, n), so each row is the half m = 0 .. n-1 mirrored.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p = partition_numbers(n_max)
    rows: list[list[int]] = [[1]]
    for n in range(1, n_max + 1):
        half = _half_row(p, n)
        rows.append(half[:0:-1] + half)
    return RankTable(n_max, rows)


def _half_row(p: Sequence[int], n: int) -> list[int]:
    """N(m, n) for m = 0 .. n-1 by the formula above, given p(0..n);
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


def rank_count(table: RankTable, m: int, n: int) -> int:
    """N(m, n) from a built table; zero outside the legal rank range."""
    return table.count(m, n)


def residue_count(table: RankTable, r: int, t: int, n: int) -> int:
    """N(r, t; n): partitions of n with rank congruent to r modulo t."""
    if t < 1:
        raise ValueError("modulus t must be positive")
    if not 0 <= r < t:
        raise ValueError("residue r must satisfy 0 <= r < t")
    table._check_n(n)
    if n == 0:
        return 1 if r == 0 else 0
    row = table._rows[n]
    # row index i holds m = i - (n-1), so i runs over (r + n - 1) mod t steps
    start = (r + n - 1) % t
    return sum(row[start::t])


def a_third_exact(table: RankTable, n: int) -> int:
    """The exact integer N(0,3;n) - N(1,3;n).

    This equals the rank generating function evaluated at a primitive
    third root of unity (the two nonzero residue classes carry equal
    counts), and is tiny compared to the individual counts."""
    return residue_count(table, 0, 3, n) - residue_count(table, 1, 3, n)


def decomposition_check(table: RankTable, r: int, t: int, n: int,
                        tol: float = 1e-6) -> bool:
    """Cross-check N(r, t; n) against the root-of-unity average.

    Evaluates (1/t) [p(n) + sum_{j=1..t-1} z^(-rj) sum_m N(m,n) z^(jm)]
    with z = e^(2 pi i / t) in complex floats and compares to the exact
    count within relative tolerance tol.  This ties the residue slices
    to the full rank row through an identity neither is built from.
    """
    exact = residue_count(table, r, t, n)
    if n == 0:
        row: list[int] = [1]
        lo = 0
    else:
        row = table._rows[n]
        lo = -(n - 1)
    acc = complex(partition_number(n))
    for j in range(1, t):
        z = cmath.exp(2j * cmath.pi * j / t)
        inner = sum(c * z ** (lo + i) for i, c in enumerate(row) if c)
        acc += cmath.exp(-2j * cmath.pi * r * j / t) * inner
    approx = acc / t
    scale = max(1.0, float(abs(exact)))
    return (abs(approx.real - exact) <= tol * scale
            and abs(approx.imag) <= tol * scale)
