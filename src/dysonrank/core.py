"""Exact rank statistics of integer partitions.

The rank of a partition is its largest part minus its number of parts.
Every claim checked in this package reads residue columns N(r, t; n),
the number of partitions of n with rank congruent to r modulo t, for
n = 0 .. n_max.  A column is a sparse numerator, read off the
Atkin-Swinnerton-Dyer formula for fixed rank, divided by Euler's
product (q)_inf; that division is the pentagonal recurrence that also
gives p(n), and costs O(n^1.5) exact additions with no n x n storage
(see residue_column).  Each degree's terms are gathered in C by one
operator.itemgetter per sign and summed by sum(), so no bytecode runs
per term, and while the counts are narrow four degrees share each
addition, packed side by side into one integer (see _divide_by_euler).
Conjugation negates the rank, so r and t - r share one column and one
division.  The classes of a modulus sum to p(n), so once p and all but
one class of t are stored, that last class is p minus the others, t - 1
subtractions a degree in place of a division (see residue_column).  The
rank rows N(m, n), every rank m of one n, are computed only where a
caller reads them, each from strided slices of p (see _half_row).  A
full table instead runs the recurrence
T(m, n) = p(n - 1 - m) - T(m + 3, n - 1 - m) between the rank tails
T(m, n), the partitions of n with rank >= m, at one subtraction per
new count, and differences each tails row into its half row (see
build_rank_table).  Rows are symmetric, N(-m, n) = N(m, n), so a table
stores only those halves and RankTable.row mirrors one when it hands
it out.  All counts are exact integers; nothing here ever
passes through a float.

Columns are computed once per process and extended, never recomputed.
After that a residue count costs a dict lookup and an index, behind an
inline range check on n (see residue_count).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice, repeat
from math import isqrt
from operator import add, and_, getitem, itemgetter, lshift, rshift, sub

__all__ = [
    "MAX_TABLE_ROWS",
    "RankTable",
    "a_third_exact",
    "build_rank_table",
    "decomposition_check",
    "enumerate_partitions",
    "partition_number",
    "partition_numbers",
    "residue_column",
    "residue_count",
    "table_for",
]

# The largest n a call may read: the length of a residue column, and the
# size of a table that --table-cache builds.  A full table's memory
# grows as n^2 (see build_rank_table): on a 2-vCPU host with Python
# 3.11, in a fresh process with its import, 5000 rows took 2.4 s and a
# 435 MiB peak RSS.
MAX_TABLE_ROWS = 5000


_pcache = [1]
# Residue columns by (r, t), each N(r, t; 0 .. len - 1); extended, never
# recomputed, when a longer one is asked for.  (r, t) and (t - r, t) map
# to the same list, since N(r, t; n) = N(t - r, t; n).
_columns: dict[tuple[int, int], list[int]] = {}


def _divide_by_euler(series: list[int], numerator: Iterable[int],
                     n: int) -> None:
    """Extend series, the coefficients c of a / (q)_inf, from degree
    len(series) to degree n; numerator yields a's coefficients from
    degree len(series) on.

    By Euler's pentagonal theorem (q)_inf = 1 + sum_{k>=1} (-1)^k
    (q^(g_k) + q^(g_k + k)) with g_k = k(3k-1)/2, so

        c[m] = a[m] + sum_{k>=1} (-1)^(k-1) (c[m - g_k] + c[m - g_k - k])

    over the terms with an index >= 0.  While series holds c[0 .. m-1],
    c[m - o] is series[-o], so the active offsets o <= m, split by the
    sign (-1)^(k-1), are two fixed lists of negative indices, and one
    operator.itemgetter per list gathers their terms in C for sum().
    No bytecode runs per term: the getters are rebuilt only when a new
    offset enters, 2K times per call for the K values of k with
    g_k <= n (see _getters).  That is about 2K big-integer additions
    per degree, O(n^1.5) in all.

    While the counts are narrow, _divide_packed first computes four
    degrees a step from packed windows, one addition for four degrees,
    and this loop finishes the last degrees.  Packing stops paying as
    the windows widen, so it runs only while a window, four slots of
    bits + bits(2k) + 1, stays within 3000 bits: to n = 34224.  On a
    2-vCPU host with Python 3.11, in a fresh process, it took p(10^4)
    0.61-0.64 and p(34224) 0.80-0.95 times as long as one degree a
    step; further on it lost (1.48 times as long at 5 * 10^4) and doubled the
    peak RSS.  It also runs only when the call adds at least a quarter
    as many degrees as series holds, since the stored ones are packed
    first: adding 64 degrees to 10^4 took 4.1 ms packed, 0.5 ms not."""
    lo = len(series)
    if n < lo:
        return
    a = iter(numerator)
    if not lo:  # c[0] = a[0]: no offset reaches back yet
        series.append(next(a))
    entries = []  # (o, whether its sign is +), o ascending
    k, g = 1, 1
    while g <= n:
        entries += ((g, k & 1), (g + k, k & 1))  # g_k < g_k + k < g_(k+1)
        g += 3 * k + 1  # g_(k+1) - g_k
        k += 1
    entries.append((n + 1, 0))  # the last degrees read every offset
    bits = 4 * isqrt(n) + 4  # p(n) < 2^bits
    width = bits + (2 * k).bit_length() + 1  # fewer than 2k far terms
    if 4 * width <= 3000 and 4 * (n + 1 - len(series)) >= len(series):
        _divide_packed(series, a, n, entries, bits, width)
    plus: list[int] = []
    minus: list[int] = []
    append = series.append
    m = len(series)
    for o, positive in entries:
        stop = min(o, n + 1)
        if m < stop:  # c[m .. stop-1] read the offsets entered so far
            get_plus, get_minus = _getters(plus, minus)
            for am in islice(a, stop - m):
                append(sum(get_plus(series), am) - sum(get_minus(series)))
            m = stop
        (plus if positive else minus).append(-o)


def _getters(plus: list[int], minus: list[int]) -> tuple[
        itemgetter, itemgetter]:
    """One itemgetter of the indices plus and one of minus.  Both also
    gather the same two or more indices -1, which cancel in the
    difference and keep each result a tuple (a one-index itemgetter
    returns a scalar).  CPython 3.11 parks each freed 20-item tuple on a
    free list that it never allocates from, up to 2000 of them
    (0.37 MB), so neither gathers exactly 20 items."""
    pads = next([-1] * x for x in (2, 3, 4)
                if 20 - x not in (len(plus), len(minus)))
    return itemgetter(*pads, *plus), itemgetter(*pads, *minus)


def _divide_packed(series: list[int], a: Iterator[int], n: int,
                   entries: list[tuple[int, int]], bits: int,
                   width: int) -> None:
    """_divide_by_euler's recurrence four degrees per step, up to the
    last whole step at or below n; series is not empty.

    Window j packs c[j .. j+3] into one integer, c[j + i] in the
    width-bit slot i, and windows with j < 0 hold zeros in the slots
    of negative degrees.  For the step that makes c[m .. m+3], the
    terms of an offset o >= 5 are the four slots of window m - o, all
    stored, so the gathered sum of those windows, sign by sign, holds
    the four far sums in its four slots: one big-integer addition per
    offset serves four degrees.  Each far sum is read back from its
    slot with a bias of half a slot, which keeps a negative sum from
    borrowing from the slot above, and the offsets 1 and 2 are then
    added degree by degree.

    No slot overflows: every coefficient here is a count, at most
    p(n) < e^(pi sqrt(2n/3)) < 2^bits with bits = 4 isqrt(n) + 4
    (Apostol, Introduction to Analytic Number Theory, Thm 14.5), and a
    far sum has fewer than 2k terms, so width = bits + bits(2k) + 1
    holds it, bias included.  Every coefficient, stored or new, is
    checked against [0, 2^bits), and one outside raises
    ArithmeticError, so a wrong bound cannot turn into a wrong count."""
    m = len(series)
    end = m + (n + 1 - m) // 4 * 4
    if min(series) < 0 or max(series) >> bits:
        raise ArithmeticError(
            f"a stored coefficient is outside [0, 2^{bits}), the range of "
            f"the counts to n = {n}")
    w2, w3 = 2 * width, 3 * width
    half = 1 << width - 1
    bias = half * (1 + (1 << width) + (1 << w2) + (1 << w3))
    mask = (1 << width) - 1
    c = [0, 0, 0, *series]  # c[j] for j = -3 .. m-1
    windows = list(map(add, map(add, c[:m],
                                map(lshift, c[1:-2], repeat(width))),
                       map(add, map(lshift, c[2:-1], repeat(w2)),
                           map(lshift, c[3:], repeat(w3)))))
    del c
    unbiased = map(sub, a, repeat(half))
    steps = zip(unbiased, unbiased, unbiased, unbiased)
    extend = series.extend
    extend_windows = windows.extend
    c1, c2 = series[-1], series[-2] if m > 1 else 0  # c[m - 1], c[m - 2]
    plus: list[int] = []
    minus: list[int] = []
    for o, positive in entries:
        stop = min(o - 3, end)  # the first step to read o starts at o - 3
        if m < stop:
            get_plus, get_minus = _getters(plus, minus)
            count = (stop - m + 3) // 4
            for a0, a1, a2, a3 in islice(steps, count):
                s = sum(get_plus(windows), bias) - sum(get_minus(windows))
                d0 = (s & mask) + a0 + c1 + c2
                d1 = (s >> width & mask) + a1 + d0 + c1
                c2 = (s >> w2 & mask) + a2 + d1 + d0
                c1 = (s >> w3) + a3 + c2 + d1
                if (d0 | d1 | c2 | c1) >> bits:
                    raise ArithmeticError(
                        f"a coefficient left [0, 2^{bits}), the range of "
                        f"the counts to n = {n}")
                extend((d0, d1, c2, c1))
                x = windows[-1] >> width | d0 << w3
                y = x >> width | d1 << w3
                z = y >> width | c2 << w3
                extend_windows((x, y, z, z >> width | c1 << w3))
            m += 4 * count
        if o >= 5:  # window m - o is windows[3 - o]
            (plus if positive else minus).append(3 - o)


def _extend_pcache(n: int) -> None:
    # 1/(q)_inf = sum_n p(n) q^n: the numerator is 1, and p(0) = 1 is
    # stored from the start.
    _divide_by_euler(_pcache, [0] * (n + 1 - len(_pcache)), n)


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


class RankTable:
    """Counts N(m, n) for all 0 <= n <= n_max.

    Row n covers m in [-(n-1), n-1]; row 0 is the single count 1 for the
    empty partition.  Conjugation negates the rank, so N(-m, n) =
    N(m, n), and row n is stored once as its half, N(m, n) for
    m = 0 .. n-1 ([1] for n = 0): the half that build_rank_table and
    _half_row compute and that a cache file holds.  rows, if given, are
    such halves, and a row of any other length is refused.  row()
    mirrors the half into a new list, so a caller that mutates it cannot
    corrupt the table.  A table made without rows computes each half the
    first time it is read and keeps it; residue counts read columns and
    never a row.
    """

    __slots__ = ("n_max", "_rows")

    def __init__(self, n_max: int, rows: list[list[int]] | None = None):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if rows is None:
            rows = [None] * (n_max + 1)
        elif len(rows) != n_max + 1:
            raise ValueError("row count does not match n_max")
        else:
            for n, half in enumerate(rows):
                if len(half) != max(n, 1):
                    raise ValueError(
                        f"row {n} must hold the {max(n, 1)} counts "
                        f"N(m, {n}) for m >= 0, not {len(half)}")
        self.n_max = n_max
        self._rows: list[list[int] | None] = rows

    def _row(self, n: int) -> list[int]:
        """The stored half of row n, computed on first read; n must be in
        range."""
        half = self._rows[n]
        if half is None:
            half = self._rows[n] = _half_row(n) if n else [1]
        return half

    def row(self, n: int) -> list[int]:
        """Counts for m = -(n-1) .. n-1 in order, as a new list."""
        self._check_n(n)
        half = self._row(n)
        return half[:0:-1] + half

    def count(self, m: int, n: int) -> int:
        """N(m, n); zero outside the legal rank range."""
        self._check_n(n)
        m = abs(m)
        return 0 if m >= max(n, 1) else self._row(n)[m]

    def _check_n(self, n: int, name: str = "n") -> None:
        """Refuse an n, called `name`, that the table does not hold."""
        if not isinstance(n, int):
            raise TypeError(f"{name} must be an int")
        if n < 0:
            raise ValueError(f"{name} must be nonnegative")
        if n > self.n_max:
            raise ValueError(
                f"needs counts up to {n} but table holds {self.n_max}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankTable):
            return NotImplemented
        return self.n_max == other.n_max and all(
            self._row(n) == other._row(n) for n in range(self.n_max + 1))

    def __repr__(self) -> str:
        return f"RankTable(n_max={self.n_max})"


def table_for(need: int, n_max: int | None = None) -> RankTable:
    """A table without rows that may read counts up to `need`.  A need
    past n_max, the CLI's --n-max, or past MAX_TABLE_ROWS is refused.  A
    negative need reads nothing; a negative n_max fails in RankTable."""
    if n_max is not None and need > n_max:
        raise ValueError(
            f"this command requires --n-max >= {need} (got {n_max})")
    size = max(need, 0) if n_max is None else min(max(need, 0), n_max)
    if size > MAX_TABLE_ROWS:
        raise ValueError(
            f"a rank table to n = {size} is past the ceiling of "
            f"{MAX_TABLE_ROWS} rows; its memory grows as n^2")
    return RankTable(size)


def build_rank_table(n_max: int) -> RankTable:
    """Counts N(m, n) for every n <= n_max, by the Atkin-Swinnerton-Dyer
    formula for fixed rank m >= 0,

        sum_n N(m, n) q^n
            = (1/(q)_inf) sum_{k>=1} (-1)^(k-1) q^(k(3k-1)/2 + mk) (1 - q^k).

    Summed over every rank >= m, whose powers telescope since
    q^(g_k + mk) q^k = q^(g_k + (m+1)k), it gives the tails T(m, n), the
    partitions of n with rank >= m:

        T(m, n) = sum_{k>=1} (-1)^(k-1) p(n - g_k - mk),   n >= 1,

    over the k with g_k = k(3k-1)/2 <= n, with p zero at negative
    arguments, and N(m, n) = T(m, n) - T(m + 1, n).  Rows are
    symmetric, N(-m, n) = N(m, n), so only the half m = 0 .. n-1 is
    computed, and the table stores it as it is (see RankTable).  A row
    read alone (see _half_row) takes, for each k, the
    terms over m = 0, 1, ... as the stride -k slice p[n - g_k :: -k]
    and adds or subtracts it into the tails: O(n log n) additions, and
    no memory beyond p and the row.

    A full table runs a recurrence between the tails instead.  Since
    g_(k+1) = g_k + 3k + 1, the terms k >= 2 shifted to k - 1 are
    those of T(m + 3, n - 1 - m) with the opposite sign, so

        T(m, n) = p(n - 1 - m) - T(m + 3, n - 1 - m),   0 <= m <= n - 1,

    and the second term is nonzero only while m + 3 < n - 1 - m, that
    is for m <= hi = (n - 5) // 2.  Phase 1 makes the tails rows
    n = 1 .. n_max in order: a reversed slice of p minus one C-level
    gather of T(m + 3, n - 1 - m) for m <= hi from the rows before it,
    then references into p for m > hi.  Phase 2 takes n = n_max down to
    1: the half row is N(m, n) = T(m, n) - T(m + 1, n) for m <= hi,
    then references into one list of d_1(j) = p(j) - p(j - 1), which is
    N(m, n) for m > hi; tails row n is dropped as soon as its half row
    is made, so the next rows reuse its memory.  That is about n/2
    subtractions per row in each phase, one per new count, against
    2.4n additions for a row of 1000 from the slices (2.7n at 2000),
    one per entry of each slice.

    The tails are one list per row, never one flat buffer of the
    triangle: such a buffer is a single block of n_max^2 / 2 pointers
    (4 MB at n_max = 1000), which glibc serves by mmap, and freeing it
    raises glibc's dynamic mmap threshold to its size, so later blocks
    below that size stay on the heap.  A flat buffer lifted the peak
    RSS of the claims-1000 benchmark pass from 82 to 90 MiB, and with
    the threshold pinned (MALLOC_MMAP_THRESHOLD_) it read 82 again.

    Every half row is computed before this returns; RankTable(n_max)
    gives the same table with each row computed when it is first read.
    On a 2-vCPU host with Python 3.11, a fresh process with the import
    takes 0.15, 0.42-0.43 and 0.71-0.84 s of CPU and a peak RSS of 28,
    74 and 153 MiB for 1000, 2000 and 3000 rows.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    partition_number(n_max)
    p = _pcache
    # Phase 1: rows[n][m] = T(m, n) for m = 0 .. n-1, and T(m, n) = 0 for
    # m >= n; row 0 is T(0, 0) = 1, which no tails row reads.
    rows = [[1]]
    for n in range(1, n_max + 1):
        hi = max((n - 5) // 2, -1)
        # p(n - 1 - m) - T(m + 3, n - 1 - m) for m = 0 .. hi, from tails
        # rows n-1 down to n-1-hi.  No name holds the gather: it stops
        # one item short of its slice's end, so it would keep those rows
        # alive through phase 2.
        row = list(map(sub, p[n - 1:n - 2 - hi:-1],
                       map(getitem, rows[n - 1:n - 2 - hi:-1],
                           range(3, hi + 4))))
        row += p[n - 2 - hi::-1]
        rows.append(row)
    # d_1(j) = p(j) - p(j - 1) for j = 0 .. n_max - 1
    d1 = [1, *map(sub, p[1:n_max], p[:n_max - 1])]
    # Phase 2: each tails row gives way to the rank row of its n.
    for n in range(n_max, 0, -1):
        tails = rows[n]
        hi = max((n - 5) // 2, -1)
        # map stops at the end of tails[1:hi + 2]: m = 0 .. hi
        half = list(map(sub, tails, tails[1:hi + 2]))
        half += d1[n - 2 - hi::-1]
        rows[n] = half
    return RankTable(n_max, rows)


def _half_row(n: int) -> list[int]:
    """N(m, n) for m = 0 .. n-1 from the tails T(m, n) of
    build_rank_table's docstring, one strided slice of p per k; p is
    extended to n first.  n >= 1."""
    if n >= len(_pcache):
        _extend_pcache(n)
    p = _pcache
    # k = 1 gives T(m, n) = p(n - 1 - m); no partition of n has rank n.
    tails = [*p[n - 1::-1], 0]
    k = 2
    g = 5  # g_k
    while g <= n:
        seg = p[n - g::-k]
        width = len(seg)
        tails[:width] = map(add if k & 1 else sub, tails[:width], seg)
        g += 3 * k + 1  # g_(k+1) - g_k
        k += 1
    return list(map(sub, tails, tails[1:]))


def _validate_rt(r: int, t: int) -> None:
    if t < 1:
        raise ValueError("modulus t must be positive")
    if not 0 <= r < t:
        raise ValueError("residue r must satisfy 0 <= r < t")


def _residue_numerator(r: int, t: int, lo: int, hi: int) -> list[int]:
    """Coefficients of degrees lo .. hi of the numerator in
    residue_column, so that extending a column costs only its new
    degrees."""
    terms = [0] * (hi + 1 - lo)
    if r == 0 and lo == 0:
        terms[0] = 1
    k, g = 1, 1  # g = g_k = k(3k-1)/2
    while g <= hi:
        sign = 1 if k & 1 else -1
        if r == 0:
            # [r = 0] (q)_inf: the empty partition's 1 times Euler's product
            for e in (g, g + k):
                if lo <= e <= hi:
                    terms[e - lo] -= sign
        # |m| over m = r + jt and m = r - t - jt (j >= 0), so each m != 0
        # counts as both m and -m: r = 0 lists 0 once and +-jt for j >= 1.
        # Each |m| adds sign q^e (1 - q^k) with e = g_k + |m| k.
        step = t * k
        for start in (r, t - r):
            e = g + start * k
            if e + k < lo:  # skip to the first term that reaches lo
                e += (lo - k - e + step - 1) // step * step
            for e in range(e, hi + 1, step):
                if e >= lo:
                    terms[e - lo] += sign
                if lo <= e + k <= hi:
                    terms[e + k - lo] -= sign
        g += 3 * k + 1
        k += 1
    return terms


def _derive(column: list[int], r: int, t: int, n_max: int) -> bool:
    """Extend column, the stored column of (r, t), to n_max as p minus
    the other classes 0 .. t // 2 of t (see residue_column), and say
    whether it did.  It does nothing when p or another class is shorter
    than n_max, or when a division would cost less."""
    k_max = (1 + isqrt(1 + 24 * n_max)) // 6  # K: g_K <= n_max < g_(K+1)
    if len(_pcache) <= n_max or t - 1 >= 2 * k_max:
        return False
    c = min(r, t - r)
    others = []  # (the other class's stored column, its multiplicity)
    for o in range(t // 2 + 1):
        if o != c:
            other = _columns.get((o, t))
            if other is None or len(other) <= n_max:
                return False
            others.append((other, 1 if 2 * o in (0, t) else 2))
    lo = len(column)
    counts = _pcache[lo:n_max + 1]
    for other, times in others:
        part = other[lo:n_max + 1]
        for _ in range(times):
            counts = list(map(sub, counts, part))
    if 0 < c < t - c:  # residues c and t - c: p counts this class twice
        if any(map(and_, counts, repeat(1))):
            raise ArithmeticError(
                f"N({c}, {t}; n) from p is not an integer: "
                "a stored column is wrong")
        counts = list(map(rshift, counts, repeat(1)))
    if min(counts) < 0:
        raise ArithmeticError(
            f"N({c}, {t}; n) from p is negative: a stored column is wrong")
    column += counts
    return True


def _column(r: int, t: int, n_max: int) -> list[int]:
    """The stored column of (r, t), at least to n_max; validated."""
    _validate_rt(r, t)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    column = _columns.get((r, t))
    if column is None:
        column = _columns[r, t] = _columns.setdefault((-r % t, t), [])
    if len(column) <= n_max and not _derive(column, r, t, n_max):
        _divide_by_euler(
            column, _residue_numerator(r, t, len(column), n_max), n_max)
    return column


def residue_column(r: int, t: int, n_max: int) -> tuple[int, ...]:
    """N(r, t; n) for n = 0 .. n_max: partitions of n with rank
    congruent to r modulo t.

    Summing the Atkin-Swinnerton-Dyer formula for fixed rank m (see
    build_rank_table) over every m = r (mod t), with m and -m counted
    apart, gives

        sum_n N(r, t; n) q^n = [r = 0]
            + (1/(q)_inf) sum_{k>=1} (-1)^(k-1) q^(g_k) (1 - q^k) S(q^k),

    where g_k = k(3k-1)/2 and S(x) = sum_{m = r (mod t)} x^|m|, that is
    (x^r + x^(t-r)) / (1 - x^t), or (1 + x^t) / (1 - x^t) when r = 0.
    Writing [r = 0] as (q)_inf / (q)_inf puts everything over (q)_inf.
    The numerator has O((n_max / t) log n_max) nonzero terms, each +-1,
    and dividing by (q)_inf is the pentagonal recurrence of p(n),
    gathered in C (see _divide_by_euler).  On a 2-vCPU host with
    Python 3.11, a cold column of (0, 3) takes 0.036 s of CPU to
    n = 10^4, 0.12 s to 2 * 10^4 and 0.49-0.56 s to 4 * 10^4 in a fresh
    process (medians of 5).

    Conjugating a partition negates its rank, so N(r, t; n) =
    N(t - r, t; n) (Dyson 1944); the numerator above is the same for r
    and t - r, since S lists both progressions.  Columns are kept for
    the life of the process, one list under both keys (r, t) and
    (t - r, t), so the two residues share one division: a longer
    request for either extends the stored column and never recomputes
    it.

    The classes 0 .. t // 2 of t partition every n, so p(n) is their
    sum, each class other than 0 and t/2 counted twice.  When p and
    every other class are already stored to n_max, the new degrees of
    this one are p minus those, halved if it counts twice: t - 1
    subtractions a degree against the 2K pentagonal terms of a
    division, K the number of k with g_k <= n_max, so it is done only
    when t - 1 < 2K.  Neither p nor another class is ever extended to
    make this possible: a lone class, a large t or a process that has
    not stored p still runs one division.  Every residue of 2, 3, 5 and
    7 to n = 1000 with p stored takes 7 divisions, not 11.  A remainder
    or a negative count from the difference means a stored list is
    wrong and raises ArithmeticError.  The tuple returned is a copy,
    which no caller can change."""
    return tuple(_column(r, t, n_max)[:n_max + 1])


def residue_count(table: RankTable, r: int, t: int, n: int) -> int:
    """N(r, t; n): partitions of n with rank congruent to r modulo t.

    Read from the stored residue column; only when that is missing or
    shorter than the table is it computed to the table's n_max, by a
    division or from p and the other classes (see residue_column).  No
    row of the table is read.  Once the column is stored, a read costs
    one dict lookup, a length test, an inline range check on n and one
    index: 0.16 us a call on a 2-vCPU host with Python 3.11, against
    0.19 us with RankTable._check_n called on every read.  So _check_n
    runs only when n is not a plain int in 0 .. n_max, to raise its
    error (a bool passes it, as an int), and only after r and t have
    been validated."""
    column = _columns.get((r, t))
    if column is None or len(column) <= table.n_max:
        column = _column(r, t, table.n_max)
    if not (type(n) is int and 0 <= n <= table.n_max):
        table._check_n(n)
    return column[n]


def a_third_exact(table: RankTable, n: int) -> int:
    """The exact integer N(0,3;n) - N(1,3;n).

    This equals the rank generating function evaluated at a primitive
    third root of unity (the two nonzero residue classes carry equal
    counts), and is tiny compared to the individual counts."""
    return residue_count(table, 0, 3, n) - residue_count(table, 1, 3, n)


def decomposition_check(table: RankTable, r: int, t: int, n: int) -> bool:
    """Cross-check N(r, t; n) against the rank row at n.

    Sums row n exactly by rank class mod t and compares: the sum for
    class r must equal the count, and all t sums must add up to p(n).
    That is the root-of-unity average
    (1/t) [p(n) + sum_{j=1..t-1} z^(-rj) sum_m N(m,n) z^(jm)],
    z = e^(2 pi i / t), written without floats: in exact arithmetic it
    equals sums[r] + (p(n) - sum(sums)) / t.  This ties the residue
    column to the full rank row through an identity neither is built
    from, and p(n) is the independent datum, so one wrong count in the
    row fails every residue.

    The stored half row is read as it is: the stride-t slice from each
    of its first t entries, m = i, i + t, ..., adds to class i and, for
    the mirrored ranks -m, to class -i mod t; N(0, n) is its own mirror
    and counts once.

    No claim or command calls it; it stays because perfbench's
    root-of-unity ops call it.  ROADMAP item 4 decides whether it moves
    to perfbench/oracle.py.
    """
    exact = residue_count(table, r, t, n)
    half = table._row(n)
    sums = [0] * t  # sums[c] = sum of N(m, n) over m = c (mod t)
    for i in range(min(t, len(half))):
        s = sum(half[i::t])
        sums[i] += s
        sums[-i % t] += s
    sums[0] -= half[0]
    return sums[r] == exact and sum(sums) == partition_number(n)
