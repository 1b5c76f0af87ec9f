"""The independent algorithms the tests compare production code with.

Each function here is kept unchanged from when it was written.  Most are
production algorithms that a faster one replaced; the rest score every
partition, expand a generating function, or write a bound out as the
paper states it.  The comment above each names the production function
or functions it guards, and test_oracles.py maps every public name of
dysonrank to its oracles here, or to the reason it has none.  The test
modules and the CI workflow import oracles from here, never from one
another; the benchmark keeps its own oracles in perfbench/oracle.py.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from decimal import Decimal, localcontext
from functools import cache
from itertools import islice, repeat
from math import isqrt
from operator import gt, mul

from dysonrank import (
    MaxProductEntry,
    RankTable,
    bounds,
    core,
    enumerate_partitions,
    max_table,
    maxprod,
    partition_number,
    partition_numbers,
    product_over_partition,
    residue_column,
    residue_count,
    s_ratio,
    t_gap,
)
from dysonrank.core import _half_row
from dysonrank.maxprod import (CLOSED_FORM_START, CONJECTURE_MOD2_START,
                               _knapsack)

SIN_PI_18 = math.sin(math.pi / 18.0)


# Partition numbers, residue columns and rank rows (core).


# Guards residue_column and residue_count: every t-th entry of a table row.
def row_residue_count(table, r, t, n):
    """N(r, t; n) as the sum of every t-th entry of the table's row n."""
    if n == 0:
        return 1 if r == 0 else 0
    row = table.row(n)
    # row index i holds m = i - (n-1), so i runs over (r + n - 1) mod t steps
    return sum(row[(r + n - 1) % t::t])


# Guards build_rank_table's rows, as the rank brute_rank_counts measures.
def rank(parts):
    """Rank of a partition given as a nonincreasing sequence of parts:
    its largest part minus its number of parts, 0 for the empty one."""
    if not parts:
        return 0
    return parts[0] - len(parts)


# Guards build_rank_table's rows: every partition's rank counted.
def brute_rank_counts(n):
    """Rank counts of n by exhaustive enumeration: every partition built
    and its rank measured.  The oracle for the table's rows."""
    counts = Counter()
    for parts in enumerate_partitions(n):
        counts[rank(parts)] += 1
    return dict(counts)


# Guards residue_count's refusals: the range check run on every read.
def checked_residue_count(table, r, t, n):
    """residue_count as it read with RankTable._check_n on every read:
    the column first, to the table's n_max, then n's check."""
    column = core._column(r, t, table.n_max)
    table._check_n(n)
    return column[n]


# Guards decomposition_check: the root-of-unity average of row n.
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


# Guards RankTable.row (core._half_row) and build_rank_table, count by count.
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


# Guards partition_numbers and partition_number: a knapsack over parts.
def coin_partition_numbers(n_max):
    """p(0 .. n_max) by the knapsack over parts, one pass per part: a
    different algorithm from the pentagonal recurrence."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for s in range(part, n_max + 1):
            p[s] += p[s - part]
    return p


# Guards partition_numbers and residue_column: the per-term pentagonal loop.
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


# Guards a_third_exact and residue_column(0/1, 3): Dyson's series at z = w.
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


# Guards build_rank_table: the two-variable rank generating function.
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


# Guards a_third_exact past any table: A(n) from the lone row n.
def a_third(n: int) -> int:
    """N(0,3;n) - N(1,3;n) from the single Atkin-Swinnerton-Dyer row n,
    for n past any table a test builds."""
    by_residue = [0, 0, 0]
    # rows are symmetric, N(-m, n) = N(m, n)
    for m, count in enumerate(_half_row(n)):
        by_residue[m % 3] += count
        if m:
            by_residue[-m % 3] += count
    return by_residue[0] - by_residue[1]


# The product inequality (convexity).


# Guards scan_region: one multiplication and comparison per pair.
def pairwise_scan(r, t, a_min, b_max, column=residue_column):
    """(pairs_checked, violations) of scan_region, pair by pair."""
    counts = column(r, t, 2 * b_max)
    checked = 0
    bad = []
    for a in range(a_min, b_max + 1):
        ca = counts[a]
        for b in range(a, b_max + 1):
            checked += 1
            lhs = ca * counts[b]
            rhs = counts[a + b]
            if lhs <= rhs:
                bad.append((a, b, lhs, rhs))
    return checked, bad


# Guards scan_region: one pass per row, with no log-concave stop.
def row_pass_scan(r, t, a_min, b_max, column=residue_column):
    """(pairs_checked, violations) of scan_region, each row tested in one
    C-level pass and walked pair by pair only when it holds a
    violation."""
    counts = column(r, t, 2 * b_max)

    checked = 0
    bad = []
    for a in range(a_min, b_max + 1):
        ca = counts[a]
        width = b_max + 1 - a
        checked += width
        if all(map(gt, map(mul, repeat(ca, width), counts[a:b_max + 1]),
                   counts[2 * a:a + b_max + 1])):
            continue
        for b in range(a, b_max + 1):
            lhs = ca * counts[b]
            rhs = counts[a + b]
            if lhs <= rhs:
                bad.append((a, b, lhs, rhs))
    return checked, bad


# Guards scan_region's row stop, convexity._concave_start.
def concave_start_by_definition(counts):
    """The least L of scan_region's lemma, as one more than the largest
    index that a positive, log-concave tail cannot start at or below."""
    top = len(counts) - 1
    blocked = [i + 1 for i, c in enumerate(counts) if c <= 0]
    blocked += [n for n in range(1, top)
                if counts[n] ** 2 < counts[n - 1] * counts[n + 1]]
    return max(blocked, default=0)


# Maximum products over partitions (maxprod).

# brute_max, which scores every partition, is the oracle for max_table's
# values and optima sets, capped or not.  The Counter closure, the
# (n+1)^2 value table and the tuple-prefix optima walk over it below are
# production algorithms that were replaced, kept unchanged as oracles
# for the part-count closure and the knapsack's optima walk.  The
# part-count closure and the listing conjecture check after them are in
# turn what the counting knapsack replaced, kept as its oracles.  The
# knapsack with a pass for every part and the walk that tries every part
# are what the skipping knapsack and walk replaced, kept as their
# oracles.  The closed-form sweep that builds and multiplies out every
# closed form is what the carried sweep replaced, kept as its oracle.


# Guards max_table's values and optima sets, capped or not.
def brute_max(table: RankTable, r: int, t: int, n: int,
              optima_cap: int | None = maxprod.DEFAULT_OPTIMA_CAP
              ) -> MaxProductEntry:
    """max_table's entry for n by scoring every partition of n;
    exponential, so keep n modest.  Partitions come in reverse
    lexicographic order, (n) first.  A set of more than optima_cap
    optima keeps the first optima_cap of that order and is marked
    truncated; the set kept is stored sorted ascending."""
    f = [residue_count(table, r, t, j) for j in range(n + 1)]
    best = -1
    optima: list[tuple[int, ...]] = []
    for parts in enumerate_partitions(n):
        v = math.prod(f[part] for part in parts)
        if v > best:
            best = v
            optima = [parts]
        elif v == best:
            optima.append(parts)
    truncated = optima_cap is not None and len(optima) > optima_cap
    kept = optima[:optima_cap] if truncated else optima
    return MaxProductEntry(n, best, tuple(sorted(kept)), truncated)


# Guards maxprod._best_and_count: a knapsack pass for every part.
def full_best_and_count(f: list[int], n_max: int
                        ) -> tuple[list[int], list[int], list[int]]:
    """best, cnt and top from one knapsack pass per part 1 .. n_max."""
    best = [1] + [-1] * n_max
    cnt = [1] * (n_max + 1)
    top = [0] * (n_max + 1)
    for c in range(1, n_max + 1):
        fc = f[c]
        for s in range(c, n_max + 1):
            cand = fc * best[s - c]
            if cand > best[s]:
                best[s] = cand
                cnt[s] = cnt[s - c]
                top[s] = c
            elif cand == best[s]:
                cnt[s] += cnt[s - c]
    return best, cnt, top


# Guards maxprod._walk_optima: the walk that tries every part.
def full_walk_optima(best: list[int], top: list[int], f: list[int],
                     n: int):
    """Every optimum of n in reverse lexicographic order, trying every
    part from n downwards."""
    path: list[int] = []
    stack: list[tuple[int, int, int]] = [(n, n, 0)]
    while stack:
        s, c, depth = stack.pop()
        del path[depth:]
        while s:
            if c > s:
                c = s
            if f[c] * best[s - c] == best[s] and top[s - c] <= c:
                if c > top[s]:
                    stack.append((s, c - 1, len(path)))
                path.append(c)
                s -= c
            else:
                c -= 1
        yield tuple(path)


# Guards _closure_mod2 below, and so maxprod._closure_size_mod2.
def counter_closure_mod2(start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Closure of a partition under swapping (2,2) <-> (4) and
    (2,2,2) <-> (6), both directions."""
    swaps = [((2, 2), (4,)), ((4,), (2, 2)),
             ((2, 2, 2), (6,)), ((6,), (2, 2, 2))]
    first = tuple(sorted(start, reverse=True))
    seen = {first}
    frontier = [first]
    while frontier:
        cur = Counter(frontier.pop())
        for before, after in swaps:
            need = Counter(before)
            if all(cur[k] >= v for k, v in need.items()):
                nxt = cur - need + Counter(after)
                parts = tuple(sorted(nxt.elements(), reverse=True))
                if parts not in seen:
                    seen.add(parts)
                    frontier.append(parts)
    return seen


# Guards max_table's values and _knapsack's top, with prefix_collect_optima.
def _value_table(f: list[int], n_max: int) -> list[list]:
    """V[s][c] = best product over partitions of s with parts <= c,
    or -1 when no such partition exists (s > 0, c = 0).  Zero products
    are real values (zero factors happen), hence the separate sentinel."""
    V = [[1] * (n_max + 1)]
    for s in range(1, n_max + 1):
        row = [-1] * (n_max + 1)
        prev = -1
        for c in range(1, n_max + 1):
            best = prev
            if c <= s:
                sub = V[s - c][c]
                if sub >= 0:
                    cand = f[c] * sub
                    if cand > best:
                        best = cand
            row[c] = prev = best
        V.append(row)
    return V


# Guards max_table's optima sets and truncation, and _knapsack's top.
def prefix_collect_optima(V: list[list], f: list[int], n: int,
                          cap: int | None
                          ) -> tuple[list[tuple[int, ...]], bool]:
    """All partitions attaining V[n][n], each found exactly once (a
    partition is reconstructed only at its own largest part), taking
    the larger part first, so in reverse lexicographic order.  Capped,
    the first cap of that order are kept, sorted, and truncated is
    whether more exist."""
    limit = None if cap is None else cap + 1
    found: list[tuple[int, ...]] = []
    stack: list[tuple[int, int, tuple[int, ...]]] = [(n, n, ())]
    while stack:
        s, c, prefix = stack.pop()
        while True:
            if s == 0:
                found.append(prefix)
                break
            if c > s:
                c = s
            target = V[s][c]
            takes = V[s - c][c] >= 0 and f[c] * V[s - c][c] == target
            skips = c > 1 and V[s][c - 1] == target
            if takes and skips:
                stack.append((s, c - 1, prefix))
            if takes:
                prefix = prefix + (c,)
                s -= c
            elif skips:
                c -= 1
            else:  # pragma: no cover - V guarantees one branch matches
                break
        if limit is not None and len(found) >= limit:
            break
    truncated = cap is not None and len(found) > cap
    return sorted(found[:cap]), truncated


# Guards maxprod._closure_size_mod2 and conjecture_max_mod2's r = 1 sets.
def _closure_mod2(start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Closure of a partition under swapping (2,2) <-> (4) and
    (2,2,2) <-> (6), both directions.

    The swaps touch only parts 2, 4 and 6, so the search runs over
    their counts (a, b, c) with every other part of start held fixed:
    the moves are (-2,+1,0), (+2,-1,0), (-3,0,+1) and (+3,0,-1), each
    allowed while no count goes negative.  Each reached vector becomes
    one partition in nonincreasing order at the end."""
    rest = tuple(p for p in start if p not in (2, 4, 6))
    first = (start.count(2), start.count(4), start.count(6))
    seen = {first}
    frontier = [first]
    while frontier:
        a, b, c = frontier.pop()
        moves = []
        if a >= 2:
            moves.append((a - 2, b + 1, c))
        if b >= 1:
            moves.append((a + 2, b - 1, c))
        if a >= 3:
            moves.append((a - 3, b, c + 1))
        if c >= 1:
            moves.append((a + 3, b, c - 1))
        for vec in moves:
            if vec not in seen:
                seen.add(vec)
                frontier.append(vec)
    return {tuple(sorted(rest + (6,) * c + (4,) * b + (2,) * a,
                         reverse=True))
            for a, b, c in seen}


# Guards conjecture_max_mod2: every optimum listed and compared.
def listing_conjecture_max_mod2(table, r: int, n_hi: int
                                ) -> tuple[int, list]:
    """(checked, mismatches) of the t = 2 conjecture check by listing:
    every optimum from max_table, compared with the expected set (the
    single period-3 form for r = 0, the literal swap closure of the
    canonical partition for r = 1)."""
    entries = max_table(table, r, 2, n_hi, optima_cap=None)
    checked, mismatches = 0, []
    for n in range(CONJECTURE_MOD2_START[r], n_hi + 1):
        if r == 0:
            head = {0: (), 1: (7,), 2: (5,)}[n % 3]
            parts = head + (3,) * ((n - sum(head)) // 3)
            expected = {parts}
        else:
            expected = _closure_mod2(_canonical_mod2(n))
        value = product_over_partition(table, r, 2, next(iter(expected)))
        if entries[n].value != value or set(entries[n].optima) != expected:
            mismatches.append(n)
        checked += 1
    return checked, mismatches


# Guards verify_closed_forms: closed_form called at every n.
def per_n_verify_closed_forms(table, r: int, n_hi: int):
    """verify_closed_forms with closed_form called, and f multiplied
    over its parts, at every n."""
    if r not in CLOSED_FORM_START:
        raise ValueError("closed forms exist for t = 3, r in {0, 1, 2}")
    f, best, cnt, _, _ = _knapsack(table, r, 3, n_hi)
    checked, mismatches = 0, []
    for n in range(CLOSED_FORM_START[r], n_hi + 1):
        value, parts = maxprod.closed_form(r, n)
        product = math.prod(f[part] for part in parts)
        if best[n] != value or product != value or cnt[n] != 1:
            mismatches.append((n, value, parts, best[n], cnt[n]))
        checked += 1
    return maxprod.VerificationReport(checked, mismatches)


# Guards conjecture_max_mod2, as the r = 1 start of _closure_mod2.
def _canonical_mod2(n: int) -> tuple[int, ...]:
    if n % 2 == 0:
        return (2,) * (n // 2)
    return (9,) + (2,) * ((n - 9) // 2)


# Analytic bounds (bounds), written out as literal expressions.


# Guards error_budget's six terms, rewritten from scratch.
def _independent_error_bounds(n: int) -> list[float]:
    """The six bounds, rewritten from scratch for cross-checking."""
    x = math.sqrt(24 * n - 1)
    root = isqrt(n)
    e2pi = math.exp(2 * math.pi)
    third = [k for k in range(2, root // 3 + 1)]
    e1 = (12 / x) * math.fsum(
        math.sqrt(k) * math.sinh(math.pi * x / (18 * k)) for k in third)
    e2 = (0.12 / math.sqrt(3)) * e2pi * math.exp(math.pi / 24) * math.fsum(
        k ** -0.5 for k in range(1, root // 3 + 1))
    e3 = 1.412 * math.sqrt(3) * e2pi * math.fsum(
        k ** -0.5 for k in range(1, root + 1) if k % 3 != 0)
    e4 = 2 * math.sqrt(3) * e2pi * math.exp(math.pi / 12) / math.sqrt(n) \
        * math.fsum(math.sqrt(k) for k in range(1, root // 3 + 1))
    m = root // 3
    e5 = 8 * math.pi * e2pi * math.exp(math.pi / 24) / n ** 0.75 \
        * (m * (m + 1) / 2)
    total6 = 0.0
    for k in range(1, root + 1):
        inner = 0.0
        for v in range(1, k + 1):
            y = (6 * v - 1) / (6 * k)
            d = min((y + 1 / 3) % 1.0, (y - 1 / 3) % 1.0)
            inner += 1.0 / d
        total6 += inner / k
    e6 = 2 ** 0.25 * (math.e + math.exp(-1)) * e2pi / n ** 0.25 * total6
    return [e1, e2, e3, e4, e5, e6]


# Guards error_budget's sixth term, as the double sum of _literal_error_bound.
@cache
def _literal_sixth_sum(root: int) -> float:
    """The sixth bound's double sum to k = root as a literal loop."""
    total = 0.0
    for k in range(1, root + 1):
        mod = 6 * k
        inner = 0.0
        for v in range(1, k + 1):
            a = (6 * v - 1 + 2 * k) % mod
            b = (6 * v - 1 - 2 * k) % mod
            inner += mod / min(a, b)
        total += inner / k
    return total


# Guards error_budget and bounds._error_bounds, bit for bit.
def _literal_error_bound(i: int, n: int) -> float:
    """The six bounds as literal expressions, constants unfolded.  The
    first bound's n-dependent sum is the builtin sum() over a generator;
    the k-sums of bounds 2, 3, 4 and 6 are loops over k summed left to
    right with a plain += (sum() of floats is compensated from Python
    3.12 on, so it would not reproduce the production running sums)."""
    root = isqrt(n)
    total = 0.0
    if i == 1:
        x = math.sqrt(24.0 * n - 1.0)
        hi = isqrt(n) // 3
        return 12.0 / x * sum(
            math.sqrt(k) * math.sinh(math.pi / (18.0 * k) * x)
            for k in range(2, hi + 1))
    if i == 2:
        for k in range(1, root // 3 + 1):
            total += 1.0 / math.sqrt(k)
        return 0.12 * math.exp(2.0 * math.pi + math.pi / 24.0) \
            / math.sqrt(3.0) * total
    if i == 3:
        for k in range(1, root + 1):
            if k % 3:
                total += 1.0 / math.sqrt(k)
        return 1.412 * math.sqrt(3.0) * math.exp(2.0 * math.pi) * total
    if i == 4:
        for k in range(1, root // 3 + 1):
            total += math.sqrt(k)
        return 2.0 * math.sqrt(3.0) \
            * math.exp(2.0 * math.pi + math.pi / 12.0) / math.sqrt(n) * total
    if i == 5:
        hi = isqrt(n) // 3
        return 8.0 * math.pi * math.exp(2.0 * math.pi + math.pi / 24.0) \
            * n ** -0.75 * (hi * (hi + 1) // 2)
    if i == 6:
        return 2.0 ** 0.25 * (math.e + 1.0 / math.e) \
            * math.exp(2.0 * math.pi) * n ** -0.25 * _literal_sixth_sum(root)
    raise ValueError(i)


# Guards ratio_bound, bit for bit.
def _literal_ratio_bound(i: int, n: int) -> float:
    """The six ratio functions as literal expressions, constants unfolded."""
    x = math.sqrt(24.0 * n - 1.0)
    s = math.sinh(math.pi / 18.0 * x)
    e2pi = math.exp(2.0 * math.pi)
    if i == 1:
        return math.sqrt(n) * math.sinh(math.pi / 36.0 * x) \
            / (math.sqrt(2.0) * SIN_PI_18 * s)
    if i == 2:
        return 0.01 * math.exp(2.0 * math.pi + math.pi / 24.0) \
            * n ** 0.25 * x / (SIN_PI_18 * s)
    if i == 3:
        return 2.824 * math.sqrt(3.0) * e2pi * n ** 0.25 * x \
            / (8.0 * SIN_PI_18 * s)
    if i == 4:
        return math.sqrt(6.0) * math.exp(2.0 * math.pi + math.pi / 12.0) \
            * n ** 0.25 * x / (24.0 * SIN_PI_18 * s)
    if i == 5:
        return math.pi * math.exp(2.0 * math.pi + math.pi / 24.0) \
            * n ** 0.25 * x / (8.0 * SIN_PI_18 * s)
    if i == 6:
        return 2.0 ** 0.25 * (math.e + 1.0 / math.e) * e2pi \
            * 3.0 * (n ** 0.75 + 2.0 * n ** 0.25) * x \
            / (8.0 * SIN_PI_18 * s)
    raise ValueError(i)


# Guards lehmer_bounds, bit for bit.
def _literal_lehmer_bounds(n: int) -> tuple[int, float, float, float]:
    """(n, lower, upper, mu) of the Lehmer envelope as literal
    expressions: each bound the exp of its log, lower 0.0 at n = 1."""
    m = math.pi / 6.0 * math.sqrt(24.0 * n - 1.0)
    base = math.log(math.sqrt(3.0) / (12.0 * n))
    rs = 1.0 / math.sqrt(n)
    lo = 0.0 if rs >= 1.0 else math.exp(base + math.log1p(-rs) + m)
    return n, lo, math.exp(base + math.log1p(rs) + m), m


# Guards lehmer_bounds' rounding: the envelope in 60-digit decimal.
_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _decimal_lehmer_bounds(n: int) -> tuple[Decimal, Decimal]:
    """(lower, upper) of Lehmer's envelope (sqrt(3)/12n)(1 -+ 1/sqrt n)
    e^mu, mu = (pi/6) sqrt(24n - 1), in 60-digit decimal arithmetic with
    a literal pi; each operation is correctly rounded, so both values
    are good to about 58 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        rs = 1 / Decimal(n).sqrt()
        mu = _PI_60 / 6 * Decimal(24 * n - 1).sqrt()
        front = Decimal(3).sqrt() / (12 * n) * mu.exp()
        return front * (1 - rs), front * (1 + rs)


# Guards error_budget's lower and upper, L(n) and U(n), bit for bit.
def _literal_envelope(n: int) -> tuple[float, float]:
    """(L(n), U(n)), the main term's envelope, as literal expressions:
    U drops the sine factor, and L keeps its least magnitude sin(pi/18)."""
    x = math.sqrt(24.0 * n - 1.0)
    upper = 8.0 * math.sinh(math.pi / 18.0 * x) / x
    return upper * SIN_PI_18, upper


# Guards lehmer_estimate, bit for bit.
def _literal_lehmer_estimate(n: int) -> tuple[float, float]:
    """lehmer_estimate as literal expressions, constants unfolded."""
    m = math.pi / 6.0 * math.sqrt(24.0 * n - 1.0)
    em = math.exp(m)
    value = math.sqrt(12.0) / (24.0 * n - 1.0) * (
        (1.0 - 1.0 / m) * em + (1.0 + 1.0 / m) / em)
    cap = math.pi ** 2 / math.sqrt(3.0) * (
        math.sinh(m) / m ** 3 + 1.0 / 6.0 - 1.0 / m ** 2)
    return value, cap


# Guards lemma_threshold, bit for bit: its form through s_ratio and t_gap.
def _literal_lemma_threshold(x: float, t: int) -> bool:
    """lemma_threshold as it read before S_x(1) and T_x(1) were written
    out: the loss's log, then s_ratio and t_gap at lambda = 1."""
    if t < 1:
        raise ValueError("requires t >= 1")
    c = bounds.ENVELOPE_C
    rhs = math.log(4.0 * x * math.sqrt(3.0) * t * (1.0 + c)
                   / (1.0 - c) ** 2) + math.log(s_ratio(x, 1.0))
    return t_gap(x, 1.0) > rhs


# The maxn command's rows (cli).


# Guards max_table, and the rows maxn prints, from the full knapsack and walk.
def oracle_entries(r, t, n_max):
    """max_table's entries for n = 0 .. n_max from the knapsack with a
    pass for every part and the walk that tries every part, which share
    no code with the stream max_table reads; a set of more than 64
    optima keeps the first 64 in reverse lexicographic order.  The
    counts come from maxprod's residue_column, so a test that patches
    it changes both."""
    from dysonrank import maxprod
    f = [0, *maxprod.residue_column(r, t, n_max)[1:]]
    best, _, top = full_best_and_count(f, n_max)
    entries = []
    for n in range(n_max + 1):
        # When best[n] == 0 every partition of n is optimal.
        first = list(islice(enumerate_partitions(n) if best[n] == 0
                            else full_walk_optima(best, top, f, n), 65))
        entries.append(MaxProductEntry(n, best[n], tuple(sorted(first[:64])),
                                       len(first) > 64))
    return entries


# Guards maxn's rows and their closed_form_agrees verdicts.
def walking_maxn_rows(r, t, lo, hi, show_partitions):
    """maxn's rows with every printed n's optima walked by the oracles
    and closed_form called per row: a closed form agrees when it is the
    one stored optimum and the set is not truncated.  The oracle for the
    verdict maxn takes from the knapsack's count."""
    from dysonrank.maxprod import CLOSED_FORM_START, closed_form
    rows = []
    for entry in oracle_entries(r, t, hi)[lo:]:
        row = {"n": entry.n, "value": entry.value}
        if (t == 3 and r in CLOSED_FORM_START
                and entry.n >= CLOSED_FORM_START[r]):
            cf_value, cf_parts = closed_form(r, entry.n)
            row["closed_form"] = cf_value
            row["closed_form_agrees"] = (
                cf_value == entry.value and not entry.truncated
                and entry.optima == (cf_parts,))
        if show_partitions:
            row["optima"] = [list(p) for p in entry.optima]
            if entry.truncated:
                row["optima_truncated"] = True
        rows.append(row)
    return rows
