"""Maximal products of residue counts over the parts of a partition.

For fixed residue r and modulus t, each partition (l_1, ..., l_k) of n
gets the score prod_i N(r, t; l_i).  This module computes the maximum
score and the complete set of maximizing partitions by a knapsack
over the parts, and checks them against periodic closed forms (for
t = 3 above the stabilization thresholds); the tests hold a
brute-force oracle over all partitions.  It also machine-checks the
local replacement rules the closed forms rest on, and the analogous
t = 2 conjectures.

The knapsack keeps, for every s, the best product, the number of
partitions of s that attain it and the smallest largest part among
them, in O(n) memory.  Theorem 2 and the t = 2 conjectures are checked
by counting, not by listing: an expected optimum set is confirmed by
its value and its size.

The knapsack runs a pass only for a part that can join an optimum.
Scores are nonnegative, f >= 0.  Let B[s] be the best product over the
partitions of s into parts < c.  Joining optima gives
B[c + j] >= B[c] * B[j] (supermultiplicativity, the property behind
Bessenrodt and Ono's maximal products).  So if f[c] < B[c], and
B[c + z] > 0 at every z >= 1 with B[z] = 0 (the zero-position
condition), every candidate f[c] * B[j] of part c's pass is strictly
below B[c + j].  That pass changes nothing and is skipped, and part c
leads no optimum.  With U the set of parts whose pass runs, the
knapsack makes O(|U| * n) products and the optima walk tries only the
parts in U.  The cost is O(n^2) again only while zero products persist.
The closed-form sweep adds two products per n, since each closed form
is that of n - base with one more base part, and the optima are walked
only for the n a caller asks for (max_table's 0 .. n_max, or a CLI
range with --show-partitions), so neither is quadratic in n.

_maxn_rows, one stream over the knapsack (_knapsack), is the one
closed-form verdict and the one optima walk; max_table,
verify_closed_forms and the CLI's maxn read it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from typing import NamedTuple

from .core import (RankTable, _validate_rt, enumerate_partitions,
                   residue_column, residue_count)
from .reference import counts_column, max_column

__all__ = [
    "MaxProductEntry",
    "VerificationReport",
    "closed_form",
    "conjecture_max_mod2",
    "max_table",
    "product_over_partition",
    "replacement_rules",
    "verify_closed_forms",
    "verify_replacement_rules",
    "verify_small_tables",
]

DEFAULT_OPTIMA_CAP = 64


class MaxProductEntry(NamedTuple):
    """Best product for one n, with every attaining partition.

    optima is sorted ascending; truncated means the set was cut at the
    cap, and then the optima stored are the first cap in reverse
    lexicographic order, (n) first (see _capped)."""
    n: int
    value: int
    optima: tuple[tuple[int, ...], ...]
    truncated: bool = False


class VerificationReport(NamedTuple):
    """Outcome of one verification sweep: how many values it checked,
    and each one that failed; empty means every check held."""
    checked: int
    mismatches: list


def product_over_partition(table: RankTable, r: int, t: int,
                           parts: Sequence[int]) -> int:
    """prod over the parts of N(r, t; part); empty product is 1."""
    _validate_rt(r, t)
    out = 1
    for part in parts:
        if part < 1:
            raise ValueError("parts must be positive")
        out *= residue_count(table, r, t, part)
    return out


def _walk_optima(best: list[int], top: list[int], below: list[int],
                 f: list[int], n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n attaining best[n] > 0, in reverse
    lexicographic order, each exactly once.

    No part of such an optimum has f = 0, so dropping its largest part c
    leaves an optimum of n - c: c leads an optimum of s with parts <= k
    iff c <= k, f[c] * best[s - c] == best[s] and top[s - c] <= c.
    Only a part whose knapsack pass ran can lead: if part c's pass was
    skipped and top[s - c] <= c, best[s - c] was final before that pass,
    so f[c] * best[s - c] < best[s].  The walk therefore tries the parts
    below[c], below[c - 1], ..., where below[k] is the largest part <= k
    whose pass ran, and yields what a walk over every part would, in the
    same order.  A state (s, c) is resumed only while c >= top[s], so
    some optimum of s has parts <= c and no branch dead-ends.  Depth
    first, the larger leading part first; the parts taken so far live in
    one shared path list, a stack entry (s, c, depth) resumes at
    path[:depth], and only a finished partition is copied into a tuple."""
    path: list[int] = []
    stack: list[tuple[int, int, int]] = [(n, n, 0)]
    while stack:
        s, c, depth = stack.pop()
        del path[depth:]
        while s:
            c = below[c if c < s else s]
            if f[c] * best[s - c] == best[s] and top[s - c] <= c:
                if c > top[s]:
                    stack.append((s, c - 1, len(path)))
                path.append(c)
                s -= c
            else:
                c -= 1
        yield tuple(path)


def _best_and_count(f: list[int], n_max: int
                    ) -> tuple[list[int], list[int], list[int], list[int]]:
    """best[s], the largest product of f over the parts of a partition
    of s, cnt[s], how many partitions of s attain it, top[s], the
    smallest largest part among them, and below[s], the largest part
    <= s whose pass ran (0 if none), for s = 0 .. n_max; f >= 0.

    A knapsack over the parts c = 1 .. n_max: after part c, best[s] and
    cnt[s] cover the partitions of s with parts <= c.  A candidate
    f[c] * best[s - c] that beats best[s] takes over its count and sets
    top[s] = c; one that ties adds its count.  The last c that beat
    best[s] is the first with which best[s] is reached, hence top.  cnt[s]
    is exact whenever best[s] > 0 (a zero product could also be reached
    through sub-partitions that are not optimal themselves).

    Before part c's pass best[c] covers the parts < c, and
    best[c + j] >= best[c] * best[j].  So the pass is skipped when
    f[c] < best[c] and best[c + z] > 0 at every zero position z >= 1
    (best[z] = 0): no candidate then reaches best[c + j], and best, cnt
    and top are what the pass would leave.  The zero positions only
    shrink, and are refiltered after each pass that runs, so a skipped
    pass costs one comparison plus one read per zero position.  The
    first pass always runs (best[1] = -1 < f[1]).  Products: O(|U| * n)
    for the set U of parts whose pass runs, 9 to 21 parts for t = 3;
    O(n^2) again only while zero products persist."""
    best = [1] + [-1] * n_max
    cnt = [1] * (n_max + 1)
    top = [0] * (n_max + 1)
    below = [0] * (n_max + 1)
    zeros: Sequence[int] = range(1, n_max + 1)  # where best[z] <= 0
    last = 0
    for c in range(1, n_max + 1):
        fc = f[c]
        if fc < best[c] and all(best[c + z] > 0 for z in zeros
                                if z <= n_max - c):
            below[c] = last
            continue
        for s in range(c, n_max + 1):
            cand = fc * best[s - c]
            if cand > best[s]:
                best[s] = cand
                cnt[s] = cnt[s - c]
                top[s] = c
            elif cand == best[s]:
                cnt[s] += cnt[s - c]
        zeros = [z for z in zeros if best[z] <= 0]
        below[c] = last = c
    return best, cnt, top, below


def _knapsack(table: RankTable, r: int, t: int,
              n: int) -> tuple[list[int], ...]:
    """(f, best, cnt, top, below) for the parts 1 .. n: f[j] =
    N(r, t; j), the score of a part j, with f[0] = 0 since no part is 0,
    and _best_and_count's lists over f."""
    _validate_rt(r, t)
    table._check_n(n, "n_max")
    f = [0, *residue_column(r, t, n)[1:]]
    return (f, *_best_and_count(f, n))


def max_table(table: RankTable, r: int, t: int, n_max: int,
              optima_cap: int | None = DEFAULT_OPTIMA_CAP) -> list[MaxProductEntry]:
    """Entries for n = 0 .. n_max: values from the knapsack, optima
    walked over its best, top and below lists (see _maxn_rows).
    optima_cap bounds the stored set per n (None means unbounded);
    overflow is flagged, never silent.  The walk yields the optima in
    reverse lexicographic order and stops once optima_cap + 1 are found,
    so a truncated set is the first optima_cap of that order."""
    return [entry for *_, entry
            in _maxn_rows(table, r, t, 0, n_max, True, optima_cap)]


def _capped(optima: Iterable[tuple[int, ...]], optima_cap: int | None
            ) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """(stored, truncated) for optima given in reverse lexicographic
    order: the first optima_cap of them (all when None), sorted
    ascending, and whether any was left out.  Reads at most
    optima_cap + 1 optima."""
    if optima_cap is None:
        return tuple(sorted(optima)), False
    first = list(islice(optima, optima_cap + 1))
    return tuple(sorted(first[:optima_cap])), len(first) > optima_cap


def _maxn_rows(table: RankTable, r: int, t: int, lo: int, hi: int,
               walk: bool, optima_cap: int | None = DEFAULT_OPTIMA_CAP
               ) -> Iterator[tuple[int, int, int, tuple[int, bool] | None,
                                   MaxProductEntry | None]]:
    """(n, best, cnt, closed, entry) for n = lo .. hi, in order: the one
    closed-form verdict and the one optima walk, read by max_table,
    verify_closed_forms and the CLI's maxn.  best is the best product,
    attained by cnt partitions.  closed is (closed_form(r, n)'s value,
    whether it is the unique optimum: best = value = the product over
    its parts and cnt = 1) for t = 3 from CLOSED_FORM_START[r] on, else
    None; values and products are carried (see _carried_closed_forms).
    entry is max_table's entry for n, optima capped at optima_cap (see
    _capped), if walk, else None.  The knapsack and the closed forms run
    before the first row; a row's optima are walked only when it is
    read, so a caller that stops early walks no further."""
    f, best, cnt, top, below = _knapsack(table, r, t, hi)
    closed = {}
    if t == 3 and r in CLOSED_FORM_START:
        start = max(lo, CLOSED_FORM_START[r])
        closed = {n: (value, best[n] == value == product and cnt[n] == 1)
                  for n, value, product
                  in _carried_closed_forms(r, f, start, hi)}
    for n in range(lo, hi + 1):
        entry = None
        if walk:
            # When best[n] == 0 every partition of n is optimal.
            optima = (enumerate_partitions(n) if best[n] == 0
                      else _walk_optima(best, top, below, f, n))
            entry = MaxProductEntry(n, best[n], *_capped(optima, optima_cap))
        yield n, best[n], cnt[n], closed.get(n), entry


# Periodic closed forms above the stabilization threshold.  Heads are
# the fixed non-base parts; the base part repeats to absorb n.  The
# coefficient is the product of the head parts' counts, taken from the
# frozen small table so there is a single source of truth.
_HEADS_R0 = {0: (), 1: (13, 13, 10), 2: (13, 10), 3: (10,), 4: (13, 13, 13),
             5: (13, 13), 6: (13,)}
_HEADS_R12 = {0: (), 1: (15,), 2: (15, 15), 3: (17,), 4: (17, 15),
              5: (11, 11, 11), 6: (12, 11, 11), 7: (12, 12, 11), 8: (11, 11),
              9: (12, 11), 10: (12, 12), 11: (11,), 12: (12,), 13: (15, 12)}

CLOSED_FORM_START = {0: 33, 1: 22, 2: 22}
_BASE_PART = {0: 7, 1: 14, 2: 14}


def closed_form(r: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(value, partition) from the periodic case table.

    The partition is the head for n modulo the base part plus
    (n - sum(head))/base copies of the base part, in canonical
    nonincreasing order; the value is the product of the head parts'
    counts times the base count to that power."""
    if r not in (0, 1, 2):
        raise ValueError("closed forms exist for t = 3, r in {0, 1, 2}")
    if n < CLOSED_FORM_START[r]:
        raise ValueError(
            f"closed form for r={r} applies from n={CLOSED_FORM_START[r]}")
    base = _BASE_PART[r]
    head = (_HEADS_R0 if r == 0 else _HEADS_R12)[n % base]
    reps, rem = divmod(n - sum(head), base)
    if rem:  # head sums are chosen per residue class; cannot happen
        raise AssertionError(f"case table broken at r={r}, n={n}")
    counts = counts_column(r)
    value = math.prod(counts[part] for part in head) * counts[base] ** reps
    parts = tuple(sorted(head + (base,) * reps, reverse=True))
    return value, parts


def _carried_closed_forms(r: int, f: list[int], lo: int, hi: int
                          ) -> Iterator[tuple[int, int, int]]:
    """(n, value, product) for n = lo .. hi: closed_form(r, n)'s value
    and the product of f over its parts.  Past the first base values,
    the closed form of n is that of n - base plus one base part, so both
    are carried from n - base with one multiplication each, by the
    frozen base count and by f[base]; closed_form itself is called only
    to seed each residue class modulo base."""
    base = _BASE_PART[r]
    base_count = counts_column(r)[base]
    last: list[tuple[int, int] | None] = [None] * base  # by n mod base
    for n in range(lo, hi + 1):
        prev = last[n % base]
        if prev is None:
            value, parts = closed_form(r, n)
            product = math.prod(f[part] for part in parts)
        else:
            value, product = prev[0] * base_count, prev[1] * f[base]
        last[n % base] = value, product
        yield n, value, product


def verify_closed_forms(table: RankTable, r: int,
                        n_hi: int) -> VerificationReport:
    """Closed form == dynamic program, value and unique optimum, over
    CLOSED_FORM_START[r] <= n <= n_hi.

    At each n the best product over partitions of n must equal the
    closed-form value, the table's counts over the closed-form parts
    must multiply to that value, and exactly one partition may attain
    it: together, the closed form is the unique optimum, _maxn_rows'
    verdict.  A mismatch is recorded as (n, value, parts, best, count).
    The values and products are carried along each residue class modulo
    the base part (see _carried_closed_forms), one multiplication per n
    each, so the sweep costs O(n_hi) products beside the knapsack."""
    if r not in CLOSED_FORM_START:
        raise ValueError("closed forms exist for t = 3, r in {0, 1, 2}")
    checked, mismatches = 0, []
    for n, best, cnt, (value, agrees), _ in _maxn_rows(
            table, r, 3, CLOSED_FORM_START[r], n_hi, False):
        if not agrees:
            mismatches.append((n, value, closed_form(r, n)[1], best, cnt))
        checked += 1
    return VerificationReport(checked, mismatches)


# Local replacement rules from the stabilization arguments: replacing
# the left multiset by the right one strictly increases the product.
_RULES_R0 = [
    ((1, 1, 1, 1), (4,)),
    ((3, 3), (6,)),
    ((4, 4, 4, 4, 4), (13, 7)),
    ((6, 6), (4, 4, 4)),
    ((9, 9), (7, 7, 4)),
    ((10, 10), (13, 7)),
    ((13, 13, 13, 13), (10, 7, 7, 7, 7, 7, 7)),
    ((7, 1), (4, 4)),
    ((7, 7, 4, 4, 4), (13, 13)),
    ((7, 7, 7, 7, 4, 4), (13, 13, 10)),
    ((7, 7, 7, 7, 7, 4), (13, 13, 13)),
]
_RULES_R1 = [
    ((2, 2, 2), (6,)),
    ((11, 11, 11, 11), (15, 15, 14)),
    ((12, 12, 12), (14, 11, 11)),
    ((15, 15, 15), (12, 11, 11, 11)),
]

# Family rules: a straggler part s next to an allowed part a is beaten
# by the optimal partition of a + s.
_FAMILY_R0 = {"stragglers": (3, 6, 16), "parts": (3, 4, 6, 7, 9, 10, 13, 16)}
_FAMILY_R1 = {"stragglers": (2,), "parts": tuple(
    i for i in range(1, 22) if i != 2)}


def _optimal_partition(r: int, n: int) -> tuple[int, ...]:
    if n >= CLOSED_FORM_START[r]:
        return closed_form(r, n)[1]
    return max_column(r)[n][1][0]


def replacement_rules(r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The full rule list for residue r: the explicit pairs plus the
    straggler families expanded against the optimal targets."""
    if r not in (0, 1, 2):
        raise ValueError("rules exist for t = 3, r in {0, 1, 2}")
    explicit = _RULES_R0 if r == 0 else _RULES_R1
    family = _FAMILY_R0 if r == 0 else _FAMILY_R1
    rules = list(explicit)
    seen = {tuple(sorted(before)) for before, _ in rules}
    for s in family["stragglers"]:
        for a in family["parts"]:
            before = tuple(sorted((a, s), reverse=True))
            if tuple(sorted(before)) in seen:
                continue
            seen.add(tuple(sorted(before)))
            rules.append((before, _optimal_partition(r, a + s)))
    return rules


def verify_replacement_rules(table: RankTable, r: int) -> VerificationReport:
    """product(after) > product(before), exactly, for every rule."""
    t = 3
    checked, mismatches = 0, []
    for before, after in replacement_rules(r):
        pb = product_over_partition(table, r, t, before)
        pa = product_over_partition(table, r, t, after)
        if sum(before) != sum(after) or pa <= pb:
            mismatches.append((before, after, pb, pa))
        checked += 1
    return VerificationReport(checked, mismatches)


def verify_small_tables(table: RankTable, r: int) -> VerificationReport:
    """Dynamic program against the frozen golden column (max value and
    complete optima) over the tabulated range."""
    column = max_column(r)
    top = max(column)
    entries = max_table(table, r, 3, top)
    checked, mismatches = 0, []
    for n, (value, optima) in sorted(column.items()):
        entry = entries[n]
        if entry.value != value or entry.optima != optima or entry.truncated:
            mismatches.append((n, value, optima, entry.value, entry.optima))
        checked += 1
    return VerificationReport(checked, mismatches)


def _closure_size_mod2(h: int) -> int:
    """#{(a, b, c) >= 0 : a + 2b + 3c = h}, the number of partitions in
    the closure of a partition with h parts 2 and no 4s or 6s under
    swapping (2,2) <-> (4) and (2,2,2) <-> (6): the swaps move between
    the counts (a, b, c) of 2s, 4s and 6s, keep a + 2b + 3c, and reach
    every such vector (undo them all to get back to (h, 0, 0))."""
    return sum((h - 3 * c) // 2 + 1 for c in range(h // 3 + 1))


CONJECTURE_MOD2_START = {0: 6, 1: 8}


def conjecture_max_mod2(table: RankTable, r: int,
                        n_hi: int) -> VerificationReport:
    """Exploratory t = 2 analogue of the closed forms over
    CONJECTURE_MOD2_START[r] <= n <= n_hi; never raises on a mismatch,
    only reports it.

    r = 0: period-3 forms with unique optima built from parts
    {3, 5, 7}: the best product must equal the form's value and be
    attained once.  r = 1: powers of 2 (with a 9 absorbing odd n),
    optima equal to the substitution closure of the all-2s form.  When
    N(1,2;4) = N(1,2;2)^2 and N(1,2;6) = N(1,2;2)^3, both checked here,
    every member of that closure has the canonical value; so a best
    product equal to it, attained exactly as many times as the closure
    has members, makes the optima and the closure the same set.  A
    mismatch is recorded as (n, expected_value, best, expected_count,
    count)."""
    if r not in (0, 1):
        raise ValueError("the t = 2 conjectures cover r in {0, 1}")
    f, best, cnt, _, _ = _knapsack(table, r, 2, n_hi)
    checked, mismatches = 0, []
    for n in range(CONJECTURE_MOD2_START[r], n_hi + 1):
        swaps_keep_value = True
        if r == 0:
            m = n % 3
            if m == 0:
                expected_value = f[3] ** (n // 3)
            elif m == 1:
                expected_value = f[7] * f[3] ** ((n - 7) // 3)
            else:
                expected_value = f[5] * f[3] ** ((n - 5) // 3)
            expected_count = 1
        else:
            if n % 2 == 0:
                h = n // 2
                expected_value = f[2] ** h
            else:
                h = (n - 9) // 2
                expected_value = f[9] * f[2] ** h
            expected_count = _closure_size_mod2(h)
            swaps_keep_value = f[4] == f[2] ** 2 and f[6] == f[2] ** 3
        if (best[n] != expected_value or cnt[n] != expected_count
                or not swaps_keep_value):
            mismatches.append(
                (n, expected_value, best[n], expected_count, cnt[n]))
        checked += 1
    return VerificationReport(checked, mismatches)
