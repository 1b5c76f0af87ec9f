"""Multiplicative convexity of residue counts.

The claim under test: N(r, t; a) N(r, t; b) > N(r, t; a + b) once both
a and b are large enough.  Everything is exact integer arithmetic on
residue columns; the table only bounds the n a scan may read.  The
scan exploits symmetry in (a, b) and reads each count once.

What makes a scan cheap is the log-concavity of the column itself, the
argument of Bessenrodt-Ono ("Maximal multiplicative properties of
partitions", Ann. Comb. 2016) and DeSalvo-Pak ("Log-concavity of the
partition function", Ramanujan J. 2015), checked exactly on the column
a scan reads rather than assumed.

Lemma.  Let c be a column read to top, and L the least index such
that c(n) > 0 for L <= n <= top and c(n)^2 >= c(n-1) c(n+1) for
L < n < top.  If a >= 1, b >= L, a + b + 1 <= top and
c(a) c(b) > c(a + b), then c(a) c(b + 1) > c(a + b + 1).

Proof.  On [L, top - 1] the ratio rho(n) = c(n + 1) / c(n) is defined
and does not increase, since rho(n) <= rho(n - 1) is
c(n + 1) c(n - 1) <= c(n)^2.  As L <= b < a + b <= top - 1,
rho(a + b) <= rho(b), so
c(a + b + 1) = c(a + b) rho(a + b) <= c(a + b) rho(b)
< c(a) c(b) rho(b) = c(a) c(b + 1), the strict step because
rho(b) > 0.  So along a row a, once a pair with b >= L holds, every
later pair of the row holds.

L is found exactly, one pass of products from the top down.  Measured
on the columns to n = 1000 and to 5000 alike: 25 for p (t = 1); 92
and 93 for t = 2; 47, 43 and 43 for t = 3; at most 35 for t = 5, 31
for t = 7 and 41 for t = 11.  Should some column fail log-concavity
higher up, L rises with it and the scan decides more pairs one at a
time; its result does not change.

A scan then costs O(top + rows + violations + pairs below L) exact
products, not one per pair: on a 2-vCPU host with Python 3.11 and the
columns already computed, the 3 098 805 pairs of
scan_region(table, 0, 3, 12, 2500) take 9 ms against 0.47 s.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import gt, mul
from typing import NamedTuple

from .core import RankTable, residue_column, residue_count

__all__ = ["ConvexityReport", "check_pair", "scan_region", "sharpness_frontier"]


class ConvexityReport(NamedTuple):
    """Result of one region scan a_min <= a <= b <= b_max.  Violations
    are (a, b, lhs, rhs) with a <= b, sorted; empty means the inequality
    held everywhere."""
    pairs_checked: int
    violations: list[tuple[int, int, int, int]]


def check_pair(table: RankTable, r: int, t: int, a: int,
               b: int) -> tuple[bool, int, int]:
    """(holds, lhs, rhs) for one pair; holds means strict product gap.

    No claim or command calls it; it stays because perfbench's boundary
    ops call it, on the counterexample just below each t = 3 threshold.
    ROADMAP item 4 decides whether it moves to perfbench/oracle.py."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    lhs = residue_count(table, r, t, a) * residue_count(table, r, t, b)
    rhs = residue_count(table, r, t, a + b)
    return lhs > rhs, lhs, rhs


def _concave_start(counts: Sequence[int]) -> int:
    """The least L such that counts[L .. top] are all positive and
    log-concave, counts[n]^2 >= counts[n-1] counts[n+1] for L < n < top,
    where top = len(counts) - 1; top + 1 if counts[top] is not positive.
    One pass of exact products from the top down."""
    top = len(counts) - 1
    low = top if counts[top] > 0 else top + 1
    while low and counts[low - 1] > 0 and (
            low == top
            or counts[low] * counts[low] >= counts[low - 1] * counts[low + 1]):
        low -= 1
    return low


def scan_region(table: RankTable, r: int, t: int, a_min: int,
                b_max: int) -> ConvexityReport:
    """Exhaustively decide all pairs a_min <= a <= b <= b_max, reading
    each count once.  Violations come out sorted, since a and b both
    ascend.

    With L = _concave_start of the column to 2 b_max, each row a has two
    parts.  Its pairs with b < L are tested in a single C-level pass of
    exact products and comparisons, and walked pair by pair only when
    that pass finds a violation.  Its pairs with b >= L are walked from
    the first one, each violation recorded, up to the first pair that
    holds: by the lemma in the module docstring every later pair of the
    row holds too.  That costs
    O(top + rows + violations + pairs below L) exact products, against
    one per pair in the region."""
    if a_min < 1 or a_min > b_max:
        raise ValueError("empty or invalid scan region")
    table._check_n(2 * b_max)
    counts = residue_column(r, t, 2 * b_max)
    low = _concave_start(counts)

    checked = 0
    bad = []
    for a in range(a_min, b_max + 1):
        ca = counts[a]
        checked += b_max + 1 - a
        b1 = min(max(a, low), b_max + 1)  # the first b >= L
        if not all(map(gt, map(mul, repeat(ca, b1 - a), counts[a:b1]),
                       counts[2 * a:a + b1])):
            for b in range(a, b1):
                lhs = ca * counts[b]
                rhs = counts[a + b]
                if lhs <= rhs:
                    bad.append((a, b, lhs, rhs))
        for b in range(b1, b_max + 1):
            lhs = ca * counts[b]
            rhs = counts[a + b]
            if lhs > rhs:  # and so does every later pair of the row
                break
            bad.append((a, b, lhs, rhs))
    return ConvexityReport(checked, bad)


def sharpness_frontier(table: RankTable, r: int, t: int,
                       search_max: int) -> int:
    """Smallest s such that no violation found in the searched box has
    min(a, b) >= s.  With the box covering the true frontier this is
    exactly the threshold above which convexity holds."""
    report = scan_region(table, r, t, 1, search_max)
    worst = 0
    for a, b, _, _ in report.violations:
        m = a if a < b else b
        if m > worst:
            worst = m
    return worst + 1
