"""Multiplicative convexity of residue counts.

The claim under test: N(r, t; a) N(r, t; b) > N(r, t; a + b) once both
a and b are large enough.  Everything is exact integer arithmetic on
residue columns; the table only bounds the n a scan may read.  The
scan exploits symmetry in (a, b) and reads each count once.
"""

from __future__ import annotations

from itertools import repeat
from operator import gt, mul
from typing import NamedTuple

from .core import RankTable, residue_column, residue_count

__all__ = ["ConvexityReport", "check_pair", "scan_region", "sharpness_frontier"]


class ConvexityReport(NamedTuple):
    """Result of one region scan.  Violations are (a, b, lhs, rhs) with
    a <= b, sorted; empty means the inequality held everywhere."""
    r: int
    t: int
    a_range: tuple[int, int]
    b_range: tuple[int, int]
    pairs_checked: int
    violations: list[tuple[int, int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pair(table: RankTable, r: int, t: int, a: int,
               b: int) -> tuple[bool, int, int]:
    """(holds, lhs, rhs) for one pair; holds means strict product gap."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    lhs = residue_count(table, r, t, a) * residue_count(table, r, t, b)
    rhs = residue_count(table, r, t, a + b)
    return lhs > rhs, lhs, rhs


def scan_region(table: RankTable, r: int, t: int, a_min: int, b_max: int,
                a_max: int | None = None,
                b_min: int | None = None) -> ConvexityReport:
    """Exhaustively check all pairs a_min <= a <= b <= b_max (with
    optional tighter a_max / looser b_min), reading each count once.
    Violations come out sorted, since a and b both ascend.

    Each a is one row b = max(a, b_min) .. b_max, tested in a single
    C-level pass of exact products and comparisons; only a row with a
    violation is walked pair by pair to list it."""
    a_hi = b_max if a_max is None else a_max
    b_lo = a_min if b_min is None else b_min
    if a_min < 1 or a_min > a_hi or b_lo > b_max:
        raise ValueError("empty or invalid scan region")
    table._check_n(a_hi + b_max)
    counts = residue_column(r, t, a_hi + b_max)

    checked = 0
    bad = []
    for a in range(a_min, a_hi + 1):
        ca = counts[a]
        b0 = max(a, b_lo)
        width = b_max + 1 - b0
        if width <= 0:  # a > b_max, and so is every later a
            break
        checked += width
        if all(map(gt, map(mul, repeat(ca, width), counts[b0:b_max + 1]),
                   counts[a + b0:a + b_max + 1])):
            continue
        for b in range(b0, b_max + 1):
            lhs = ca * counts[b]
            rhs = counts[a + b]
            if lhs <= rhs:
                bad.append((a, b, lhs, rhs))
    return ConvexityReport(r=r, t=t, a_range=(a_min, a_hi),
                           b_range=(b_lo, b_max), pairs_checked=checked,
                           violations=bad)


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
