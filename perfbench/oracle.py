"""Independent reference values the benchmark checks outputs against.

Nothing here imports the package under test.  Rank counts come from
the Atkin-Swinnerton-Dyer formula for fixed rank m,

    sum_n N(m, n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^(k-1) q^(k(3k-1)/2 + |m|k) (1 - q^k),

a different algorithm from the package's series expansion, so an
agreement is evidence rather than a tautology.
"""

from __future__ import annotations

import math

SIN_PI_18 = math.sin(math.pi / 18)

# The paper's constants: caps on the six ratio functions at n = 500,
# the aggregate budget cap, the convexity thresholds and the first n at
# which the closed forms for maxN(r, 3; n) hold.
RATIO_CAPS = (0.0065, 0.00019, 0.0098, 0.0071, 0.0072, 0.54)
BUDGET_CAP = 0.58
THRESHOLDS = {0: 12, 1: 11, 2: 11}
CLOSED_FORM_START = {0: 33, 1: 22, 2: 22}
MOD2_START = {0: 6, 1: 8}

# Exact values stated in the paper.
ANCHORS = {
    "N(0,3;13)": 37,
    "A(500)": -5619495,
    "A(1000)": 13408694687,
    "maxN(0,3;28)": (2401, ((7, 7, 7, 7),)),
    "closed_form(1,30)": (3481, (15, 15)),
    "boundary r=0": (11, 11, 256, 340),
    "boundary r=1": (10, 10, 169, 211),
    "boundary r=2": (10, 10, 169, 211),
}


def pairs_in_scan(a_min: int, b_max: int) -> int:
    """Pairs a_min <= a <= b <= b_max."""
    m = b_max - a_min + 1
    return m * (m + 1) // 2 if m > 0 else 0


def envelope_lower(n: int) -> float:
    """L(n) = U(n) sin(pi/18), the smallest magnitude of the main term."""
    x = math.sqrt(24.0 * n - 1.0)
    return 8.0 * math.sinh(math.pi / 18.0 * x) / x * SIN_PI_18


def main_term(n: int) -> float:
    x = math.sqrt(24.0 * n - 1.0)
    return -8.0 * math.sin(math.pi / 18.0 - 2.0 * n * math.pi / 3.0) \
        * math.sinh(math.pi / 18.0 * x) / x


class Oracle:
    """p(n) by Euler's pentagonal recurrence and rank rows by the
    Atkin-Swinnerton-Dyer formula, memoized and grown on demand."""

    def __init__(self) -> None:
        self._p = [1]
        self._rows: dict[int, list[int]] = {}
        self._max: dict[tuple[int, int], list[int]] = {}

    def p(self, n: int) -> int:
        p = self._p
        for m in range(len(p), n + 1):
            total = 0
            k = 1
            while True:
                a = k * (3 * k - 1) // 2
                if a > m:
                    break
                sign = 1 if k % 2 else -1
                total += sign * p[m - a]
                if a + k <= m:
                    total += sign * p[m - a - k]
                k += 1
            p.append(total)
        return p[n]

    def partition_numbers(self, n: int) -> list[int]:
        self.p(n)
        return self._p[: n + 1]

    def half_row(self, n: int) -> list[int]:
        """N(m, n) for m = 0 .. max(n-1, 0)."""
        if n in self._rows:
            return self._rows[n]
        if n == 0:
            row = [1]
        else:
            self.p(n)
            p = self._p
            row = []
            for m in range(n):
                total = 0
                k = 1
                while True:
                    a = k * (3 * k - 1) // 2 + m * k
                    if a > n:
                        break
                    term = p[n - a] - (p[n - a - k] if a + k <= n else 0)
                    total += term if k % 2 else -term
                    k += 1
                row.append(total)
        self._rows[n] = row
        return row

    def row(self, n: int) -> list[int]:
        """N(m, n) for m = -(n-1) .. n-1, the package's row layout."""
        half = self.half_row(n)
        return half[:0:-1] + half

    def residue(self, r: int, t: int, n: int) -> int:
        """N(r, t; n)."""
        if n == 0:
            return 1 if r % t == 0 else 0
        half = self.half_row(n)
        return sum(c for m, c in enumerate(half) if m % t == r) + sum(
            c for m, c in enumerate(half) if m and -m % t == r)

    def a_third(self, n: int) -> int:
        return self.residue(0, 3, n) - self.residue(1, 3, n)

    def max_products(self, r: int, t: int, n_max: int) -> list[int]:
        """maxN(r, t; n) for n = 0 .. n_max, values only: the largest
        product of N(r, t; part) over the parts of a partition of n."""
        best = self._max.setdefault((r, t), [1])
        if len(best) <= n_max:
            f = [0] + [self.residue(r, t, c) for c in range(1, n_max + 1)]
            for s in range(len(best), n_max + 1):
                best.append(max(f[c] * best[s - c] for c in range(1, s + 1)))
        return best[: n_max + 1]

    def product(self, r: int, t: int, parts) -> int:
        out = 1
        for part in parts:
            out *= self.residue(r, t, part)
        return out
