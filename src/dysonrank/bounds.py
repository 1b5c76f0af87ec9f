"""Analytic growth estimates and rigorous error envelopes.

Everything here is closed-form double-precision arithmetic, except
main_term_decimal.  Exact integers meet floats in two ways only: in
comparisons, which Python performs exactly between int and float, and
in the gap |A(n) - M(n)| between an exact rank difference and the main
term, which exact_gap forms as a Fraction, so no verification rounds
the integer side.  A double M(n) carries a relative error near 1e-11
by n = 4000, which is as large as the whole error budget there, so
budget checks take M(n) from main_term_decimal, computed with more
digits than |A(n)| has; the float main_term stays for display and the
ratio functions.

The six explicit error bounds, their ratio functions against the lower
envelope, and the tabulated caps form one coherent budget: the sum of
the six bounds stays below 0.58 of the lower envelope for n >= 500.
The k-sums inside bounds 2, 3, 4 and 6 do not depend on n, so each is
kept as a list of running sums, extended on demand and added left to
right in the order a literal loop would use.  The first error_budget(n)
in a process therefore costs O(n) once (the sixth bound's double sum);
later calls cost O(sqrt n), the first bound's n-dependent sum.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from .core import RankTable, residue_count

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

__all__ = [
    "BoundPair",
    "ErrorBudget",
    "LEHMER_ESTIMATE_MAX_N",
    "RATIO_CAPS",
    "RATIO_CAP_2_DERIVED",
    "BUDGET_CAP",
    "envelope",
    "error_budget",
    "error_term_bound",
    "exact_gap",
    "hardy_ramanujan",
    "lehmer_bounds",
    "lehmer_estimate",
    "lehmer_log_bounds",
    "lemma_threshold",
    "main_term",
    "main_term_decimal",
    "mu",
    "ratio_bound",
    "residue_envelope_check",
    "s_ratio",
    "t_gap",
]

SIN_PI_18 = math.sin(math.pi / 18)

# Tabulated caps c1..c6 on the ratio functions at n = 500.  The second
# entry is 0.00019; the prose deriving it concludes with the looser
# 0.0019.  Direct evaluation gives ratio_bound(2, 500) = 0.000181, so
# both hold; we keep the tabulated value and carry the derived one
# alongside so reports can flag the discrepancy.
RATIO_CAPS = (0.0065, 0.00019, 0.0098, 0.0071, 0.0072, 0.54)
RATIO_CAP_2_DERIVED = 0.0019
BUDGET_CAP = 0.58

# The largest n at which lehmer_estimate is finite: its e^mu overflows
# a double once mu(n) = (pi/6) sqrt(24n - 1) passes log(DBL_MAX).  The
# bound falls 0.17 above an integer, far beyond the rounding here.
LEHMER_ESTIMATE_MAX_N = int(
    ((6.0 / math.pi * math.log(sys.float_info.max)) ** 2 + 1.0) / 24.0)


class BoundPair(NamedTuple):
    """Strict lower/upper envelope for p(n) at one n."""
    n: int
    lower: float
    upper: float
    mu: float


class ErrorBudget(NamedTuple):
    """The six error bounds at one n, with the envelope they live under."""
    n: int
    terms: tuple[float, float, float, float, float, float]
    total: float
    main: float
    lower: float
    upper: float


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def mu(n: int) -> float:
    """The exponent (pi/6) sqrt(24n - 1) that drives partition growth."""
    _check_positive(n)
    return math.pi / 6.0 * math.sqrt(24.0 * n - 1.0)


def lehmer_log_bounds(n: int) -> tuple[float, float]:
    """Natural logs of the strict envelope; finite far past double range."""
    _check_positive(n)
    m = mu(n)
    base = math.log(math.sqrt(3.0) / (12.0 * n))
    rs = 1.0 / math.sqrt(n)
    lo = -math.inf if rs >= 1.0 else base + math.log1p(-rs) + m
    return lo, base + math.log1p(rs) + m


def lehmer_bounds(n: int) -> BoundPair:
    """Strict envelope (sqrt(3)/12n)(1 -+ 1/sqrt n) e^mu around p(n).

    The floats overflow for very large n; lehmer_log_bounds stays finite
    and residue_envelope_check switches to it automatically.
    """
    lo, hi = lehmer_log_bounds(n)
    return BoundPair(
        n=n,
        lower=0.0 if lo == -math.inf else _exp_or_inf(lo),
        upper=_exp_or_inf(hi),
        mu=mu(n),
    )


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def lehmer_estimate(n: int) -> tuple[float, float]:
    """Explicit main value for p(n) and a strict cap on its error.

    Returns (value, cap) with
      value = (sqrt 12/(24n-1)) ((1 - 1/mu) e^mu + (1 + 1/mu) e^-mu)
      cap   = (pi^2/sqrt 3) (sinh(mu)/mu^3 + 1/6 - 1/mu^2).
    """
    _check_positive(n)
    m = mu(n)
    em = math.exp(m)
    value = math.sqrt(12.0) / (24.0 * n - 1.0) * (
        (1.0 - 1.0 / m) * em + (1.0 + 1.0 / m) / em)
    cap = math.pi ** 2 / math.sqrt(3.0) * (
        math.sinh(m) / m ** 3 + 1.0 / 6.0 - 1.0 / m ** 2)
    return value, cap


def main_term(n: int) -> float:
    """Leading oscillatory term for the rank difference at the third root
    of unity: -8 sin(pi/18 - 2n pi/3) sinh((pi/18) sqrt(24n-1)) / sqrt(24n-1)."""
    _check_positive(n)
    x = math.sqrt(24.0 * n - 1.0)
    return -8.0 * math.sin(math.pi / 18.0 - 2.0 * n * math.pi / 3.0) \
        * math.sinh(math.pi / 18.0 * x) / x


# Digits carried beyond those of |M(n)|, so that its absolute error
# stays far below 1 whatever the cancellation in sin and exp.  decimal,
# like fractions, is imported on first use and stays out of CLI start-up.
_DECIMAL_GUARD = 30
_decimal_constants: dict[int, tuple[Decimal, tuple[Decimal, ...]]] = {}


def _decimal_pi() -> Decimal:
    """pi to the current context's precision (the decimal docs recipe)."""
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _decimal_sin(x: Decimal) -> Decimal:
    """sin(x) to the current context's precision by its Taylor series
    (the decimal docs recipe); meant for |x| <= pi."""
    from decimal import localcontext
    with localcontext() as ctx:
        ctx.prec += 2
        i, lasts, s, fact, num, sign = 1, 0, x, 1, x, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def _main_term_constants(prec: int) -> tuple[Decimal, tuple[Decimal, ...]]:
    """pi/18 and sin(pi/18 - 2 pi j/3) for j = 0, 1, 2 at precision
    prec, cached per precision.  The sine arguments are taken in
    (-pi, pi]: pi/18, -11 pi/18 and 13 pi/18."""
    if prec not in _decimal_constants:
        from decimal import localcontext
        with localcontext() as ctx:
            ctx.prec = prec
            step = _decimal_pi() / 18
            sines = tuple(_decimal_sin(k * step) for k in (1, -11, 13))
        _decimal_constants[prec] = (step, sines)
    return _decimal_constants[prec]


def main_term_decimal(n: int) -> Decimal:
    """main_term(n) in decimal arithmetic, for comparisons with A(n).

    2n pi/3 is reduced exactly by n mod 3, so only three sines occur.
    The precision is the digit count of |M(n)| plus a guard of
    _DECIMAL_GUARD digits, which leaves an absolute error far below 1
    and so resolves the integer A(n)."""
    from decimal import Decimal, localcontext
    _check_positive(n)
    x_float = math.sqrt(24.0 * n - 1.0)
    prec = int(math.pi / 18.0 * x_float / math.log(10.0)) + 1 \
        + _DECIMAL_GUARD
    step, sines = _main_term_constants(prec)
    with localcontext() as ctx:
        ctx.prec = prec
        x = Decimal(24 * n - 1).sqrt()
        e = (step * x).exp()
        return -8 * sines[n % 3] * ((e - 1 / e) / 2) / x


def envelope(n: int) -> tuple[float, float]:
    """(L(n), U(n)): smallest and largest magnitude the main term can take.

    U drops the sine factor entirely; L keeps its minimum |sin(pi/18)|,
    so L == U * sin(pi/18) holds by construction.
    """
    _check_positive(n)
    x = math.sqrt(24.0 * n - 1.0)
    upper = 8.0 * math.sinh(math.pi / 18.0 * x) / x
    return upper * SIN_PI_18, upper


# Running sums over k, n-independent: entry k is the sum of terms 1..k.
_sum_inv_sqrt = [0.0]          # 1/sqrt(k), bound 2
_sum_inv_sqrt_not3 = [0.0]     # 1/sqrt(k) for 3 not dividing k, bound 3
_sum_sqrt = [0.0]              # sqrt(k), bound 4
_sum_sixth = [0.0]             # the sixth bound's inner sum over v


def _prefix_sum(cache: list[float], hi: int,
                term: Callable[[int], float]) -> float:
    """term(1) + ... + term(hi), extending cache left to right as needed."""
    for k in range(len(cache), hi + 1):
        cache.append(cache[-1] + term(k))
    return cache[hi]


def _sixth_term(k: int) -> float:
    """The sixth bound's k-th term (1/k) sum_{v=1..k} 1/d_v, with d_v the
    smaller of the fractional parts {v/k - 1/(6k) + 1/3} and
    {v/k - 1/(6k) - 1/3}.  d_v is provably nonzero (odd numerator over
    even modulus); a zero would mean the contract was violated and
    raises."""
    mod = 6 * k
    inner = 0.0
    for v in range(1, k + 1):
        # {v/k - 1/(6k) +- 1/3} via exact integer modulus
        a = (6 * v - 1 + 2 * k) % mod
        b = (6 * v - 1 - 2 * k) % mod
        smallest = a if a < b else b
        if smallest == 0:
            raise ArithmeticError(
                "zero fractional-part minimum in sixth error bound")
        inner += mod / smallest
    return inner / k


def error_term_bound(i: int, n: int) -> float:
    """The i-th explicit error bound, i in 1..6.

    Sum limits take floors; an empty sum is 0.  The first bound's terms
    depend on n, so its sum runs afresh in O(sqrt n); the fifth is closed
    form; the others read their k-sums from running sums shared across
    calls, bit-identical to summing the terms left to right.
    """
    _check_positive(n)
    if i == 1:
        x = math.sqrt(24.0 * n - 1.0)
        hi = isqrt(n) // 3
        return 12.0 / x * sum(
            math.sqrt(k) * math.sinh(math.pi / (18.0 * k) * x)
            for k in range(2, hi + 1))
    if i == 2:
        hi = isqrt(n) // 3
        return 0.12 * math.exp(2.0 * math.pi + math.pi / 24.0) / math.sqrt(3.0) \
            * _prefix_sum(_sum_inv_sqrt, hi, lambda k: 1.0 / math.sqrt(k))
    if i == 3:
        hi = isqrt(n)
        return 1.412 * math.sqrt(3.0) * math.exp(2.0 * math.pi) \
            * _prefix_sum(_sum_inv_sqrt_not3, hi,
                          lambda k: 1.0 / math.sqrt(k) if k % 3 else 0.0)
    if i == 4:
        hi = isqrt(n) // 3
        return 2.0 * math.sqrt(3.0) * math.exp(2.0 * math.pi + math.pi / 12.0) \
            / math.sqrt(n) * _prefix_sum(_sum_sqrt, hi, math.sqrt)
    if i == 5:
        hi = isqrt(n) // 3
        return 8.0 * math.pi * math.exp(2.0 * math.pi + math.pi / 24.0) \
            * n ** -0.75 * (hi * (hi + 1) // 2)
    if i == 6:
        return 2.0 ** 0.25 * (math.e + 1.0 / math.e) \
            * math.exp(2.0 * math.pi) * n ** -0.25 \
            * _prefix_sum(_sum_sixth, isqrt(n), _sixth_term)
    raise ValueError("error term index must be in 1..6")


def error_budget(n: int) -> ErrorBudget:
    """All six error bounds at n, their sum, and the envelope context."""
    terms = tuple(error_term_bound(i, n) for i in range(1, 7))
    lower, upper = envelope(n)
    return ErrorBudget(
        n=n,
        terms=terms,  # type: ignore[arg-type]
        total=math.fsum(terms),
        main=main_term(n),
        lower=lower,
        upper=upper,
    )


def exact_gap(a: int, m: float | Decimal) -> Fraction:
    """|a - m| exactly, for an exact integer a and a float or Decimal m.

    The float difference a - m rounds a whenever a is not a double, which
    can happen once |a| >= 2^53 (for the rank difference A(n), from
    n = 2287 on), so budget checks compare this Fraction instead;
    float(exact_gap(a, m)) equals abs(a - m) whenever a is a double."""
    from fractions import Fraction
    return abs(Fraction(a) - Fraction(m))


def ratio_bound(i: int, n: int) -> float:
    """The i-th error bound's envelope ratio function, defined for n >= 500.

    These are the decreasing majorants whose values at 500 give the
    tabulated caps; below 500 the integral comparisons behind them do
    not apply, so smaller n is rejected.
    """
    if n < 500:
        raise ValueError("ratio functions are only defined for n >= 500")
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
    raise ValueError("ratio index must be in 1..6")


def residue_envelope_check(table: RankTable, n: int,
                           slack: float = 0.01) -> bool:
    """Strict sandwich (1/3)(1-slack) p_lower < N(r,3;n) < (1/3)(1+slack) p_upper
    for every residue r in {0, 1, 2}.  Falls back to log-space comparison
    when the envelope overflows a double."""
    pair = lehmer_bounds(n)
    if math.isfinite(pair.upper):
        lo = (1.0 - slack) / 3.0 * pair.lower
        hi = (1.0 + slack) / 3.0 * pair.upper
        return all(
            lo < residue_count(table, r, 3, n) < hi for r in range(3))
    log_lo, log_hi = lehmer_log_bounds(n)
    log_lo += math.log((1.0 - slack) / 3.0)
    log_hi += math.log((1.0 + slack) / 3.0)
    for r in range(3):
        c = residue_count(table, r, 3, n)
        if c <= 0:
            return False
        lc = math.log(c)
        if not log_lo < lc < log_hi:
            return False
    return True


def s_ratio(x: float, lam: float) -> float:
    """S_x(lambda) = (1 + 1/sqrt(x + lam x)) / ((1 - 1/sqrt x)(1 - 1/sqrt(lam x)))."""
    if x <= 1.0 or lam * x <= 1.0:
        raise ValueError("requires x > 1 and lam*x > 1")
    return (1.0 + 1.0 / math.sqrt(x + lam * x)) \
        / ((1.0 - 1.0 / math.sqrt(x)) * (1.0 - 1.0 / math.sqrt(lam * x)))


def t_gap(x: float, lam: float) -> float:
    """T_x(lambda) = (pi/6)(sqrt(24x-1) + sqrt(24 lam x - 1) - sqrt(24(x + lam x) - 1)).

    The superadditivity gap of mu; positive and growing like sqrt x."""
    if x <= 0.0 or lam <= 0.0:
        raise ValueError("requires x > 0 and lam > 0")
    return math.pi / 6.0 * (
        math.sqrt(24.0 * x - 1.0) + math.sqrt(24.0 * lam * x - 1.0)
        - math.sqrt(24.0 * (x + lam * x) - 1.0))


def lemma_threshold(x: float, t: int = 3, c: float = 0.01) -> bool:
    """Whether the exponential gap beats the polynomial losses at lambda = 1:

        T_x(1) > log(4 x sqrt 3 t (1+c)/(1-c)^2) + log(S_x(1)).

    True from moderate x on (in particular all x >= 500 at the default
    t = 3, c = 0.01); false for small x such as 10."""
    if not 0.0 < c < 1.0:
        raise ValueError("requires 0 < c < 1")
    if t < 1:
        raise ValueError("requires t >= 1")
    rhs = math.log(4.0 * x * math.sqrt(3.0) * t * (1.0 + c) / (1.0 - c) ** 2) \
        + math.log(s_ratio(x, 1.0))
    return t_gap(x, 1.0) > rhs


def hardy_ramanujan(n: int) -> float:
    """First-order asymptotic e^(pi sqrt(2n/3)) / (4 n sqrt 3) for p(n)."""
    _check_positive(n)
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) \
        / (4.0 * n * math.sqrt(3.0))
