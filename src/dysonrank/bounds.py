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

A call pays only for the terms that depend on n.  Each bound's and each
ratio's n-independent prefix, such as 0.12 e^(2 pi + pi/24) / sqrt 3, is
folded once into a module constant, keeping the left-to-right order of
the literal expression, so every result rounds to the same double.  The
six error bounds come from one pass that shares sqrt(24n - 1), isqrt(n)
and isqrt(n) // 3.  The k-sums inside bounds 2, 3, 4 and 6 do not depend
on n, so each is kept as a list of running sums, extended on demand and
added left to right in the order a literal loop would use; the first
bound's factors sqrt(k) and pi/(18k) are kept in running lists too, and
only its O(sqrt n) sinh terms are evaluated per call, summed by the
builtin sum() as the literal generator was.  The first error_budget(n)
in a process therefore costs O(n) once (the sixth bound's double sum);
later calls cost O(sqrt n), the first bound's n-dependent sum.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from itertools import repeat
from math import isqrt
from operator import mul
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

# n-independent factors, each folded in the left-to-right order of the
# expression it heads, so every result rounds to the double the literal
# expression gives.
_PI_6 = math.pi / 6.0
_PI_18 = math.pi / 18.0
_PI_36 = math.pi / 36.0
_SQRT3 = math.sqrt(3.0)
_SQRT12 = math.sqrt(12.0)
_PI_SQ_OVER_SQRT3 = math.pi ** 2 / math.sqrt(3.0)
# Leading factors of the error bounds 2..6.
_BOUND2 = 0.12 * math.exp(2.0 * math.pi + math.pi / 24.0) / math.sqrt(3.0)
_BOUND3 = 1.412 * math.sqrt(3.0) * math.exp(2.0 * math.pi)
_BOUND4 = 2.0 * math.sqrt(3.0) * math.exp(2.0 * math.pi + math.pi / 12.0)
_BOUND5 = 8.0 * math.pi * math.exp(2.0 * math.pi + math.pi / 24.0)
_BOUND6 = 2.0 ** 0.25 * (math.e + 1.0 / math.e) * math.exp(2.0 * math.pi)
# Leading factors and denominator factors of the ratio functions.
_RATIO1_DEN = math.sqrt(2.0) * SIN_PI_18
_RATIO2 = 0.01 * math.exp(2.0 * math.pi + math.pi / 24.0)
_RATIO3 = 2.824 * math.sqrt(3.0) * math.exp(2.0 * math.pi)
_RATIO4 = math.sqrt(6.0) * math.exp(2.0 * math.pi + math.pi / 12.0)
_RATIO5 = math.pi * math.exp(2.0 * math.pi + math.pi / 24.0)
_RATIO6 = 2.0 ** 0.25 * (math.e + 1.0 / math.e) * math.exp(2.0 * math.pi) \
    * 3.0
_SIN_PI_18_X8 = 8.0 * SIN_PI_18
_SIN_PI_18_X24 = 24.0 * SIN_PI_18

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


def _mu(n: int) -> float:
    return _PI_6 * math.sqrt(24.0 * n - 1.0)


def mu(n: int) -> float:
    """The exponent (pi/6) sqrt(24n - 1) that drives partition growth."""
    _check_positive(n)
    return _mu(n)


def _lehmer_logs(n: int) -> tuple[float, float, float]:
    """(log lower, log upper, mu) at n >= 1."""
    m = _mu(n)
    base = math.log(_SQRT3 / (12.0 * n))
    rs = 1.0 / math.sqrt(n)
    lo = -math.inf if rs >= 1.0 else base + math.log1p(-rs) + m
    return lo, base + math.log1p(rs) + m, m


def lehmer_log_bounds(n: int) -> tuple[float, float]:
    """Natural logs of the strict envelope; finite far past double range."""
    _check_positive(n)
    lo, hi, _ = _lehmer_logs(n)
    return lo, hi


def lehmer_bounds(n: int) -> BoundPair:
    """Strict envelope (sqrt(3)/12n)(1 -+ 1/sqrt n) e^mu around p(n).

    The floats overflow for very large n; lehmer_log_bounds stays finite
    and residue_envelope_check switches to it automatically.
    """
    _check_positive(n)
    lo, hi, m = _lehmer_logs(n)
    return BoundPair(n, 0.0 if lo == -math.inf else _exp_or_inf(lo),
                     _exp_or_inf(hi), m)


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
    m = _mu(n)
    em = math.exp(m)
    value = _SQRT12 / (24.0 * n - 1.0) * (
        (1.0 - 1.0 / m) * em + (1.0 + 1.0 / m) / em)
    cap = _PI_SQ_OVER_SQRT3 * (
        math.sinh(m) / m ** 3 + 1.0 / 6.0 - 1.0 / m ** 2)
    return value, cap


def main_term(n: int) -> float:
    """Leading oscillatory term for the rank difference at the third root
    of unity: -8 sin(pi/18 - 2n pi/3) sinh((pi/18) sqrt(24n-1)) / sqrt(24n-1)."""
    _check_positive(n)
    x = math.sqrt(24.0 * n - 1.0)
    return -8.0 * math.sin(_PI_18 - 2.0 * n * math.pi / 3.0) \
        * math.sinh(_PI_18 * x) / x


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
    upper = 8.0 * math.sinh(_PI_18 * x) / x
    return upper * SIN_PI_18, upper


# Running sums over k, n-independent: entry k is the sum of terms 1..k.
_sum_inv_sqrt = [0.0]          # 1/sqrt(k), bound 2
_sum_inv_sqrt_not3 = [0.0]     # 1/sqrt(k) for 3 not dividing k, bound 3
_sum_sqrt = [0.0]              # sqrt(k), bound 4
_sum_sixth = [0.0]             # the sixth bound's inner sum over v
# The first bound's n-independent factors: entry k - 2 is sqrt(k), and
# pi/(18k), for k = 2, 3, ...; the two lists grow together.
_sqrt_k: list[float] = []
_pi_over_18k: list[float] = []


def _prefix_sum(cache: list[float], hi: int,
                term: Callable[[int], float]) -> float:
    """term(1) + ... + term(hi), extending cache left to right as needed."""
    for k in range(len(cache), hi + 1):
        cache.append(cache[-1] + term(k))
    return cache[hi]


def _inv_sqrt(k: int) -> float:
    return 1.0 / math.sqrt(k)


def _inv_sqrt_not3(k: int) -> float:
    return 1.0 / math.sqrt(k) if k % 3 else 0.0


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


def _error_bounds(n: int) -> tuple[float, float, float, float, float, float]:
    """The six error bounds at n >= 1, in one pass that shares
    sqrt(24n - 1), isqrt(n) and isqrt(n) // 3.

    Sum limits take floors; an empty sum is 0.  The first bound's sinh
    terms depend on n, so they are summed afresh in O(sqrt n), by sum()
    over the same terms in the same order as the literal generator; the
    fifth is closed form; the others read their k-sums from running sums
    shared across calls, bit-identical to summing the terms left to
    right.  The bounds are evaluated in order, so a first bound that
    overflows raises before the sixth's running sum is extended.
    """
    x = math.sqrt(24.0 * n - 1.0)
    root = isqrt(n)
    third = root // 3
    first = third - 1 if third > 1 else 0  # terms k = 2 .. third
    if len(_sqrt_k) < first:
        for k in range(len(_sqrt_k) + 2, third + 1):
            _sqrt_k.append(math.sqrt(k))
            _pi_over_18k.append(math.pi / (18.0 * k))
    return (
        12.0 / x * sum(map(mul, _sqrt_k[:first], map(
            math.sinh, map(mul, _pi_over_18k[:first], repeat(x))))),
        _BOUND2 * _prefix_sum(_sum_inv_sqrt, third, _inv_sqrt),
        _BOUND3 * _prefix_sum(_sum_inv_sqrt_not3, root, _inv_sqrt_not3),
        _BOUND4 / math.sqrt(n) * _prefix_sum(_sum_sqrt, third, math.sqrt),
        _BOUND5 * n ** -0.75 * (third * (third + 1) // 2),
        _BOUND6 * n ** -0.25 * _prefix_sum(_sum_sixth, root, _sixth_term),
    )


def error_term_bound(i: int, n: int) -> float:
    """The i-th explicit error bound, i in 1..6: entry i - 1 of the one
    pass that error_budget reads, so it costs all six."""
    _check_positive(n)
    if not 1 <= i <= 6:
        raise ValueError("error term index must be in 1..6")
    return _error_bounds(n)[i - 1]


def error_budget(n: int) -> ErrorBudget:
    """All six error bounds at n, their sum, and the envelope context."""
    _check_positive(n)
    terms = _error_bounds(n)
    lower, upper = envelope(n)
    return ErrorBudget(n, terms, math.fsum(terms), main_term(n), lower, upper)


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
    s = math.sinh(_PI_18 * x)
    if i == 1:
        return math.sqrt(n) * math.sinh(_PI_36 * x) / (_RATIO1_DEN * s)
    if i == 2:
        return _RATIO2 * n ** 0.25 * x / (SIN_PI_18 * s)
    if i == 3:
        return _RATIO3 * n ** 0.25 * x / (_SIN_PI_18_X8 * s)
    if i == 4:
        return _RATIO4 * n ** 0.25 * x / (_SIN_PI_18_X24 * s)
    if i == 5:
        return _RATIO5 * n ** 0.25 * x / (_SIN_PI_18_X8 * s)
    if i == 6:
        return _RATIO6 * (n ** 0.75 + 2.0 * n ** 0.25) * x \
            / (_SIN_PI_18_X8 * s)
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
    return _PI_6 * (
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
    rhs = math.log(4.0 * x * _SQRT3 * t * (1.0 + c) / (1.0 - c) ** 2) \
        + math.log(s_ratio(x, 1.0))
    return t_gap(x, 1.0) > rhs


def hardy_ramanujan(n: int) -> float:
    """First-order asymptotic e^(pi sqrt(2n/3)) / (4 n sqrt 3) for p(n)."""
    _check_positive(n)
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) \
        / (4.0 * n * _SQRT3)
