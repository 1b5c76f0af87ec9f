"""Analytic growth estimates and rigorous error envelopes.

Everything here is closed-form double-precision arithmetic, except
main_term_decimal.  Exact integers meet floats in two ways only: in
comparisons, which are exact (Python compares an int with a float
exactly, residue_envelope_check compares counts with the integers
floor and ceil of its float edges, and claims.estimate_holds works in
integer ratios), and in the gap |A(n) - M(n)| between an exact rank
difference and the main term, which exact_gap forms as a Fraction, so
no verification rounds the integer side.  A double M(n) carries a
relative error near 1e-11 by n = 4000, which is as large as the whole
error budget there, so budget checks take M(n) from main_term_decimal,
computed with more digits than |A(n)| has; the float main_term stays
for display and the ratio functions.

The six explicit error bounds, their ratio functions against the lower
envelope, and the tabulated caps form one coherent budget: the sum of
the six bounds stays below 0.58 of the lower envelope for n >= 500.

A call pays only for the terms that depend on n.  Each bound's and each
ratio's n-independent prefix, such as 0.12 e^(2 pi + pi/24) / sqrt 3, is
folded once into a module constant, keeping the left-to-right order of
the literal expression, so every result rounds to the same double.  The
six error bounds come from one pass that shares sqrt(24n - 1), which
error_budget computes once for the bounds and the envelope L(n), U(n),
and isqrt(n) and isqrt(n) // 3.  The k-sums inside bounds 2,
3, 4 and 6 do not depend on n, so each is kept as a list of running
sums, added left to right in the order a literal loop would use; the
first bound's factors sqrt(k) and pi/(18k) are kept in running lists
too, and only its O(sqrt n) sinh terms are evaluated per call, summed by
the builtin sum() as the literal generator was.  All six lists grow at
one point, _grow, and only when isqrt(n) outgrows them; every other
call reads them by index.  The first error_budget(n) in a process, or
the first past the largest isqrt(n) so far, therefore costs O(n) once
(the sixth bound's double sum); a later call costs O(sqrt n / 3), the
first bound's sinh terms, plus a fixed few dozen float operations.  On
a 2-vCPU host with Python 3.11, a call at n <= 10^4 takes about 3.9 us
for the whole budget and 0.9 us for lehmer_bounds.  Both build their
named tuples without the class's Python-level __new__, which would add
0.1-0.2 us to each.  lemma_threshold evaluates its expression
directly.

Each quantity has one formula: Lehmer's envelope is _lehmer, which
lehmer_bounds wraps in a BoundPair and residue_envelope_check reads as a
bare tuple; L(n) and U(n) come from error_budget, the float M(n) from
main_term.  Past the double range each raises OverflowError: Lehmer's
bounds from n = 79445, the estimate past LEHMER_ESTIMATE_MAX_N = 76567,
and U(n) from n = 690451.
"""

from __future__ import annotations

import math
import sys
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
    "ENVELOPE_C",
    "error_budget",
    "exact_gap",
    "hardy_ramanujan",
    "lehmer_bounds",
    "lehmer_estimate",
    "lemma_threshold",
    "main_term",
    "main_term_decimal",
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

# The relative slack c of the residue envelope: each N(r, 3; n) lies
# strictly between (1 - c)/3 and (1 + c)/3 times Lehmer's envelope of
# p(n), and the gap lemma pays for it with log((1 + c)/(1 - c)^2).
ENVELOPE_C = 0.01
# Its two factors in the gap lemma's loss, (1 + c) and (1 - c)^2.
_ENVELOPE_HI = 1.0 + ENVELOPE_C
_ENVELOPE_LO_SQ = (1.0 - ENVELOPE_C) ** 2
# The envelope's factors (1 - c)/3 and (1 + c)/3 of Lehmer's bounds.
_ENVELOPE_LO_3 = (1.0 - ENVELOPE_C) / 3.0
_ENVELOPE_HI_3 = (1.0 + ENVELOPE_C) / 3.0

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
    """The six error bounds at one n, their sum, and the envelope
    L(n) = U(n) sin(pi/18) of the main term that they live under:
    U(n) = 8 sinh((pi/18) sqrt(24n - 1)) / sqrt(24n - 1) drops the main
    term's sine factor, and L keeps its least magnitude sin(pi/18)."""
    n: int
    terms: tuple[float, float, float, float, float, float]
    total: float
    lower: float
    upper: float


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def _lehmer(n: int) -> tuple[float, float, float]:
    """(lower, upper, mu) of Lehmer's envelope at n >= 1: the exp of
    log(sqrt(3)/12n) + log1p(-+ 1/sqrt n) + mu, lower first.  lower is 0.0
    at n = 1, where 1 - 1/sqrt n is 0.  From n = 79445 the upper exp
    overflows a double and raises OverflowError."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = _PI_6 * math.sqrt(24.0 * n - 1.0)
    base = math.log(_SQRT3 / (12.0 * n))
    rs = 1.0 / math.sqrt(n)
    return (math.exp(base + math.log1p(-rs) + m) if rs < 1.0 else 0.0,
            math.exp(base + math.log1p(rs) + m), m)


def lehmer_bounds(n: int) -> BoundPair:
    """Strict envelope (sqrt(3)/12n)(1 -+ 1/sqrt n) e^mu around p(n).

    The floats are those of _lehmer, which residue_envelope_check shares:
    lower is 0.0 at n = 1, and from n = 79445, a little past
    LEHMER_ESTIMATE_MAX_N, OverflowError is raised.  The BoundPair is
    built by tuple.__new__, as namedtuple's _make builds one: calling
    the class runs a Python-level __new__, about an eighth of the call,
    for the same BoundPair."""
    return tuple.__new__(BoundPair, (n, *_lehmer(n)))


def lehmer_estimate(n: int) -> tuple[float, float]:
    """Explicit main value for p(n) and a strict cap on its error.

    Returns (value, cap) with
      value = (sqrt 12/(24n-1)) ((1 - 1/mu) e^mu + (1 + 1/mu) e^-mu)
      cap   = (pi^2/sqrt 3) (sinh(mu)/mu^3 + 1/6 - 1/mu^2).
    """
    _check_positive(n)
    m = _PI_6 * math.sqrt(24.0 * n - 1.0)
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


# Running sums over k, n-independent: entry k is the sum of terms 1..k.
_sum_inv_sqrt = [0.0]          # 1/sqrt(k), bound 2
_sum_inv_sqrt_not3 = [0.0]     # 1/sqrt(k) for 3 not dividing k, bound 3
_sum_sqrt = [0.0]              # sqrt(k), bound 4
_sum_sixth = [0.0]             # the sixth bound's inner sum over v
# The first bound's n-independent factors: entry k - 2 is sqrt(k), and
# pi/(18k), for k = 2, 3, ...; the two lists grow together.
_sqrt_k: list[float] = []
_pi_over_18k: list[float] = []


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


def _grow(root: int, x: float) -> None:
    """Extend the running lists to isqrt(n) = root, each left to right
    from its own length: the first bound's factors and the sums of bounds
    2 and 4 to root // 3, those of bounds 3 and 6 to root.

    The first bound's largest sinh term, at k = 2, is taken before the
    sixth bound's O(root^2) extension, so an n whose first bound
    overflows raises OverflowError, as the pass would, without paying
    for it.
    """
    third = root // 3
    for k in range(len(_sqrt_k) + 2, third + 1):
        _sqrt_k.append(math.sqrt(k))
        _pi_over_18k.append(math.pi / (18.0 * k))
    for k in range(len(_sum_inv_sqrt), third + 1):
        _sum_inv_sqrt.append(_sum_inv_sqrt[-1] + 1.0 / math.sqrt(k))
    for k in range(len(_sum_sqrt), third + 1):
        _sum_sqrt.append(_sum_sqrt[-1] + math.sqrt(k))
    for k in range(len(_sum_inv_sqrt_not3), root + 1):
        _sum_inv_sqrt_not3.append(_sum_inv_sqrt_not3[-1] + (
            1.0 / math.sqrt(k) if k % 3 else 0.0))
    if third > 1:
        math.sinh(_pi_over_18k[0] * x)
    for k in range(len(_sum_sixth), root + 1):
        _sum_sixth.append(_sum_sixth[-1] + _sixth_term(k))


def _error_bounds(n: int, x: float
                  ) -> tuple[float, float, float, float, float, float]:
    """The six error bounds at n >= 1, in one pass that shares the
    caller's x = sqrt(24n - 1), isqrt(n) and isqrt(n) // 3.

    Sum limits take floors; an empty sum is 0.  The first bound's sinh
    terms depend on n, so they are summed afresh in O(sqrt n), by sum()
    over the same terms in the same order as the literal generator,
    with repeat(x, first) ending the map where the terms end, so no
    prefix of the running lists is copied; the
    fifth is closed form; the others read their k-sums by index from
    running sums shared across calls, bit-identical to summing the terms
    left to right.  The lists grow first, in _grow, only when isqrt(n)
    outgrows the sixth's.
    """
    root = isqrt(n)
    third = root // 3
    if root >= len(_sum_sixth):
        _grow(root, x)
    first = third - 1 if third > 1 else 0  # terms k = 2 .. third
    return (
        12.0 / x * sum(map(mul, _sqrt_k, map(
            math.sinh, map(mul, _pi_over_18k, repeat(x, first))))),
        _BOUND2 * _sum_inv_sqrt[third],
        _BOUND3 * _sum_inv_sqrt_not3[root],
        _BOUND4 / math.sqrt(n) * _sum_sqrt[third],
        _BOUND5 * n ** -0.75 * (third * (third + 1) // 2),
        _BOUND6 * n ** -0.25 * _sum_sixth[root],
    )


def error_budget(n: int) -> ErrorBudget:
    """All six error bounds at n, their sum, and the envelope L(n), U(n)
    of the main term (see ErrorBudget); the one formula for L and U.

    The bounds and the envelope share one sqrt(24n - 1).  From n = 690451
    U's sinh overflows a double and OverflowError is raised.  As in
    lehmer_bounds, the ErrorBudget is built by tuple.__new__, which
    skips the class's Python-level __new__ and gives the same result."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = math.sqrt(24.0 * n - 1.0)
    terms = _error_bounds(n, x)
    upper = 8.0 * math.sinh(_PI_18 * x) / x
    return tuple.__new__(ErrorBudget, (n, terms, math.fsum(terms),
                                       upper * SIN_PI_18, upper))


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


def residue_envelope_check(table: RankTable, n: int) -> bool:
    """Strict sandwich (1/3)(1-c) p_lower < N(r,3;n) < (1/3)(1+c) p_upper
    for every residue r in {0, 1, 2}, with c = ENVELOPE_C and Lehmer's
    bounds from _lehmer, so from n = 79445 OverflowError is raised
    before any count is read.

    (1 -+ c)/3 are the constants _ENVELOPE_LO_3 and _ENVELOPE_HI_3, so
    the float edges lo and hi are the doubles of the literal expression.
    The counts meet the integers floor(lo) and ceil(hi), taken once: for
    an integer N and finite x, N > x iff N > floor(x), and N < x iff
    N < ceil(x), so each verdict is the exact comparison with the float
    edge.  An int-int comparison also builds no temporary ints, as an
    int-float one does when both have the same bit length."""
    lower, upper, _ = _lehmer(n)
    lo = math.floor(_ENVELOPE_LO_3 * lower)
    hi = math.ceil(_ENVELOPE_HI_3 * upper)
    return (lo < residue_count(table, 0, 3, n) < hi
            and lo < residue_count(table, 1, 3, n) < hi
            and lo < residue_count(table, 2, 3, n) < hi)


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


def lemma_threshold(x: float, t: int = 3) -> bool:
    """Whether the exponential gap beats the polynomial losses at lambda = 1:

        T_x(1) > log(4 x sqrt 3 t (1+c)/(1-c)^2) + log(S_x(1)),

    with c = ENVELOPE_C, the residue envelope's slack.  True from
    moderate x on (in particular all x >= 500 at the default t = 3);
    false for small x such as 10.

    S_x(1) and T_x(1) are s_ratio(x, 1.0) and t_gap(x, 1.0) written out:
    1.0 * x == x, so x stands for lam * x and x + x for x + lam * x, and
    each float is theirs.  The checks run in the order of those calls, so
    x <= 0 fails in the first log and 0 < x <= 1 as s_ratio does."""
    if t < 1:
        raise ValueError("requires t >= 1")
    loss = math.log(4.0 * x * _SQRT3 * t * _ENVELOPE_HI / _ENVELOPE_LO_SQ)
    if x <= 1.0:
        raise ValueError("requires x > 1 and lam*x > 1")
    q = 1.0 - 1.0 / math.sqrt(x)
    s = (1.0 + 1.0 / math.sqrt(x + x)) / (q * q)
    r = math.sqrt(24.0 * x - 1.0)
    return _PI_6 * (r + r - math.sqrt(24.0 * (x + x) - 1.0)) \
        > loss + math.log(s)


def hardy_ramanujan(n: int) -> float:
    """First-order asymptotic e^(pi sqrt(2n/3)) / (4 n sqrt 3) for p(n)."""
    _check_positive(n)
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) \
        / (4.0 * n * _SQRT3)
