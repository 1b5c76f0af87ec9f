"""Analytic bounds against frozen high-precision reference values.

The reference numbers were computed independently with 50-digit
arithmetic and are frozen here; double-precision evaluation must land
within the stated relative tolerance.  The six error bounds are also
recomputed inside the tests with separately written code.  Production
folds n-independent constants, shares one pass among the six bounds and
reads k-sums from running lists; the literal expressions it replaces
are kept in oracles.py, and every bound, ratio function and Lehmer
envelope is compared with them bit for bit.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest

from dysonrank import bounds, claims, core
from dysonrank import (
    a_third_exact,
    BUDGET_CAP,
    RankTable,
    RATIO_CAP_2_DERIVED,
    RATIO_CAPS,
    error_budget,
    exact_gap,
    hardy_ramanujan,
    lehmer_bounds,
    lehmer_estimate,
    lemma_threshold,
    main_term,
    main_term_decimal,
    partition_number,
    partition_numbers,
    ratio_bound,
    residue_column,
    residue_envelope_check,
    s_ratio,
    t_gap,
)
from oracles import (
    SIN_PI_18,
    _independent_error_bounds,
    _literal_envelope,
    _literal_error_bound,
    _literal_lehmer_bounds,
    _literal_lehmer_estimate,
    _literal_lemma_threshold,
    _literal_ratio_bound,
)


class TestMu:
    """The exponent mu(n) = (pi/6) sqrt(24n - 1), as lehmer_bounds
    reports it."""

    def test_frozen_values(self):
        assert lehmer_bounds(1).mu == pytest.approx(2.51109151358, rel=1e-10)
        assert lehmer_bounds(2).mu == pytest.approx(3.58961235469, rel=1e-10)
        assert lehmer_bounds(500).mu == pytest.approx(57.3549821552,
                                                      rel=1e-10)

    def test_monotone(self):
        values = [lehmer_bounds(n).mu for n in range(1, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lehmer_bounds(0)


class TestLehmerBounds:
    def test_frozen_at_10(self):
        pair = lehmer_bounds(10)
        assert pair.lower == pytest.approx(32.3406394811, rel=1e-9)
        assert pair.upper == pytest.approx(62.2541330872, rel=1e-9)
        assert pair.lower < 42 < pair.upper

    def test_degenerate_at_1(self):
        pair = lehmer_bounds(1)
        assert pair.lower == 0.0
        assert pair.lower < 1 < pair.upper

    def test_estimate_frozen_at_100(self):
        value, cap = lehmer_estimate(100)
        assert value == pytest.approx(190568944.783338, rel=1e-9)
        assert cap == pytest.approx(23197067.5997, rel=1e-9)
        assert abs(value - 190569292) <= cap

    def test_estimate_limit_is_the_last_finite_n(self):
        limit = bounds.LEHMER_ESTIMATE_MAX_N
        assert all(map(math.isfinite, lehmer_estimate(limit)))
        with pytest.raises(OverflowError):
            lehmer_estimate(limit + 1)


class TestMainTermAndEnvelope:
    """The envelope L(n), U(n) of the main term is error_budget's
    lower and upper."""

    def test_frozen_values(self):
        assert main_term(500) == pytest.approx(-5619860.2724294, rel=1e-9)
        assert main_term(600) == pytest.approx(-7212578.96733153, rel=1e-9)
        assert main_term(1000) == pytest.approx(13408697250.3147, rel=1e-9)
        budget = error_budget(500)
        assert budget.lower == pytest.approx(1273918.90094107, rel=1e-9)
        assert budget.upper == pytest.approx(7336206.56465822, rel=1e-9)

    def test_envelope_ratio_is_structural(self):
        for n in (1, 77, 500, 4000):
            budget = error_budget(n)
            assert budget.lower == budget.upper * SIN_PI_18

    def test_main_term_inside_envelope(self):
        for n in range(500, 560):
            budget = error_budget(n)
            m = abs(main_term(n))
            assert budget.lower * (1 - 1e-12) <= m <= budget.upper

    def test_main_term_touches_floor_at_multiples_of_3(self):
        for n in (501, 600, 999):
            assert abs(main_term(n)) == pytest.approx(
                error_budget(n).lower, rel=1e-9)

    def test_sign_pattern(self):
        for n in (500, 501, 502, 503):
            expected = 1.0 if n % 3 == 1 else -1.0
            assert math.copysign(1.0, main_term(n)) == expected


class TestErrorBounds:
    def test_frozen_at_500(self):
        budget = error_budget(500)
        frozen = (1177.6244, 169.91029, 7473.9797, 1452.6737, 4062.3011,
                  83141.02)
        for got, want in zip(budget.terms, frozen):
            assert got == pytest.approx(want, rel=1e-6)
        assert budget.total == pytest.approx(97477.50944, rel=1e-6)

    def test_frozen_at_100(self):
        budget = error_budget(100)
        frozen = (16.095173, 96.606275, 4848.3302, 999.30567, 2910.6691,
                  48388.57)
        for got, want in zip(budget.terms, frozen):
            assert got == pytest.approx(want, rel=1e-6)
        assert budget.total == pytest.approx(57259.57594, rel=1e-6)

    def test_frozen_total_at_2000(self):
        assert error_budget(2000).total == pytest.approx(7955884.145,
                                                         rel=1e-6)

    def test_matches_independent_rewrite(self):
        for n in (100, 500, 1300):
            independent = _independent_error_bounds(n)
            for i, term in enumerate(error_budget(n).terms, start=1):
                assert term == pytest.approx(independent[i - 1],
                                             rel=1e-9), (i, n)

    def test_budget_total_is_exact_sum(self):
        budget = error_budget(777)
        assert budget.total == math.fsum(budget.terms)

    def test_empty_sums_below_thresholds(self):
        # isqrt(n)//3 is 0 for n < 9, so the first bound's sum is empty.
        assert error_budget(8).terms[:2] == (0.0, 0.0)


def _error_bounds(n: int) -> tuple[float, ...]:
    """bounds._error_bounds with the x = sqrt(24n - 1) that error_budget
    passes it."""
    return bounds._error_bounds(n, math.sqrt(24.0 * n - 1.0))


def _outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


# Spot n past the dense ranges, up to the CLI's largest --n.
SPOT_N = (4347, 10000, 20000, 50000, 76567)


class TestLiteralOracles:
    """Bit-for-bit equality with the literal expressions: == on every
    float, not a tolerance."""

    def test_error_bounds_at_every_n(self):
        for n in (*range(1, 3001), *SPOT_N):
            want = tuple(_literal_error_bound(i, n) for i in range(1, 7))
            assert error_budget(n).terms == want, n

    def test_budget_main_term_and_envelope(self):
        # error_budget is the one formula for L(n) and U(n); this is every
        # n that bounds --n prints them at.
        for n in range(1, bounds.LEHMER_ESTIMATE_MAX_N + 1):
            budget = error_budget(n)
            assert (budget.lower, budget.upper) == _literal_envelope(n), n

    def test_bounds_past_the_envelope(self):
        # L(n) overflows a double here, so error_budget raises, but the
        # pass behind it still gives the six bounds.
        n = 10 ** 6
        with pytest.raises(OverflowError):
            error_budget(n)
        assert _error_bounds(n) == tuple(
            _literal_error_bound(i, n) for i in range(1, 7))
        # The first bound's sinh overflows by n = 10^7, as the literal
        # one does; every bound comes from the same pass, so it raises.
        with pytest.raises(OverflowError):
            _literal_error_bound(1, 10 ** 7)
        with pytest.raises(OverflowError):
            _error_bounds(10 ** 7)

    def test_ratio_functions_at_every_n(self):
        for n in (*range(500, 10001), *SPOT_N):
            for i in range(1, 7):
                assert ratio_bound(i, n) == _literal_ratio_bound(i, n), (i, n)

    def test_lehmer_bounds_at_every_n(self):
        # Every n whose floats fit a double.
        for n in range(1, 79445):
            pair = lehmer_bounds(n)
            assert tuple(pair) == _literal_lehmer_bounds(n), n

    def test_lehmer_bounds_where_the_floats_overflow(self):
        # The upper exp overflows from n = 79445, a little past
        # LEHMER_ESTIMATE_MAX_N, and raises as the literal exp does.
        assert math.isfinite(lehmer_bounds(79444).upper)
        for n in (79445, 79447, 10 ** 6):
            with pytest.raises(OverflowError):
                _literal_lehmer_bounds(n)
            with pytest.raises(OverflowError):
                lehmer_bounds(n)

    def test_lemma_threshold_against_s_ratio_and_t_gap(self):
        points = (*range(500, 20001), 1.5, 10.25, 499.5, 500.5, 777.7,
                  12345.678, 1e6 + 0.5, 10, 2)
        for t in (2, 3):
            for x in points:
                assert lemma_threshold(x, t) is _literal_lemma_threshold(
                    x, t), (x, t)
        assert not lemma_threshold(10.25) and lemma_threshold(500.5)
        # At the two adjacent doubles where the literal verdict flips, the
        # margin is a few ulps, so any rounding the written-out form
        # changed would flip a verdict there.
        for t in (2, 3):
            lo, hi = 2.0, 500.0
            while math.nextafter(lo, hi) < hi:
                mid = (lo + hi) / 2
                if _literal_lemma_threshold(mid, t):
                    hi = mid
                else:
                    lo = mid
            assert (lemma_threshold(lo, t), lemma_threshold(hi, t)) \
                == (False, True), t
        # Invalid x or t raise the same errors as the literal form: t
        # first, x <= 0 in the loss's log, 0 < x <= 1 in s_ratio.
        for x, t, message in ((500, 0, "requires t >= 1"),
                              (0, -2, "requires t >= 1"),
                              (0, 3, "math domain error"),
                              (-1.0, 2, "math domain error"),
                              (0.5, 3, "requires x > 1 and lam*x > 1"),
                              (1, 3, "requires x > 1 and lam*x > 1"),
                              (1.0, 2, "requires x > 1 and lam*x > 1")):
            assert _outcome(lemma_threshold, x, t) == message, (x, t)
            assert _outcome(_literal_lemma_threshold, x, t) == message

    def test_lehmer_estimate_at_every_n(self):
        for n in (*range(1, 3001), *SPOT_N):
            assert lehmer_estimate(n) == _literal_lehmer_estimate(n), n


class TestRunningSums:
    ORDERS = ((20000, 10000, 2287, 500, 9, 8, 1, 3000),
              (1, 8, 9, 500, 2287, 3000, 10000, 20000))

    @pytest.mark.parametrize("order", ORDERS, ids=["large-first", "ascending"])
    def test_bit_identical_to_literal_loops(self, order, monkeypatch):
        # Start from empty running sums so the visit order decides which
        # calls extend them and which read a prefix filled beyond n.
        for name in ("_sum_inv_sqrt", "_sum_inv_sqrt_not3", "_sum_sqrt",
                     "_sum_sixth"):
            monkeypatch.setattr(bounds, name, [0.0])
        for name in ("_sqrt_k", "_pi_over_18k"):
            monkeypatch.setattr(bounds, name, [])
        for n in order:
            assert _error_bounds(n) == tuple(
                _literal_error_bound(i, n) for i in range(1, 7)), n

    def test_cache_length_is_root_plus_one(self, monkeypatch):
        monkeypatch.setattr(bounds, "_sum_sixth", [0.0])
        _error_bounds(10000)
        _error_bounds(500)
        assert len(bounds._sum_sixth) == 101


class TestExactGap:
    def test_float_subtraction_loses_the_unit(self):
        a, m = 2 ** 60 + 1, float(2 ** 60)
        assert abs(a - m) == 0.0
        assert exact_gap(a, m) == 1
        assert exact_gap(a, -m) == 2 ** 61 + 1

    def test_matches_float_gap_below_2_53(self):
        for a, m in ((-5619495, -5619860.2724294), (7, 7.5), (0, -0.25)):
            assert float(exact_gap(a, m)) == abs(a - m)


class TestDecimalMainTerm:
    def test_agrees_with_float_main_term(self):
        for n in list(range(1, 40)) + list(range(500, 2001, 50)):
            m = main_term(n)
            assert float(main_term_decimal(n)) == pytest.approx(m, rel=1e-9), n

    def test_frozen_value_at_4347(self):
        # 50 significant digits of an independent 80-digit evaluation
        want = Decimal("-6535410516625001315982.423466487578554111598780418")
        assert abs(main_term_decimal(4347) - want) < Decimal("1e-25")

    def test_single_row_matches_table(self, table, a_third_from_row):
        for n in (1, 2, 3, 100, 240):
            assert a_third_from_row(n) == a_third_exact(table, n), n

    def test_budget_holds_at_4347(self, a_third_from_row):
        # The double main term is off here by about 0.79 of the budget,
        # which once made this n a false violation.
        a = a_third_from_row(4347)
        assert a == -6535410516613307218660
        assert claims.budget_holds(error_budget(4347),
                                   exact_gap(a, main_term_decimal(4347)))


class TestDenseCertification:
    """The n >= 500 claims at every integer n up to 20000, the residue
    envelope at every n up to 10000, and the allowance their shared
    budget predicate keeps."""

    def test_budget_ratios_and_lemma_at_every_n(self):
        hi = 20000
        failures = []
        previous = [ratio_bound(i, 500) for i in range(1, 7)]
        for n in range(500, hi + 1):
            if not claims.budget_holds(error_budget(n)):
                failures.append(("budget", n))
            ratios = [ratio_bound(i, n) for i in range(1, 7)]
            if not claims.ratio_caps_hold(ratios):
                failures.append(("cap", n))
            for i, (f, before) in enumerate(zip(ratios, previous), start=1):
                if not f <= before:
                    failures.append(("increase", i, n))
            previous = ratios
            if not lemma_threshold(n):
                failures.append(("lemma", n))
        assert failures == []

    def test_exact_gap_inside_the_budget_at_every_n(self):
        # |A(n) - M(n)| <= total, exact on the integer side, with A(n)
        # from the two residue columns; the largest gap / total is 0.313,
        # at n = 4172.
        hi = 20000
        a_third = list(map(operator.sub, residue_column(0, 3, hi),
                           residue_column(1, 3, hi)))
        failures = [n for n in range(500, hi + 1) if not claims.budget_holds(
            error_budget(n), exact_gap(a_third[n], main_term_decimal(n)))]
        assert failures == []

    def test_residue_envelope_at_every_n(self):
        # The exact counts N(r,3;n) come from the residue columns; the
        # table holds no row.
        table = RankTable(10000)
        failures = [n for n in range(500, 10001)
                    if not residue_envelope_check(table, n)]
        assert failures == []

    def test_allowance_only_tightens(self):
        at_cap = error_budget(500)._replace(total=BUDGET_CAP * 1000.0,
                                            lower=1000.0)
        assert at_cap.total <= BUDGET_CAP * at_cap.lower
        assert not claims.budget_holds(at_cap)
        inside = at_cap._replace(total=100.0)
        assert claims.budget_holds(inside, Fraction(99))
        assert not claims.budget_holds(inside, Fraction(100) * (1 - 1e-10))


class TestRatioFunctions:
    FROZEN_500 = (0.006424032492, 0.0001812560157, 0.009722517808,
                  0.002108656444, 0.007117907092, 0.5331386904)

    def test_frozen_at_500(self):
        for i, want in enumerate(self.FROZEN_500, start=1):
            assert ratio_bound(i, 500) == pytest.approx(want, rel=1e-8)

    def test_caps_hold_at_500(self):
        for i, cap in enumerate(RATIO_CAPS, start=1):
            assert ratio_bound(i, 500) <= cap

    def test_second_cap_holds_under_both_readings(self):
        value = ratio_bound(2, 500)
        assert value <= RATIO_CAPS[1]
        assert value <= RATIO_CAP_2_DERIVED

    def test_caps_sum_below_the_budget_cap(self):
        # The budget's 0.58 L(n) rests on the six caps summing below it,
        # under either reading of the second cap.
        derived = (RATIO_CAPS[0], RATIO_CAP_2_DERIVED, *RATIO_CAPS[2:])
        assert math.fsum(RATIO_CAPS) == pytest.approx(0.57079, abs=1e-12)
        assert math.fsum(derived) == pytest.approx(0.57250, abs=1e-12)
        for caps in (RATIO_CAPS, derived):
            assert math.fsum(caps) < BUDGET_CAP

    def test_nonincreasing_on_grid(self):
        grid = list(range(500, 1600, 100))
        for i in range(1, 7):
            values = [ratio_bound(i, n) for n in grid]
            assert all(a >= b for a, b in zip(values, values[1:])), i

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ratio_bound(1, 499)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            ratio_bound(0, 500)


class TestResidueEnvelope:
    def test_holds_at_unit_sizes(self, table):
        for n in (60, 100, 200, 240):
            assert residue_envelope_check(table, n)

    def test_raises_past_the_double_range_before_any_column(
            self, monkeypatch):
        # From n = 79445 Lehmer's upper exp overflows, and the check
        # raises before it reads a count, so no column is computed.
        monkeypatch.setattr(core, "_columns", {})
        with pytest.raises(OverflowError):
            residue_envelope_check(RankTable(79445), 79445)
        assert core._columns == {}


class _MathRecorder:
    """Stands in for the bounds module's math: records what exp returns
    and what floor and ceil are given, in call order."""

    def __init__(self):
        self.seen: list[float] = []

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.seen.append(math.exp(x))
        return self.seen[-1]

    def floor(self, x):
        self.seen.append(x)
        return math.floor(x)

    def ceil(self, x):
        self.seen.append(x)
        return math.ceil(x)


class TestEnvelopeIntegerEdges:
    """residue_envelope_check compares each count with floor(lo) and
    ceil(hi) of the float edges lo = (1 - c)/3 L and hi = (1 + c)/3 U,
    L and U Lehmer's bounds; its verdict must be that of the exact
    comparison with the float edges themselves."""

    LO_C = (1 - bounds.ENVELOPE_C) / 3
    HI_C = (1 + bounds.ENVELOPE_C) / 3

    def edges(self, n):
        pair = lehmer_bounds(n)
        return self.LO_C * pair.lower, self.HI_C * pair.upper

    def test_written_out_edges_are_lehmer_bounds(self, monkeypatch):
        # Every n up to LEHMER_ESTIMATE_MAX_N takes _lehmer's two exps.
        top = bounds.LEHMER_ESTIMATE_MAX_N
        want = []
        for n in range(2, top + 1):
            pair = lehmer_bounds(n)
            want += (pair.lower, pair.upper,
                     self.LO_C * pair.lower, self.HI_C * pair.upper)
        recorder = _MathRecorder()
        monkeypatch.setattr(bounds, "math", recorder)
        monkeypatch.setattr(bounds, "lehmer_bounds", None)  # never called
        monkeypatch.setattr(bounds, "residue_count",
                            lambda table, r, t, n: -1)  # fails class 0
        table = RankTable(top)
        assert not any(residue_envelope_check(table, n)
                       for n in range(2, top + 1))
        assert recorder.seen == want

    @pytest.mark.parametrize("ns, integral", [
        (range(2, 254), False), ((307, 500, 2000, 4347, 5000), True)])
    def test_counts_at_the_integer_edges(self, ns, integral, monkeypatch):
        # Below n = 254 no edge is an integer, so floor and ceil move it;
        # from n = 307 on both edges are integer-valued floats (above
        # 2^52), and floor and ceil return them unchanged.
        top = max(ns)
        table = RankTable(top)
        column = {r: residue_column(r, 3, top) for r in range(3)}
        for n in ns:
            lo, hi = self.edges(n)
            assert lo.is_integer() is hi.is_integer() is integral, n
            for target in range(3):
                for count in (math.floor(lo), math.floor(lo) + 1,
                              math.ceil(hi) - 1, math.ceil(hi)):
                    counts = [count if r == target else column[r][n]
                              for r in range(3)]
                    monkeypatch.setattr(bounds, "residue_count",
                                        lambda table, r, t, n: counts[r])
                    want = all(Fraction(lo) < c < Fraction(hi)
                               for c in counts)
                    assert residue_envelope_check(table, n) is want, \
                        (n, target, count)

    def test_refusals_are_unchanged(self):
        table = RankTable(100)
        with pytest.raises(ValueError, match="n must be >= 1"):
            residue_envelope_check(table, 0)
        with pytest.raises(ValueError, match="table holds 100"):
            residue_envelope_check(table, 101)
        with pytest.raises(TypeError, match="n must be an int"):
            residue_envelope_check(table, 50.0)


class TestEstimateHolds:
    def test_compares_p_exactly(self):
        # value - p would round 2^60 + 1 to 2^60.
        assert not claims.estimate_holds((2.0 ** 60, 0.5), 2 ** 60 + 1)
        assert claims.estimate_holds((2.0 ** 60, 1.0), 2 ** 60 + 1)
        assert claims.estimate_holds((2.0 ** 60 + 2048.0, 2047.0),
                                     2 ** 60 + 1)
        assert not claims.estimate_holds((2.0 ** 60 + 2048.0, 2046.5),
                                         2 ** 60 + 1)
        assert not claims.estimate_holds((math.inf, 1.0), 5)
        assert not claims.estimate_holds((math.nan, 1.0), 5)
        assert claims.estimate_holds((5.5, math.inf), 5)

    def test_equals_a_fraction_oracle_at_every_n(self):
        # Every n <= 500 keeps at least 94% of its cap, so no verdict
        # that bounds --n or verify bounds prints moves.
        p = partition_numbers(500)
        for n in range(1, 501):
            value, cap = lehmer_estimate(n)
            gap = abs(Fraction(value) - p[n])
            assert claims.estimate_holds((value, cap), p[n]) is (
                gap <= Fraction(cap)), n
            assert gap <= Fraction(cap) * Fraction(6, 100), n


class TestLemmaThreshold:
    def test_frozen_s_and_t(self):
        assert s_ratio(500, 1.0) == pytest.approx(1.13047454466, rel=1e-9)
        assert t_gap(500, 1.0) == pytest.approx(33.5960807162, rel=1e-9)
        assert s_ratio(10, 1.0) == pytest.approx(2.61709180962, rel=1e-9)
        assert t_gap(10, 1.0) == pytest.approx(4.7297625319, rel=1e-9)

    def test_flips_between_small_and_large_x(self):
        assert not lemma_threshold(10)
        assert lemma_threshold(500)
        assert lemma_threshold(5000)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lemma_threshold(500, t=0)
        with pytest.raises(ValueError):
            s_ratio(1.0, 1.0)
        with pytest.raises(ValueError):
            t_gap(-1.0, 1.0)


class TestHardyRamanujan:
    def test_frozen_at_100(self):
        assert hardy_ramanujan(100) == pytest.approx(199280893.35, rel=1e-8)

    def test_first_order_accuracy(self):
        assert hardy_ramanujan(1000) / partition_number(1000) \
            == pytest.approx(1.0, abs=0.05)
