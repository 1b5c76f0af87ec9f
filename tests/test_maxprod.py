"""Maximum products of residue counts over partitions: dynamic program
vs. exhaustive search, the periodic closed forms, replacement rules,
and the exploratory modulus-2 analogues."""

from __future__ import annotations

import math
import random
from itertools import islice

import pytest

from dysonrank import (
    MaxProductEntry,
    RankTable,
    closed_form,
    conjecture_max_mod2,
    max_table,
    product_over_partition,
    replacement_rules,
    verify_closed_forms,
    verify_replacement_rules,
    verify_small_tables,
)
from dysonrank import maxprod
from dysonrank.maxprod import (
    CLOSED_FORM_START,
    CONJECTURE_MOD2_START,
    _BASE_PART,
    _best_and_count,
    _carried_closed_forms,
    _closure_size_mod2,
    _knapsack,
    _walk_optima,
)
from dysonrank.core import RankTable, residue_column, residue_count
from dysonrank.reference import SMALL_TABLE, counts_column, max_column
from oracles import (
    _canonical_mod2,
    _closure_mod2,
    _value_table,
    brute_max,
    counter_closure_mod2,
    full_best_and_count,
    full_walk_optima,
    listing_conjecture_max_mod2,
    per_n_verify_closed_forms,
    prefix_collect_optima,
)


class TestProductOverPartition:
    def test_empty_partition_is_one(self, table):
        assert product_over_partition(table, 0, 3, ()) == 1

    def test_known_product(self, table):
        # counts 7, 7, 3, 3 multiply to 441
        assert product_over_partition(table, 0, 3, (7, 7, 4, 4)) == 441

    def test_order_irrelevant(self, table):
        assert product_over_partition(table, 1, 3, (5, 2, 9)) \
            == product_over_partition(table, 1, 3, (9, 5, 2))

    def test_rejects_bad_parts(self, table):
        with pytest.raises(ValueError):
            product_over_partition(table, 0, 3, (3, 0))


class TestDynamicProgram:
    def test_zero_row(self, table):
        # The walk yields the empty partition, the one partition of 0.
        for t in (1, 2, 3, 4, 5, 7, 11):
            for r in range(t):
                entries = max_table(table, r, t, 0)
                assert entries[0] == MaxProductEntry(0, 1, ((),)), (r, t)

    def test_matches_brute_force(self, table):
        # (3, 7) has best = 0 at n <= 3, where every partition is optimal.
        for r, t in ((0, 3), (1, 3), (2, 3), (0, 2), (1, 2), (3, 7)):
            entries = max_table(table, r, t, 22, optima_cap=None)
            for n in range(23):
                assert entries[n] == brute_max(table, r, t, n,
                                               optima_cap=None), (r, t, n)

    def test_matches_golden_column(self, table):
        for r in (0, 1, 2):
            report = verify_small_tables(table, r)
            assert not report.mismatches, report.mismatches
            assert report.checked == len(max_column(r))

    def test_multi_optima_rows(self, table):
        e16 = max_table(table, 0, 3, 16)[16]
        assert e16.value == 81
        assert e16.optima == ((4, 4, 4, 4), (16,))
        e4 = max_table(table, 1, 3, 4)[4]
        assert e4.value == 1
        assert e4.optima == ((2, 2), (4,))

    def test_part_beats_singleton_at_8(self, table):
        entry = max_table(table, 0, 3, 8)[8]
        assert entry.value == 9
        assert entry.optima == ((4, 4),)
        assert product_over_partition(table, 0, 3, (8,)) == 6

    def test_optima_cap_truncates_with_flag(self, table):
        entry = max_table(table, 0, 3, 16, optima_cap=1)[16]
        assert entry.truncated
        assert len(entry.optima) == 1

    def test_table_too_small(self, table):
        with pytest.raises(ValueError, match="table holds"):
            max_table(table, 0, 3, 500)

    def test_validation(self, table):
        with pytest.raises(ValueError):
            max_table(table, 3, 3, 10)
        with pytest.raises(ValueError):
            max_table(table, 0, 3, -1)


class TestClosedForm:
    def test_spot_values(self):
        assert closed_form(0, 36) == (21904, (13, 13, 10))
        assert closed_form(0, 33) == (9583, (13, 13, 7))
        assert closed_form(1, 22) == (400, (11, 11))
        assert closed_form(1, 27) == (1534, (15, 12))
        assert closed_form(1, 30) == (3481, (15, 15))
        assert closed_form(2, 30) == (3481, (15, 15))

    def test_partition_sums_to_n(self):
        for r in (0, 1, 2):
            for n in range(CLOSED_FORM_START[r], CLOSED_FORM_START[r] + 30):
                value, parts = closed_form(r, n)
                assert sum(parts) == n
                assert value > 0
                assert all(a >= b for a, b in zip(parts, parts[1:]))

    def test_value_is_product_of_part_counts(self, table):
        for r in (0, 1, 2):
            for n in range(CLOSED_FORM_START[r], CLOSED_FORM_START[r] + 30):
                value, parts = closed_form(r, n)
                assert value == product_over_partition(table, r, 3, parts)

    def test_periodicity(self):
        base = {0: 7, 1: 14, 2: 14}
        for r in (0, 1, 2):
            start = CLOSED_FORM_START[r]
            growth = counts_column(r)[base[r]]
            for n in range(start, start + 20):
                v1, p1 = closed_form(r, n)
                v2, p2 = closed_form(r, n + base[r])
                assert v2 == v1 * growth
                assert sorted(set(p2) - {base[r]}) == sorted(set(p1) - {base[r]})

    def test_agrees_with_dynamic_program(self, table):
        for r in (0, 1, 2):
            report = verify_closed_forms(table, r, 240)
            assert not report.mismatches, report.mismatches
            assert report.checked == 240 - CLOSED_FORM_START[r] + 1

    def test_unique_optima_to_2000(self):
        for r in (0, 1, 2):
            report = verify_closed_forms(RankTable(2000), r, 2000)
            assert not report.mismatches, report.mismatches[:3]
            assert report.checked == 2001 - CLOSED_FORM_START[r]

    def test_verify_rejects_other_residues_and_ranges(self, table):
        with pytest.raises(ValueError, match="r in"):
            verify_closed_forms(table, 3, 30)
        with pytest.raises(ValueError, match="nonnegative"):
            verify_closed_forms(table, 0, -5)
        with pytest.raises(ValueError, match="table holds"):
            verify_closed_forms(table, 0, table.n_max + 1)

    def test_mismatch_reports_best_and_count(self, table, monkeypatch):
        # A closed form that is not the optimum: at n = 33 the table's
        # best product is attained once, by (13, 13, 7), not by (33,).
        from dysonrank import maxprod
        monkeypatch.setattr(maxprod, "closed_form",
                            lambda r, n: (closed_form(r, n)[0], (n,)))
        report = verify_closed_forms(table, 0, 33)
        assert report.checked == 1
        assert report.mismatches == [(33, 9583, (33,), 9583, 1)]

    def test_carry_equals_closed_form_to_2000(self):
        # From the threshold, and from starts that seed the residue
        # classes in another order, as maxn's ranges do.
        table = RankTable(2000)
        for r in (0, 1, 2):
            f = _knapsack(table, r, 3, 2000)[0]
            start, base = CLOSED_FORM_START[r], _BASE_PART[r]
            for lo in (start, start + 1, start + base + 5):
                carried = list(_carried_closed_forms(r, f, lo, 2000))
                assert [n for n, _, _ in carried] == list(range(lo, 2001))
                for n, value, product in carried:
                    cf_value, parts = closed_form(r, n)
                    assert value == cf_value, (r, lo, n)
                    assert product == math.prod(f[part] for part in parts), \
                        (r, lo, n)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_carried_sweep_equals_per_n_sweep(self, r):
        # Every n_hi across the seeds and the first carries of each
        # residue class, then long ranges.
        base, start = _BASE_PART[r], CLOSED_FORM_START[r]
        table = RankTable(2000)
        for n_hi in [*range(base - 1, start + 3 * base + 1), 240, 1000, 2000]:
            assert verify_closed_forms(table, r, n_hi) == \
                per_n_verify_closed_forms(table, r, n_hi), n_hi

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_carried_mismatches_equal_per_n_mismatches(self, r, monkeypatch):
        # A frozen count off by one breaks the values of every closed
        # form with that part; a column count off by one breaks the
        # products and the knapsack.  Both sweeps must report alike.
        frozen = counts_column(r)
        part = 13 if r == 0 else 15
        monkeypatch.setattr(maxprod, "counts_column", lambda r: {
            **frozen, part: frozen[part] + 1})
        table = RankTable(240)
        report = verify_closed_forms(table, r, 240)
        assert report.mismatches
        assert report == per_n_verify_closed_forms(table, r, 240)
        monkeypatch.undo()

        def bumped(r, t, n_max):
            counts = list(residue_column(r, t, n_max))
            counts[_BASE_PART[r]] += 1
            return tuple(counts)

        monkeypatch.setattr(maxprod, "residue_column", bumped)
        report = verify_closed_forms(table, r, 240)
        assert report.mismatches
        assert report == per_n_verify_closed_forms(table, r, 240)

    def test_short_ranges_read_no_carry(self):
        # Below one period nothing is carried, so f[base] is never read.
        for r in (0, 1, 2):
            start = CLOSED_FORM_START[r]
            for n_hi in (_BASE_PART[r] - 1, start - 1, start):
                report = verify_closed_forms(RankTable(n_hi), r, n_hi)
                assert report.checked == max(0, n_hi - start + 1)
                assert not report.mismatches

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_form(0, 32)
        with pytest.raises(ValueError):
            closed_form(1, 21)
        with pytest.raises(ValueError):
            closed_form(3, 100)


class TestReplacementRules:
    def test_rules_preserve_sums_and_improve(self, table):
        for r in (0, 1, 2):
            report = verify_replacement_rules(table, r)
            assert not report.mismatches, report.mismatches

    def test_rule_lists_are_nonempty_and_deduplicated(self):
        for r in (0, 1, 2):
            rules = replacement_rules(r)
            assert rules
            keys = [tuple(sorted(before)) for before, _ in rules]
            assert len(keys) == len(set(keys))

    def test_specific_rule_present(self, table):
        rules = replacement_rules(0)
        assert ((1, 1, 1, 1), (4,)) in rules


class TestGoldenTables:
    def test_counts_match_computed(self, table):
        from dysonrank import residue_count
        for r in (0, 1, 2):
            for n, count in counts_column(r).items():
                assert residue_count(table, r, 3, n) == count, (r, n)

    def test_r2_aliases_r1(self):
        assert counts_column(2) == counts_column(1)
        assert max_column(2) == max_column(1)

    def test_shape(self):
        assert set(SMALL_TABLE) == {0, 1}
        assert set(SMALL_TABLE[0]) == set(range(1, 33))
        assert set(SMALL_TABLE[1]) == set(range(1, 22))


class TestConjectureMod2:
    def test_forms_agree_to_120(self, table):
        for r in (0, 1):
            report = conjecture_max_mod2(table, r, 120)
            assert not report.mismatches, report.mismatches

    def test_example_at_8(self, table):
        entry = max_table(table, 1, 2, 8, optima_cap=None)[8]
        assert entry.value == 16
        assert entry.optima == ((2, 2, 2, 2), (4, 2, 2), (4, 4), (6, 2))

    def test_rejects_other_residues(self, table):
        with pytest.raises(ValueError):
            conjecture_max_mod2(table, 2, 50)

    def test_rejects_ranges_past_the_table(self, table):
        with pytest.raises(ValueError, match="nonnegative"):
            conjecture_max_mod2(table, 1, -5)
        with pytest.raises(ValueError, match="table holds"):
            conjecture_max_mod2(table, 0, table.n_max + 1)

    def test_counting_matches_listing_oracle(self, table):
        for r in (0, 1):
            report = conjecture_max_mod2(table, r, 120)
            checked, mismatches = listing_conjecture_max_mod2(table, r, 120)
            assert report.checked == checked == 121 - CONJECTURE_MOD2_START[r]
            assert report.mismatches == mismatches == []

    def test_mismatch_reports_counts(self, table, monkeypatch):
        # With N(1,2;6) lowered from 2^3 to 7, (6, 2) drops out of the
        # four optima at n = 8 and the swap identities fail.
        from dysonrank import maxprod

        def lowered(r, t, n_max):
            counts = list(residue_column(r, t, n_max))
            counts[6] -= 1
            return tuple(counts)

        monkeypatch.setattr(maxprod, "residue_column", lowered)
        report = conjecture_max_mod2(table, 1, 8)
        assert report.mismatches == [(8, 16, 16, 4, 3)]

    def test_closure_size_matches_literal_closure(self):
        for n in range(8, 121):
            h = n // 2 if n % 2 == 0 else (n - 9) // 2
            assert _closure_size_mod2(h) == len(_closure_mod2(
                _canonical_mod2(n))), n

    def test_closure_matches_counter_oracle(self):
        starts = [_canonical_mod2(n) for n in range(8, 121)]
        starts += [(9, 2, 2, 2), (4, 4, 2, 1), (6, 6, 3), (6, 4, 2, 2, 1),
                   (5, 3), (), (2,), (4,), (6,)]
        for start in starts:
            assert _closure_mod2(start) == counter_closure_mod2(start), start


class TestBestAndCount:
    @pytest.mark.parametrize("r, t", [(0, 3), (1, 3), (2, 3), (1, 2),
                                      (0, 2), (0, 5), (1, 7), (0, 1)])
    def test_matches_listed_optima(self, table, r, t):
        entries = max_table(table, r, t, 120, optima_cap=None)
        _, best, cnt, _, _ = _knapsack(table, r, t, 120)
        assert best == [e.value for e in entries]
        assert cnt == [len(e.optima) for e in entries]

    @pytest.mark.parametrize("r, t", [(0, 3), (1, 3), (2, 3), (1, 2),
                                      (0, 2), (0, 5), (1, 7), (3, 7)])
    def test_top_is_smallest_largest_part(self, table, r, t):
        # (3, 7) has best = 0 at n <= 3, where every partition is optimal.
        f, _, _, top, _ = _knapsack(table, r, t, 120)
        V = _value_table(f, 120)
        assert top[0] == 0
        for n in range(1, 121):
            optima, _ = prefix_collect_optima(V, f, n, None)
            assert top[n] == min(p[0] for p in optima), (r, t, n)


class TestOptimaWalk:
    @pytest.mark.parametrize("cap", [None, 0, 1, 4, 64])
    def test_entries_match_prefix_oracle(self, table, cap):
        # (50, 100) has best = 0 at every n <= 50, where the walk lists
        # all partitions; capped, since p(50) is too many to list.
        cases = [(r, t, 120) for r, t in ((1, 2), (0, 2), (0, 3), (1, 3),
                                          (2, 3), (0, 5), (3, 7))]
        if cap is not None:
            cases.append((50, 100, 60))
        for r, t, n_hi in cases:
            entries = max_table(table, r, t, n_hi, optima_cap=cap)
            f = _knapsack(table, r, t, n_hi)[0]
            V = _value_table(f, n_hi)
            for n in range(1, n_hi + 1):
                optima, truncated = prefix_collect_optima(V, f, n, cap)
                want = MaxProductEntry(n, V[n][n], tuple(optima), truncated)
                assert entries[n] == want, (r, t, cap, n)

    def test_truncated_set_is_the_first_in_reverse_lex_order(self, table):
        # 91 optima at n = 60 for (1, 2); the 64 stored are the first
        # 64 in reverse lexicographic order, (6,)*10 first, so the 64
        # greatest of the whole set.
        whole = max_table(table, 1, 2, 60, optima_cap=None)[60]
        capped = max_table(table, 1, 2, 60)[60]
        assert len(whole.optima) == 91 and not whole.truncated
        assert capped.truncated
        assert capped.optima == whole.optima[-64:]
        assert capped.optima[-1] == (6,) * 10

    @pytest.mark.parametrize("cap", [None, 0, 1, 4, 64])
    def test_brute_force_keeps_the_same_capped_set(self, table, cap):
        # best = 0 at n <= 12 for (50, 100), so every partition is
        # optimal, 77 of them at n = 12; (1, 2) has many optima too.
        for r, t, n in ((50, 100, 12), (50, 100, 7), (1, 2, 22), (0, 3, 16),
                        (0, 3, 0)):
            assert brute_max(table, r, t, n, cap) == \
                max_table(table, r, t, n, cap)[n], (r, t, n)


def _assert_matches_full(f: list[int], n_max: int, label) -> None:
    """The skipping knapsack equals the full one, and the walk over it
    yields the full walk's first 200 optima in the same order, at every
    n with a positive best product."""
    best, cnt, top, below = _best_and_count(f, n_max)
    assert (best, cnt, top) == full_best_and_count(f, n_max), label
    for n in range(1, n_max + 1):
        if best[n] > 0:
            got = list(islice(_walk_optima(best, top, below, f, n), 200))
            want = list(islice(full_walk_optima(best, top, f, n), 200))
            assert got == want, (label, n)


class CountingInt(int):
    """An int whose products, taken with it on the left, are counted."""
    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return int.__mul__(self, other)


class TestSkippedParts:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 7, 11, 20])
    def test_residue_columns_match_full_knapsack_and_walk(self, table, t):
        for r in range(t):
            _assert_matches_full(_knapsack(table, r, t, 120)[0], 120, (r, t))

    def test_zero_best_everywhere_matches(self, table):
        # N(50, 100; n) = 0 for n < 50, so zero products persist.
        _assert_matches_full(_knapsack(table, 50, 100, 60)[0], 60, (50, 100))

    def test_zero_position_condition(self):
        # f[4] = 0 < best[4] = 1, from (2, 2), but best[1] = 0 and
        # best[4 + 1] = 0: part 4's pass ties at n = 5 through (4, 1), so
        # it runs.  Skipped, cnt[5] would read 5.
        f = [0, 0, 1, 0, 0, 0]
        best, cnt, top, below = _best_and_count(f, 5)
        assert (best, cnt, top) == full_best_and_count(f, 5)
        assert below[4] == 4
        assert cnt[5] == 6

    def test_random_scores_with_many_zeros(self):
        rng = random.Random(20161)
        for draw in range(3000):
            n_max = rng.randint(1, 30)
            f = [0] + [rng.choice((0, 0, 0, 1, 1, 2, 3, 4, 6, 9))
                       for _ in range(n_max)]
            _assert_matches_full(f, n_max, (draw, f))

    def test_passes_that_run(self, table):
        runs = {}
        for r, t in ((0, 3), (1, 3), (2, 3), (0, 2), (1, 2)):
            below = _knapsack(table, r, t, 240)[4]
            runs[r, t] = len(set(below) - {0})
        assert runs == {(0, 3): 9, (1, 3): 21, (2, 3): 21, (0, 2): 4,
                        (1, 2): 8}

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_products_to_2000(self, r):
        # One pass per part makes about 2 * 10^6 products.
        n = 2000
        f = [CountingInt(v) for v in (0, *residue_column(r, 3, n)[1:])]
        CountingInt.products = 0
        best, _, top, below = _best_and_count(f, n)
        assert CountingInt.products <= 25 * (n + 1)
        CountingInt.products = 0
        optima = list(_walk_optima(best, top, below, f, n))
        assert len(optima) == 1
        assert CountingInt.products < n
