"""The product inequality N(r,3;a) N(r,3;b) > N(r,3;a+b): scanning,
the known boundary counterexamples, and worker determinism.
Two oracles decide every pair of a region without the log-concavity
lemma that lets scan_region stop a row early: pairwise_scan, one
multiplication and comparison per pair, and row_pass_scan, one C-level
pass per row walked pair by pair only on a violation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonrank import (
    RankTable,
    check_pair,
    residue_column,
    residue_count,
    scan_region,
    sharpness_frontier,
)
from dysonrank import convexity
from dysonrank.convexity import _concave_start
from oracles import concave_start_by_definition, pairwise_scan, row_pass_scan


def scan(table, *region):
    """scan_region's (pairs_checked, violations)."""
    report = scan_region(table, *region)
    return report.pairs_checked, report.violations


class TestCheckPair:
    def test_boundary_counterexample_r0(self, table):
        holds, lhs, rhs = check_pair(table, 0, 3, 11, 11)
        assert (holds, lhs, rhs) == (False, 256, 340)

    def test_boundary_counterexample_r1(self, table):
        holds, lhs, rhs = check_pair(table, 1, 3, 10, 10)
        assert (holds, lhs, rhs) == (False, 169, 211)

    def test_same_counterexample_r2(self, table):
        holds, lhs, rhs = check_pair(table, 2, 3, 10, 10)
        assert (holds, lhs, rhs) == (False, 169, 211)

    def test_first_valid_pairs(self, table):
        assert check_pair(table, 0, 3, 12, 12)[0]
        assert check_pair(table, 1, 3, 11, 11)[0]
        assert check_pair(table, 2, 3, 11, 11)[0]

    def test_symmetric_in_a_b(self, table):
        assert check_pair(table, 0, 3, 14, 40) == check_pair(table, 0, 3,
                                                             40, 14)

    def test_values_are_products(self, table):
        _, lhs, rhs = check_pair(table, 0, 3, 13, 22)
        assert lhs == residue_count(table, 0, 3, 13) \
            * residue_count(table, 0, 3, 22)
        assert rhs == residue_count(table, 0, 3, 35)

    def test_rejects_nonpositive(self, table):
        with pytest.raises(ValueError):
            check_pair(table, 0, 3, 0, 5)


class TestScanRegion:
    def test_clean_region_r0(self, table):
        report = scan_region(table, 0, 3, 12, 120)
        assert report.violations == []
        assert report.pairs_checked == 109 * 110 // 2

    def test_clean_regions_r1_r2(self, table):
        for r in (1, 2):
            report = scan_region(table, r, 3, 11, 120)
            assert not report.violations, r

    def test_violations_below_threshold(self, table):
        report = scan_region(table, 0, 3, 10, 20)
        assert report.violations
        assert (11, 11, 256, 340) in report.violations
        assert report.violations == sorted(report.violations)

    def test_region_validation(self, table):
        with pytest.raises(ValueError):
            scan_region(table, 0, 3, 0, 50)
        with pytest.raises(ValueError):
            scan_region(table, 0, 3, 50, 10)

    @pytest.mark.parametrize("t", [2, 3, 5, 7])
    def test_equals_pairwise_oracle(self, table, t):
        # (a_min, b_max): whole triangles from 1, from the threshold
        # and from further in, down to a single pair.
        regions = [(1, 120), (11, 120), (5, 60), (3, 40), (10, 50), (2, 30),
                   (20, 40), (40, 40)]
        for r in range(t):
            for a_min, b_max in regions:
                report = scan_region(table, r, t, a_min, b_max)
                assert (report.pairs_checked, report.violations) == \
                    pairwise_scan(r, t, a_min, b_max), (r, a_min, b_max)

    @pytest.mark.parametrize("t", [2, 3, 5, 7])
    def test_every_row_end_equals_pairwise_oracle(self, table, t):
        # Every b_max and every a_min up to 40, so that each violation
        # is, in some region, the last pair of its row, and each with
        # a = b the first pair of the first row.
        for r in range(t):
            for edge in range(1, 41):
                for region in ((1, edge), (edge, 40)):
                    report = scan_region(table, r, t, *region)
                    assert (report.pairs_checked, report.violations) == \
                        pairwise_scan(r, t, *region), (r, region)

    def test_readme_example(self, table):
        report = scan_region(table, 0, 3, 10, 30)
        assert report.pairs_checked == 231
        assert report.violations == [(10, 11, 256, 264), (11, 11, 256, 340),
                                     (11, 12, 400, 413)]

    def test_table_too_small(self, table):
        with pytest.raises(ValueError, match="table holds"):
            scan_region(table, 0, 3, 12, 200)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(12, 100), st.integers(12, 100))
    def test_inequality_above_threshold(self, table, a, b):
        if a + b <= 240:
            assert check_pair(table, 0, 3, a, b)[0]


class TestLogConcaveTail:
    """scan_region stops a row at its first holding pair with b >= L,
    where the column is positive and log-concave on [L, top]."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.integers(-1, 4), min_size=1, max_size=12))
    def test_start_equals_definition(self, counts):
        # Small values make zeros and exact equalities
        # c(n)^2 = c(n-1) c(n+1) common.
        assert _concave_start(counts) == concave_start_by_definition(counts)

    def test_start_on_hand_made_columns(self):
        assert _concave_start([3, 3, 3, 3]) == 0  # equality throughout
        assert _concave_start([1, 2, 4, 8, 16]) == 0
        assert _concave_start([1, 1, 0, 0, 1, 1]) == 4
        assert _concave_start([1, 5, 1, 2, 3]) == 2
        assert _concave_start([4, 0]) == 2

    STARTS = {1: [25], 2: [92, 93], 3: [47, 43, 43],
              5: [35, 33, 29, 29, 33], 7: [27, 31, 25, 27, 27, 25, 31]}

    @pytest.mark.parametrize("t", sorted(STARTS))
    def test_start_per_modulus(self, t):
        for top in (800, 2000):
            found = [_concave_start(residue_column(r, t, top))
                     for r in range(t)]
            assert found == self.STARTS[t], top

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 7, 11])
    def test_regions_across_start_equal_oracles(self, t):
        # Residues r <= t/2 only: r and t - r share one column.  Each
        # region reaches b_max = 400, far past L <= 93.
        table = RankTable(1000)
        for r in range(t // 2 + 1):
            whole = row_pass_scan(r, t, 1, 400)
            assert scan(table, r, t, 1, 400) == whole == \
                pairwise_scan(r, t, 1, 400), r
            thr = max(min(a, b) for a, b, _, _ in whole[1]) + 1
            low = _concave_start(residue_column(r, t, 800))
            regions = [(thr, 400),  # from the threshold
                       (low - 3, 400),  # the first rows start below L
                       (low + 2, 400)]  # every row past L
            for region in regions:
                assert scan(table, r, t, *region) == \
                    row_pass_scan(r, t, *region), (r, region)

    @staticmethod
    def _doctored(monkeypatch, change):
        """Make convexity read the (0, 3) column to 1000 with `change`
        applied; return the column function the oracles should read."""
        counts = list(residue_column(0, 3, 1000))
        change(counts)

        def column(r, t, n):
            return tuple(counts[:n + 1])

        monkeypatch.setattr(convexity, "residue_column", column)
        return column

    def test_dip_far_above_the_true_start(self, monkeypatch):
        # c(300) cut a thousandfold breaks log-concavity at n = 300, so L
        # moves from 47 to 300; rows then violate at b = 300 itself, the
        # first pair of their walk.
        def dip(counts):
            counts[300] //= 1000

        column = self._doctored(monkeypatch, dip)
        assert _concave_start(column(0, 3, 800)) == 300
        table = RankTable(1000)
        for region in [(12, 400), (1, 300), (290, 301), (12, 299)]:
            found = scan(table, 0, 3, *region)
            assert found == row_pass_scan(0, 3, *region, column=column) \
                == pairwise_scan(0, 3, *region, column=column), region
        assert any(b == 300 for _, b, _, _ in
                   scan(table, 0, 3, 12, 400)[1])

    def test_zeros_log_concavity_passes(self, monkeypatch):
        # c(300) = c(301) = 0 keeps c(n)^2 >= c(n-1) c(n+1) at every n,
        # so only positivity moves L, to 302; a row that holds at
        # b = 299 violates again at b = 300 and 301.
        def zeros(counts):
            counts[300] = counts[301] = 0

        column = self._doctored(monkeypatch, zeros)
        counts = column(0, 3, 800)
        assert all(counts[n] ** 2 >= counts[n - 1] * counts[n + 1]
                   for n in range(48, 800))
        assert _concave_start(counts) == 302
        table = RankTable(1000)
        for region in [(290, 301), (12, 400)]:
            found = scan(table, 0, 3, *region)
            assert found == row_pass_scan(0, 3, *region, column=column) \
                == pairwise_scan(0, 3, *region, column=column), region
        assert (12, 300, 0, counts[312]) in found[1]

    def test_late_violation_only_a_walk_finds(self, monkeypatch):
        # c(350) raised a hundredfold: pairs with a + b = 350 violate
        # after earlier pairs of their row hold, all below L = 351.
        def spike(counts):
            counts[350] *= 100

        column = self._doctored(monkeypatch, spike)
        assert _concave_start(column(0, 3, 800)) == 351
        table = RankTable(1000)
        for region in [(12, 400), (140, 200)]:
            found = scan(table, 0, 3, *region)
            assert found == row_pass_scan(0, 3, *region, column=column) \
                == pairwise_scan(0, 3, *region, column=column), region
        assert (12, 338) in [(a, b) for a, b, _, _ in
                             scan(table, 0, 3, 12, 400)[1]]


class TestSharpnessFrontier:
    def test_r0_threshold_is_12(self, table):
        assert sharpness_frontier(table, 0, 3, 100) == 12

    def test_r1_r2_threshold_is_11(self, table):
        assert sharpness_frontier(table, 1, 3, 100) == 11
        assert sharpness_frontier(table, 2, 3, 100) == 11

    def test_thresholds_on_a_box_of_1000(self):
        table = RankTable(2000)
        assert [sharpness_frontier(table, r, 3, 1000)
                for r in (0, 1, 2)] == [12, 11, 11]

    def test_t2_conjectured_thresholds_on_a_box_of_1000(self):
        # t = 2 is a conjecture (SCAN_THRESHOLDS): 11 for r = 0, 12 for
        # r = 1.
        table = RankTable(2000)
        assert [sharpness_frontier(table, r, 2, 1000)
                for r in (0, 1)] == [11, 12]
