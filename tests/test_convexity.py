"""The product inequality N(r,3;a) N(r,3;b) > N(r,3;a+b): scanning,
the known boundary counterexamples, and worker determinism.
pairwise_scan, one multiplication and comparison per pair, is the
oracle for scan_region's one pass per row."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonrank import (
    check_pair,
    residue_column,
    residue_count,
    scan_region,
    sharpness_frontier,
)


def pairwise_scan(r, t, a_min, b_max, a_max=None, b_min=None):
    """(pairs_checked, violations) of scan_region, pair by pair."""
    a_hi = b_max if a_max is None else a_max
    b_lo = a_min if b_min is None else b_min
    counts = residue_column(r, t, a_hi + b_max)
    checked = 0
    bad = []
    for a in range(a_min, a_hi + 1):
        ca = counts[a]
        for b in range(max(a, b_lo), b_max + 1):
            checked += 1
            lhs = ca * counts[b]
            rhs = counts[a + b]
            if lhs <= rhs:
                bad.append((a, b, lhs, rhs))
    return checked, bad


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
        assert report.ok
        assert report.violations == []
        assert report.pairs_checked == 109 * 110 // 2

    def test_clean_regions_r1_r2(self, table):
        for r in (1, 2):
            report = scan_region(table, r, 3, 11, 120)
            assert report.ok, r

    def test_violations_below_threshold(self, table):
        report = scan_region(table, 0, 3, 10, 20)
        assert not report.ok
        assert (11, 11, 256, 340) in report.violations
        assert report.violations == sorted(report.violations)

    def test_asymmetric_box(self, table):
        report = scan_region(table, 0, 3, 12, 100, a_max=20)
        assert report.a_range == (12, 20)
        assert report.b_range == (12, 100)
        assert report.ok

    def test_region_validation(self, table):
        with pytest.raises(ValueError):
            scan_region(table, 0, 3, 0, 50)
        with pytest.raises(ValueError):
            scan_region(table, 0, 3, 50, 10)

    @pytest.mark.parametrize("t", [2, 3, 5, 7])
    def test_equals_pairwise_oracle(self, table, t):
        # (a_min, b_max, a_max, b_min): whole triangles, a narrow and a
        # wide a range, a b range starting below and above a_min, and
        # rows that start past b_max.
        regions = [(1, 120, None, None), (11, 120, None, None),
                   (5, 60, 8, None), (3, 40, 90, None),
                   (10, 50, 30, 2), (2, 30, None, 25),
                   (20, 40, 60, 35), (40, 40, None, None)]
        for r in range(t):
            for a_min, b_max, a_max, b_min in regions:
                report = scan_region(table, r, t, a_min, b_max, a_max, b_min)
                assert (report.pairs_checked, report.violations) == \
                    pairwise_scan(r, t, a_min, b_max, a_max, b_min), \
                    (r, a_min, b_max, a_max, b_min)

    @pytest.mark.parametrize("t", [2, 3, 5, 7])
    def test_every_row_end_equals_pairwise_oracle(self, table, t):
        # Every b_max and every b_min up to 40, so that each violation
        # is, in some region, the last or the first pair of its row.
        for r in range(t):
            for edge in range(1, 41):
                for region in ((1, edge, None, None), (1, 40, 40, edge)):
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


class TestSharpnessFrontier:
    def test_r0_threshold_is_12(self, table):
        assert sharpness_frontier(table, 0, 3, 100) == 12

    def test_r1_r2_threshold_is_11(self, table):
        assert sharpness_frontier(table, 1, 3, 100) == 11
        assert sharpness_frontier(table, 2, 3, 100) == 11
