"""Acceptance gate.

Each test here checks one numbered claim end to end and records a
single PASS/FAIL line with its runtime (printed in the terminal
summary).  The paper's claims are the functions of dysonrank.claims,
the same ones `dysonrank verify` runs; the tests add the literal
anchors.  Criterion 3 reads the rows of the shared 2000-row table, and
its runtime leaves out that table's build; the criteria that read only
counts take a table without rows, so their runtimes include every
column they compute.
"""

from __future__ import annotations

from dysonrank import (
    RATIO_CAP_2_DERIVED,
    RATIO_CAPS,
    RankTable,
    build_rank_table,
    check_pair,
    lemma_threshold,
    max_table,
    partition_number,
    partition_numbers,
    ratio_bound,
    residue_count,
)
from dysonrank import claims
from oracles import brute_max, brute_rank_counts


def test_criterion_01_small_table_reproduction(criterion):
    table = build_rank_table(64)
    claim = claims.tables()
    checked = [row["counts_checked"] for row in claim.results["rows"]]
    ok = claim.failures == 0 and checked == [32, 21, 21]
    ok = ok and residue_count(table, 0, 3, 13) == 37
    ok = ok and residue_count(table, 0, 3, 22) == 340
    ok = ok and residue_count(table, 1, 3, 20) == 211
    criterion(1, "small residue-count columns reproduced exactly", ok,
              "n=14 column entry checked against the value forced by "
              "p(14)=135", limit=10.0)


def test_criterion_02_oracle_equivalence(criterion):
    table = build_rank_table(40)
    ok = True
    for n in range(41):
        counts = brute_rank_counts(n)
        row = table.row(n)
        lo = 0 if n == 0 else 1 - n
        for i, c in enumerate(row):
            ok = ok and c == counts.get(lo + i, 0)
        ok = ok and sum(counts.values()) == sum(row)
    criterion(2, "rank table equals brute-force enumeration, n <= 40",
              ok, limit=120.0)


def test_criterion_03_global_identities(big_table, criterion):
    p = partition_numbers(1000)
    ok = True
    for n in range(1001):
        row = big_table.row(n)
        ok = ok and sum(row) == p[n]
        ok = ok and row == row[::-1]
    for t, residue in ((5, 4), (7, 5)):
        for n in range(residue, 1001, t):
            total = partition_number(n)
            ok = ok and total % t == 0
            share = total // t
            ok = ok and all(
                residue_count(big_table, r, t, n) == share
                for r in range(t))
    criterion(3, "row sums, rank symmetry, and mod-5/mod-7 "
                 "equidistribution, n <= 1000", ok)


def test_criterion_04_product_inequality_scan(criterion):
    table = RankTable(2000)
    claim = claims.convexity()
    rows = claim.results["rows"]
    ok = claim.failures == 0
    ok = ok and [(row["r"], row["min"]) for row in rows] == [
        (0, 12), (1, 11), (2, 11)]
    for row in rows:
        a = row["min"]
        ok = ok and row["pairs_checked"] == (501 - a) * (502 - a) // 2
        # sharp: the inequality fails just below the scanned region
        ok = ok and not check_pair(table, row["r"], 3, a - 1, a - 1)[0]
    ok = ok and check_pair(table, 0, 3, 11, 11) == (False, 256, 340)
    ok = ok and check_pair(table, 1, 3, 10, 10) == (False, 169, 211)
    criterion(4, "no product-inequality violations above thresholds "
                 "12/11/11 up to 500; boundary counterexamples exact",
              ok, limit=300.0)


def test_criterion_05_lehmer_sandwich(criterion):
    results = claims.bounds().results
    ok = results["sandwich_range"] == [2, 1000]
    ok = ok and results["estimate_range"] == [1, 500]
    ok = ok and results["sandwich_failures"] == []
    ok = ok and results["estimate_failures"] == []
    criterion(5, "strict p(n) envelope for 2 <= n <= 1000 and estimate "
                 "within its cap for n <= 500", ok)


def test_criterion_06_error_budget(criterion):
    claim = claims.budget(hi=2000)
    rows = claim.results["rows"]
    ok = claim.failures == 0 and len(rows) == 31
    a_third = {row["n"]: row["a_third"] for row in rows}
    anchors = {500: -5619495, 1000: 13408694687, 2000: -565177684758967}
    ok = ok and all(a_third[n] == want for n, want in anchors.items())
    criterion(6, "|A(1/3;n) - M(n)| <= sum of error bounds <= 0.58 L(n) "
                 "on {500..2000 step 50}", ok)


def test_criterion_07_ratio_caps(criterion):
    # The tabulated caps, as verify budget's ratio_caps_ok reads them.
    ok = claims.ratio_caps_hold([ratio_bound(i, 500) for i in range(1, 7)])
    f2 = ratio_bound(2, 500)
    ok = ok and f2 <= RATIO_CAP_2_DERIVED
    within_tabulated = f2 <= RATIO_CAPS[1]
    grid = list(range(500, 5001, 50))
    for i in range(1, 7):
        values = [ratio_bound(i, n) for n in grid]
        ok = ok and all(a >= b for a, b in zip(values, values[1:]))
    criterion(7, "ratio caps at n=500 and nonincreasing behavior on "
                 "{500..5000 step 50}", ok,
              f"F2(500)={f2:.3e}; tabulated cap {RATIO_CAPS[1]:.1e} vs "
              f"stated cap {RATIO_CAP_2_DERIVED:.1e} discrepancy flagged, "
              f"value satisfies "
              f"{'both' if within_tabulated else 'only the stated cap'}")


def test_criterion_08_threshold_inequality(criterion):
    results = claims.bounds().results
    ok = results["threshold_points"] == 104
    ok = ok and results["threshold_failures"] == []
    criterion(8, "gap inequality holds for x in [500, 600] and "
                 "{1000, 2000, 5000}", ok)
    assert not lemma_threshold(10, 3)


def test_criterion_09_closed_form_equivalence(criterion):
    table = RankTable(2000)
    theorem = claims.theorem2()
    ok = theorem.failures == 0
    ok = ok and claims.tables().failures == 0
    checked = [row["closed_checked"] for row in theorem.results["rows"]]
    ok = ok and checked == [468, 479, 479]
    e16 = max_table(table, 0, 3, 16)[16]
    ok = ok and e16.optima == ((4, 4, 4, 4), (16,))
    e4 = max_table(table, 1, 3, 4)[4]
    ok = ok and e4.optima == ((2, 2), (4,))
    criterion(9, "closed forms equal the dynamic program with unique "
                 "optima up to 500; small tables with multi-optima rows "
                 "reproduced", ok, limit=60.0)


def test_criterion_10_dp_equals_brute_force(criterion):
    table = RankTable(2000)
    ok = True
    combos = [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    for r, t in combos:
        dp = max_table(table, r, t, 35, optima_cap=None)
        for n in range(36):
            ok = ok and dp[n] == brute_max(table, r, t, n, optima_cap=None)
    criterion(10, "dynamic program equals exhaustive search (values and "
                  "complete optima) for n <= 35 over all valid (r, t)",
              ok, "the (r=2, t=2) combination is excluded because "
              "residues require r < t", limit=300.0)


def test_criterion_11_conjecture_suites(criterion):
    table = RankTable(2000)
    ok = claims.conjectures().status == "ok"
    example = max_table(table, 1, 2, 8, optima_cap=None)[8]
    ok = ok and example.value == 16
    ok = ok and example.optima == ((2, 2, 2, 2), (4, 2, 2), (4, 4), (6, 2))
    criterion(11, "modulus-2 conjecture scans and closed forms agree "
                  "(thresholds 11/12 to 300, forms to 200, the n=8 "
                  "four-optima example); suite status ok", ok)
