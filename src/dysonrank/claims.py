"""The paper's checkable claims, each defined once.

`dysonrank verify SUITE` and the acceptance tests run the same function
here, one per suite.  It takes its ranges, defaulting to the CLI's, and
an `n_max`, the CLI's --n-max, and returns a ClaimRecord.  Each claim
asks `core.table_for` for a table without rows sized to what it reads,
so the --n-max and MAX_TABLE_ROWS refusals, and the flags they name,
are the CLI's; no claim reads or writes the table cache.  The per-n
inequalities that the `bounds` command shares live here too.  Each
suite and each inequality imports the `bounds`, `convexity`, `maxprod`
and `reference` modules it runs, so `dysonrank bounds` loads none of
the last three and `verify tables` or `convexity` no `bounds`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

from .core import (MAX_TABLE_ROWS, RankTable, _validate_rt, a_third_exact,
                   partition_numbers, residue_count, table_for)

if TYPE_CHECKING:
    from fractions import Fraction

    from .bounds import BoundPair, ErrorBudget

__all__ = ["BUDGET_ALLOWANCE", "LEMMA_POINTS", "SCAN_THRESHOLDS",
           "ClaimRecord", "bounds", "budget", "budget_holds", "conjectures",
           "convexity", "estimate_holds", "ratio_caps_hold", "sandwich_holds",
           "tables", "theorem2"]

# Smallest a from which N(r,t;a) N(r,t;b) > N(r,t;a+b) for all b >= a,
# keyed by (t, r); t = 3 is proven, t = 2 conjectured.  Other (t, r)
# scan from 1.
SCAN_THRESHOLDS = {(3, 0): 12, (3, 1): 11, (3, 2): 11, (2, 0): 11, (2, 1): 12}
# The gap lemma is claimed for all x >= 500; these are the points checked.
LEMMA_POINTS = tuple(range(500, 601)) + (1000, 2000, 5000)
# Relative allowance taken off each side of the budget inequality.  The
# sum of the six float bounds carries a relative rounding error of at
# most about (number of float operations) * 2^-53; the sixth bound's
# double sum has about n/2 terms, so that stays below 1e-10 for
# n <= 10^6, ten times under this allowance.
BUDGET_ALLOWANCE = 1e-9


class ClaimRecord(NamedTuple):
    """What one claim checked and how many of its checks failed."""
    params: dict[str, Any]
    results: dict[str, Any]
    failures: int
    # A conjecture's mismatches are reported but never fail a run.
    conjecture: bool = False

    @property
    def status(self) -> str:
        if not self.failures:
            return "ok"
        return "conjecture-mismatch" if self.conjecture else "violation-found"


def sandwich_holds(pair: BoundPair, p: int) -> bool:
    """Lehmer's strict envelope around p(n)."""
    return pair.lower < p < pair.upper


def estimate_holds(estimate: tuple[float, float], p: int) -> bool:
    """The Lehmer estimate (value, cap) lies within its cap of p(n)."""
    value, cap = estimate
    return abs(value - p) <= cap


def budget_holds(budget: ErrorBudget, gap: Fraction | None = None) -> bool:
    """total (1 + BUDGET_ALLOWANCE) <= 0.58 L(n) and, given the exact
    gap |A(n) - M(n)|, gap <= total (1 - BUDGET_ALLOWANCE): the float
    total is held to each side with room for its own rounding."""
    from .bounds import BUDGET_CAP
    if budget.total * (1.0 + BUDGET_ALLOWANCE) > BUDGET_CAP * budget.lower:
        return False
    return gap is None or gap <= budget.total * (1.0 - BUDGET_ALLOWANCE)


def ratio_caps_hold(ratios: list[float]) -> bool:
    """The six ratio functions at one n under their tabulated caps."""
    from .bounds import RATIO_CAPS
    return all(f <= c for f, c in zip(ratios, RATIO_CAPS))


def _scan(table: RankTable, r: int, t: int, a_min: int,
          b_max: int) -> dict[str, Any]:
    """One product-inequality scan as a report row."""
    from .convexity import scan_region
    report = scan_region(table, r, t, a_min, b_max)
    return {"r": r, "min": a_min, "max": b_max,
            "pairs_checked": report.pairs_checked,
            "violations_found": len(report.violations),
            "violations": [list(v) for v in report.violations[:20]]}


def tables(n_max: int | None = None) -> ClaimRecord:
    """The golden small-n count columns and max-product tables, t = 3."""
    from .maxprod import verify_small_tables
    from .reference import counts_column
    table = table_for(32, n_max)
    rows = []
    for r in (0, 1, 2):
        column = counts_column(r)
        count_bad = sum(1 for n, v in column.items()
                        if residue_count(table, r, 3, n) != v)
        report = verify_small_tables(table, r)
        rows.append({"r": r, "counts_checked": len(column),
                     "count_mismatches": count_bad,
                     "max_checked": report.checked,
                     "max_mismatches": len(report.mismatches)})
    bad = sum(row["count_mismatches"] + row["max_mismatches"] for row in rows)
    return ClaimRecord({"n_max": n_max}, {"rows": rows}, bad)


def convexity(t: int = 3, r: int | None = None, a_min: int | None = None,
              b_max: int = 500, n_max: int | None = None) -> ClaimRecord:
    """The product inequality on a_min <= a <= b <= b_max for residue r
    (all residues of t when None, for t up to MAX_TABLE_ROWS), from
    SCAN_THRESHOLDS when a_min is None."""
    _validate_rt(0 if r is None else r, t)  # 0 is a residue of any t >= 1
    if r is None and t > MAX_TABLE_ROWS:
        # Each residue is one more column and one more scan.
        raise ValueError(f"without --r the scan covers all {t} residues of "
                         f"--t; pass --r or --t <= {MAX_TABLE_ROWS}")
    table = table_for(2 * b_max, n_max)
    rows = []
    for target in range(t) if r is None else (r,):
        lo = SCAN_THRESHOLDS.get((t, target), 1) if a_min is None else a_min
        rows.append(_scan(table, target, t, lo, b_max))
    bad = sum(row["violations_found"] for row in rows)
    params: dict[str, Any] = {"t": t, "max": b_max, "n_max": n_max}
    if r is not None:
        params["r"] = r
    if a_min is not None:
        params["min"] = a_min
    return ClaimRecord(params, {"rows": rows}, bad)


def theorem2(hi: int = 500, n_max: int | None = None) -> ClaimRecord:
    """Theorem 2: the closed forms are the unique optima up to hi, and
    the replacement rules they rest on raise the product."""
    from .maxprod import (replacement_rules, verify_closed_forms,
                          verify_replacement_rules)
    # The replacement rules read their parts whatever hi is.
    rule_top = max(part for r in (0, 1, 2) for rule in replacement_rules(r)
                   for parts in rule for part in parts)
    table = table_for(max(hi, rule_top), n_max)
    rows = []
    for r in (0, 1, 2):
        closed = verify_closed_forms(table, r, hi)
        rules = verify_replacement_rules(table, r)
        rows.append({"r": r, "closed_checked": closed.checked,
                     "closed_mismatches": len(closed.mismatches),
                     "rules_checked": rules.checked,
                     "rule_failures": len(rules.mismatches)})
    bad = sum(row["closed_mismatches"] + row["rule_failures"] for row in rows)
    return ClaimRecord({"max": hi, "n_max": n_max}, {"rows": rows}, bad)


def bounds(hi: int = 1000) -> ClaimRecord:
    """The Lehmer sandwich for 2 <= n <= hi, the estimate's cap for
    n <= min(hi, 500) and the gap lemma at LEMMA_POINTS.  These read
    p(n) only."""
    from .bounds import lehmer_bounds, lehmer_estimate, lemma_threshold
    if hi < 2:
        raise ValueError("--max must be >= 2")
    exact = partition_numbers(hi)
    sandwich_bad = [n for n in range(2, hi + 1)
                    if not sandwich_holds(lehmer_bounds(n), exact[n])]
    estimate_hi = min(hi, 500)
    estimate_bad = [n for n in range(1, estimate_hi + 1)
                    if not estimate_holds(lehmer_estimate(n), exact[n])]
    threshold_bad = [x for x in LEMMA_POINTS if not lemma_threshold(x)]
    results = {
        "sandwich_range": [2, hi],
        "sandwich_failures": sandwich_bad[:20],
        "estimate_range": [1, estimate_hi],
        "estimate_failures": estimate_bad[:20],
        "threshold_points": len(LEMMA_POINTS),
        "threshold_failures": threshold_bad[:20],
    }
    bad = len(sandwich_bad) + len(estimate_bad) + len(threshold_bad)
    return ClaimRecord({"max": hi}, results, bad)


def budget(lo: int = 500, hi: int = 1000, step: int = 50,
           n_max: int | None = None) -> ClaimRecord:
    """|A(n) - M(n)| <= sum of the six error bounds <= 0.58 L(n) for n in
    range(lo, hi + 1, step), with the exact A(n) and the decimal M(n)."""
    from .bounds import BUDGET_CAP, error_budget, exact_gap, main_term_decimal
    if lo < 500 or hi < lo or step < 1:
        raise ValueError("need 500 <= --from <= --to and --step >= 1; "
                         "the budget is claimed for n >= 500")
    table = table_for(hi, n_max)
    rows = []
    for n in range(lo, hi + 1, step):
        a = a_third_exact(table, n)
        gap = exact_gap(a, main_term_decimal(n))
        errors = error_budget(n)
        rows.append({"n": n, "a_third": a, "gap": float(gap),
                     "error_total": errors.total,
                     "limit": BUDGET_CAP * errors.lower,
                     "ok": budget_holds(errors, gap)})
    bad = sum(1 for row in rows if not row["ok"])
    return ClaimRecord({"from": lo, "to": hi, "step": step, "n_max": n_max},
                       {"rows": rows, "failures": bad}, bad)


def conjectures(scan_max: int = 300, forms_hi: int = 200,
                n_max: int | None = None) -> ClaimRecord:
    """The t = 2 analogues: product scans to scan_max from
    SCAN_THRESHOLDS, and closed forms with their optima to forms_hi."""
    from .maxprod import conjecture_max_mod2
    table = table_for(max(2 * scan_max, forms_hi), n_max)
    rows = [{"kind": "product-scan", "r": r, "t": 2,
             **_scan(table, r, 2, SCAN_THRESHOLDS[(2, r)], scan_max)}
            for r in (0, 1)]
    mismatched = sum(row["violations_found"] for row in rows)
    for r in (0, 1):
        report = conjecture_max_mod2(table, r, forms_hi)
        rows.append({"kind": "closed-form", "r": r, "t": 2,
                     "max": forms_hi, "checked": report.checked,
                     "mismatches": len(report.mismatches)})
        mismatched += len(report.mismatches)
    return ClaimRecord({"max": scan_max, "forms_max": forms_hi,
                        "n_max": n_max}, {"rows": rows}, mismatched,
                       conjecture=True)
