"""claims-1000: re-check every paper claim that fits a table to n = 1000.

One fresh process uses the library API.  The rank table is built
first; every later operation reads it, in an order drawn from the seed.
There is one operation per n <= 1000: the residue envelope and the
residue counts modulo a t drawn from the seed.  The seed also draws the
spot points for closed forms and the root-of-unity decomposition; the
latter are spread over n <= 1000 in equal ranges.
"""

from __future__ import annotations

import math
import random

from oracle import (ANCHORS, BUDGET_CAP, CLOSED_FORM_START, MOD2_START,
                    THRESHOLDS, envelope_lower, main_term, pairs_in_scan)
from ops import Op, close, digest, expect

FULL = {"table": 1000, "scan": 500, "frontier": 250, "forms": 500,
        "maxtab": 100, "t2scan": 300, "mod2": 200, "grid": (500, 1000, 50),
        "spots": 48}
SMOKE = {"table": 120, "scan": 60, "frontier": 30, "forms": 60,
         "maxtab": 40, "t2scan": 60, "mod2": 30, "grid": (60, 120, 20),
         "spots": 6}

# Rows of the small reference tables: n = 1..32 for r = 0, 1..21 otherwise.
SMALL_TABLE_ROWS = {0: 32, 1: 21, 2: 21}
# The residue envelope is a large-n sandwich; it is too tight at these n.
ENVELOPE_MISSES = {1, 2, 4, 5}
MODULI = (2, 3, 5, 7)


def _table(ctx):
    return ctx["table"]


def _build_op(n: int, spot_rows: list[int]) -> Op:
    def call(pkg, ctx):
        ctx["table"] = pkg.build_rank_table(n)
        return ctx["table"]

    def verify(table, oracle):
        problems: list[str] = []
        expect(problems, table.n_max == n, f"n_max {table.n_max} != {n}")
        for k in range(n + 1):
            row = table.row(k)
            if len(row) != max(2 * k - 1, 1) or row != row[::-1]:
                problems.append(f"row {k} has wrong width or is not symmetric")
            elif sum(row) != oracle.p(k):
                problems.append(f"row {k} sums to {sum(row)}, not p({k})")
        for k in spot_rows:
            expect(problems, table.row(k) == oracle.row(k),
                   f"row {k} differs from the Atkin-Swinnerton-Dyer formula")
        return problems

    return Op(f"build_rank_table n={n}", call, verify,
              summarize=lambda t: {"n_max": t.n_max,
                                   "sha256": digest([t.row(k) for k in range(t.n_max + 1)])},
              count=lambda t: {"core.build_rank_table.rows": t.n_max + 1})


def _scan_op(r: int, t: int, a_min: int, b_max: int) -> Op:
    def verify(rep, oracle):
        problems: list[str] = []
        expect(problems, rep.pairs_checked == pairs_in_scan(a_min, b_max),
               f"pairs_checked {rep.pairs_checked} != {pairs_in_scan(a_min, b_max)}")
        expect(problems, rep.violations == [], f"violations {rep.violations[:3]}")
        return problems

    return Op(f"scan_region r={r} t={t} {a_min}..{b_max}",
              lambda pkg, ctx: pkg.scan_region(_table(ctx), r, t, a_min, b_max),
              verify,
              summarize=lambda rep: {"pairs_checked": rep.pairs_checked,
                                     "violations": [list(v) for v in rep.violations]},
              count=lambda rep: {"convexity.pairs_checked": rep.pairs_checked})


def _boundary_op(r: int) -> Op:
    a, b, lhs, rhs = ANCHORS[f"boundary r={r}"]

    def verify(out, oracle):
        problems: list[str] = []
        expect(problems, tuple(out) == (False, lhs, rhs),
               f"check_pair({a},{b}) = {out}, paper says {lhs} < {rhs}")
        expect(problems, out[1] == oracle.residue(r, 3, a) * oracle.residue(r, 3, b)
               and out[2] == oracle.residue(r, 3, a + b), "differs from oracle")
        return problems

    return Op(f"check_pair r={r} t=3 a={a} b={b}",
              lambda pkg, ctx: pkg.check_pair(_table(ctx), r, 3, a, b), verify,
              summarize=list)


def _frontier_op(r: int, search_max: int) -> Op:
    return Op(f"sharpness_frontier r={r} t=3 max={search_max}",
              lambda pkg, ctx: pkg.sharpness_frontier(_table(ctx), r, 3, search_max),
              lambda s, oracle: [] if s == THRESHOLDS[r] else
              [f"frontier {s}, paper threshold {THRESHOLDS[r]}"])


def _report_op(name: str, call, expected_checked: int | None) -> Op:
    def verify(rep, oracle):
        problems: list[str] = []
        expect(problems, not rep.mismatches, f"mismatches {rep.mismatches[:2]}")
        if expected_checked is None:
            expect(problems, rep.checked > 0, "nothing checked")
        else:
            expect(problems, rep.checked == expected_checked,
                   f"checked {rep.checked} != {expected_checked}")
        return problems

    return Op(name, call, verify,
              summarize=lambda rep: {"checked": rep.checked,
                                     "mismatches": len(rep.mismatches)},
              count=lambda rep: {"maxprod.values_checked": rep.checked})


def _max_table_op(r: int, n_max: int) -> Op:
    def verify(entries, oracle):
        problems: list[str] = []
        best = oracle.max_products(r, 3, n_max)
        expect(problems, len(entries) == n_max + 1, "wrong number of entries")
        for e in entries:
            if e.value != best[e.n] or e.truncated or not e.optima:
                problems.append(f"n={e.n}: value {e.value}, oracle {best[e.n]}")
                continue
            for parts in e.optima:
                if (sum(parts) != e.n or list(parts) != sorted(parts, reverse=True)
                        or oracle.product(r, 3, parts) != e.value):
                    problems.append(f"n={e.n}: optimum {parts} does not attain {e.value}")
        if r == 0 and n_max >= 28:
            e = entries[28]
            expect(problems, (e.value, e.optima) == ANCHORS["maxN(0,3;28)"],
                   f"maxN(0,3;28) = {e.value} {e.optima}")
        return problems

    return Op(f"max_table r={r} t=3 n_max={n_max}",
              lambda pkg, ctx: pkg.max_table(_table(ctx), r, 3, n_max), verify,
              summarize=lambda es: {"values": [e.value for e in es],
                                    "optima": digest([e.optima for e in es])},
              count=lambda es: {"maxprod.optima_returned":
                                sum(len(e.optima) for e in es)})


def _closed_form_op(r: int, n: int) -> Op:
    def verify(out, oracle):
        value, parts = out
        problems: list[str] = []
        expect(problems, value == oracle.max_products(r, 3, n)[n]
               and sum(parts) == n and oracle.product(r, 3, parts) == value,
               f"closed_form({r},{n}) = {out} is not the maximum")
        if (r, n) == (1, 30):
            expect(problems, out == ANCHORS["closed_form(1,30)"], f"closed_form(1,30) = {out}")
        return problems

    return Op(f"closed_form r={r} n={n}", lambda pkg, ctx: pkg.closed_form(r, n),
              verify, summarize=lambda out: [out[0], list(out[1])])


def _grid_op(n: int) -> Op:
    def call(pkg, ctx):
        return (pkg.a_third_exact(_table(ctx), n), pkg.error_budget(n),
                pkg.main_term(n))

    def verify(out, oracle):
        a, budget, main = out
        problems: list[str] = []
        expect(problems, a == oracle.a_third(n), f"A({n}) = {a}, oracle {oracle.a_third(n)}")
        if f"A({n})" in ANCHORS:
            expect(problems, a == ANCHORS[f"A({n})"], f"A({n}) = {a}, paper {ANCHORS[f'A({n})']}")
        expect(problems, close(main, main_term(n)), f"main term {main}")
        expect(problems, close(budget.total, math.fsum(budget.terms))
               and all(x > 0 for x in budget.terms), f"budget terms {budget.terms}")
        if n >= 500:
            limit = BUDGET_CAP * envelope_lower(n)
            expect(problems, abs(a - main) <= budget.total <= limit,
                   f"n={n}: gap {abs(a - main)}, total {budget.total}, cap {limit}")
        return problems

    return Op(f"a_third+error_budget n={n}", call, verify,
              summarize=lambda out: {"a": out[0], "terms": list(out[1].terms),
                                     "total": out[1].total, "main": out[2]},
              count=lambda out: {"bounds.n_certified": int(n >= 500)})


def _point_op(n: int, t: int) -> Op:
    """The residue envelope at n, and every residue count modulo t."""
    holds = n not in ENVELOPE_MISSES

    def call(pkg, ctx):
        return (pkg.residue_envelope_check(_table(ctx), n),
                [pkg.residue_count(_table(ctx), r, t, n) for r in range(t)])

    def verify(out, oracle):
        ok, counts = out
        problems = [] if ok is holds else [f"envelope check at {n} says {ok}"]
        expect(problems, counts == [oracle.residue(r, t, n) for r in range(t)],
               f"N(r,{t};{n}) = {counts} differs from oracle")
        return problems

    return Op(f"residue_envelope_check+residue_count n={n} t={t}", call, verify,
              golden=False)


def _decomposition_op(r: int, t: int, n: int) -> Op:
    return Op(f"decomposition_check r={r} t={t} n={n}",
              lambda pkg, ctx: pkg.decomposition_check(_table(ctx), r, t, n),
              lambda ok, oracle: [] if ok is True else ["decomposition check fails"],
              golden=False)


def _columns_op(n_max: int, spot_rows: list[int]) -> Op:
    def verify(columns, oracle):
        problems: list[str] = []
        for n in range(n_max + 1):
            if sum(col[n] for col in columns) != oracle.p(n):
                problems.append(f"N(r,3;{n}) do not sum to p({n})")
        for n in spot_rows:
            expect(problems, [col[n] for col in columns]
                   == [oracle.residue(r, 3, n) for r in range(3)],
                   f"N(r,3;{n}) differs from oracle")
        return problems

    return Op(f"residue_count columns t=3 n<={n_max}",
              lambda pkg, ctx: [[pkg.residue_count(_table(ctx), r, 3, n)
                                 for n in range(n_max + 1)] for r in range(3)],
              verify, summarize=digest)


def _residue_op(t: int, n: int) -> Op:
    def verify(counts, oracle):
        problems: list[str] = []
        expect(problems, counts == [oracle.residue(r, t, n) for r in range(t)],
               f"N(r,{t};{n}) = {counts} differs from oracle")
        expect(problems, sum(counts) == oracle.p(n), "residues do not sum to p(n)")
        if (t, n) == (3, 13):
            expect(problems, counts[0] == ANCHORS["N(0,3;13)"], f"N(0,3;13) = {counts[0]}")
        return problems

    return Op(f"residue_count t={t} n={n}",
              lambda pkg, ctx: [pkg.residue_count(_table(ctx), r, t, n) for r in range(t)],
              verify)


def build_ops(seed: int, smoke: bool, workdir=None) -> list[Op]:
    p = SMOKE if smoke else FULL
    rng = random.Random(seed)
    n_tab = p["table"]
    spots = p["spots"]
    ops: list[Op] = []
    for r in (0, 1, 2):
        ops += [_scan_op(r, 3, THRESHOLDS[r], p["scan"]), _boundary_op(r),
                _frontier_op(r, p["frontier"]),
                _report_op(f"verify_closed_forms r={r} max={p['forms']}",
                           lambda pkg, ctx, r=r: pkg.verify_closed_forms(_table(ctx), r, p["forms"]),
                           p["forms"] - CLOSED_FORM_START[r] + 1),
                _report_op(f"verify_replacement_rules r={r}",
                           lambda pkg, ctx, r=r: pkg.verify_replacement_rules(_table(ctx), r),
                           None),
                _report_op(f"verify_small_tables r={r}",
                           lambda pkg, ctx, r=r: pkg.verify_small_tables(_table(ctx), r),
                           SMALL_TABLE_ROWS[r]),
                _max_table_op(r, p["maxtab"])]
    for r, a_min in ((0, 11), (1, 12)):
        ops.append(_scan_op(r, 2, a_min, p["t2scan"]))
        ops.append(_report_op(
            f"conjecture_max_mod2 r={r} max={p['mod2']}",
            lambda pkg, ctx, r=r: pkg.conjecture_max_mod2(_table(ctx), r, p["mod2"]),
            p["mod2"] - MOD2_START[r] + 1))
    lo, hi, step = p["grid"]
    ops += [_grid_op(n) for n in range(lo, hi + 1, step)]
    ops += [_point_op(n, rng.choice(MODULI)) for n in range(1, n_tab + 1)]
    # One spot in each of `spots` equal ranges of n, the moduli in turn,
    # so that the spots cost about the same whatever the seed.
    for i in range(spots):
        t = MODULI[i % len(MODULI)]
        n = rng.randint(1 + i * n_tab // spots, (i + 1) * n_tab // spots)
        ops.append(_decomposition_op(rng.randrange(t), t, n))
    ops.append(_residue_op(3, 13))
    closed = {(1, 30)}
    while len(closed) < spots // 2 + 1:
        r = rng.randrange(3)
        closed.add((r, rng.randint(CLOSED_FORM_START[r], p["maxtab"])))
    ops += [_closed_form_op(r, n) for r, n in sorted(closed)]
    spot_rows = sorted({13, n_tab} | {rng.randint(1, n_tab) for _ in range(spots // 4)})
    ops.append(_columns_op(n_tab, spot_rows))
    rng.shuffle(ops)
    return [_build_op(n_tab, spot_rows)] + ops
