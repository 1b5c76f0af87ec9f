"""analytic-dense: the analytic bounds at every n, with no rank table.

Exact p(n) to 10000; then one operation per n that checks the strict
Lehmer sandwich (n >= 2), the Lehmer estimate within its cap
(n <= 500) and, from n = 500 on, the error budget under 0.58 L(n), all
six ratio caps and the gap lemma.  The seed draws the order of the
per-n operations.
"""

from __future__ import annotations

import math
import random

from oracle import BUDGET_CAP, RATIO_CAPS, envelope_lower
from ops import Op, close, expect

FULL = {"n_max": 10000, "estimate_max": 500, "budget_min": 500}
SMOKE = {"n_max": 1000, "estimate_max": 100, "budget_min": 500}

# Per-n results are recorded for the golden file at this stride only.
GOLDEN_STRIDE = 100


def _partition_numbers_op(n_max: int) -> Op:
    return Op(f"partition_numbers n_max={n_max}",
              lambda pkg, ctx: pkg.partition_numbers(n_max),
              lambda ps, oracle: [] if ps == oracle.partition_numbers(n_max)
              else ["p(n) differs from the pentagonal recurrence"],
              summarize=lambda ps: {"len": len(ps), "last": ps[-1]})


def _point_op(n: int, p: dict) -> Op:
    sandwich = n >= 2
    estimate = n <= p["estimate_max"]
    budget = n >= p["budget_min"]

    def call(pkg, ctx):
        out = {}
        if sandwich:
            out["lehmer"] = pkg.lehmer_bounds(n)
        if estimate:
            out["estimate"] = pkg.lehmer_estimate(n)
        if budget:
            out["budget"] = pkg.error_budget(n)
            out["ratios"] = [pkg.ratio_bound(i, n) for i in range(1, 7)]
            out["lemma"] = pkg.lemma_threshold(n)
        return out

    def verify(out, oracle):
        problems: list[str] = []
        pn = oracle.p(n)
        if sandwich:
            b = out["lehmer"]
            expect(problems, b.lower < pn < b.upper, f"p({n}) outside Lehmer sandwich")
        if estimate:
            value, cap = out["estimate"]
            expect(problems, abs(value - pn) <= cap, f"Lehmer estimate off by more than cap at {n}")
        if budget:
            eb = out["budget"]
            lower = envelope_lower(n)
            expect(problems, close(eb.lower, lower), f"L({n}) = {eb.lower}, expected {lower}")
            expect(problems, close(eb.total, math.fsum(eb.terms))
                   and all(x > 0 for x in eb.terms), f"budget terms at {n}")
            expect(problems, eb.total <= BUDGET_CAP * lower,
                   f"budget {eb.total} > {BUDGET_CAP} L({n})")
            expect(problems, all(f <= c for f, c in zip(out["ratios"], RATIO_CAPS)),
                   f"ratio above cap at {n}: {out['ratios']}")
            expect(problems, out["lemma"] is True, f"gap lemma fails at {n}")
        return problems

    def summarize(out):
        s = {}
        if sandwich:
            s["lehmer"] = [out["lehmer"].lower, out["lehmer"].upper]
        if estimate:
            s["estimate"] = list(out["estimate"])
        if budget:
            s.update(terms=list(out["budget"].terms), total=out["budget"].total,
                     ratios=out["ratios"], lemma=out["lemma"])
        return s

    calls = ["lehmer_bounds"] * sandwich + ["lehmer_estimate"] * estimate \
        + ["error_budget+ratio_bound+lemma_threshold"] * budget
    return Op(f"{'+'.join(calls)} n={n}", call, verify, summarize=summarize,
              count=lambda out: {"bounds.n_certified": int(budget)},
              golden=n % GOLDEN_STRIDE == 0 or n < 10)


def build_ops(seed: int, smoke: bool, workdir=None) -> list[Op]:
    p = SMOKE if smoke else FULL
    points = [_point_op(n, p) for n in range(1, p["n_max"] + 1)]
    random.Random(seed).shuffle(points)
    return [_partition_numbers_op(p["n_max"])] + points
