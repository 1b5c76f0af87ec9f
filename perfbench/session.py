"""cli-session: a user's session of `python -m dysonrank` invocations.

Each invocation is a fresh process, run one after another.  The mix:
small queries with an explicit --n-max of at most about twice their
need (at most 300); queries sharing one --table-cache file at
--n-max 600, the first of which builds and writes it; and two calls
with the default --n-max and no cache.  The seed draws every query's
parameters and the order of the whole session.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import re
import subprocess
import sys

from oracle import ANCHORS, BUDGET_CAP, THRESHOLDS, envelope_lower, pairs_in_scan
from ops import Op, expect

FULL = {"small": {"count": 16, "maxn": 16, "rank-table": 15, "bounds": 15,
                  "convexity": 15, "verify": 14},
        "cached": 17, "cache_n_max": 600, "need_max": 150, "defaults": True}
SMOKE = {"small": {"count": 2, "maxn": 2, "rank-table": 2, "bounds": 2,
                   "convexity": 2, "verify": 2},
         "cached": 3, "cache_n_max": 100, "need_max": 40, "defaults": False}
DEFAULT_N_MAX = 1024
CACHE_KINDS = ("count", "maxn", "rank-table", "convexity", "verify")
CALL_TIMEOUT_S = 150
_INT = re.compile(r"-?[0-9]+\Z")


def _query(kind: str, rng: random.Random, need_max: int, n_max: int | None):
    """argv for one query and the facts its check needs.  With n_max
    None the query picks its own, between its need and twice that."""
    def pick(need):
        return n_max if n_max is not None else rng.randint(max(need, 1), min(2 * max(need, 1), 300))

    if kind == "count":
        t = rng.choice((2, 3, 3, 5, 7))
        r, n = rng.randrange(t), rng.randint(1, need_max)
        q = {"r": r, "t": t, "n": n, "n_max": pick(n)}
        argv = ["count", "--r", r, "--t", t, "--n", n]
    elif kind == "maxn":
        r, n = rng.randrange(3), rng.randint(10, need_max)
        q = {"r": r, "n": n, "n_max": pick(n)}
        argv = ["maxn", "--r", r, "--n", n, "--show-partitions", "--format", "json"]
    elif kind == "rank-table":
        hi = rng.randint(5, need_max)
        lo = hi - rng.randint(0, 3)
        q = {"lo": lo, "hi": hi, "n_max": pick(hi)}
        argv = ["rank-table", "--from", lo, "--to", hi, "--format", "json"]
    elif kind == "bounds":
        n = rng.randint(1, 3000)
        q = {"n": n, "n_max": 1 if n_max is None else n_max}
        argv = ["bounds", "--n", n, "--format", "json"]
    elif kind == "convexity":
        r, top = rng.randrange(3), rng.randint(20, max(20, need_max * 2 // 3))
        q = {"r": r, "max": top, "n_max": pick(2 * top)}
        argv = ["convexity", "--r", r, "--max", top, "--format", "csv"]
    else:
        q = {"n_max": pick(32)}
        argv = ["verify", "tables"]
    return kind, [str(a) for a in argv] + ["--n-max", str(q["n_max"])], q


def _parse(kind: str, stdout: str) -> dict:
    if kind in ("maxn", "rank-table", "bounds"):
        def decode(v):
            if isinstance(v, str) and _INT.match(v):
                return int(v)
            if isinstance(v, list):
                return [decode(x) for x in v]
            if isinstance(v, dict):
                return {k: decode(x) for k, x in v.items()}
            return v
        return decode(json.loads(stdout))
    if kind == "convexity":
        return dict(list(csv.reader(stdout.splitlines()))[1:])
    return dict(line.split(" = ", 1) for line in stdout.splitlines())


def _check(kind: str, q: dict, out: dict, oracle) -> list[str]:
    problems: list[str] = []
    if kind == "count":
        want = oracle.residue(q["r"], q["t"], q["n"])
        expect(problems, int(out["result.count"]) == want,
               f"count {out['result.count']} != {want}")
        expect(problems, int(out["param.n_max"]) == q["n_max"], "param.n_max")
        if (q["r"], q["t"], q["n"]) == (0, 3, 13):
            expect(problems, want == ANCHORS["N(0,3;13)"], "N(0,3;13)")
    elif kind == "maxn":
        (row,) = out["results"]["rows"]
        best = oracle.max_products(q["r"], 3, q["n"])[q["n"]]
        expect(problems, row["value"] == best, f"maxN {row['value']} != {best}")
        for parts in row["optima"]:
            expect(problems, sum(parts) == q["n"]
                   and oracle.product(q["r"], 3, parts) == best,
                   f"optimum {parts} does not attain {best}")
        expect(problems, row.get("closed_form_agrees", True) is True
               and out["results"]["closed_form_disagreements"] == 0,
               "closed form disagrees")
    elif kind == "rank-table":
        res = out["results"]
        expect(problems, res["n_max"] == q["n_max"]
               and res["partitions_of_n_max"] == oracle.p(q["n_max"]), "table size")
        rows = {row["n"]: row["counts"] for row in res["rows"]}
        expect(problems, sorted(rows) == list(range(q["lo"], q["hi"] + 1)), "row range")
        for n, counts in rows.items():
            lo = 0 if n == 0 else 1 - n
            want = [[lo + i, c] for i, c in enumerate(oracle.row(n))]
            expect(problems, counts == want, f"row {n} differs from oracle")
    elif kind == "bounds":
        res, n = out["results"], q["n"]
        p = oracle.p(n)
        expect(problems, res["p"] == p, f"p({n}) = {res['p']}")
        expect(problems, res["lehmer_lower"] < p < res["lehmer_upper"]
               and res["sandwich_ok"] is True and res["estimate_ok"] is True,
               "Lehmer sandwich or estimate")
        if n >= 500:
            expect(problems, res["error_total"] <= BUDGET_CAP * envelope_lower(n)
                   and res["budget_ok"] is True and res["ratio_caps_ok"] is True,
                   "error budget or ratio caps")
    elif kind == "convexity":
        a_min = THRESHOLDS[q["r"]]
        expect(problems, int(out["result.pairs_checked"]) == pairs_in_scan(a_min, q["max"])
               and out["result.violations_found"] == "0", "convexity scan")
    else:
        for i, rows in enumerate((32, 21, 21)):
            expect(problems, all(out[f"result.rows[{i}].{k}"] == v for k, v in (
                ("r", str(i)), ("counts_checked", str(rows)), ("count_mismatches", "0"),
                ("max_checked", str(rows)), ("max_mismatches", "0"))),
                f"verify tables row r={i}")
    expect(problems, out["status"] == "ok", f"status {out['status']}")
    return problems


def _cli_op(kind: str, argv: list[str], q: dict, group: str, cache: str | None) -> Op:
    cmd = [sys.executable, "-m", "dysonrank"] + argv
    if cache:
        cmd += ["--table-cache", cache]

    def call(pkg, ctx):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def normalized(stdout):
        return stdout.replace(cache, "CACHE") if cache else stdout

    def verify(raw, oracle):
        code, stdout, stderr = raw
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        return _check(kind, q, _parse(kind, stdout), oracle)

    def summarize(raw):
        code, stdout, _ = raw
        if kind == "bounds" and code == 0:
            return {"exit": code, "results": _parse(kind, stdout)["results"]}
        return {"exit": code,
                "sha256": hashlib.sha256(normalized(stdout).encode()).hexdigest()}

    key = " ".join(argv + (["--table-cache", "CACHE"] if cache else []))
    return Op(key, call, verify, summarize=summarize, span=f"cli.{argv[0]}",
              attrs={"group": group})


def build_ops(seed: int, smoke: bool, workdir: str | None = None) -> list[Op]:
    """workdir holds the session's table cache file."""
    p = SMOKE if smoke else FULL
    rng = random.Random(seed)
    ops = []
    for kind, count in p["small"].items():
        for _ in range(count):
            ops.append(_cli_op(*_query(kind, rng, p["need_max"], None), "small", None))
    cache = os.path.join(workdir, "table.bin")
    for i in range(p["cached"]):
        kind = CACHE_KINDS[i % len(CACHE_KINDS)]
        ops.append(_cli_op(*_query(kind, rng, p["cache_n_max"] // 2, p["cache_n_max"]),
                           "cache", cache))
    if p["defaults"]:
        for argv, q in ((["count", "--r", "0", "--t", "3", "--n", "13"],
                         {"r": 0, "t": 3, "n": 13, "n_max": DEFAULT_N_MAX}),
                        (["verify", "tables"], {"n_max": DEFAULT_N_MAX})):
            ops.append(_cli_op(argv[0], argv, q, "default", None))
    rng.shuffle(ops)
    return ops
