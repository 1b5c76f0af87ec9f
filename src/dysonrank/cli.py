"""Command-line front end for the rank-count toolkit.

Every subcommand assembles an OutputRecord (command, parameters,
results, status) and renders it as text, CSV, or JSON.  Structured
output is deterministic: stable key order, big integers as decimal
strings.

Residue counts come from residue columns, so a command that reports
counts gets a table without rows from `core.table_for`, which holds the
--n-max policy; the claims behind `convexity` and `verify` take --n-max
and call it themselves.  Only `rank-table --from/--to` prints rank
rows, and only `rank-table` touches --table-cache.

Exit codes: 0 success (including conjecture mismatches, which are
reported but never gate), 1 a verified claim failed, 2 usage error,
including a table cache that cannot be read, written or trusted and
arithmetic out of range, such as a float overflow, and an internal
consistency check of the package that failed (an AssertionError, such
as a closed-form case table that does not add up).

`run()` is the process entry, behind both `python -m dysonrank` and the
`dysonrank` script.  However the call ends, it freezes the heap
(`gc.freeze()`) before the interpreter exits, so exit skips the garbage
collector's final passes over every object start-up and the command
made; reference counting still frees them.  `main(argv)` is the
in-process API and never freezes, so a test or library caller keeps a
heap the collector can reach.

Start-up imports only `core` and the standard library; each handler
imports what it runs, so a fresh process compiles no more than its
subcommand needs:

- count, rank-table: `core` only;
- maxn: also `maxprod` (and `reference`, which it reads);
- bounds: `bounds` and `claims`;
- convexity: also `convexity`;
- verify: `claims` and the modules its suite runs;
- rank-table given --table-cache: also `cache`;
- --format json or csv: also `json` or `csv`.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from typing import TYPE_CHECKING, Any, Iterator

from . import __version__
from .core import (MAX_TABLE_ROWS, build_rank_table, partition_number,
                   residue_count, table_for)

if TYPE_CHECKING:
    from .claims import ClaimRecord

__all__ = ["OutputRecord", "main", "record_to_json", "render", "run"]

# Integers at or beyond 2**53 lose precision in common JSON readers, so
# they serialize as decimal strings.
_BIG = 1 << 53

_EXIT_BY_STATUS = {"ok": 0, "violation-found": 1, "conjecture-mismatch": 0}

# The most counts `rank-table --from/--to` prints, those of rows 0..1024:
# row n holds max(2n - 1, 1) of them, so 1 + 1024^2 in all.  The output
# grows as the square of --to: on a 2-vCPU host with Python 3.11, rows
# 0..1024 take about 3 s of CPU and a 217 MiB peak at --format text, and
# 7-8 s and 632 MiB at --format json, so rows 0..5000 would need ~15 GB.
# `maxn --show-partitions` prints at most as many parts of optima, up to
# 64 partitions of each n in its range, so its output grows the same way;
# one --n prints at most 64 * MAX_TABLE_ROWS parts and is never refused.
_MAX_PRINTED_COUNTS = 1 + 1024 ** 2


class UsageError(Exception):
    """Invalid flag combination, or a table cache that cannot be used."""


class OutputRecord:
    """One command's machine-readable outcome: the parameter and result
    dicts its handler built, kept as they are.  Rendering reads a tuple
    as a list."""

    def __init__(self, command: str, parameters: dict[str, Any],
                 results: dict[str, Any], status: str = "ok") -> None:
        self.command = command
        self.parameters = parameters
        self.results = results
        self.status = status

    def as_dict(self) -> dict[str, Any]:
        return {"command": self.command, "parameters": self.parameters,
                "results": self.results, "status": self.status}


def _encode(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= _BIG else value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def record_to_json(record: OutputRecord) -> str:
    import json
    return json.dumps(_encode(record.as_dict()), indent=2)


def _is_partition(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value)


def _flatten(prefix: str, value: Any) -> Iterator[tuple[str, Any]]:
    """Depth-first (path, scalar) pairs; partitions and sets of
    partitions collapse to single readable cells."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(f"{prefix}.{k}" if prefix else k, v)
    elif isinstance(value, (list, tuple)):
        if value and _is_partition(value):
            yield prefix, "(" + ",".join(map(str, value)) + ")"
        elif value and all(_is_partition(v) for v in value):
            yield prefix, "{" + " ".join(
                "(" + ",".join(map(str, p)) + ")" for p in value) + "}"
        elif not value:
            yield prefix, "[]"
        else:
            for i, v in enumerate(value):
                yield from _flatten(f"{prefix}[{i}]", v)
    else:
        yield prefix, value


def _pairs(record: OutputRecord) -> list[tuple[str, Any]]:
    pairs: list[tuple[str, Any]] = [("command", record.command),
                                    ("status", record.status)]
    pairs.extend(_flatten("param", record.parameters))
    pairs.extend(_flatten("result", record.results))
    return pairs


def render_text(record: OutputRecord) -> str:
    return "\n".join(f"{key} = {value}" for key, value in _pairs(record))


def render_csv(record: OutputRecord) -> str:
    import csv
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _pairs(record):
        writer.writerow([key, value])
    return out.getvalue().rstrip("\n")


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        return record_to_json(record)
    if fmt == "csv":
        return render_csv(record)
    return render_text(record)


# ------------------------------------------------------------- commands


def _cmd_count(args: argparse.Namespace) -> OutputRecord:
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    value = residue_count(table_for(args.n, args.n_max), args.r, args.t,
                          args.n)
    params = {"r": args.r, "t": args.t, "n": args.n, "n_max": args.n_max}
    return OutputRecord("count", params, {"count": value})


def _cmd_rank_table(args: argparse.Namespace) -> OutputRecord:
    lo = 0 if args.lo is None else args.lo
    hi = args.hi if args.hi is not None else (
        args.lo if args.lo is not None else None)
    if hi is not None:
        if lo < 0 or hi < lo:
            raise UsageError("row range must satisfy 0 <= --from <= --to")
        # Row n holds max(2n - 1, 1) counts, so rows 0..h hold 1 + h^2.
        counts = 1 + hi * hi - (1 + (lo - 1) ** 2 if lo else 0)
        if counts > _MAX_PRINTED_COUNTS:
            raise UsageError(
                f"--from {lo} --to {hi} would print {counts} rank counts, "
                f"more than the {_MAX_PRINTED_COUNTS} of rows 0..1024; "
                "narrow --from/--to")
    # table_for refuses a --to past --n-max, and --n-max past the
    # ceiling, before the cache is touched.  With --table-cache the
    # cached table serves when it holds --n-max rows; otherwise one is
    # built at --n-max and saved, since filling the cache is the point of
    # naming one.  A cache path that cannot be read or written is a
    # usage error.
    table = table_for(max(args.n_max, 0 if hi is None else hi), args.n_max)
    if args.table_cache:
        from .cache import CacheFormatError, load_table, save_table
        path = args.table_cache
        try:
            cached = load_table(path) if os.path.exists(path) else None
            if cached is not None and cached.n_max >= args.n_max:
                table = cached
            else:
                table = build_rank_table(args.n_max)
                save_table(table, path)
        except (OSError, CacheFormatError) as exc:
            raise UsageError(f"unusable table cache: {exc}") from exc
    # The summary reports --n-max and p(--n-max), not the size of the
    # table, since a cached table may hold more rows than the call asks.
    params: dict[str, Any] = {"n_max": args.n_max}
    results: dict[str, Any] = {"n_max": args.n_max,
                               "partitions_of_n_max": partition_number(
                                   args.n_max)}
    if hi is not None:
        params["from"] = lo
        params["to"] = hi
        rows = []
        for n in range(lo, hi + 1):
            row = table.row(n)
            mlo = 0 if n == 0 else 1 - n
            rows.append({"n": n,
                         "counts": [[mlo + i, c] for i, c in enumerate(row)]})
        results["rows"] = rows
    if args.table_cache:
        results["cache"] = args.table_cache
    return OutputRecord("rank-table", params, results)


def _cmd_maxn(args: argparse.Namespace) -> OutputRecord:
    if args.n is not None and (args.lo is not None or args.hi is not None):
        raise UsageError("pass --n or --from/--to, not both")
    if args.n is not None:
        lo = hi = args.n
    else:
        if args.hi is None:
            raise UsageError("pass --n for one value or --to for a range")
        lo = 0 if args.lo is None else args.lo
        hi = args.hi
    if lo < 0 or hi < lo:
        raise UsageError("range must satisfy 0 <= from <= to")
    from .maxprod import _maxn_rows
    table = table_for(hi, args.n_max)
    rows = []
    disagreements = parts = 0
    for n, value, _, closed, entry in _maxn_rows(table, args.r, args.t, lo,
                                                 hi, args.show_partitions):
        row: dict[str, Any] = {"n": n, "value": value}
        if closed is not None:
            row["closed_form"], row["closed_form_agrees"] = closed
            if not closed[1]:
                disagreements += 1
        if entry is not None:
            parts += sum(map(len, entry.optima))
            if parts > _MAX_PRINTED_COUNTS:
                raise UsageError(
                    f"--from {lo} --to {hi} --show-partitions would print "
                    f"more than {_MAX_PRINTED_COUNTS} parts of optima; "
                    "narrow --from/--to or drop --show-partitions")
            row["optima"] = [list(p) for p in entry.optima]
            if entry.truncated:
                row["optima_truncated"] = True
        rows.append(row)
    params = {"r": args.r, "t": args.t, "n_max": args.n_max}
    if args.n is not None:
        params["n"] = args.n
    else:
        params["from"] = lo
        params["to"] = hi
    status = "violation-found" if disagreements else "ok"
    return OutputRecord("maxn", params,
                        {"rows": rows, "closed_form_disagreements":
                         disagreements}, status)


def _cmd_convexity(args: argparse.Namespace) -> OutputRecord:
    claim = _run_claim(args, "convexity")
    (row,) = claim.results["rows"]
    params = {"r": args.r, "t": args.t, "min": row["min"], "max": row["max"],
              "n_max": args.n_max}
    results = {key: row[key]
               for key in ("pairs_checked", "violations_found", "violations")}
    return OutputRecord("convexity", params, results, claim.status)


def _cmd_bounds(args: argparse.Namespace) -> OutputRecord:
    from . import claims
    from .bounds import (
        LEHMER_ESTIMATE_MAX_N,
        RATIO_CAP_2_DERIVED,
        RATIO_CAPS,
        error_budget,
        hardy_ramanujan,
        lehmer_bounds,
        lehmer_estimate,
        main_term,
        ratio_bound,
    )
    n = args.n
    if n < 1:
        raise UsageError("--n must be >= 1")
    if n > LEHMER_ESTIMATE_MAX_N:
        raise UsageError(f"--n must be <= {LEHMER_ESTIMATE_MAX_N}, past which "
                         "the Lehmer estimate overflows a double")
    p = partition_number(n)
    pair = lehmer_bounds(n)
    est, cap = lehmer_estimate(n)
    budget = error_budget(n)
    results: dict[str, Any] = {
        "p": p,
        "mu": pair.mu,
        "lehmer_lower": pair.lower,
        "lehmer_upper": pair.upper,
        "sandwich_ok": claims.sandwich_holds(pair, p),
        "estimate": est,
        "estimate_cap": cap,
        "estimate_ok": claims.estimate_holds((est, cap), p),
        "hardy_ramanujan": hardy_ramanujan(n),
        "main_term": main_term(n),
        "envelope_lower": budget.lower,
        "envelope_upper": budget.upper,
        "error_terms": list(budget.terms),
        "error_total": budget.total,
    }
    checks = [results["sandwich_ok"], results["estimate_ok"]]
    if n >= 500:
        # The aggregate budget and the ratio caps are claims about
        # n >= 500 only, so they gate the status only there.
        results["budget_ok"] = claims.budget_holds(budget)
        checks.append(results["budget_ok"])
        ratios = [ratio_bound(i, n) for i in range(1, 7)]
        results["ratios"] = ratios
        results["ratio_caps"] = list(RATIO_CAPS)
        results["ratio_caps_ok"] = claims.ratio_caps_hold(ratios)
        results["cap_2_alternate"] = RATIO_CAP_2_DERIVED
        results["cap_2_discrepant"] = RATIO_CAPS[1] != RATIO_CAP_2_DERIVED
        checks.append(results["ratio_caps_ok"])
    status = "ok" if all(checks) else "violation-found"
    return OutputRecord("bounds", {"n": n}, results, status)


# ---------------------------------------------------------- verify suites

# The range flags of `verify`, as {dest: flag}.
_RANGE_FLAGS = {"r": "--r", "t": "--t", "min": "--min", "max": "--max",
                "lo": "--from", "hi": "--to", "step": "--step"}
# Each verify suite runs the `claims` function of its name, with the
# range flags it reads, as {dest: keyword}; a flag left unset keeps the
# claim's default, and a range flag the suite does not read is refused.
_VERIFY = {
    "tables": {"n_max": "n_max"},
    "convexity": {"t": "t", "r": "r", "min": "a_min", "max": "b_max",
                  "n_max": "n_max"},
    "theorem2": {"max": "hi", "n_max": "n_max"},
    "bounds": {"max": "hi"},
    "budget": {"lo": "lo", "hi": "hi", "step": "step", "n_max": "n_max"},
    "conjectures": {"max": "scan_max", "hi": "forms_hi", "n_max": "n_max"},
}


def _run_claim(args: argparse.Namespace, suite: str) -> ClaimRecord:
    from . import claims
    given = {keyword: getattr(args, dest)
             for dest, keyword in _VERIFY[suite].items()
             if getattr(args, dest) is not None}
    return getattr(claims, suite)(**given)


def _cmd_verify(args: argparse.Namespace) -> OutputRecord:
    for dest, flag in _RANGE_FLAGS.items():
        if getattr(args, dest) is not None and dest not in _VERIFY[args.suite]:
            raise UsageError(f"verify {args.suite} does not read {flag}")
    record = _run_claim(args, args.suite)
    return OutputRecord("verify", {"suite": args.suite, **record.params},
                        record.results, record.status)


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    # No parser reads a prefix as the flag it starts: `verify bounds --n 9`
    # is refused, not run as --n-max 9.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("text", "csv", "json"),
                        default="text", help="output format")
    common.add_argument("--n-max", dest="n_max", type=int, default=1024,
                        help="largest n a call may read (default 1024); "
                             "tables are built only as far as the call "
                             "needs, except with --table-cache, where a "
                             "missing or undersized cache is built at "
                             "--n-max; a table past "
                             f"{MAX_TABLE_ROWS} rows is refused; bounds "
                             "and verify bounds read no table and ignore "
                             "it")
    common.add_argument("--table-cache", dest="table_cache", metavar="PATH",
                        help="load/save the rank table from this file; "
                             "read only by rank-table, the command that "
                             "prints rank rows")

    parser = argparse.ArgumentParser(
        prog="dysonrank", allow_abbrev=False,
        description="Exact rank counts for integer partitions, their "
                    "analytic envelopes, and maximum products over parts.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], allow_abbrev=False,
                       help="residue count N(r,t;n)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("rank-table", parents=[common], allow_abbrev=False,
                       help="build the rank table, optionally printing rows")
    p.add_argument("--from", dest="lo", type=int)
    p.add_argument("--to", dest="hi", type=int)
    p.set_defaults(handler=_cmd_rank_table)

    p = sub.add_parser("maxn", parents=[common], allow_abbrev=False,
                       help="maximum product of residue counts over "
                            "partitions of n")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--n", type=int)
    p.add_argument("--from", dest="lo", type=int)
    p.add_argument("--to", dest="hi", type=int)
    p.add_argument("--show-partitions", action="store_true",
                   help="include every optimal partition")
    p.set_defaults(handler=_cmd_maxn)

    p = sub.add_parser("convexity", parents=[common], allow_abbrev=False,
                       help="scan the product inequality over a region")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--min", type=int)
    p.add_argument("--max", type=int)
    p.set_defaults(handler=_cmd_convexity)

    p = sub.add_parser("bounds", parents=[common], allow_abbrev=False,
                       help="analytic bound diagnostics at one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", parents=[common], allow_abbrev=False,
                       help="run a verification suite")
    p.add_argument("suite", choices=sorted(_VERIFY))
    for dest, flag in _RANGE_FLAGS.items():
        p.add_argument(flag, dest=dest, type=int)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
    except (UsageError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2
    try:
        print(render(record, args.format))
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again;
        # the exit code still reports the command's own outcome.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return _EXIT_BY_STATUS[record.status]


def run() -> int:
    """`main()` on sys.argv for a process about to exit.  The heap is
    frozen however the call ends, argparse's SystemExit included; only
    the exit-time collection is skipped, and Python does not promise to
    finalize objects still alive at exit anyway."""
    try:
        return main()
    finally:
        gc.freeze()
