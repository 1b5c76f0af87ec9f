"""Run the checks of the CI workflow: the paper's claims at full scale
through the CLI, the three benchmark passes, tier-1 and the benchmark
self-tests.

    python tools/ci_checks.py

Every CLI call is `python -m dysonrank ARGV`, run by this interpreter in
the checkout with src/ first on PYTHONPATH, and fails its check if it
prints a traceback, exits with another code than the check expects or
outlives its timeout.  Outputs stay in memory, and the one table cache
lives in a temporary directory, so a run leaves no file in the checkout.
The checks run in order, one line each (status, seconds, name) as it
ends, then the interpreter and a count.  The script exits 1 if a check
failed.  Standard library only.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class CheckFailed(Exception):
    """A check's expectation did not hold."""


def _env(*dirs: str) -> dict[str, str]:
    """os.environ with the checkout's `dirs` first on PYTHONPATH."""
    path = [str(ROOT / d) for d in dirs] + [os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def python(*argv: str, timeout: float | None = None,
           path: tuple[str, ...] = ("src",)) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of this interpreter run on argv."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(*path),
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def _cli(argv: tuple[str, ...], timeout: float | None,
         code: int) -> tuple[str, str]:
    """(stdout, stderr) of `python -m dysonrank ARGV`, which must exit
    `code` and print no traceback."""
    got, out, err = python("-m", "dysonrank", *argv, timeout=timeout)
    if got != code or "Traceback" in err:
        raise CheckFailed(f"dysonrank {' '.join(argv)} exited {got}, "
                          f"expected {code}:\n{err}")
    return out, err


def dysonrank(*argv: str, timeout: float | None = None, code: int = 0) -> str:
    """The stdout of `python -m dysonrank ARGV`, which exits `code`."""
    return _cli(argv, timeout, code)[0]


def refused(*argv: str, timeout: float | None = None,
            stderr: str | None = None) -> None:
    """`dysonrank ARGV` exits 2 and prints nothing on stdout; `stderr`,
    if given, is a whole line of its stderr."""
    out, err = _cli(argv, timeout, 2)
    if out:
        raise CheckFailed(f"dysonrank {' '.join(argv)} printed on stdout")
    if stderr is not None and stderr not in err.splitlines():
        raise CheckFailed(f"dysonrank {' '.join(argv)}: no stderr line "
                          f"{stderr!r}:\n{err}")


def expect(out: str, *lines: str) -> None:
    """Each of `lines` is a whole line of `out`."""
    text = f"\n{out}\n"
    for line in lines:
        if f"\n{line}\n" not in text:
            raise CheckFailed(f"no output line {line!r}")


# ------------------------------------------------------- the CLI at scale


def early_closed_pipe():
    """A reader that closes the pipe after one line leaves exit 0 and no
    traceback: ~150 kB of rows outgrow a pipe buffer, so the writer is
    still writing when the pipe closes."""
    with subprocess.Popen(
            [sys.executable, "-m", "dysonrank", "rank-table", "--from", "0",
             "--to", "120", "--n-max", "120"],
            cwd=ROOT, env=_env("src"), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate()
    if proc.returncode != 0 or "Traceback" in err:
        raise CheckFailed(f"exit {proc.returncode}:\n{err}")


def theorem2_and_t2_conjectures():
    expect(dysonrank("verify", "theorem2"), "status = ok")
    expect(dysonrank("verify", "conjectures", "--n-max", "600"),
           "status = ok")


def theorem2_and_maxn_at_5000():
    """The knapsack runs a pass only for parts that can join an optimum,
    so the full range fits; maxn prints the verdict verify theorem2
    counts, at every n from each threshold.  No timing is gated."""
    expect(dysonrank("verify", "theorem2", "--max", "5000", "--n-max", "5000",
                     timeout=60),
           "status = ok",
           "result.rows[0].closed_checked = 4968",
           "result.rows[1].closed_checked = 4979",
           "result.rows[2].closed_checked = 4979")
    expect(dysonrank("maxn", "--r", "0", "--n", "5000", "--n-max", "5000",
                     timeout=60),
           "result.rows[0].closed_form_agrees = True")
    for out in (dysonrank("maxn", "--r", "0", "--from", "33", "--to", "5000",
                          "--n-max", "5000", timeout=60),
                dysonrank("maxn", "--r", "1", "--from", "22", "--to", "5000",
                          "--n-max", "5000", timeout=60),
                dysonrank("maxn", "--r", "2", "--from", "22", "--to", "5000",
                          "--n-max", "5000", timeout=60)):
        expect(out, "result.closed_form_disagreements = 0")


def maxn_range_and_rank_row_at_5000():
    """maxn without --show-partitions walks no optimum; the row read sums
    strided slices of p and keeps nothing beside p."""
    expect(dysonrank("maxn", "--r", "1", "--from", "4990", "--to", "5000",
                     "--n-max", "5000", timeout=60),
           "result.closed_form_disagreements = 0")
    dysonrank("rank-table", "--from", "5000", "--to", "5000", "--n-max",
              "5000", timeout=60)


def rows_to_1024_and_wider_refused():
    """Row n prints max(2n - 1, 1) counts, so the output grows as the
    square of --to; rows 0..1024, 1 + 1024^2 counts, are the most one
    call prints."""
    expect(dysonrank("rank-table", "--from", "0", "--to", "1024",
                     timeout=120),
           "result.rows[1024].n = 1024")
    refused("rank-table", "--from", "0", "--to", "5000", "--n-max", "5000",
            timeout=10,
            stderr="error: --from 0 --to 5000 would print 25000001 rank "
                   "counts, more than the 1048577 of rows 0..1024; narrow "
                   "--from/--to")


def cached_table_rows_equal_lone_rows():
    """--table-cache builds the full 2000-row table by the rank-tail
    recurrence and saves it; a second call loads that file and prints
    the same bytes.  Without the flag each row is read on its own from
    strided slices of p, and only the result.cache line differs."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = str(Path(tmp, "t2000.bin"))
        built = dysonrank("rank-table", "--from", "1995", "--to", "2000",
                          "--n-max", "2000", "--table-cache", cache)
        expect(built, f"result.cache = {cache}")
        loaded = dysonrank("rank-table", "--from", "1995", "--to", "2000",
                           "--n-max", "2000", "--table-cache", cache)
    if loaded != built:
        raise CheckFailed("the loaded table prints other rows than the "
                          "built one")
    lone = dysonrank("rank-table", "--from", "1995", "--to", "2000",
                     "--n-max", "2000")
    if lone != "".join(line for line in built.splitlines(keepends=True)
                       if not line.startswith("result.cache = ")):
        raise CheckFailed("lone row reads print other rows than the table")


def dense_budget_and_wide_maxn_at_5000():
    """Both read only p and residue columns, each one pentagonal
    division."""
    expect(dysonrank("verify", "budget", "--from", "4000", "--to", "5000",
                     "--step", "1", "--n-max", "5000", timeout=60),
           "status = ok",
           "result.failures = 0",
           "result.rows[1000].n = 5000")
    expect(dysonrank("maxn", "--r", "0", "--from", "33", "--to", "5000",
                     "--n-max", "5000", timeout=60),
           "result.closed_form_disagreements = 0")


def bounds_past_double_range_refused():
    refused("bounds", "--n", "1000000000000", timeout=20)


def verify_bounds_to_double_range():
    """76567 is LEHMER_ESTIMATE_MAX_N, the cap bounds --n uses; from
    n = 79445 lehmer_bounds overflows a double and raises."""
    expect(dysonrank("verify", "bounds", "--max", "76567", timeout=60),
           "status = ok")
    refused("verify", "bounds", "--max", "80000", timeout=20,
            stderr="error: --max must be <= 76567, the largest n whose e^mu "
                   "fits a double")


def abbreviated_flags_refused():
    """No parser reads a prefix as the flag it starts: --n is not taken
    for --n-max in verify, nor --n-m for --n-max or --form for
    --format."""
    refused("verify", "bounds", "--n", "9",
            stderr="dysonrank: error: unrecognized arguments: --n 9")
    refused("count", "--r", "0", "--t", "3", "--n", "13", "--n-m", "12",
            stderr="dysonrank: error: unrecognized arguments: --n-m 12")
    refused("bounds", "--n", "5", "--form", "json",
            stderr="dysonrank: error: unrecognized arguments: --form json")


def optima_t2_convexity_and_ceiling():
    expect(dysonrank("maxn", "--r", "1", "--t", "2", "--n", "8", "--n-max",
                     "8", "--show-partitions"),
           "result.rows[0].optima = {(2,2,2,2) (4,2,2) (4,4) (6,2)}")
    expect(dysonrank("verify", "convexity", "--t", "2", "--max", "40",
                     "--n-max", "80"),
           "status = ok")
    refused("count", "--r", "0", "--t", "3", "--n", "3000000", "--n-max",
            "3000000", timeout=20)


def unread_flag_and_truncated_optima():
    """theorem2 reads no --t, so the flag is refused rather than ignored.
    maxn at n = 60 has 91 optima and keeps the first 64 in reverse
    lexicographic order; the set prints ascending, so the first of that
    order, ten 6s, closes the printed set."""
    refused("verify", "theorem2", "--t", "2", "--max", "40",
            stderr="error: verify theorem2 does not read --t")
    out = dysonrank("maxn", "--r", "1", "--t", "2", "--n", "60",
                    "--show-partitions", "--n-max", "60")
    expect(out, "result.rows[0].optima_truncated = True")
    if not re.search(r"^result\.rows\[0\]\.optima = \{.*"
                     r"\(6,6,6,6,6,6,6,6,6,6\)\}$", out, re.MULTILINE):
        raise CheckFailed("the truncated optima set does not end with ten 6s")


def show_partitions_range_limit():
    """Up to 64 optima of each n are printed, so the parts grow as the
    square of --to: r = 1, t = 2 to 400 prints 1,002,736 parts, under
    the 1 + 1024^2 limit; r = 0 to 5000 would print more."""
    expect(dysonrank("maxn", "--r", "1", "--t", "2", "--to", "400",
                     "--show-partitions", timeout=60),
           "result.rows[400].n = 400")
    refused("maxn", "--r", "0", "--to", "5000", "--n-max", "5000",
            "--show-partitions", timeout=20,
            stderr="error: --from 0 --to 5000 --show-partitions would print "
                   "more than 1048577 parts of optima; narrow --from/--to "
                   "or drop --show-partitions")


def range_policy_refusals():
    """verify convexity without --r scans every residue of --t, so a --t
    past the row ceiling is refused before any column; the theorem 2
    rules read parts up to 21, past --n-max 10."""
    refused("verify", "convexity", "--t", "100000", "--max", "40",
            timeout=20)
    refused("verify", "theorem2", "--max", "10", "--n-max", "10",
            timeout=20,
            stderr="error: this command requires --n-max >= 21 (got 10)")


def convexity_boundary_and_thresholds():
    """The README example walks violating rows pair by pair; the
    12/11/11 suite finds none and stops each row at its first pair past
    the index from which the column is log-concave."""
    expect(dysonrank("convexity", "--r", "0", "--min", "10", "--max", "30",
                     "--n-max", "64", code=1),
           "result.violations = {(10,11,256,264) (11,11,256,340) "
           "(11,12,400,413)}")
    expect(dysonrank("verify", "convexity"),
           "status = ok",
           "result.rows[0].pairs_checked = 119805")


def convexity_to_2500():
    """3 million pairs take milliseconds; the t = 2 scan from 1 walks
    its 7533 violations."""
    expect(dysonrank("verify", "convexity", "--r", "0", "--max", "2500",
                     "--n-max", "5000", timeout=20),
           "status = ok",
           "result.rows[0].pairs_checked = 3098805")
    expect(dysonrank("convexity", "--r", "0", "--t", "2", "--min", "1",
                     "--max", "2500", "--n-max", "5000", timeout=20, code=1),
           "result.violations_found = 7533")


def budget_at_4347():
    """A 4347-row table took 5 s and 616 MiB; the two columns take well
    under a second."""
    expect(dysonrank("verify", "budget", "--from", "4347", "--to", "4347",
                     "--n-max", "4347", timeout=20),
           "status = ok",
           "result.rows[0].a_third = -6535410516613307218660")


# ------------------------------------------- library checks to n = 40000

DYSON_SERIES = """\
import sys
from operator import sub

from dysonrank import residue_column
from oracles import dyson_a_third

columns = list(map(sub, residue_column(0, 3, 20000),
                   residue_column(1, 3, 20000)))
if columns != dyson_a_third(20000):
    sys.exit("A(n) from the columns differs from Dyson's series")
"""

ENVELOPE_EDGES = """\
import sys

from dysonrank import (ENVELOPE_C, RankTable, lehmer_bounds, residue_count,
                       residue_envelope_check)

table = RankTable(20000)
differ = []
for n in range(1, 20001):
    pair = lehmer_bounds(n)
    lo = (1.0 - ENVELOPE_C) / 3.0 * pair.lower
    hi = (1.0 + ENVELOPE_C) / 3.0 * pair.upper
    floats = all(lo < residue_count(table, r, 3, n) < hi for r in range(3))
    if residue_envelope_check(table, n) is not floats:
        differ.append(n)
if differ:
    sys.exit(f"verdicts differ at n = {differ[:20]}")
"""


DIVISION = """\
import sys

from dysonrank import partition_numbers, residue_column
from dysonrank.core import _residue_numerator
from oracles import loop_divide_by_euler

n = N_MAX
p, column = [], []
loop_divide_by_euler(p, [1] + [0] * n, n)
loop_divide_by_euler(column, _residue_numerator(0, 3, 0, n), n)
if partition_numbers(n) != p:
    sys.exit(f"p(0 .. {n}) differs from the per-term loop")
if list(residue_column(0, 3, n)) != column:
    sys.exit(f"N(0, 3; 0 .. {n}) differs from the per-term loop")
"""


def _snippet(code: str, path: tuple[str, ...]) -> None:
    got, _, err = python("-c", code, timeout=120, path=path)
    if got != 0:
        raise CheckFailed(f"exit {got}:\n{err}")


def dyson_series_to_20000():
    """R(w; q), summed by trinomial divisions, shares no formula with the
    residue columns; in a fresh process p is not stored, so both
    columns are divided."""
    _snippet(DYSON_SERIES, ("src", "tests"))


def division_across_the_switch():
    """p and the (0, 3) column in a fresh process to 34224, the last n
    whose division packs four degrees a step, and to 40000, which runs
    one degree a step, against the per-term loop."""
    for n in (34224, 40000):
        _snippet(DIVISION.replace("N_MAX", str(n)), ("src", "tests"))


def envelope_integer_edges_to_20000():
    """residue_envelope_check compares each count with floor and ceil of
    its float edges; here every n is also decided by comparing the
    counts with the float edges themselves."""
    _snippet(ENVELOPE_EDGES, ("src",))


# ------------------------------------------------ benchmark passes, tests


def _bench_pass(workload: str) -> None:
    """One short pass of a benchmark workload, checked against the
    benchmark's own oracles and golden outputs; no timing is gated.
    run.py exits 0 even when operations fail, so its last line's
    verdict is read."""
    got, out, err = python("perfbench/run.py", "--workload", workload,
                           "--seconds", "1")
    last = out.splitlines()[-1] if out.strip() else ""
    if got != 0 or '"correct": true' not in last:
        raise CheckFailed(f"exit {got}:\n{out}{err}")


def bench_claims_1000():
    _bench_pass("claims-1000")


def bench_cli_session():
    _bench_pass("cli-session")


def bench_analytic_dense():
    _bench_pass("analytic-dense")


def _streamed(*argv: str) -> None:
    """Run this interpreter on argv with its output on the terminal."""
    got = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env("src"),
                         stdin=subprocess.DEVNULL).returncode
    if got != 0:
        raise CheckFailed(f"exit {got}")


def tier1():
    _streamed("-m", "pytest", "-q", "--continue-on-collection-errors")


def bench_self_tests():
    _streamed("-m", "unittest", "discover", "-s", "perfbench")


# The CLI at scale, the library checks, the benchmark passes and the
# tests, in the order the workflow once ran them as steps.
CHECKS = (
    early_closed_pipe,
    theorem2_and_t2_conjectures,
    theorem2_and_maxn_at_5000,
    maxn_range_and_rank_row_at_5000,
    rows_to_1024_and_wider_refused,
    cached_table_rows_equal_lone_rows,
    dense_budget_and_wide_maxn_at_5000,
    bounds_past_double_range_refused,
    verify_bounds_to_double_range,
    abbreviated_flags_refused,
    optima_t2_convexity_and_ceiling,
    unread_flag_and_truncated_optima,
    show_partitions_range_limit,
    range_policy_refusals,
    convexity_boundary_and_thresholds,
    convexity_to_2500,
    budget_at_4347,
    dyson_series_to_20000,
    division_across_the_switch,
    envelope_integer_edges_to_20000,
    bench_claims_1000,
    bench_cli_session,
    bench_analytic_dense,
    tier1,
    bench_self_tests,
)


def main() -> int:
    failed = 0
    for function in CHECKS:
        start = time.perf_counter()
        try:
            function()
            status = "ok"
        except (CheckFailed, subprocess.TimeoutExpired) as exc:
            failed += 1
            status = "FAIL"
            print(exc, flush=True)
        print(f"{status:4}  {time.perf_counter() - start:6.2f} s  "
              f"{function.__name__}", flush=True)
    print(f"interpreter: {sys.executable} "
          f"(Python {sys.version.split()[0]})")
    print(f"{len(CHECKS)} checks, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
