"""End-to-end command-line behavior: output formats, golden strings,
JSON as a standard reader sees it, exit codes, and the table cache,
which only the row-printing commands read; and every CLI call of
tools/ci_checks.py, the checks CI runs, parses."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dysonrank
from dysonrank import build_rank_table, load_table
from dysonrank.core import _half_row, table_for
from dysonrank.cli import (
    MAX_TABLE_ROWS,
    OutputRecord,
    build_parser,
    main,
    render,
)
from oracles import oracle_entries, walking_maxn_rows


# The range flags each verify suite reads, with the claims keyword each
# becomes; --n-max, --table-cache and --format are read by all.
VERIFY_READS = {"tables": {},
                "convexity": {"--t": "t", "--r": "r", "--min": "a_min",
                              "--max": "b_max"},
                "theorem2": {"--max": "hi"},
                "bounds": {"--max": "hi"},
                "budget": {"--from": "lo", "--to": "hi", "--step": "step"},
                "conjectures": {"--max": "scan_max", "--to": "forms_hi"}}
RANGE_FLAGS = ("--r", "--t", "--min", "--max", "--from", "--to", "--step")
# Calls whose flags abbreviate ones the subcommand has: --n-max, --n-max
# and --format.  argparse refuses each.
ABBREVIATED = (("verify", "bounds", "--n", "9"),
               ("count", "--r", "0", "--t", "3", "--n", "13", "--n-m", "12"),
               ("bounds", "--n", "5", "--form", "json"))


def run(*argv):
    """(exit_code, stdout, stderr) for one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse's own flag errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCount:
    def test_established_counts(self):
        code, out, _ = run("count", "--r", "0", "--t", "3", "--n", "13",
                           "--n-max", "64")
        assert code == 0
        assert "result.count = 37" in out
        code, out, _ = run("count", "--r", "1", "--t", "3", "--n", "17",
                           "--n-max", "64")
        assert code == 0
        assert "result.count = 101" in out

    def test_empty_partition(self):
        code, out, _ = run("count", "--r", "0", "--t", "3", "--n", "0",
                           "--n-max", "8")
        assert code == 0
        assert "result.count = 1" in out

    def test_text_golden(self):
        _, out, _ = run("count", "--r", "0", "--t", "3", "--n", "13",
                        "--n-max", "64")
        assert out == ("command = count\n"
                       "status = ok\n"
                       "param.r = 0\n"
                       "param.t = 3\n"
                       "param.n = 13\n"
                       "param.n_max = 64\n"
                       "result.count = 37\n")

    def test_csv_golden(self):
        _, out, _ = run("count", "--r", "0", "--t", "3", "--n", "13",
                        "--n-max", "64", "--format", "csv")
        assert out == ("key,value\n"
                       "command,count\n"
                       "status,ok\n"
                       "param.r,0\n"
                       "param.t,3\n"
                       "param.n,13\n"
                       "param.n_max,64\n"
                       "result.count,37\n")

    def test_json_output_and_round_trip(self):
        code, out, _ = run("count", "--r", "1", "--t", "3", "--n", "20",
                           "--n-max", "64", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "command": "count",
            "parameters": {"r": 1, "t": 3, "n": 20, "n_max": 64},
            "results": {"count": 211},
            "status": "ok"}

    def test_refuses_show_row(self):
        # Rows print through `rank-table --from N --to N` alone.
        code, out, err = run("count", "--r", "0", "--t", "3", "--n", "4",
                             "--n-max", "16", "--show-row")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --show-row\n")

    def test_invalid_residue_is_usage_error(self):
        code, _, err = run("count", "--r", "3", "--t", "3", "--n", "5",
                           "--n-max", "16")
        assert code == 2
        assert "error" in err

    def test_table_too_small_names_required_size(self):
        code, _, err = run("count", "--r", "0", "--t", "3", "--n", "50",
                           "--n-max", "40")
        assert code == 2
        assert "--n-max >= 50" in err


class TestMaxn:
    def test_single_n(self):
        code, out, _ = run("maxn", "--r", "0", "--t", "3", "--n", "28",
                           "--n-max", "64", "--show-partitions")
        assert code == 0
        assert "result.rows[0].value = 2401" in out
        assert "{(7,7,7,7)}" in out

    def test_zero(self):
        code, out, _ = run("maxn", "--r", "0", "--t", "3", "--n", "0",
                           "--n-max", "8", "--show-partitions")
        assert code == 0
        assert "result.rows[0].value = 1" in out
        assert "{()}" in out

    def test_closed_form_comparison(self):
        code, out, _ = run("maxn", "--r", "1", "--t", "3", "--n", "30",
                           "--n-max", "64")
        assert code == 0
        assert "result.rows[0].value = 3481" in out
        assert "result.rows[0].closed_form = 3481" in out
        assert "result.rows[0].closed_form_agrees = True" in out

    def test_range(self):
        code, out, _ = run("maxn", "--r", "0", "--from", "33", "--to", "40",
                           "--n-max", "64", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results["rows"]) == 8
        assert results["closed_form_disagreements"] == 0

    def test_multi_optima_listed(self):
        _, out, _ = run("maxn", "--r", "0", "--t", "3", "--n", "16",
                        "--n-max", "32", "--show-partitions", "--format",
                        "json")
        rows = json.loads(out)["results"]["rows"]
        assert rows[0]["optima"] == [[4, 4, 4, 4], [16]]

    def test_printed_parts_are_capped(self, monkeypatch):
        # --show-partitions over a range prints at most as many parts of
        # optima as rank-table prints counts; a range past that exits 2
        # before printing anything.  Shown here at a lowered limit.
        from dysonrank.maxprod import max_table
        argv = ("maxn", "--r", "1", "--t", "2", "--to", "60", "--n-max",
                "60", "--show-partitions")
        parts = sum(len(p) for entry in max_table(table_for(60), 1, 2, 60)
                    for p in entry.optima)
        monkeypatch.setattr("dysonrank.cli._MAX_PRINTED_COUNTS", parts)
        assert run(*argv)[0] == 0
        monkeypatch.setattr("dysonrank.cli._MAX_PRINTED_COUNTS", parts - 1)
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err == (f"error: --from 0 --to 60 --show-partitions would "
                       f"print more than {parts - 1} parts of optima; "
                       "narrow --from/--to or drop --show-partitions\n")

    @pytest.mark.parametrize("argv, message", [
        (("maxn", "--r", "0", "--n", "5", "--to", "9"),
         "pass either --n N or [--from A] --to B"),
        (("maxn", "--r", "0"), "pass either --n N or [--from A] --to B"),
        (("maxn", "--r", "0", "--n", "-1"), "--n must be >= 0"),
        (("maxn", "--r", "0", "--from", "5"), "--from needs --to"),
        (("rank-table", "--from", "5"), "--from needs --to"),
    ], ids=["n-and-to", "neither", "negative-n", "maxn-from-alone",
            "rank-table-from-alone"])
    def test_n_and_range_conflict(self, argv, message):
        # Both commands read `[--from A] --to B`: --from alone is refused.
        code, out, err = run(*argv, "--n-max", "16")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("r, t, argv", [
        (0, 3, ("--from", "30", "--to", "45")),
        (0, 3, ("--n", "80")),
        (0, 3, ("--n", "0")),
        (1, 3, ("--from", "0", "--to", "24")),
        (2, 3, ("--from", "60", "--to", "80")),
        (1, 2, ("--n", "60")),  # 91 optima, truncated at 64
        (0, 5, ("--from", "9", "--to", "14")),
    ])
    def test_rows_equal_max_table_entries(self, r, t, argv):
        from dysonrank.maxprod import max_table
        entries = oracle_entries(r, t, 80)
        assert max_table(table_for(80), r, t, 80) == entries
        code, out, _ = run("maxn", "--r", str(r), "--t", str(t), *argv,
                           "--n-max", "80", "--show-partitions",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        lo = int(argv[1])
        hi = lo if argv[0] == "--n" else int(argv[3])
        assert [row["n"] for row in rows] == list(range(lo, hi + 1))
        for row in rows:
            entry = entries[row["n"]]
            assert row["value"] == entry.value
            assert row["optima"] == [list(p) for p in entry.optima]
            assert row.get("optima_truncated", False) is entry.truncated
        if (r, t) == (1, 2):
            assert rows[0]["optima_truncated"] is True

    @pytest.mark.parametrize("r, t, lo, hi", [
        (0, 3, 0, 120), (1, 3, 10, 90), (2, 3, 40, 75),
        (0, 2, 0, 60), (1, 2, 30, 70), (0, 5, 0, 40), (2, 5, 25, 45),
    ])
    def test_rows_equal_walking_rows(self, r, t, lo, hi):
        for show in (False, True):
            code, out, _ = run("maxn", "--r", str(r), "--t", str(t),
                               "--from", str(lo), "--to", str(hi),
                               "--n-max", str(hi), "--format", "json",
                               *(("--show-partitions",) if show else ()))
            assert code == 0
            results = json.loads(out)["results"]
            expected = walking_maxn_rows(r, t, lo, hi, show)
            assert results["rows"] == expected, show
            assert results["closed_form_disagreements"] == sum(
                row.get("closed_form_agrees") is False for row in expected)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_disagreeing_rows_equal_walking_rows(self, r, monkeypatch):
        # A frozen count off by one breaks every closed form with that
        # part, and a column count off by one the knapsack and the
        # products, as in the closed-form sweep's mismatch test.  Giving
        # the part 5 * base the value of the closed form base^5 ties the
        # two at n = 5 * base; lowering the base count as well leaves
        # the part alone as the optimum, with the closed form's value.
        from dysonrank import maxprod
        from dysonrank.maxprod import _BASE_PART
        from dysonrank.reference import counts_column
        frozen = counts_column(r)
        part = 13 if r == 0 else 15
        base = _BASE_PART[r]

        def bump(counts):
            counts[base] += 1

        def tie(counts):
            counts[5 * base] = counts[base] ** 5

        def replace(counts):
            tie(counts)
            counts[base] -= 1

        def column(change):
            def fake(r, t, n_max):
                counts = list(dysonrank.residue_column(r, t, n_max))
                change(counts)
                return tuple(counts)
            return fake

        for name, fake in (("counts_column", lambda r: {
                **frozen, part: frozen[part] + 1}),
                           ("residue_column", column(bump)),
                           ("residue_column", column(tie)),
                           ("residue_column", column(replace))):
            monkeypatch.setattr(maxprod, name, fake)
            for show in (False, True):
                code, out, _ = run("maxn", "--r", str(r), "--from", "20",
                                   "--to", "120", "--n-max", "120",
                                   "--format", "json",
                                   *(("--show-partitions",) if show else ()))
                assert code == 1, name
                rows = json.loads(out)["results"]["rows"]
                assert rows == walking_maxn_rows(r, 3, 20, 120, show), name
            monkeypatch.undo()

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_disagreeing_rows_are_theorem2_mismatches(self, r, monkeypatch):
        # With the base part's column count raised by one, the n where
        # maxn prints closed_form_agrees = False are exactly the n that
        # verify_closed_forms reports, and maxn counts them.
        from dysonrank import maxprod
        from dysonrank.maxprod import _BASE_PART, verify_closed_forms

        def bumped(r, t, n_max):
            counts = list(dysonrank.residue_column(r, t, n_max))
            counts[_BASE_PART[r]] += 1
            return tuple(counts)

        monkeypatch.setattr(maxprod, "residue_column", bumped)
        code, out, _ = run("maxn", "--r", str(r), "--from", "20", "--to",
                           "240", "--n-max", "240", "--format", "json")
        assert code == 1
        results = json.loads(out)["results"]
        printed = [row["n"] for row in results["rows"]
                   if row.get("closed_form_agrees") is False]
        reported = [mismatch[0] for mismatch in verify_closed_forms(
            table_for(240), r, 240).mismatches]
        assert printed == reported != []
        assert results["closed_form_disagreements"] == len(reported)

    def test_broken_case_table_exits_2_without_traceback(self, monkeypatch):
        # Heads of n = 1 (mod 7) that sum to 37 leave a remainder of 6.
        from dysonrank import maxprod
        monkeypatch.setitem(maxprod._HEADS_R0, 1, (13, 13, 11))
        for argv in (("maxn", "--r", "0", "--n", "36", "--n-max", "64"),
                     ("verify", "theorem2", "--max", "60", "--n-max", "60")):
            code, out, err = run(*argv)
            assert code == 2, argv
            assert out == ""
            assert err == ("error: internal check failed: case table broken "
                           "at r=0, n=36\n"), argv


class TestConvexity:
    def test_violations_exit_one(self):
        code, out, _ = run("convexity", "--r", "0", "--t", "3", "--min",
                           "10", "--max", "30", "--n-max", "64")
        assert code == 1
        assert "status = violation-found" in out
        assert "(11,11,256,340)" in out

    def test_clean_region_exit_zero(self):
        code, out, _ = run("convexity", "--r", "0", "--t", "3", "--min",
                           "12", "--max", "30", "--n-max", "64")
        assert code == 0
        assert "result.violations_found = 0" in out

    def test_default_min_is_threshold(self):
        code, out, _ = run("convexity", "--r", "0", "--max", "30",
                           "--n-max", "64")
        assert code == 0
        assert "param.min = 12" in out

    @pytest.mark.parametrize("argv, message", [
        (("convexity", "--r", "0", "--max", "5"),
         "--max 5 is below the start 12 (the threshold for r = 0, t = 3)"),
        (("convexity", "--r", "0", "--min", "0", "--max", "40"),
         "--min must be >= 1 (got 0)"),
        (("convexity", "--r", "1", "--t", "7", "--min", "9", "--max", "8"),
         "--max 8 is below the start 9 (--min)"),
        (("verify", "convexity", "--max", "5"),
         "--max 5 is below the start 12 (the threshold for r = 0, t = 3)"),
        (("verify", "convexity", "--t", "4", "--max", "0"),
         "--max 0 is below the start 1 (the default start)"),
        (("verify", "conjectures", "--max", "5"),
         "--max 5 is below the start 11 (the threshold for r = 0, t = 2)"),
    ])
    def test_empty_region_names_its_flags(self, monkeypatch, argv, message):
        # Refused before any table or column, with the flags and start.
        tables = []
        monkeypatch.setattr("dysonrank.claims.table_for",
                            lambda *args: tables.append(args))
        code, out, err = run(*argv)
        assert (code, out, tables) == (2, "", [])
        assert err.startswith("error: ") and message in err


class TestBounds:
    def test_diagnostics_at_500(self):
        code, out, _ = run("bounds", "--n", "500")
        assert code == 0
        assert "result.sandwich_ok = True" in out
        assert "result.estimate_ok = True" in out
        assert "result.ratio_caps_ok = True" in out
        assert "result.cap_2_discrepant = True" in out

    def test_small_n_skips_ratios(self):
        code, out, _ = run("bounds", "--n", "10")
        assert code == 0
        assert "ratio" not in out

    def test_rejects_zero(self):
        code, _, err = run("bounds", "--n", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("n", [76568, 10 ** 12])
    def test_past_the_double_range_fails_before_p(self, monkeypatch, n):
        monkeypatch.setattr("dysonrank.cli.partition_number", None)
        assert run("bounds", "--n", str(n)) == (
            2, "", "error: --n must be <= 76567, past which the Lehmer "
                   "estimate overflows a double\n")

    @pytest.mark.parametrize("argv", [
        ("bounds", "--n", "3000", "--n-max", "1"),
        ("verify", "bounds", "--max", "2000", "--n-max", "10"),
    ])
    def test_n_max_is_ignored_as_its_help_says(self, argv):
        # Both read p(n) and no table, so a --n-max below n changes
        # nothing; the flag's help says so.
        help_text = " ".join(run(*argv[:-4], "--help")[1].split())
        assert "bounds and verify bounds read no table and ignore it" in \
            help_text
        assert run(*argv)[:2] == (0, run(*argv[:-2])[1])

    def test_arithmetic_error_is_a_usage_error(self, monkeypatch):
        monkeypatch.setattr("dysonrank.bounds.lehmer_estimate", math.exp)
        assert run("bounds", "--n", "1000") == (
            2, "", "error: math range error\n")


class TestVerifySuites:
    def test_tables(self):
        code, out, _ = run("verify", "tables", "--n-max", "64")
        assert code == 0
        assert "status = ok" in out

    def test_convexity_clean(self):
        code, _, _ = run("verify", "convexity", "--r", "0", "--max", "60",
                         "--n-max", "120")
        assert code == 0

    def test_convexity_with_min_10_exits_one(self):
        code, out, _ = run("verify", "convexity", "--r", "0", "--min", "10",
                           "--max", "30", "--n-max", "64")
        assert code == 1
        assert "status = violation-found" in out

    def test_convexity_scans_every_residue_of_t(self):
        code, out, _ = run("verify", "convexity", "--t", "2", "--max", "40",
                           "--n-max", "80")
        assert code == 0
        assert "status = ok" in out
        assert "result.rows[0].r = 0\nresult.rows[0].min = 11\n" in out
        assert "result.rows[1].r = 1\nresult.rows[1].min = 12\n" in out
        assert "rows[2]" not in out

    def test_convexity_rejects_t_0_before_building(self, monkeypatch):
        monkeypatch.setattr("dysonrank.claims.table_for", None)
        assert run("verify", "convexity", "--t", "0", "--max", "40",
                   "--n-max", "80") == (
            2, "", "error: modulus t must be positive\n")

    @pytest.mark.parametrize("command", [("verify", "convexity"),
                                         ("convexity",)])
    @pytest.mark.parametrize("r", ["5", "-1"])
    def test_convexity_rejects_r_before_building(self, monkeypatch, command,
                                                 r):
        def refuse(need, n_max=None):
            raise AssertionError(f"table to {need} asked for")

        monkeypatch.setattr("dysonrank.claims.table_for", refuse)
        assert run(*command, "--t", "2", "--r", r, "--max", "500") == (
            2, "", "error: residue r must satisfy 0 <= r < t\n")

    def test_convexity_without_r_refuses_t_past_the_ceiling(self,
                                                             monkeypatch):
        # Every residue of t is one column and one scan, so time, memory
        # and output all grow with t.
        def refuse(series, numerator, n):
            raise AssertionError("a column was computed")

        monkeypatch.setattr("dysonrank.core._divide_by_euler", refuse)
        for t, fmt in ((MAX_TABLE_ROWS + 1, "text"),
                       (MAX_TABLE_ROWS + 1, "json"), (100000, "text")):
            assert run("verify", "convexity", "--t", str(t), "--max", "40",
                       "--format", fmt) == (
                2, "", f"error: without --r the scan covers all {t} "
                       f"residues of --t; pass --r or --t <= "
                       f"{MAX_TABLE_ROWS}\n")

    def test_convexity_with_r_takes_any_t(self):
        code, out, err = run("verify", "convexity", "--t", "100000", "--r",
                             "0", "--max", "40", "--n-max", "80")
        assert (code, err) == (1, "")
        assert "result.rows[0].pairs_checked = 820\n" in out

    def test_theorem2(self):
        code, out, _ = run("verify", "theorem2", "--max", "60", "--n-max",
                           "64")
        assert code == 0
        assert "status = ok" in out

    def test_theorem2_needs_the_replacement_rule_parts(self):
        # The rules read parts up to 21 whatever --max is.
        assert run("verify", "theorem2", "--max", "10", "--n-max", "10") == (
            2, "", "error: this command requires --n-max >= 21 (got 10)\n")

    def test_theorem2_small_max_at_default_n_max(self):
        code, out, _ = run("verify", "theorem2", "--max", "10")
        assert code == 0
        assert "status = ok" in out

    def test_bounds(self):
        code, _, _ = run("verify", "bounds", "--max", "120")
        assert code == 0

    @pytest.mark.parametrize("hi", [76568, 80000, 10 ** 8])
    def test_bounds_past_the_double_range_fails_before_p(self, monkeypatch,
                                                         hi):
        # From n = 79445 lehmer_bounds raises OverflowError, so --max
        # stops where --n does, before p(n) is computed.
        monkeypatch.setattr("dysonrank.claims.partition_numbers", None)
        monkeypatch.setattr("dysonrank.bounds.lehmer_bounds", None)
        assert run("verify", "bounds", "--max", str(hi)) == (
            2, "", "error: --max must be <= 76567, the largest n whose e^mu "
                   "fits a double\n")

    @pytest.mark.parametrize("argv, message", [
        (("theorem2", "--max", "-5"), "--max must be >= 0 (got -5)"),
        (("conjectures", "--to", "-4", "--n-max", "600"),
         "--to must be >= 0 (got -4)"),
    ])
    def test_negative_range_names_its_flag(self, monkeypatch, argv, message):
        # Refused before any table or column, naming the flag.
        tables = []
        monkeypatch.setattr("dysonrank.claims.table_for",
                            lambda *args: tables.append(args))
        assert (*run("verify", *argv), tables) == (
            2, "", f"error: {message}\n", [])

    def test_budget(self):
        code, out, _ = run("verify", "budget", "--from", "500", "--to",
                           "600", "--step", "50", "--n-max", "600")
        assert code == 0
        assert "result.failures = 0" in out

    def test_budget_below_500_is_a_usage_error(self, monkeypatch):
        # The paper claims the budget for n >= 500 only.
        monkeypatch.setattr("dysonrank.claims.table_for", None)
        code, out, err = run("verify", "budget", "--from", "10", "--to",
                             "40", "--step", "7", "--n-max", "64")
        assert (code, out) == (2, "")
        assert "500 <= --from" in err

    def test_budget_past_the_double_main_term(self, a_third_from_row):
        # A(n) comes from two residue columns, checked here against one
        # rank row.  With the double main term, n = 4347 was a false
        # violation.
        code, out, _ = run("verify", "budget", "--from", "4340", "--to",
                           "4350", "--step", "1", "--n-max", "4350")
        assert code == 0
        assert "result.rows[7].n = 4347" in out
        assert (f"result.rows[7].a_third = {a_third_from_row(4347)}\n"
                in out)
        assert "result.failures = 0" in out

    def test_conjectures_always_exit_zero(self):
        code, out, _ = run("verify", "conjectures", "--max", "20", "--to",
                           "30", "--n-max", "64")
        assert code == 0
        assert "status = ok" in out

    def test_unknown_suite_is_usage_error(self):
        code, _, _ = run("verify", "everything")
        assert code == 2

    @pytest.mark.parametrize("suite, flag", [
        (suite, flag) for suite, reads in VERIFY_READS.items()
        for flag in RANGE_FLAGS if flag not in reads])
    def test_unread_flag_is_refused(self, monkeypatch, suite, flag):
        # Refused before the claim runs, naming the flag, also beside the
        # flags the suite reads.
        monkeypatch.setattr(f"dysonrank.claims.{suite}", None)
        reads = [arg for read in VERIFY_READS[suite] for arg in (read, "40")]
        code, out, err = run("verify", suite, flag, "2", *reads)
        assert (code, out) == (2, "")
        assert err == f"error: verify {suite} does not read {flag}\n"

    @pytest.mark.parametrize("suite", sorted(VERIFY_READS))
    def test_read_flags_reach_the_claim(self, monkeypatch, suite):
        from dysonrank.claims import ClaimRecord
        calls = []

        def claim(**given):
            calls.append(given)
            return ClaimRecord({}, {}, 0)

        monkeypatch.setattr(f"dysonrank.claims.{suite}", claim)
        argv = [arg for i, flag in enumerate(VERIFY_READS[suite], start=2)
                for arg in (flag, str(i))]
        code, _, _ = run("verify", suite, *argv, "--n-max", "99")
        want = {keyword: i for i, keyword in
                enumerate(VERIFY_READS[suite].values(), start=2)}
        # Without range flags the claim runs on its own default ranges,
        # the ones the acceptance criteria check.
        bare_code, _, _ = run("verify", suite)
        bare = {}
        if suite != "bounds":  # the one suite that reads no table
            want["n_max"] = 99
            bare["n_max"] = 1024
        assert (code, bare_code, calls) == (0, 0, [want, bare])


class TestTableCache:
    """Only `rank-table`, the command that prints rank rows, reads or
    writes the cache."""

    def test_cache_created_and_reused(self, tmp_path):
        path = tmp_path / "t.rnkt"
        code, _, _ = run("rank-table", "--n-max", "40", "--table-cache",
                         str(path))
        assert code == 0
        assert load_table(path).n_max == 40
        before = path.read_bytes()
        _, want, _ = run("rank-table", "--from", "22", "--to", "22",
                         "--n-max", "40")
        code, out, _ = run("rank-table", "--from", "22", "--to", "22",
                           "--n-max", "40", "--table-cache", str(path))
        assert code == 0
        assert out == want + f"result.cache = {path}\n"
        assert path.read_bytes() == before  # served from cache, not rebuilt

    def test_rank_table_rebuilds_undersized_cache(self, tmp_path):
        path = tmp_path / "t.rnkt"
        run("rank-table", "--n-max", "40", "--table-cache", str(path))
        code, out, _ = run("rank-table", "--from", "1", "--to", "5",
                           "--n-max", "60", "--table-cache", str(path))
        assert code == 0
        assert "result.n_max = 60\n" in out
        assert load_table(path).n_max == 60

    def test_rank_table_with_oversized_cache_reports_n_max(self, tmp_path):
        path = tmp_path / "t.rnkt"
        run("rank-table", "--n-max", "60", "--table-cache", str(path))
        for window in ((), ("--from", "3", "--to", "5")):
            _, want, _ = run("rank-table", "--n-max", "30", *window)
            code, out, _ = run("rank-table", "--n-max", "30", *window,
                               "--table-cache", str(path))
            assert code == 0
            assert out.replace(f"result.cache = {path}\n", "") == want
            assert "result.partitions_of_n_max = 5604\n" in out
        assert load_table(path).n_max == 60

    def test_corrupt_cache_is_surfaced(self, tmp_path):
        path = tmp_path / "t.rnkt"
        run("rank-table", "--n-max", "30", "--table-cache", str(path))
        path.write_bytes(path.read_bytes()[:10])
        code, _, err = run("rank-table", "--from", "5", "--to", "5",
                           "--n-max", "30", "--table-cache", str(path))
        assert code == 2
        assert "cache" in err

    def test_unreadable_cache_path_is_usage_error(self, tmp_path):
        code, out, err = run("rank-table", "--from", "5", "--to", "5",
                             "--n-max", "10", "--table-cache", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: unusable table cache:")

    @pytest.mark.parametrize("argv", [
        ("count", "--r", "0", "--t", "3", "--n", "13"),
        ("maxn", "--r", "0", "--n", "40", "--show-partitions"),
        ("convexity", "--r", "0", "--max", "30"),
        ("verify", "tables"),
    ])
    @pytest.mark.parametrize("kind", ["corrupt", "directory"])
    def test_counting_commands_ignore_an_unusable_cache(self, tmp_path, argv,
                                                        kind):
        if kind == "corrupt":
            path = tmp_path / "t.rnkt"
            path.write_bytes(b"RNKT\x02\x00")
        else:
            path = tmp_path / "cache"
            path.mkdir()
        before = path.read_bytes() if kind == "corrupt" else []
        want = run(*argv, "--n-max", "64")
        assert want[0] == 0
        assert run(*argv, "--n-max", "64", "--table-cache", str(path)) == want
        after = (path.read_bytes() if kind == "corrupt"
                 else list(path.iterdir()))
        assert after == before
        assert sorted(tmp_path.iterdir()) == [path]


class TestTablePolicy:
    """A call gets a table sized to what it reads.  Residue counts come
    from columns; a row is computed only where it is printed, and with
    a cache the table is built at --n-max."""

    @pytest.fixture()
    def built(self, monkeypatch):
        sizes = []

        def recording(n_max):
            sizes.append(n_max)
            return build_rank_table(n_max)

        monkeypatch.setattr("dysonrank.cli.build_rank_table", recording)
        return sizes

    @pytest.fixture()
    def sized(self, monkeypatch):
        """n_max of every table `core.table_for` hands the CLI or a
        claim."""
        sizes = []

        def recording(need, n_max=None):
            table = table_for(need, n_max)
            sizes.append(table.n_max)
            return table

        monkeypatch.setattr("dysonrank.cli.table_for", recording)
        monkeypatch.setattr("dysonrank.claims.table_for", recording)
        return sizes

    @pytest.fixture()
    def computed_rows(self, monkeypatch):
        """Every n whose rank row is computed."""
        rows = []

        def recording(n):
            rows.append(n)
            return _half_row(n)

        monkeypatch.setattr("dysonrank.core._half_row", recording)
        return rows

    def test_count_builds_to_n(self, built, sized, computed_rows):
        code, out, _ = run("count", "--r", "0", "--t", "3", "--n", "13")
        assert code == 0
        assert "param.n_max = 1024\n" in out
        assert sized == [13]
        assert computed_rows == []
        assert built == []

    def test_verify_tables_builds_to_32(self, built, sized, computed_rows):
        code, _, _ = run("verify", "tables")
        assert code == 0
        assert sized == [32]
        assert computed_rows == []
        assert built == []

    def test_rank_table_builds_to_n_max(self, built, sized):
        code, _, _ = run("rank-table", "--from", "1", "--to", "5",
                         "--n-max", "50")
        assert code == 0
        assert sized == [50]
        assert built == []

    def test_rank_table_computes_only_the_rows_it_prints(self, built,
                                                         computed_rows):
        code, out, _ = run("rank-table", "--from", "1", "--to", "5",
                           "--n-max", "50")
        assert code == 0
        assert "result.partitions_of_n_max = 204226\n" in out
        assert computed_rows == [1, 2, 3, 4, 5]
        assert built == []

    def test_missing_cache_is_built_at_n_max(self, built, tmp_path):
        path = tmp_path / "t.rnkt"
        code, _, _ = run("rank-table", "--from", "13", "--to", "13",
                         "--n-max", "50", "--table-cache", str(path))
        assert code == 0
        assert built == [50]
        assert load_table(path).n_max == 50


class TestTableCeiling:
    """A table past MAX_TABLE_ROWS is refused before any work starts."""

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"built to {n}")

        monkeypatch.setattr("dysonrank.cli.build_rank_table", refuse)
        monkeypatch.setattr("dysonrank.cli.partition_number", refuse)

    def test_count_past_the_ceiling_exits_2(self):
        code, out, err = run("count", "--r", "0", "--t", "3", "--n",
                             "3000000", "--n-max", "3000000")
        assert (code, out) == (2, "")
        assert err == ("error: a rank table to n = 3000000 is past the "
                       f"ceiling of {MAX_TABLE_ROWS} rows; its memory "
                       "grows as n^2\n")

    def test_one_row_past_the_ceiling(self):
        rows = str(MAX_TABLE_ROWS + 1)
        for argv in (("count", "--r", "0", "--t", "3", "--n", rows),
                     ("rank-table",),
                     ("maxn", "--r", "0", "--n", rows),
                     ("verify", "theorem2", "--max", rows)):
            code, out, err = run(*argv, "--n-max", rows)
            assert (code, out) == (2, ""), argv
            assert f"ceiling of {MAX_TABLE_ROWS} rows" in err

    def test_cache_is_sized_by_n_max(self, tmp_path):
        path = tmp_path / "t.rnkt"
        code, _, err = run("rank-table", "--from", "13", "--to", "13",
                           "--n-max", str(MAX_TABLE_ROWS + 1),
                           "--table-cache", str(path))
        assert code == 2
        assert "ceiling" in err
        assert not path.exists()


class TestRankTableCommand:
    def test_summary_only(self):
        code, out, _ = run("rank-table", "--n-max", "20")
        assert code == 0
        assert "result.n_max = 20" in out
        assert "result.partitions_of_n_max = 627" in out

    def test_row_window(self):
        code, out, _ = run("rank-table", "--from", "3", "--to", "4",
                           "--n-max", "16", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert rows[0]["n"] == 3
        assert rows[0]["counts"] == [[-2, 1], [-1, 0], [0, 1], [1, 0], [2, 1]]
        assert rows[1]["n"] == 4
        assert rows[1]["counts"] == [[-3, 1], [-2, 0], [-1, 1], [0, 1],
                                     [1, 1], [2, 0], [3, 1]]

    @pytest.mark.parametrize("fmt, lines", [
        ("text", ["result.rows[0].counts = [[-1,1],[0,0],[1,1]]",
                  "result.rows[1].counts = "
                  "[[-2,1],[-1,0],[0,1],[1,0],[2,1]]"]),
        ("csv", ['result.rows[0].counts,"[[-1,1],[0,0],[1,1]]"',
                 'result.rows[1].counts,"[[-2,1],[-1,0],[0,1],[1,0],[2,1]]"']),
    ])
    def test_rank_rows_print_as_pairs(self, fmt, lines):
        # [m, N(m, n)] pairs, as JSON writes them: not the set of
        # partitions that maxn's optima print as.
        code, out, _ = run("rank-table", "--from", "2", "--to", "3",
                           "--n-max", "3", "--format", fmt)
        assert code == 0
        assert [line for line in out.splitlines()
                if ".counts" in line] == lines

    @pytest.mark.parametrize("lo", ["9", "-1"])
    @pytest.mark.parametrize("command", [("rank-table",),
                                         ("maxn", "--r", "0")],
                             ids=["rank-table", "maxn"])
    def test_bad_window(self, command, lo):
        code, out, err = run(*command, "--from", lo, "--to", "2",
                             "--n-max", "16")
        assert (code, out) == (2, "")
        assert err == "error: range must satisfy 0 <= --from <= --to\n"

    @pytest.mark.parametrize("lo, hi, counts", [
        (0, 1025, 1050626), (1, 1025, 1050625), (46, 1025, 1048600),
        (1024, 3000, 7953471), (0, 5000, 25000001)])
    def test_wide_range_is_refused_before_any_row(self, monkeypatch,
                                                   tmp_path, lo, hi, counts):
        # Row n prints max(2n - 1, 1) counts; rows 0..1024 print
        # 1 + 1024^2, and a range that prints more computes nothing.
        def refuse(*args):
            raise RuntimeError(f"computed {args}")

        monkeypatch.setattr("dysonrank.core.RankTable.row", refuse)
        monkeypatch.setattr("dysonrank.cli.build_rank_table", refuse)
        monkeypatch.setattr("dysonrank.cli.partition_number", refuse)
        path = tmp_path / "t.rnkt"
        for cache in ((), ("--table-cache", str(path))):
            code, out, err = run("rank-table", "--from", str(lo), "--to",
                                 str(hi), "--n-max", "5000", *cache)
            assert (code, out) == (2, "")
            assert err == (f"error: --from {lo} --to {hi} would print "
                           f"{counts} rank counts, more than the 1048577 "
                           "of rows 0..1024; narrow --from/--to\n")
        assert not path.exists()

    @pytest.mark.parametrize("lo, hi", [(0, 1024), (47, 1025), (5000, 5000)])
    def test_ranges_up_to_rows_0_to_1024_print(self, monkeypatch, lo, hi):
        read = []

        def reading(table, n):
            read.append(n)
            return []

        monkeypatch.setattr("dysonrank.core.RankTable.row", reading)
        code, _, _ = run("rank-table", "--from", str(lo), "--to", str(hi),
                         "--n-max", str(hi))
        assert code == 0
        assert read == list(range(lo, hi + 1))


class TestBrokenPipe:
    def test_reader_closing_early_is_not_a_failure(self):
        src = str(Path(dysonrank.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        for argv in (
                # About 150 kB in one write, more than a pipe buffer holds,
                # so the write is still pending when the reader goes away.
                ("rank-table", "--from", "0", "--to", "120", "--n-max",
                 "120"),
                # About 245 kB in four writes of 1024 lines: where a pending
                # write ends quietly when the reader goes away, a later
                # write fails.
                ("maxn", "--r", "0", "--from", "0", "--to", "1000",
                 "--n-max", "1000")):
            with subprocess.Popen(
                    [sys.executable, "-m", "dysonrank", *argv],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    env=env) as proc:
                assert proc.stdout.read(8) == b"command "
                proc.stdout.close()
                err = proc.stderr.read().decode()
                code = proc.wait(timeout=60)
            assert (code, "Traceback" in err) == (0, False), argv


class TestSerialization:
    def test_big_integers_become_decimal_strings(self):
        record = OutputRecord("probe", {"n": 1},
                              {"big": 2 ** 77, "negative": -(2 ** 77),
                               "small": 5})
        raw = json.loads(render(record, "json"))
        assert raw["results"]["big"] == str(2 ** 77)
        assert raw["results"]["negative"] == str(-(2 ** 77))
        assert raw["results"]["small"] == 5

    def test_digit_strings_stay_strings(self):
        # Strings are written as they are, and only integers of 2**53
        # and beyond become strings.
        results = {"cache": "123", "negative": "-7",
                   "edge": str(2 ** 53 - 1), "small": 2 ** 53 - 1}
        record = OutputRecord("rank-table", {}, results)
        assert json.loads(render(record, "json"))["results"] == results

    def test_digit_cache_path_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run("rank-table", "--n-max", "12", "--table-cache",
                           "123", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["cache"] == "123"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_tuples_render_as_lists(self, fmt):
        # A record keeps the values its handler built, so a tuple reaches
        # the renderers; each must write it as it writes the list.  Only
        # the items of a sequence of integer sequences keep their kind:
        # text and CSV print tuples as a set and lists as JSON writes them.
        def results(seq):
            return {"partition": seq((7, 7)),
                    "optima": seq(((7, 7), (14,))),
                    "empty": seq(()),
                    "big": seq((2 ** 77, -(2 ** 60), 5)),
                    "rows": seq(({"n": 1, "counts": seq(([0, 1],))},)),
                    "mixed": seq((1, "a", seq((2, 3))))}
        as_tuples = OutputRecord("probe", {"pair": (1, 2)}, results(tuple))
        as_lists = OutputRecord("probe", {"pair": [1, 2]}, results(list))
        assert render(as_tuples, fmt) == render(as_lists, fmt)
        kinds = OutputRecord("probe", {}, {"sets": [(7, 7), (14,)],
                                           "pairs": [[7, 7], [14]]})
        if fmt == "json":
            assert json.loads(render(kinds, fmt))["results"] == {
                "sets": [[7, 7], [14]], "pairs": [[7, 7], [14]]}
        else:
            sets, pairs = render(kinds, fmt).splitlines()[-2:]
            assert "{(7,7) (14)}" in sets and "[[7,7],[14]]" in pairs

    def test_render_dispatch(self):
        record = OutputRecord("probe", {"a": 1}, {"b": True})
        assert render(record, "text").startswith("command = probe")
        assert render(record, "csv").startswith("key,value")
        assert json.loads(render(record, "json"))["status"] == "ok"


class TestParserBasics:
    def test_missing_subcommand(self):
        code, _, _ = run()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_version(self):
        code, out, _ = run("--version")
        assert code == 0
        assert "dysonrank" in out

    @pytest.mark.parametrize("argv", ABBREVIATED)
    def test_abbreviated_flags_are_refused(self, argv):
        # A prefix is not read as the flag it starts: argparse refuses it.
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.endswith("\ndysonrank: error: unrecognized arguments: "
                            f"{' '.join(argv[-2:])}\n")


CI_CHECKS = Path(__file__).resolve().parents[1] / "tools" / "ci_checks.py"


def ci_cli_calls() -> list[tuple[str, list[str]]]:
    """(helper, argv) of every CLI call in tools/ci_checks.py: the
    arguments of each `dysonrank(...)` and `refused(...)` call.  A name
    stands in for the value it holds at run time, such as a cache path;
    any other argument raises ValueError."""
    def literal(node: ast.expr) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return node.id
        raise ValueError(f"not a literal argument: {ast.unparse(node)}")

    calls = []
    for node in ast.walk(ast.parse(CI_CHECKS.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("dysonrank", "refused"):
            calls.append((node.func.id, [literal(a) for a in node.args]))
    return calls


def parse_exit(argv: list[str]) -> int | None:
    """None if build_parser() accepts argv, else argparse's exit code
    (0 for --version); no handler runs."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
    return None


class TestWorkflowCommandLines:
    def test_every_cli_line_in_ci_parses(self):
        # So a refused(...) call exits 2 for its own reason, not for a
        # flag the CLI lacks.
        calls = ci_cli_calls()
        assert [(helper, argv) for helper, argv in calls
                if parse_exit(argv) is not None] == []
        assert {helper for helper, _ in calls} == {"dysonrank", "refused"}
        # No call goes missing unnoticed: 18 in all.
        assert len(calls) == 18

    def test_a_flag_the_cli_lacks_fails_to_parse(self):
        assert parse_exit(["count", "--r", "0", "--t", "3", "--n", "1"]) \
            is None
        assert parse_exit(["verify", "bounds", "--bogus", "9"]) == 2
        assert parse_exit(["--version"]) == 0
