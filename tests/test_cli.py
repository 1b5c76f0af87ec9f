"""End-to-end command-line behavior: output formats, golden strings,
serialization round trips, exit codes, and the table cache, which only
the row-printing commands read."""

from __future__ import annotations

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
    main,
    record_from_json,
    record_to_json,
    render,
)


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
        record = record_from_json(out)
        assert record.command == "count"
        assert record.status == "ok"
        assert record.results["count"] == 211
        assert record_from_json(record_to_json(record)) == record

    def test_show_row(self):
        _, out, _ = run("count", "--r", "0", "--t", "3", "--n", "4",
                        "--n-max", "16", "--show-row", "--format", "json")
        record = record_from_json(out)
        assert record.results["row"] == [[-3, 1], [-2, 0], [-1, 1], [0, 1],
                                         [1, 1], [2, 0], [3, 1]]

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
        record = record_from_json(out)
        assert len(record.results["rows"]) == 8
        assert record.results["closed_form_disagreements"] == 0

    def test_multi_optima_listed(self):
        _, out, _ = run("maxn", "--r", "0", "--t", "3", "--n", "16",
                        "--n-max", "32", "--show-partitions", "--format",
                        "json")
        record = record_from_json(out)
        assert record.results["rows"][0]["optima"] == [[4, 4, 4, 4], [16]]

    def test_n_and_range_conflict(self):
        code, _, err = run("maxn", "--r", "0", "--n", "5", "--to", "9",
                           "--n-max", "16")
        assert code == 2
        assert "not both" in err


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
        t = MAX_TABLE_ROWS + 1
        for fmt in ("text", "json"):
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
        code, out, err = run("verify", "theorem2", "--max", "10",
                             "--n-max", "10")
        assert code == 2
        assert out == ""
        assert "requires --n-max >= 21" in err

    def test_theorem2_small_max_at_default_n_max(self):
        code, out, _ = run("verify", "theorem2", "--max", "10")
        assert code == 0
        assert "status = ok" in out

    def test_bounds(self):
        code, _, _ = run("verify", "bounds", "--max", "120")
        assert code == 0

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


class TestTableCache:
    """Only the commands that print rank rows read or write the cache:
    `rank-table` and `count --show-row`."""

    def test_cache_created_and_reused(self, tmp_path):
        path = tmp_path / "t.rnkt"
        code, _, _ = run("rank-table", "--n-max", "40", "--table-cache",
                         str(path))
        assert code == 0
        assert load_table(path).n_max == 40
        before = path.read_bytes()
        code, out, _ = run("count", "--r", "0", "--t", "3", "--n", "22",
                           "--n-max", "40", "--show-row", "--table-cache",
                           str(path))
        assert code == 0
        assert "result.count = 340" in out
        assert path.read_bytes() == before  # served from cache, not rebuilt

    def test_undersized_cache_is_rebuilt(self, tmp_path):
        path = tmp_path / "t.rnkt"
        run("rank-table", "--n-max", "30", "--table-cache", str(path))
        code, out, _ = run("count", "--r", "0", "--t", "3", "--n", "50",
                           "--n-max", "60", "--show-row", "--table-cache",
                           str(path))
        assert code == 0
        assert load_table(path).n_max == 60

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
        code, _, err = run("count", "--r", "0", "--t", "3", "--n", "5",
                           "--n-max", "30", "--show-row", "--table-cache",
                           str(path))
        assert code == 2
        assert "cache" in err

    def test_unreadable_cache_path_is_usage_error(self, tmp_path):
        code, out, err = run("count", "--r", "0", "--t", "3", "--n", "5",
                             "--n-max", "10", "--show-row", "--table-cache",
                             str(tmp_path))
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

        def recording(p, n):
            rows.append(n)
            return _half_row(p, n)

        monkeypatch.setattr("dysonrank.core._half_row", recording)
        return rows

    def test_count_builds_to_n(self, built, sized, computed_rows):
        code, out, _ = run("count", "--r", "0", "--t", "3", "--n", "13",
                           "--show-row")
        assert code == 0
        assert "param.n_max = 1024\n" in out
        assert sized == [13]
        assert computed_rows == [13]
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
        code, _, _ = run("count", "--r", "0", "--t", "3", "--n", "13",
                         "--n-max", "50", "--show-row", "--table-cache",
                         str(path))
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
        code, _, err = run("count", "--r", "0", "--t", "3", "--n", "13",
                           "--n-max", str(MAX_TABLE_ROWS + 1), "--show-row",
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
        record = record_from_json(out)
        rows = record.results["rows"]
        assert rows[0]["n"] == 3
        assert rows[0]["counts"] == [[-2, 1], [-1, 0], [0, 1], [1, 0], [2, 1]]
        assert rows[1]["n"] == 4

    def test_bad_window(self):
        code, _, err = run("rank-table", "--from", "9", "--to", "2",
                           "--n-max", "16")
        assert code == 2
        assert "range" in err


class TestBrokenPipe:
    def test_reader_closing_early_is_not_a_failure(self):
        # About 150 kB of stdout, more than a pipe buffer holds, so the
        # write is still pending when the reader goes away.
        src = str(Path(dysonrank.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        with subprocess.Popen(
                [sys.executable, "-m", "dysonrank", "rank-table", "--from",
                 "0", "--to", "120", "--n-max", "120"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert proc.stdout.read(8) == b"command "
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 0
        assert "Traceback" not in err


class TestSerialization:
    def test_big_integers_become_decimal_strings(self):
        record = OutputRecord("probe", {"n": 1},
                              {"big": 2 ** 77, "negative": -(2 ** 77),
                               "small": 5})
        raw = json.loads(record_to_json(record))
        assert raw["results"]["big"] == str(2 ** 77)
        assert raw["results"]["negative"] == str(-(2 ** 77))
        assert raw["results"]["small"] == 5
        assert record_from_json(record_to_json(record)) == record

    def test_digit_strings_stay_strings(self):
        # Only integers of 2**53 and beyond are written as strings, so
        # only those are read back as integers.
        record = OutputRecord("rank-table", {},
                              {"cache": "123", "negative": "-7",
                               "edge": str(2 ** 53 - 1)})
        assert record_from_json(record_to_json(record)) == record

    def test_digit_cache_path_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run("rank-table", "--n-max", "12", "--table-cache",
                           "123", "--format", "json")
        assert code == 0
        assert record_from_json(out).results["cache"] == "123"

    def test_tuples_normalize_to_lists(self):
        record = OutputRecord("probe", {}, {"optima": ((7, 7), (14,))})
        assert record.results["optima"] == [[7, 7], [14]]

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
