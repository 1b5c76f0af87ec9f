"""What the package imports, and when: a CLI call loads only the modules
its subcommand runs, `import dysonrank` resolves its public names on
first access, and the reports those names return cannot be mutated.
Also the process entry: `python -m dysonrank` and the `dysonrank`
script both run `cli.run`, which ends with a frozen heap, while
in-process `cli.main` never freezes."""

from __future__ import annotations

import ast
import contextlib
import gc
import io
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dysonrank
from dysonrank import bounds, claims, cli, convexity, core, maxprod

# Runs `python -m dysonrank ARGS` through runpy, the way -m does, then
# prints the exit code, how many objects the heap holds frozen and every
# module the process holds.
_PROBE = """\
import gc, io, runpy, sys
sys.argv = ["dysonrank", *sys.argv[1:]]
out, sys.stdout = sys.stdout, io.StringIO()
try:
    runpy.run_module("dysonrank", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout = out
print(code)
print(gc.get_freeze_count())
print(*sorted(sys.modules))
"""

_LIBRARY = ("dysonrank.bounds", "dysonrank.maxprod", "dysonrank.claims",
            "dysonrank.cache", "dysonrank.convexity", "dysonrank.reference")


def _env() -> dict[str, str]:
    """This environment, with the package's source first on the path."""
    src = str(Path(dysonrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def probe(*argv: str) -> tuple[str, int, set[str]]:
    """The exit code of a fresh `python -m dysonrank ARGV`, the number of
    objects frozen when it exits, and the modules it has loaded."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=_env(),
                          timeout=120, check=True)
    code, frozen, modules = proc.stdout.splitlines()
    return code, int(frozen), set(modules.split())


def loaded_modules(*argv: str) -> set[str]:
    """The modules a fresh `python -m dysonrank ARGV` has loaded when it
    exits; the call itself must succeed."""
    code, _, modules = probe(*argv)
    assert code == "0"
    return modules


class TestImportBudget:
    @pytest.mark.parametrize("argv", [
        ("count", "--r", "0", "--t", "3", "--n", "13"),
        ("rank-table", "--from", "3", "--to", "5", "--n-max", "5"),
    ])
    def test_table_commands_load_only_core(self, argv):
        modules = loaded_modules(*argv)
        assert "dysonrank.core" in modules
        assert not modules & {"cmath", "dataclasses", "inspect", *_LIBRARY}

    @pytest.mark.parametrize("argv", [
        ("maxn", "--r", "0", "--n", "40"),
        ("bounds", "--n", "600"),
        ("convexity", "--r", "0", "--max", "40"),
        ("verify", "tables"),
    ])
    def test_no_command_loads_dataclasses(self, argv):
        assert "dataclasses" not in loaded_modules(*argv)

    @pytest.mark.parametrize("argv, unused", [
        (("bounds", "--n", "600"), {"dysonrank.convexity"}),
        (("convexity", "--r", "0", "--max", "40"), set()),
    ])
    def test_claims_load_only_the_suites_they_run(self, argv, unused):
        modules = loaded_modules(*argv)
        assert "dysonrank.claims" in modules
        assert not modules & {"dysonrank.maxprod", "dysonrank.reference",
                              "dysonrank.cache", *unused}

    @pytest.mark.parametrize("argv", [
        ("verify", "tables"),
        ("convexity", "--r", "0", "--max", "40"),
    ])
    def test_table_claims_load_no_bounds(self, argv):
        modules = loaded_modules(*argv)
        assert "dysonrank.claims" in modules
        assert "dysonrank.bounds" not in modules

    def test_decomposition_check_loads_no_cmath(self):
        # The check compares integer class sums; no float route is left.
        probe = """\
import sys
from dysonrank import build_rank_table, decomposition_check
table = build_rank_table(30)
assert all(decomposition_check(table, r, 7, 30) for r in range(7))
assert "cmath" not in sys.modules
"""
        subprocess.run([sys.executable, "-c", probe], env=_env(),
                       check=True, timeout=60)

    def test_text_output_loads_no_serializer(self):
        modules = loaded_modules("count", "--r", "0", "--t", "3", "--n", "13")
        assert not modules & {"json", "csv"}


# One call for each way a process ends, with its exit code: success, a
# UsageError, argparse's own error and --version.
_WAYS_OUT = ((("count", "--r", "0", "--t", "3", "--n", "13"), "0"),
             (("count", "--r", "0", "--t", "3", "--n", "-1"), "2"),
             (("count", "--r", "x", "--t", "3", "--n", "1"), "2"),
             (("--version",), "0"))


class TestProcessEntry:
    @pytest.mark.parametrize("argv, want", _WAYS_OUT)
    def test_every_way_out_freezes_the_heap(self, argv, want):
        code, frozen, _ = probe(*argv)
        assert code == want
        assert frozen > 0

    @pytest.mark.parametrize("argv", [argv for argv, _ in _WAYS_OUT])
    def test_in_process_main_never_freezes(self, argv):
        before = gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                contextlib.suppress(SystemExit):
            cli.main(list(argv))
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv", [
        ("count", "--r", "0", "--t", "3", "--n", "13"),
        ("rank-table", "--from", "3", "--to", "5", "--n-max", "5"),
        ("maxn", "--r", "0", "--n", "40"),
        ("convexity", "--r", "0", "--max", "40"),
        ("bounds", "--n", "600", "--format", "json"),
        ("verify", "tables"),
    ], ids=lambda argv: argv[0])
    def test_module_prints_the_bytes_main_prints(self, argv):
        proc = subprocess.run([sys.executable, "-m", "dysonrank", *argv],
                              capture_output=True, env=_env(), timeout=120)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        assert (proc.returncode, proc.stdout) == (code,
                                                  out.getvalue().encode())

    def test_script_and_module_enter_through_one_function(self):
        # __main__.py imports one name from .cli and exits with its value;
        # pyproject.toml's console script must name that same function.
        # Read line by line: Python 3.10 has no tomllib.
        package = Path(dysonrank.__file__).resolve().parent
        tree = ast.parse((package / "__main__.py").read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "cli" for alias in node.names]
        called = [node.args[0].func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "sys.exit"]
        assert imported == called == ["run"]
        lines = (package.parents[1] / "pyproject.toml").read_text() \
            .splitlines()
        section = lines[lines.index("[project.scripts]") + 1:]
        scripts = section[:next((i for i, line in enumerate(section)
                                 if line.startswith("[")), len(section))]
        assert [line for line in scripts if line.strip()] == \
            ['dysonrank = "dysonrank.cli:run"']


class TestLazyNamespace:
    def test_import_loads_no_submodule_until_a_name_is_read(self):
        probe = """\
import sys
import dysonrank
assert not [m for m in sys.modules if m.startswith("dysonrank.")]
assert dysonrank.max_table is dysonrank.maxprod.max_table
loaded = sorted(m for m in sys.modules if m.startswith("dysonrank."))
assert loaded == ["dysonrank.core", "dysonrank.maxprod",
                  "dysonrank.reference"], loaded
assert dysonrank.bounds.main_term is dysonrank.main_term
"""
        subprocess.run([sys.executable, "-c", probe], env=_env(),
                       check=True, timeout=60)

    @pytest.mark.parametrize(
        "name", sorted(set(dysonrank.__all__) - {"__version__"}))
    def test_every_public_name_is_its_home_object(self, name):
        home = import_module(f"dysonrank.{dysonrank._HOME[name]}")
        value = getattr(dysonrank, name)
        assert value is getattr(home, name)
        if callable(value):
            assert value.__module__ == home.__name__

    @pytest.mark.parametrize("module", sorted(dysonrank._EXPORTS))
    def test_submodule_all_is_its_exports_entry(self, module):
        # A name a submodule lists as public resolves from the package.
        home = import_module(f"dysonrank.{module}")
        if hasattr(home, "__all__"):
            assert sorted(home.__all__) == sorted(dysonrank._EXPORTS[module])

    def test_named_examples(self):
        assert dysonrank.max_table is maxprod.max_table
        assert dysonrank.build_rank_table is core.build_rank_table
        assert dysonrank.BUDGET_CAP is bounds.BUDGET_CAP

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from dysonrank import *", namespace)
        assert set(dysonrank.__all__) <= set(namespace)
        assert namespace["__version__"] == dysonrank.__version__

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dysonrank.no_such_name  # noqa: B018
        assert not hasattr(dysonrank, "no_such_name")

    def test_dir_lists_the_public_names_and_home_modules(self):
        assert {*dysonrank.__all__, "bounds", "cache", "convexity", "core",
                "maxprod"} <= set(dir(dysonrank))


class TestReportsAreImmutable:
    def test_convexity_report(self, table):
        report = convexity.scan_region(table, 0, 3, 12, 40)
        with pytest.raises(AttributeError):
            report.pairs_checked = 0

    def test_verification_report(self, table):
        report = maxprod.verify_closed_forms(table, 0, 60)
        with pytest.raises(AttributeError):
            report.checked = 0

    def test_claim_record(self):
        record = claims.tables()
        with pytest.raises(AttributeError):
            record.failures = 0

    def test_value_records(self, table):
        for value, field in ((bounds.lehmer_bounds(500), "mu"),
                             (bounds.error_budget(500), "total"),
                             (maxprod.max_table(table, 0, 3, 5)[5], "value")):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
