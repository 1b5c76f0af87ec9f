"""README.md's examples, run as written: the quick start's `>>>` lines as
doctests, and each `$ dysonrank ARGS` line through `cli.main`."""

from __future__ import annotations

import argparse
import contextlib
import doctest
import io
import shlex
from pathlib import Path

import pytest

from dysonrank.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def shell_examples() -> list[tuple[str, list[str]]]:
    """(command, shown lines) for each `$ dysonrank` line of a fenced
    block; its shown lines run up to the next blank line, `$` line or
    fence."""
    examples: list[tuple[str, list[str]]] = []
    fenced = False
    shown: list[str] | None = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ dysonrank "):
            shown = []
            examples.append((line[len("$ dysonrank "):], shown))
        elif shown is not None and line.strip():
            shown.append(line)
        else:
            shown = None
    return examples


EXAMPLES = shell_examples()


def test_quick_start_runs_as_doctests():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 15
    assert result.failed == 0


def test_every_command_has_an_example():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert {shlex.split(command)[0] for command, _ in EXAMPLES} == set(commands)


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_shell_example_prints_what_it_shows(command, shown):
    # `; echo $?` shows the exit code as the last line; without it the
    # call must exit 0.  `2>&1` puts stderr's lines before stdout's.
    expected_code = 0
    if command.endswith("; echo $?"):
        command = command[:-len("; echo $?")]
        expected_code, shown = int(shown[-1]), shown[:-1]
    argv = shlex.split(command)
    merged = argv[-1] == "2>&1"
    if merged:
        argv.pop()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    printed = ((err.getvalue() if merged else "") + out.getvalue()).splitlines()
    assert code == expected_code
    # Every shown line is a whole printed line, in the printed order.
    remaining = iter(printed)
    missing = [line for line in shown if line not in remaining]
    assert not missing, printed
