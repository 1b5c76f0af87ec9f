"""The CI workflow as this machine can check it: tools/run_workflow.py's
reader, and the grammar of the Python 3.10 leg of the matrix.  No test
here runs a workflow step."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "run_workflow", ROOT / "tools" / "run_workflow.py")
run_workflow = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_workflow)

STEP_NAMES = [
    "Install",
    "Console script smoke",
    "Early-closed pipe exits 0 without a traceback",
    "Theorem 2 and t = 2 conjecture checks exit 0 with status ok",
    "Theorem 2 and maxN at the 5000-row ceiling",
    "maxN range and a rank row at the 5000-row ceiling",
    "rank-table prints rows 0..1024 and refuses a wider range before any "
    "row",
    "A built and saved 2000-row table prints the rows lone reads print",
    "Dense budget and a wide maxN range at the 5000-row ceiling",
    "bounds past the double range exits 2 without a traceback",
    "verify bounds runs to the double range and refuses past it",
    "Abbreviated flags exit 2 without a traceback",
    "maxn optima, t = 2 convexity suite and the table ceiling",
    "verify refuses unread flags; a truncated optima set is the first 64",
    "maxn --show-partitions over a range prints at most as many parts as "
    "rank-table prints counts",
    "Refusals of the range policy exit 2 without a traceback",
    "Convexity scan finds the paper's boundary violations and none past "
    "the thresholds",
    "Convexity scans to 2500 at the 5000-row ceiling",
    "verify budget at n = 4347 reads residue columns, not a table",
    "Dyson's series at z = w equals N(0,3;n) - N(1,3;n) to 20000",
    "The residue envelope's integer edges give the float edges' verdicts "
    "to 20000",
    "claims-1000 benchmark pass is correct",
    "cli-session benchmark pass is correct",
    "analytic-dense benchmark pass is correct",
    "Tier-1 tests",
    "Benchmark self-tests (smoke sizes)",
]

WORKFLOW = """\
jobs:
  tests:
    steps:
      - uses: actions/checkout@v4
      - name: A step
        shell: bash
{extra}        run: |
          echo one
"""


class TestReader:
    def test_reads_the_workflow_steps_in_order(self):
        steps = run_workflow.read_steps(run_workflow.WORKFLOW.read_text())
        assert [s.name for s in steps if s.name] == STEP_NAMES
        assert [s.skip for s in steps[:3]] == [
            "uses actions/checkout@v4", "uses actions/setup-python@v5",
            "needs the network"]
        assert [s.name for s in steps[:2]] == [None, None]
        assert all(s.skip is None and s.run for s in steps[3:])
        # A `|` block loses the indentation of its first line, so a
        # heredoc's closing EOF starts its line.
        dyson = steps[STEP_NAMES.index("Dyson's series at z = w equals "
                                       "N(0,3;n) - N(1,3;n) to 20000") + 2]
        assert dyson.shell == "bash"
        assert "\nfrom oracles import dyson_a_third\n" in dyson.run
        assert dyson.run.endswith("\nEOF\n")

    def test_reads_a_plain_step(self):
        steps = run_workflow.read_steps(WORKFLOW.format(extra=""))
        assert steps[1] == run_workflow.Step("A step", "echo one\n", "bash",
                                             None)

    @pytest.mark.parametrize("extra", [
        "        if: always()\n",
        "        env:\n          ANSWER: 42\n"])
    def test_refuses_a_key_it_does_not_know(self, extra):
        key = extra.split(":")[0].strip()
        with pytest.raises(run_workflow.WorkflowError, match=key):
            run_workflow.read_steps(WORKFLOW.format(extra=extra))


def test_every_python_file_parses_as_python_3_10():
    # Grammar only: the 3.10 library is not checked here.
    files = [path for top in ("src", "tests", "perfbench", "tools")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
