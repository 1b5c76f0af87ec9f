"""Shared fixtures: one small table for unit tests, one 2000-row table
built by the rank-tail recurrence for the tests that read its rows, and
a terminal section that prints a pass/fail line per acceptance
criterion."""

from __future__ import annotations

import time

import pytest

from dysonrank import RankTable, build_rank_table
from oracles import a_third

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def table() -> RankTable:
    """Counts up to n = 240; enough for every unit test."""
    return build_rank_table(240)


@pytest.fixture(scope="session")
def a_third_from_row():
    """N(0,3;n) - N(1,3;n) from the single Atkin-Swinnerton-Dyer row n,
    for n past any table a test builds."""
    return a_third


@pytest.fixture(scope="session")
def big_table() -> RankTable:
    """Counts up to n = 2000, every row built; the tests that read only
    counts take a table without rows instead."""
    return build_rank_table(2000)


@pytest.fixture()
def criterion():
    """Callable recording one acceptance-criterion outcome and its runtime
    since this fixture's set-up (after any session table is built).  A
    `limit` gates that runtime; the line is stored before the assert
    fires, so failures still print."""
    start = time.perf_counter()

    def record(number: int, description: str, ok: bool, note: str = "",
               limit: float | None = None) -> None:
        elapsed = time.perf_counter() - start
        ok = ok and (limit is None or elapsed < limit)
        notes = f"{elapsed:.2f}s" + (f"; {note}" if note else "")
        verdict = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES.append(
            f"criterion {number:2d} {verdict}: {description}  [{notes}]")
        assert ok, f"acceptance criterion {number} failed: {description}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
