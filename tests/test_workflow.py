"""What this machine can check of CI's Python matrix: the grammar of
its Python 3.10 leg."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_python_file_parses_as_python_3_10():
    # Grammar only: the 3.10 library is not checked here.
    files = [path for top in ("src", "tests", "perfbench", "tools")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
