"""What a workload is made of, and how its outputs are judged."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable

# Floats from the package must match recorded or recomputed values to
# this relative tolerance; integers, booleans and strings match exactly.
FLOAT_REL_TOL = 1e-9


@dataclass
class Op:
    """One operation of a workload.

    call(package, ctx) is the timed part: it makes the calls into the
    package and returns their raw output.  ctx is shared by the ops of
    one pass (the claims workload keeps its rank table there).  Every
    other field is used after the timed region.
    """
    key: str
    call: Callable[[Any, dict], Any]
    verify: Callable[[Any, Any], list[str]]
    summarize: Callable[[Any], Any] = lambda raw: raw
    count: Callable[[Any], dict[str, int]] = lambda raw: {}
    golden: bool = True
    span: str = "op"
    attrs: dict = field(default_factory=dict)


def digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)


def compare(expected: Any, actual: Any, path: str = "") -> list[str]:
    """Differences between a recorded value and a new one: floats within
    FLOAT_REL_TOL, everything else exactly, lists and dicts element by
    element."""
    if isinstance(expected, float) or isinstance(actual, float):
        ok = (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
              and not isinstance(expected, bool) and not isinstance(actual, bool)
              and close(float(expected), float(actual)))
        return [] if ok else [f"{path or 'value'}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path or 'value'}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path or 'value'}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path or 'value'}: expected {expected!r}, got {actual!r}"]
    return []


def expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
