"""Run the steps of .github/workflows/tests.yml on this machine.

    python tools/run_workflow.py

A small line reader takes each step's `name`, `shell` and `run` from the
workflow and refuses any key or value form it does not know, so a step
that would run differently on a runner is never run here as if it were
plain.  Each step runs in the checkout as the runner runs it: `bash
--noprofile --norc -eo pipefail` for `shell: bash`, `bash -e` otherwise.
The steps share one fresh RUNNER_TEMP, and PATH starts with a
`dysonrank` that runs `python -m dysonrank` from src/ and a `python`
that is the interpreter running this script.  The `uses:` steps (the
checkout and the Python set-up) and Install, which needs the network,
are skipped and listed as skipped.  Only this interpreter's leg of the
Python matrix runs.

The summary gives each step's exit code and seconds and the interpreter.
The script exits 1 if a step fails and 2 if the workflow cannot be read.
Standard library only.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Steps that cannot run here, by name, and why.
SKIPPED = {"Install": "needs the network"}
# The keys a step may carry: a `uses:` step, or a step that runs.
USES_KEYS = {"uses", "with", "name"}
RUN_KEYS = {"name", "shell", "run"}


class WorkflowError(ValueError):
    """The workflow holds something the reader does not know."""


class Step(NamedTuple):
    name: str | None
    run: str | None
    shell: str | None
    skip: str | None  # why the step does not run here


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _key_value(text: str, lineno: int) -> tuple[str, str]:
    key, colon, value = text.partition(":")
    if not colon or not key.replace("-", "").replace("_", "").isalnum() \
            or value[:1] not in ("", " "):
        raise WorkflowError(f"line {lineno}: not a 'key: value' line")
    value = value.strip()
    if value != "|" and (value[:1] in set("|>\"'&*!{[%@`") or " #" in value):
        raise WorkflowError(f"line {lineno}: unsupported value {value!r}")
    return key, value


def _step(keys: dict[str, str], lineno: int) -> Step:
    name = keys.get("name")
    if "uses" in keys:
        allowed, skip = USES_KEYS, f"uses {keys['uses']}"
    else:
        allowed, skip = RUN_KEYS, SKIPPED.get(name)
        if "run" not in keys or name is None:
            raise WorkflowError(f"line {lineno}: a step needs name and run")
        if keys.get("shell", "bash") != "bash":
            raise WorkflowError(f"line {lineno}: shell {keys['shell']!r}")
    unknown = sorted(keys.keys() - allowed)
    if unknown:
        raise WorkflowError(f"line {lineno}: unsupported step key "
                            f"{', '.join(unknown)}")
    return Step(name, keys.get("run"), keys.get("shell"), skip)


def read_steps(text: str) -> list[Step]:
    """The steps of the workflow's one job, in order."""
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if line.strip() == "steps:"]
    if len(starts) != 1:
        raise WorkflowError("expected one 'steps:' line")
    i = starts[0] + 1
    outer = _indent(lines[starts[0]])
    item = key_indent = None
    steps: list[Step] = []
    keys: dict[str, str] = {}
    first = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        i += 1
        lineno = i
        if not stripped or stripped.startswith("#"):
            continue
        indent = _indent(line)
        if indent <= outer:
            break
        if item is None:
            item, key_indent = indent, indent + 2
        if indent == item and stripped.startswith("- "):
            if keys:
                steps.append(_step(keys, first))
            keys, first = {}, lineno
            stripped = stripped[2:]
        elif indent != key_indent:
            raise WorkflowError(f"line {lineno}: unexpected indentation")
        key, value = _key_value(stripped, lineno)
        if key in keys:
            raise WorkflowError(f"line {lineno}: repeated key {key}")
        # Lines indented past the key: a `|` block, or `with:`'s mapping.
        nested = []
        while i < len(lines) and (not lines[i].strip()
                                  or _indent(lines[i]) > key_indent):
            nested.append(lines[i])
            i += 1
        while nested and not nested[-1].strip():
            nested.pop()
        if value == "|":
            if not nested:
                raise WorkflowError(f"line {lineno}: empty block")
            cut = _indent(nested[0])
            if any(n.strip() and _indent(n) < cut for n in nested):
                raise WorkflowError(f"line {lineno}: block under-indented")
            value = "\n".join(n[cut:] for n in nested) + "\n"
        elif any(not n.strip().startswith("#") for n in nested) \
                and not (key == "with" and not value):
            raise WorkflowError(f"line {lineno}: nested lines under {key}")
        keys[key] = value
    if keys:
        steps.append(_step(keys, first))
    return steps


def _shim(path: Path, body: str) -> None:
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(0o755)


def run_steps(steps: list[Step]) -> int:
    """Run every step not skipped, print the summary, and return the
    exit code: 1 if a step failed, else 0."""
    python = shlex.quote(sys.executable)
    rows = []
    with tempfile.TemporaryDirectory(prefix="run_workflow-") as tmp:
        bin_dir = Path(tmp, "bin")
        runner_temp = Path(tmp, "runner-temp")
        bin_dir.mkdir()
        runner_temp.mkdir()
        src = shlex.quote(str(ROOT / "src"))
        _shim(bin_dir / "dysonrank",
              f'PYTHONPATH={src}"${{PYTHONPATH:+:$PYTHONPATH}}" '
              f'exec {python} -m dysonrank "$@"')
        _shim(bin_dir / "python", f'exec {python} "$@"')
        env = dict(os.environ, RUNNER_TEMP=str(runner_temp),
                   PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
        for number, step in enumerate(steps, start=1):
            if step.skip:
                rows.append(("skip", "-", f"{step.name}: {step.skip}"
                             if step.name else step.skip))
                continue
            script = Path(tmp, f"step-{number}.sh")
            script.write_text(step.run)
            flags = ["--noprofile", "--norc", "-eo", "pipefail"] \
                if step.shell == "bash" else ["-e"]
            print(f"== {step.name}", flush=True)
            start = time.perf_counter()
            code = subprocess.run(["bash", *flags, str(script)], cwd=ROOT,
                                  env=env, stdin=subprocess.DEVNULL
                                  ).returncode
            rows.append((str(code), f"{time.perf_counter() - start:.2f}",
                         step.name))
    version = sys.version.split()[0]
    print(f"\ninterpreter: {sys.executable} (Python {version})")
    print(f"{'exit':>4}  {'seconds':>7}  step")
    for code, seconds, label in rows:
        print(f"{code:>4}  {seconds:>7}  {label}")
    failed = sum(code not in ("0", "skip") for code, _, _ in rows)
    skipped = sum(code == "skip" for code, _, _ in rows)
    print(f"{len(rows) - skipped} steps run, {failed} failed, "
          f"{skipped} skipped")
    return 1 if failed else 0


def main() -> int:
    try:
        steps = read_steps(WORKFLOW.read_text())
    except WorkflowError as exc:
        print(f"{WORKFLOW}: {exc}", file=sys.stderr)
        return 2
    return run_steps(steps)


if __name__ == "__main__":
    sys.exit(main())
