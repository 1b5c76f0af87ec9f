"""One pass of one workload, in the fresh process that run.py starts.

Prints one JSON line: the CPU time spent up to the first operation
(set-up), the CPU and wall time of the operations and of each
operation, what the checks found, and the host's speed (calib.py).
With --trace it
also returns spans and counters; with --setup-only it stops right
before the first operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import claims
from calib import Calibrator
import dense
import session
from oracle import Oracle
from ops import compare
from spans import TracedPackage, Tracer

WORKLOADS = {"claims-1000": claims, "analytic-dense": dense, "cli-session": session}
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK = ROOT / ".perfbench_work"
STARTUP_PROBES = 5
# Report at most this many failure messages per pass.
MAX_MESSAGES = 20


def cpu_ns() -> int:
    """CPU time, user and system, of this process and of the children it
    has waited for.  Unlike wall time it does not grow while the
    virtual CPU is descheduled by the host."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((ru.ru_utime + ru.ru_stime) * 1e9)


def _json_value(value):
    return json.loads(json.dumps(value))


def _probes(package, tracer: Tracer, workdir: str, smoke: bool) -> dict:
    """Traced cli-session only, after the timed session: a fresh
    `import dysonrank.cli`, and the cache functions called directly at
    the --n-max the cached queries use."""
    starts = []
    for _ in range(STARTUP_PROBES):
        t0 = time.monotonic_ns()
        subprocess.run([sys.executable, "-c", "import dysonrank.cli"], check=True,
                       timeout=60)
        starts.append(time.monotonic_ns() - t0)
    n_max = (session.SMOKE if smoke else session.FULL)["cache_n_max"]
    table = package.build_rank_table(n_max)
    path = os.path.join(workdir, "probe.bin")
    traced = TracedPackage(package, tracer)
    with tracer.span("probe.cache"):
        traced.save_table(table, path)
        loaded = traced.load_table(path)
    if loaded != table:
        raise AssertionError("cache round trip changed the table")
    return {"startup_ms": statistics.median(starts) / 1e6,
            "file_bytes": os.path.getsize(path)}


def run_pass(workload: str, seed: int, smoke: bool = False, traced: bool = False,
             setup_only: bool = False, keep_summaries: bool = False) -> dict:
    module = WORKLOADS[workload]
    package = None
    if module is not session:
        import dysonrank as package
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        ops = module.build_ops(seed, smoke, workdir)
        first, setup_cpu = time.monotonic_ns(), cpu_ns()
        if setup_only:
            return {"first_ns": first, "setup_cpu_ns": setup_cpu}
        tracer = Tracer() if traced else None
        pkg = TracedPackage(package, tracer) if traced and package else package
        ctx: dict = {}
        outputs, errors, spans, latencies, cpu_latencies = [], {}, [], [], []
        cal = Calibrator()
        cal.burst()
        # A traced pass keeps the kernel out of its spans.
        interrupting = package is not None and not traced
        with cal.interrupting() if interrupting else contextlib.nullcontext():
            for i, op in enumerate(ops):
                cal.due()
                t0, c0 = time.monotonic_ns(), cpu_ns()
                w0, k0 = cal.spent_wall_ns, cal.spent_cpu_ns
                try:
                    if tracer:
                        with tracer.span(op.span, op=i, key=op.key, **op.attrs):
                            outputs.append(op.call(pkg, ctx))
                    else:
                        outputs.append(op.call(pkg, ctx))
                except Exception as exc:  # an operation that raises has failed
                    outputs.append(None)
                    errors[i] = f"{type(exc).__name__}: {exc}"
                t1 = time.monotonic_ns()
                cpu_latencies.append(cpu_ns() - c0 - (cal.spent_cpu_ns - k0))
                latencies.append(t1 - t0 - (cal.spent_wall_ns - w0))
                spans.append((t0, t1))
        cal.burst()
        ref_latencies = [round(c * f) for c, f in zip(cpu_latencies, cal.factors(spans))]

        # Everything below is outside the timed region.
        golden = {} if keep_summaries else json.loads(GOLDEN.read_text())[workload]
        oracle = Oracle()
        failures, counters, summaries = {}, {}, {}
        for i, (op, raw) in enumerate(zip(ops, outputs)):
            if i in errors:
                failures[i] = [errors[i]]
                continue
            try:
                problems = op.verify(raw, oracle)
                summary = _json_value(op.summarize(raw))
            except Exception as exc:  # output too malformed to check
                failures[i] = [f"unreadable output: {type(exc).__name__}: {exc}"]
                continue
            if op.golden:
                summaries[op.key] = summary
            if op.key in golden:
                problems += compare(golden[op.key], summary)
            if problems:
                failures[i] = problems
            else:
                for name, value in op.count(raw).items():
                    counters[name] = counters.get(name, 0) + value
        result = {
            "first_ns": first, "setup_cpu_ns": setup_cpu,
            "wall_ns": sum(latencies), "latencies_ns": latencies,
            "cpu_ns": sum(cpu_latencies), "cpu_latencies_ns": cpu_latencies,
            "ref_ns": sum(ref_latencies), "ref_latencies_ns": ref_latencies,
            "kernel_ns": cal.kernel_ns(),
            "attempted": len(ops), "failed": len(failures),
            "messages": [f"{ops[i].key}: {'; '.join(p)}"
                         for i, p in list(failures.items())[:MAX_MESSAGES]],
            "counters": counters,
        }
        if keep_summaries:
            result["summaries"] = summaries
        if traced:
            result["probes"] = {}
            if module is session:
                import dysonrank
                result["attempted"] += 1
                try:
                    result["probes"] = _probes(dysonrank, tracer, workdir, smoke)
                    counters["cache.file_bytes"] = result["probes"]["file_bytes"]
                except Exception as exc:  # a failed probe is a failed operation
                    result["failed"] += 1
                    result["messages"].append(f"probe: {type(exc).__name__}: {exc}")
            result["spans"] = tracer.spans
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = run_pass(args.workload, args.seed, args.smoke, args.trace, args.setup_only)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
