"""Benchmark for dysonrank: three workloads, every output checked.

    python3 perfbench/run.py --workload claims-1000 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py              # every workload, default settings

Run from the root of a checkout; the package is imported from ./src.
Each pass of a workload runs in a fresh process (started by this
script, one at a time), so the package's caches start cold as they do
for a user.  Passes repeat while another one fits in --seconds; times
are medians over passes.  Set-up is measured in several extra
processes that stop right before the first operation.  Medians and
90th percentiles over many samples are Harrell-Davis estimates.

With --trace 0 the last line of stdout holds the end-to-end metrics,
timed in CPU seconds scaled to a reference host speed (calib.py);
with --trace 1 it holds the per-layer metrics of one traced pass, plus
the tracing overhead against one untraced pass.  Lines before it give
the run record, each metric with its unit, and the same figures as
measured, in CPU and in wall-clock time, with the host's speed.  Full
results, spans included, go to .perfbench_out/<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("claims-1000", "analytic-dense", "cli-session")
DEFAULT_SEED = 1
SETUP_REPEATS = 10
# A run must end within 180 s; stop starting passes well before that.
DEADLINE_S = 170

# Times in BENCHMARK.json are CPU times (user + system, the CLI
# processes included): on a shared host, wall time also counts the
# stretches in which the host deschedules the guest's CPUs, and moved
# by far more than the bounds between identical runs.  They are in
# reference seconds (calib.py), because the host's speed drifted by up
# to a quarter from one minute to the next.
END_TO_END = (("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("query_cpu_p50_ms", "ms"), ("query_cpu_p90_ms", "ms"))
# Printed beside them, with no bound: the times as measured, and the
# kernel's mean CPU time.
UNBOUNDED = (("raw_setup_s", "s"), ("raw_cpu_s", "s"), ("raw_query_cpu_p50_ms", "ms"),
             ("raw_query_cpu_p90_ms", "ms"), ("setup_wall_s", "s"), ("wall_s", "s"),
             ("query_p50_ms", "ms"), ("query_p90_ms", "ms"), ("kernel_ms", "ms"))


class PassError(RuntimeError):
    """A worker process crashed or ran out of time."""


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref).strip()
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown"


def _loadavg() -> list[float]:
    return [float(x) for x in _read("/proc/loadavg").split()[:3]]


def pin_to_one_cpu() -> int | None:
    """Keep this process, and every process it starts, on the virtual
    CPU it runs on now.  The host's speed differs from one virtual CPU
    to the other at any moment, and the kernel samples (calib.py) must
    run where the measured work runs.  Only one process works at a
    time, so nothing is lost."""
    try:
        cpu = int(_read("/proc/self/stat").rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        return None
    return cpu


def run_record(seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"seed": seed, "commit": _git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu,
            "loadavg_start": _loadavg()}


def spawn(workload: str, seed: int, smoke: bool, deadline: float,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run one pass in a fresh worker process and return its result,
    with setup_s measured from the launch."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launched = time.monotonic_ns()
    # Its own session, so that a timeout also ends the CLI processes it runs.
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassError(f"{workload} pass did not finish in time") from None
    if proc.returncode != 0:
        raise PassError(f"{workload} worker exited {proc.returncode}:\n"
                        f"{stderr.strip()[-2000:]}")
    result = json.loads(stdout.splitlines()[-1])
    result["setup_wall_ns"] = result["first_ns"] - launched
    return result


def quantile(samples: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) density.
    Where the plain sample quantile is one sample, and jumps when the
    host runs that one slow, this averages the samples around it."""
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = max(1, 4000 // n)  # midpoint rule within each 1/n interval
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                   for x in ((k + (j + 0.5) / steps) / n for j in range(steps)))
               for k in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _p50_p90_ms(samples_ns: list[int]) -> tuple[float, float]:
    return quantile(samples_ns, 0.5) / 1e6, quantile(samples_ns, 0.9) / 1e6


def measure(workload: str, seed: int, seconds: int, smoke: bool,
            deadline: float) -> tuple[dict, dict, list[dict]]:
    """End-to-end metrics, the unbounded figures, and the passes."""
    setups = [spawn(workload, seed, smoke, deadline, setup_only=True)
              for _ in range(SETUP_REPEATS)]
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(spawn(workload, seed, smoke, deadline))
        # Start another pass only if one as long as this one still fits.
        ended = time.monotonic()
        if ended - start + (ended - began) > seconds:
            break
    setups += passes

    def median(key, runs=passes):
        return statistics.median(r[key] for r in runs)

    def p50_p90(key):
        return _p50_p90_ms([ns for p in passes for ns in p[key]])

    # Set-up is too short to sample the host's speed in; it is scaled by
    # the passes' kernel, which follows the host's drift over the run.
    scale = statistics.median(calib.NOMINAL_NS / p["kernel_ns"] for p in passes)
    setup_cpu = quantile([r["setup_cpu_ns"] for r in setups], 0.5) / 1e9
    ref_p50, ref_p90 = p50_p90("ref_latencies_ns")
    cpu_p50, cpu_p90 = p50_p90("cpu_latencies_ns")
    p50, p90 = p50_p90("latencies_ns")
    metrics = {
        "setup_s": setup_cpu * scale,
        "cpu_s": median("ref_ns") / 1e9,
        # Peak resident set of the largest process this run waited for,
        # grandchildren (the CLI invocations) included.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "query_cpu_p50_ms": ref_p50,
        "query_cpu_p90_ms": ref_p90,
    }
    unbounded = {
        "raw_setup_s": setup_cpu,
        "raw_cpu_s": median("cpu_ns") / 1e9,
        "raw_query_cpu_p50_ms": cpu_p50,
        "raw_query_cpu_p90_ms": cpu_p90,
        "setup_wall_s": median("setup_wall_ns", setups) / 1e9,
        "wall_s": median("wall_ns") / 1e9,
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "kernel_ms": median("kernel_ns") / 1e6,
    }
    return metrics, unbounded, passes


def trace_run(workload: str, seed: int, smoke: bool,
              deadline: float) -> tuple[dict, dict, list[dict]]:
    from spans import layer_metrics
    plain = spawn(workload, seed, smoke, deadline)
    traced = spawn(workload, seed, smoke, deadline, trace=True)
    overhead = (traced["ref_ns"] - plain["ref_ns"]) / 1e9
    return layer_metrics(traced, overhead), {}, [plain, traced]


def run_workload(args) -> int:
    from spans import LAYER_METRICS
    deadline = time.monotonic() + DEADLINE_S
    record = run_record(args.seed)
    record["pinned_cpu"] = pin_to_one_cpu()
    try:
        if args.trace:
            metrics, unbounded, passes = trace_run(args.workload, args.seed,
                                                   args.smoke, deadline)
            units = dict(LAYER_METRICS)
        else:
            metrics, unbounded, passes = measure(args.workload, args.seed,
                                                 args.seconds, args.smoke, deadline)
            units = dict(END_TO_END + UNBOUNDED)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = _loadavg()
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    samples = sum(len(p["latencies_ns"]) for p in passes)

    print(f"# {args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"trace {int(args.trace)}{', smoke' if args.smoke else ''}")
    print("# run " + json.dumps(record))
    for name, value in list(metrics.items()) + list(unbounded.items()):
        extra = f"  (n={samples})" if name.startswith("query_") else ""
        if name in unbounded:
            extra += "  (no bound)"
        print(f"{name:36s} {value:14.6f} {units[name]}{extra}")
    print(f"{'failed_frac':36s} {failed / attempted:14.6f} 1  ({failed}/{attempted})")
    for p in passes:
        for message in p["messages"]:
            print(f"# FAILED {message}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-trace{int(args.trace)}.json"
    (OUT / name).write_text(json.dumps({
        "record": record, "metrics": metrics, "unbounded": unbounded, "attempted": attempted,
        "failed": failed, "messages": [m for p in passes for m in p["messages"]],
        "spans": passes[-1].get("spans", [])}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: run each in turn)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for testing the benchmark itself")
    args = ap.parse_args()
    if not (SRC / "dysonrank" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/dysonrank", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args)
    codes = [subprocess.run([sys.executable, __file__, "--workload", w] + sys.argv[1:]).returncode
             for w in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
