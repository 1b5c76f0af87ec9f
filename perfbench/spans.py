"""Spans at the boundary between the benchmark and the package.

A span records name, start, end, parent span and operation id.  Spans
are kept in memory and handed back with the pass result; nothing is
written while the pass runs.  Only calls the benchmark itself makes
are spanned: work the package does inside a call is attributed to that
call.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# Functions whose self time is a per-layer metric, named
# "<module>.<function>" after the module that defines them.
TIMED_CALLS = (
    "core.build_rank_table", "core.partition_numbers", "core.residue_count",
    "core.a_third_exact", "core.decomposition_check",
    "convexity.scan_region", "convexity.sharpness_frontier",
    "maxprod.max_table", "maxprod.verify_closed_forms",
    "maxprod.verify_replacement_rules", "maxprod.verify_small_tables",
    "maxprod.conjecture_max_mod2",
    "bounds.error_budget", "bounds.ratio_bound", "bounds.lehmer_bounds",
    "bounds.lehmer_estimate", "bounds.lemma_threshold", "bounds.main_term",
    "bounds.residue_envelope_check",
    "cache.save_table", "cache.load_table",
)

# Counters the workloads report (see Op.count), plus one span count.
COUNTERS = (
    "core.build_rank_table.rows", "convexity.pairs_checked",
    "maxprod.values_checked", "maxprod.optima_returned",
    "bounds.error_budget.calls", "bounds.n_certified", "cache.file_bytes",
)

CLI_COMMANDS = ("count", "rank-table", "maxn", "convexity", "bounds", "verify")

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    [(f"{name}.s", "s") for name in TIMED_CALLS]
    + [(name, "B" if name == "cache.file_bytes" else "count")
       for name in COUNTERS]
    + [("cli.startup_ms", "ms")]
    + [(f"cli.{cmd}.p50_ms", "ms") for cmd in CLI_COMMANDS]
    + [("cli.cache_write_ms", "ms"), ("cli.cache_read_p50_ms", "ms"),
       ("cli.default_nmax_ms", "ms"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Collects spans; children inherit the operation id of their parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, op: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "op": parent["op"] if op is None and parent else op,
               "parent": parent["id"] if parent else None,
               "start": time.monotonic_ns(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic_ns()
            self._stack.pop()


class TracedPackage:
    """Stands in for the package module: each function it hands out
    records a span named after the function's defining module."""

    def __init__(self, package, tracer: Tracer) -> None:
        self._package = package
        self._tracer = tracer

    def __getattr__(self, name: str):
        target = getattr(self._package, name)
        if not callable(target) or isinstance(target, type):
            return target
        span_name = f"{target.__module__.rsplit('.', 1)[-1]}.{name}"
        tracer = self._tracer

        def traced(*args, **kwargs):
            with tracer.span(span_name):
                return target(*args, **kwargs)

        setattr(self, name, traced)
        return traced


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span's duration less the time its
    children cover.  Spans nest strictly (one thread), so the children's
    durations never overlap."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = (child_ns.get(s["parent"], 0)
                                     + s["end"] - s["start"])
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_ns.get(s["id"], 0)
        out[s["name"]] = out.get(s["name"], 0.0) + own / 1e9
    return out


def _median_ms(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def layer_metrics(result: dict, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced pass.  A layer the
    workload never calls reads 0."""
    spans = result["spans"]
    own = self_times(spans)
    values: dict[str, float] = {f"{n}.s": own.get(n, 0.0) for n in TIMED_CALLS}
    counters = dict(result["counters"])
    counters["bounds.error_budget.calls"] = sum(
        1 for s in spans if s["name"] == "bounds.error_budget")
    values.update({n: counters.get(n, 0) for n in COUNTERS})

    def cli_ns(group: str, name: str | None = None) -> list[int]:
        return [s["end"] - s["start"] for s in spans if s.get("group") == group
                and (name is None or s["name"] == name)]

    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.p50_ms"] = _median_ms(cli_ns("small", f"cli.{cmd}"))
    cached = cli_ns("cache")
    values["cli.cache_write_ms"] = cached[0] / 1e6 if cached else 0.0
    values["cli.cache_read_p50_ms"] = _median_ms(cached[1:])
    values["cli.default_nmax_ms"] = _median_ms(cli_ns("default"))
    values["cli.startup_ms"] = result["probes"].get("startup_ms", 0.0)
    values["trace.overhead_s"] = overhead_s
    return values
