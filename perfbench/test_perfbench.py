"""Tests of the benchmark itself, at smoke sizes.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END, WORKLOADS, quantile  # noqa: E402
from spans import LAYER_METRICS, self_times  # noqa: E402


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


class OracleTest(unittest.TestCase):
    def test_rank_rows_match_enumeration(self):
        o = oracle.Oracle()
        for n in range(0, 16):
            ranks = Counter(p[0] - len(p) if p else 0 for p in _partitions(n))
            lo = 0 if n == 0 else 1 - n
            want = [ranks.get(lo + i, 0) for i in range(max(2 * n - 1, 1))]
            self.assertEqual(o.row(n), want, n)
            self.assertEqual(o.p(n), sum(want))

    def test_max_products_match_enumeration(self):
        o = oracle.Oracle()
        best = o.max_products(0, 3, 14)
        for n in range(1, 15):
            self.assertEqual(best[n], max(o.product(0, 3, p) for p in _partitions(n)))

    def test_pairs_in_scan(self):
        self.assertEqual(oracle.pairs_in_scan(12, 14), 6)  # 12..14 choose with a <= b


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [{"id": 0, "name": "op", "parent": None, "start": 0, "end": 10_000_000_000},
                 {"id": 1, "name": "core.f", "parent": 0, "start": 1, "end": 4_000_000_001}]
        self.assertEqual(self_times(spans), {"op": 6.0, "core.f": 4.0})


class CalibrationTest(unittest.TestCase):
    def test_kernel_runs_inside_a_long_operation(self):
        cal = calib.Calibrator()
        with cal.interrupting():
            c0 = time.process_time_ns()
            end = time.monotonic() + 5 * calib.INTERVAL_NS / 1e9
            while time.monotonic() < end:
                pass
            spent = time.process_time_ns() - c0
        self.assertGreaterEqual(len(cal.samples), 3)
        self.assertEqual(cal.spent_cpu_ns, sum(c for _, c in cal.samples))
        self.assertLess(cal.spent_cpu_ns, spent)

    def test_quantile(self):
        xs = list(range(1, 1002))
        self.assertAlmostEqual(quantile(xs, 0.5), 501, delta=1)
        self.assertAlmostEqual(quantile(xs, 0.9), 901, delta=2)
        self.assertEqual(quantile([7], 0.9), 7)


class SmokeTest(unittest.TestCase):
    def _run(self, workload: str, trace: int) -> dict:
        code, out = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                           "--trace", str(trace), "--smoke")
        self.assertEqual(code, 0, out)
        return json.loads(out.splitlines()[-1]), out

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, names in ((0, END_TO_END), (1, LAYER_METRICS)):
                with self.subTest(workload=workload, trace=trace):
                    result, out = self._run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     dict(names))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("failed_frac", out)
                    for name, unit in names:
                        self.assertRegex(out, rf"(?m)^{name}\s+\S+ {unit}")

    def test_wrong_expected_value_fails(self):
        saved = oracle.ANCHORS["N(0,3;13)"]
        oracle.ANCHORS["N(0,3;13)"] = saved + 1
        try:
            result = worker.run_pass("claims-1000", 1, smoke=True)
        finally:
            oracle.ANCHORS["N(0,3;13)"] = saved
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("N(0,3;13)" in m for m in result["messages"]))

    def test_refuses_to_run_without_the_package(self):
        worker.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.WORK) as bare:
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, out = _bench("--workload", "claims-1000", "--smoke", cwd=Path(bare))
        self.assertNotEqual(code, 0)
        self.assertNotIn("correct", out)


if __name__ == "__main__":
    unittest.main()
