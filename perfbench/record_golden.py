"""Record golden.json: every workload's outputs at the default seed.

    PYTHONPATH=src python3 perfbench/record_golden.py

The recorded values pin the package's outputs at the commit they were
taken from; later passes compare against them (floats within
ops.FLOAT_REL_TOL).  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json

from run import DEFAULT_SEED, WORKLOADS
from worker import GOLDEN, run_pass


def main() -> None:
    golden = {}
    for workload in WORKLOADS:
        result = run_pass(workload, DEFAULT_SEED, keep_summaries=True)
        if result["failed"]:
            raise SystemExit(f"{workload}: checks failed, not recording:\n"
                             + "\n".join(result["messages"]))
        golden[workload] = result["summaries"]
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
