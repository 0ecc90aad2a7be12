"""Record the golden outcome of every op: python3 perfbench/record.py

Runs each input of each workload once, untraced, on the code in ./src and
writes perfbench/golden.json: per op the exit code and stdout sha256 of
every call and the sha256 of every file it writes.  Record on the commit
whose outputs are the reference; later runs count any difference as a
failed op.
"""

from __future__ import annotations

import json
import sys

from inputs import WORKLOADS
from run import GOLDEN, SRC, WORK, op_failures, op_outcome, run_op


def main() -> int:
    if not (SRC / "qcasim" / "cli.py").is_file():
        print(f"no qcasim sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    golden = {}
    for workload, (_, variants) in WORKLOADS.items():
        golden[workload] = {}
        for variant in range(variants):
            record = run_op(workload, variant, variant, False)
            outcome = op_outcome(record) if "child_error" not in record else None
            problems = op_failures(record, outcome)
            if problems:
                print(f"{workload} input {variant}: {problems}", file=sys.stderr)
                return 1
            golden[workload][str(variant)] = outcome
            print(f"{workload} input {variant}: codes {outcome['codes']}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
