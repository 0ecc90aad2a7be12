"""qcasim benchmark runner.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client: one op at a time, each
op in a fresh Python child (perfbench/child.py) that imports qcasim from
./src and calls qcasim.cli.main in process.  Every op's exit codes, stdout
and written files are checked against perfbench/golden.json.  The last
stdout line is the JSON result.  With --trace 0 it carries the end-to-end
metrics; with --trace 1 the ops alternate untraced and traced on the same
input, and it carries the per-layer metrics of the traced ops plus the
tracing overhead.  See perfbench/WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import GEN_TWINS, WORKLOADS, variant_order
from tracer import EXACT_COUNTERS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
TREND_DOC = ROOT / "docs" / "trend-comparison.md"
# A run gives up, without a result, when its ops have not ended by then.
RUN_LIMIT_S = 170.0
# Probe time (child.host_probe) of the reference host, a 2-vCPU Xeon at
# 2.1 GHz with CPython 3.11, near the fast end of its range (0.035-0.05 s).
# Reported times are scaled to it.
REFERENCE_PROBE_S = 0.04

END_TO_END_UNITS = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def run_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_avg": list(os.getloadavg()),
    }


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_hash() -> str:
    """Identity of the code under test: every file under src/qcasim."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcasim").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_op(
    workload: str, variant: int, op_id: int, traced: bool, timeout: float = RUN_LIMIT_S
) -> dict:
    """Run one op in a fresh child; return its result plus its output hashes."""
    op = WORKLOADS[workload][0](variant)
    op_dir = WORK / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    for name, data in op.files.items():
        (op_dir / name).write_bytes(data)
    result_path = WORK / "child-result.json"
    result_path.unlink(missing_ok=True)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(exist_ok=True)
    spec = {
        "calls": op.calls,
        "result": str(result_path),
        "trace": traced,
        "spans": str(spans_dir / f"{workload}-op{op_id}.jsonl"),
        "op": op_id,
    }
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=op_dir, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.exists():
        return {"child_error": f"child exit {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["files"] = {
        path.name: _hash_file(path)
        for path in sorted(op_dir.iterdir())
        if path.name not in op.files
    }
    record["problems"] = _output_problems(workload, op_dir)
    return record


def _output_problems(workload: str, op_dir: Path) -> list[str]:
    """Checks that need the written bytes, beyond their recorded hashes."""
    if workload != "paper_circuits":
        return []
    problems = []
    for produced, twin in GEN_TWINS.items():
        path = op_dir / produced
        if not path.exists() or path.read_bytes() != (op_dir / twin).read_bytes():
            problems.append(f"{produced} differs from the benchmark's {twin}")
    # The committed comparison covers 3..6 cells; --extra=-1..3 adds the
    # 2-cell row, and every other byte must match.
    trend = op_dir / "trend.md"
    if trend.exists():
        lines = trend.read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if not line.startswith(b"| 2 |"))
        if len(lines) - 1 != len(kept.splitlines()) or kept != TREND_DOC.read_bytes():
            problems.append("trend.md does not match docs/trend-comparison.md")
    else:
        problems.append("trend.md not written")
    return problems


def op_outcome(record: dict) -> dict:
    """What golden.json stores for an op: exit codes and output hashes."""
    return {
        "codes": [call["code"] for call in record["calls"]],
        "stdout_sha256": [call["stdout_sha256"] for call in record["calls"]],
        "files": record["files"],
    }


def op_failures(record: dict, expected: dict | None) -> list[str]:
    """Reasons an op failed; empty when it matched the recorded outcome."""
    if "child_error" in record:
        return [record["child_error"]]
    failures = list(record["problems"])
    if not Path(record["qcasim_file"]).resolve().is_relative_to(SRC.resolve()):
        failures.append(f"imported qcasim from {record['qcasim_file']}, not from ./src")
    if record["threads"] != 1:
        failures.append(f"op left {record['threads']} threads running")
    for index, call in enumerate(record["calls"]):
        if call["raised"]:
            failures.append(f"call {index} raised:\n{call['raised']}")
    if expected is None:
        failures.append("no recorded outcome for this input")
    else:
        actual = op_outcome(record)
        for key in ("codes", "stdout_sha256", "files"):
            if actual[key] != expected[key]:
                failures.append(f"{key} differ from the recorded outcome: {actual[key]}")
        for call, code in zip(record["calls"], expected["codes"]):
            if call["code"] != code and call["stderr"]:
                failures.append(f"stderr: {call['stderr']}")
    return failures


def _median_low(values):
    return statistics.median_low(values) if values else 0


def _median(values):
    return statistics.median(values) if values else 0.0


class CounterLedger:
    """Exact counters per input; any drift for the same code is an error.

    Counters are kept across runs of the benchmark in the checkout, keyed by
    the hash of src/, so a second run of the same code is compared with the
    first as well as ops within one run with each other.
    """

    def __init__(self, path: Path, workload: str) -> None:
        self.path = path
        self.stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.known = self.stored.setdefault(f"{code_hash()}/{workload}", {})

    def check(self, variant: int, layers: dict) -> list[str]:
        counters = {name: layers[name] for name in EXACT_COUNTERS}
        previous = self.known.setdefault(str(variant), counters)
        return [
            f"counter {name} drifted: {previous[name]} -> {counters[name]}"
            for name in EXACT_COUNTERS
            if previous[name] != counters[name]
        ]

    def save(self) -> None:
        self.path.write_text(json.dumps(self.stored, indent=1), encoding="utf-8")


def check_checkout() -> dict:
    """Fail early when the checkout cannot run the benchmark."""
    if not (SRC / "qcasim" / "cli.py").is_file():
        raise BenchError(f"no qcasim sources under {SRC}")
    if not TREND_DOC.is_file():
        raise BenchError(f"missing {TREND_DOC}")
    if not GOLDEN.is_file():
        raise BenchError(f"missing {GOLDEN}; record it with perfbench/record.py")
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` for ``seconds`` and return the result object."""
    context = run_context()
    golden = check_checkout()[workload]
    WORK.mkdir(exist_ok=True)
    shutil.rmtree(WORK / "spans", ignore_errors=True)
    order = variant_order(workload, seed)
    ledger = CounterLedger(WORK / "counters.json", workload) if trace else None

    limit = time.perf_counter() + RUN_LIMIT_S
    # Warm-up: compiles the .pyc files and fills the file cache; not counted.
    warm = run_op(workload, order[0], -1, False, RUN_LIMIT_S)
    if "child_error" in warm:
        raise BenchError(warm["child_error"])

    untraced, traced, failures = [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    op_id = 0
    while time.perf_counter() < deadline:
        variant = order[op_id % len(order)]
        # In a traced run each input runs untraced and traced, in
        # alternating order, so the overhead compares like with like.
        modes = [False] if not trace else ([False, True] if op_id % 2 else [True, False])
        for traced_op in modes:
            record = run_op(workload, variant, op_id, traced_op, limit - time.perf_counter())
            attempted += 1
            problems = op_failures(record, golden.get(str(variant)))
            if traced_op and not problems:
                problems = ledger.check(variant, record["layers"])
                if abs(record["layers"]["trace.unaccounted_s"]) > 1e-3:
                    problems.append("traced layer times do not add up to the op wall time")
            if problems:
                failures.append((op_id, variant, traced_op, problems))
            else:
                (traced if traced_op else untraced).append(record)
        op_id += 1
    if ledger is not None:
        ledger.save()

    for op, variant, traced_op, problems in failures[:5]:
        print(f"op {op} (input {variant}, traced={traced_op}) failed:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)

    for record in untraced + traced:
        normalise(record)
    op_s = [r["norm"]["op_s"] for r in untraced]
    summary = {
        "workload": workload,
        "seed": seed,
        "context": context,
        "ops": len(untraced),
        "traced_ops": len(traced),
        "op_s_quartiles": statistics.quantiles(op_s, n=4) if len(op_s) > 1 else op_s,
        "host_op_s": _median([r["op_s"] for r in untraced]),
        "host_setup_s": _median([r["setup_s"] for r in untraced]),
        "probe_s": _median([r["probe_s"] for r in untraced]),
    }
    if trace:
        metrics = layer_metrics(traced, untraced, attempted, len(failures), context)
    else:
        metrics = {
            "op_s": _median(op_s),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": _median([r["norm"]["setup_s"] for r in untraced]),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    print(json.dumps(summary))
    return {
        "correct": not failures and bool(untraced) and (bool(traced) or not trace),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": metrics,
    }


def normalise(record: dict) -> None:
    """Add ``norm``: the op's times at the reference host speed.

    Each time is multiplied by REFERENCE_PROBE_S / probe_s, the ratio of the
    reference host's probe time to this op's, so a host slowed by other
    tenants reads the same as a quiet one.  Rates scale the other way.
    """
    speed = REFERENCE_PROBE_S / record["probe_s"]
    norm = {"op_s": record["op_s"] * speed, "setup_s": record["setup_s"] * speed}
    if "layers" in record:
        layers = dict(record["layers"])
        for name, value in layers.items():
            if name.endswith("_s") and name != "engine.cell_samples_per_s":
                layers[name] = value * speed
        layers["engine.ns_per_cell_update"] *= speed
        layers["engine.cell_samples_per_s"] /= speed
        norm["layers"] = layers
    record["norm"] = norm


LAYER_UNITS = {
    "engine.ns_per_cell_update": "ns",
    "engine.cell_samples_per_s": "1/s",
    "qcl.export_bytes": "bytes",
    "electrostatics.offset_reuse": "ratio",
    "electrostatics.in_range_ratio": "ratio",
    "error_rate": "ratio",
    "host.load_1m": "load",
    "host.python": "version",
}


def _unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def layer_metrics(
    traced: list, untraced: list, attempted: int, failed: int, context: dict
) -> dict:
    """Medians over traced ops, counters as the value of one real op."""
    values = {}
    for name in LAYER_METRICS:
        column = [r["norm"]["layers"][name] for r in traced]
        exact = all(isinstance(v, int) for v in column)
        values[name] = _median_low(column) if exact else _median(column)
    traced_op_s = _median([r["norm"]["op_s"] for r in traced])
    values["trace.op_s"] = traced_op_s
    values["trace.overhead_s"] = traced_op_s - _median([r["norm"]["op_s"] for r in untraced])
    values["error_rate"] = failed / max(attempted, 1)
    values["run.ops"] = len(traced)
    values["host.nproc"] = context["nproc"]
    values["host.load_1m"] = context["load_avg"][0]
    values["host.python"] = sys.version_info.major * 100 + sys.version_info.minor
    values["host.probe_s"] = _median([r["probe_s"] for r in untraced + traced])
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
