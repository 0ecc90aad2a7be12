"""Run one benchmark op in a fresh interpreter and write what it did as JSON.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``calls`` (argv lists for qcasim.cli.main), ``result`` (path
of the JSON written at exit), ``trace`` (bool), ``spans`` (path for the span
log of a traced op) and ``op`` (op id stored with each span).  The working
directory holds the op's input files; the parent hashes what the op leaves
there.  The import of qcasim is timed as set-up; each call is timed around
qcasim.cli.main, with stdout and stderr captured in memory.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def host_probe() -> float:
    """Seconds this host takes for a fixed mix of pure-Python work.

    The mix (float maths, fsum, small tuples, dict stores, formatting) is
    the kind of work qcasim does.  On a shared host its time swings with
    the load of other tenants by tens of percent; the parent divides op
    times by it, so those swings cancel.
    """
    start = time.perf_counter()
    fsum, sqrt = math.fsum, math.sqrt
    acc = 0.0
    table = {}
    rows = []
    for i in range(30000):
        x = (i % 97) * 0.01
        acc += fsum((x, -x, 0.5 * x)) + x / sqrt(1.0 + x * x)
        table[i & 1023] = acc
        if i % 8 == 0:
            rows.append(f"{acc:.5e}")
    ",".join(rows)
    for i in range(60000):
        x = i * 1e-3
        acc += x / (1.0 + x * x) ** 0.5
        table[i & 1023] = acc
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    probe_s = host_probe()
    start = time.perf_counter()
    import qcasim
    import qcasim.cli
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = qcasim.cli.main(argv)
            except Exception:  # an escaped exception is a failed op, not a crash here
                code = None
                raised = traceback.format_exc()
            wall_s = time.perf_counter() - start
        calls.append({
            "code": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": err.getvalue()[-2000:],
            "raised": raised,
            "wall_s": wall_s,
        })
    op_s = sum(call["wall_s"] for call in calls)
    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "qcasim_file": qcasim.__file__,
        "threads": threading.active_count(),
        "calls": calls,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(op_s)
        tracer.write_spans(spec["spans"], spec["op"])
    result["probe_s"] = (probe_s + host_probe()) / 2
    with open(spec["result"], "w", encoding="utf-8") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
