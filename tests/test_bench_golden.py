"""The benchmark's own bytes, and the names its tracer wraps.

Every layout in test_golden.py sits on the 20 nm grid, where pair offsets
are small integers; the fabric layouts of perfbench/inputs.py put every cell
off the grid, and all 32 recorded fabric variants are checked here.  The
other workloads pin the trace, measurement, kink and sweep writers on the
inputs the benchmark feeds them.  Expected exit codes and sha256 digests are
the ones the benchmark itself checks, read from perfbench/golden.json.  The
loader of perfbench/inputs.py and ``fabric_layout``, which other test files
use too, live in helpers.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from helpers import PERFBENCH, inputs, load_perfbench, run_main, sha

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _run(op) -> dict:
    """Run ``op`` in the current directory as the benchmark's child does and
    return what golden.json records for it."""
    for name, data in op.files.items():
        Path(name).write_bytes(data)
    codes, stdout = [], []
    for argv in op.calls:
        code, out = run_main(argv)
        codes.append(code)
        stdout.append(sha(out.encode("utf-8")))
    files = {
        path.name: sha(path.read_bytes())
        for path in sorted(Path.cwd().iterdir())
        if path.name not in op.files
    }
    return {"codes": codes, "stdout_sha256": stdout, "files": files}


@pytest.mark.parametrize("variant", range(inputs.WORKLOADS["fabric1k_kink"][1]))
def test_fabric_kink_bytes(variant, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build, _ = inputs.WORKLOADS["fabric1k_kink"]
    op = build(variant)
    assert op.calls == [["kink", "fabric.qcl", "--out", "pairs.csv"]]
    assert _run(op) == GOLDEN["fabric1k_kink"][str(variant)]


@pytest.mark.parametrize("workload", ["paper_circuits", "wire512_trace", "clocked_wire_gaas"])
def test_recorded_op_bytes(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build, variants = inputs.WORKLOADS[workload]
    assert variants == 1
    assert _run(build(0)) == GOLDEN[workload]["0"]


def test_traced_names_exist():
    """`perfbench/run.py --trace 1` wraps these names after `import qcasim.cli`."""
    tracer = load_perfbench("tracer")
    for module_name, names in tracer.WRAPPED.items():
        module = sys.modules[module_name]
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
