"""The benchmark's own bytes, and the names its tracer wraps.

Every layout in test_golden.py sits on the 20 nm grid, where pair offsets
are small integers; the fabric layouts of perfbench/inputs.py put every cell
off the grid, and all 32 recorded fabric variants are checked here.  The
other workloads pin the trace, measurement, kink and sweep writers on the
inputs the benchmark feeds them.  Expected exit codes and sha256 digests are
the ones the benchmark itself checks, read from perfbench/golden.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from qcasim import Layout, parse_qcl
from qcasim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")


def fabric_layout(variant: int, **geometry) -> Layout:
    """The benchmark's jittered fabric ``variant``, with the given geometry
    fields replaced."""
    layout = parse_qcl(inputs.fabric(variant).decode("utf-8"))[0]
    return layout._replace(geometry=layout.geometry._replace(**geometry))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(op) -> dict:
    """Run ``op`` in the current directory as the benchmark's child does and
    return what golden.json records for it."""
    for name, data in op.files.items():
        Path(name).write_bytes(data)
    codes, stdout = [], []
    for argv in op.calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(main(argv))
        stdout.append(_sha(out.getvalue().encode("utf-8")))
    files = {
        path.name: _sha(path.read_bytes())
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
    tracer = _load("tracer")
    for module_name, names in tracer.WRAPPED.items():
        module = sys.modules[module_name]
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
