"""Off-grid golden bytes: the benchmark's jittered fabric through `kink`.

Every layout in test_golden.py sits on the 20 nm grid, where pair offsets
are small integers; the fabric layouts of perfbench/inputs.py put every cell
off the grid.  Their expected exit codes and sha256 digests are the ones
the benchmark itself checks, read from perfbench/golden.json.
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

from qcasim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["fabric1k_kink"]


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("variant", [0, 7, 31])
def test_fabric_kink_bytes(variant, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build, _ = inputs.WORKLOADS["fabric1k_kink"]
    op = build(variant)
    for name, data in op.files.items():
        Path(name).write_bytes(data)
    codes, stdout = [], []
    for argv in op.calls:
        assert argv == ["kink", "fabric.qcl", "--out", "pairs.csv"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(main(argv))
        stdout.append(_sha(out.getvalue().encode("utf-8")))
    assert codes == GOLDEN[str(variant)]["codes"]
    assert stdout == GOLDEN[str(variant)]["stdout_sha256"]
    assert {"pairs.csv": _sha(Path("pairs.csv").read_bytes())} == GOLDEN[str(variant)]["files"]
