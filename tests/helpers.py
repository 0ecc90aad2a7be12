"""Test inputs and probes that more than one test file uses, each written once.

Test files import from here, never from one another; a builder that one file
alone uses stays in that file.  ``run_python`` starts a child on the qcasim
this process imported, so the suite checks one package, from ``src/`` or
from an installed wheel.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import qcasim
from qcasim import Cell, ChargeModel, ClockConfig, GeometryParams, InputSchedule, Layout, Role, parse_qcl
from qcasim.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

NEUT = GeometryParams()
BARE = GeometryParams(charge_model=ChargeModel.BARE)
CLOCK = ClockConfig()

# the paper's circuits: gen kind -> --expect function for truth
PAPER_CIRCUITS = {
    "wire:8": "id",
    "majority": "maj",
    "inverter:conventional": "not",
    "inverter:2": "not",
    "inverter:3": "not",
    "inverter:4": "not",
    "inverter:5": "not",
    "inverter:6": "not",
}


def cell(x, y, cid="c"):
    return Cell(cid, float(x), float(y), Role.normal())


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def exhaustive(layout, clock=CLOCK):
    """simulate's arguments for every vector of ``layout``'s inputs."""
    return layout, clock, InputSchedule.exhaustive(layout.input_labels())


def anti_ordered_chain(n_cells: int) -> Layout:
    """Wire listed farthest-from-driver first, coupled only pitch-to-pitch,
    with no output cell.  Gauss-Seidel in layout order moves the front one
    cell per sweep, so 1,101 cells (1,100 free) exhaust the 1,000 sweeps."""
    cells = [Cell(f"c{i}", (n_cells - 1 - i) * 20.0, 0.0, Role.normal()) for i in range(n_cells - 1)]
    cells.append(Cell("drv", 0.0, 0.0, Role.input("a")))
    return Layout(GeometryParams(radius_of_effect=20.0), cells)


def independent_wires(n_wires: int) -> Layout:
    """``n_wires`` 3-cell wires (input, normal, output) 100 nm apart, beyond
    each other's radius: two free rows per wire, and 2^n exhaustive vectors,
    half of them mirrors."""
    cells = []
    for w in range(n_wires):
        roles = (Role.input(f"i{w}"), Role.normal(), Role.output(f"o{w}"))
        cells += [Cell(f"w{w}c{k}", 20.0 * k, 100.0 * w, role) for k, role in enumerate(roles)]
    return Layout(GeometryParams(), cells)


def load_perfbench(name: str):
    """perfbench/<name>.py, which is not a package, as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


inputs = load_perfbench("inputs")


def fabric_layout(variant: int, **geometry) -> Layout:
    """The benchmark's jittered fabric ``variant``, with the given geometry
    fields replaced."""
    layout = parse_qcl(inputs.fabric(variant).decode("utf-8"))[0]
    return layout._replace(geometry=layout.geometry._replace(**geometry))


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak, in bytes, over one ``fn(*args)`` call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_main(argv: list[str]) -> tuple[int, str]:
    """main(argv) in this process: its exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a child whose PYTHONPATH is the folder this
    process imported qcasim from; further arguments go to subprocess.run."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qcasim.__file__))}
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)
