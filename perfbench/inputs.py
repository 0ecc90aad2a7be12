"""Seeded .qcl inputs and the op of each workload.

The text is written here from the format in docs/qcl-format.md, not with
``qcasim gen`` or ``serialize_qcl``, so the inputs do not depend on the code
under test.  Geometry is fixed for every workload; a seed only chooses the
fabric jitter, because a seeded pitch or size would change the work an op
does instead of sampling it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_GEOMETRY = (
    "geometry cell_size=18 dot_diameter=5 pitch=20 epsilon_r=1"
    " charge_model=neutralized radius=65"
)
GAAS_GEOMETRY = (
    "geometry cell_size=18 dot_diameter=5 pitch=20 epsilon_r=12.9"
    " charge_model=neutralized radius=65"
)
PITCH = 20
CELL_SIZE = 18

FABRIC_SIDE = 32
# Largest per-axis jitter.  It stays below (PITCH - CELL_SIZE) / 2, so two
# neighbours can never come closer than cell_size and validate() passes.
FABRIC_JITTER = 0.9
# Fabric layouts whose golden bytes are recorded; a run's seed picks and
# orders them, so any seed runs only layouts with a recorded answer.
FABRIC_VARIANTS = 32


def _length(value: float) -> str:
    """Shortest exact decimal, as the canonical form writes lengths."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _cell(i: int, x: float, y: float, role: str, zone: int = 0) -> str:
    """One cell line; ``role`` is the role field plus its label, if any."""
    return f"cell id=c{i} x={_length(x)} y={_length(y)} {role} zone={zone}"


def _document(geometry: str, cells: list[str]) -> bytes:
    return ("\n".join(["qcl 1", geometry, *cells]) + "\n").encode("utf-8")


def wire(n: int, geometry: str = DEFAULT_GEOMETRY, zone_run: int = 0) -> bytes:
    """Horizontal wire: input a at x=0, output b at the end.

    With ``zone_run`` > 0 cell i sits in clock zone (i // zone_run) mod 4.
    """
    cells = []
    for i in range(n):
        role = "role=normal"
        if i == 0:
            role = "role=input label=a"
        elif i == n - 1:
            role = "role=output label=b"
        zone = (i // zone_run) % 4 if zone_run else 0
        cells.append(_cell(i, i * PITCH, 0, role, zone))
    return _document(geometry, cells)


def majority() -> bytes:
    """Three inputs around a device cell, output m to its right."""
    s = PITCH
    cells = [
        _cell(0, -s, 0, "role=input label=a"),
        _cell(1, 0, s, "role=input label=b"),
        _cell(2, 0, -s, "role=input label=c"),
        _cell(3, 0, 0, "role=normal"),
        _cell(4, s, 0, "role=output label=m"),
    ]
    return _document(DEFAULT_GEOMETRY, cells)


def conventional_inverter() -> bytes:
    """Input wire that forks into two branches and reconverges inverted."""
    s = PITCH
    spots = [(0, 0), (s, 0), (2 * s, 0), (2 * s, s), (3 * s, s), (4 * s, s),
             (2 * s, -s), (3 * s, -s), (4 * s, -s), (5 * s, 0), (6 * s, 0)]
    cells = []
    for i, (x, y) in enumerate(spots):
        role = "role=normal"
        if i == 0:
            role = "role=input label=a"
        elif i == len(spots) - 1:
            role = "role=output label=b"
        cells.append(_cell(i, x, y, role))
    return _document(DEFAULT_GEOMETRY, cells)


def fabric(variant: int) -> bytes:
    """FABRIC_SIDE x FABRIC_SIDE block with every cell jittered per axis.

    Cells are listed row by row; the first is input a and the last output b.
    The jitter is rounded to 1e-6 nm so the text stays short; off-grid
    positions leave no two pairs with the same offset.
    """
    rng = random.Random(variant)
    cells = []
    last = FABRIC_SIDE * FABRIC_SIDE - 1
    for i in range(last + 1):
        row, col = divmod(i, FABRIC_SIDE)
        x = round(col * PITCH + (2 * rng.random() - 1) * FABRIC_JITTER, 6)
        y = round(row * PITCH + (2 * rng.random() - 1) * FABRIC_JITTER, 6)
        role = "role=normal"
        if i == 0:
            role = "role=input label=a"
        elif i == last:
            role = "role=output label=b"
        cells.append(_cell(i, x, y, role))
    return _document(DEFAULT_GEOMETRY, cells)


@dataclass(frozen=True)
class Op:
    """One op: the files the child finds in its directory and its CLI calls."""

    files: dict[str, bytes]
    calls: list[list[str]]


def _paper_circuits(_variant: int) -> Op:
    files = {
        "wire8.qcl": wire(8),
        "majority.qcl": majority(),
        "inverter.qcl": conventional_inverter(),
    }
    calls = [
        ["gen", "wire:8", "--out", "gen_wire8.qcl"],
        ["truth", "wire8.qcl", "--expect", "id"],
        ["gen", "majority", "--out", "gen_majority.qcl"],
        ["truth", "majority.qcl", "--expect", "maj"],
        ["sim", "majority.qcl", "--out", "majority_trace.csv",
         "--measure", "majority_steady.csv"],
        ["gen", "inverter:conventional", "--out", "gen_inverter.qcl"],
        ["truth", "inverter.qcl", "--expect", "not"],
        ["kink", "inverter.qcl", "--out", "inverter_pairs.csv"],
        # "--extra -1..3" would make argparse read -1..3 as an option.
        ["sweep", "--extra=-1..3", "--out", "sweep.csv", "--compare", "trend.md"],
    ]
    return Op(files, calls)


def _wire512_trace(_variant: int) -> Op:
    return Op(
        {"wire512.qcl": wire(512)},
        [["sim", "wire512.qcl", "--out", "trace.csv", "--measure", "steady.csv"]],
    )


def _fabric1k_kink(variant: int) -> Op:
    return Op(
        {"fabric.qcl": fabric(variant)},
        [["kink", "fabric.qcl", "--out", "pairs.csv"]],
    )


def _clocked_wire_gaas(_variant: int) -> Op:
    return Op(
        {"clocked.qcl": wire(128, GAAS_GEOMETRY, zone_run=16)},
        [["sim", "clocked.qcl", "--measure", "steady.csv"]],
    )


# name -> (op builder, number of recorded input variants)
WORKLOADS = {
    "paper_circuits": (_paper_circuits, 1),
    "wire512_trace": (_wire512_trace, 1),
    "fabric1k_kink": (_fabric1k_kink, FABRIC_VARIANTS),
    "clocked_wire_gaas": (_clocked_wire_gaas, 1),
}

# Files an op of paper_circuits writes with `gen` that must equal the
# benchmark's own input of the same circuit.
GEN_TWINS = {
    "gen_wire8.qcl": "wire8.qcl",
    "gen_majority.qcl": "majority.qcl",
    "gen_inverter.qcl": "inverter.qcl",
}


def variant_order(workload: str, seed: int) -> list[int]:
    """The input variants a run with ``seed`` uses, in op order (cycled)."""
    count = WORKLOADS[workload][1]
    return random.Random(seed).sample(range(count), count)
