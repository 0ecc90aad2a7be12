"""Full-precision pins of the kink kernel and of coupling_map's memo.

The CSV files print energies to 6 significant digits, so their golden bytes
cannot see a change in the last bits of a kink energy.  The digests hash
``repr`` of the floats themselves, on the benchmark's own layouts: the kink
report of three off-grid fabrics, and coupling_map of the 512-cell wire, the
128-cell clocked wire at eps_r 12.9 and a fabric under both charge models.
The wire digests were recorded when coupling_map still called kink_energy
per pair, as ``per_pair_coupling_map`` does, and the memo tests compare
against that too.  The fabric digests were recorded when the kernel began
to take a pair's distances from its centre offset: off the grid that moves
the last bits of some energies (585 bare and 1,111 neutralized of fabric 0's
16,784 pairs), and the 6-digit CSVs do not change.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from helpers import fabric_layout, inputs, sha, traced_peak  # inputs: perfbench/inputs.py
from qcasim import (
    Cell,
    ChargeModel,
    GeometryParams,
    Layout,
    Role,
    ZeroDistanceError,
    circuit_kink_energy,
    coupling_map,
    gen_wire,
    kink_energy,
    parse_qcl,
)
from qcasim import electrostatics
from qcasim.model import pairs_within


def _digest(value) -> str:
    return sha(repr(value).encode("utf-8"))


KINK_REPORT = {
    0: "9853ef3259e94b6eaa1cd29586765f51c7d4626ed06ab0bc9b67cd8631216721",
    7: "d45bb1b662e181cd0cbb850f653fa46eec6baedcf336e4b8e55b7f1a4b99d162",
    31: "198ff9d64d9ba5b4447999c4125fe4ac9f7c45dc2aa24f86fd5d555612e19803",
}

COUPLING_MAP = {
    "wire512": (lambda: gen_wire(512), "f0398b51f2395756b1b8c330f1847b624fba658d2771f9aabee436ede668b744"),
    "clocked_gaas128": (
        lambda: parse_qcl(inputs.wire(128, inputs.GAAS_GEOMETRY, zone_run=16).decode("utf-8"))[0],
        "1c9b60170ce336471eb9d04cdcd9192e80c860f1149706117821d2e3f3d71a72",
    ),
    "fabric0_bare": (
        lambda: fabric_layout(0, charge_model=ChargeModel.BARE),
        "bc2149b8928bc9a392eaaca749c9b42528ca2c920debb4d7584d1daef4acdfd3",
    ),
    "fabric0_neutralized": (
        lambda: fabric_layout(0),
        "7e36c6a8f4c6a2da923081f0a75a8b7ba028d373745098bb4e579059b3dff503",
    ),
}


@pytest.mark.parametrize("variant", sorted(KINK_REPORT))
def test_kink_report_digest(variant):
    # every field of every pair, then both totals
    report = circuit_kink_energy(fabric_layout(variant))
    assert _digest(([tuple(p) for p in report.pairs], report.total_bare, report.total_neutralized)) == KINK_REPORT[variant]


@pytest.mark.parametrize("name", sorted(COUPLING_MAP))
def test_coupling_map_digest(name):
    build, want = COUPLING_MAP[name]
    assert _digest(coupling_map(build())) == want


def per_pair_coupling_map(layout):
    """coupling_map as one kink_energy call per pair: the reference."""
    cells = layout.cells
    neighbors = [[] for _ in cells]
    for i, j, _ in pairs_within(cells, layout.geometry.radius_of_effect):
        e = kink_energy(cells[i], cells[j], layout.geometry)
        neighbors[i].append((j, e))
        neighbors[j].append((i, e))
    return tuple(tuple(row) for row in neighbors)


@st.composite
def blocks(draw):
    """A block of cells on a grid, or jittered off it, anywhere in the plane."""
    size = draw(st.sampled_from([10.0, 18.0, 18.3]))
    gap = draw(st.sampled_from([2.0, 2.5, 7.0]))  # pitch minus cell size
    geometry = GeometryParams(
        cell_size=size,
        dot_diameter=size * 5.0 / 18.0,
        pitch=size + gap,
        relative_permittivity=draw(st.sampled_from([1.0, 2, 3.7, 12.9])),
        charge_model=draw(st.sampled_from(list(ChargeModel))),
        radius_of_effect=draw(st.sampled_from([30.0, 65.0, 100.0])),
    )
    centre = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    x0, y0 = draw(centre), draw(centre)
    cols = draw(st.integers(1, 6))
    jitter = st.floats(-0.45 * gap, 0.45 * gap) if draw(st.booleans()) else st.just(0.0)
    cells = [
        Cell(f"c{k}", x0 + (k % cols) * (size + gap) + draw(jitter), y0 + (k // cols) * (size + gap) + draw(jitter), Role.normal())
        for k in range(draw(st.integers(2, 18)))
    ]
    return Layout(geometry, cells)


@given(blocks(), st.sampled_from([0, 1, 3, electrostatics._MEMO_KEYS]))
def test_coupling_map_is_the_per_pair_reference(layout, keys):
    # every neighbour row in the same order, bit for bit; a bound of 0 or a
    # few keys makes the memo freeze early
    with mock.patch.object(electrostatics, "_MEMO_KEYS", keys):
        got = coupling_map(layout)
    want = per_pair_coupling_map(layout)
    assert got == want
    assert repr(got) == repr(want)


def test_a_coincident_pair_still_raises():
    # c2-c3 and c4-c5 have one geometry, with b's bottom-left dot on a's
    # top-right dot; c0-c1 and c1-c2 come first in pairs_within order
    spots = [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (53.0, 13.0), (200.0, 0.0), (213.0, 13.0)]
    cells = [Cell(f"c{k}", x, y, Role.normal()) for k, (x, y) in enumerate(spots)]
    neutralized = Layout(GeometryParams(), cells)
    with pytest.raises(ZeroDistanceError, match="^dots of two cells coincide$"):
        coupling_map(neutralized)
    # the coincident dot is empty at P = -1, so the bare coupling is defined
    bare = neutralized._replace(geometry=GeometryParams(charge_model=ChargeModel.BARE))
    assert coupling_map(bare) == per_pair_coupling_map(bare)


def test_a_wire_runs_the_kernel_once_per_offset(monkeypatch):
    calls = []
    kernel = electrostatics._neutralized_kink
    monkeypatch.setattr(electrostatics, "_neutralized_kink", lambda d: calls.append(d) or kernel(d))
    coupling_map(gen_wire(512))
    assert len(calls) == 3  # 20, 40 and 60 nm to the right


def test_coupling_map_memory_on_an_off_grid_fabric():
    # every pair of a jittered fabric is a geometry of its own, so a memo
    # without a bound would hold one entry per pair (about 2 MB more here)
    layout = fabric_layout(0)
    assert traced_peak(coupling_map, layout) <= traced_peak(per_pair_coupling_map, layout) + 500_000
