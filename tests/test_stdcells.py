"""Structure checks for the generated standard circuits."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import NEUT
from qcasim import (
    Cell,
    ChargeModel,
    GeometryParams,
    Layout,
    Role,
    RoleKind,
    gen_conventional_inverter,
    gen_majority,
    gen_minimal_inverter,
    gen_wire,
    kink_energy,
    serialize_qcl,
    validate,
)

GENERATORS = [
    lambda geometry: gen_wire(2, geometry),
    lambda geometry: gen_wire(9, geometry),
    gen_majority,
    gen_conventional_inverter,
    lambda geometry: gen_minimal_inverter(-1, geometry),
    lambda geometry: gen_minimal_inverter(0, geometry),
    lambda geometry: gen_minimal_inverter(3, geometry),
]


# Valid geometries at any float pitch; only the pitch moves a generated cell.
GEOMETRIES = st.builds(
    lambda pitch, fill, eps, model: GeometryParams(
        cell_size=pitch * fill,
        dot_diameter=pitch * fill / 4,
        pitch=pitch,
        relative_permittivity=eps,
        charge_model=model,
        radius_of_effect=3 * pitch,
    ),
    st.floats(min_value=1e-300, max_value=1e300),
    st.just(1.0) | st.floats(min_value=0.5, max_value=1.0),  # 1.0: cells touch, pitch == cell_size
    st.floats(min_value=1.0, max_value=20.0),
    st.sampled_from(ChargeModel),
)


def reference_layouts(n, g):
    """Every standard layout written out one Cell per cell, as pitch
    multiples and literal zeros: (generated, reference) pairs."""
    s = g.pitch
    a, b, normal = Role.input("a"), Role.output("b"), Role.normal()
    wire = [Cell("c0", 0.0, 0.0, a)]
    wire += [Cell(f"c{i}", i * s, 0.0, normal) for i in range(1, n - 1)]
    wire.append(Cell(f"c{n - 1}", (n - 1) * s, 0.0, b))
    majority = [
        Cell("c0", -s, 0.0, a),
        Cell("c1", 0.0, s, Role.input("b")),
        Cell("c2", 0.0, -s, Role.input("c")),
        Cell("c3", 0.0, 0.0, normal),
        Cell("c4", s, 0.0, Role.output("m")),
    ]
    conventional = [
        Cell("c0", 0.0, 0.0, a),
        Cell("c1", s, 0.0, normal),
        Cell("c2", 2 * s, 0.0, normal),
        Cell("c3", 2 * s, s, normal),
        Cell("c4", 3 * s, s, normal),
        Cell("c5", 4 * s, s, normal),
        Cell("c6", 2 * s, -s, normal),
        Cell("c7", 3 * s, -s, normal),
        Cell("c8", 4 * s, -s, normal),
        Cell("c9", 5 * s, 0.0, normal),
        Cell("c10", 6 * s, 0.0, b),
    ]
    pairs = [
        (gen_wire(n, g), wire),
        (gen_majority(g), majority),
        (gen_conventional_inverter(g), conventional),
        (gen_minimal_inverter(-1, g), [Cell("c0", 0.0, 0.0, a), Cell("c1", 2 * s, s, b)]),
    ]
    for extra in range(5):
        minimal = [Cell("c0", 0.0, 0.0, a), Cell("c1", s, 0.0, normal)]
        minimal += [Cell(f"c{2 + i}", (2 + i) * s, s, normal) for i in range(extra)]
        minimal.append(Cell(f"c{2 + extra}", (2 + extra) * s, s, b))
        pairs.append((gen_minimal_inverter(extra, g), minimal))
    return [(built, Layout(g, cells)) for built, cells in pairs]


@given(st.integers(min_value=2, max_value=12), GEOMETRIES)
@example(2, GeometryParams())
@example(12, GeometryParams(cell_size=18.25, dot_diameter=5.5, pitch=20.125))
@settings(max_examples=150)
def test_generators_match_the_per_cell_reference_at_any_pitch(n, geometry):
    for built, reference in reference_layouts(n, geometry):
        assert repr(built) == repr(reference)


def test_int_pitch_matches_the_reference_by_value():
    # The grid gives int 0 where the reference writes 0.0: equal values, same text.
    for built, reference in reference_layouts(5, GeometryParams(pitch=20)):
        assert built == reference
        assert serialize_qcl(built) == serialize_qcl(reference)


def positions(layout):
    return [(c.x, c.y) for c in layout.cells]


def by_id(layout):
    return {c.id: c for c in layout.cells}


def pitch_neighbors(layout, cell):
    p = layout.geometry.pitch
    return [
        other
        for other in layout.cells
        if other.id != cell.id and math.hypot(other.x - cell.x, other.y - cell.y) == p
    ]


@pytest.mark.parametrize("build", GENERATORS)
@given(GEOMETRIES)
@example(GeometryParams())
@example(GeometryParams(cell_size=18.3, pitch=18.3))  # neighbours 18.299999999999997 apart
def test_generators_validate_clean_and_are_pure(build, geometry):
    layout = build(geometry)
    assert validate(layout) == []
    assert build(geometry) == layout
    assert all(c.zone == 0 for c in layout.cells)
    assert [c.id for c in layout.cells] == [f"c{i}" for i in range(len(layout))]


class TestWire:
    def test_two_cells(self):
        layout = gen_wire(2)
        assert positions(layout) == [(0.0, 0.0), (20.0, 0.0)]
        assert layout.cells[0].role.kind is RoleKind.INPUT
        assert layout.cells[0].role.label == "a"
        assert layout.cells[1].role.kind is RoleKind.OUTPUT
        assert layout.cells[1].role.label == "b"

    def test_interior_cells_are_normal(self):
        layout = gen_wire(6)
        assert positions(layout) == [(i * 20.0, 0.0) for i in range(6)]
        kinds = [c.role.kind for c in layout.cells]
        assert kinds[1:-1] == [RoleKind.NORMAL] * 4

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_needs_two_cells(self, n):
        with pytest.raises(ValueError):
            gen_wire(n)

    def test_custom_pitch(self):
        g = GeometryParams(pitch=40.0)
        layout = gen_wire(3, g)
        assert layout.geometry == g
        assert positions(layout) == [(0.0, 0.0), (40.0, 0.0), (80.0, 0.0)]


class TestMajority:
    def test_cross_arrangement(self):
        layout = gen_majority()
        assert positions(layout) == [
            (-20.0, 0.0),
            (0.0, 20.0),
            (0.0, -20.0),
            (0.0, 0.0),
            (20.0, 0.0),
        ]
        assert layout.input_labels() == ("a", "b", "c")
        assert layout.outputs()[0].role.label == "m"

    def test_device_cell_sees_all_four_arms(self):
        layout = gen_majority()
        device = by_id(layout)["c3"]
        assert {c.id for c in pitch_neighbors(layout, device)} == {"c0", "c1", "c2", "c4"}

    def test_terminals_touch_only_the_device_cell(self):
        layout = gen_majority()
        cells = by_id(layout)
        for cid in ("c0", "c1", "c2", "c4"):
            arm = cells[cid]
            assert [c.id for c in pitch_neighbors(layout, arm)] == ["c3"]


class TestConventionalInverter:
    def test_shape(self):
        layout = gen_conventional_inverter()
        assert len(layout) == 11
        assert positions(layout) == [
            (0.0, 0.0),
            (20.0, 0.0),
            (40.0, 0.0),
            (40.0, 20.0),
            (60.0, 20.0),
            (80.0, 20.0),
            (40.0, -20.0),
            (60.0, -20.0),
            (80.0, -20.0),
            (100.0, 0.0),
            (120.0, 0.0),
        ]
        assert layout.cells[0].role.label == "a"
        assert layout.cells[10].role.kind is RoleKind.OUTPUT

    def test_branches_mirror_about_the_axis(self):
        cells = by_id(gen_conventional_inverter())
        for upper, lower in (("c3", "c6"), ("c4", "c7"), ("c5", "c8")):
            u, d = cells[upper], cells[lower]
            assert (u.x, u.y) == (d.x, -d.y)

    def test_convergence_cell_antialigns_with_both_branch_ends(self):
        cells = by_id(gen_conventional_inverter())
        conv = cells["c9"]
        for end in ("c5", "c8"):
            assert kink_energy(conv, cells[end], NEUT) < 0
        # but couples normally to the readout cell
        assert kink_energy(conv, cells["c10"], NEUT) > 0


class TestMinimalInverter:
    def test_base_three_cells(self):
        layout = gen_minimal_inverter(0)
        assert positions(layout) == [(0.0, 0.0), (20.0, 0.0), (40.0, 20.0)]
        kinds = [c.role.kind for c in layout.cells]
        assert kinds == [RoleKind.INPUT, RoleKind.NORMAL, RoleKind.OUTPUT]
        # the coupler-to-output step is the inverting one
        assert kink_energy(layout.cells[1], layout.cells[2], NEUT) < 0
        assert kink_energy(layout.cells[0], layout.cells[1], NEUT) > 0

    def test_extras_extend_along_the_offset_row(self):
        layout = gen_minimal_inverter(3)
        assert positions(layout) == [
            (0.0, 0.0),
            (20.0, 0.0),
            (40.0, 20.0),
            (60.0, 20.0),
            (80.0, 20.0),
            (100.0, 20.0),
        ]
        assert layout.cells[-1].role.kind is RoleKind.OUTPUT
        assert [c.role.kind for c in layout.cells[2:-1]] == [RoleKind.NORMAL] * 3

    def test_dropping_the_coupler_keeps_the_inverting_cell(self):
        layout = gen_minimal_inverter(-1)
        assert positions(layout) == [(0.0, 0.0), (40.0, 20.0)]
        assert layout.cells[1].role.kind is RoleKind.OUTPUT
        assert kink_energy(layout.cells[0], layout.cells[1], NEUT) < 0

    def test_rejects_below_minus_one(self):
        for extra in (-2, -10):
            with pytest.raises(ValueError):
                gen_minimal_inverter(extra)

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_family_grows_by_one_appended_cell(self, extra):
        small = gen_minimal_inverter(extra)
        big = gen_minimal_inverter(extra + 1)
        assert len(big) == len(small) + 1
        assert positions(big)[:-1] == positions(small)
        assert positions(big)[-1] == (20.0 * (3 + extra), 20.0)
        # only the output marker moves: old output becomes a normal cell
        assert big.cells[len(small) - 1].role.kind is RoleKind.NORMAL
        assert big.cells[-1].role.kind is RoleKind.OUTPUT
        assert big.cells[-1].role.label == "b"

    def test_removal_step_preserves_the_shared_cells(self):
        two = gen_minimal_inverter(-1)
        three = gen_minimal_inverter(0)
        assert positions(two)[0] == positions(three)[0]
        assert positions(two)[1] == positions(three)[2]
