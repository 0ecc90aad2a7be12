"""Core model: geometry invariants, roles, electron placement, validation."""

from __future__ import annotations

import inspect
import itertools
import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from qcasim import (
    Cell,
    ChargeModel,
    GeometryParams,
    Layout,
    Role,
    RoleKind,
    dot_positions,
    electron_positions,
    validate,
)
from qcasim.model import pairs_within


def test_geometry_defaults():
    g = GeometryParams()
    assert g.cell_size == 18.0
    assert g.dot_diameter == 5.0
    assert g.pitch == 20.0
    assert g.relative_permittivity == 1.0
    assert g.charge_model is ChargeModel.NEUTRALIZED
    assert g.radius_of_effect == 65.0
    assert g.dot_offset == 6.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dot_diameter": 0.0},
        {"dot_diameter": -1.0},
        {"cell_size": 5.0, "dot_diameter": 5.0},
        {"pitch": 17.0},                      # below cell_size
        {"relative_permittivity": 0.0},
        {"relative_permittivity": -2.0},
        {"radius_of_effect": 10.0},           # below pitch
        {"cell_size": float("nan")},
        {"pitch": float("inf")},
    ],
)
def test_geometry_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        GeometryParams(**kwargs)


def test_geometry_rejects_non_enum_charge_model():
    with pytest.raises(ValueError):
        GeometryParams(charge_model="bare")


def test_role_factories_and_validation():
    assert Role.input("a").kind is RoleKind.INPUT
    assert Role.output("out").label == "out"
    assert Role.fixed(-1).polarization == -1
    assert Role.normal().label is None

    with pytest.raises(ValueError):
        Role.input("")
    with pytest.raises(ValueError):
        Role.input("has space")
    with pytest.raises(ValueError):
        Role.fixed(0)
    with pytest.raises(ValueError):
        Role(RoleKind.FIXED, label="x", polarization=1)
    with pytest.raises(ValueError):
        Role(RoleKind.INPUT, label="a", polarization=1)
    with pytest.raises(ValueError):
        Role(RoleKind.NORMAL, label="a")
    # the text form writes a pin as an integer, so a bool or float one does not build
    for pin in (1.0, True):
        with pytest.raises(ValueError, match=r"^fixed role needs polarization -1 or \+1$"):
            Role.fixed(pin)


def test_cell_validation():
    Cell("ok-1", 0.0, 0.0, Role.normal(), zone=3)
    with pytest.raises(ValueError):
        Cell("bad id", 0.0, 0.0, Role.normal())
    with pytest.raises(ValueError):
        Cell("=x", 0.0, 0.0, Role.normal())
    with pytest.raises(ValueError):
        Cell("c", float("nan"), 0.0, Role.normal())
    with pytest.raises(ValueError):
        Cell("c", 0.0, 0.0, Role.normal(), zone=4)
    for zone in (2.0, True):  # likewise a zone
        with pytest.raises(ValueError, match=r"^cell c: clock zone must be 0\.\.3$"):
            Cell("c", 0.0, 0.0, Role.normal(), zone=zone)


# A wrongly typed field gives the same ValueError as a bad value, not a
# TypeError from the check itself or a role that only fails on serialization.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Cell("c", "0", 0.0, Role.normal()), "cell c: position must be finite"),
        (lambda: Cell("c", 0.0, None, Role.normal()), "cell c: position must be finite"),
        (lambda: Role.input(5), "input role needs a token label"),
        (lambda: Role.output(b"q"), "output role needs a token label"),
        (lambda: Role("output"), "role kind must be a RoleKind"),
        (lambda: Role("fixed", polarization=1), "role kind must be a RoleKind"),
        (lambda: Layout("geometry", []), "layout geometry must be a GeometryParams"),
        (lambda: Layout(GeometryParams(), [("c", 0.0, 0.0)]), "layout cells must be Cells"),
        (lambda: Cell("c", 0.0, 0.0, "normal"), "cell c: role must be a Role"),
    ],
    ids=["x-str", "y-none", "input-label-int", "output-label-bytes", "kind-str", "fixed-kind-str",
         "layout-geometry-str", "layout-cell-tuple", "cell-role-str"],
)
def test_wrongly_typed_fields_raise_value_error(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()



# An int too large for a double is not finite: the check gives its ValueError
# where math.isfinite would raise OverflowError; the largest double still builds.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GeometryParams(pitch=2**1100), "geometry parameters must be finite numbers"),
        (lambda: GeometryParams(radius_of_effect=-(2**1024)), "geometry parameters must be finite numbers"),
        (lambda: Cell("c", 2**1100, 0.0, Role.normal()), "cell c: position must be finite"),
        (lambda: Cell("c", 0.0, -(2**1024), Role.normal()), "cell c: position must be finite"),
    ],
    ids=["pitch", "radius", "x", "y"],
)
def test_ints_too_large_for_a_double_raise_value_error(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()
    largest = int(sys.float_info.max)
    assert Cell("c", largest, -largest, Role.normal()).x == largest

def test_electron_positions_default_conventions():
    g = GeometryParams()
    c = Cell("c", 0.0, 0.0, Role.normal())
    assert set(electron_positions(c, +1, g)) == {(6.5, 6.5), (-6.5, -6.5)}
    assert set(electron_positions(c, -1, g)) == {(-6.5, 6.5), (6.5, -6.5)}


def test_electron_positions_translate_with_center():
    g = GeometryParams()
    c = Cell("c", 20.0, 0.0, Role.normal())
    assert set(electron_positions(c, +1, g)) == {(26.5, 6.5), (13.5, -6.5)}


def test_electron_positions_rejects_other_polarizations():
    g = GeometryParams()
    c = Cell("c", 0.0, 0.0, Role.normal())
    for p in (0, 2, -2):
        with pytest.raises(ValueError):
            electron_positions(c, p, g)


def test_diagonals_partition_the_dot_square():
    g = GeometryParams(cell_size=30.0, dot_diameter=4.0, pitch=30.0)
    c = Cell("c", -7.0, 11.0, Role.normal())
    plus = set(electron_positions(c, +1, g))
    minus = set(electron_positions(c, -1, g))
    assert plus | minus == set(dot_positions(c, g))
    assert not plus & minus


def test_electron_separation_is_the_dot_square_diagonal():
    for g in (GeometryParams(), GeometryParams(cell_size=30.0, dot_diameter=4.0, pitch=30.0)):
        c = Cell("c", 3.0, -2.0, Role.normal())
        for p in (-1, +1):
            (x1, y1), (x2, y2) = electron_positions(c, p, g)
            assert math.hypot(x2 - x1, y2 - y1) == pytest.approx(
                math.sqrt(2.0) * (g.cell_size - g.dot_diameter), rel=1e-12
            )


def test_layout_accessors():
    g = GeometryParams()
    cells = [
        Cell("i", 0.0, 0.0, Role.input("b")),
        Cell("j", 20.0, 0.0, Role.input("a")),
        Cell("n", 40.0, 0.0, Role.normal()),
        Cell("f", 60.0, 0.0, Role.fixed(+1)),
        Cell("o", 80.0, 0.0, Role.output("q")),
    ]
    lay = Layout(g, cells)
    assert len(lay) == 5
    assert [c.id for c in lay.inputs()] == ["i", "j"]
    assert [c.id for c in lay.outputs()] == ["o"]
    assert [c.id for c in lay.fixed_cells()] == ["f"]
    assert lay.input_labels() == ("a", "b")  # sorted, not layout order
    assert lay.cells == tuple(cells)  # order preserved


def test_validate_clean_layout():
    g = GeometryParams()
    lay = Layout(g, [Cell("only", 0.0, 0.0, Role.input("a"))])
    assert validate(lay) == []


def test_validate_overlap_names_both_cells():
    g = GeometryParams()
    lay = Layout(
        g,
        [
            Cell("a", 0.0, 0.0, Role.input("x")),
            Cell("b", 0.0, 0.0, Role.normal()),
        ],
    )
    violations = validate(lay)
    assert [v.rule for v in violations] == ["overlap"]
    assert set(violations[0].cell_ids) == {"a", "b"}


def test_validate_overlap_threshold_is_cell_size():
    g = GeometryParams()
    ok = Layout(g, [Cell("a", 0.0, 0.0, Role.input("x")), Cell("b", 18.0, 0.0, Role.normal())])
    bad = Layout(g, [Cell("a", 0.0, 0.0, Role.input("x")), Cell("b", 17.9, 0.0, Role.normal())])
    assert validate(ok) == []
    assert [v.rule for v in validate(bad)] == ["overlap"]


def test_validate_overlap_threshold_off_axis():
    # a 3-4-5 offset lands exactly on cell_size without lying on an axis
    g = GeometryParams(cell_size=20.0)
    ok = Layout(g, [Cell("a", 0.0, 0.0, Role.input("x")), Cell("b", 12.0, 16.0, Role.normal())])
    bad = Layout(g, [Cell("a", 0.0, 0.0, Role.input("x")), Cell("b", 12.0, 15.9, Role.normal())])
    assert validate(ok) == []
    assert [v.rule for v in validate(bad)] == ["overlap"]


def test_validate_duplicate_label():
    g = GeometryParams()
    lay = Layout(
        g,
        [
            Cell("a", 0.0, 0.0, Role.input("x")),
            Cell("b", 40.0, 0.0, Role.input("x")),
        ],
    )
    violations = validate(lay)
    assert [v.rule for v in violations] == ["duplicate-label"]
    assert set(violations[0].cell_ids) == {"a", "b"}


def test_validate_duplicate_label_only_within_a_role():
    # the same label on an input and an output is legal
    g = GeometryParams()
    lay = Layout(
        g,
        [
            Cell("a", 0.0, 0.0, Role.input("x")),
            Cell("b", 40.0, 0.0, Role.output("x")),
        ],
    )
    assert validate(lay) == []


def test_validate_duplicate_id():
    g = GeometryParams()
    lay = Layout(
        g,
        [
            Cell("a", 0.0, 0.0, Role.input("x")),
            Cell("a", 40.0, 0.0, Role.normal()),
        ],
    )
    assert "duplicate-id" in {v.rule for v in validate(lay)}


def test_validate_free_cells_need_a_driver():
    g = GeometryParams()
    lay = Layout(g, [Cell("n", 0.0, 0.0, Role.normal())])
    assert [v.rule for v in validate(lay)] == ["no-driver"]
    driven = Layout(
        g,
        [Cell("n", 0.0, 0.0, Role.normal()), Cell("f", 40.0, 0.0, Role.fixed(-1))],
    )
    assert validate(driven) == []


def test_validate_is_deterministic():
    g = GeometryParams()
    lay = Layout(
        g,
        [
            Cell("a", 0.0, 0.0, Role.input("x")),
            Cell("a", 0.0, 0.0, Role.input("x")),
        ],
    )
    assert validate(lay) == validate(lay)


@pytest.mark.parametrize(
    "cells, expected",
    [
        (  # two overlapping cells share an id and an output label; nothing drives them
            [
                Cell("x", 0.0, 0.0, Role.output("o")),
                Cell("x", 10.0, 0.0, Role.output("o")),
                Cell("n", 100.0, 0.0, Role.normal()),
            ],
            [
                ("duplicate-id", ("x",), "cell id 'x' appears 2 times"),
                ("duplicate-label", ("x", "x"), "output label 'o' used by cells x, x"),
                ("overlap", ("x", "x"), "cells x and x are closer than cell_size"),
                ("no-driver", ("x", "x", "n"), "layout has free cells but no input or fixed cell to drive them"),
            ],
        ),
        (  # input labels are checked before output labels
            [
                Cell("a", 0.0, 0.0, Role.input("i")),
                Cell("b", 40.0, 0.0, Role.input("i")),
                Cell("c", 80.0, 0.0, Role.output("o")),
                Cell("d", 120.0, 0.0, Role.output("o")),
            ],
            [
                ("duplicate-label", ("a", "b"), "input label 'i' used by cells a, b"),
                ("duplicate-label", ("c", "d"), "output label 'o' used by cells c, d"),
            ],
        ),
    ],
)
def test_validate_reports_every_rule_in_a_fixed_order(cells, expected):
    assert [tuple(v) for v in validate(Layout(GeometryParams(), cells))] == expected


coordinate = st.floats(-200.0, 200.0, allow_nan=False, allow_infinity=False)
far_shift = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.tuples(coordinate, coordinate), max_size=12),
    st.floats(0.0, 150.0),
    far_shift,
    far_shift,
)
def test_pairs_within_matches_brute_force(points, radius, shift_x, shift_y):
    # the layout as drawn, and the same layout translated far from the origin
    for sx, sy in ((0.0, 0.0), (shift_x, shift_y)):
        cells = [Cell(f"c{i}", x + sx, y + sy, Role.normal()) for i, (x, y) in enumerate(points)]
        distances = [
            (i, j, math.hypot(b.x - a.x, b.y - a.y))
            for (i, a), (j, b) in itertools.combinations(enumerate(cells), 2)
        ]
        # the drawn radius, plus radii equal to some pair distances (the cutoff is inclusive)
        for r in [radius] + [d for _, _, d in distances[:3]]:
            found = pairs_within(cells, r)
            assert inspect.isgenerator(found)
            assert list(found) == [pair for pair in distances if pair[2] <= r]
