"""Generators for the standard test circuits.

All generators are pure: same arguments, same layout.  Each circuit is a
list of (column, row, role) spots on the pitch grid: the cell sits at
(column * pitch, row * pitch), +x is the signal direction and +y is up.
Spots are listed in signal-flow order (drivers first), which is also the
engine's sweep order.  Ids are c0, c1, ... in that order; inputs are
labeled a (then b, c), the output is labeled b for two-terminal circuits
and m for the majority gate.
"""

from __future__ import annotations

from .model import Cell, GeometryParams, Layout, Role

__all__ = [
    "gen_wire",
    "gen_majority",
    "gen_conventional_inverter",
    "gen_minimal_inverter",
]

_NORMAL = Role.normal()


def _grid_layout(geometry: GeometryParams | None, spots: list[tuple[int, int, Role]]) -> Layout:
    """Number the spots c0, c1, ... in order and scale them by the pitch."""
    geometry = geometry or GeometryParams()
    pitch = geometry.pitch
    cells = [
        Cell(f"c{i}", col * pitch, row * pitch, role)
        for i, (col, row, role) in enumerate(spots)
    ]
    return Layout(geometry, cells)


def gen_wire(n: int, geometry: GeometryParams | None = None) -> Layout:
    """Straight horizontal wire of ``n`` >= 2 cells along +x."""
    if n < 2:
        raise ValueError("a wire needs at least 2 cells")
    interior = [(col, 0, _NORMAL) for col in range(1, n - 1)]
    spots = [(0, 0, Role.input("a")), *interior, (n - 1, 0, Role.output("b"))]
    return _grid_layout(geometry, spots)


def gen_majority(geometry: GeometryParams | None = None) -> Layout:
    """Five-cell majority gate: three inputs around a device cell, one output.

    Output follows the majority of inputs a, b, c.
    """
    spots = [
        (-1, 0, Role.input("a")), (0, 1, Role.input("b")), (0, -1, Role.input("c")),
        (0, 0, _NORMAL),
        (1, 0, Role.output("m")),
    ]
    return _grid_layout(geometry, spots)


def gen_conventional_inverter(geometry: GeometryParams | None = None) -> Layout:
    """Eleven-cell split-and-reconverge inverter.

    A three-cell input wire forks into two parallel branches one pitch above
    and below; both branch ends sit diagonally to a convergence cell, whose
    anti-aligning coupling performs the single inversion; a final cell reads
    it out.
    """
    spots = [
        (0, 0, Role.input("a")), (1, 0, _NORMAL), (2, 0, _NORMAL),  # input wire
        (2, 1, _NORMAL), (3, 1, _NORMAL), (4, 1, _NORMAL),  # upper branch
        (2, -1, _NORMAL), (3, -1, _NORMAL), (4, -1, _NORMAL),  # lower branch
        (5, 0, _NORMAL),  # convergence cell
        (6, 0, Role.output("b")),
    ]
    return _grid_layout(geometry, spots)


def gen_minimal_inverter(extra: int, geometry: GeometryParams | None = None) -> Layout:
    """Minimal diagonal inverter family, ``extra`` >= -1 (2 or more cells).

    The base (extra = 0) is input -> coupler -> diagonally offset inverting
    cell, which is the output.  Positive ``extra`` appends that many cells
    along +x after the inverting cell and moves the output label to the last
    one.  extra = -1 drops only the coupler, leaving the inverting cell in
    place; the input then drives it across the longer offset, so the output
    still inverts but settles at noticeably lower polarization.
    """
    if extra < -1:
        raise ValueError("extra must be at least -1")
    coupler = [(1, 0, _NORMAL)] if extra >= 0 else []
    last = 2 + max(extra, 0)
    offset_row = [(col, 1, _NORMAL) for col in range(2, last)] + [(last, 1, Role.output("b"))]
    return _grid_layout(geometry, [(0, 0, Role.input("a")), *coupler, *offset_row])
