"""Core data model for quantum-dot cellular automata layouts.

A cell is a square of four quantum dots holding two mobile electrons.  The
electrons occupy one of the two diagonals, and that choice encodes one bit:
polarization P = +1 (logic 1) puts them on the main diagonal (top-right and
bottom-left dots), P = -1 (logic 0) on the anti-diagonal.  A layout places
cells in the plane (nm units, y axis pointing up), gives each a role and a
clock zone, and fixes the cell order that the relaxation engine sweeps in.
"""

from __future__ import annotations

import bisect
import math
import re
import sys
from collections import Counter
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "TOKEN_RE",
    "ChargeModel",
    "GeometryParams",
    "RoleKind",
    "Role",
    "Cell",
    "Layout",
    "Violation",
    "dot_positions",
    "electron_positions",
    "pairs_within",
    "validate",
]

# Legal form for cell ids and input/output labels.  Restricting these to a
# safe token alphabet is what lets the text format round-trip every valid
# layout (no whitespace, '=', '#' or ',' can appear inside a token).
TOKEN_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.+:-]*\Z")


class _Record:
    """Base of the records that validate or cache.  The fields are the
    parameters of ``__init__``, which stores them in the instance
    ``__dict__`` and then checks them.  A record is immutable, equal only
    to a record of the same type with equal fields, hashed by its fields,
    shown as ``Name(field=value, ...)``, and ``_replace`` copies it through
    ``__init__``, so the copy is checked too."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes: object) -> _Record:
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class ChargeModel(Enum):
    """Charge placement used when a cell is reduced to point charges."""

    BARE = "bare"                # -e on each occupied dot, empty dots omitted
    NEUTRALIZED = "neutralized"  # -e/2 on occupied dots, +e/2 on empty dots


class GeometryParams(_Record):
    """Cell geometry and electrostatic environment.  Lengths are in nm.

    ``radius_of_effect`` is the maximum center-to-center distance at which
    two cells interact at all; pairs further apart are skipped both in kink
    reports and in the relaxation engine.
    """

    def __init__(
        self, cell_size: float = 18.0, dot_diameter: float = 5.0, pitch: float = 20.0,
        relative_permittivity: float = 1.0, charge_model: ChargeModel = ChargeModel.NEUTRALIZED,
        radius_of_effect: float = 65.0,
    ) -> None:
        self.__dict__.update(
            cell_size=cell_size, dot_diameter=dot_diameter, pitch=pitch, relative_permittivity=relative_permittivity,
            charge_model=charge_model, radius_of_effect=radius_of_effect,
        )
        numbers = (
            self.cell_size,
            self.dot_diameter,
            self.pitch,
            self.relative_permittivity,
            self.radius_of_effect,
        )
        if not all(isinstance(v, (int, float)) and abs(v) <= sys.float_info.max for v in numbers):
            raise ValueError("geometry parameters must be finite numbers")
        if not isinstance(self.charge_model, ChargeModel):
            raise ValueError("charge_model must be a ChargeModel")
        if not self.dot_diameter > 0:
            raise ValueError("dot_diameter must be positive")
        if not self.cell_size > self.dot_diameter:
            raise ValueError("cell_size must exceed dot_diameter")
        if self.pitch < self.cell_size:
            raise ValueError("pitch must be at least cell_size")
        if self.relative_permittivity <= 0:
            raise ValueError("relative_permittivity must be positive")
        if self.radius_of_effect < self.pitch:
            raise ValueError("radius_of_effect must be at least pitch")

    @property
    def dot_offset(self) -> float:
        """Distance from the cell center to each dot center, per axis."""
        return (self.cell_size - self.dot_diameter) / 2.0


class RoleKind(Enum):
    INPUT = "input"    # polarization pinned per test vector; labeled
    OUTPUT = "output"  # free cell that is read out; labeled
    FIXED = "fixed"    # permanently pinned driver
    NORMAL = "normal"  # free cell


class Role(_Record):
    """Role of a cell, with the label or pinned polarization it requires."""

    def __init__(self, kind: RoleKind, label: str | None = None, polarization: int | None = None) -> None:
        self.__dict__.update(kind=kind, label=label, polarization=polarization)
        if not isinstance(self.kind, RoleKind):
            raise ValueError("role kind must be a RoleKind")
        if self.kind in (RoleKind.INPUT, RoleKind.OUTPUT):
            if not isinstance(self.label, str) or not TOKEN_RE.match(self.label):
                raise ValueError(f"{self.kind.value} role needs a token label")
            if self.polarization is not None:
                raise ValueError(f"{self.kind.value} role takes no polarization")
        elif self.kind is RoleKind.FIXED:
            # an int, not a bool or float: the text form writes it with %+d
            if type(self.polarization) is not int or self.polarization not in (-1, 1):
                raise ValueError("fixed role needs polarization -1 or +1")
            if self.label is not None:
                raise ValueError("fixed role takes no label")
        else:
            if self.label is not None or self.polarization is not None:
                raise ValueError("normal role takes no label or polarization")

    @classmethod
    def input(cls, label: str) -> "Role":
        return cls(RoleKind.INPUT, label=label)

    @classmethod
    def output(cls, label: str) -> "Role":
        return cls(RoleKind.OUTPUT, label=label)

    @classmethod
    def fixed(cls, polarization: int) -> "Role":
        return cls(RoleKind.FIXED, polarization=polarization)

    @classmethod
    def normal(cls) -> "Role":
        return cls(RoleKind.NORMAL)


class Cell(_Record):
    """One four-dot cell: identity, center position (nm), role, clock zone."""

    def __init__(self, id: str, x: float, y: float, role: Role, zone: int = 0) -> None:
        self.__dict__.update(id=id, x=x, y=y, role=role, zone=zone)
        if not isinstance(self.id, str) or not TOKEN_RE.match(self.id):
            raise ValueError(f"cell id {self.id!r} is not a valid token")
        if not all(isinstance(v, (int, float)) and abs(v) <= sys.float_info.max for v in (self.x, self.y)):
            raise ValueError(f"cell {self.id}: position must be finite")
        if not isinstance(self.role, Role):
            raise ValueError(f"cell {self.id}: role must be a Role")
        # an int, not a bool or float, so the text form reads it back
        if type(self.zone) is not int or self.zone not in (0, 1, 2, 3):
            raise ValueError(f"cell {self.id}: clock zone must be 0..3")


class Layout(_Record):
    """An ordered collection of cells sharing one geometry.

    Cell order is meaningful: it is the sweep order of the relaxation
    engine and the serialization order of the text format.
    """

    def __init__(self, geometry: GeometryParams, cells: Iterable[Cell]) -> None:
        cells = tuple(cells)
        if not isinstance(geometry, GeometryParams):
            raise ValueError("layout geometry must be a GeometryParams")
        if not all(isinstance(c, Cell) for c in cells):
            raise ValueError("layout cells must be Cells")
        self.__dict__.update(geometry=geometry, cells=cells)

    def __len__(self) -> int:
        return len(self.cells)

    def inputs(self) -> tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.role.kind is RoleKind.INPUT)

    def outputs(self) -> tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.role.kind is RoleKind.OUTPUT)

    def fixed_cells(self) -> tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.role.kind is RoleKind.FIXED)

    def input_labels(self) -> tuple[str, ...]:
        """Input labels in sorted order (the vector bit order)."""
        return tuple(sorted(c.role.label for c in self.inputs()))


def dot_positions(cell: Cell, geometry: GeometryParams) -> tuple[tuple[float, float], ...]:
    """Centers of the four dots: top-right, top-left, bottom-left, bottom-right."""
    h = geometry.dot_offset
    return (
        (cell.x + h, cell.y + h),
        (cell.x - h, cell.y + h),
        (cell.x - h, cell.y - h),
        (cell.x + h, cell.y - h),
    )


def electron_positions(
    cell: Cell, p: int, geometry: GeometryParams
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Occupied dot centers for polarization ``p``.

    P = +1 occupies the main diagonal (top-right, bottom-left), P = -1 the
    anti-diagonal (top-left, bottom-right).
    """
    if p not in (-1, 1):
        raise ValueError("polarization must be -1 or +1")
    dots = dot_positions(cell, geometry)
    return (dots[0], dots[2]) if p == 1 else (dots[1], dots[3])


def pairs_within(cells: Sequence[Cell], radius: float) -> Iterator[tuple[int, int, float]]:
    """Yield (i, j, distance) for every cell pair i < j whose centers are at
    most ``radius`` nm apart, i ascending, then j ascending.

    This is the one pair enumeration: validation, kink reports and the
    engine's coupling map all take their pairs from it, so they agree on
    the inclusive cutoff and on the pair order, which fixes the summation
    order of every total built from the pairs.

    Grid buckets just wider than ``radius`` make it O(n*k) for k neighbours
    in range, with the same sequence as the all-pairs scan, bit for bit.
    """
    centers = [(c.x, c.y) for c in cells]
    if not centers or not radius >= 0.0:
        return
    farthest = max(max(abs(x), abs(y)) for x, y in centers)
    side = max(radius * (1.0 + 2.0**-20), farthest * 2.0**-30, 2.0**-1022)
    keys = [(math.floor(x / side), math.floor(y / side)) for x, y in centers]
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    around = {
        (kx, ky): sorted(j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for j in buckets.get((kx + dx, ky + dy), ()))
        for kx, ky in buckets
    }
    for i, (ax, ay) in enumerate(centers):
        near = around[keys[i]]
        for j in near[bisect.bisect_right(near, i) :]:
            bx, by = centers[j]
            distance = math.hypot(bx - ax, by - ay)
            if distance <= radius:
                yield i, j, distance


class Violation(NamedTuple):
    """One layout rule broken, naming the rule and the offending cells."""

    rule: str
    cell_ids: tuple[str, ...]
    message: str


def validate(layout: Layout) -> list[Violation]:
    """Check layout-level rules; returns violations as data, never raises.

    Rules: cell ids unique; input/output labels unique per role; no two
    cell centers closer than cell_size; at least one input or fixed driver
    whenever a free (normal/output) cell exists.
    """
    out: list[Violation] = []
    cells = layout.cells

    for cid, count in Counter(c.id for c in cells).items():
        if count > 1:
            out.append(Violation("duplicate-id", (cid,), f"cell id {cid!r} appears {count} times"))

    for kind in (RoleKind.INPUT, RoleKind.OUTPUT):
        by_label: dict[str, list[str]] = {}
        for cell in cells:
            if cell.role.kind is kind:
                by_label.setdefault(cell.role.label, []).append(cell.id)
        for label, ids in by_label.items():
            if len(ids) > 1:
                out.append(
                    Violation(
                        "duplicate-label",
                        tuple(ids),
                        f"{kind.value} label {label!r} used by cells {', '.join(ids)}",
                    )
                )

    min_gap = layout.geometry.cell_size
    for i, j, distance in pairs_within(cells, min_gap):
        if distance < min_gap:
            a, b = cells[i], cells[j]
            out.append(
                Violation(
                    "overlap",
                    (a.id, b.id),
                    f"cells {a.id} and {b.id} are closer than cell_size",
                )
            )

    if cells and all(c.role.kind in (RoleKind.NORMAL, RoleKind.OUTPUT) for c in cells):
        out.append(
            Violation(
                "no-driver",
                tuple(c.id for c in cells),
                "layout has free cells but no input or fixed cell to drive them",
            )
        )

    return out
