"""Coulomb interactions between cells and the kink-energy algebra on top.

All energies are joules; positions are nm.  The kink energy of a cell pair
is the electrostatic cost of the two cells disagreeing: energy of the pair
with opposite polarizations minus energy with equal polarizations.  Positive
kink energy means the pair prefers to align, negative means it prefers to
anti-align (the mechanism diagonal cell pairs use to invert a signal).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

from .model import Cell, ChargeModel, GeometryParams, Layout, electron_positions, pairs_within

__all__ = [
    "COULOMB_K",
    "ELEMENTARY_CHARGE",
    "ZeroDistanceError",
    "PointCharge",
    "KinkPair",
    "KinkReport",
    "coulomb_energy",
    "cell_charges",
    "pair_energy",
    "kink_energy",
    "coupling_map",
    "kink_pairs",
    "kink_totals",
    "circuit_kink_energy",
]

COULOMB_K = 8.9875e9  # N*m^2/C^2
ELEMENTARY_CHARGE = 1.602e-19  # C
_NM = 1e-9  # m per nm


class ZeroDistanceError(ValueError):
    """Two point charges coincide, or lie so close that their distance in m
    underflows to 0; the 1/r energy is undefined.  Only cells that were never
    validated can raise it: ``validate`` and ``GeometryParams`` reject the rest."""


class PointCharge(NamedTuple):
    """A point charge at (x, y) nm; ``charge`` is in units of e."""

    x: float
    y: float
    charge: float


def coulomb_energy(a: PointCharge, b: PointCharge, relative_permittivity: float = 1.0) -> float:
    """Pairwise Coulomb energy k*q1*q2 / (eps_r * r) in joules."""
    r_nm = math.hypot(b.x - a.x, b.y - a.y)
    if r_nm == 0.0:
        raise ZeroDistanceError(f"charges at ({a.x}, {a.y}) nm coincide")
    q1 = a.charge * ELEMENTARY_CHARGE
    q2 = b.charge * ELEMENTARY_CHARGE
    try:
        return COULOMB_K * q1 * q2 / (relative_permittivity * r_nm * _NM)
    except ZeroDivisionError:  # eps*r*1e-9 underflowed
        raise ZeroDistanceError(f"charges at ({a.x}, {a.y}) and ({b.x}, {b.y}) nm are too close") from None


def cell_charges(cell: Cell, p: int, geometry: GeometryParams) -> tuple[PointCharge, ...]:
    """Point charges representing ``cell`` at polarization ``p``.

    Bare model: one -1 charge per occupied dot (net -2; fine for isolated
    pair energies but its monopole does not cancel between cells).
    Neutralized model: -1/2 on occupied dots plus +1/2 on empty dots, so
    each cell is net neutral and only its quadrupole-like part remains.
    """
    occupied = electron_positions(cell, p, geometry)
    if geometry.charge_model is ChargeModel.BARE:
        return tuple(PointCharge(x, y, -1.0) for x, y in occupied)
    empty = electron_positions(cell, -p, geometry)
    return tuple(PointCharge(x, y, -0.5) for x, y in occupied) + tuple(
        PointCharge(x, y, +0.5) for x, y in empty
    )


def pair_energy(a: Cell, pa: int, b: Cell, pb: int, geometry: GeometryParams) -> float:
    """Total cross-cell Coulomb energy for one polarization assignment.

    Sums every charge of ``a`` against every charge of ``b``; intra-cell
    terms are excluded (they do not depend on the other cell).  The sum
    uses exact accumulation so the result is independent of charge order,
    which matters because kink energies are small differences of these.
    """
    eps = geometry.relative_permittivity
    charges_b = cell_charges(b, pb, geometry)
    return math.fsum(
        coulomb_energy(qa, qb, eps)
        for qa in cell_charges(a, pa, geometry)
        for qb in charges_b
    )


def kink_energy(a: Cell, b: Cell, geometry: GeometryParams) -> float:
    """E(opposite polarizations) - E(equal polarizations) for one pair.

    The equal-polarization base is both cells at P = -1.  Under the
    neutralized model the choice of base is immaterial: flipping one
    cell's occupancy flips the sign of every cross term, so the two equal
    cases are exactly degenerate (and likewise the two opposite cases).
    Under the bare model the two equal cases can differ for diagonally
    offset pairs -- the uncancelled monopole seeing the other cell's
    quadrupole -- which is why bare kink signs are orientation dependent
    and the neutralized model is the default.

    A function of the centre offset (b.x - a.x, b.y - a.y) alone, so two pairs
    with the same float offset have the same energy; a translation can still
    round the offset itself.  Bit-identical to ``pair_energy(a, -1, b, +1, g)
    - pair_energy(a, -1, b, -1, g)`` wherever that definition's dot
    coordinates x +- dot_offset and their differences are exact, as on grid
    layouts.
    """
    d = _scaled_distances(b.x - a.x, b.y - a.y, 2.0 * geometry.dot_offset, geometry.relative_permittivity)
    return _bare_kink(d) if geometry.charge_model is ChargeModel.BARE else _neutralized_kink(d)


# k*q1*q2 of coulomb_energy, unsigned: bare (-e)(-e); neutralized (+-e/2)(+-e/2)
_BARE_KQQ = COULOMB_K * ELEMENTARY_CHARGE * ELEMENTARY_CHARGE
_HALF_KQQ = COULOMB_K * (0.5 * ELEMENTARY_CHARGE) * (0.5 * ELEMENTARY_CHARGE)
# the neutralized weights of an edge and of the centre class, exact multiples
_HALF_KQQ_EDGE, _HALF_KQQ_CENTRE = -2.0 * _HALF_KQQ, 4.0 * _HALF_KQQ

# coupling_map keeps at most this many pair offsets: far more than a grid
# layout has, and about 80 KB off the grid, where every pair has its own.
_MEMO_KEYS = 512


def _scaled_distances(dx: float, dy: float, w: float, eps: float) -> list[float]:
    """coulomb_energy's denominator eps*r*1e-9 for the 9 classes of a pair's 16 dot
    pairs, from its centre offset (dx, dy) and w = 2 * dot_offset.  A dot of b less
    a dot of a is dx + (-w, 0, 0, +w) by dy + (-w, 0, 0, +w), so the classes are
    row-major with x outer over (dx - w, dx, dx + w) and y over (dy - w, dy, dy + w),
    (1, 2, 1) x (1, 2, 1) dot pairs each; k*q1*q2 divided by one is its term up to
    an exact sign and factor."""
    xm, xp, ym, yp = dx - w, dx + w, dy - w, dy + w
    hypot, nm = math.hypot, _NM
    return [
        eps * hypot(xm, ym) * nm, eps * hypot(xm, dy) * nm, eps * hypot(xm, yp) * nm,
        eps * hypot(dx, ym) * nm, eps * hypot(dx, dy) * nm, eps * hypot(dx, yp) * nm,
        eps * hypot(xp, ym) * nm, eps * hypot(xp, dy) * nm, eps * hypot(xp, yp) * nm,
    ]


def _bare_kink(d: list[float]) -> float:
    # a's P = -1 electrons sit on TL, BR; b's on TR, BL (+1), one pair in each of
    # classes 7, 3, 5, 1, or on TL, BR (-1), two pairs in class 4 and one in 6 and 2
    k = _BARE_KQQ
    try:  # a distance is eps*r*1e-9 >= +0.0, so a zero fails its own division
        opposite = math.fsum((k / d[7], k / d[3], k / d[5], k / d[1]))
        return opposite - math.fsum((2.0 * k / d[4], k / d[6], k / d[2]))
    except ZeroDivisionError:
        raise ZeroDistanceError("occupied dots of two cells coincide") from None


def _neutralized_kink(d: list[float]) -> float:
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = d
    # k*q1*q2 at P_a = P_b = -1 summed over each class: [1, -2, 1] x [1, -2, 1] times k
    k, n, c = _HALF_KQQ, _HALF_KQQ_EDGE, _HALF_KQQ_CENTRE
    try:  # as in _bare_kink, a zero fails its own division
        equal = math.fsum((k / d0, n / d1, k / d2, n / d3, c / d4, n / d5, k / d6, n / d7, k / d8))
    except ZeroDivisionError:
        raise ZeroDistanceError("dots of two cells coincide") from None
    # flipping b negates every term: E(opposite) = -E(equal) exactly
    return -equal - equal


def coupling_map(layout: Layout) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per-cell neighbour list: (neighbour index, kink energy J) for each pair of
    ``pairs_within``, in its order, under the layout's charge model.  A pair's
    energy depends only on its centre offset, so each distinct offset runs the
    kernel once: equal offsets differ at most in a zero's sign, which ``hypot``
    ignores, so every value is bit-identical to ``kink_energy``."""
    geometry = layout.geometry
    eps, w = geometry.relative_permittivity, 2.0 * geometry.dot_offset
    kink = _bare_kink if geometry.charge_model is ChargeModel.BARE else _neutralized_kink
    xs = [cell.x for cell in layout.cells]
    ys = [cell.y for cell in layout.cells]
    neighbours: list[list[tuple[int, float]]] = [[] for _ in layout.cells]
    memo: dict[tuple[float, float], float] = {}
    for i, j, _ in pairs_within(layout.cells, geometry.radius_of_effect):
        key = dx, dy = xs[j] - xs[i], ys[j] - ys[i]
        e = memo.get(key)
        if e is None:
            e = kink(_scaled_distances(dx, dy, w, eps))
            if len(memo) < _MEMO_KEYS:
                memo[key] = e
        neighbours[i].append((j, e))
        neighbours[j].append((i, e))
    return tuple(tuple(row) for row in neighbours)


class KinkPair(NamedTuple):
    """Kink energies of one unordered cell pair under both charge models."""

    id_a: str
    id_b: str
    distance_nm: float
    bare: float
    neutralized: float


class KinkReport(NamedTuple):
    """All in-range pair kink energies of a layout, plus their totals."""

    pairs: tuple[KinkPair, ...]
    total_bare: float
    total_neutralized: float
    radius_of_effect: float
    geometry: GeometryParams


def kink_pairs(layout: Layout) -> Iterator[KinkPair]:
    """One KinkPair per pair of ``pairs_within``, in its order, as it is computed; both
    models share the pair's 9 distances, each bit-identical to per-pair ``kink_energy``.
    Each pair is built by ``tuple.__new__``, skipping the NamedTuple's slower Python ``__new__``."""
    geometry = layout.geometry
    eps, w = geometry.relative_permittivity, 2.0 * geometry.dot_offset
    cells = layout.cells
    ids = [cell.id for cell in cells]
    xs = [cell.x for cell in cells]
    ys = [cell.y for cell in cells]
    for i, j, distance in pairs_within(cells, geometry.radius_of_effect):
        d = _scaled_distances(xs[j] - xs[i], ys[j] - ys[i], w, eps)
        yield tuple.__new__(KinkPair, (ids[i], ids[j], distance, _bare_kink(d), _neutralized_kink(d)))


def kink_totals(pairs: Iterable[KinkPair]) -> tuple[float, float]:
    """(bare, neutralized) sums of ``pairs``, added one at a time in their order,
    so a total is byte-reproducible (``sum`` compensates from Python 3.12)."""
    total_bare = total_neut = 0.0
    for _, _, _, bare, neut in pairs:
        total_bare += bare
        total_neut += neut
    return total_bare, total_neut


def circuit_kink_energy(layout: Layout) -> KinkReport:
    """All of ``kink_pairs(layout)``, with their ``kink_totals``."""
    pairs = tuple(kink_pairs(layout))
    return KinkReport(pairs, *kink_totals(pairs), layout.geometry.radius_of_effect, layout.geometry)
