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
    "kink_pairs",
    "kink_totals",
    "circuit_kink_energy",
]

COULOMB_K = 8.9875e9  # N*m^2/C^2
ELEMENTARY_CHARGE = 1.602e-19  # C
_NM = 1e-9  # m per nm


class ZeroDistanceError(ValueError):
    """Two point charges coincide, or lie so close that their distance in m
    underflows to 0; the 1/r energy is undefined."""


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

    Bit-identical to ``pair_energy(a, -1, b, +1, g) - pair_energy(a, -1, b, -1, g)``.
    """
    diffs = _differences(_corners(a, geometry), _corners(b, geometry))
    d = _scaled_distances(diffs, geometry.relative_permittivity)
    bare = geometry.charge_model is ChargeModel.BARE
    try:
        return _bare_kink(d) if bare else _neutralized_kink(d)
    except ZeroDistanceError as err:
        raise _named(err, diffs, bare) from None


# k*q1*q2 of coulomb_energy, unsigned: bare (-e)(-e); neutralized (+-e/2)(+-e/2)
_BARE_KQQ = COULOMB_K * ELEMENTARY_CHARGE * ELEMENTARY_CHARGE
_HALF_KQQ = COULOMB_K * (0.5 * ELEMENTARY_CHARGE) * (0.5 * ELEMENTARY_CHARGE)

# _layout_kinks keeps at most this many pair geometries: far more than a grid
# layout has, and about 0.2 MB off the grid, where every pair has its own.
_MEMO_KEYS = 512


def _corners(cell: Cell, geometry: GeometryParams) -> tuple[float, float, float, float]:
    """(x + h, x - h, y + h, y - h): the floats ``dot_positions`` pairs into its dots."""
    h = geometry.dot_offset
    return cell.x + h, cell.x - h, cell.y + h, cell.y - h


def _differences(a, b) -> tuple[float, ...]:
    """The x and y differences of two ``_corners``, b's minus a's, named b's side first."""
    ar, al, at, ab = a
    br, bl, bt, bb = b
    return br - ar, br - al, bl - ar, bl - al, bt - at, bt - ab, bb - at, bb - ab


def _scaled_distances(diffs, eps: float) -> list[float]:
    """coulomb_energy's denominator eps*r*1e-9 for the 16 dot pairs, row-major over
    (dot of a, dot of b) in ``dot_positions`` order TR, TL, BL, BR, from the pair's
    ``_differences``; k*q1*q2 divided by one is its term up to an exact sign."""
    xrr, xrl, xlr, xll, ytt, ytb, ybt, ybb = diffs
    hypot, nm = math.hypot, _NM
    return [
        eps * hypot(xrr, ytt) * nm, eps * hypot(xlr, ytt) * nm, eps * hypot(xlr, ybt) * nm, eps * hypot(xrr, ybt) * nm,
        eps * hypot(xrl, ytt) * nm, eps * hypot(xll, ytt) * nm, eps * hypot(xll, ybt) * nm, eps * hypot(xrl, ybt) * nm,
        eps * hypot(xrl, ytb) * nm, eps * hypot(xll, ytb) * nm, eps * hypot(xll, ybb) * nm, eps * hypot(xrl, ybb) * nm,
        eps * hypot(xrr, ytb) * nm, eps * hypot(xlr, ytb) * nm, eps * hypot(xlr, ybb) * nm, eps * hypot(xrr, ybb) * nm,
    ]


def _occupied(d: list[float]) -> list[float]:
    """The 8 entries of a ``_scaled_distances`` list that ``_bare_kink`` divides by."""
    return d[4:8] + d[12:]


def _named(err: ZeroDistanceError, diffs, bare: bool) -> ZeroDistanceError:
    """``err`` from the bare kernel if ``bare``, else the neutralized one; or the underflow
    named where no dot pair that kernel divides by coincides, with both ``_differences`` 0.0."""
    coincide = _scaled_distances([float(v != 0.0) for v in diffs], 1.0)  # 0.0 where both are
    if 0.0 in (_occupied(coincide) if bare else coincide):
        return err
    return ZeroDistanceError("dots of two cells lie so close that their distance in m underflows to 0")


def _bare_kink(d: list[float]) -> float:
    # a's P = -1 electrons sit on TL, BR (rows 1, 3); b's on TR, BL (+1) or TL, BR (-1)
    k = _BARE_KQQ
    try:  # a distance is eps*r*1e-9 >= +0.0, so a zero fails its own division
        opposite = math.fsum((k / d[4], k / d[6], k / d[12], k / d[14]))
        return opposite - math.fsum((k / d[5], k / d[7], k / d[13], k / d[15]))
    except ZeroDivisionError:
        raise ZeroDistanceError("occupied dots of two cells coincide") from None


def _neutralized_kink(d: list[float]) -> float:
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14, d15 = d
    # k*q1*q2 at P_a = P_b = -1, row-major over (dot of a, dot of b): + on the same diagonal
    k, n = _HALF_KQQ, -_HALF_KQQ
    try:  # as in _bare_kink, a zero fails its own division
        equal = math.fsum((
            k / d0, n / d1, k / d2, n / d3, n / d4, k / d5, n / d6, k / d7,
            k / d8, n / d9, k / d10, n / d11, n / d12, k / d13, n / d14, k / d15,
        ))
    except ZeroDivisionError:
        raise ZeroDistanceError("dots of two cells coincide") from None
    # flipping b negates every term: E(opposite) = -E(equal) exactly
    return -equal - equal


def _layout_kinks(layout: Layout) -> Iterator[tuple[int, int, float]]:
    """(i, j, kink energy J) for each pair of ``pairs_within``, in its order,
    under the layout's charge model.  A pair's energy depends only on its 8
    ``_differences``, so each distinct set runs the kernel once: equal sets
    differ at most in a zero's sign, which ``hypot`` ignores, so every value
    is bit-identical to ``kink_energy``."""
    geometry = layout.geometry
    eps = geometry.relative_permittivity
    kink = _bare_kink if geometry.charge_model is ChargeModel.BARE else _neutralized_kink
    corners = [_corners(cell, geometry) for cell in layout.cells]
    memo: dict[tuple[float, ...], float] = {}
    try:
        for i, j, _ in pairs_within(layout.cells, geometry.radius_of_effect):
            key = _differences(corners[i], corners[j])
            e = memo.get(key)
            if e is None:  # a pair that raises ZeroDistanceError is never kept
                e = kink(_scaled_distances(key, eps))
                if len(memo) < _MEMO_KEYS:
                    memo[key] = e
            yield i, j, e
    except ZeroDistanceError as err:
        raise _named(err, key, kink is _bare_kink) from None


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
    models share the pair's 16 distances, each bit-identical to per-pair ``kink_energy``.
    Each pair is built by ``tuple.__new__``, skipping the NamedTuple's slower Python ``__new__``."""
    geometry = layout.geometry
    eps = geometry.relative_permittivity
    cells = layout.cells
    ids = [cell.id for cell in cells]
    corners = [_corners(cell, geometry) for cell in cells]
    try:
        for i, j, distance in pairs_within(cells, geometry.radius_of_effect):
            d = _scaled_distances(_differences(corners[i], corners[j]), eps)
            yield tuple.__new__(KinkPair, (ids[i], ids[j], distance, _bare_kink(d), _neutralized_kink(d)))
    except ZeroDistanceError as err:  # the bare kernel runs first and fails on a zero it divides by
        raise _named(err, _differences(corners[i], corners[j]), 0.0 in _occupied(d)) from None


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
