"""Coulomb interactions between cells and the kink-energy algebra on top.

All energies are joules; positions are nm.  The kink energy of a cell pair
is the electrostatic cost of the two cells disagreeing: energy of the pair
with opposite polarizations minus energy with equal polarizations.  Positive
kink energy means the pair prefers to align, negative means it prefers to
anti-align (the mechanism diagonal cell pairs use to invert a signal).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .model import Cell, ChargeModel, GeometryParams, Layout, dot_positions, electron_positions, pairs_within

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
    "circuit_kink_energy",
]

COULOMB_K = 8.9875e9  # N*m^2/C^2
ELEMENTARY_CHARGE = 1.602e-19  # C
_NM = 1e-9  # m per nm


class ZeroDistanceError(ValueError):
    """Two point charges coincide; the 1/r energy is undefined."""


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
    return COULOMB_K * q1 * q2 / (relative_permittivity * r_nm * _NM)


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
    d = _scaled_distances(dot_positions(a, geometry), dot_positions(b, geometry), geometry)
    return _bare_kink(d) if geometry.charge_model is ChargeModel.BARE else _neutralized_kink(d)


# k*q1*q2 of coulomb_energy: bare (-e)(-e); neutralized (+-e/2)(+-e/2), signed
# for P_a = P_b = -1 row-major over (dot of a, dot of b), + on the same diagonal
_BARE_KQQ = COULOMB_K * ELEMENTARY_CHARGE * ELEMENTARY_CHARGE
_HALF_KQQ = COULOMB_K * (0.5 * ELEMENTARY_CHARGE) * (0.5 * ELEMENTARY_CHARGE)
_NEUT_EQUAL_KQQ = tuple(_HALF_KQQ * (-1) ** (i + j) for i in range(4) for j in range(4))


def _scaled_distances(dots_a, dots_b, geometry: GeometryParams) -> list[float]:
    """coulomb_energy's denominator eps*r*1e-9 for the 16 dot pairs, row-major over
    (dot of a, dot of b); k*q1*q2 divided by one is its term up to an exact sign."""
    eps = geometry.relative_permittivity
    return [eps * math.hypot(bx - ax, by - ay) * _NM for ax, ay in dots_a for bx, by in dots_b]


def _bare_kink(d: list[float]) -> float:
    # a's P = -1 electrons sit on TL, BR (rows 1, 3); b's on TR, BL (+1) or TL, BR (-1)
    if 0.0 in (d[4], d[5], d[6], d[7], d[12], d[13], d[14], d[15]):
        raise ZeroDistanceError("occupied dots of two cells coincide")
    k = _BARE_KQQ
    opposite = math.fsum((k / d[4], k / d[6], k / d[12], k / d[14]))
    return opposite - math.fsum((k / d[5], k / d[7], k / d[13], k / d[15]))


def _neutralized_kink(d: list[float]) -> float:
    if 0.0 in d:
        raise ZeroDistanceError("dots of two cells coincide")
    # flipping b negates every term: E(opposite) = -E(equal) exactly
    equal = math.fsum(map(operator.truediv, _NEUT_EQUAL_KQQ, d))
    return -equal - equal


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


def circuit_kink_energy(layout: Layout) -> KinkReport:
    """Kink energies for every unordered cell pair within radius_of_effect.

    Pairs are enumerated in layout order (i before j); totals are the sums
    of the signed pair energies in that same order, so the report is
    byte-reproducible run to run.  Dots are placed once per cell and both
    models share each pair's distances: O(n*k) for k neighbours in range,
    every value bit-identical to per-pair ``kink_energy``.
    """
    geometry = layout.geometry
    cells = layout.cells
    dots = [dot_positions(cell, geometry) for cell in cells]
    pairs: list[KinkPair] = []
    total_bare = 0.0
    total_neut = 0.0
    for i, j, distance in pairs_within(cells, geometry.radius_of_effect):
        d = _scaled_distances(dots[i], dots[j], geometry)
        e_bare, e_neut = _bare_kink(d), _neutralized_kink(d)
        pairs.append(KinkPair(cells[i].id, cells[j].id, distance, e_bare, e_neut))
        total_bare += e_bare
        total_neut += e_neut
    return KinkReport(
        pairs=tuple(pairs),
        total_bare=total_bare,
        total_neutralized=total_neut,
        radius_of_effect=geometry.radius_of_effect,
        geometry=geometry,
    )
