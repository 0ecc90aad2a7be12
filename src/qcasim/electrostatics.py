"""Coulomb interactions between cells and the kink-energy algebra on top.

All energies are joules; positions are nm.  The kink energy of a cell pair
is the electrostatic cost of the two cells disagreeing: energy of the pair
with opposite polarizations minus energy with equal polarizations.  Positive
kink energy means the pair prefers to align, negative means it prefers to
anti-align (the mechanism diagonal cell pairs use to invert a signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    "circuit_kink_energy",
]

COULOMB_K = 8.9875e9  # N*m^2/C^2
ELEMENTARY_CHARGE = 1.602e-19  # C
_NM = 1e-9  # m per nm


class ZeroDistanceError(ValueError):
    """Two point charges coincide; the 1/r energy is undefined."""


@dataclass(frozen=True)
class PointCharge:
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
    """
    e_opposite = pair_energy(a, -1, b, +1, geometry)
    e_equal = pair_energy(a, -1, b, -1, geometry)
    return e_opposite - e_equal


@dataclass(frozen=True)
class KinkPair:
    """Kink energies of one unordered cell pair under both charge models."""

    id_a: str
    id_b: str
    distance_nm: float
    bare: float
    neutralized: float


@dataclass(frozen=True)
class KinkReport:
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
    byte-reproducible run to run.
    """
    geometry = layout.geometry
    bare_geom = replace(geometry, charge_model=ChargeModel.BARE)
    neut_geom = replace(geometry, charge_model=ChargeModel.NEUTRALIZED)
    pairs: list[KinkPair] = []
    total_bare = 0.0
    total_neut = 0.0
    cells = layout.cells
    for i, j, distance in pairs_within(cells, geometry.radius_of_effect):
        a, b = cells[i], cells[j]
        e_bare = kink_energy(a, b, bare_geom)
        e_neut = kink_energy(a, b, neut_geom)
        pairs.append(KinkPair(a.id, b.id, distance, e_bare, e_neut))
        total_bare += e_bare
        total_neut += e_neut
    return KinkReport(
        pairs=tuple(pairs),
        total_bare=total_bare,
        total_neutralized=total_neut,
        radius_of_effect=geometry.radius_of_effect,
        geometry=geometry,
    )
