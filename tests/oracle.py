"""Brute-force electrostatics oracle, written independently of the package.

Everything here works from first principles: enumerate the four dot centers
of each cell, assign occupancy-dependent charge coefficients, and sum
k*q1*q2/r over every cross-cell pair with plain sqrt arithmetic.  The only
things shared with the implementation are the published constants and the
documented conventions (P = +1 on the main diagonal; the equal-polarization
base of the kink difference is both cells at -1).  ``product_state_energy``
takes the package's kink energies as given: it checks the relaxation, not
the electrostatics.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

K_COULOMB = 8.9875e9  # N*m^2/C^2
CHARGE_E = 1.602e-19  # C


def brute_dots(cx: float, cy: float, half: float) -> list[tuple[float, float]]:
    """Dot centers in a fixed order: TR, TL, BL, BR."""
    return [(cx + half, cy + half), (cx - half, cy + half), (cx - half, cy - half), (cx + half, cy - half)]


def brute_coefficients(p: int, model: str) -> list[float]:
    """Charge per dot (units of e) for the TR, TL, BL, BR order."""
    occupied = [True, False, True, False] if p == 1 else [False, True, False, True]
    if model == "bare":
        return [-1.0 if occ else 0.0 for occ in occupied]
    if model == "neutralized":
        return [-0.5 if occ else +0.5 for occ in occupied]
    raise ValueError(model)


def brute_pair_energy(
    center_a: tuple[float, float],
    pa: int,
    center_b: tuple[float, float],
    pb: int,
    cell_size: float,
    dot_diameter: float,
    eps_r: float,
    model: str,
) -> float:
    half = (cell_size - dot_diameter) / 2.0
    dots_a = brute_dots(*center_a, half)
    dots_b = brute_dots(*center_b, half)
    coeff_a = brute_coefficients(pa, model)
    coeff_b = brute_coefficients(pb, model)
    terms = []
    for (xa, ya), qa in zip(dots_a, coeff_a):
        for (xb, yb), qb in zip(dots_b, coeff_b):
            if qa == 0.0 or qb == 0.0:
                continue
            r_nm = math.hypot(xb - xa, yb - ya)
            terms.append(K_COULOMB * (qa * CHARGE_E) * (qb * CHARGE_E) / (eps_r * r_nm * 1e-9))
    return math.fsum(terms)


def brute_kink_energy(
    center_a: tuple[float, float],
    center_b: tuple[float, float],
    cell_size: float = 18.0,
    dot_diameter: float = 5.0,
    eps_r: float = 1.0,
    model: str = "neutralized",
) -> float:
    """E(opposite) - E(equal), equal base = both cells at P = -1."""
    e_opp = brute_pair_energy(center_a, -1, center_b, +1, cell_size, dot_diameter, eps_r, model)
    e_equal = brute_pair_energy(center_a, -1, center_b, -1, cell_size, dot_diameter, eps_r, model)
    return e_opp - e_equal


def brute_fixed_point(x_drive: float) -> float:
    """Closed-form bistable steady state for a single driven cell."""
    return x_drive / math.sqrt(1.0 + x_drive * x_drive)


def brute_largest_term(
    center_a: tuple[float, float],
    center_b: tuple[float, float],
    cell_size: float = 18.0,
    dot_diameter: float = 5.0,
    eps_r: float = 1.0,
) -> float:
    """k*e^2 / (eps_r * d_min), d_min the distance of the two cells' nearest
    dots: the largest Coulomb term of the pair, a scale for rounding errors."""
    half = (cell_size - dot_diameter) / 2.0
    d_min = min(
        math.hypot(xb - xa, yb - ya) for xa, ya in brute_dots(*center_a, half) for xb, yb in brute_dots(*center_b, half)
    )
    return K_COULOMB * CHARGE_E * CHARGE_E / (eps_r * d_min * 1e-9)


def product_state_energy(
    couplings: Sequence[Sequence[tuple[int, float]]], free: Mapping[int, int], gammas: Sequence[float], p: Sequence[float]
) -> float:
    """U(P) = -sum (E_ij / 2) P_i P_j - sum gamma_zone(i) sqrt(1 - P_i^2), the
    energy of a product state of two-state cells (Lent & Tougaw 1997).  The
    first sum runs over the pairs of ``couplings`` (cell i's (j, E_ij), both
    ways) that hold at least one cell of ``free`` (index -> zone), each pair
    once; the second over ``free``.  U is strictly convex in each free P_i,
    and its minimiser there is x / sqrt(1 + x^2) with x = sum_j E_ij P_j /
    (2 gamma_zone(i)): a Gauss-Seidel sweep of that update never raises U
    but by rounding (Hopfield, PNAS 81, 1984)."""
    pairs = math.fsum(
        e / 2.0 * p[i] * p[j]
        for i, neighbours in enumerate(couplings)
        for j, e in neighbours
        if i < j and (i in free or j in free)
    )
    return -pairs - math.fsum(gammas[zone] * math.sqrt(1.0 - p[i] * p[i]) for i, zone in free.items())
