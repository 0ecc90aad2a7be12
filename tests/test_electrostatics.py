"""Electrostatics: Coulomb terms, pair energies, kink energies, reports.

Numeric expectations come from tests/frozen.py (independent brute-force
oracle values) plus the published rounded figures at 0.5% tolerance.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import struct

import pytest
from hypothesis import assume, example, given, strategies as st

import frozen
from helpers import BARE, NEUT, cell
from oracle import brute_kink_energy, brute_largest_term
from qcasim import (
    Cell,
    ChargeModel,
    GeometryParams,
    KinkPair,
    Layout,
    PointCharge,
    Role,
    ZeroDistanceError,
    cell_charges,
    circuit_kink_energy,
    coulomb_energy,
    coupling_map,
    dot_positions,
    kink_energy,
    pair_energy,
    validate,
)
from qcasim.electrostatics import (
    _BARE_KQQ,
    _HALF_KQQ,
    _bare_kink,
    _neutralized_kink,
    _scaled_distances,
    kink_pairs,
)

def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestCoulombEnergy:
    def test_two_electrons_at_20nm(self):
        e = coulomb_energy(PointCharge(0, 0, -1.0), PointCharge(20, 0, -1.0), 1.0)
        assert e == frozen.COULOMB_TWO_ELECTRONS_20NM
        assert rel_err(e, frozen.REF_COULOMB_TWO_ELECTRONS_20NM) < frozen.REF_ROUNDING_TOL

    def test_doubling_distance_halves_energy(self):
        near = coulomb_energy(PointCharge(0, 0, -1.0), PointCharge(20, 0, -1.0), 1.0)
        far = coulomb_energy(PointCharge(0, 0, -1.0), PointCharge(40, 0, -1.0), 1.0)
        assert far == near / 2.0

    def test_opposite_signs_attract(self):
        e = coulomb_energy(PointCharge(0, 0, -0.5), PointCharge(10, 0, +0.5), 1.0)
        assert e < 0

    def test_permittivity_divides(self):
        e1 = coulomb_energy(PointCharge(0, 0, -1.0), PointCharge(20, 0, -1.0), 1.0)
        e2 = coulomb_energy(PointCharge(0, 0, -1.0), PointCharge(20, 0, -1.0), 2.0)
        assert e2 == e1 / 2.0

    def test_coincident_charges_raise(self):
        with pytest.raises(ZeroDistanceError, match=r"^charges at \(1, 2\) nm coincide$"):
            coulomb_energy(PointCharge(1, 2, -1.0), PointCharge(1, 2, -1.0), 1.0)

    def test_a_distance_that_underflows_raises(self):
        # r = 1e-320 nm is not 0, but r * 1e-9 m is
        with pytest.raises(ZeroDistanceError, match="too close"):
            coulomb_energy(PointCharge(0.0, 0.0, -1.0), PointCharge(1e-320, 0.0, -1.0), 1.0)


class TestCellCharges:
    def test_bare_is_two_electrons(self):
        charges = cell_charges(cell(0, 0), +1, BARE)
        assert [(q.x, q.y, q.charge) for q in charges] == [
            (6.5, 6.5, -1.0),
            (-6.5, -6.5, -1.0),
        ]
        assert sum(q.charge for q in charges) == -2.0

    def test_neutralized_is_net_neutral(self):
        charges = cell_charges(cell(0, 0), +1, NEUT)
        assert {(q.x, q.y, q.charge) for q in charges} == {
            (6.5, 6.5, -0.5),
            (-6.5, -6.5, -0.5),
            (-6.5, 6.5, +0.5),
            (6.5, -6.5, +0.5),
        }
        assert sum(q.charge for q in charges) == 0.0

    def test_polarization_flip_swaps_occupancy(self):
        plus = {(q.x, q.y): q.charge for q in cell_charges(cell(0, 0), +1, NEUT)}
        minus = {(q.x, q.y): q.charge for q in cell_charges(cell(0, 0), -1, NEUT)}
        assert plus.keys() == minus.keys()
        assert all(plus[dot] == -minus[dot] for dot in plus)


class TestPairEnergy:
    def test_bare_adjacent_same_polarization(self):
        e = pair_energy(cell(0, 0, "a"), -1, cell(20, 0, "b"), -1, BARE)
        assert e == frozen.BARE_PAIR_SAME_20_0
        assert rel_err(e, frozen.REF_BARE_PAIR_SAME) < frozen.REF_ROUNDING_TOL

    def test_bare_adjacent_opposite_polarization(self):
        e = pair_energy(cell(0, 0, "a"), -1, cell(20, 0, "b"), +1, BARE)
        assert e == frozen.BARE_PAIR_OPP_20_0
        assert rel_err(e, frozen.REF_BARE_PAIR_OPP) < frozen.REF_ROUNDING_TOL

    def test_argument_order_symmetry(self):
        a, b = cell(0, 0, "a"), cell(20, 20, "b")
        for g in (NEUT, BARE):
            assert pair_energy(a, -1, b, +1, g) == pair_energy(b, +1, a, -1, g)

    def test_opposite_cases_are_degenerate(self):
        # inversion through the pair midpoint maps (-1,+1) onto (+1,-1)
        a, b = cell(0, 0, "a"), cell(20, 20, "b")
        for g in (NEUT, BARE):
            assert pair_energy(a, -1, b, +1, g) == pair_energy(a, +1, b, -1, g)

    def test_neutralized_flip_negates(self):
        a, b = cell(0, 0, "a"), cell(40, 20, "b")
        assert pair_energy(a, -1, b, +1, NEUT) == -pair_energy(a, -1, b, -1, NEUT)

    def test_overlapping_cells_raise(self):
        with pytest.raises(ZeroDistanceError):
            pair_energy(cell(0, 0, "a"), -1, cell(0, 0, "b"), -1, BARE)


class TestKinkEnergy:
    def test_horizontal_adjacent_both_models(self):
        a, b = cell(0, 0, "a"), cell(20, 0, "b")
        for g in (NEUT, BARE):
            e = kink_energy(a, b, g)
            assert e == frozen.KINK_HORIZ_20_0
            assert rel_err(e, frozen.REF_KINK_HORIZ) < frozen.REF_ROUNDING_TOL

    def test_neutralized_diagonal_is_negative(self):
        a = cell(0, 0, "a")
        up = kink_energy(a, cell(20, 20, "b"), NEUT)
        down = kink_energy(a, cell(20, -20, "b"), NEUT)
        assert up == frozen.KINK_NEUT_DIAG_20_20
        assert down == frozen.KINK_NEUT_DIAG_20_M20
        assert up < 0 and down < 0
        assert rel_err(up, frozen.REF_KINK_NEUT_DIAG) < frozen.REF_ROUNDING_TOL

    def test_bare_diagonal_monopole_artifact(self):
        # the bare model's net -2e charge sees the neighbor's quadrupole,
        # which flips the (20,20) kink sign and breaks orientation symmetry
        a = cell(0, 0, "a")
        up = kink_energy(a, cell(20, 20, "b"), BARE)
        down = kink_energy(a, cell(20, -20, "b"), BARE)
        assert up == frozen.KINK_BARE_DIAG_20_20
        assert down == frozen.KINK_BARE_DIAG_20_M20
        assert up > 0 > down

    def test_longer_range_values(self):
        a = cell(0, 0, "a")
        table = [
            ((40, 0), NEUT, frozen.KINK_NEUT_40_0),
            ((40, 0), BARE, frozen.KINK_NEUT_40_0),  # mirror pair: models agree
            ((60, 0), NEUT, frozen.KINK_NEUT_60_0),
            ((40, 20), NEUT, frozen.KINK_NEUT_40_20),
            ((40, 20), BARE, frozen.KINK_BARE_40_20),
            ((60, 20), NEUT, frozen.KINK_NEUT_60_20),
            ((40, 40), NEUT, frozen.KINK_NEUT_40_40),
        ]
        for (x, y), g, want in table:
            assert kink_energy(a, cell(x, y, "b"), g) == want

    def test_pair_order_symmetry(self):
        a, b = cell(0, 0, "a"), cell(40, 20, "b")
        for g in (NEUT, BARE):
            assert kink_energy(a, b, g) == kink_energy(b, a, g)

    def test_base_choice_is_immaterial_under_neutralized(self):
        # the two bases agree exactly, an identity of the definition; kink_energy
        # has its bits on the grid, and off it, where the definition rounds each
        # dot coordinate, lies within 1e-13 of the pair's largest term
        rng = random.Random(7)
        a = cell(0, 0, "a")
        for _ in range(20):
            on_grid = rng.randint(20, 60), rng.randint(-60, 60)
            off_grid = rng.uniform(20, 60), rng.uniform(-60, 60)
            for centre, bound in ((on_grid, 0.0), (off_grid, 1e-13)):
                b = cell(*centre, "b")
                minus_base = pair_energy(a, -1, b, +1, NEUT) - pair_energy(a, -1, b, -1, NEUT)
                plus_base = pair_energy(a, +1, b, -1, NEUT) - pair_energy(a, +1, b, +1, NEUT)
                assert minus_base == plus_base
                assert abs(kink_energy(a, b, NEUT) - minus_base) <= bound * brute_largest_term((0, 0), centre)

    def test_base_choice_matters_for_bare_diagonals(self):
        a, b = cell(0, 0, "a"), cell(20, 20, "b")
        minus_base = pair_energy(a, -1, b, +1, BARE) - pair_energy(a, -1, b, -1, BARE)
        plus_base = pair_energy(a, +1, b, -1, BARE) - pair_energy(a, +1, b, +1, BARE)
        assert minus_base != plus_base  # the documented bare-model caveat

    def test_mirror_symmetric_pairs_match_across_models(self):
        a = cell(0, 0, "a")
        for offset in ((20, 0), (0, 20), (40, 0), (0, 60)):
            b = cell(*offset, "b")
            bare = kink_energy(a, b, BARE)
            neut = kink_energy(a, b, NEUT)
            assert rel_err(bare, neut) < 1e-12

    def test_decay_between_pitch_and_double_pitch(self):
        a = cell(0, 0, "a")
        for g in (NEUT, BARE):
            near = abs(kink_energy(a, cell(20, 0, "b"), g))
            far = abs(kink_energy(a, cell(40, 0, "b"), g))
            assert far < 0.1 * near

    def test_matches_oracle_on_a_seeded_sample(self):
        rng = random.Random(42)
        for _ in range(25):
            ax, ay = rng.uniform(-60, 60), rng.uniform(-60, 60)
            bx, by = rng.uniform(-60, 60), rng.uniform(-60, 60)
            if math.hypot(bx - ax, by - ay) < 18.0:
                continue
            for g, model in ((NEUT, "neutralized"), (BARE, "bare")):
                got = kink_energy(cell(ax, ay, "a"), cell(bx, by, "b"), g)
                want = brute_kink_energy((ax, ay), (bx, by), model=model)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestScalingLaws:
    def scaled(self, g: GeometryParams, s: float) -> GeometryParams:
        return g._replace(
            cell_size=g.cell_size * s,
            dot_diameter=g.dot_diameter * s,
            pitch=g.pitch * s,
            radius_of_effect=g.radius_of_effect * s,
        )

    def test_coordinate_scaling_by_powers_of_two_is_exact(self):
        # powers of two scale every coordinate, distance, and term exactly
        rng = random.Random(3)
        for g in (NEUT, BARE):
            for _ in range(10):
                bx, by = rng.uniform(20, 60), rng.uniform(-60, 60)
                base = kink_energy(cell(0, 0, "a"), cell(bx, by, "b"), g)
                for s in (2.0, 4.0, 0.5):
                    scaled = kink_energy(
                        cell(0, 0, "a"), cell(bx * s, by * s, "b"), self.scaled(g, s)
                    )
                    assert scaled == base / s

    def test_coordinate_scaling_divides_kink_by_s(self):
        # non-dyadic factors round coordinates, so compare on pairs whose
        # kink is not a near-cancellation of the two pair energies
        for g in (NEUT, BARE):
            for bx, by in ((20.0, 0.0), (20.0, 20.0), (40.0, 0.0)):
                base = kink_energy(cell(0, 0, "a"), cell(bx, by, "b"), g)
                for s in (1.5, 3.0):
                    scaled = kink_energy(
                        cell(0, 0, "a"), cell(bx * s, by * s, "b"), self.scaled(g, s)
                    )
                    assert scaled == pytest.approx(base / s, rel=1e-12, abs=0.0)

    def test_permittivity_scaling_divides_kink_by_c(self):
        for g in (NEUT, BARE):
            base = kink_energy(cell(0, 0, "a"), cell(20, 20, "b"), g)
            for c in (2.0, 1.5, 3.0):
                eps = g._replace(relative_permittivity=c)
                scaled = kink_energy(cell(0, 0, "a"), cell(20, 20, "b"), eps)
                assert scaled == pytest.approx(base / c, rel=1e-12, abs=0.0)


class TestCircuitKinkEnergy:
    def wire(self, n, geometry=NEUT):
        cells = [cell(i * 20.0, 0.0, f"c{i}") for i in range(n)]
        return Layout(geometry, cells)

    def test_single_pair_equals_kink_energy(self):
        report = circuit_kink_energy(self.wire(2))
        assert len(report.pairs) == 1
        pair = report.pairs[0]
        assert (pair.id_a, pair.id_b) == ("c0", "c1")
        assert pair.distance_nm == 20.0
        assert pair.bare == frozen.KINK_HORIZ_20_0
        assert pair.neutralized == frozen.KINK_HORIZ_20_0
        assert report.total_bare == frozen.KINK_HORIZ_20_0

    def test_empty_layout(self):
        report = circuit_kink_energy(Layout(NEUT, []))
        assert report.pairs == ()
        assert report.total_bare == 0.0
        assert report.total_neutralized == 0.0

    def test_radius_filters_pairs(self):
        # in a 5-cell wire at 20 nm pitch, separations run 20..80 nm and the
        # default 65 nm radius keeps only gaps of one, two, or three cells
        report = circuit_kink_energy(self.wire(5))
        assert len(report.pairs) == 9
        assert all(p.distance_nm <= 65.0 for p in report.pairs)
        names = [(p.id_a, p.id_b) for p in report.pairs]
        assert names == sorted(names, key=lambda ab: (int(ab[0][1:]), int(ab[1][1:])))
        assert ("c0", "c4") not in names

    def test_totals_sum_the_pairs_in_order(self):
        report = circuit_kink_energy(self.wire(6))
        total_bare = 0.0
        total_neut = 0.0
        for p in report.pairs:
            total_bare += p.bare
            total_neut += p.neutralized
        assert report.total_bare == total_bare
        assert report.total_neutralized == total_neut

    def test_report_covers_both_models_regardless_of_layout_model(self):
        for g in (NEUT, BARE):
            report = circuit_kink_energy(self.wire(3, g))
            assert report.pairs[0].bare == report.pairs[0].neutralized  # mirror pair
            assert report.geometry == g
            assert report.radius_of_effect == 65.0


def _dyadic_geometry(k, eps, model):
    """The default geometry scaled by 2**k."""
    s = 2.0**k
    return GeometryParams(
        cell_size=18.0 * s, dot_diameter=5.0 * s, pitch=20.0 * s, relative_permittivity=eps, charge_model=model,
        radius_of_effect=65.0 * s,
    )


def _dyadic_pair(g, x, y, dx, dy):
    """Cells at (x, y) and (x + dx, y + dy) times the scale of a ``_dyadic_geometry``."""
    s = g.cell_size / 18.0
    return cell(x * s, y * s, "a"), cell((x + dx) * s, (y + dy) * s, "b")


class TestKernelMatchesReference:
    """The offset kernel against the pair_energy definition: its bits where
    the definition's dot coordinates are exact, its value within rounding off
    the grid, and the same bits for the same offset anywhere in the plane."""

    geometries = st.builds(
        lambda size, dot_share, eps, model: GeometryParams(
            cell_size=size,
            dot_diameter=size * dot_share,
            pitch=size,
            relative_permittivity=eps,
            charge_model=model,
        ),
        st.sampled_from([10.0, 18.0, 18.3, 25.5]),
        st.sampled_from([0.05, 5.0 / 18.0, 0.5, 0.9]),
        st.sampled_from([1.0, 2, 3.7, 12.9]),
        st.sampled_from(list(ChargeModel)),
    )
    centre = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    offset = st.floats(-70.0, 70.0, allow_nan=False, allow_infinity=False)
    jitter = st.floats(-0.9, 0.9, allow_nan=False, allow_infinity=False)
    # multiples of 1/64 nm: every dot coordinate x +- 6.5 and every difference
    # of two is exact, at the default geometry and at its scalings by 2**k
    dyadic_geometries = st.builds(
        _dyadic_geometry, st.integers(-20, 20), st.sampled_from([1.0, 2, 3.7, 12.9]), st.sampled_from(list(ChargeModel))
    )
    dyadic_centre = st.integers(-64 * 10**6, 64 * 10**6).map(lambda n: n / 64)
    dyadic_offset = st.integers(-64 * 70, 64 * 70).map(lambda n: n / 64)

    @given(dyadic_geometries, dyadic_centre, dyadic_centre, dyadic_offset, dyadic_offset)
    def test_kink_energy_is_the_pair_energy_difference(self, g, x, y, dx, dy):
        a, b = _dyadic_pair(g, x, y, dx, dy)
        try:
            want = pair_energy(a, -1, b, +1, g) - pair_energy(a, -1, b, -1, g)
        except ZeroDistanceError:
            with pytest.raises(ZeroDistanceError):
                kink_energy(a, b, g)
            return
        assert kink_energy(a, b, g) == want

    @given(geometries, centre, centre, offset, offset)
    def test_kink_energy_is_within_1e_13_of_the_largest_term_off_the_grid(self, g, x, y, dx, dy):
        # the definition at the origin rounds only the dots of b, at the offset
        a, b = cell(x, y, "a"), cell(x + dx, y + dy, "b")
        assume({v.rule for v in validate(Layout(g, [a, b]))} <= {"no-driver"})  # neither cell drives
        at_offset = b.x - a.x, b.y - a.y
        shape = g.cell_size, g.dot_diameter, g.relative_permittivity
        want = brute_kink_energy((0.0, 0.0), at_offset, *shape, g.charge_model.value)
        assert abs(kink_energy(a, b, g) - want) <= 1e-13 * brute_largest_term((0.0, 0.0), at_offset, *shape)

    @given(
        geometries,
        st.one_of(st.floats(-1e4, 1e4), st.floats(-1e17, 1e17)),
        st.one_of(st.floats(-1e4, 1e4), st.floats(-1e17, 1e17)),
        offset,
        offset,
        st.floats(-1e4, 1e4),
        st.floats(-1e4, 1e4),
    )
    def test_the_same_offset_gives_the_same_energy(self, g, x, y, dx, dy, tx, ty):
        # a translation can round the offset itself; where it keeps the float
        # offset, the energy keeps its bits (or the same error), under both models
        a, b = cell(x, y, "a"), cell(x + dx, y + dy, "b")
        a2 = cell(x + tx, y + ty, "a")
        b2 = cell(a2.x + (b.x - a.x), a2.y + (b.y - a.y), "b")
        assume((b2.x - a2.x, b2.y - a2.y) == (b.x - a.x, b.y - a.y))
        for model in ChargeModel:
            gm = g._replace(charge_model=model)
            assert _outcome(kink_energy, a2, b2, gm) == _outcome(kink_energy, a, b, gm)

    @given(dyadic_geometries, dyadic_centre, dyadic_centre, dyadic_offset, dyadic_offset)
    def test_distance_table_is_the_dot_pair_comprehension(self, g, x, y, dx, dy):
        # the value tests can miss two swapped entries of the same sign and
        # bare role; this pins every entry to the dot pairs of its class, on
        # a draw where the definition's dot coordinates are exact
        a, b = _dyadic_pair(g, x, y, dx, dy)
        eps, w = g.relative_permittivity, 2.0 * g.dot_offset
        d = _scaled_distances(b.x - a.x, b.y - a.y, w, eps)
        assert len(d) == 9
        # TR, TL, BL, BR: a dot of b less a dot of a is dx + (right_b - right_a) * w
        right, top = (1, 0, 0, 1), (1, 1, 0, 0)
        pairs = [0] * 9
        for i, (ax, ay) in enumerate(dot_positions(a, g)):
            for j, (bx, by) in enumerate(dot_positions(b, g)):
                k = 3 * (1 + right[j] - right[i]) + 1 + top[j] - top[i]
                assert d[k] == eps * math.hypot(bx - ax, by - ay) * 1e-9
                pairs[k] += 1
        assert pairs == [1, 2, 1, 2, 4, 2, 1, 2, 1]

    @given(geometries, centre, centre, st.lists(st.tuples(jitter, jitter), min_size=2, max_size=9))
    def test_report_pairs_equal_per_pair_kink_energy(self, g, x0, y0, jitters):
        # a jittered 3-column block 2 nm wider than the cells: no two dots coincide
        step = g.cell_size + 2.0
        cells = [
            cell(x0 + (k % 3) * step + jx, y0 + (k // 3) * step + jy, f"c{k}")
            for k, (jx, jy) in enumerate(jitters)
        ]
        report = circuit_kink_energy(Layout(g, cells))
        by_id = {c.id: c for c in cells}
        bare_g = g._replace(charge_model=ChargeModel.BARE)
        neut_g = g._replace(charge_model=ChargeModel.NEUTRALIZED)
        assert report.pairs
        for pair in report.pairs:
            # kink_pairs builds each pair with tuple.__new__: still a KinkPair
            assert type(pair) is KinkPair
            a, b = by_id[pair.id_a], by_id[pair.id_b]
            assert pair.bare == kink_energy(a, b, bare_g)
            assert pair.neutralized == kink_energy(a, b, neut_g)

    def test_a_coincident_pair_raises_mid_stream(self):
        # c2-c3 has b's bottom-left dot on a's top-right dot: the pairs before
        # it are yielded, then the stream raises as the report does
        spots = [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (53.0, 13.0)]
        cells = [cell(x, y, f"c{k}") for k, (x, y) in enumerate(spots)]
        stream = kink_pairs(Layout(NEUT, cells))
        assert [(p.id_a, p.id_b) for p in itertools.islice(stream, 2)] == [("c0", "c1"), ("c0", "c2")]
        with pytest.raises(ZeroDistanceError, match="^dots of two cells coincide$"):
            list(stream)

    def test_coincident_dots_raise_where_the_definition_does(self):
        # validate reports both pairs as dot-overlap, but these kernels are
        # also called on layouts that were never validated.  b's bottom-left
        # dot sits on a's top-right dot, which is empty at P = -1 and carries
        # no bare charge
        a, b, c = cell(0, 0, "a"), cell(13, 13, "b"), cell(-13, 13, "c")
        overlaps = [v.cell_ids for v in validate(Layout(NEUT, [a, b, c])) if v.rule == "dot-overlap"]
        assert overlaps == [("a", "b"), ("a", "c")]
        with pytest.raises(ZeroDistanceError):
            kink_energy(a, b, NEUT)
        want = pair_energy(a, -1, b, +1, BARE) - pair_energy(a, -1, b, -1, BARE)
        assert kink_energy(a, b, BARE) == want
        with pytest.raises(ZeroDistanceError):
            circuit_kink_energy(Layout(BARE, [a, b]))
        # c's bottom-right dot sits on a's occupied top-left dot
        for g in (NEUT, BARE):
            with pytest.raises(ZeroDistanceError):
                kink_energy(a, c, g)

    def test_the_occupied_dot_message_wins(self):
        # c's bottom-right dot sits on a's top-left dot, occupied at P = -1:
        # each model's kernel raises its own message, and the report runs
        # the bare kernel first, so its message wins under both models
        a, c = cell(0, 0, "a"), cell(-13, 13, "c")
        for g, message in ((BARE, "occupied dots of two cells coincide"), (NEUT, "dots of two cells coincide")):
            with pytest.raises(ZeroDistanceError, match=f"^{message}$"):
                kink_energy(a, c, g)
            with pytest.raises(ZeroDistanceError, match=f"^{message}$"):
                coupling_map(Layout(g, [a, c]))
            with pytest.raises(ZeroDistanceError, match="^occupied dots of two cells coincide$"):
                list(kink_pairs(Layout(g, [a, c])))


# a pair's offset in pitches of the default geometry, near where two dots
# coincide (0 or 2 * dot_offset = 13 per axis) and where cells touch (18)
_NEAR_A_DOT = st.builds(
    operator.add,
    st.sampled_from([0.0, 13.0, -13.0, 18.0, -18.0]),
    st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-0.5, 0.5)),
)


_LARGEST = 1.7976931348623157e308
_BASE = st.one_of(st.floats(-100.0, 100.0), st.floats(-1e18, 1e18), st.floats(-_LARGEST, _LARGEST))


@given(
    st.floats(-250.0, 250.0),
    st.floats(-200.0, 200.0),
    st.sampled_from(ChargeModel),
    _BASE,
    _BASE,
    _NEAR_A_DOT,
    _NEAR_A_DOT,
)
# both cells at x = the largest double, where x + dot_offset overflows to inf
@example(299.0, 0.0, ChargeModel.NEUTRALIZED, _LARGEST / 1e299, 0.0, 0.0, 20.0)
def test_a_layout_validate_accepts_evaluates_in_every_kernel(log_scale, log_eps, model, x, y, dx, dy):
    s = 10.0**log_scale
    try:
        g = GeometryParams(
            cell_size=18 * s, dot_diameter=5 * s, pitch=20 * s, relative_permittivity=10.0**log_eps,
            charge_model=model, radius_of_effect=65 * s,
        )
    except ValueError:  # eps * dot_diameter / 2 underflows in m: nothing to evaluate
        assume(False)
    try:
        a, b = Cell("a", x * s, y * s, Role.input("a")), Cell("b", (x + dx) * s, (y + dy) * s, Role.output("b"))
    except ValueError:  # a centre beyond the largest double
        assume(False)
    layout = Layout(g, [a, b])
    assume(not validate(layout))
    for other in ChargeModel:
        assert math.isfinite(kink_energy(a, b, g._replace(charge_model=other)))
    for pair in kink_pairs(layout):
        assert math.isfinite(pair.bare) and math.isfinite(pair.neutralized)
    assert all(math.isfinite(e) for row in coupling_map(layout) for _, e in row)


@given(
    st.floats(-320.0, 300.0),
    st.floats(-300.0, 300.0),
    _BASE,
    _BASE,
    st.lists(st.tuples(_NEAR_A_DOT, _NEAR_A_DOT), min_size=2, max_size=2),
)
# a distance in m of 2e-323, a few subnormal steps above 0: the largest terms
@example(0.0, -299.0, 0.0, 0.0, [(13.000000000000002, 13.0), (18.0, 0.0)])
def test_a_kernel_raises_or_gives_a_finite_energy_without_validate(log_scale, log_eps, x, y, offsets):
    # compile_sweep is the only check that kink energies are finite: a
    # distance in m is 0, and the kernel raises, or at least 5e-324, so each
    # term k / d stays below 1e296 and no sum of 9 overflows
    s = 10.0**log_scale
    try:
        g = GeometryParams(
            cell_size=18 * s, dot_diameter=5 * s, pitch=20 * s, relative_permittivity=10.0**log_eps,
            radius_of_effect=65 * s,
        )
        cells = [cell(x, y, "a"), *(cell(x + dx * s, y + dy * s, f"c{k}") for k, (dx, dy) in enumerate(offsets))]
    except ValueError:  # eps * dot_diameter / 2 underflows in m, or a centre overflows
        assume(False)
    for model in ChargeModel:
        layout = Layout(g._replace(charge_model=model), cells)
        try:
            energies = [e for row in coupling_map(layout) for _, e in row]
        except ZeroDistanceError:
            energies = []
        try:
            energies += [e for pair in kink_pairs(layout) for e in pair[3:]]
        except ZeroDistanceError:
            pass
        assert all(math.isfinite(e) for e in energies)


def test_dots_that_coincide_only_after_rounding_are_evaluated_at_the_offset():
    # at 1e17 nm a float steps by 16 nm, so the definition's dots x +- 9.1
    # round to x +- 16, and b's bottom-left dot lands on a's top-right dot;
    # the kernel reads only the offset (32, 32), whose nearest dots lie
    # 13.8 nm apart per axis, so validate accepts the pair and its energy is
    # that of the same offset at the origin
    g = GeometryParams(cell_size=25.2, dot_diameter=7.0, pitch=28.0, radius_of_effect=91.0)
    a, b = Cell("a", 1e17, 1e17, Role.input("a")), Cell("b", 1e17 + 32, 1e17 + 32, Role.output("b"))
    assert validate(Layout(g, [a, b])) == []
    with pytest.raises(ZeroDistanceError):
        pair_energy(a, -1, b, -1, g)
    for model in ChargeModel:
        gm = g._replace(charge_model=model)
        assert _outcome(kink_energy, a, b, gm) == _outcome(kink_energy, cell(0, 0), cell(32, 32), gm)


# the neutralized k*q1*q2 at P_a = P_b = -1 summed over each of the 9 classes
_SIGNED_HALF_KQQ = tuple(_HALF_KQQ * cx * cy for cx in (1, -2, 1) for cy in (1, -2, 1))
# how many of a's occupied dots (P = -1) meet b's at P = +1 and at P = -1, per class
_BARE_OPPOSITE = (0, 1, 0, 1, 0, 1, 0, 1, 0)
_BARE_EQUAL = (0, 0, 1, 0, 2, 0, 1, 0, 0)


def _reference_neutralized_kink(d):
    if 0.0 in d:
        raise ZeroDistanceError("dots of two cells coincide")
    equal = math.fsum(map(operator.truediv, _SIGNED_HALF_KQQ, d))
    return -equal - equal


def _reference_bare_kink(d):
    if 0.0 in d[1:8]:
        raise ZeroDistanceError("occupied dots of two cells coincide")
    k = _BARE_KQQ
    opposite = math.fsum(n * k / r for n, r in zip(_BARE_OPPOSITE, d) if n)
    return opposite - math.fsum(n * k / r for n, r in zip(_BARE_EQUAL, d) if n)


def _outcome(f, *args):
    """The bits ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return struct.pack("<d", f(*args))
    except Exception as error:  # any error, so that a different one shows
        return type(error), str(error)


class TestKernelsMatchReferenceForms:
    """Each kernel against a reference that scans for a zero before any
    division and sums a table of class weights: the same bits or the same error, on
    distances the geometry tests never reach (zeros, subnormals, huge
    values, inf and NaN)."""

    # eps*r*1e-9 of real layouts, where every term shows in the sum
    distances = st.lists(st.floats(min_value=1e-10, max_value=1e-7), min_size=9, max_size=9)
    special = st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, math.nan]),
        st.floats(min_value=5e-324, max_value=2.2e-308),  # subnormal
        st.floats(min_value=2.3e-308, max_value=1e300),
        st.floats(min_value=1e300, allow_infinity=False),  # huge
    )

    @given(distances, st.dictionaries(st.integers(0, 8), special, max_size=4))
    def test_same_bits_or_the_same_error(self, d, replaced):
        for k, value in replaced.items():
            d[k] = value
        for kernel, reference in ((_neutralized_kink, _reference_neutralized_kink), (_bare_kink, _reference_bare_kink)):
            assert _outcome(kernel, d) == _outcome(reference, d)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_raises_where_the_reference_does(self, zero):
        for k in range(9):
            d = [1e-8] * 9
            d[k] = zero
            for kernel, reference in ((_neutralized_kink, _reference_neutralized_kink), (_bare_kink, _reference_bare_kink)):
                assert _outcome(kernel, d) == _outcome(reference, d)
