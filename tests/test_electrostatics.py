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
from hypothesis import given, strategies as st

import frozen
from helpers import BARE, NEUT, cell
from oracle import brute_kink_energy
from qcasim import (
    ChargeModel,
    GeometryParams,
    KinkPair,
    Layout,
    PointCharge,
    ZeroDistanceError,
    cell_charges,
    circuit_kink_energy,
    coulomb_energy,
    coupling_map,
    dot_positions,
    kink_energy,
    pair_energy,
)
from qcasim.electrostatics import (
    _BARE_KQQ,
    _HALF_KQQ,
    _bare_kink,
    _corners,
    _differences,
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

    def test_a_geometry_whose_distances_underflow_raises_like_kink_energy(self):
        # a valid geometry scaled by 1e-318: every dot distance times 1e-9 m is 0
        tiny = GeometryParams(cell_size=18e-318, dot_diameter=5e-318, pitch=20e-318, radius_of_effect=65e-318)
        a, b = cell(0, 0, "a"), cell(20e-318, 0, "b")
        for g in (tiny, tiny._replace(charge_model=ChargeModel.BARE)):
            with pytest.raises(ZeroDistanceError, match="too close"):
                pair_energy(a, -1, b, +1, g)
            with pytest.raises(ZeroDistanceError, match="underflows"):
                kink_energy(a, b, g)


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
        rng = random.Random(7)
        a = cell(0, 0, "a")
        for _ in range(20):
            b = cell(rng.uniform(20, 60), rng.uniform(-60, 60), "b")
            minus_base = pair_energy(a, -1, b, +1, NEUT) - pair_energy(a, -1, b, -1, NEUT)
            plus_base = pair_energy(a, +1, b, -1, NEUT) - pair_energy(a, +1, b, +1, NEUT)
            assert minus_base == plus_base == kink_energy(a, b, NEUT)

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


class TestKernelMatchesReference:
    """The shared-distance kernel against the pair_energy definition, off the grid."""

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

    @given(geometries, centre, centre, offset, offset)
    def test_kink_energy_is_the_pair_energy_difference(self, g, x, y, dx, dy):
        a, b = cell(x, y, "a"), cell(x + dx, y + dy, "b")
        try:
            want = pair_energy(a, -1, b, +1, g) - pair_energy(a, -1, b, -1, g)
        except ZeroDistanceError:
            with pytest.raises(ZeroDistanceError):
                kink_energy(a, b, g)
            return
        assert kink_energy(a, b, g) == want

    @given(geometries, centre, centre, offset, offset)
    def test_distance_table_is_the_dot_pair_comprehension(self, g, x, y, dx, dy):
        # the value tests above can miss two swapped entries of the same sign
        # and bare role, or a difference rounded another way; this pins every
        # entry to its dot pair
        a, b = cell(x, y, "a"), cell(x + dx, y + dy, "b")
        for c in (a, b):
            right, left, top, bottom = _corners(c, g)
            assert dot_positions(c, g) == ((right, top), (left, top), (left, bottom), (right, bottom))
        eps = g.relative_permittivity
        want = [eps * math.hypot(bx - ax, by - ay) * 1e-9 for ax, ay in dot_positions(a, g) for bx, by in dot_positions(b, g)]
        assert _scaled_distances(_differences(_corners(a, g), _corners(b, g)), eps) == want

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
        # the centres are 13*sqrt(2) nm apart, more than cell_size, so
        # validate accepts both pairs; b's bottom-left dot sits on a's
        # top-right dot, which is empty at P = -1 and carries no bare charge
        a, b = cell(0, 0, "a"), cell(13, 13, "b")
        with pytest.raises(ZeroDistanceError):
            kink_energy(a, b, NEUT)
        want = pair_energy(a, -1, b, +1, BARE) - pair_energy(a, -1, b, -1, BARE)
        assert kink_energy(a, b, BARE) == want
        with pytest.raises(ZeroDistanceError):
            circuit_kink_energy(Layout(BARE, [a, b]))
        # b's bottom-right dot sits on a's occupied top-left dot
        c = cell(-13, 13, "c")
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

    def test_an_empty_coincident_dot_does_not_name_an_underflow(self):
        # the 13 nm diagonal of the test above scaled by 2^-1050: b's
        # bottom-left dot still sits on a's empty top-right dot, and every
        # other distance in m underflows to 0.  The bare kernel divides only
        # by occupied dots, none of which coincide; the report runs it first
        u = math.ldexp(1.0, -1050)
        tiny = GeometryParams(cell_size=18 * u, dot_diameter=5 * u, pitch=20 * u)
        a, b = cell(0, 0, "a"), cell(13 * u, 13 * u, "b")
        underflow = "^dots of two cells lie so close that their distance in m underflows to 0$"
        for model, message in ((ChargeModel.BARE, underflow), (ChargeModel.NEUTRALIZED, "^dots of two cells coincide$")):
            g = tiny._replace(charge_model=model)
            with pytest.raises(ZeroDistanceError, match=message):
                kink_energy(a, b, g)
            with pytest.raises(ZeroDistanceError, match=message):
                coupling_map(Layout(g, [a, b]))
            with pytest.raises(ZeroDistanceError, match=underflow):
                list(kink_pairs(Layout(g, [a, b])))


# the neutralized signs at P_a = P_b = -1, row-major over (dot of a, dot of b)
_SIGNED_HALF_KQQ = tuple(_HALF_KQQ * (-1) ** (i + j) for i in range(4) for j in range(4))


def _reference_neutralized_kink(d):
    if 0.0 in d:
        raise ZeroDistanceError("dots of two cells coincide")
    equal = math.fsum(map(operator.truediv, _SIGNED_HALF_KQQ, d))
    return -equal - equal


def _reference_bare_kink(d):
    if 0.0 in (d[4], d[5], d[6], d[7], d[12], d[13], d[14], d[15]):
        raise ZeroDistanceError("occupied dots of two cells coincide")
    k = _BARE_KQQ
    opposite = math.fsum((k / d[4], k / d[6], k / d[12], k / d[14]))
    return opposite - math.fsum((k / d[5], k / d[7], k / d[13], k / d[15]))


def _outcome(kernel, d):
    """The bits a kernel returns, or the type and message of what it raises."""
    try:
        return struct.pack("<d", kernel(d))
    except Exception as error:  # any error, so that a different one shows
        return type(error), str(error)


class TestKernelsMatchReferenceForms:
    """Each kernel against a reference that scans for a zero before any
    division and sums a signed table: the same bits or the same error, on
    distances the geometry tests never reach (zeros, subnormals, huge
    values, inf and NaN)."""

    # eps*r*1e-9 of real layouts, where every term shows in the sum
    distances = st.lists(st.floats(min_value=1e-10, max_value=1e-7), min_size=16, max_size=16)
    special = st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, math.nan]),
        st.floats(min_value=5e-324, max_value=2.2e-308),  # subnormal
        st.floats(min_value=2.3e-308, max_value=1e300),
        st.floats(min_value=1e300, allow_infinity=False),  # huge
    )

    @given(distances, st.dictionaries(st.integers(0, 15), special, max_size=4))
    def test_same_bits_or_the_same_error(self, d, replaced):
        for k, value in replaced.items():
            d[k] = value
        for kernel, reference in ((_neutralized_kink, _reference_neutralized_kink), (_bare_kink, _reference_bare_kink)):
            assert _outcome(kernel, d) == _outcome(reference, d)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_raises_where_the_reference_does(self, zero):
        for k in range(16):
            d = [1e-8] * 16
            d[k] = zero
            for kernel, reference in ((_neutralized_kink, _reference_neutralized_kink), (_bare_kink, _reference_bare_kink)):
                assert _outcome(kernel, d) == _outcome(reference, d)
