"""Clocking, relaxation, simulation, measurement, and truth checking."""

from __future__ import annotations

import builtins
import contextlib
import io
import math
import random
import re
import sys
import tempfile
import tokenize
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import frozen
from helpers import CLOCK, PAPER_CIRCUITS, anti_ordered_chain, exhaustive, independent_wires, run_python, sha
from oracle import brute_fixed_point, product_state_energy
from qcasim import (
    Cell,
    ChargeModel,
    ClockConfig,
    ConvergenceFailure,
    GeometryParams,
    InputSchedule,
    Layout,
    Measurement,
    NoOutputError,
    OutputReading,
    Role,
    TRUTH_MARGIN,
    TraceSample,
    bistable_response,
    circuit_kink_energy,
    coupling_map,
    gamma_at,
    gen_conventional_inverter,
    gen_majority,
    gen_minimal_inverter,
    gen_wire,
    measure,
    measurement_csv,
    relax,
    serialize_qcl,
    simulate,
    trace_csv,
    truth_check,
    validate,
)
from qcasim import _sweepgen, cli, electrostatics, engine
from qcasim.engine import MAX_EXHAUSTIVE_INPUTS, MAX_GAMMA, MAX_SAMPLES_PER_CYCLE

GAMMA_LOW4 = (CLOCK.gamma_low,) * 4


def pair_layout(x, y, pinned=+1):
    """Fixed driver at the origin plus one free cell at (x, y)."""
    return Layout(
        GeometryParams(),
        [
            Cell("drv", 0.0, 0.0, Role.fixed(pinned)),
            Cell("fol", float(x), float(y), Role.normal()),
        ],
    )


class TestClockConfig:
    def test_defaults(self):
        assert CLOCK.gamma_high == 9.8e-22
        assert CLOCK.gamma_low == 3.8e-23
        assert CLOCK.samples_per_cycle == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma_high": 3.8e-23, "gamma_low": 3.8e-23},
            {"gamma_high": 1e-23, "gamma_low": 9.8e-22},
            {"gamma_low": 0.0},
            {"gamma_low": -1e-23},
            {"samples_per_cycle": 4},
            {"samples_per_cycle": 126},
            {"samples_per_cycle": 128.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ClockConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"gamma_high": "1e-21"}, {"gamma_low": None}, {"gamma_low": "3.8e-23"}, {"gamma_high": 1j}]
    )
    def test_rejects_wrongly_typed_gammas(self, kwargs):
        # a ValueError with a message, not a TypeError from the comparison
        with pytest.raises(ValueError, match="^gamma_high and gamma_low must be numbers$"):
            ClockConfig(**kwargs)

    def test_rejects_gamma_above_the_ceiling(self):
        # above 0.5 J, total / (2 gamma) would underflow to a zero that keeps
        # the field's sign; the ceiling sits far below that
        assert ClockConfig(MAX_GAMMA, 1e-19).gamma_high == 1e-18
        for high in (math.nextafter(MAX_GAMMA, 1.0), 1e306, math.inf):
            with pytest.raises(ValueError, match="gamma_high <= 1e-18 J"):
                ClockConfig(high, 1e-20)

    def test_rejects_a_cycle_above_the_sample_cap(self):
        # the cycle table grows with the samples: a cap keeps it a few MB
        assert ClockConfig(samples_per_cycle=MAX_SAMPLES_PER_CYCLE).samples_per_cycle == 65536
        with pytest.raises(ValueError, match=r"^samples_per_cycle must be an integer in 8\.\.65536, multiple of 4$"):
            ClockConfig(samples_per_cycle=MAX_SAMPLES_PER_CYCLE + 4)


class TestGammaAt:
    def test_phase_plateaus_and_ramps(self):
        gh, gl = CLOCK.gamma_high, CLOCK.gamma_low
        assert gamma_at(CLOCK, 0, 0) == gh
        assert gamma_at(CLOCK, 0, 16) == gh + (gl - gh) * 0.5
        assert gamma_at(CLOCK, 0, 32) == gl
        assert gamma_at(CLOCK, 0, 63) == gl
        assert gamma_at(CLOCK, 0, 80) == gl + (gh - gl) * 0.5
        assert gamma_at(CLOCK, 0, 96) == gh
        assert gamma_at(CLOCK, 0, 127) == gh

    def test_zone_is_a_quarter_cycle_delay(self):
        for zone in range(4):
            for sample in range(0, 128, 7):
                assert gamma_at(CLOCK, zone, sample) == gamma_at(
                    CLOCK, 0, sample - zone * 32
                )

    def test_wraps_mod_cycle(self):
        for sample in (-5, 3, 200, 128):
            assert gamma_at(CLOCK, 2, sample) == gamma_at(CLOCK, 2, sample % 128)

    def test_monotone_on_ramps(self):
        down = [gamma_at(CLOCK, 0, s) for s in range(0, 33)]
        up = [gamma_at(CLOCK, 0, s) for s in range(64, 97)]
        assert down == sorted(down, reverse=True)
        assert up == sorted(up)

    @pytest.mark.parametrize("zone", [-1, 4, 7])
    def test_rejects_bad_zone(self, zone):
        with pytest.raises(ValueError):
            gamma_at(CLOCK, zone, 0)

    def test_shortest_cycle_written_out(self):
        # 8 samples: each quarter is 2 samples, each ramp has one midpoint
        hi, mid, lo = 9.8e-22, 5.09e-22, 3.8e-23
        want = [
            [hi, hi, lo, lo],
            [mid, hi, mid, lo],
            [lo, hi, hi, lo],
            [lo, mid, hi, mid],
            [lo, lo, hi, hi],
            [mid, lo, mid, hi],
            [hi, lo, lo, hi],
            [hi, mid, lo, mid],
        ]
        clock = ClockConfig(samples_per_cycle=8)
        assert [[gamma_at(clock, zone, s) for zone in range(4)] for s in range(8)] == want

    def test_sample_before_the_cycle_is_its_last(self):
        assert gamma_at(CLOCK, 0, -1) == CLOCK.gamma_high

    def test_rejects_a_non_integer_sample(self):
        with pytest.raises(TypeError):
            gamma_at(CLOCK, 0, 16.0)


class TestBistableResponse:
    def test_zero_and_reference_point(self):
        assert bistable_response(0.0) == 0.0
        assert bistable_response(1.0) == 1.0 / math.sqrt(2.0)

    @given(st.floats(min_value=-1e7, max_value=1e7, allow_nan=False))
    def test_odd_and_strictly_bounded(self, x):
        f = bistable_response(x)
        assert bistable_response(-x) == -f
        assert -1.0 < f < 1.0

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert bistable_response(lo) <= bistable_response(hi)

    def test_matches_closed_form_oracle(self):
        for x in (-50.0, -2.0, -0.3, 0.1, 1.0, 7.2, 1e4):
            assert bistable_response(x) == brute_fixed_point(x)

    def test_saturates_exactly_where_x_squared_overflows(self):
        edge = math.sqrt(1.7976931348623157e308)  # x * x is finite up to here
        for x in (math.nextafter(edge, math.inf), 1.4e154, 1e300, math.inf):
            assert repr(bistable_response(x)) == "1.0"
            assert repr(bistable_response(-x)) == "-1.0"
        for x in (edge / 2, 1e150, 1e-300):
            assert bistable_response(x) == x / math.sqrt(1.0 + x * x)
        assert math.isnan(bistable_response(math.nan))


class TestInputSchedule:
    def test_exhaustive_binary_order_first_label_msb(self):
        sched = InputSchedule.exhaustive(["b", "a"])
        assert sched.labels == ("a", "b")
        assert sched.vectors == (
            (("a", -1), ("b", -1)),
            (("a", -1), ("b", 1)),
            (("a", 1), ("b", -1)),
            (("a", 1), ("b", 1)),
        )

    def test_exhaustive_three_labels(self):
        sched = InputSchedule.exhaustive(["a", "b", "c"])
        assert len(sched.vectors) == 8
        assert sched.vectors[0] == (("a", -1), ("b", -1), ("c", -1))
        assert sched.vectors[-1] == (("a", 1), ("b", 1), ("c", 1))

    def test_exhaustive_needs_labels(self):
        # no labels: one empty vector, so a fixed-driver-only layout runs once
        sched = InputSchedule.exhaustive([])
        assert sched.labels == ()
        assert sched.vectors == ((),)

    def test_exhaustive_rejects_more_inputs_than_the_limit(self):
        labels = [f"i{k:02d}" for k in range(MAX_EXHAUSTIVE_INPUTS + 1)]
        assert len(InputSchedule.exhaustive(labels[:-1]).vectors) == 4096
        with pytest.raises(ValueError, match="^13 inputs exceed the exhaustive limit of 12$"):
            InputSchedule.exhaustive(labels)

    def test_explicit_orders_labels_within_vectors(self):
        sched = InputSchedule.explicit(["b", "a"], [{"b": -1, "a": 1}])
        assert sched.vectors == ((("a", 1), ("b", -1)),)

    @pytest.mark.parametrize(
        "vectors",
        [
            [{"a": 1}],                # missing b
            [{"a": 1, "b": 1, "c": 1}],  # extra label
            [{"a": 0, "b": 1}],        # bad value
            [],
        ],
    )
    def test_explicit_rejects_bad_vectors(self, vectors):
        with pytest.raises(ValueError):
            InputSchedule.explicit(["a", "b"], vectors)

    @pytest.mark.parametrize(
        "vectors, message",
        [
            ((), "need at least one vector"),
            (((("z", 1),),), "vector 0 must assign exactly the labels ('a', 'b')"),
            (((("b", 1), ("a", 1)),), "vector 0 must assign exactly the labels ('a', 'b')"),
            (((("a", 1), ("b", 1)), (("a", 2), ("b", 1))), "vector 1: values must be -1 or +1"),
        ],
    )
    def test_construction_checks_the_vectors(self, vectors, message):
        # a hand-built schedule gets the same checks as explicit(), before simulate sees it
        with pytest.raises(ValueError) as exc:
            InputSchedule(("a", "b"), vectors)
        assert str(exc.value) == message

    def test_a_repeated_label_is_rejected(self):
        # exhaustive(["a", "a"]) would build vectors that pin input a to -1 and +1 at once
        with pytest.raises(ValueError, match=r"^input labels repeat: \('a', 'a'\)$"):
            InputSchedule.exhaustive(["a", "a"])
        with pytest.raises(ValueError, match=r"^input labels repeat: \('a', 'a'\)$"):
            InputSchedule(("a", "a"), ((("a", -1), ("a", 1)),))


class TestCouplingMap:
    def test_wire_neighbor_lists(self):
        layout = gen_wire(5)
        couplings = coupling_map(layout)
        assert [sorted(j for j, _ in row) for row in couplings] == [
            [1, 2, 3],
            [0, 2, 3, 4],
            [0, 1, 3, 4],
            [0, 1, 2, 4],
            [1, 2, 3],
        ]
        # symmetric energies
        as_dict = [{j: e for j, e in row} for row in couplings]
        assert as_dict[0][1] == as_dict[1][0] == frozen.KINK_HORIZ_20_0

    def test_respects_radius(self):
        g = GeometryParams(radius_of_effect=20.0)
        layout = Layout(
            g,
            [
                Cell("c0", 0.0, 0.0, Role.fixed(1)),
                Cell("c1", 20.0, 0.0, Role.normal()),
                Cell("c2", 40.0, 0.0, Role.normal()),
            ],
        )
        couplings = coupling_map(layout)
        assert [sorted(j for j, _ in row) for row in couplings] == [[1], [0, 2], [1]]

    def test_pair_at_exact_radius_couples_and_is_reported(self):
        # c0-c1 is a 3-4-5 offset exactly at the 65 nm radius; c0-c2 lies beyond it
        layout = Layout(
            GeometryParams(),
            [
                Cell("c0", 0.0, 0.0, Role.fixed(1)),
                Cell("c1", 39.0, 52.0, Role.normal()),
                Cell("c2", 0.0, 65.5, Role.normal()),
            ],
        )
        couplings = coupling_map(layout)
        assert [[j for j, _ in row] for row in couplings] == [[1], [0, 2], [1]]
        report = circuit_kink_energy(layout)
        assert [(p.id_a, p.id_b) for p in report.pairs] == [("c0", "c1"), ("c1", "c2")]
        assert report.pairs[0].distance_nm == 65.0
        assert report.pairs[0].neutralized == couplings[0][0][1]

    @pytest.mark.parametrize(
        "layout, run",
        [
            (gen_wire(3), lambda layout: relax(layout, {"c0": 1}, GAMMA_LOW4)),
            (gen_wire(8), lambda layout: simulate(*exhaustive(layout))),
            (gen_wire(8), lambda layout: engine.stream_measurement(*exhaustive(layout), peaks=False)),
        ],
        ids=["relax", "simulate", "stream_measurement"],
    )
    def test_the_engine_reads_the_table_by_its_own_name(self, monkeypatch, layout, run):
        # perfbench/tracer.py times the table by rebinding engine.coupling_map,
        # so each entry point must look the name up there, once per run
        seen = []
        table = engine.coupling_map
        monkeypatch.setattr(engine, "coupling_map", lambda given: seen.append(given) or table(given))
        run(layout)
        assert len(seen) == 1 and seen[0] is layout

    def test_one_function_under_every_name(self):
        assert coupling_map is engine.coupling_map is electrostatics.coupling_map


class TestRelax:
    def test_wire_follower_fixed_point(self):
        p, sweeps = relax(gen_wire(2), {"c0": +1}, GAMMA_LOW4)
        assert p[0] == 1.0
        assert p[1] == frozen.WIRE2_FOLLOWER_AT_GAMMA_LOW
        assert sweeps == 2

    def test_diagonal_follower_antialigns(self):
        p, _ = relax(pair_layout(20.0, 20.0), {}, GAMMA_LOW4)
        assert p[1] == frozen.DIAG_FOLLOWER_AT_GAMMA_LOW
        assert p[1] < -0.99

    def test_long_offset_follower_is_weaker(self):
        p, _ = relax(pair_layout(40.0, 20.0), {}, GAMMA_LOW4)
        assert p[1] == frozen.TWO_CELL_INVERTER_FOLLOWER
        assert -0.99 < p[1] < -TRUTH_MARGIN

    def test_all_pinned_converges_in_one_sweep(self):
        layout = Layout(
            GeometryParams(),
            [
                Cell("c0", 0.0, 0.0, Role.fixed(-1)),
                Cell("c1", 20.0, 0.0, Role.fixed(1)),
            ],
        )
        p, sweeps = relax(layout, {}, GAMMA_LOW4)
        assert (p, sweeps) == ([-1.0, 1.0], 1)

    def test_long_wire_settles_quickly(self):
        p, sweeps = relax(gen_wire(20), {"c0": +1}, GAMMA_LOW4)
        assert sweeps <= 5
        assert all(v > 0.99 for v in p)

    def test_initial_p_must_match_length(self):
        with pytest.raises(ValueError, match="^initial_p length must match cell count$"):
            relax(gen_wire(3), {"c0": 1}, GAMMA_LOW4, initial_p=[0.0, 0.0])

    @pytest.mark.parametrize("gammas", [(1e-22,) * 3, (1e-22,) * 5, (1e-22, 0.0, 1e-22, 1e-22)])
    def test_gamma_vector_validation(self, gammas):
        with pytest.raises(ValueError, match="^gamma_per_zone must be four positive energies$"):
            relax(gen_wire(2), {"c0": 1}, gammas)

    def test_assignment_validation(self):
        wire = gen_wire(3)
        with pytest.raises(ValueError, match="^assignment names unknown cell 'nope'$"):
            relax(wire, {"nope": 1}, GAMMA_LOW4)
        with pytest.raises(ValueError, match="^assignment for 'c0' must be -1 or \\+1$"):
            relax(wire, {"c0": 0}, GAMMA_LOW4)
        with pytest.raises(ValueError, match=r"^input cell 'c0' \(a\) not assigned$"):
            relax(wire, {}, GAMMA_LOW4)

    def test_assignment_may_not_contradict_fixed(self):
        layout = pair_layout(20.0, 0.0, pinned=+1)
        p, _ = relax(layout, {"drv": +1}, GAMMA_LOW4)  # agreeing is fine
        assert p[0] == 1.0
        with pytest.raises(ValueError, match="^assignment contradicts fixed cell 'drv'$"):
            relax(layout, {"drv": -1}, GAMMA_LOW4)

    def test_failure_carries_residual(self):
        # no budget beyond _MAX_SWEEPS, which would give 19 free rows 52,631 sweeps
        limits = mock.patch.multiple(engine, _MAX_SWEEPS=1, _SWEEP_BUDGET=0)
        with limits, pytest.raises(ConvergenceFailure) as exc:
            relax(gen_wire(20), {"c0": +1}, GAMMA_LOW4)
        assert exc.value.residual > 0.0
        assert exc.value.vector_index is None
        assert exc.value.sample_index is None


def slow_gaas_layout() -> Layout:
    """Seven cells in one zone at eps_r 12.9, input a and output b, whose
    sample 1 needs more than 1,000 sweeps."""
    normal = [(20.0, -20.0), (60.0, 0.0), (80.0, -20.0), (80.0, 0.0), (80.0, 20.0)]
    cells = [Cell("a", 0.0, -20.0, Role.input("a"))]
    cells += [Cell(f"n{k}", x, y, Role.normal()) for k, (x, y) in enumerate(normal)]
    cells.append(Cell("b", 80.0, 40.0, Role.output("b")))
    return Layout(GeometryParams(relative_permittivity=12.9), cells)


@st.composite
def small_gaas_layouts(draw):
    """2 to 8 cells on distinct spots of a 5 x 5 grid at the default pitch
    and eps_r 12.9: the first an input, the rest normal, fixed, output or
    (up to 3 in all) input cells, in one zone or in drawn zones."""
    n = draw(st.integers(2, 8))
    spots = draw(st.permutations(range(25)))[:n]
    one_zone = draw(st.booleans())
    cells, inputs, outputs = [], 0, 0
    for k, spot in enumerate(spots):
        kind = "input" if k == 0 else draw(st.sampled_from(["normal"] * 5 + ["output"] * 2 + ["fixed", "input"]))
        if kind == "input" and inputs < 3:
            inputs += 1
            role = Role.input(f"i{inputs}")
        elif kind == "output":
            outputs += 1
            role = Role.output(f"o{outputs}")
        elif kind == "fixed":
            role = Role.fixed(draw(st.sampled_from([-1, 1])))
        else:
            role = Role.normal()
        zone = 0 if one_zone else draw(st.integers(0, 3))
        cells.append(Cell(f"c{k}", 20.0 * (spot % 5), 20.0 * (spot // 5), role, zone=zone))
    return Layout(GeometryParams(relative_permittivity=12.9), cells)


class TestSimulate:
    def test_wire_follows_input(self):
        layout = gen_wire(5)
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        assert len(trace.samples) == 256
        assert trace.cell_ids == ("c0", "c1", "c2", "c3", "c4")
        steady0 = trace.samples[63].polarizations
        steady1 = trace.samples[128 + 63].polarizations
        assert all(p < -0.99 for p in steady0)
        assert all(p > 0.99 for p in steady1)

    def test_minimal_inverter_inverts(self):
        layout = gen_minimal_inverter(0)
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        m = measure(trace, layout)
        assert m.reading("b", 0).steady == frozen.MINIMAL_STEADY[3]
        assert m.reading("b", 1).steady == -frozen.MINIMAL_STEADY[3]

    def test_majority_vote(self):
        layout = gen_majority()
        sched = InputSchedule.explicit(
            ["a", "b", "c"],
            [{"a": 1, "b": 1, "c": -1}, {"a": -1, "b": 1, "c": -1}],
        )
        m = measure(simulate(layout, CLOCK, sched), layout)
        assert m.reading("m", 0).steady > 0.99
        assert m.reading("m", 1).steady < -0.99

    def test_vector_negation_negates_every_sample(self):
        # the update rule is odd in the polarization vector, exactly, so
        # flipping the one input mirrors the whole trace bit for bit
        layout = gen_minimal_inverter(1)
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        n = CLOCK.samples_per_cycle
        for s in range(n):
            lo, hi = trace.samples[s], trace.samples[n + s]
            assert hi.polarizations == tuple(-p for p in lo.polarizations)
            assert hi.iterations == lo.iterations

    def test_free_cells_stay_strictly_inside_unit_interval(self):
        layout = gen_minimal_inverter(0)
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        for sample in trace.samples:
            pinned, *free = sample.polarizations
            assert abs(pinned) == 1.0
            assert all(-1.0 < p < 1.0 for p in free)

    def test_trace_records_clock_state(self):
        layout = gen_wire(2)
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        for sample in trace.samples:
            assert sample.gammas == tuple(
                gamma_at(CLOCK, z, sample.sample_index) for z in range(4)
            )
            assert sample.iterations >= 1
        assert [s.vector_index for s in trace.samples] == [0] * 128 + [1] * 128

    def test_saturated_cells_read_exactly_one(self):
        # at such a tiny barrier x * x overflows, and the response is +-1
        trace = simulate(*exhaustive(gen_wire(4), ClockConfig(1e-199, 1e-200)))
        for sample in trace.samples:
            a = sample.polarizations[0]
            assert [repr(v) for v in sample.polarizations] == [repr(a)] * 4
            assert abs(a) == 1.0

    def test_is_deterministic(self):
        layout = gen_majority()
        sched = InputSchedule.exhaustive(["a", "b", "c"])
        assert simulate(layout, CLOCK, sched) == simulate(layout, CLOCK, sched)

    def test_schedule_labels_must_match_layout(self):
        with pytest.raises(ValueError):
            simulate(gen_wire(3), CLOCK, InputSchedule.exhaustive(["z"]))
        with pytest.raises(ValueError):
            simulate(gen_majority(), CLOCK, InputSchedule.exhaustive(["a", "b"]))

    def test_failure_reports_vector_and_sample(self):
        layout = anti_ordered_chain(1101)
        sched = InputSchedule.explicit(["a"], [{"a": 1}])
        with pytest.raises(ConvergenceFailure) as exc:
            simulate(layout, CLOCK, sched)
        assert exc.value.vector_index == 0
        assert exc.value.sample_index == 0
        assert exc.value.residual > 0.1
        assert "vector 0" in str(exc.value)

    def test_the_sweep_limit_grows_as_free_rows_shrink(self):
        # max(1,000, 10^6 // free rows): anti_ordered_chain(1101)'s 1,100 rows keep 1,000
        assert [engine._sweep_limit([(0, 0, ())] * n) for n in (0, 1, 6, 999, 1000, 1001, 1100)] == [
            1000, 1000000, 166666, 1001, 1000, 1000, 1000
        ]

    def test_a_slowly_converging_gaas_layout_converges(self):
        # one zone at eps_r 12.9, where the default clock's ramp takes the
        # unpolarized state through its loss of stability and Gauss-Seidel
        # slows down: sample 1 needs 1,156 sweeps, and once raised
        # ConvergenceFailure at 1,000; both tiers take it within the limit
        layout = slow_gaas_layout()
        trace = simulate(*exhaustive(layout))
        iterations = [s.iterations for s in trace.samples]
        assert iterations[:4] == [108, 1156, 148, 55]
        assert (max(iterations), sum(iterations)) == (1311, 7406)
        steady = [trace.samples[at].polarizations[-1] for at in (63, 191)]
        assert [repr(v) for v in steady] == ["-0.9977038732364144", "0.9977038732364144"]
        p = list(trace.samples[0].polarizations)  # vector 0 pins a to -1
        rows = engine._free_rows(layout, coupling_map(layout), engine._pinned_map(layout, {"a": -1}), p)
        compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
        gammas, budget = trace.samples[1].gammas, engine._SWEEP_BUDGET
        reference = outcome(engine._sweep, rows, p, gammas, budget=budget)
        assert reference[1] == ("sweeps", 1156)
        assert outcome(compiled, rows, p, gammas, budget=budget) == reference

    @settings(deadline=None)
    @given(small_gaas_layouts())
    def test_a_small_gaas_layout_converges(self, layout):
        # valid layouts of 2 to 8 cells at eps_r 12.9 under the default
        # clock, where about 1 in 300 once raised ConvergenceFailure
        assert validate(layout) == []
        simulate(*exhaustive(layout))


def zoned_wire(n_cells: int, per_zone: int, geometry: GeometryParams = GeometryParams()) -> Layout:
    """Wire whose cell i is in clock zone (i // per_zone) % 4."""
    wire = gen_wire(n_cells, geometry)
    return Layout(geometry, [c._replace(zone=(i // per_zone) % 4) for i, c in enumerate(wire.cells)])


def zoned_gaas_wire(n_cells: int) -> Layout:
    """Wire at GaAs permittivity, 16 cells a zone: the clock really
    releases cells here, so samples take many sweeps."""
    return zoned_wire(n_cells, 16, GeometryParams(relative_permittivity=12.9))


def and_gate_with_fixed_pin() -> Layout:
    """The majority gate with input c replaced by a p=+1 fixed cell: flipping
    both inputs does not flip the pin, so no vector mirrors another."""
    cells = [
        c._replace(role=Role.fixed(+1)) if c.id == "c2" else c
        for c in gen_majority().cells
    ]
    return Layout(GeometryParams(), cells)


def spaced_inputs(n_inputs: int) -> Layout:
    """Inputs 100 nm apart, beyond each other's radius, and one output
    20 nm right of the last: a single free cell."""
    cells = [Cell(f"c{k}", 100.0 * k, 0.0, Role.input(f"i{k}")) for k in range(n_inputs)]
    cells.append(Cell("out", 100.0 * n_inputs - 80.0, 0.0, Role.output("z")))
    return Layout(GeometryParams(), cells)


def explicit(layout, vectors, clock=CLOCK):
    return layout, clock, InputSchedule.explicit(layout.input_labels(), vectors)


# (layout, clock, schedule) builders that simulate must reproduce exactly
RUNS = {
    "wire8": lambda: exhaustive(gen_wire(8)),
    "majority": lambda: exhaustive(gen_majority()),
    "conventional": lambda: exhaustive(gen_conventional_inverter()),
    "gaas_zoned64": lambda: exhaustive(zoned_gaas_wire(64)),
    # eps_r 1, 4 cells a zone: in every sample some used zones hold while
    # others ramp, so no sample may repeat the last one's P unrelaxed
    "zoned16": lambda: exhaustive(zoned_wire(16, 4)),
    "fixed_pin": lambda: exhaustive(and_gate_with_fixed_pin()),
    # a vector, its complement, the vector again
    "repeat": lambda: explicit(
        gen_majority(),
        [{"a": 1, "b": -1, "c": 1}, {"a": -1, "b": 1, "c": -1}, {"a": 1, "b": -1, "c": 1}],
    ),
    # gammas at both ends of their range: the ceiling while released, the
    # smallest subnormal while held, where x * x overflows and free cells
    # read +-1; with the fixed pin, a vector, its complement, the vector again
    "gamma_underflow": lambda: explicit(
        and_gate_with_fixed_pin(),
        [{"a": 1, "b": -1}, {"a": -1, "b": 1}, {"a": 1, "b": -1}],
        ClockConfig(MAX_GAMMA, 5e-324),
    ),
    # with tiny gammas x * x overflows to inf, and free cells read exactly +-1
    "response_overflow": lambda: explicit(
        gen_wire(4), [{"a": 1}, {"a": -1}], ClockConfig(1e-199, 1e-200)
    ),
}


def outputs_in_two_zones() -> Layout:
    """gen_wire(8) with outputs at cells 1, 3 and 7 in zones 0, 1 and 0."""
    cells = gen_wire(8).cells
    cells = [c._replace(zone=int(i in (2, 3))) for i, c in enumerate(cells)]
    for i in (1, 3):
        cells[i] = cells[i]._replace(role=Role.output(f"m{i}"))
    return Layout(GeometryParams(), cells)


# more runs for stream_measurement(..., peaks=False) to match simulate on
VERDICT_RUNS = {
    "gaas_zoned128": lambda: exhaustive(zoned_gaas_wire(128)),
    "outputs_in_two_zones": lambda: exhaustive(outputs_in_two_zones()),
}


def record_tiers(monkeypatch) -> list[str]:
    """Log "interpreted" or "compiled" for every sample simulate relaxes."""
    log: list[str] = []
    sweep, compile_sweep = engine._sweep, _sweepgen.compile_sweep

    def interpreted(*args):
        log.append("interpreted")
        return sweep(*args)

    def compiled(*args):
        loop = compile_sweep(*args)

        def run(*args):
            log.append("compiled")
            return loop(*args)

        return run

    monkeypatch.setattr(engine, "_sweep", interpreted)
    monkeypatch.setattr(_sweepgen, "compile_sweep", compiled)
    return log


def record_sources(monkeypatch) -> list[str]:
    """Log the source of every part _sweepgen compiles."""
    sources: list[str] = []

    def spy(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(_sweepgen, "compile", spy, raising=False)
    return sources


def repeats(block) -> list[int]:
    """The sample indices of ``block`` whose P is the last sample's tuple object."""
    return [s.sample_index for last, s in zip(block, block[1:]) if s.polarizations is last.polarizations]


def chained_relax(layout, clock, schedule) -> tuple[TraceSample, ...]:
    """The trace as relax calls chained from zeros per vector: they never
    reuse a vector and relax every sample, so they check independently the
    samples simulate negates or does not relax."""
    by_label = {c.role.label: c.id for c in layout.inputs()}
    chained = []
    for vi, vector in enumerate(schedule.vectors):
        assignments = {by_label[label]: value for label, value in vector}
        p = [0.0] * len(layout.cells)
        for s in range(clock.samples_per_cycle):
            gammas = tuple(gamma_at(clock, z, s) for z in range(4))
            p, iters = relax(layout, assignments, gammas, initial_p=p)
            chained.append(TraceSample(vi, s, gammas, tuple(p), iters))
    return tuple(chained)


class TestRelaxIsTheReference:
    @pytest.mark.parametrize("run", list(RUNS))
    def test_chained_relax_rebuilds_the_trace(self, run):
        # repr tells -0.0 from 0.0, which == does not
        layout, clock, schedule = RUNS[run]()
        chained = chained_relax(layout, clock, schedule)
        samples = simulate(layout, clock, schedule).samples
        assert samples == chained
        assert repr(samples) == repr(chained)

    @pytest.mark.parametrize(
        "build, total, most",
        [(lambda: gen_wire(512), 466, 4), (lambda: zoned_gaas_wire(128), 4838, 44)],
        ids=["wire512", "gaas_zoned128"],
    )
    def test_sweep_counts(self, build, total, most):
        # the trace CSV leaves iterations out, so the sweep counts are pinned here
        layout = build()
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(layout.input_labels()))
        iterations = [sample.iterations for sample in trace.samples]
        assert (sum(iterations), max(iterations)) == (total, most)


class TestReuse:
    @pytest.mark.parametrize(
        "run, relaxed, calls",
        [  # the samples of relaxed vectors; the loop calls, one per sample not at a fixed point
            pytest.param("wire8", 128, 71, id="wire8-128"),  # 2 vectors, the second mirrored
            pytest.param("majority", 512, 273, id="majority-512"),  # 8 vectors, 4 complementary pairs
            pytest.param("fixed_pin", 4 * 128, 273, id="fixed_pin-512"),  # a fixed cell: nothing mirrors
            # the complement mirrored, the repeat relaxed
            pytest.param("repeat", 2 * 128, 136, id="repeat-256"),
            pytest.param("gamma_underflow", 3 * 128, 206, id="gamma_underflow-384"),  # a fixed pin
            pytest.param("response_overflow", 128, 65, id="response_overflow-128"),  # +-1: still odd
            # one vector, switching tiers partway
            pytest.param("gaas_zoned64", 128, 128, id="gaas_zoned64-128"),
        ],
    )
    def test_each_vector_pair_relaxes_once(self, monkeypatch, run, relaxed, calls):
        log = record_tiers(monkeypatch)
        blocks = list(engine._cycles(*RUNS[run](), False))
        assert sum(len(block) for block, k in blocks if k is None) == relaxed
        assert len(log) == calls

    @pytest.mark.parametrize(
        "build, calls",
        [(lambda: gen_wire(512), 71), (lambda: zoned_gaas_wire(128), 128)],
        ids=["wire512", "gaas_zoned128"],
    )
    def test_a_sample_at_an_exact_fixed_point_is_not_relaxed(self, monkeypatch, build, calls):
        # the latched wire at eps_r 1 sits at exact fixed points in its hold
        # and relax quarters; the clock keeps the GaAs wire's cells moving
        log = record_tiers(monkeypatch)
        samples = simulate(*exhaustive(build())).samples  # vector 1 mirrors vector 0
        assert len(log) == calls
        # each sample not relaxed shares the last one's P tuple and records 1
        # sweep; the mirror shares its negated tuples in the same samples
        block, mirror = samples[:128], samples[128:]
        assert len(repeats(block)) == 128 - calls and {block[s].iterations for s in repeats(block)} <= {1}
        assert repeats(mirror) == repeats(block)

    def test_only_the_zones_free_rows_use_decide_a_skip(self, monkeypatch):
        # a made-up cycle: zones 0 and 1 hold, then zone 2, which no cell
        # uses, drops, then zone 1 releases, then zone 0.  The fixed point
        # reached in sample 4 outlasts zone 2's change and ends with zone
        # 1's; the one reached in sample 15 ends with zone 0's.
        gl, gh = CLOCK.gamma_low, CLOCK.gamma_high
        cycle = ((gh,) * 4,) + ((gl, gl, gh, gh),) * 7 + ((gl, gl, gl, gh),) * 4
        cycle += ((gl, gh, gl, gh),) * 6 + ((gh, gh, gl, gh),) * 6
        monkeypatch.setattr(ClockConfig, "_cycle", cycle)
        wire = gen_wire(4)
        layout = Layout(wire.geometry, [c._replace(zone=int(i >= 2)) for i, c in enumerate(wire.cells)])
        run = exhaustive(layout, ClockConfig(samples_per_cycle=len(cycle)))
        log = record_tiers(monkeypatch)
        block, _ = next(engine._cycles(*run, False))
        assert (repeats(block), len(log)) == ([5, 6, 7, 8, 9, 10, 11, 16, 17, 22, 23], 13)
        assert repr(simulate(*run).samples) == repr(chained_relax(*run))

    def test_relaxed_and_mirrored_samples_are_trace_samples(self):
        # both are built by tuple.__new__, skipping the NamedTuple's Python __new__
        samples = simulate(*exhaustive(gen_wire(8))).samples  # vector 1 mirrors vector 0
        assert [s.vector_index for s in samples] == [0] * 128 + [1] * 128
        assert {type(s) for s in samples} == {TraceSample}

    def test_a_mirrored_block_shares_its_pin_floats(self):
        # as in a relaxed block, each pin is one float object for the whole
        # cycle, so a many-input trace takes no more memory when mirrored
        trace = simulate(gen_wire(8), CLOCK, InputSchedule.exhaustive(["a"]))
        n = CLOCK.samples_per_cycle
        for block in (trace.samples[:n], trace.samples[n:]):
            assert len({id(s.polarizations[0]) for s in block}) == 1

    def test_uncoupled_cell_stays_positive_zero(self):
        # the far cell is beyond radius_of_effect: its field is an empty sum,
        # +0.0 for both vectors, and the negated copy must not print -0.0
        layout = Layout(
            GeometryParams(),
            [
                Cell("in", 0.0, 0.0, Role.input("a")),
                Cell("out", 20.0, 0.0, Role.output("b")),
                Cell("far", 500.0, 0.0, Role.normal()),
            ],
        )
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        assert len(trace.samples) == 2 * CLOCK.samples_per_cycle
        for sample in trace.samples:
            far = sample.polarizations[2]
            assert far == 0.0 and math.copysign(1.0, far) == 1.0
        rows = trace_csv(trace).splitlines()[1:]
        assert len(rows) == len(trace.samples)
        assert all(row.split(",")[-1] == "0.000000000" for row in rows)


class TestProductStateEnergy:
    """U of tests/oracle.py, the energy Gauss-Seidel descends (see
    TestCompiledSweep's descent property)."""

    def test_a_two_cell_value_by_hand(self):
        # free cells in zones 0 and 1, E_01 = 2, gammas 0.5 and 0.25:
        # U(0.6, -0.8) = -(2/2)(0.6)(-0.8) - 0.5 sqrt(1 - 0.36) - 0.25 sqrt(1 - 0.64)
        #              = 0.48 - 0.4 - 0.15 = -0.07
        couplings = [[(1, 2.0)], [(0, 2.0)]]
        gammas = (0.5, 0.25, 9.0, 9.0)
        assert product_state_energy(couplings, {0: 0, 1: 1}, gammas, (0.6, -0.8)) == pytest.approx(-0.07, abs=1e-15)
        # cell 0 pinned at +1: its pair counts, its gamma term does not; 0.8 - 0.15
        assert product_state_energy(couplings, {1: 1}, gammas, (1.0, -0.8)) == pytest.approx(0.65, abs=1e-15)
        # no free cell: no pair and no gamma term
        assert product_state_energy(couplings, {}, gammas, (1.0, -1.0)) == 0.0

    @pytest.mark.parametrize("build, mirrors", [(lambda: gen_wire(64), 1), (gen_majority, 4)], ids=["wire64", "majority"])
    def test_a_mirrored_sample_has_its_sources_energy(self, build, mirrors):
        # U is even in P and a mirror's P is its source's negated, so each
        # sample read through the MirroredBlock has its source's U, bit for bit
        layout = build()
        couplings = coupling_map(layout)
        inputs = {c.id for c in layout.inputs()}
        free = {i: c.zone for i, c in enumerate(layout.cells) if c.id not in inputs}
        blocks = [block for block, k in engine._cycles(*exhaustive(layout), True) if k is not None]
        assert len(blocks) == mirrors
        for block in blocks:
            for source, sample in zip(block.block, block, strict=True):
                assert sample.polarizations != source.polarizations
                energies = [product_state_energy(couplings, free, s.gammas, s.polarizations) for s in (source, sample)]
                assert energies[0].hex() == energies[1].hex()


@st.composite
def small_runs(draw):
    """A small valid off-grid layout, with or without a fixed cell and with
    zero to two outputs, a short clock, and an explicit schedule that
    repeats and complements its vectors in any order."""
    n_inputs = draw(st.integers(1, 3))
    roles = [Role.input(f"i{k}") for k in range(n_inputs)]
    if draw(st.booleans()):
        roles.append(Role.fixed(draw(st.sampled_from([-1, 1]))))
    roles += [Role.output(f"o{k}") for k in range(draw(st.integers(0, 2)))]
    roles += [Role.normal()] * draw(st.integers(0, 7 - len(roles)))
    spots = draw(st.permutations(range(12)))
    jitter = st.floats(-0.9, 0.9)
    cells = [
        Cell(f"c{k}", 20.0 * (spot % 4) + draw(jitter), 20.0 * (spot // 4) + draw(jitter), role,
             zone=draw(st.integers(0, 3)))
        for k, (spot, role) in enumerate(zip(spots, draw(st.permutations(roles))))
    ]
    layout = Layout(GeometryParams(relative_permittivity=draw(st.sampled_from([1.0, 12.9]))), cells)
    clock = ClockConfig(samples_per_cycle=draw(st.sampled_from([8, 16, 128])))
    labels = layout.input_labels()
    vectors: list[dict[str, int]] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "repeat", "complement"])) if vectors else "new"
        if kind == "new":
            vectors.append({label: draw(st.sampled_from([-1, 1])) for label in labels})
        else:
            earlier = draw(st.sampled_from(vectors))
            sign = 1 if kind == "repeat" else -1
            vectors.append({label: sign * value for label, value in earlier.items()})
    return layout, clock, InputSchedule.explicit(labels, vectors)


@st.composite
def wire_runs(draw):
    """A wire of 8 to 80 cells, where a trace row can be written by runs and
    a mirror from its source's runs: at eps_r 1 or 12.9, in one zone or in
    zones of 16 cells, a short clock, and an explicit schedule of a=+-1 that
    repeats and complements its vectors."""
    n = draw(st.integers(8, 80))
    geometry = GeometryParams(relative_permittivity=draw(st.sampled_from([1.0, 12.9])))
    layout = zoned_wire(n, draw(st.sampled_from([n, 16])), geometry)
    clock = ClockConfig(samples_per_cycle=draw(st.sampled_from([8, 16, 128])))
    values = draw(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=6))
    return layout, clock, InputSchedule.explicit(["a"], [{"a": value} for value in values])


def wire_with_far_cell(n_cells: int) -> Layout:
    """wire:n plus a normal cell beyond radius_of_effect: its field is an
    empty sum, so it holds +0.0 in every sample, mirrored or not."""
    wire = gen_wire(n_cells)
    return Layout(wire.geometry, [*wire.cells, Cell("far", 20.0 * n_cells + 500.0, 0.0, Role.normal())])


# runs whose mirrors the trace writer formats from the kept runs of their
# source's P tuples (a hit), from the negated P (a miss), or both
MIRROR_RUNS = {
    # vector 0's first row fails both the runs and the memo: every row misses
    "wire64": lambda: exhaustive(gen_wire(64)),
    # 68 of the 71 distinct rows hit
    "wire80": lambda: exhaustive(gen_wire(80)),
    # 70 of 71 hit; sample 11, 511 runs of 18 values, took the memo and misses
    "wire512": lambda: exhaustive(gen_wire(512)),
    # 127 runs in 128 cells: every row took the memo, every row misses
    "gaas_zoned128": lambda: exhaustive(zoned_gaas_wire(128)),
    # only vector 4 mirrors the last relaxed vector, and 5-cell rows miss
    "majority": lambda: exhaustive(gen_majority()),
    # vector 2 mirrors vector 1; vector 3 mirrors the older vector 0
    "two_wires": lambda: exhaustive(independent_wires(2)),
    # two mirrors of one block, both hitting, then a repeat relaxed again
    "wire128_mirrored_twice": lambda: explicit(gen_wire(128), [{"a": 1}, {"a": -1}, {"a": -1}, {"a": 1}]),
    # the far cell's +0.0 is 0.0 - (+0.0) in each mirrored row, never -0.0
    "wire128_far_cell": lambda: exhaustive(wire_with_far_cell(128)),
}


def sim_through_files(layout, clock, schedule, folder: Path) -> int:
    """``sim --out t.csv --measure m.csv`` on the run, its layout and vectors
    written to ``folder``; the exit code."""
    (folder / "l.qcl").write_text(serialize_qcl(layout, clock))
    lines = (" ".join(f"{label}={value:+d}" for label, value in v) for v in schedule.vectors)
    (folder / "v.txt").write_text("\n".join(lines) + "\n")
    argv = ["sim", str(folder / "l.qcl"), "--vectors", str(folder / "v.txt")]
    argv += ["--out", str(folder / "t.csv"), "--measure", str(folder / "m.csv")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def library_outcome(layout, clock, schedule):
    """(trace, measurement), or the error that simulate or measure raised."""
    try:
        trace = simulate(layout, clock, schedule)
        return trace, measure(trace, layout)
    except (ConvergenceFailure, NoOutputError) as err:
        return type(err), None


class TestStreaming:
    @settings(deadline=None)  # Hypothesis's default count, or the deep profile's
    @given(st.one_of(small_runs(), wire_runs()))
    def test_streamed_sim_writes_the_bytes_of_the_trace_api(self, run):
        trace, measurement = library_outcome(*run)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder)
            code = sim_through_files(*run, path)
            if measurement is None:
                assert code == {ConvergenceFailure: 3, NoOutputError: 2}[trace]
                assert sorted(p.name for p in path.iterdir()) == ["l.qcl", "v.txt"]
            else:
                assert code == 0
                assert (path / "t.csv").read_bytes() == trace_csv(trace).encode()
                assert (path / "m.csv").read_bytes() == measurement_csv(measurement).encode()

    @pytest.mark.parametrize("run", sorted(MIRROR_RUNS))
    def test_streamed_mirrors_write_the_bytes_of_the_trace_api(self, run, tmp_path):
        layout, clock, schedule = MIRROR_RUNS[run]()
        assert sim_through_files(layout, clock, schedule, tmp_path) == 0
        written = (tmp_path / "t.csv").read_text()
        assert written == trace_csv(simulate(layout, clock, schedule))
        if run == "wire128_far_cell":
            assert {row.rsplit(",", 1)[1] for row in written.splitlines()[1:]} == {"0.000000000"}

    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_readings_only_path_matches_measure_of_simulate(self, run):
        trace, measurement = library_outcome(*run)
        if measurement is None:
            with pytest.raises(trace):
                engine.stream_measurement(*run)
        else:
            # repr tells -0.0 from 0.0, which == does not
            assert repr(engine.stream_measurement(*run).readings) == repr(measurement.readings)
            verdict = engine.stream_measurement(*run, peaks=False).readings
            assert repr([r[:3] for r in verdict]) == repr([r[:3] for r in measurement.readings])

    @pytest.mark.parametrize("run", [*RUNS, *VERDICT_RUNS])
    def test_a_verdict_reads_the_steady_bits_of_measure(self, run):
        # without peaks each cycle stops after the last output's steady
        # sample: 31 on the GaAs wires, whose output is in zone 3, and 95 for
        # the middle output of three in zones 0, 1 and 0
        layout, clock, schedule = {**RUNS, **VERDICT_RUNS}[run]()
        want = measure(simulate(layout, clock, schedule), layout).readings
        got = engine.stream_measurement(layout, clock, schedule, peaks=False).readings
        assert repr([r[:3] for r in got]) == repr([r[:3] for r in want])
        assert all(math.isnan(r.max_abs) for r in got)

    @pytest.mark.parametrize(
        "build, whole, verdict",
        [
            (lambda: gen_wire(8), 71, 35),
            (lambda: gen_majority(), 273, 136),
            (lambda: gen_conventional_inverter(), 72, 36),
            (lambda: zoned_gaas_wire(128), 128, 32),  # its steady sample is 31
        ],
        ids=["wire8", "majority", "conventional", "gaas_zoned128"],
    )
    def test_only_a_verdict_without_a_writer_stops_early(self, monkeypatch, build, whole, verdict):
        log = record_tiers(monkeypatch)
        run = exhaustive(build())
        calls = []
        for write, peaks in ((None, True), (lambda block: list(block), False), (None, False)):
            log.clear()
            engine.stream_measurement(*run, write, peaks=peaks)
            calls.append(len(log))
        assert calls == [whole, whole, verdict]

    def test_the_compile_tier_counts_only_the_samples_a_verdict_relaxes(self, monkeypatch):
        # at eps_r 8 the first sample's work projected over the other 63 of
        # 64 samples stays under twice the compile cost; over the other 127
        # of a whole cycle it would not, and the run would compile at once
        log = record_tiers(monkeypatch)
        run = exhaustive(gen_conventional_inverter(GeometryParams(relative_permittivity=8.0)))
        engine.stream_measurement(*run, peaks=False)
        assert log == ["interpreted"] * 36

    def test_truth_does_not_see_a_failure_after_its_last_steady_sample(self, monkeypatch, tmp_path, capsys):
        # a loop that fails in sample 80, in zone 0's release quarter, after
        # the steady sample 63 of wire:8's output; sim relaxes it, truth not
        late, sweep = ClockConfig()._cycle[80], engine._sweep

        def failing(p, rows, gammas):
            if gammas == late:
                raise ConvergenceFailure(1.0)
            return sweep(p, rows, gammas)

        monkeypatch.setattr(engine, "_sweep", failing)
        path = tmp_path / "wire8.qcl"
        path.write_text(serialize_qcl(gen_wire(8)))
        assert cli.main(["truth", str(path), "--expect", "id"]) == 0
        assert capsys.readouterr().out.endswith("truth: pass\n")
        assert cli.main(["sim", str(path)]) == 3
        assert capsys.readouterr().err.endswith("(vector 0, sample 80)\n")

    def test_an_uncoupled_output_reads_positive_zero_when_mirrored(self):
        # the output is beyond radius_of_effect: its field is an empty sum,
        # +0.0, and the mirror's steady value, negated from it, must not be -0.0
        layout = Layout(
            GeometryParams(),
            [Cell("in", 0.0, 0.0, Role.input("a")), Cell("out", 500.0, 0.0, Role.output("b"))],
        )
        run = exhaustive(layout)
        readings = engine.stream_measurement(*run).readings
        assert repr(readings) == repr(measure(simulate(*run), layout).readings)
        assert [math.copysign(1.0, r.steady) for r in readings] == [1.0, 1.0]

    def test_a_relaxed_block_is_held_until_its_last_mirror(self):
        # vectors 1 and 2 both mirror 0; vector 3 repeats 0 and is relaxed
        # again, since its complement was only mirrored
        layout, clock, schedule = explicit(gen_wire(3), [{"a": 1}, {"a": -1}, {"a": -1}, {"a": 1}])
        cycles = engine._cycles(layout, clock, schedule, True)
        block, k = next(cycles)
        steps = [(k, len(block))]
        held = []  # getrefcount counts its argument and ``block``; more is the generator's
        for samples, k in cycles:
            steps.append((k, len(list(samples))))
            held.append(sys.getrefcount(block) > 2)
        assert steps == [(None, 128), (0, 128), (0, 128), (None, 128)]
        # held while vector 2 still has to mirror it, let go once vector 3 runs
        assert (held[0], held[-1]) == (True, False)
        # without a writer nothing is held, and a mirror comes without samples
        blocks = list(engine._cycles(layout, clock, schedule, False))
        assert [(block is None, k) for block, k in blocks] == [(False, None), (True, 0), (True, 0), (False, None)]


@st.composite
def free_rows_and_state(draw):
    """Free rows of a random off-grid layout with some fixed cells, a random
    starting P and four gammas up to the ceiling, down to subnormal."""
    n = draw(st.integers(2, 12))
    jitter = st.floats(-0.9, 0.9)
    cells = [
        Cell(
            f"c{k}",
            20.0 * (k % 4) + draw(jitter),
            20.0 * (k // 4) + draw(jitter),
            Role.fixed(draw(st.sampled_from([-1, 1]))) if draw(st.booleans()) and k % 3 == 0
            else Role.normal(),
            zone=draw(st.integers(0, 3)),
        )
        for k in range(n)
    ]
    geometry = GeometryParams(
        relative_permittivity=draw(st.sampled_from([1.0, 12.9])),
        charge_model=draw(st.sampled_from(list(ChargeModel))),
    )
    layout = Layout(geometry, cells)
    p = [draw(st.floats(-1.0, 1.0)) for _ in cells]
    rows = engine._free_rows(layout, coupling_map(layout), engine._pinned_map(layout, {}), p)
    gammas = tuple(draw(st.floats(5e-324, MAX_GAMMA, exclude_min=False)) for _ in range(4))
    return rows, p, gammas


@st.composite
def wire_rows_and_state(draw):
    """Free rows of a wire of up to 60 cells: zones change every drawn number
    of cells, a few cells are fixed, and one may sit off the line, so its
    neighbours' rows differ; the radius reaches 1 to 4 cells.  A random
    starting P and four gammas up to the ceiling, down to subnormal."""
    n = draw(st.integers(2, 60))
    per_zone, reach = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    fixed = draw(st.sets(st.integers(0, n - 1), max_size=4))
    displaced = draw(st.none() | st.integers(0, n - 1))
    cells = [
        Cell(
            f"c{k}",
            20.0 * k,
            2.0 if k == displaced else 0.0,
            Role.fixed(draw(st.sampled_from([-1, 1]))) if k in fixed else Role.normal(),
            zone=(k // per_zone) % 4,
        )
        for k in range(n)
    ]
    geometry = GeometryParams(
        relative_permittivity=draw(st.sampled_from([1.0, 12.9])),
        charge_model=draw(st.sampled_from(list(ChargeModel))),
        radius_of_effect=20.0 * reach + 5.0,
    )
    layout = Layout(geometry, cells)
    p = [draw(st.floats(-1.0, 1.0)) for _ in cells]
    rows = engine._free_rows(layout, coupling_map(layout), engine._pinned_map(layout, {}), p)
    gammas = tuple(draw(st.floats(5e-324, MAX_GAMMA, exclude_min=False)) for _ in range(4))
    return rows, p, gammas


@st.composite
def flat_runs_and_state(draw):
    """Rows alike but for a pinned cell or a zone change that may split
    them, each reading 1 to 4 cells before it, after it, both or none, and
    a starting P drawn as stretches of one value (0.0 and -0.0 mixed in a
    stretch of zeros, NaN, +-1.0 or any P), so many windows are flat; the
    last stretch may reach the last row and the last cell a row reads."""
    reach = draw(st.integers(1, 4))
    before, after = [*range(-reach, 0)], [*range(1, reach + 1)]
    offsets = draw(st.sampled_from([before, after, before + after, []]))
    energies = [draw(st.floats(-2e-20, 2e-20)) for _ in offsets]
    n = draw(st.integers(2, 70))
    gap, split = draw(st.none() | st.integers(reach, reach + n - 1)), draw(st.integers(reach, reach + n))
    rows = [
        (i, int(i >= split), tuple((i + o, e) for o, e in zip(offsets, energies)))
        for i in range(reach, reach + n)
        if i != gap
    ]
    values, p = st.sampled_from([0.0, math.nan, 1.0, -1.0]) | st.floats(-1.0, 1.0), []
    while len(p) < n + 2 * reach:
        value, length = draw(values), draw(st.integers(1, n + 2 * reach))
        p += [draw(st.sampled_from([0.0, -0.0])) if value == 0.0 else value for _ in range(length)]
    gamma = st.sampled_from([CLOCK.gamma_low, CLOCK.gamma_high]) | st.floats(1e-24, MAX_GAMMA)
    return rows, p[: n + 2 * reach], tuple(draw(gamma) for _ in range(4))


@st.composite
def power_of_two_stretches_and_state(draw):
    """One run of rows, each reading 1 to 3 cells before it, after it or
    both, over a P of stretches of one value whose lengths are a power of
    two or one off it (0.0 and -0.0 mixed in a stretch of zeros), so a
    loop's scan for the end of a flat stretch doubles and halves its slices
    to the last cell of each.  The last stretch ends before the last cell
    the run reads, one short of it or at it, the scan's limit; up to 3 cells
    of its value may follow that cell, which no row reads."""
    reach = draw(st.integers(1, 3))
    before, after = [*range(-reach, 0)], [*range(1, reach + 1)]
    offsets = draw(st.sampled_from([before + after, after, before]))
    lo, hi = -min(0, *offsets), max(0, *offsets)
    energies = [draw(st.floats(-2e-20, 2e-20)) for _ in offsets]
    values, p = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0), []
    while len(p) < lo + hi + 2 or len(p) < 300 and draw(st.booleans()):
        value, length = draw(values), max(1, 2 ** draw(st.integers(0, 7)) + draw(st.integers(-1, 1)))
        p += [draw(st.sampled_from([0.0, -0.0])) if value == 0.0 else value for _ in range(length)]
    last = p[-1]
    p += [0.5 if last != 0.5 else -0.5] * draw(st.sampled_from([0, 1]) | st.integers(2, 2 * hi + 3))
    limit = len(p)
    p += [last] * draw(st.integers(0, 3))
    zone = draw(st.integers(0, 3))
    rows = [(i, zone, tuple((i + o, e) for o, e in zip(offsets, energies))) for i in range(lo, limit - hi)]
    gamma = st.sampled_from([CLOCK.gamma_low, CLOCK.gamma_high]) | st.floats(1e-24, MAX_GAMMA)
    return rows, p, tuple(draw(gamma) for _ in range(4))


@st.composite
def pinned_layout_and_state(draw):
    """A layout with one or more fixed cells and at least one free one:
    either 2 to 9 cells on distinct, jittered spots of a 3 x 3 grid with a
    P in [-1, 1] per cell, or a wire of up to 80 cells whose zones change
    every drawn number of cells, whose radius reaches 1 to 4 cells and whose
    P comes in stretches of one value, so its loops fill flat windows; and
    the gammas of one sample of the default clock."""
    n = draw(st.integers(2, 9)) if draw(st.booleans()) else draw(st.integers(10, 80))
    geometry = GeometryParams(
        relative_permittivity=draw(st.sampled_from([1.0, 12.9])),
        charge_model=draw(st.sampled_from(list(ChargeModel))),
    )
    if n <= 9:
        jitter = st.floats(-0.9, 0.9)
        spots = draw(st.permutations(range(9)))[:n]
        places = [(20.0 * (s % 3) + draw(jitter), 20.0 * (s // 3) + draw(jitter), draw(st.integers(0, 3))) for s in spots]
        p = [draw(st.floats(-1.0, 1.0)) for _ in range(n)]
    else:
        geometry = geometry._replace(radius_of_effect=20.0 * draw(st.integers(1, 4)) + 5.0)
        per_zone, p = draw(st.integers(1, 64)), []
        places = [(20.0 * k, 0.0, (k // per_zone) % 4) for k in range(n)]
        while len(p) < n:
            p += [draw(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0))] * draw(st.integers(1, n))
    fixed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n - 1)))
    cells = [
        Cell(f"c{k}", x, y, Role.fixed(draw(st.sampled_from([-1, 1]))) if k in fixed else Role.normal(), zone=zone)
        for k, (x, y, zone) in enumerate(places)
    ]
    s = draw(st.integers(0, CLOCK.samples_per_cycle - 1))
    return Layout(geometry, cells), p[:n], tuple(gamma_at(CLOCK, z, s) for z in range(4))


def outcome(loop, rows, p, gammas, tolerance=engine._TOLERANCE, max_iters=engine._MAX_SWEEPS, budget=0):
    """(repr of the final P, sweeps used or the failure's residual), with
    the engine's limits patched to ``tolerance`` and ``max_iters``, and by
    default no budget of updates beyond ``max_iters`` sweeps."""
    p = list(p)
    with mock.patch.multiple(engine, _TOLERANCE=tolerance, _MAX_SWEEPS=max_iters, _SWEEP_BUDGET=budget):
        try:
            result = ("sweeps", loop(p, rows, gammas))
        except ConvergenceFailure as fail:
            result = ("residual", repr(fail.residual))
    return repr(p), result


class TestCompiledSweep:
    @given(
        free_rows_and_state(),
        # (tolerance, _MAX_SWEEPS[, _SWEEP_BUDGET]): a budget of 40 updates lets rows past 2 sweeps
        st.sampled_from([(1e-7, 1000), (1e-7, 2), (0.0, 0), (0.0, 1), (0.0, 3), (1e-7, 1, 40), (0.0, 2, 40)]),
        st.sampled_from([1, 3, engine.ROWS_PER_PART]),
    )
    def test_matches_the_interpreted_loop(self, state, limits, rows_per_part):
        rows, p, gammas = state
        with mock.patch.object(engine, "ROWS_PER_PART", rows_per_part):
            compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
        assert outcome(compiled, rows, p, gammas, *limits) == outcome(
            engine._sweep, rows, p, gammas, *limits
        )

    @given(
        wire_rows_and_state(),
        st.sampled_from([(1e-7, 1000), (1e-7, 2), (0.0, 0), (0.0, 1), (0.0, 3), (1e-7, 1, 40), (0.0, 2, 40)]),
    )
    def test_a_wire_matches_the_interpreted_loop(self, state, limits):
        # at a run threshold of 2 or 3 most wires hold a loop part, at 32 the longer ones
        rows, p, gammas = state
        for rows_per_part in (2, 3, engine.ROWS_PER_PART):
            with mock.patch.object(engine, "ROWS_PER_PART", rows_per_part):
                compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
            assert outcome(compiled, rows, p, gammas, *limits) == outcome(
                engine._sweep, rows, p, gammas, *limits
            )

    @given(flat_runs_and_state())
    def test_a_flat_window_matches_the_interpreted_loop(self, state):
        # a loop fills the rows after a flat window with one slice store; a
        # wrong fill shows in P after a sweep or two, or in the sweeps used
        rows, p, gammas = state
        for rows_per_part in (2, 3, engine.ROWS_PER_PART):
            with mock.patch.object(engine, "ROWS_PER_PART", rows_per_part):
                compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
            for limits in ((1e-7, 1000), (1e-7, 2), (0.0, 1), (0.0, 3)):
                assert outcome(compiled, rows, p, gammas, *limits) == outcome(
                    engine._sweep, rows, p, gammas, *limits
                )

    @settings(deadline=None)  # up to 1,000 interpreted sweeps of a few hundred rows
    @given(power_of_two_stretches_and_state())
    def test_a_flat_stretch_of_any_length_matches_the_interpreted_loop(self, state):
        # the scan for a flat stretch's end compares slices of 1, 2, 4, ...
        # cells, then halves them: a stretch one off a power of two, or one
        # that ends at or next to the scan's limit, shows an off-by-one there
        rows, p, gammas = state
        loops = []
        for rows_per_part in (2, engine.ROWS_PER_PART):
            with mock.patch.object(engine, "ROWS_PER_PART", rows_per_part):
                loops.append(_sweepgen.compile_sweep(rows, engine._runs(rows)))
        for limits in ((1e-7, 1000), (1e-7, 2), (0.0, 1), (0.0, 3)):
            expected = outcome(engine._sweep, rows, p, gammas, *limits)
            assert [outcome(loop, rows, p, gammas, *limits) for loop in loops] == [expected] * 2

    @given(pinned_layout_and_state())
    def test_a_relaxation_never_raises_the_product_state_energy(self, state):
        # each update minimises U (oracle.product_state_energy) in its cell,
        # so neither tier's relaxation may raise U beyond rounding: a check
        # of _sweep itself, where the tests above compare the tiers with it
        layout, p, gammas = state
        assert validate(layout) == []
        couplings = coupling_map(layout)
        rows = engine._free_rows(layout, couplings, engine._pinned_map(layout, {}), p)
        free = {i: zone for i, zone, _ in rows}
        scale = sum(sum(abs(e) for _, e in neighbours) / 2.0 + gammas[zone] for _, zone, neighbours in rows)
        before = product_state_energy(couplings, free, gammas, p)
        loops = [engine._sweep]
        for rows_per_part in (2, 3, 32):
            with mock.patch.object(engine, "ROWS_PER_PART", rows_per_part):
                loops.append(_sweepgen.compile_sweep(rows, engine._runs(rows)))
        for loop in loops:
            relaxed = list(p)
            # at most 1,000 sweeps: a slow relaxation descends no differently
            # within the budget, which can reach 10^6 updates per loop
            with mock.patch.object(engine, "_SWEEP_BUDGET", 0), contextlib.suppress(ConvergenceFailure):
                loop(relaxed, rows, gammas)
            assert product_state_energy(couplings, free, gammas, relaxed) <= before + 1e-12 * scale

    def test_a_flat_stretch_is_filled_by_slices(self):
        # sample 0 of wire:512 from zeros, 4 sweeps of its run of rows 3..508:
        # in each, once the updates left of a row settle to one float and the
        # zeros right of it are unchanged, one slice store fills the rest of
        # the run (1,968 of its 2,024 updates); later the wire's far end
        # changes the last few rows, so the fill stops short of them
        class Counted(list):
            def __setitem__(self, key, value):
                if isinstance(key, slice):
                    self.slices.append((key.start, key.stop))
                super().__setitem__(key, value)

        layout = gen_wire(512)
        p = Counted([0.0] * 512)
        p.slices = []
        rows = engine._free_rows(layout, coupling_map(layout), engine._pinned_map(layout, {"c0": 1}), p)
        gammas = tuple(gamma_at(CLOCK, z, 0) for z in range(4))
        compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
        reference = list(p)
        assert compiled(p, rows, gammas) == engine._sweep(reference, rows, gammas)
        assert repr(list(p)) == repr(reference)
        assert p.slices == [(17, 509), (14, 509), (13, 506), (15, 503)]

    @pytest.mark.parametrize(
        "build, first",
        [
            # cells 3..36 are one run, and its first window reads the input, p[0]
            (lambda: gen_wire(40), "m3 = p[0]"),
            # each of cells 2..39 reads the two cells before it: the run ends
            # at the last cell, whose newest window cell is itself
            (lambda: [(i, 1, ((i - 2, 3e-21), (i - 1, -2e-21))) for i in range(2, 40)], "m2 = p[0]"),
            # each of cells 0..37 reads the two after it, which end at p[39]
            (lambda: [(i, 2, ((i + 1, -2e-21), (i + 2, 3e-21))) for i in range(38)], "w = p[0]"),
            # each of cells 70..109 reads the 70 before it: a sum over more than one line
            (
                lambda: [(i, 3, tuple((i - o, o * 1e-22) for o in range(70, 0, -1))) for i in range(70, 110)],
                "m70 = p[0]",
            ),
        ],
        ids=["window_holds_the_input", "run_ends_at_the_last_cell", "forward_only", "long_window"],
    )
    def test_a_run_compiles_as_one_loop(self, monkeypatch, build, first):
        built = build()
        p = [math.sin(k) for k in range(110)]
        rows = built
        if isinstance(built, Layout):
            rows = engine._free_rows(built, coupling_map(built), engine._pinned_map(built, {"c0": 1}), p)
        sources = record_sources(monkeypatch)
        compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
        loops = [source for source in sources if "for i in rows:" in source]
        assert len(loops) == 1 and first in loops[0]
        for gammas in (GAMMA_LOW4, (CLOCK.gamma_high,) * 4, (1e-300,) * 4):
            assert outcome(compiled, rows, p, gammas) == outcome(engine._sweep, rows, p, gammas)

    def test_a_layout_without_a_run_compiles_the_parts_it_did(self, monkeypatch):
        # zones change every 16 cells, so no 32 rows are alike: the 127 free
        # rows compile in 4 straight-line parts, the same source as before runs
        sources = record_sources(monkeypatch)
        layout = zoned_gaas_wire(128)
        rows = engine._free_rows(layout, coupling_map(layout), engine._pinned_map(layout, {"c0": 1}), [0.0] * 128)
        _sweepgen.compile_sweep(rows, engine._runs(rows))
        assert len(sources) == 4
        assert sha("\n".join(sources).encode()) == "e9fbde34157d53480049c139d71dd7ac055d846258bed1f28d1bb5823caf5af4"

    def test_long_rows_split_across_lines(self):
        # 99 neighbours per row, more than one expression of the source holds
        cells = [
            Cell(f"c{k}", 20.0 * (k % 10), 20.0 * (k // 10), Role.normal()) for k in range(100)
        ]
        cells[0] = cells[0]._replace(role=Role.fixed(+1))
        layout = Layout(GeometryParams(radius_of_effect=1000.0), cells)
        p = [0.0] * 100
        rows = engine._free_rows(layout, coupling_map(layout), engine._pinned_map(layout, {}), p)
        assert min(len(neighbours) for _, _, neighbours in rows) > _sweepgen.TERMS_PER_LINE
        compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
        for gammas in (GAMMA_LOW4, (CLOCK.gamma_high,) * 4, (1e-300,) * 4):
            assert outcome(compiled, rows, p, gammas) == outcome(engine._sweep, rows, p, gammas)

    def test_falls_back_exactly_where_x_could_overflow(self, monkeypatch):
        # zones 0 and 1 at eps_r 12.9; zone 1's gamma steps across the one
        # where its largest row sum of |E| over 2 gamma reaches X_MARGIN
        cells = [Cell("drv", 0.0, 0.0, Role.fixed(+1))]
        cells += [Cell(f"c{k}", 20.0 * k, 0.0, Role.normal(), zone=k % 2) for k in range(1, 7)]
        layout = Layout(GeometryParams(relative_permittivity=12.9), cells)
        p = [0.0] * len(cells)
        rows = engine._free_rows(layout, coupling_map(layout), engine._pinned_map(layout, {}), p)
        sweep, log = engine._sweep, record_tiers(monkeypatch)
        compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
        widest = max(sum(abs(e) for _, e in neighbours) for _, zone, neighbours in rows if zone == 1)
        limit = widest / _sweepgen.X_MARGIN
        edge = limit / 2.0
        steps = [edge]
        for _ in range(3):
            steps = [math.nextafter(steps[0], 0.0), *steps, math.nextafter(steps[-1], 1.0)]
        fell_back = []
        for gamma in steps:
            gammas = (CLOCK.gamma_low, gamma, CLOCK.gamma_high, CLOCK.gamma_high)
            log.clear()
            assert outcome(compiled, rows, p, gammas) == outcome(sweep, rows, p, gammas)
            fell_back.append(2.0 * gamma <= limit)
            assert log == ["compiled", "interpreted"] if fell_back[-1] else ["compiled"]
        assert fell_back[0] and not fell_back[-1]
        for gammas in ((5e-324,) * 4, (CLOCK.gamma_low, 5e-324, CLOCK.gamma_low, CLOCK.gamma_low)):
            log.clear()
            assert outcome(compiled, rows, p, gammas) == outcome(sweep, rows, p, gammas)
            assert log == ["compiled", "interpreted"]

    def test_falls_back_where_a_row_sum_overflows(self, monkeypatch):
        # row 3's sum of |E| passes DBL_MAX, where math.fsum raises; row 4's is
        # finite, but over 2 gamma it overflows too: every call falls back, and none raises
        energies = (8.9e307, -8.9e307, 8.9e307)
        with pytest.raises(OverflowError):
            math.fsum(map(abs, energies))
        rows = [(3, 0, tuple(enumerate(energies))), (4, 1, ((3, 4.7e295), (0, -4.7e295)))]
        p = [1.0, -1.0, 1.0, 0.0, 0.0]
        sweep, log = engine._sweep, record_tiers(monkeypatch)
        compiled = _sweepgen.compile_sweep(rows, engine._runs(rows))
        for gammas in (GAMMA_LOW4, (MAX_GAMMA,) * 4):
            log.clear()
            assert outcome(compiled, rows, p, gammas) == outcome(sweep, rows, p, gammas)
            assert log == ["compiled", "interpreted"]

    def test_switches_tiers_partway_through_a_vector(self, monkeypatch):
        # one relaxed vector of 128 samples: the first ones interpreted, the
        # rest compiled; test_chained_relax_rebuilds_the_trace checks the bytes
        log = record_tiers(monkeypatch)
        simulate(*RUNS["gaas_zoned64"]())
        switch = log.index("compiled")
        assert 0 < switch < 64
        assert log == ["interpreted"] * switch + ["compiled"] * (128 - switch)

    @pytest.mark.parametrize(
        "build, interpreted",
        [
            # 938 sweeps x 2 rows; each count here is of loop calls, and a
            # sample at an exact fixed point makes none
            (lambda: gen_majority(), 273),
            # 233 sweeps x 511 rows: 506 of the rows are one run, a loop
            # priced as one row, so compiling costs 14,400 updates.  Before
            # sample 0 the floor of the 128 samples to relax, one sweep each
            # less a call's set-up (501 x 128 = 64,128), reads 2.2 x twice
            # that cost, so no sample runs interpreted
            (lambda: gen_wire(512), 0),
            # a run of 42 rows: 1.57 x the compile cost after sample 0, under
            # the margin of 2, and later samples project less
            (lambda: gen_wire(48), 71),
            # 2,419 sweeps x 127 rows: sample 0's work projected over the
            # other 127 samples reads 11.3 x the compile cost
            (lambda: zoned_gaas_wire(128), 1),
            # one free cell, 32 relaxed vectors: about 2 updates a sample
            # never repay a compiled call's set-up
            (lambda: spaced_inputs(6), 2144),
            (lambda: gen_conventional_inverter(), 72),
            (lambda: gen_wire(8), 71),
            (lambda: gen_minimal_inverter(0), 69),
            # 12 free rows, 32 relaxed vectors: sample 0's work projected
            # over the other 4,095 samples reads 9.3 x the compile cost
            (lambda: independent_wires(6), 1),
        ],
        ids=[
            "majority", "wire512", "wire48", "gaas_zoned128", "one_row_many_vectors",
            "conventional", "wire8", "minimal_inverter", "six_wires",
        ],
    )
    def test_compiles_once_the_work_repays_it(self, monkeypatch, build, interpreted):
        log = record_tiers(monkeypatch)
        simulate(*exhaustive(build()))
        assert log.count("interpreted") == interpreted
        assert log[:interpreted] == ["interpreted"] * interpreted

    @pytest.mark.parametrize("verdicts_only", [False, True], ids=["sim", "truth"])
    def test_a_long_wire_compiles_before_its_first_sample(self, monkeypatch, verdicts_only):
        # sim relaxes vector 0's whole cycle and mirrors vector 1; truth
        # relaxes each cycle only through its output's steady sample.  Along
        # a wire every row past the first few joins one run, so each longer
        # wire prices as many rows as wire:64.  The shortest wire whose
        # floor, (free rows - _COMPILED_CALL) x samples to relax, reaches
        # twice the compile cost switches before sample 0 (at the default
        # clock, wire:236 under sim, wire:461 under truth); one cell
        # shorter, it switches after sample 0
        def rows_and_cost(layout):
            pinned = engine._pinned_map(layout, {layout.inputs()[0].id: 1})
            rows = engine._free_rows(layout, coupling_map(layout), pinned, [0.0] * len(layout.cells))
            priced = len(rows) - sum(stop - first - 1 for first, stop in engine._runs(rows))
            return len(rows), engine._COMPILE_FIXED + engine._COMPILE_PER_ROW * priced

        outputs = engine._outputs(gen_wire(64), CLOCK.samples_per_cycle)
        samples = 1 + max(at for _, _, at in outputs) if verdicts_only else CLOCK.samples_per_cycle
        _, cost = rows_and_cost(gen_wire(64))
        shortest = 1 + engine._COMPILED_CALL + -(-2 * cost // samples)  # every cell but the input is free
        log = record_tiers(monkeypatch)
        for n, before in ((shortest - 1, False), (shortest, True)):
            wire = gen_wire(n)
            rows, wire_cost = rows_and_cost(wire)
            assert wire_cost == cost and ((rows - engine._COMPILED_CALL) * samples >= 2 * cost) is before
            log.clear()
            engine.stream_measurement(*exhaustive(wire), peaks=not verdicts_only)
            assert log.index("compiled") == (0 if before else 1)

    def test_a_layout_without_free_rows_never_imports_the_compiler(self):
        # eight inputs and a fixed cell: 256 relaxed vectors of 128 samples,
        # but with no free row every sample's floor and work are below zero
        code = (
            "import sys\n"
            "from qcasim import Cell, ClockConfig, GeometryParams, InputSchedule, Layout, Role, simulate\n"
            "cells = [Cell(f'c{k}', 100.0 * k, 0.0, Role.input(f'i{k}')) for k in range(8)]\n"
            "layout = Layout(GeometryParams(), [*cells, Cell('f', 800.0, 0.0, Role.fixed(+1))])\n"
            "trace = simulate(layout, ClockConfig(), InputSchedule.exhaustive(layout.input_labels()))\n"
            "print(len(trace.samples), 'qcasim._sweepgen' in sys.modules)\n"
        )
        assert run_python("-c", code, capture_output=True, check=True).stdout == "32768 False\n"

    def test_only_a_run_that_switches_tiers_imports_the_compiler(self, tmp_path):
        # _cycles imports _sweepgen when a run first switches tiers: a CLI run
        # on wire:8 never does; the 128-cell zoned GaAs wire does, and so does
        # wire:512, whose run of 506 alike rows compiles as one loop
        wire8, gaas, wire512 = tmp_path / "wire8.qcl", tmp_path / "gaas128.qcl", tmp_path / "wire512.qcl"
        wire8.write_text(serialize_qcl(gen_wire(8)))
        gaas.write_text(serialize_qcl(zoned_gaas_wire(128)))
        wire512.write_text(serialize_qcl(gen_wire(512)))
        code = "import sys, qcasim.cli\nprint(qcasim.cli.main(sys.argv[1:]), 'qcasim._sweepgen' in sys.modules)"
        for argv, loaded in (
            (["truth", str(wire8), "--expect", "id"], False), (["sim", str(gaas)], True), (["sim", str(wire512)], True)
        ):
            result = run_python("-c", code, *argv, capture_output=True, check=True)
            assert result.stdout.splitlines()[-1] == f"0 {loaded}"

    def test_compile_sweep_refuses_a_non_finite_kink_energy(self):
        rows = [(1, 0, ((0, math.inf),)), (2, 0, ((1, 1e-21),))]
        with pytest.raises(ValueError, match="finite"):
            _sweepgen.compile_sweep(rows, engine._runs(rows))

    def test_source_holds_no_text_from_the_layout(self, monkeypatch):
        # ids and labels that read as code; the generated source may hold
        # only its fixed names, c<index>/g<zone> locals, a loop's window
        # locals and number literals
        hostile = ["__import__", "os.system", "exec:1", "eval+open", "breakpoint"]
        fixed = {
            "def", "part", "p", "try", "while", "True", "rise", "fall", "x", "new",
            "sqrt", "if", "elif", "else", "d", "yield", "finally", "for", "in", "range", "i", "w",
            "rows", "iter", "k", "n", "and", "next", "islice", "None",
        }
        sources = record_sources(monkeypatch)
        # 63 free rows in parts of 32; a loop over cells 3..60 between two short parts
        for wire, parts, loops in ((zoned_gaas_wire(64), 2, 0), (gen_wire(64), 3, 1)):
            cells = [c._replace(id=f"{hostile[i % 5]}.{i}") for i, c in enumerate(wire.cells)]
            cells[0] = cells[0]._replace(role=Role.input("globals"))
            cells[-1] = cells[-1]._replace(role=Role.output("getattr"))
            sources.clear()
            simulate(*exhaustive(Layout(wire.geometry, cells)))
            assert len(sources) == parts
            assert sum("for i in rows:" in source for source in sources) == loops
            for source in sources:
                # no overflow branch: the update calls nothing but sqrt
                for text in ["globals", "getattr", "inf", "copysign", *hostile]:
                    assert text not in source
                for token in tokenize.generate_tokens(io.StringIO(source).readline):
                    if token.type == tokenize.NAME:
                        assert token.string in fixed or re.fullmatch(r"[cg][0-9]+|[mq][1-9][0-9]*", token.string)
                    elif token.type == tokenize.NUMBER:
                        assert token.string == repr(float(token.string)) or token.string.isdigit()
                    elif token.type == tokenize.OP:
                        assert token.string in {*"()[]:=+-*/,<>", "==", "<=", "+=", ">>="}, token.string


class TestMeasure:
    def test_steady_reads_last_hold_sample_of_output_zone(self):
        layout = gen_wire(4)
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        m = measure(trace, layout)
        out_index = 3
        for vi in range(2):
            r = m.reading("b", vi)
            assert r.steady == trace.samples[vi * 128 + 63].polarizations[out_index]
            assert r.max_abs >= abs(r.steady)

    def test_zone_shifts_the_steady_sample(self):
        # an output in zone 3 holds around the wrap, so its last hold
        # sample lands a quarter cycle into the vector
        layout = Layout(
            GeometryParams(),
            [
                Cell("c0", 0.0, 0.0, Role.input("a")),
                Cell("c1", 20.0, 0.0, Role.output("q"), zone=3),
            ],
        )
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        m = measure(trace, layout)
        assert m.reading("q", 0).steady == trace.samples[31].polarizations[1]
        assert m.reading("q", 1).steady == trace.samples[128 + 31].polarizations[1]

    def test_requires_an_output(self):
        layout = Layout(
            GeometryParams(),
            [
                Cell("c0", 0.0, 0.0, Role.input("a")),
                Cell("c1", 20.0, 0.0, Role.normal()),
            ],
        )
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(["a"]))
        with pytest.raises(NoOutputError):
            measure(trace, layout)

    def test_reading_lookup_raises_on_unknown(self):
        layout = gen_wire(2)
        m = measure(simulate(layout, CLOCK, InputSchedule.exhaustive(["a"])), layout)
        with pytest.raises(KeyError):
            m.reading("b", 5)
        with pytest.raises(KeyError):
            m.reading("zz", 0)

    def test_reading_lookup_names_the_missing_key(self):
        readings = (OutputReading("b", 0, 0.9, 0.95), OutputReading("b", 0, -0.9, 0.95))
        m = Measurement(vectors=((("a", -1),),), readings=readings)
        assert m.reading("b", 0) is readings[0]  # the first of a repeated key, as a scan finds
        for key in (("b", 1), ("zz", 0)):
            with pytest.raises(KeyError) as err:
                m.reading(*key)
            assert err.value.args == (key,)


class TestTruthCheck:
    def run(self, layout, labels):
        trace = simulate(layout, CLOCK, InputSchedule.exhaustive(labels))
        return measure(trace, layout)

    def test_wire_is_identity_not_inversion(self):
        m = self.run(gen_wire(3), ["a"])
        as_id = truth_check(m, lambda bits: bits["a"])
        as_not = truth_check(m, lambda bits: not bits["a"])
        assert as_id.passed
        assert not as_not.passed
        assert [v.passed for v in as_not.verdicts] == [False, False]

    def test_two_cell_inverter_clears_the_margin(self):
        m = self.run(gen_minimal_inverter(-1), ["a"])
        result = truth_check(m, lambda bits: not bits["a"])
        assert result.passed
        steadies = [v.outputs[0].steady for v in result.verdicts]
        assert steadies == [
            frozen.MINIMAL_STEADY[2],
            -frozen.MINIMAL_STEADY[2],
        ]

    def test_cell_order_can_flip_a_verdict(self):
        # At the default permittivity and clock no cell is released, so the
        # first sweep latches cells in file order: this order of the
        # conventional inverter reads b = -1 for a = -1.  At eps_r 12.9 the
        # clock releases cells and the same order inverts.
        order = "c8 c9 c1 c2 c5 c3 c7 c4 c0 c10 c6".split()
        verdicts = []
        for geometry in (GeometryParams(), GeometryParams(relative_permittivity=12.9)):
            layout = gen_conventional_inverter(geometry)
            by_id = {cell.id: cell for cell in layout.cells}
            layout = layout._replace(cells=[by_id[i] for i in order])
            m = engine.stream_measurement(layout, CLOCK, InputSchedule.exhaustive(["a"]))
            result = truth_check(m, lambda bits: not bits["a"])
            verdicts.append((result.passed, [round(v.outputs[0].steady, 4) for v in result.verdicts]))
        assert verdicts == [(False, [-1.0, 1.0]), (True, [0.9976, -0.9976])]

    @pytest.mark.parametrize("kind", sorted(PAPER_CIRCUITS))
    def test_cell_order_moves_no_verdict_where_the_clock_releases(self, kind):
        # At eps_r 12.9 with the default clock, and at eps_r 1 with gamma_high
        # 1e-20 J, the clock releases cells: 40 shuffled orders read every
        # vector's verdict of the generator's order.  At 12.9 inverter:2 fails
        # in every order, its own too (|P| ~ 0.096 is under TRUTH_MARGIN).
        function = cli.TRUTH_FUNCTIONS[PAPER_CIRCUITS[kind]][1]
        for epsilon_r, clock in ((12.9, CLOCK), (1.0, ClockConfig(gamma_high=1e-20))):
            layout = cli._builder_for_kind(kind)(GeometryParams(relative_permittivity=epsilon_r))

            def verdicts(cells):
                m = engine.stream_measurement(*exhaustive(layout._replace(cells=cells), clock))
                return [v.passed for v in truth_check(m, function).verdicts]

            own = verdicts(layout.cells)
            for seed in range(40):
                cells = list(layout.cells)
                random.Random(seed).shuffle(cells)
                assert verdicts(cells) == own, (epsilon_r, seed)

    def test_majority_truth_table(self):
        m = self.run(gen_majority(), ["a", "b", "c"])
        result = truth_check(m, lambda bits: sum(bits.values()) >= 2)
        assert result.passed
        assert len(result.verdicts) == 8
        for verdict in result.verdicts:
            want = sum(v > 0 for _, v in verdict.inputs) >= 2
            assert verdict.outputs[0].expected is want

    def test_margin_rule(self):
        vectors = ((("a", -1),), (("a", 1),))
        readings = (
            OutputReading("b", 0, 0.49, 0.8),   # right sign, under margin
            OutputReading("b", 1, -0.51, 0.9),  # clears margin
        )
        m = Measurement(vectors=vectors, readings=readings)
        result = truth_check(m, lambda bits: not bits["a"])
        assert [v.passed for v in result.verdicts] == [False, True]
        assert result.verdicts[0].outputs[0].steady == 0.49
        assert not result.passed
