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
from helpers import CLOCK, PAPER_CIRCUITS, anti_ordered_chain, exhaustive, independent_wires, run_python
from oracle import brute_fixed_point
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
)
from qcasim import _sweepgen, cli, engine
from qcasim.engine import MAX_EXHAUSTIVE_INPUTS, MAX_GAMMA

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
        with pytest.raises(ValueError):
            relax(gen_wire(3), {"c0": 1}, GAMMA_LOW4, initial_p=[0.0, 0.0])

    @pytest.mark.parametrize("gammas", [(1e-22,) * 3, (1e-22,) * 5, (1e-22, 0.0, 1e-22, 1e-22)])
    def test_gamma_vector_validation(self, gammas):
        with pytest.raises(ValueError):
            relax(gen_wire(2), {"c0": 1}, gammas)

    def test_assignment_validation(self):
        wire = gen_wire(3)
        with pytest.raises(ValueError):
            relax(wire, {"nope": 1}, GAMMA_LOW4)
        with pytest.raises(ValueError):
            relax(wire, {"c0": 0}, GAMMA_LOW4)
        with pytest.raises(ValueError):
            relax(wire, {}, GAMMA_LOW4)  # input c0 unassigned

    def test_assignment_may_not_contradict_fixed(self):
        layout = pair_layout(20.0, 0.0, pinned=+1)
        p, _ = relax(layout, {"drv": +1}, GAMMA_LOW4)  # agreeing is fine
        assert p[0] == 1.0
        with pytest.raises(ValueError):
            relax(layout, {"drv": -1}, GAMMA_LOW4)

    def test_failure_carries_residual(self):
        with mock.patch.object(engine, "_MAX_SWEEPS", 1), pytest.raises(ConvergenceFailure) as exc:
            relax(gen_wire(20), {"c0": +1}, GAMMA_LOW4)
        assert exc.value.residual > 0.0
        assert exc.value.vector_index is None
        assert exc.value.sample_index is None


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

    def compiled(rows):
        loop = compile_sweep(rows)

        def run(*args):
            log.append("compiled")
            return loop(*args)

        return run

    monkeypatch.setattr(engine, "_sweep", interpreted)
    monkeypatch.setattr(_sweepgen, "compile_sweep", compiled)
    return log


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


def library_outcome(layout, clock, schedule):
    """(trace, measurement), or the error that simulate or measure raised."""
    try:
        trace = simulate(layout, clock, schedule)
        return trace, measure(trace, layout)
    except (ConvergenceFailure, NoOutputError) as err:
        return type(err), None


class TestStreaming:
    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_streamed_sim_writes_the_bytes_of_the_trace_api(self, run):
        layout, clock, schedule = run
        trace, measurement = library_outcome(*run)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder)
            (path / "l.qcl").write_text(serialize_qcl(layout, clock))
            lines = (" ".join(f"{label}={value:+d}" for label, value in v) for v in schedule.vectors)
            (path / "v.txt").write_text("\n".join(lines) + "\n")
            argv = ["sim", str(path / "l.qcl"), "--vectors", str(path / "v.txt")]
            argv += ["--out", str(path / "t.csv"), "--measure", str(path / "m.csv")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if measurement is None:
                assert code == {ConvergenceFailure: 3, NoOutputError: 2}[trace]
                assert sorted(p.name for p in path.iterdir()) == ["l.qcl", "v.txt"]
            else:
                assert code == 0
                assert (path / "t.csv").read_bytes() == trace_csv(trace).encode()
                assert (path / "m.csv").read_bytes() == measurement_csv(measurement).encode()

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


def outcome(loop, rows, p, gammas, tolerance=engine._TOLERANCE, max_iters=engine._MAX_SWEEPS):
    """(repr of the final P, sweeps used or the failure's residual), with
    the engine's limits patched to ``tolerance`` and ``max_iters``."""
    p = list(p)
    with mock.patch.multiple(engine, _TOLERANCE=tolerance, _MAX_SWEEPS=max_iters):
        try:
            result = ("sweeps", loop(p, rows, gammas))
        except ConvergenceFailure as fail:
            result = ("residual", repr(fail.residual))
    return repr(p), result


class TestCompiledSweep:
    @given(
        free_rows_and_state(),
        st.sampled_from([(1e-7, 1000), (1e-7, 2), (0.0, 0), (0.0, 1), (0.0, 3)]),
        st.sampled_from([1, 3, _sweepgen.ROWS_PER_PART]),
    )
    def test_matches_the_interpreted_loop(self, state, limits, rows_per_part):
        rows, p, gammas = state
        with mock.patch.object(_sweepgen, "ROWS_PER_PART", rows_per_part):
            compiled = _sweepgen.compile_sweep(rows)
        assert outcome(compiled, rows, p, gammas, *limits) == outcome(
            engine._sweep, rows, p, gammas, *limits
        )

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
        compiled = _sweepgen.compile_sweep(rows)
        for gammas in (GAMMA_LOW4, (CLOCK.gamma_high,) * 4, (1e-300,) * 4):
            assert outcome(compiled, rows, p, gammas) == outcome(engine._sweep, rows, p, gammas)

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
            # 233 sweeps x 511 rows, the heaviest samples first: sample 0's
            # work projected over the rest reads 1.25 x the compile cost,
            # under the margin of 2, and later samples project less
            (lambda: gen_wire(512), 71),
            # 2,419 sweeps x 127 rows: sample 0's work projected over the
            # other 127 samples reads 13.5 x the compile cost
            (lambda: zoned_gaas_wire(128), 1),
            # one free cell, 32 relaxed vectors: about 2 updates a sample
            # never repay a compiled call's set-up
            (lambda: spaced_inputs(6), 2144),
            (lambda: gen_conventional_inverter(), 72),
            (lambda: gen_wire(8), 71),
            (lambda: gen_minimal_inverter(0), 69),
            # 12 free rows, 32 relaxed vectors: sample 0's work projected
            # over the other 4,095 samples reads 24.7 x the compile cost;
            # the work done alone would reach it at sample 519
            (lambda: independent_wires(6), 1),
        ],
        ids=[
            "majority", "wire512", "gaas_zoned128", "one_row_many_vectors",
            "conventional", "wire8", "minimal_inverter", "six_wires",
        ],
    )
    def test_compiles_once_the_work_repays_it(self, monkeypatch, build, interpreted):
        log = record_tiers(monkeypatch)
        simulate(*exhaustive(build()))
        assert log.count("interpreted") == interpreted
        assert log[:interpreted] == ["interpreted"] * interpreted

    def test_only_a_run_that_switches_tiers_imports_the_compiler(self, tmp_path):
        # _cycles imports _sweepgen when a run first switches tiers: a CLI run
        # on wire:8 never does, the 128-cell zoned GaAs wire does
        wire8, gaas = tmp_path / "wire8.qcl", tmp_path / "gaas128.qcl"
        wire8.write_text(serialize_qcl(gen_wire(8)))
        gaas.write_text(serialize_qcl(zoned_gaas_wire(128)))
        code = "import sys, qcasim.cli\nprint(qcasim.cli.main(sys.argv[1:]), 'qcasim._sweepgen' in sys.modules)"
        for argv, loaded in ((["truth", str(wire8), "--expect", "id"], False), (["sim", str(gaas)], True)):
            result = run_python("-c", code, *argv, capture_output=True, check=True)
            assert result.stdout.splitlines()[-1] == f"0 {loaded}"

    def test_non_finite_kink_energy_stays_interpreted(self):
        rows = [(1, 0, ((0, math.inf),)), (2, 0, ((1, 1e-21),))]
        assert engine._compile_cost(rows) == math.inf
        with pytest.raises(ValueError, match="finite"):
            _sweepgen.compile_sweep(rows)

    def test_source_holds_no_text_from_the_layout(self, monkeypatch):
        # ids and labels that read as code; the generated source may hold
        # only its fixed names, c<index>/g<zone> locals and number literals
        hostile = ["__import__", "os.system", "exec:1", "eval+open", "breakpoint"]
        wire = zoned_gaas_wire(64)
        cells = [
            c._replace(id=f"{hostile[i % 5]}.{i}") for i, c in enumerate(wire.cells)
        ]
        cells[0] = cells[0]._replace(role=Role.input("globals"))
        cells[-1] = cells[-1]._replace(role=Role.output("getattr"))
        sources = []

        def spy(source, *args):
            sources.append(source)
            return builtins.compile(source, *args)

        monkeypatch.setattr(_sweepgen, "compile", spy, raising=False)
        simulate(*exhaustive(Layout(wire.geometry, cells)))
        assert len(sources) == 2  # 63 free rows, in parts of 32
        fixed = {
            "def", "part", "p", "try", "while", "True", "residual", "x", "xx", "new",
            "sqrt", "if", "else", "inf", "copysign", "d", "abs", "yield", "finally",
        }
        for source in sources:
            for text in ["globals", "getattr", *hostile]:
                assert text not in source
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type == tokenize.NAME:
                    assert token.string in fixed or re.fullmatch(r"[cg][0-9]+", token.string)
                elif token.type == tokenize.NUMBER:
                    assert token.string == repr(float(token.string)) or token.string.isdigit()
                elif token.type == tokenize.OP:
                    assert token.string in "()[]:=+-*/,<>!=", token.string


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
