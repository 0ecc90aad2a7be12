"""Text format: parsing, canonical serialization, vectors, CSV exports."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import frozen
from qcasim import (
    Cell,
    ChargeModel,
    ClockConfig,
    GeometryParams,
    InputSchedule,
    Layout,
    ParseError,
    Role,
    circuit_kink_energy,
    gen_conventional_inverter,
    gen_majority,
    gen_minimal_inverter,
    gen_wire,
    kink_report_csv,
    measure,
    measurement_csv,
    parse_qcl,
    parse_vectors,
    serialize_qcl,
    simulate,
    trace_csv,
)
from qcasim.engine import MAX_GAMMA, Measurement, OutputReading, Trace, TraceSample
from qcasim.qcl import format_energy, format_polarization

MINIMAL_DOC = """\
qcl 1
cell id=c0 x=0 y=0 role=input label=a
cell id=c1 x=20 y=0 role=output label=b
"""

CANONICAL_WIRE2 = """\
qcl 1
geometry cell_size=18 dot_diameter=5 pitch=20 epsilon_r=1 charge_model=neutralized radius=65
cell id=c0 x=0 y=0 role=input label=a zone=0
cell id=c1 x=20 y=0 role=output label=b zone=0
"""


# CSV cell values: -0.0, subnormals, +-1.0, values half way between two
# 9-decimal readings, and any other float.
CSV_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
    st.integers(-10**9, 10**9).map(lambda k: (k + 0.5) / 1e9),
    st.floats(),
)


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse_qcl(text)
    return exc.value


class TestParse:
    def test_minimal_document(self):
        layout, clock = parse_qcl(MINIMAL_DOC)
        assert clock is None
        assert layout.geometry == GeometryParams()
        assert [c.id for c in layout.cells] == ["c0", "c1"]
        assert layout.cells[0].role.label == "a"
        assert layout.cells[1].zone == 0

    def test_comments_blanks_and_spacing_are_ignored(self):
        doc = (
            "# layout under test\n"
            "qcl 1\n"
            "\n"
            "cell   role=input  id=c0 x=0 y=0 label=a   # driver\n"
            "\t\n"
            "cell id=c1 y=0 x=20 role=output label=b\n"
        )
        layout, clock = parse_qcl(doc)
        assert parse_qcl(MINIMAL_DOC)[0] == layout

    def test_geometry_line(self):
        doc = (
            "qcl 1\n"
            "geometry cell_size=10 dot_diameter=2 pitch=12 epsilon_r=12.9"
            " charge_model=bare radius=36\n"
            "cell id=c0 x=0 y=0 role=fixed p=+1\n"
        )
        layout, _ = parse_qcl(doc)
        g = layout.geometry
        assert (g.cell_size, g.dot_diameter, g.pitch) == (10.0, 2.0, 12.0)
        assert g.relative_permittivity == 12.9
        assert g.charge_model is ChargeModel.BARE
        assert g.radius_of_effect == 36.0
        assert layout.cells[0].role.polarization == 1

    def test_partial_geometry_keeps_defaults(self):
        layout, _ = parse_qcl("qcl 1\ngeometry epsilon_r=2\n")
        assert layout.geometry == GeometryParams(relative_permittivity=2.0)

    def test_clock_line(self):
        doc = "qcl 1\nclock high=1e-21 low=1e-23 samples=64\n"
        _, clock = parse_qcl(doc)
        assert clock == ClockConfig(1e-21, 1e-23, 64)

    def test_zone_and_fixed_parse(self):
        doc = "qcl 1\ncell id=q x=0 y=0 role=fixed p=-1 zone=3\n"
        layout, _ = parse_qcl(doc)
        assert layout.cells[0].zone == 3
        assert layout.cells[0].role.polarization == -1

    def test_empty_document(self):
        e = err("")
        assert e.line == 1
        e = err("# only comments\n\n")
        assert e.line == 1

    def test_header_must_come_first(self):
        e = err("# title\n\ngeometry pitch=30\nqcl 1\n")
        assert e.line == 3
        assert "header" in e.reason

    def test_unsupported_version(self):
        assert err("qcl 2\n").line == 1
        assert err("qca 1\n").line == 1

    @pytest.mark.parametrize(
        "body, line, fragment",
        [
            ("bogus x=1", 2, "unknown directive"),
            ("geometry pitch", 2, "expected key=value"),
            ("geometry color=red", 2, "unknown key"),
            ("geometry pitch=20 pitch=30", 2, "duplicate key"),
            ("geometry pitch=fast", 2, "bad number"),
            ("geometry pitch=inf", 2, "finite"),
            ("geometry pitch=10", 2, "pitch"),
            ("geometry charge_model=ionic", 2, "charge_model"),
            # two bad fields: the first in canonical key order is reported
            ("geometry cell_size=x charge_model=ionic", 2, "bad number for 'cell_size'"),
            ("clock high=1e-23 low=9e-22", 2, "gamma_high"),
            ("clock samples=50", 2, "samples_per_cycle"),
            ("clock samples=12.5", 2, "bad integer"),
            ("cell id=c0 x=0 y=0", 2, "missing required key 'role'"),
            ("cell x=0 y=0 role=normal", 2, "missing required key 'id'"),
            ("cell id=c0 x=0 y=0 role=driver", 2, "unknown role"),
            ("cell id=c0 x=0 y=0 role=input", 2, "needs a token label"),
            ("cell id=c0 x=0 y=0 role=normal label=a", 2, "takes no label"),
            ("cell id=c0 x=0 y=0 role=fixed", 2, "needs polarization"),
            ("cell id=c0 x=0 y=0 role=fixed p=0", 2, "p"),
            ("cell id=c0 x=0 y=0 role=input label=a p=1", 2, "takes no p"),
            ("cell id=c0 x=0 y=0 role=normal zone=4", 2, "zone"),
            ("cell id=c0 x=nan y=0 role=normal", 2, "finite"),
            ("cell id=c(0) x=0 y=0 role=normal", 2, "token"),
        ],
    )
    def test_rejects_malformed_lines(self, body, line, fragment):
        e = err("qcl 1\n" + body + "\n")
        assert e.line == line
        assert fragment in e.reason
        assert not e.reason.startswith("line ")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("geometry pitch=fast", "line 2: bad number for 'pitch': 'fast'"),
            ("clock low=nan", "line 2: 'low' must be finite"),
            # cell lines: Role makes the role-shape errors, the parser adds the line
            ("cell id=c0 x=0 y=0 role=input", "line 2: input role needs a token label"),
            ("cell id=c0 x=0 y=0 role=output", "line 2: output role needs a token label"),
            (
                "cell id=c0 x=0 y=0 role=normal label=a",
                "line 2: normal role takes no label or polarization",
            ),
            (
                "cell id=c0 x=0 y=0 role=normal p=1",
                "line 2: normal role takes no label or polarization",
            ),
            ("cell id=c0 x=0 y=0 role=fixed", "line 2: fixed role needs polarization -1 or +1"),
            (
                "cell id=c0 x=0 y=0 role=input label=a p=1",
                "line 2: input role takes no polarization",
            ),
            ("cell id=c0 x=0 y=0 role=fixed label=x p=1", "line 2: fixed role takes no label"),
            ("cell id=c0 x=0 y=0 role=input p=x", "line 2: bad integer for 'p': 'x'"),
            ("cell id=c0 x=0 y=0 role=fixed p=0", "line 2: fixed role needs polarization -1 or +1"),
            ("cell id=c0 x=0 y=0 role=driver", "line 2: unknown role 'driver'"),
        ],
    )
    def test_bad_field_message_names_the_line_once(self, body, message):
        assert str(err("qcl 1\n" + body + "\n")) == message

    def test_error_lines_count_comments_and_blanks(self):
        doc = "# one\n\nqcl 1\n# four\ncell id=c0 x=0 y=0 role=wat\n"
        assert err(doc).line == 5

    @pytest.mark.parametrize("mark, word", [("\f", "break"), ("\u2028", "here")])
    def test_only_newlines_end_a_comment(self, mark, word):
        doc = f"qcl 1\n# page{mark}{word}\ncell id=c0 x=0 y=0 role=wat\n"
        assert str(err(doc)) == "line 3: unknown role 'wat'"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_universal_newlines_end_lines(self, end):
        doc = end.join(["qcl 1", "# two", "cell id=c0 x=0 y=0 role=wat", ""])
        assert str(err(doc)) == "line 3: unknown role 'wat'"

    def test_vertical_tab_separates_fields(self):
        layout, _ = parse_qcl("qcl 1\ncell id=c0\vx=0 y=0 role=input label=a\n")
        assert layout.cells == (Cell("c0", 0.0, 0.0, Role.input("a")),)

    def test_next_line_character_does_not_end_the_header(self):
        e = err("qcl 1\x85cell id=c0 x=0 y=0 role=input label=a\n")
        assert e.line == 1
        assert "expected 'qcl 1' header" in e.reason

    def test_structural_ordering_rules(self):
        cell = "cell id=c0 x=0 y=0 role=normal\n"
        assert err("qcl 1\ngeometry pitch=20\ngeometry pitch=20\n").line == 3
        assert err("qcl 1\nclock samples=64\nclock samples=64\n").line == 3
        assert err("qcl 1\n" + cell + "geometry pitch=20\n").line == 3
        assert err("qcl 1\n" + cell + "clock samples=64\n").line == 3

    def test_duplicate_cell_id(self):
        doc = "qcl 1\ncell id=c0 x=0 y=0 role=normal\ncell id=c0 x=40 y=0 role=normal\n"
        e = err(doc)
        assert e.line == 3
        assert "duplicate cell id" in e.reason

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            layout, clock = parse_qcl(text)
        except ParseError as e:
            assert e.line >= 1
        else:
            assert isinstance(layout, Layout)


class TestSerialize:
    def test_canonical_bytes(self):
        assert serialize_qcl(gen_wire(2)) == CANONICAL_WIRE2

    def test_clock_line_emitted_on_request(self):
        text = serialize_qcl(gen_wire(2), ClockConfig())
        assert "clock high=9.80000e-22 low=3.80000e-23 samples=128\n" in text

    def test_parsing_noncanonical_input_canonicalizes(self):
        doc = (
            "qcl 1\n"
            "# default geometry spelled out by hand\n"
            "cell   label=a role=input  id=c0 x=0.0 y=-0\n"
            "cell id=c1 y=0 x=20.0 role=output label=b zone=0\n"
        )
        layout, _ = parse_qcl(doc)
        assert serialize_qcl(layout) == CANONICAL_WIRE2

    def test_serialize_is_a_fixpoint(self):
        for layout in (gen_majority(), gen_conventional_inverter(), gen_minimal_inverter(-1)):
            text = serialize_qcl(layout, ClockConfig())
            again, clock = parse_qcl(text)
            assert serialize_qcl(again, clock) == text

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_wire(2),
            lambda: gen_wire(8),
            gen_majority,
            gen_conventional_inverter,
            lambda: gen_minimal_inverter(-1),
            lambda: gen_minimal_inverter(2),
        ],
    )
    def test_round_trip_standard_circuits(self, build):
        layout = build()
        assert parse_qcl(serialize_qcl(layout)) == (layout, None)
        assert parse_qcl(serialize_qcl(layout, ClockConfig())) == (layout, ClockConfig())

    @given(
        st.floats(min_value=0.0, max_value=MAX_GAMMA, exclude_min=True),
        st.floats(min_value=0.0, max_value=MAX_GAMMA, exclude_min=True),
        st.integers(2, 64),
    )
    @example(9.876543e-22, 3.8e-23, 32)
    @example(2.000001e-22, 2.0e-22, 32)
    @example(MAX_GAMMA, 5e-324, 2)
    @settings(max_examples=200)
    def test_clock_round_trip(self, a, b, quarter):
        assume(a != b)
        clock = ClockConfig(max(a, b), min(a, b), 4 * quarter)
        text = serialize_qcl(gen_wire(2), clock)
        assert parse_qcl(text) == (gen_wire(2), clock)
        line = text.splitlines()[2]
        for key, value in (("high", clock.gamma_high), ("low", clock.gamma_low)):
            short = format_energy(value)
            written = short if float(short) == value else repr(value)
            assert f" {key}={written} " in line

    def test_round_trip_awkward_floats(self):
        g = GeometryParams(
            cell_size=18.25,
            dot_diameter=5.5,
            pitch=20.125,
            relative_permittivity=12.9,
            radius_of_effect=65.75,
        )
        layout = Layout(
            g,
            [
                Cell("c0", 0.0, 0.0, Role.input("a")),
                Cell("c1", 20.000000000000004, -0.3333333333333333, Role.output("b"), zone=2),
            ],
        )
        assert parse_qcl(serialize_qcl(layout)) == (layout, None)
        assert "x=20.000000000000004" in serialize_qcl(layout)

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        st.lists(st.sampled_from(["normal", "fixed", "output"]), max_size=6),
        # pins and zones as a caller may pass them: ints, bools and floats
        st.lists(st.sampled_from([1, -1, True, 1.0, -1.0]), max_size=6),
        st.lists(st.sampled_from([0, 1, 2, 3, True, False, 2.0, 0.0]), max_size=6),
    )
    @example([(0, 0), (1, 0)], ["normal"], [], [0, 2.0])
    @example([(0, 0), (1, 0)], ["normal"], [], [0, True])
    @example([(0, 0), (1, 0)], ["fixed"], [1.0], [])
    @settings(max_examples=100)
    def test_round_trip_property(self, grid, kinds, pins, zones):
        # a cell that cannot round-trip must not build
        try:
            cells = []
            for i, (gx, gy) in enumerate(grid):
                if i == 0:
                    role = Role.input("a")
                else:
                    kind = kinds[(i - 1) % len(kinds)] if kinds else "normal"
                    if kind == "fixed":
                        role = Role.fixed(pins[i % len(pins)] if pins else 1)
                    else:
                        role = Role.output(f"o{i}") if kind == "output" else Role.normal()
                zone = zones[i % len(zones)] if zones else 0
                cells.append(Cell(f"n{i}", gx * 20.0, gy * 20.0, role, zone))
        except ValueError:
            return
        layout = Layout(GeometryParams(), cells)
        assert parse_qcl(serialize_qcl(layout)) == (layout, None)


class TestParseVectors:
    def test_basic(self):
        text = "# header comment\na=1 b=-1\n\nb=1 a=-1  # swap\n"
        assert parse_vectors(text, ["a", "b"]) == [
            {"a": 1, "b": -1},
            {"a": -1, "b": 1},
        ]

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("a=1 c=1\n", 1, "unknown input label"),
            ("a=1 a=1\n", 1, "duplicate label"),
            ("a=1 b=1\na=1\n", 2, "missing input label"),
            ("a=2 b=1\n", 1, "must be -1 or +1"),
            ("a=yes b=1\n", 1, "bad value"),
            ("a b=1\n", 1, "expected label=value"),
            ("", 1, "no vectors"),
            ("# nothing\n", 1, "no vectors"),
        ],
    )
    def test_rejects_malformed(self, text, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse_vectors(text, ["a", "b"])
        assert exc.value.line == line
        assert fragment in exc.value.reason

    def test_form_feed_stays_inside_a_comment(self):
        assert parse_vectors("# a\fb=1\na=1\n", ["a"]) == [{"a": 1}]

    def test_feeds_explicit_schedules(self):
        rows = parse_vectors("a=-1\na=1\n", ["a"])
        sched = InputSchedule.explicit(["a"], rows)
        assert sched.vectors == ((("a", -1),), (("a", 1),))


class TestCsvExports:
    def test_kink_report_bytes(self):
        report = circuit_kink_energy(gen_wire(2))
        assert kink_report_csv(report) == (
            "id_a,id_b,distance_nm,ekink_bare_J,ekink_neut_J\n"
            "c0,c1,20,1.40889e-20,1.40889e-20\n"
            "TOTAL,,,1.40889e-20,1.40889e-20\n"
        )

    def test_kink_report_empty(self):
        report = circuit_kink_energy(Layout(GeometryParams(), []))
        assert kink_report_csv(report) == (
            "id_a,id_b,distance_nm,ekink_bare_J,ekink_neut_J\n"
            "TOTAL,,,0.00000e+00,0.00000e+00\n"
        )

    def test_trace_csv_shape(self):
        layout = gen_wire(2)
        trace = simulate(layout, ClockConfig(), InputSchedule.exhaustive(["a"]))
        text = trace_csv(trace)
        lines = text.splitlines()
        assert lines[0] == "vector,sample,gamma_z0,gamma_z1,gamma_z2,gamma_z3,c0,c1"
        assert len(lines) == 1 + 256
        first = lines[1].split(",")
        assert first[:6] == [
            "0",
            "0",
            "9.80000e-22",
            "9.80000e-22",
            "3.80000e-23",
            "3.80000e-23",
        ]
        assert first[6] == "-1.000000000"
        assert lines[129].split(",")[:2] == ["1", "0"]

    def test_measurement_csv_bytes(self):
        layout = gen_wire(2)
        trace = simulate(layout, ClockConfig(), InputSchedule.exhaustive(["a"]))
        m = measure(trace, layout)
        follower = format_polarization(frozen.WIRE2_FOLLOWER_AT_GAMMA_LOW)
        assert measurement_csv(m) == (
            "output,vector,steady_P,max_abs_P\n"
            f"b,0,-{follower},{follower}\n"
            f"b,1,{follower},{follower}\n"
        )

    @given(st.data())
    @settings(max_examples=100)
    def test_writers_match_per_value_formatting(self, data):
        cell_ids = data.draw(st.lists(st.sampled_from(["c0", "n.1", "x_9"]), min_size=1, unique=True))
        indices = data.draw(st.lists(st.tuples(st.integers(0, 4095), st.integers(0, 127)), max_size=6))

        def values(n):
            return tuple(data.draw(st.lists(CSV_VALUES, min_size=n, max_size=n)))

        samples = [TraceSample(vi, si, values(4), values(len(cell_ids)), 1) for vi, si in indices]
        readings = [OutputReading(label, vi, *values(2)) for label, (vi, _) in zip(cell_ids, indices)]

        rows = [",".join(["vector", "sample", "gamma_z0", "gamma_z1", "gamma_z2", "gamma_z3", *cell_ids])]
        for s in samples:
            cols = [str(s.vector_index), str(s.sample_index)]
            cols.extend(format_energy(g) for g in s.gammas)
            cols.extend(format_polarization(p) for p in s.polarizations)
            rows.append(",".join(cols))
        trace = Trace(tuple(cell_ids), (), 128, tuple(samples))
        assert trace_csv(trace) == "\n".join(rows) + "\n"

        rows = ["output,vector,steady_P,max_abs_P"]
        for r in readings:
            steady, peak = format_polarization(r.steady), format_polarization(r.max_abs)
            rows.append(f"{r.output},{r.vector_index},{steady},{peak}")
        assert measurement_csv(Measurement((), tuple(readings))) == "\n".join(rows) + "\n"

        # and each formatter agrees with format() at the same precision
        for s in samples:
            assert [format_energy(g) for g in s.gammas] == [f"{g:.5e}" for g in s.gammas]
            assert [format_polarization(p) for p in s.polarizations] == [f"{p:.9f}" for p in s.polarizations]

    def test_formatters(self):
        assert format_energy(1.408885558268613e-20) == "1.40889e-20"
        assert format_energy(0.0) == "0.00000e+00"
        assert format_energy(-3.542753038720545e-21) == "-3.54275e-21"
        assert format_polarization(0.7800176483026604) == "0.780017648"
        assert format_polarization(-1.0) == "-1.000000000"
