"""Text format: parsing, canonical serialization, vectors, CSV exports."""

from __future__ import annotations

import io
import math
import random
from itertools import groupby

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
from qcasim.engine import MAX_GAMMA, Measurement, MirroredBlock, OutputReading, Trace, TraceSample
from qcasim import qcl
from qcasim.qcl import format_energy, format_polarization, trace_csv_writer

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


# Trace rows made of stretches: a value repeated, zeros of either sign mixed,
# NaN as one object repeated or as a new object per cell, or two values
# alternating (the shape of a wire's sample 11, whose runs outnumber its values).
STRETCH_VALUES = st.one_of(st.sampled_from([1.0, -1.0, math.inf, -math.inf, 0.5]), CSV_VALUES)


@st.composite
def stretched_row(draw, n: int, busy: bool = False) -> tuple:
    """A row of ``n`` P values; a busy row draws each value on its own."""
    if busy:
        return tuple(draw(st.lists(STRETCH_VALUES, min_size=n, max_size=n)))
    row: list = []
    while len(row) < n:
        length = draw(st.integers(1, n))
        kind = draw(st.sampled_from(["same", "zeros", "shared nan", "new nans", "alternating"]))
        if kind == "same":
            row += [draw(STRETCH_VALUES)] * length
        elif kind == "zeros":
            row += draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=length, max_size=length))
        elif kind == "shared nan":
            row += [math.nan] * length
        elif kind == "new nans":
            row += [float("nan") for _ in range(length)]
        else:
            pair = (draw(STRETCH_VALUES), draw(STRETCH_VALUES))
            row += [pair[k % 2] for k in range(length)]
    return tuple(row[:n])


def per_value_trace_csv(cell_ids, samples) -> str:
    """The trace CSV with every value formatted on its own: the reference."""
    rows = [",".join(["vector", "sample", "gamma_z0", "gamma_z1", "gamma_z2", "gamma_z3", *cell_ids])]
    for s in samples:
        cols = [str(s.vector_index), str(s.sample_index)]
        cols.extend(format_energy(g) for g in s.gammas)
        cols.extend(format_polarization(p) for p in s.polarizations)
        rows.append(",".join(cols))
    return "\n".join(rows) + "\n"


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
            # integers are [+-]?[0-9]+: int() would also read 1_28 as 128
            ("clock samples=1_28", "line 2: bad integer for 'samples': '1_28'"),
            ("cell id=c0 x=0 y=0 role=fixed p=0", "line 2: fixed role needs polarization -1 or +1"),
            ("cell id=c0 x=0 y=0 role=driver", "line 2: unknown role 'driver'"),
            ("cell id=c0 x=0 y=0 role=normal q=1", "line 2: unknown key 'q'"),
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

    def test_cells_of_one_role_text_share_one_role(self):
        # a Role is immutable, so the parser builds one per (role, label, p)
        # text: the 510 normal cells of wire:512 share one
        wire = gen_wire(512)
        layout, _ = parse_qcl(serialize_qcl(wire))
        roles = [cell.role for cell in layout.cells]
        assert roles == [cell.role for cell in wire.cells]
        assert len({id(role) for role in roles[1:-1]}) == 1 and roles[1] == Role.normal()
        assert len({id(role) for role in roles}) == 3

    @pytest.mark.parametrize(
        "p, message",
        [("2", "line 5: fixed role needs polarization -1 or +1"), ("x", "line 5: bad integer for 'p': 'x'")],
    )
    def test_a_bad_p_after_good_fixed_lines_fails_at_its_own_line(self, p, message):
        doc = "qcl 1\n" + "".join(f"cell id=f{k} x={20 * k} y=0 role=fixed p=+1\n" for k in range(3))
        doc += f"cell id=bad x=60 y=0 role=fixed p={p}\ncell id=f3 x=80 y=0 role=fixed p={p}\n"
        assert str(err(doc)) == message

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
        "text, line, reason",
        [
            # each id: the text, the line and a fragment of the reason
            pytest.param("a=1 c=1\n", 1, "unknown key 'c'", id="a=1 c=1\n-1-unknown key"),
            pytest.param("a=1 a=1\n", 1, "duplicate key 'a'", id="a=1 a=1\n-1-duplicate key"),
            pytest.param(
                "a=1 b=1\na=1\n", 2, "vector missing input label(s) ['b']", id="a=1 b=1\na=1\n-2-missing input label"
            ),
            pytest.param("a=2 b=1\n", 1, "value for 'a' must be -1 or +1", id="a=2 b=1\n-1-must be -1 or +1"),
            pytest.param("a=yes b=1\n", 1, "bad integer for 'a': 'yes'", id="a=yes b=1\n-1-bad integer"),
            # an Arabic-Indic one, which int() reads as 1
            pytest.param("a=\u0661 b=1\n", 1, "bad integer for 'a': '\u0661'", id="a=U+0661 b=1\n-1-bad integer"),
            pytest.param("a b=1\n", 1, "expected key=value, got 'a'", id="a b=1\n-1-expected key=value"),
            pytest.param("", 1, "vector file has no vectors", id="-1-no vectors"),
            pytest.param("# nothing\n", 1, "vector file has no vectors", id="# nothing\n-1-no vectors"),
        ],
    )
    def test_rejects_malformed(self, text, line, reason):
        with pytest.raises(ParseError) as exc:
            parse_vectors(text, ["a", "b"])
        assert exc.value.line == line
        assert exc.value.reason == reason

    def test_a_value_may_carry_its_sign(self):
        assert parse_vectors("a=+1 b=-1\n", ["a", "b"]) == [{"a": 1, "b": -1}]

    def test_token_errors_come_before_integer_errors(self):
        with pytest.raises(ParseError, match="^line 1: unknown key 'c'$"):
            parse_vectors("a=yes c=1\n", ["a", "b"])

    @pytest.mark.parametrize(
        "tokens, labels",
        [
            ("pitch", ["pitch"]),  # no '='
            ("samples=1 pitch=1", ["samples"]),  # a key the line does not take
            ("samples=1 samples=1", ["samples"]),
            ("samples=yes", ["samples"]),
        ],
        ids=["no-equals", "unknown", "duplicate", "bad-integer"],
    )
    def test_a_token_fails_as_on_a_qcl_line(self, tokens, labels):
        # a label named like a clock key: the vector line and the clock line
        # read the same token and give the same reason
        with pytest.raises(ParseError) as clock:
            parse_qcl(f"qcl 1\nclock {tokens}\n")
        with pytest.raises(ParseError) as vector:
            parse_vectors(tokens + "\n", labels)
        assert vector.value.reason == clock.value.reason

    @given(st.one_of(st.text("ab=+-01 \n#", max_size=60), st.text(max_size=60)))
    @settings(max_examples=300)
    def test_any_text_reads_as_vectors_or_raises_parse_error(self, text):
        try:
            rows = parse_vectors(text, ["a", "b"])
        except ParseError as e:
            assert e.line >= 1
        else:
            InputSchedule.explicit(["a", "b"], rows)

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

        trace = Trace(tuple(cell_ids), (), 128, tuple(samples))
        assert trace_csv(trace) == per_value_trace_csv(cell_ids, samples)

        rows = ["output,vector,steady_P,max_abs_P"]
        for r in readings:
            steady, peak = format_polarization(r.steady), format_polarization(r.max_abs)
            rows.append(f"{r.output},{r.vector_index},{steady},{peak}")
        assert measurement_csv(Measurement((), tuple(readings))) == "\n".join(rows) + "\n"

        # and each formatter agrees with format() at the same precision
        for s in samples:
            assert [format_energy(g) for g in s.gammas] == [f"{g:.5e}" for g in s.gammas]
            assert [format_polarization(p) for p in s.polarizations] == [f"{p:.9f}" for p in s.polarizations]

    # Rows of 16 values; the writer formats each run of a row with at most 4
    # runs once, and else each distinct P of a row with at most 4 once, or the
    # whole row if one of them is a zero; a row with more distinct P ends that
    # for the rest of its vector.
    REPEATING = (0.25,) * 14 + (0.0, -0.0)
    ALTERNATING = (0.25, 0.5) * 8
    GAMMAS = (9.8e-22, 3.8e-23, 3.8e-23, 9.8e-22)

    def _written(self, cell_ids, samples, one_per_call) -> str:
        out = io.StringIO()
        write = trace_csv_writer(out, cell_ids)
        if one_per_call:
            for s in samples:
                write([s])
        else:
            write(samples)
        return out.getvalue()

    def _check(self, cell_ids, samples):
        want = per_value_trace_csv(cell_ids, samples)
        assert self._written(cell_ids, samples, False) == want
        assert self._written(cell_ids, samples, True) == want

    def test_signed_zeros_within_and_across_rows(self):
        flipped = tuple(0.0 - v for v in self.REPEATING)  # -0.25 ..., -0.0, 0.0
        rows = [self.REPEATING, flipped, self.REPEATING, (-0.0,) * 15 + (0.0,), (0.0,) * 8 + (-0.0,) * 8]
        samples = [TraceSample(vi, si, self.GAMMAS, p, 1) for vi in (0, 1) for si, p in enumerate(rows)]
        self._check([f"c{k}" for k in range(16)], samples)

    def test_gammas_that_differ_only_in_a_zero_sign(self):
        gammas = [(0.0, 1e-22, 1e-22, 1e-22), (-0.0, 1e-22, 1e-22, 1e-22), (0.0, -0.0, 0.0, -0.0), (-0.0, 0.0, -0.0, 0.0)]
        samples = [TraceSample(0, si, g, self.REPEATING, 1) for si, g in enumerate(gammas * 2)]
        self._check([f"c{k}" for k in range(16)], samples)

    def test_rows_that_repeat_then_stop(self):
        rng = random.Random(18)
        distinct = [tuple(rng.uniform(-1, 1) for _ in range(16)) for _ in range(3)]
        special = (math.inf, -math.inf, math.nan) * 5 + (1.0,)
        vector = [self.REPEATING, special, self.REPEATING, *distinct, self.REPEATING]
        samples = [TraceSample(vi, si, self.GAMMAS, p, 1) for vi in (0, 0, 3) for si, p in enumerate(vector)]
        self._check([f"c{k}" for k in range(16)], samples)
        # a vector that starts distinct, and a layout without cells
        self._check([f"c{k}" for k in range(16)], [TraceSample(5, si, self.GAMMAS, p, 1) for si, p in enumerate([*distinct, self.REPEATING])])
        self._check([], [TraceSample(vi, 0, self.GAMMAS, (), 1) for vi in range(3)])

    @given(st.data())
    def test_runs_match_per_value_formatting(self, data):
        n = data.draw(st.integers(0, 40))
        blocks = []
        for vi in range(data.draw(st.integers(1, 3))):
            rows = [data.draw(stretched_row(n, busy=data.draw(st.booleans())))]
            for _ in range(data.draw(st.integers(0, 5))):
                again = data.draw(st.sampled_from(["new", "same tuple", "equal tuple"]))
                if again == "new":
                    rows.append(data.draw(stretched_row(n)))
                else:
                    rows.append(rows[-1] if again == "same tuple" else tuple(list(rows[-1])))
            blocks.append([TraceSample(vi, si, self.GAMMAS, p, 1) for si, p in enumerate(rows)])
        cell_ids = [f"c{k}" for k in range(n)]
        self._check(cell_ids, [s for block in blocks for s in block])
        # then mirrors, one block each: of the last block, whose kept runs give
        # the rows they can; of the first, from the negated P unless it is the
        # last; of the last again, after an older one
        last = len(blocks) - 1
        mirrors = [MirroredBlock(blocks[k], k, len(blocks) + m, {}) for m, k in enumerate((last, 0, last))]
        out = io.StringIO()
        write = trace_csv_writer(out, cell_ids)
        for block in (*blocks, *mirrors):
            write(block)
        assert out.getvalue() == per_value_trace_csv(cell_ids, [s for block in (*blocks, *mirrors) for s in block])

    def test_the_memo_stops_for_the_rest_of_a_vector(self, monkeypatch):
        # each row is tried as runs, then its distinct P are counted; a row with
        # too many leaves the rest of its vector to the %-format, a row that
        # fails only the runs does not
        grouped, counted = [], []

        def counted_groupby(p):
            grouped.append(p)
            return groupby(p)

        def counted_set(p):
            counted.append(p)
            return set(p)

        monkeypatch.setattr(qcl, "groupby", counted_groupby)
        monkeypatch.setattr(qcl, "set", counted_set, raising=False)
        distinct = tuple(k / 16 for k in range(1, 17))
        # vector 1's rows are equal but distinct tuples: the same tuple again would reuse its text
        again = [tuple(list(self.REPEATING)) for _ in range(2)]
        rows = [
            (0, self.REPEATING), (0, distinct), (0, self.REPEATING),
            (1, again[0]), (1, self.ALTERNATING), (1, again[1]),
        ]
        samples = [TraceSample(vi, si, self.GAMMAS, p, 1) for si, (vi, p) in enumerate(rows)]
        cell_ids = [f"c{k}" for k in range(16)]
        for one_per_call in (False, True):
            grouped.clear()
            counted.clear()
            assert self._written(cell_ids, samples, one_per_call) == per_value_trace_csv(cell_ids, samples)
            # not vector 0's third row
            assert [id(p) for p in grouped] == [id(p) for p in (self.REPEATING, distinct, again[0], self.ALTERNATING, again[1])]
            assert [id(p) for p in counted] == [id(distinct), id(self.ALTERNATING)]

    def test_a_repeated_tuple_is_formatted_once(self):
        # the same P tuple object again, within a vector or across one, reuses
        # the last row's text; an equal but distinct tuple is formatted again
        iterated = []

        class Seen(tuple):
            def __iter__(self):  # the writer iterates a P only to format it
                iterated.append(id(self))
                return super().__iter__()

        cell_ids = [f"c{k}" for k in range(16)]
        distinct = tuple(k / 16 for k in range(1, 17))
        # REPEATING is formatted by runs; distinct fails the runs, is counted
        # (16 distinct P), then is %-formatted
        for p, formats in ((self.REPEATING, 1), (distinct, 3)):
            one = Seen(p)
            for rows in ([one] * 4, [Seen(p) for _ in range(4)]):
                samples = [TraceSample(si // 2, si, self.GAMMAS, q, 1) for si, q in enumerate(rows)]
                want = per_value_trace_csv(cell_ids, [s._replace(polarizations=p) for s in samples])
                for one_per_call in (False, True):
                    iterated.clear()
                    assert self._written(cell_ids, samples, one_per_call) == want
                    if rows[0] is rows[1]:
                        assert iterated == [id(one)] * formats
                    else:
                        assert set(iterated) == {id(q) for q in rows}

    def test_formatters(self):
        assert format_energy(1.408885558268613e-20) == "1.40889e-20"
        assert format_energy(0.0) == "0.00000e+00"
        assert format_energy(-3.542753038720545e-21) == "-3.54275e-21"
        assert format_polarization(0.7800176483026604) == "0.780017648"
        assert format_polarization(-1.0) == "-1.000000000"
