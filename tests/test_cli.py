"""Command line behavior, driven in-process through main(argv)."""

from __future__ import annotations

import errno
import io
import math
import os
import random
import stat
import subprocess
import threading
import time
from pathlib import Path

import pytest

from helpers import anti_ordered_chain, exhaustive, fabric_layout, independent_wires, run_python, traced_peak
import qcasim
from qcasim import (
    Cell,
    ChargeModel,
    ClockConfig,
    GeometryParams,
    Layout,
    Role,
    circuit_kink_energy,
    gen_majority,
    gen_minimal_inverter,
    gen_wire,
    kink_report_csv,
    measure,
    measurement_csv,
    serialize_qcl,
    simulate,
    trace_csv,
)
from qcasim import cli, engine
from qcasim.cli import format_trend_comparison, main, run_sweep, sweep_csv
from qcasim.electrostatics import kink_pairs
from qcasim.engine import MAX_SAMPLES_PER_CYCLE
from qcasim.qcl import GEOMETRY_FIELDS, ParseError, parse_qcl, write_kink_csv


@pytest.fixture
def wire3(tmp_path):
    path = tmp_path / "wire3.qcl"
    path.write_text(serialize_qcl(gen_wire(3)))
    return str(path)


@pytest.fixture
def majority(tmp_path):
    path = tmp_path / "maj.qcl"
    path.write_text(serialize_qcl(gen_majority()))
    return str(path)


class TestGen:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "wire.qcl"
        assert main(["gen", "wire:5", "--out", str(out)]) == 0
        assert out.read_bytes() == serialize_qcl(gen_wire(5)).encode()
        assert capsys.readouterr().out == f"5 cells -> {out}\n"

    def test_stdout_mode_keeps_document_clean(self, capsys):
        assert main(["gen", "majority"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serialize_qcl(gen_majority())
        assert captured.err == "5 cells\n"

    @pytest.mark.parametrize(
        "kind, builder",
        [
            ("inverter:conventional", lambda: None),
            ("inverter:2", lambda: gen_minimal_inverter(-1)),
            ("inverter:6", lambda: gen_minimal_inverter(3)),
            ("inverter:+6", lambda: gen_minimal_inverter(3)),  # a size may carry its sign
        ],
    )
    def test_inverter_kinds(self, capsys, kind, builder):
        assert main(["gen", kind]) == 0
        doc = capsys.readouterr().out
        if kind == "inverter:conventional":
            assert doc.count("\ncell ") == 11
        else:
            assert doc == serialize_qcl(builder())

    @pytest.mark.parametrize(
        "kind",
        ["inverter:7", "inverter:1", "inverter:x", "wire:1", "wire:abc", "blob", "majority:5"],
    )
    def test_rejects_bad_kinds(self, capsys, kind):
        assert main(["gen", kind]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("wire", "bad wire length in 'wire'"),
            ("wire:x", "bad wire length in 'wire:x'"),
            ("wire:1_0", "bad wire length in 'wire:1_0'"),  # int() reads 10
            ("wire:1", "a wire needs at least 2 cells"),
            ("inverter:", "bad inverter size in 'inverter:'"),
            ("inverter:x", "bad inverter size in 'inverter:x'"),
            ("inverter:1", "minimal inverter supports 2..6 cells"),
            ("inverter:7", "minimal inverter supports 2..6 cells"),
            ("majority:1", "unknown circuit kind 'majority:1'"),
            ("foo:2", "unknown circuit kind 'foo:2'"),
        ],
    )
    def test_a_bad_kind_names_its_fault(self, capsys, kind, message):
        assert main(["gen", kind]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_geometry_flags_flow_into_the_document(self, capsys):
        argv = [
            "gen", "wire:2",
            "--cell-size", "10",
            "--dot-diameter", "2",
            "--pitch", "40",
            "--epsilon-r", "12.9",
            "--charge-model", "bare",
            "--radius", "130",
        ]
        assert main(argv) == 0
        doc = capsys.readouterr().out
        wanted = GeometryParams(
            cell_size=10.0,
            dot_diameter=2.0,
            pitch=40.0,
            relative_permittivity=12.9,
            charge_model=ChargeModel.BARE,
            radius_of_effect=130.0,
        )
        assert doc == serialize_qcl(gen_wire(2, wanted))

    def test_rejects_inconsistent_geometry(self, capsys):
        assert main(["gen", "wire:2", "--pitch", "10"]) == 2
        assert "bad geometry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, text",
        [(key, text) for key in GEOMETRY_FIELDS for text in ("x", "nan", "1e400")]
        + [("charge_model", "foo"), ("pitch", "10")],
    )
    def test_a_flag_fails_as_its_geometry_line_does(self, capsys, key, text):
        with pytest.raises(ParseError) as line:
            parse_qcl(f"qcl 1\ngeometry {key}={text}\n")
        flag = "--" + key.replace("_", "-")
        assert main(["gen", "wire:2", f"{flag}={text}"]) == 2
        assert capsys.readouterr() == ("", f"error: bad geometry: {line.value.reason}\n")

    def test_help_names_every_geometry_flag(self, capsys):
        # each flag with its default as a geometry line writes it, and the charge models
        assert main(["gen", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        defaults = GeometryParams()
        for key, (name, _, fmt) in GEOMETRY_FIELDS.items():
            flag = f"--{key.replace('_', '-')} {key.upper()}"
            assert f"{flag} default {fmt(getattr(defaults, name))} " in out, key
        assert out.endswith("geometry flag values: see docs/qcl-format.md; charge models: bare | neutralized")

    def test_a_grid_at_pitch_equal_to_cell_size_simulates(self, tmp_path, capsys):
        # 4 * 18.3 - 3 * 18.3 is 18.299999999999997: grid rounding puts
        # neighbours a few ulps closer than cell_size, which validate allows
        path = tmp_path / "w.qcl"
        assert main(["gen", "wire:8", "--cell-size", "18.3", "--pitch", "18.3", "--out", str(path)]) == 0
        assert main(["sim", str(path)]) == 0
        assert main(["truth", str(path), "--expect", "id"]) == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the geometry is valid, but the third cell's centre overflows
            (["wire:3", "--pitch", "1e308", "--radius", "1e308"], "cell c2: position must be finite"),
            (["inverter:6", "--pitch", "1e308", "--radius", "1e308"], "cell c2: position must be finite"),
            (["inverter:conventional", "--pitch", "1e308", "--radius", "1e308"], "cell c2: position must be finite"),
            (["wire:1"], "a wire needs at least 2 cells"),
        ],
        ids=["wire-overflow", "inverter6-overflow", "conventional-overflow", "wire-1"],
    )
    def test_a_circuit_the_generator_rejects_exits_2(self, capsys, argv, message):
        assert main(["gen", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSim:
    def test_summary_lines(self, wire3, capsys):
        assert main(["sim", wire3]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("vector 0: a=-1 -> b=-0.99")
        assert out[1].startswith("vector 1: a=+1 -> b=0.99")

    def test_out_and_measure_files(self, wire3, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        m_path = tmp_path / "m.csv"
        assert main(["sim", wire3, "--out", str(trace_path), "--measure", str(m_path)]) == 0
        layout = gen_wire(3)
        trace = simulate(*exhaustive(layout))
        assert trace_path.read_text() == trace_csv(trace)
        assert m_path.read_text() == measurement_csv(measure(trace, layout))

    def test_vector_file(self, wire3, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_text("a=1\n")
        assert main(["sim", wire3, "--vectors", str(vectors)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("vector 0: a=+1")

    def test_vector_file_must_cover_labels(self, majority, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_text("a=1 b=1\n")
        assert main(["sim", majority, "--vectors", str(vectors)]) == 2
        assert "missing input label" in capsys.readouterr().err

    def test_missing_layout_file(self, tmp_path, capsys):
        assert main(["sim", str(tmp_path / "nope.qcl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_read_errors_name_the_path_as_given(self, wire3, tmp_path, capsys):
        # the path reaches open() unchanged: no '//' folded, no trailing '/' dropped
        for path, reason in ((f"{tmp_path}//nope.qcl", "No such file or directory"), (f"{wire3}/", "Not a directory")):
            assert main(["sim", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {path}: [Errno ") and err.endswith(f"{reason}: {path!r}\n")
        assert main(["sim", ""]) == 2
        assert capsys.readouterr().err == "error: cannot read : [Errno 2] No such file or directory: ''\n"

    def test_layout_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.qcl"
        path.write_bytes(b"qcl 1\n\xff\xfe\n")
        assert main(["sim", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec")

    def test_vector_file_that_is_not_utf8(self, wire3, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_bytes(b"a=1\n\xff\n")
        assert main(["sim", wire3, "--vectors", str(vectors)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {vectors}: 'utf-8' codec")

    def test_layout_file_with_a_byte_order_mark(self, wire3, tmp_path, capsys):
        path = tmp_path / "bom.qcl"
        path.write_bytes(b"\xef\xbb\xbf" + Path(wire3).read_bytes())
        assert main(["sim", wire3]) == 0
        plain = capsys.readouterr()
        assert main(["sim", str(path)]) == 0
        assert capsys.readouterr() == plain

    def test_vector_file_with_a_byte_order_mark(self, wire3, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_bytes(b"\xef\xbb\xbfa=1\n")
        assert main(["sim", wire3, "--vectors", str(vectors)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("vector 0: a=+1 -> b=0.99")

    def test_invalid_layout(self, tmp_path, capsys):
        path = tmp_path / "bad.qcl"
        path.write_text(
            "qcl 1\n"
            "cell id=c0 x=0 y=0 role=input label=a\n"
            "cell id=c1 x=5 y=0 role=output label=b\n"
        )
        assert main(["sim", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid layout" in err and "overlap" in err

    def test_unparsable_layout(self, tmp_path, capsys):
        path = tmp_path / "bad.qcl"
        path.write_text("qcl 1\ncell id=c0\n")
        assert main(["sim", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_cell_line_error_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "nolabel.qcl"
        path.write_text("qcl 1\ncell id=c0 x=0 y=0 role=input\n")
        assert main(["sim", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 2: input role needs a token label\n"

    def test_layout_without_outputs(self, tmp_path, capsys):
        path = tmp_path / "noout.qcl"
        path.write_text(
            "qcl 1\n"
            "cell id=c0 x=0 y=0 role=input label=a\n"
            "cell id=c1 x=20 y=0 role=normal\n"
        )
        assert main(["sim", str(path)]) == 2
        assert "no output cells" in capsys.readouterr().err

    def test_layout_without_inputs(self, tmp_path, capsys):
        path = tmp_path / "noin.qcl"
        path.write_text(
            "qcl 1\n"
            "cell id=c0 x=0 y=0 role=fixed p=+1\n"
            "cell id=c1 x=20 y=0 role=output label=b\n"
        )
        # a fixed driver alone is a valid layout: one empty vector
        assert main(["sim", str(path)]) == 0
        assert capsys.readouterr().out == "vector 0:  -> b=0.999985451\n"

    def test_too_many_inputs_for_an_exhaustive_schedule(self, tmp_path, capsys):
        # 13 inputs 100 nm apart, beyond each other's radius, and one output
        cells = [Cell(f"c{k}", 100.0 * k, 0.0, Role.input(f"i{k:02d}")) for k in range(13)]
        cells.append(Cell("out", 1300.0, 0.0, Role.output("z")))
        path = tmp_path / "wide.qcl"
        path.write_text(serialize_qcl(Layout(GeometryParams(), cells)))
        assert main(["sim", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 13 inputs exceed the exhaustive limit of 12;"
            " name the vectors with --vectors FILE\n"
        )
        vectors = tmp_path / "v.txt"
        vectors.write_text(" ".join(f"i{k:02d}=1" for k in range(13)) + "\n")
        assert main(["sim", str(path), "--vectors", str(vectors)]) == 0
        assert capsys.readouterr().out.startswith("vector 0: i00=+1")

    def test_clock_above_the_ceiling_exits_2(self, wire3, tmp_path, capsys):
        path = tmp_path / "hot.qcl"
        text = Path(wire3).read_text()
        path.write_text(text.replace("\ncell", "\nclock high=2e-18 low=1e-20\ncell", 1))
        assert main(["sim", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gamma_high <= 1e-18 J" in captured.err

    def test_tiny_geometry_saturates_to_one(self, tmp_path, capsys):
        # kink energies near 1e281 J make x * x overflow: the output reads +-1
        path = tmp_path / "tiny.qcl"
        path.write_text(
            "qcl 1\n"
            "geometry cell_size=1e-300 dot_diameter=1e-301 pitch=1e-300 radius=1e-299\n"
            "cell id=a x=0 y=0 role=input label=a\n"
            "cell id=m x=1e-300 y=0 role=normal\n"
            "cell id=b x=2e-300 y=0 role=output label=b\n"
        )
        assert main(["sim", str(path)]) == 0
        assert capsys.readouterr().out == (
            "vector 0: a=-1 -> b=-1.000000000\nvector 1: a=+1 -> b=1.000000000\n"
        )


def _exits_0(argv: list[str]) -> None:
    assert main(argv) == 0


def record_opens(monkeypatch) -> list[tuple[str, dict]]:
    """Log (file name, keyword arguments) of every file cli opens."""
    opened: list[tuple[str, dict]] = []

    def spy(file, *args, **kwargs):
        opened.append((os.path.basename(file), kwargs))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    return opened


class TestStreamedSim:
    """sim streams: readings only without --out, rows written as they come
    with it, and the --out file appears only when the whole run succeeds."""

    def test_failed_run_creates_no_file_and_keeps_the_old_one(self, tmp_path, capsys):
        stuck = tmp_path / "stuck.qcl"
        stuck.write_text(serialize_qcl(anti_ordered_chain(1101)))
        noout = tmp_path / "noout.qcl"
        noout.write_text("qcl 1\ncell id=c0 x=0 y=0 role=input label=a\ncell id=c1 x=20 y=0 role=normal\n")
        old = tmp_path / "old.csv"
        old.write_bytes(b"old bytes\r\n")
        for layout, code in ((stuck, 3), (noout, 2)):
            before = sorted(tmp_path.iterdir())
            assert main(["sim", str(layout), "--out", str(tmp_path / "new.csv")]) == code
            assert main(["sim", str(layout), "--out", str(old), "--measure", str(tmp_path / "m.csv")]) == code
            assert sorted(tmp_path.iterdir()) == before
            assert old.read_bytes() == b"old bytes\r\n"
        assert capsys.readouterr().out == ""

    def test_non_converging_layout_without_outputs_exits_3(self, tmp_path, capsys):
        # the stuck chain has no output cell: the run fails before the
        # missing outputs are reported, with --out as without
        path = tmp_path / "stuck.qcl"
        path.write_text(serialize_qcl(anti_ordered_chain(1101)))
        for extra in ([], ["--out", str(tmp_path / "t.csv")]):
            assert main(["sim", str(path), *extra]) == 3
            err = capsys.readouterr().err
            assert "residual" in err and "vector 0, sample 0" in err and "no output" not in err

    def test_unwritable_out_exits_2_naming_the_path(self, wire3, tmp_path, capsys):
        missing = tmp_path / "no such dir" / "t.csv"
        assert main(["sim", wire3, "--out", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        folder = tmp_path / "a dir"
        folder.mkdir()
        assert main(["sim", wire3, "--out", str(folder)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f": {str(folder)!r}\n")
        inside_a_file = tmp_path / "a file" / "t.csv"
        inside_a_file.parent.write_text("")
        assert main(["sim", wire3, "--out", str(inside_a_file)]) == 2
        assert capsys.readouterr().err == f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {str(inside_a_file)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a dir", "a file", "wire3.qcl"]

    def test_unwritable_measure_leaves_no_trace(self, wire3, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        measure_path = tmp_path / "no such dir" / "m.csv"
        assert main(["sim", wire3, "--out", str(trace), "--measure", str(measure_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(measure_path)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wire3.qcl"]

    def test_measure_lands_after_the_trace(self, wire3, tmp_path, capsys):
        # one path for both files ends as the measurement CSV, written last
        path = tmp_path / "both.csv"
        assert main(["sim", wire3, "--out", str(path), "--measure", str(path)]) == 0
        layout = gen_wire(3)
        trace = simulate(*exhaustive(layout))
        assert path.read_bytes() == measurement_csv(measure(trace, layout)).encode()

    def test_out_replaces_an_existing_file(self, wire3, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("old\n" * 10_000)
        assert main(["sim", wire3, "--out", str(path)]) == 0
        trace = simulate(*exhaustive(gen_wire(3)))
        assert path.read_bytes() == trace_csv(trace).encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "wire3.qcl"]

    def test_out_to_a_device_is_written_in_place(self, wire3, capsys):
        # a device is opened as it is: no temporary file beside it, and the
        # device itself stays a device
        assert main(["sim", wire3, "--out", os.devnull, "--measure", os.devnull]) == 0
        assert main(["gen", "wire:3", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_a_trace_past_the_write_buffer_keeps_its_bytes(self, tmp_path, monkeypatch, capsys):
        # wire:64's trace fills the temporary file's 64 KiB buffer three times
        # over; the file holds the trace API's bytes, and only the temporary
        # file opens with that buffer
        layout = gen_wire(64)
        path, out = tmp_path / "wire64.qcl", tmp_path / "t.csv"
        path.write_text(serialize_qcl(layout))
        opened = record_opens(monkeypatch)
        assert main(["sim", str(path), "--out", str(out)]) == 0
        expected = trace_csv(simulate(*exhaustive(layout))).encode()
        assert len(expected) > 3 * cli._PART_BUFFER == 3 * 65536 and out.read_bytes() == expected
        assert [(name.endswith(".part"), kwargs.get("buffering")) for name, kwargs in opened] == [
            (False, None), (True, cli._PART_BUFFER)
        ]

    def test_a_run_failing_past_a_written_block_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        # the run fails at vector 1, once vector 0's rows (about 109 kB) have
        # sent a block of up to 64 KiB to the temporary file: the old file
        # keeps its bytes, and the temporary file is gone
        path, out = tmp_path / "wire64.qcl", tmp_path / "t.csv"
        path.write_text(serialize_qcl(gen_wire(64)))
        out.write_bytes(b"old bytes\r\n")
        writer, part_sizes = cli.trace_csv_writer, []

        def fails_at_vector_1(file, cell_ids):
            write = writer(file, cell_ids)

            def write_or_fail(block):
                if isinstance(block, engine.MirroredBlock):  # vector 1, vector 0's mirror
                    part_sizes.extend(p.stat().st_size for p in tmp_path.iterdir() if p.name.endswith(".part"))
                    raise engine.ConvergenceFailure(1.0, 1, 0)
                write(block)

            return write_or_fail

        monkeypatch.setattr(cli, "trace_csv_writer", fails_at_vector_1)
        assert main(["sim", str(path), "--out", str(out)]) == 3
        assert "vector 1, sample 0" in capsys.readouterr().err
        assert len(part_sizes) == 1 and part_sizes[0] > 0
        assert out.read_bytes() == b"old bytes\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "wire64.qcl"]

    def test_a_file_written_in_place_keeps_the_default_buffering(self, wire3, tmp_path, monkeypatch, capsys):
        # a device, and a read-only file: opened as a plain text file, so a
        # terminal stays line-buffered
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: os.fspath(p) != str(path) and access(p, mode))
        opened = record_opens(monkeypatch)
        assert main(["sim", wire3, "--out", os.devnull, "--measure", str(path)]) == 0
        plain = {"encoding": "utf-8", "newline": ""}
        assert opened[1:] == [(os.path.basename(os.devnull), plain), ("t.csv", plain)]

    def test_out_to_a_pipe_streams_into_it(self, wire3, tmp_path, capsys):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        # a daemon: if sim never opened the pipe, the reader must not hang the run
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        assert main(["sim", wire3, "--out", str(pipe)]) == 0
        reader.join(timeout=60)
        trace = simulate(*exhaustive(gen_wire(3)))
        assert received == [trace_csv(trace).encode()]
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "wire3.qcl"]

    def test_out_through_a_symlink_replaces_its_target(self, wire3, tmp_path, capsys):
        target = tmp_path / "real" / "t.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["sim", wire3, "--out", str(link)]) == 0
        assert main(["gen", "wire:4", "--out", str(tmp_path / "real")]) == 2  # a folder, as before
        trace = simulate(*exhaustive(gen_wire(3)))
        assert link.is_symlink() and target.read_bytes() == trace_csv(trace).encode()
        assert sorted(p.name for p in target.parent.iterdir()) == ["t.csv"]

    def test_a_symlink_loop_exits_2_and_stays_a_link(self, wire3, tmp_path, capsys):
        # a link to itself, and two links to each other: neither is read as
        # "no old file" and replaced by a regular file
        (tmp_path / "loop").symlink_to("loop")
        (tmp_path / "a").symlink_to("b")
        (tmp_path / "b").symlink_to("a")
        for name, argv in (("loop", ["gen", "wire:3"]), ("a", ["sim", wire3])):
            path = tmp_path / name
            assert main([*argv, "--out", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: {str(path)!r}\n"
        assert {p.name: os.readlink(p) for p in tmp_path.iterdir() if p.is_symlink()} == {"loop": "loop", "a": "b", "b": "a"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "loop", "wire3.qcl"]

    def test_a_failed_replace_names_the_users_file(self, tmp_path, monkeypatch, capsys):
        # the rename of the finished .part file fails (as across devices):
        # the error names the user's path, and both files are as they were
        path = tmp_path / "w.qcl"
        path.write_bytes(b"old bytes\n")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

        monkeypatch.setattr(os, "replace", cross_device)
        assert main(["gen", "wire:3", "--out", str(path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}: {str(path)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.qcl"]
        assert path.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("command", ["sim", "sweep"])
    def test_a_failed_close_replaces_neither_file(self, wire3, tmp_path, monkeypatch, capsys, command):
        # the disk fills as the second file is flushed on close: the first,
        # already written, must not have replaced the user's file either
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_bytes(b"old bytes\r\n")

        def full_disk_on_close(file, *args, **kwargs):
            out = open(file, *args, **kwargs)
            if os.path.basename(file).startswith(".second.csv."):
                close = out.close

                def fail():  # like a failed flush: the file ends closed, and closing again is a no-op
                    if not out.closed:
                        close()
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), file)

                out.close = fail
            return out

        monkeypatch.setattr(cli, "open", full_disk_on_close, raising=False)
        if command == "sim":
            argv = ["sim", wire3, "--out", str(first), "--measure", str(second)]
        else:
            argv = ["sweep", "--extra", "0..0", "--out", str(first), "--compare", str(second)]
        assert main(argv) == 2
        message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {str(second)!r}"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert first.read_bytes() == b"old bytes\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first.csv", "wire3.qcl"]

    def test_a_replaced_file_keeps_its_mode(self, wire3, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        path.chmod(0o600)
        assert main(["sim", wire3, "--out", str(path)]) == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o600 and path.read_text() != "old\n"

    @pytest.mark.parametrize("closed", ["file", "folder"])
    def test_a_file_that_cannot_be_replaced_is_written_in_place(self, wire3, tmp_path, monkeypatch, capsys, closed):
        # a read-only file, or one in a folder that takes no new file, is
        # opened in place, as it always was: same inode, and the open
        # itself reports a file the process may not write
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        inode = path.stat().st_ino
        closed_path = str(path if closed == "file" else tmp_path)
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: os.fspath(p) != closed_path and access(p, mode))
        assert main(["sim", wire3, "--out", str(path)]) == 0
        trace = simulate(*exhaustive(gen_wire(3)))
        assert path.stat().st_ino == inode and path.read_bytes() == trace_csv(trace).encode()

    def test_an_output_file_gone_since_a_probe_is_a_new_file(self, wire3, tmp_path, monkeypatch, capsys):
        # a probe still reports the old file, which another process has
        # removed since: the output is written as a new file, with no error
        path = tmp_path / "t.csv"
        exists = os.path.exists
        monkeypatch.setattr(os.path, "exists", lambda p: os.path.basename(p) == path.name or exists(p))
        assert main(["sim", wire3, "--out", str(path)]) == 0
        monkeypatch.undo()
        trace = simulate(*exhaustive(gen_wire(3)))
        assert path.read_bytes() == trace_csv(trace).encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "wire3.qcl"]

    def test_a_part_removed_by_someone_else_hides_no_error(self, tmp_path, monkeypatch, capsys):
        # the temporary file is gone when the rename fails: the error still
        # names the user's file, not a failed clean-up of the temporary one
        path = tmp_path / "w.qcl"

        def removed_then_failed(src, dst):
            os.remove(src)
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

        monkeypatch.setattr(os, "replace", removed_then_failed)
        assert main(["gen", "wire:3", "--out", str(path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}: {str(path)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_import_loads_no_new_standard_module(self):
        # the modules qcasim names at its top level, imported first, in a
        # child without site: importing qcasim.cli then adds only qcasim's own
        stdlib = (
            "__future__ argparse bisect contextlib enum functools io"
            " itertools math operator os re stat sys typing"
        )
        code = (
            f"import sys, {', '.join(stdlib.split())}\n"
            "before = set(sys.modules)\n"
            "import qcasim.cli\n"
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'qcasim'))\n"
        )
        result = run_python("-S", "-c", code, capture_output=True, check=True)
        assert result.stdout == "[]\n"

    def test_readings_only_memory_stays_flat_in_the_vectors(self, tmp_path, monkeypatch, capsys):
        # 8 inputs: 256 vectors x 128 samples x 24 cells; the whole trace
        # took 24 MB, the readings take under 1 MB.  Under tracemalloc the
        # generated sweep runs about 4x slower than the interpreted loop, so
        # the run stays interpreted; the tier does not change what it holds.
        monkeypatch.setattr(engine, "_COMPILE_FIXED", math.inf)
        path = tmp_path / "wires8.qcl"
        path.write_text(serialize_qcl(independent_wires(8)))
        assert traced_peak(_exits_0, ["sim", str(path)]) / 1e6 < 5.0

    def test_streamed_trace_memory_holds_one_block(self, tmp_path, capsys):
        # wire:512 relaxes vector 0 and mirrors it: the trace CSV is 1.65 MB,
        # but only vector 0's block is held, about 2 MB with its floats
        path = tmp_path / "wire512.qcl"
        path.write_text(serialize_qcl(gen_wire(512)))
        argv = ["sim", str(path), "--out", str(tmp_path / "t.csv"), "--measure", str(tmp_path / "m.csv")]
        assert traced_peak(_exits_0, argv) / 1e6 < 5.0


def _jittered_block(side: int, seed: int, geometry: GeometryParams) -> Layout:
    """``side`` x ``side`` cells on the 20 nm grid, row by row, each moved by up
    to 0.9 nm per axis by ``random.Random(seed)``; input a is the first cell
    and output b the last."""
    rng = random.Random(seed)
    roles = {0: Role.input("a"), side * side - 1: Role.output("b")}
    cells = [
        Cell(f"c{k}", 20.0 * (k % side) + rng.uniform(-0.9, 0.9), 20.0 * (k // side) + rng.uniform(-0.9, 0.9), roles.get(k, Role.normal()))
        for k in range(side * side)
    ]
    return Layout(geometry, cells)


# the writer keeps no rows of its own; wire:512's 1,530 rows (56 kB) pass an
# in-place file's 8 kB write buffer many times, and fabric 0's rows (714 kB)
# the 64 KiB buffer of a file that replaces the old one
KINK_LAYOUTS = {
    "empty": lambda: Layout(GeometryParams(), []),
    "wire2": lambda: gen_wire(2),
    "wire3": lambda: gen_wire(3),
    "wire512": lambda: gen_wire(512),
    "fabric0-neutralized": lambda: fabric_layout(0),
    "fabric0-bare": lambda: fabric_layout(0, charge_model=ChargeModel.BARE),
    "off-grid-gaas": lambda: _jittered_block(6, 129, GeometryParams(relative_permittivity=12.9)),
}


# python -m qcasim, which prints its own VmHWM (kB) to stderr at exit.  The
# child reads its own peak: Linux keeps ru_maxrss across execve, so a
# RUSAGE_CHILDREN figure would start at this process's peak.
_OWN_PEAK = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')).split()[1], file=sys.stderr))\n"
    "runpy.run_module('qcasim', run_name='__main__', alter_sys=True)\n"
)

# name: (layout text, command and its arguments after the layout, bound in MB)
RESIDENT_PEAKS = {
    # readings, not samples: 4,096 exhaustive vectors of 128 samples
    "sim-12-inputs": (lambda: serialize_qcl(independent_wires(12)), ["sim"], 100),
    # kink streams its rows: memory follows the 16,384 cells, not the
    # 288,069 pairs in range
    "kink-128x128": (
        lambda: serialize_qcl(_jittered_block(128, 128, GeometryParams())), ["kink", "--out", "pairs.csv"], 64
    ),
    # the longest clock cycle: its table of 65,536 samples is about 6 MB
    "truth-longest-cycle": (
        lambda: serialize_qcl(gen_wire(2), ClockConfig(samples_per_cycle=MAX_SAMPLES_PER_CYCLE)),
        ["truth", "--expect", "id"],
        40,
    ),
}


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize("name", sorted(RESIDENT_PEAKS))
def test_resident_peak_of_a_fresh_child(name, tmp_path):
    document, (command, *extra), bound_mb = RESIDENT_PEAKS[name]
    (tmp_path / "layout.qcl").write_text(document())
    start = time.perf_counter()
    result = run_python(
        "-c", _OWN_PEAK, command, "layout.qcl", *extra, cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    wall_s = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    peak_mb = int(result.stderr.split()[-1]) / 1024
    assert peak_mb < bound_mb, f"{name}: VmHWM {peak_mb:.1f} MB (bound {bound_mb} MB) in {wall_s:.2f} s"


class TestKink:
    @pytest.mark.parametrize("name", sorted(KINK_LAYOUTS))
    def test_streamed_rows_are_the_report_bytes(self, name, tmp_path, monkeypatch, capsys):
        layout = KINK_LAYOUTS[name]()
        report = circuit_kink_energy(layout)
        want = kink_report_csv(report).encode()
        totals = f"total_kink_bare_J={report.total_bare:.5e}\ntotal_kink_neutralized_J={report.total_neutralized:.5e}\n"
        text = io.StringIO()
        assert write_kink_csv(text, kink_pairs(layout)) == (report.total_bare, report.total_neutralized)
        assert text.getvalue().encode() == want
        path, csv = tmp_path / "layout.qcl", tmp_path / "pairs.csv"
        path.write_text(serialize_qcl(layout))
        assert main(["kink", str(path), "--out", str(csv)]) == 0
        assert capsys.readouterr().out == totals and csv.read_bytes() == want
        # a folder that takes no new file: the old file is written in place
        csv.write_text("old\n")
        inode = csv.stat().st_ino
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: os.fspath(p) != str(tmp_path) and access(p, mode))
        assert main(["kink", str(path), "--out", str(csv)]) == 0
        assert capsys.readouterr().out == totals
        assert csv.stat().st_ino == inode and csv.read_bytes() == want
        # without --out the pairs are only summed
        assert main(["kink", str(path)]) == 0
        assert capsys.readouterr().out == totals

    def test_streamed_memory_holds_one_pair(self, tmp_path, capsys):
        # 16,784 pairs in range at radius 65 and 57,874 at 130: the whole report
        # peaked at about 6 and 19 MB; the stream holds the layout and one pair,
        # so the peak no longer follows the pair count
        peaks = []
        for radius in (65.0, 130.0):
            path = tmp_path / f"fabric{radius:g}.qcl"
            path.write_text(serialize_qcl(fabric_layout(0, radius_of_effect=radius)))
            argv = ["kink", str(path), "--out", str(tmp_path / "pairs.csv")]
            if not peaks:
                assert main(argv) == 0  # builds the parser outside the measurement
            peaks.append(traced_peak(_exits_0, argv) / 1e6)
        assert max(peaks) <= 2.0 and abs(peaks[0] - peaks[1]) <= 0.25, peaks

    def test_model_selects_lines(self, wire3, capsys):
        assert main(["kink", wire3, "--model", "bare"]) == 0
        out = capsys.readouterr().out
        assert "bare" in out and "neutralized" not in out
        assert main(["kink", wire3, "--model", "neutralized"]) == 0
        assert capsys.readouterr().out.startswith("total_kink_neutralized_J=")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["kink", str(tmp_path / "gone.qcl")]) == 2

    def test_coincident_dots_exit_2(self, tmp_path, capsys):
        # b's bottom-left dot sits on a's top-right dot, with the centres
        # farther apart than cell_size: validate names both cells, although
        # the dot is empty at P = -1 and carries no bare charge
        cells = [Cell("a", 0.0, 0.0, Role.input("a")), Cell("b", 13.0, 13.0, Role.output("b"))]
        for model in ChargeModel:
            path = tmp_path / f"{model.value}.qcl"
            path.write_text(serialize_qcl(Layout(GeometryParams(charge_model=model), cells)))
            invalid = f"error: {path}: invalid layout\n  dot-overlap: dots of cells a and b are closer than dot_diameter / 2\n"
            for command in ("kink", "sim"):
                assert main([command, str(path)]) == 2
                assert capsys.readouterr() == ("", invalid)
            # the failure keeps --out's old bytes and leaves no temporary file
            old = tmp_path / "pairs.csv"
            old.write_bytes(b"old\n")
            assert main(["kink", str(path), "--out", str(old)]) == 2
            assert capsys.readouterr() == ("", invalid)
            assert old.read_bytes() == b"old\n"
            assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".part")]

    def test_occupied_coincident_dots_exit_2(self, tmp_path, capsys):
        # c's bottom-right dot sits on a's top-left dot, occupied at P = -1
        cells = [Cell("a", 0.0, 0.0, Role.input("a")), Cell("c", -13.0, 13.0, Role.output("c"))]
        for model in ChargeModel:
            path = tmp_path / f"{model.value}.qcl"
            path.write_text(serialize_qcl(Layout(GeometryParams(charge_model=model), cells)))
            invalid = f"error: {path}: invalid layout\n  dot-overlap: dots of cells a and c are closer than dot_diameter / 2\n"
            for command in ("kink", "sim"):
                assert main([command, str(path)]) == 2
                assert capsys.readouterr() == ("", invalid)

    def test_dot_coordinates_that_overflow_print_no_nan(self, tmp_path, capsys):
        # both cells sit at the largest double, where x + dot_offset is inf:
        # the energies come from the centre offset (0, 20e299) and are finite
        path = tmp_path / "far.qcl"
        path.write_text(
            "qcl 1\n"
            "geometry cell_size=18e299 dot_diameter=5e299 pitch=20e299 radius=65e299\n"
            "cell id=a x=1.7976931348623157e308 y=0 role=input label=a\n"
            "cell id=b x=1.7976931348623157e308 y=20e299 role=output label=b\n"
        )
        assert main(["kink", str(path)]) == 0
        out = capsys.readouterr().out
        totals = dict(line.split("=") for line in out.splitlines())
        assert all(math.isfinite(float(total)) and float(total) > 0 for total in totals.values())
        # the coupling is far too weak to carry a signal, but it is a number
        for argv, code in ((["sim", str(path)], 0), (["truth", str(path), "--expect", "id"], 1)):
            assert main(argv) == code
            out, err = capsys.readouterr()
            assert "nan" not in out + err

    def test_a_dot_distance_that_underflows_exit_2(self, tmp_path, capsys):
        # no two dots share a point, but every dot distance in m would
        # underflow to 0: reading the geometry line fails, and gen rejects
        # the same flags
        path = tmp_path / "tiny.qcl"
        path.write_text(
            "qcl 1\n"
            "geometry cell_size=1.8e-317 dot_diameter=5e-318 pitch=2e-317\n"
            "cell id=a x=0 y=0 role=input label=a\n"
            "cell id=b x=2e-317 y=0 role=output label=b\n"
        )
        underflow = "relative_permittivity * dot_diameter / 2 underflows to 0 in m"
        for command in ("kink", "sim"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: line 2: {underflow}\n")
        flags = ["--cell-size", "1.8e-317", "--dot-diameter", "5e-318", "--pitch", "2e-317"]
        assert main(["gen", "wire:2", *flags]) == 2
        assert capsys.readouterr() == ("", f"error: bad geometry: {underflow}\n")


class TestSweep:
    def test_default_covers_three_to_six_cells(self, capsys):
        assert main(["sweep"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("cells")
        assert [row.split()[0] for row in lines[1:]] == ["3", "4", "5", "6"]

    def test_csv_matches_library_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        assert out.read_text() == sweep_csv(run_sweep(map(gen_minimal_inverter, range(0, 4))))

    def test_extra_range_can_include_the_two_cell_variant(self, capsys):
        assert main(["sweep", "--extra=-1..0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in lines[1:]] == ["2", "3"]

    def test_compare_writes_reference_table(self, tmp_path, capsys):
        path = tmp_path / "trend.md"
        assert main(["sweep", "--compare", str(path)]) == 0
        text = path.read_text()
        assert text == format_trend_comparison(run_sweep(map(gen_minimal_inverter, range(0, 4))))
        assert "| 6 |" in text and "6.83800e-20" in text

    def test_extra_value_with_a_leading_dash_needs_no_equals_sign(self, tmp_path, capsys):
        outputs = []
        forms = (["--extra=-1..3"], ["--extra", "-1..3"], ["--ext", "-1..3"], ["--extra", "0..1", "--extra", "-1..3"])
        for form in forms:
            csv, md = tmp_path / "sweep.csv", tmp_path / "trend.md"
            assert main(["sweep", *form, "--out", str(csv), "--compare", str(md)]) == 0
            outputs.append((capsys.readouterr().out, csv.read_bytes(), md.read_bytes()))
        assert all(out == outputs[0] for out in outputs[1:])
        assert [row.split()[0] for row in outputs[0][0].splitlines()[1:]] == ["2", "3", "4", "5", "6"]

    @pytest.mark.parametrize("old", [None, b"old\n"], ids=["new-out", "existing-out"])
    def test_unwritable_compare_leaves_out_as_it_was(self, tmp_path, capsys, old):
        # both files are opened before either is written: a --compare that
        # cannot be created leaves no new --out and an old one untouched
        out, compare = tmp_path / "s.csv", tmp_path / "no such dir" / "t.md"
        if old is not None:
            out.write_bytes(old)
        assert main(["sweep", "--extra", "0..0", "--out", str(out), "--compare", str(compare)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {str(compare)!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["s.csv"])
        assert old is None or out.read_bytes() == old

    def test_compare_lands_after_the_csv(self, tmp_path, capsys):
        # one path for both files ends as the comparison, written last
        path = tmp_path / "both"
        assert main(["sweep", "--extra", "0..0", "--out", str(path), "--compare", str(path)]) == 0
        assert path.read_text() == format_trend_comparison(run_sweep(map(gen_minimal_inverter, [0])))

    @pytest.mark.parametrize("kind", ["inverter:conventional", "inverter:3"])
    def test_row_repeats_kink_and_sim_measure_of_the_same_file(self, tmp_path, capsys, kind):
        qcl, kinks, readings = tmp_path / "d.qcl", tmp_path / "k.csv", tmp_path / "m.csv"
        assert main(["gen", kind, "--out", str(qcl)]) == 0
        cells = capsys.readouterr().out.split()[0]
        assert main(["kink", str(qcl), "--out", str(kinks)]) == 0
        assert main(["sim", str(qcl), "--measure", str(readings)]) == 0
        capsys.readouterr()
        total = kinks.read_text().splitlines()[-1].split(",")
        v0, v1 = (line.split(",") for line in readings.read_text().splitlines()[1:])
        assert total[0] == "TOTAL" and (v0[:2], v1[:2]) == (["b", "0"], ["b", "1"])
        expected = [cells, total[3], total[4], max(v0[3], v1[3], key=float), v0[2], v1[2]]
        row = sweep_csv(run_sweep([parse_qcl(qcl.read_text())[0]])).splitlines()[1]
        assert row.split(",") == expected

    def test_rejects_a_layout_its_table_cannot_show(self, monkeypatch):
        # the tables show one output over two vectors; the check comes
        # before any kink or relaxation work
        for name in ("kink_pairs", "stream_measurement"):
            monkeypatch.setattr(f"qcasim.sweep.{name}", lambda *args, name=name: pytest.fail(f"{name} ran"))
        two_outputs = Layout(GeometryParams(), [
            Cell("a", 0.0, 0.0, Role.input("a")), Cell("b", 20.0, 0.0, Role.output("b")),
            Cell("c", 40.0, 0.0, Role.output("c")),
        ])
        no_inputs = Layout(GeometryParams(), [Cell("d", 0.0, 0.0, Role.fixed(1)), Cell("b", 20.0, 0.0, Role.output("b"))])
        cases = [(gen_majority(), 3, 1), (two_outputs, 1, 2), (no_inputs, 0, 1)]
        for layout, inputs, outputs in cases:
            with pytest.raises(ValueError) as caught:
                run_sweep([layout])
            assert str(caught.value) == f"a sweep row needs 1 input and 1 output, layout has {inputs} and {outputs}"

    @pytest.mark.parametrize("extra", ["0..4", "-2..0", "junk", "0.. 3", "3..1"])
    def test_rejects_bad_ranges(self, capsys, extra):
        message = {
            "0..4": "--extra must lie within -1..3",
            "-2..0": "--extra must lie within -1..3",
            "junk": "bad --extra range 'junk'",
            "0.. 3": "bad --extra range '0.. 3'",  # int() strips the space
            "3..1": "--extra range 3..1 runs backwards",
        }[extra]
        assert main(["sweep", f"--extra={extra}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_rejects_unknown_base(self, capsys):
        assert main(["sweep", "--base", "wire"]) == 2


class TestTruth:
    def test_wire_passes_identity(self, wire3, capsys):
        assert main(["truth", wire3, "--expect", "id"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "truth: pass"
        assert all(line.endswith(" pass") for line in lines[:-1])

    def test_wire_fails_inversion(self, wire3, capsys):
        assert main(["truth", wire3, "--expect", "not"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "truth: FAIL"
        assert all(line.endswith(" FAIL") for line in lines[:-1])

    def test_majority_gate(self, majority, capsys):
        assert main(["truth", majority, "--expect", "maj"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert lines[-1] == "truth: pass"

    def test_arity_mismatch(self, wire3, capsys):
        assert main(["truth", wire3, "--expect", "maj"]) == 2
        assert "needs 3 input(s)" in capsys.readouterr().err

    def test_clock_above_the_sample_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # the clock line fails to parse, so stream_measurement, which would
        # build the cycle table, is never called (called as None, it would raise)
        path = tmp_path / "long.qcl"
        path.write_text(serialize_qcl(gen_wire(2), ClockConfig(samples_per_cycle=8)).replace("=8\n", "=65540\n"))
        monkeypatch.setattr(cli, "stream_measurement", None)
        assert main(["truth", str(path), "--expect", "id"]) == 2
        assert capsys.readouterr() == ("", "error: line 3: samples_per_cycle must be an integer in 8..65536, multiple of 4\n")

    def test_requires_outputs(self, tmp_path, capsys):
        # the measurement finds no output before it relaxes any sample
        path = tmp_path / "noout.qcl"
        path.write_text("qcl 1\ncell id=c0 x=0 y=0 role=input label=a\n")
        assert main(["truth", str(path), "--expect", "id"]) == 2
        assert capsys.readouterr() == ("", "error: layout has no output cells\n")


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "qcasim" in capsys.readouterr().out

    def test_a_child_runs_the_qcasim_this_process_imported(self):
        # with site or without (-S drops site-packages from sys.path)
        for flags in ([], ["-S"]):
            result = run_python(*flags, "-c", "import qcasim; print(qcasim.__file__)", capture_output=True, check=True)
            assert result.stdout == f"{qcasim.__file__}\n"

    def test_one_parser_per_process_built_on_first_use(self, wire3, capsys):
        code = "import qcasim.cli as cli; print(cli._build_parser.cache_info().currsize)"
        result = run_python("-c", code, capture_output=True, check=True)
        assert result.stdout == "0\n"  # importing the CLI builds no parser
        assert cli._build_parser() is cli._build_parser()
        # reusing the parser leaves nothing behind: a flag of one call does not
        # reach the next, and the same calls in any order give the same bytes,
        # so a rerun of sim is byte-identical
        calls = (
            ["gen", "wire:3", "--pitch", "21"], ["gen", "wire:3"], ["frobnicate"], ["--help"], ["sim", wire3], ["truth", wire3]
        )
        first = [(main(argv), capsys.readouterr()) for argv in calls]
        assert first[1][1].out == serialize_qcl(gen_wire(3))
        assert [(main(argv), capsys.readouterr()) for argv in reversed(calls)] == first[::-1]
