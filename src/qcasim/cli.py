"""Command line interface.

Exit codes: 0 success, 1 logical truth failure, 2 bad input or usage,
3 relaxation convergence failure.  All output is deterministic: identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys
from contextlib import contextmanager, suppress
from typing import Callable, Iterator, Mapping, Sequence, TextIO

# circuit_kink_energy and kink_report_csv are unused here: names perfbench/tracer.py wraps
from .electrostatics import circuit_kink_energy, kink_pairs, kink_totals
from .engine import (
    ClockConfig,
    ConvergenceFailure,
    InputSchedule,
    NoOutputError,
    measure,  # with simulate and trace_csv: names perfbench/tracer.py wraps
    simulate,
    stream_measurement,
    truth_check,
)
from .model import ChargeModel, GeometryParams, Layout, validate
from .qcl import (
    GEOMETRY_FIELDS,
    ParseError,
    format_energy,
    format_polarization,
    kink_report_csv,
    measurement_csv,
    parse_fields,
    parse_integer,
    parse_qcl,
    parse_vectors,
    serialize_qcl,
    trace_csv,
    trace_csv_writer,
    write_kink_csv,
)
from .stdcells import (
    gen_conventional_inverter,
    gen_majority,
    gen_minimal_inverter,
    gen_wire,
)
from .sweep import format_sweep_table, format_trend_comparison, run_sweep, sweep_csv

__all__ = ["TRUTH_FUNCTIONS", "main"]

# name -> (input arity, truth function over {label: bool})
TRUTH_FUNCTIONS: dict[str, tuple[int, Callable[[Mapping[str, bool]], bool]]] = {
    "not": (1, lambda bits: not next(iter(bits.values()))),
    "id": (1, lambda bits: next(iter(bits.values()))),
    "maj": (3, lambda bits: sum(bits.values()) >= 2),
}


class _CliError(Exception):
    """Bad input or usage: ``main`` prints the message and exits 2."""


_PART_NUMBERS = itertools.count()  # the two files of one command may share a path

# a temporary file's write buffer: wire:512's 1.65 MB trace goes out in blocks of
# up to 64 KiB, not in about one write per 6.4 kB row through the default 8 KiB
_PART_BUFFER = 1 << 16


@contextmanager
def _replacing(*paths: str | None) -> Iterator[tuple[TextIO | None, ...]]:
    """One text file per path (None for a path not given).  A new or writable
    regular file is replaced, through any symlink, only when the block
    completes and every file has been closed, in the order given; its
    temporary file goes out in blocks of up to ``_PART_BUFFER`` (64 KiB).
    A device, a pipe, a read-only file or a file in a folder that takes no
    new file is written in place, with the default buffering (so a terminal
    stays line-buffered).  A loop of symlinks raises ELOOP naming the path
    as given, and the links stay as they are."""
    files: list[TextIO | None] = []
    parts: dict[str, tuple[str, str]] = {}  # temporary file -> (target, path as given)
    try:
        for path in paths:
            if not path:
                files.append(None)
                continue
            target = os.path.realpath(path)
            folder, name = os.path.split(target)
            try:
                old = os.stat(target)
            except OSError as err:  # no file to keep (or gone since): the open or replace reports any error
                import errno  # loaded only when a path names no file, so not by importing qcasim.cli

                if err.errno == errno.ELOOP:  # but a loop of links is a mistake, not a new file
                    raise OSError(err.errno, err.strerror, path) from None
                old = None
            replaceable = old is None or stat.S_ISREG(old.st_mode) and os.access(target, os.W_OK)
            if not (replaceable and os.access(folder, os.W_OK)):
                files.append(open(path, "w", encoding="utf-8", newline=""))
                continue
            part = os.path.join(folder, f".{name}.{os.getpid()}.{next(_PART_NUMBERS)}.part")
            parts[part] = target, path
            files.append(open(part, "w", buffering=_PART_BUFFER, encoding="utf-8", newline=""))
            if old:
                os.chmod(part, stat.S_IMODE(old.st_mode))
        yield tuple(files)
        for out in files:  # flush every file before the first one is replaced
            if out:
                out.close()
        for part, (target, _) in parts.items():
            os.replace(part, target)
    except OSError as err:  # name the user's file, not the temporary one
        raise (OSError(err.errno, err.strerror, parts[err.filename][1]) if err.filename in parts else err) from None
    finally:
        for out in files:
            if out:
                out.close()
        for part in parts:  # a part already replaced, never made or removed by someone else is gone
            with suppress(FileNotFoundError, NotADirectoryError):
                os.remove(part)


def _read_text(path: str) -> str:
    """The file as text; a leading byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as text:
            return text.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(f"cannot read {path}: {err}") from None


def _load_layout(path: str) -> tuple[Layout, ClockConfig]:
    layout, clock = parse_qcl(_read_text(path))
    violations = validate(layout)
    if violations:
        lines = [f"{path}: invalid layout"]
        lines.extend(f"  {v.rule}: {v.message}" for v in violations)
        raise _CliError("\n".join(lines))
    return layout, clock or ClockConfig()


def _geometry_from_args(args: argparse.Namespace) -> GeometryParams:
    given = vars(args)
    tokens = [f"{key}={given[key]}" for key in GEOMETRY_FIELDS if key in given]
    try:
        return parse_fields(GeometryParams, GEOMETRY_FIELDS, tokens, 0)
    except ParseError as err:
        raise _CliError(f"bad geometry: {err.reason}") from None


def _builder_for_kind(kind: str) -> Callable[[GeometryParams], Layout]:
    name, _, arg = kind.partition(":")
    if name == "majority" and not arg:
        return gen_majority
    if kind == "inverter:conventional":
        return gen_conventional_inverter
    size = {"wire": "wire length", "inverter": "inverter size"}.get(name)  # what a sized kind's number counts
    if size is None:
        raise _CliError(f"unknown circuit kind {kind!r}")
    try:
        n = parse_integer(arg)
    except ValueError:
        raise _CliError(f"bad {size} in {kind!r}") from None
    if name == "wire":
        return lambda geometry: gen_wire(n, geometry)
    if not 2 <= n <= 6:
        raise _CliError("minimal inverter supports 2..6 cells")
    return lambda geometry: gen_minimal_inverter(n - 3, geometry)


def _schedule_for(args: argparse.Namespace, layout: Layout) -> InputSchedule:
    labels = layout.input_labels()
    if args.vectors == "exhaustive":
        try:
            return InputSchedule.exhaustive(labels)
        except ValueError as err:
            raise _CliError(f"{err}; name the vectors with --vectors FILE") from None
    return InputSchedule.explicit(labels, parse_vectors(_read_text(args.vectors), labels))


def _format_vector(vector: Sequence[tuple[str, int]]) -> str:
    return " ".join(f"{label}={value:+d}" for label, value in vector)


def _cmd_gen(args: argparse.Namespace) -> int:
    builder = _builder_for_kind(args.kind)
    try:
        layout = builder(_geometry_from_args(args))
    except ValueError as err:  # too few cells, or a cell beyond the largest double
        raise _CliError(str(err)) from None
    document = serialize_qcl(layout)
    if args.out:
        with _replacing(args.out) as (out,):
            out.write(document)
        print(f"{len(layout.cells)} cells -> {args.out}")
    else:
        print(f"{len(layout.cells)} cells", file=sys.stderr)
        sys.stdout.write(document)
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    layout, clock = _load_layout(args.layout)
    schedule = _schedule_for(args, layout)
    # the trace lands first, then the measurement
    with _replacing(args.out, args.measure) as (trace_out, measure_out):
        write = trace_csv_writer(trace_out, [c.id for c in layout.cells]) if trace_out else None
        measurement = stream_measurement(layout, clock, schedule, write)
        if measure_out:
            measure_out.write(measurement_csv(measurement))
    outputs = sorted({r.output for r in measurement.readings})
    for vi, vector in enumerate(measurement.vectors):
        steadies = " ".join(
            f"{name}={format_polarization(measurement.reading(name, vi).steady)}"
            for name in outputs
        )
        print(f"vector {vi}: {_format_vector(vector)} -> {steadies}")
    return 0


def _cmd_kink(args: argparse.Namespace) -> int:
    layout, _ = _load_layout(args.layout)
    with _replacing(args.out) as (out,):
        pairs = kink_pairs(layout)
        total_bare, total_neut = write_kink_csv(out, pairs) if out else kink_totals(pairs)
    if args.model in ("bare", "both"):
        print(f"total_kink_bare_J={format_energy(total_bare)}")
    if args.model in ("neutralized", "both"):
        print(f"total_kink_neutralized_J={format_energy(total_neut)}")
    return 0


def _parse_extra_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            first, last = parse_integer(lo), parse_integer(hi)
        else:
            first = last = parse_integer(lo)
    except ValueError:
        raise _CliError(f"bad --extra range {text!r}") from None
    if not (-1 <= first <= 3 and -1 <= last <= 3):
        raise _CliError("--extra must lie within -1..3")
    if first > last:
        raise _CliError(f"--extra range {first}..{last} runs backwards")
    return list(range(first, last + 1))


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = run_sweep(map(gen_minimal_inverter, _parse_extra_range(args.extra)))
    # the CSV lands first, then the comparison
    with _replacing(args.out, args.compare) as (csv_out, compare_out):
        if csv_out:
            csv_out.write(sweep_csv(rows))
        if compare_out:
            compare_out.write(format_trend_comparison(rows))
    sys.stdout.write(format_sweep_table(rows))
    return 0


def _cmd_truth(args: argparse.Namespace) -> int:
    layout, clock = _load_layout(args.layout)
    arity, function = TRUTH_FUNCTIONS[args.expect]
    labels = layout.input_labels()
    if len(labels) != arity:
        raise _CliError(f"--expect {args.expect} needs {arity} input(s), layout has {len(labels)}")
    schedule = InputSchedule.exhaustive(labels)
    # a verdict reads only steady values: each cycle is relaxed through the last one
    result = truth_check(stream_measurement(layout, clock, schedule, peaks=False), function)
    for verdict in result.verdicts:
        for out in verdict.outputs:
            status = "pass" if out.passed else "FAIL"
            print(
                f"vector {verdict.vector_index}: {_format_vector(verdict.inputs)} ->"
                f" {out.output} expect {'+1' if out.expected else '-1'}"
                f" steady {format_polarization(out.steady)} {status}"
            )
    print("truth: pass" if result.passed else "truth: FAIL")
    return 0 if result.passed else 1


@functools.cache  # built on the first main call, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcasim",
        description="Quantum-dot cellular automata circuit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = " | ".join(model.value for model in ChargeModel)
    gen = sub.add_parser(
        "gen", help="generate a standard circuit as .qcl",
        epilog=f"geometry flag values: see docs/qcl-format.md; charge models: {models}",
    )
    gen.add_argument("kind", help="wire:N | majority | inverter:conventional | inverter:K (K cells, 2..6)")
    gen.add_argument("--out", help="write the document here instead of stdout")
    # one flag per .qcl geometry key; a flag left out keeps the GeometryParams default
    defaults = GeometryParams()
    for key, (name, _, fmt) in GEOMETRY_FIELDS.items():
        default = fmt(getattr(defaults, name))
        gen.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS, help=f"default {default}")
    gen.set_defaults(func=_cmd_gen)

    sim = sub.add_parser("sim", help="simulate a layout over input vectors")
    sim.add_argument("layout")
    sim.add_argument("--vectors", default="exhaustive", help="'exhaustive' or a vector file")
    sim.add_argument("--out", help="write the trace CSV here")
    sim.add_argument("--measure", help="write the measurement CSV here")
    sim.set_defaults(func=_cmd_sim)

    kink = sub.add_parser("kink", help="pairwise kink energies of a layout")
    kink.add_argument("layout")
    kink.add_argument("--model", choices=["bare", "neutralized", "both"], default="both")
    kink.add_argument("--out", help="write the pair CSV here")
    kink.set_defaults(func=_cmd_kink)

    sweep = sub.add_parser("sweep", help="minimal inverter size sweep")
    sweep.add_argument("--extra", default="0..3", help="range of appended cells, e.g. 0..3")
    sweep.add_argument("--out", help="write the sweep CSV here")
    sweep.add_argument("--compare", help="write the reference comparison markdown here")
    sweep.set_defaults(func=_cmd_sweep)

    truth = sub.add_parser("truth", help="check a layout against a truth function")
    truth.add_argument("layout")
    truth.add_argument("--expect", choices=sorted(TRUTH_FUNCTIONS), required=True)
    truth.set_defaults(func=_cmd_truth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["sweep"]:
        # join "--extra -1..3": argparse would read the leading dash as an option
        for at in reversed(range(1, len(argv) - 1)):
            if len(argv[at]) > 2 and "--extra".startswith(argv[at]):
                argv[at : at + 2] = [f"{argv[at]}={argv[at + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except ConvergenceFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (_CliError, ParseError, NoOutputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
