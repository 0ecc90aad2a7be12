"""Command line interface.

Exit codes: 0 success, 1 logical truth failure, 2 bad input or usage,
3 relaxation convergence failure.  All output is deterministic: identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .electrostatics import ZeroDistanceError, circuit_kink_energy
from .engine import (
    ClockConfig,
    ConvergenceFailure,
    InputSchedule,
    NoOutputError,
    measure,
    simulate,
    truth_check,
)
from .model import ChargeModel, GeometryParams, Layout, validate
from .qcl import (
    ParseError,
    format_energy,
    format_polarization,
    kink_report_csv,
    measurement_csv,
    parse_qcl,
    parse_vectors,
    serialize_qcl,
    trace_csv,
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
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _write_bytes(path: str, text: str) -> None:
    Path(path).write_bytes(text.encode("utf-8"))


def _load_layout(path: str) -> tuple[Layout, ClockConfig]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(2, f"cannot read {path}: {err}") from None
    layout, clock = parse_qcl(text)
    violations = validate(layout)
    if violations:
        lines = [f"{path}: invalid layout"]
        lines.extend(f"  {v.rule}: {v.message}" for v in violations)
        raise _CliError(2, "\n".join(lines))
    return layout, clock or ClockConfig()


def _geometry_from_args(args: argparse.Namespace) -> GeometryParams:
    try:
        return GeometryParams(
            cell_size=args.cell_size,
            dot_diameter=args.dot_diameter,
            pitch=args.pitch,
            relative_permittivity=args.epsilon_r,
            charge_model=ChargeModel(args.charge_model),
            radius_of_effect=args.radius,
        )
    except ValueError as err:
        raise _CliError(2, f"bad geometry: {err}") from None


def _builder_for_kind(kind: str) -> Callable[[GeometryParams], Layout]:
    name, _, arg = kind.partition(":")
    if name == "majority" and not arg:
        return gen_majority
    if name == "wire":
        try:
            n = int(arg, 10)
        except ValueError:
            raise _CliError(2, f"bad wire length in {kind!r}") from None
        if n < 2:
            raise _CliError(2, "wire needs at least 2 cells")
        return lambda geometry: gen_wire(n, geometry)
    if name == "inverter":
        if arg == "conventional":
            return gen_conventional_inverter
        try:
            cells = int(arg, 10)
        except ValueError:
            raise _CliError(2, f"bad inverter size in {kind!r}") from None
        if not 2 <= cells <= 6:
            raise _CliError(2, "minimal inverter supports 2..6 cells")
        return lambda geometry: gen_minimal_inverter(cells - 3, geometry)
    raise _CliError(2, f"unknown circuit kind {kind!r}")


def _schedule_for(args: argparse.Namespace, layout: Layout) -> InputSchedule:
    labels = layout.input_labels()
    if args.vectors == "exhaustive":
        try:
            return InputSchedule.exhaustive(labels)
        except ValueError as err:
            raise _CliError(2, f"{err}; name the vectors with --vectors FILE") from None
    try:
        text = Path(args.vectors).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(2, f"cannot read {args.vectors}: {err}") from None
    return InputSchedule.explicit(labels, parse_vectors(text, labels))


def _format_vector(vector: Sequence[tuple[str, int]]) -> str:
    return " ".join(f"{label}={value:+d}" for label, value in vector)


def _cmd_gen(args: argparse.Namespace) -> int:
    builder = _builder_for_kind(args.kind)
    layout = builder(_geometry_from_args(args))
    document = serialize_qcl(layout)
    if args.out:
        _write_bytes(args.out, document)
        print(f"{len(layout.cells)} cells -> {args.out}")
    else:
        print(f"{len(layout.cells)} cells", file=sys.stderr)
        sys.stdout.write(document)
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    layout, clock = _load_layout(args.layout)
    schedule = _schedule_for(args, layout)
    trace = simulate(layout, clock, schedule)
    measurement = measure(trace, layout)
    if args.out:
        _write_bytes(args.out, trace_csv(trace))
    if args.measure:
        _write_bytes(args.measure, measurement_csv(measurement))
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
    report = circuit_kink_energy(layout)
    if args.out:
        _write_bytes(args.out, kink_report_csv(report))
    if args.model in ("bare", "both"):
        print(f"total_kink_bare_J={format_energy(report.total_bare)}")
    if args.model in ("neutralized", "both"):
        print(f"total_kink_neutralized_J={format_energy(report.total_neutralized)}")
    return 0


def _parse_extra_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            first, last = int(lo, 10), int(hi, 10)
        else:
            first = last = int(lo, 10)
    except ValueError:
        raise _CliError(2, f"bad --extra range {text!r}") from None
    if first > last or first < -1 or last > 3:
        raise _CliError(2, "--extra must lie within -1..3")
    return list(range(first, last + 1))


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = run_sweep(_parse_extra_range(args.extra))
    if args.out:
        _write_bytes(args.out, sweep_csv(rows))
    if args.compare:
        _write_bytes(args.compare, format_trend_comparison(rows))
    sys.stdout.write(format_sweep_table(rows))
    return 0


def _cmd_truth(args: argparse.Namespace) -> int:
    layout, clock = _load_layout(args.layout)
    arity, function = TRUTH_FUNCTIONS[args.expect]
    labels = layout.input_labels()
    if len(labels) != arity:
        raise _CliError(
            2, f"--expect {args.expect} needs {arity} input(s), layout has {len(labels)}"
        )
    if not layout.outputs():
        raise _CliError(2, "layout has no output cells")
    schedule = InputSchedule.exhaustive(labels)
    result = truth_check(measure(simulate(layout, clock, schedule), layout), function)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcasim",
        description="Quantum-dot cellular automata circuit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a standard circuit as .qcl")
    gen.add_argument("kind", help="wire:N | majority | inverter:conventional | inverter:K (K cells, 2..6)")
    gen.add_argument("--out", help="write the document here instead of stdout")
    gen.add_argument("--cell-size", type=float, default=18.0)
    gen.add_argument("--dot-diameter", type=float, default=5.0)
    gen.add_argument("--pitch", type=float, default=20.0)
    gen.add_argument("--epsilon-r", type=float, default=1.0)
    gen.add_argument("--charge-model", choices=["bare", "neutralized"], default="neutralized")
    gen.add_argument("--radius", type=float, default=65.0)
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
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ConvergenceFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ParseError, NoOutputError, ZeroDistanceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
