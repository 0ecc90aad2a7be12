"""Plain-text layout format (.qcl) and the CSV export schemas.

A document is line based: a ``qcl 1`` header, an optional ``geometry`` line,
an optional ``clock`` line, then one ``cell`` line per cell in layout order.
Fields are ``key=value`` tokens separated by whitespace; ``#`` starts a
comment; blank lines are ignored.  Parsing either returns a layout or raises
ParseError with a 1-based line number -- any text input must end in one of
those two outcomes.  Serialization is canonical: fixed key order, shortest
exact decimals for nm values, clock energies in 6-digit scientific notation
where that reads back exactly (else repr), so layout and clock round-trip.
"""

from __future__ import annotations

import io
import math
from typing import Any, Callable, Container, Iterable, Iterator, Sequence, TextIO

from .engine import ClockConfig, Measurement, Trace, TraceSample
from .electrostatics import KinkPair, KinkReport, kink_totals
from .model import Cell, ChargeModel, GeometryParams, Layout, Role, RoleKind

__all__ = [
    "ParseError",
    "parse_qcl",
    "serialize_qcl",
    "parse_vectors",
    "kink_report_csv",
    "write_kink_csv",
    "trace_csv",
    "trace_csv_writer",
    "measurement_csv",
    "format_energy",
    "format_polarization",
]


class ParseError(ValueError):
    """Malformed .qcl or vector-file input; carries the 1-based line number."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


_CELL_KEYS = ("id", "x", "y", "role", "label", "p", "zone")
_ROLE_NAMES = {kind.value: kind for kind in RoleKind}


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # lines end at \r\n, \r or \n only
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _key_values(tokens: Sequence[str], line: int, allowed: Container[str]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ParseError(line, f"expected key=value, got {token!r}")
        if key not in allowed:
            raise ParseError(line, f"unknown key {key!r}")
        if key in pairs:
            raise ParseError(line, f"duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _number(key: str, text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line, f"bad number for {key!r}: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, f"{key!r} must be finite")
    return value


def _integer(key: str, text: str, line: int) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ParseError(line, f"bad integer for {key!r}: {text!r}") from None


def _charge_model(key: str, text: str, line: int) -> ChargeModel:
    try:
        return ChargeModel(text)
    except ValueError:
        raise ParseError(line, f"unknown {key} {text!r}") from None


def _construct(line: int, cls: Callable[..., Any], **fields: Any) -> Any:
    """``cls(**fields)``, its ValueError reported as a ParseError on ``line``."""
    try:
        return cls(**fields)
    except ValueError as err:
        raise ParseError(line, str(err)) from None


def _parse_cell(tokens: Sequence[str], line: int) -> Cell:
    """Convert a cell line's text; Role and Cell decide which values are valid."""
    pairs = _key_values(tokens, line, _CELL_KEYS)
    for key in ("id", "x", "y", "role"):
        if key not in pairs:
            raise ParseError(line, f"cell line missing required key {key!r}")
    kind = _ROLE_NAMES.get(pairs["role"])
    if kind is None:
        raise ParseError(line, f"unknown role {pairs['role']!r}")
    polarization = _integer("p", pairs["p"], line) if "p" in pairs else None
    role = _construct(line, Role, kind=kind, label=pairs.get("label"), polarization=polarization)
    return _construct(
        line,
        Cell,
        id=pairs["id"],
        x=_number("x", pairs["x"], line),
        y=_number("y", pairs["y"], line),
        role=role,
        zone=_integer("zone", pairs.get("zone", "0"), line),
    )


def _format_length(value: float) -> str:
    # Shortest exact decimal: integers drop the trailing .0, anything else
    # uses repr, which round-trips doubles exactly.
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


# The number formats of every export, as %-specs so a CSV row is one template.
ENERGY_FORMAT = "%.5e"
POLARIZATION_FORMAT = "%.9f"


def format_energy(value: float) -> str:
    """Scientific notation with 6 significant digits, for joule columns."""
    return ENERGY_FORMAT % value


def format_polarization(value: float) -> str:
    """Fixed point with 9 decimals, for polarization columns."""
    return POLARIZATION_FORMAT % value


def _format_clock_energy(value: float) -> str:
    """The 6-digit form where it reads back as the same double, else repr."""
    short = format_energy(value)
    return short if float(short) == value else repr(value)


# One row per key of the geometry and clock lines, in canonical order:
# .qcl key -> (record field, parser(key, text, line), formatter).
_Field = tuple[str, Callable[[str, str, int], Any], Callable[[Any], str]]
GEOMETRY_FIELDS: dict[str, _Field] = {
    "cell_size": ("cell_size", _number, _format_length),
    "dot_diameter": ("dot_diameter", _number, _format_length),
    "pitch": ("pitch", _number, _format_length),
    "epsilon_r": ("relative_permittivity", _number, _format_length),
    "charge_model": ("charge_model", _charge_model, lambda model: model.value),
    "radius": ("radius_of_effect", _number, _format_length),
}
CLOCK_FIELDS: dict[str, _Field] = {
    "high": ("gamma_high", _number, _format_clock_energy),
    "low": ("gamma_low", _number, _format_clock_energy),
    "samples": ("samples_per_cycle", _integer, str),
}
# directive -> (record type, fields); keys a line leaves out keep the defaults
_CONFIG_LINES = {
    "geometry": (GeometryParams, GEOMETRY_FIELDS),
    "clock": (ClockConfig, CLOCK_FIELDS),
}


def _parse_fields(
    cls: Callable[..., Any], fields: dict[str, _Field], tokens: Sequence[str], line: int
) -> Any:
    pairs = _key_values(tokens, line, fields)
    values = {
        name: parse(key, pairs[key], line)
        for key, (name, parse, _) in fields.items()
        if key in pairs
    }
    return _construct(line, cls, **values)


def _format_fields(directive: str, fields: dict[str, _Field], config: object) -> str:
    tokens = [f"{key}={fmt(getattr(config, name))}" for key, (name, _, fmt) in fields.items()]
    return " ".join([directive, *tokens])


def parse_qcl(text: str) -> tuple[Layout, ClockConfig | None]:
    """Parse a .qcl document into (layout, clock-or-None).

    The geometry and clock lines are optional (defaults apply) but must
    appear at most once each and before any cell line.
    """
    lines = _significant_lines(text)
    try:
        line, header = next(lines)
    except StopIteration:
        raise ParseError(1, "empty document, expected 'qcl 1' header") from None
    if header.split() != ["qcl", "1"]:
        raise ParseError(line, f"expected 'qcl 1' header, got {header!r}")

    configs: dict[str, Any] = {}
    cells: list[Cell] = []
    ids: set[str] = set()
    for line, content in lines:
        directive, *tokens = content.split()
        if directive in _CONFIG_LINES:
            if directive in configs:
                raise ParseError(line, f"duplicate {directive} line")
            if cells:
                raise ParseError(line, f"{directive} line must precede cell lines")
            configs[directive] = _parse_fields(*_CONFIG_LINES[directive], tokens, line)
        elif directive == "cell":
            cell = _parse_cell(tokens, line)
            if cell.id in ids:
                raise ParseError(line, f"duplicate cell id {cell.id!r}")
            ids.add(cell.id)
            cells.append(cell)
        else:
            raise ParseError(line, f"unknown directive {directive!r}")
    return Layout(configs.get("geometry") or GeometryParams(), cells), configs.get("clock")


def serialize_qcl(layout: Layout, clock: ClockConfig | None = None) -> str:
    """Canonical text form; parse(serialize(layout)) reproduces the layout."""
    lines = ["qcl 1", _format_fields("geometry", GEOMETRY_FIELDS, layout.geometry)]
    if clock is not None:
        lines.append(_format_fields("clock", CLOCK_FIELDS, clock))
    for cell in layout.cells:
        parts = [
            f"cell id={cell.id}",
            f"x={_format_length(cell.x)}",
            f"y={_format_length(cell.y)}",
            f"role={cell.role.kind.value}",
        ]
        if cell.role.label is not None:
            parts.append(f"label={cell.role.label}")
        if cell.role.polarization is not None:
            parts.append(f"p={cell.role.polarization:+d}")
        parts.append(f"zone={cell.zone}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_vectors(text: str, labels: Sequence[str]) -> list[dict[str, int]]:
    """Parse an explicit vector file: one vector per line, ``label=+-1``
    tokens, every input label assigned on every line."""
    wanted = set(labels)
    vectors: list[dict[str, int]] = []
    for line, content in _significant_lines(text):
        row: dict[str, int] = {}
        for token in content.split():
            key, sep, value = token.partition("=")
            if not sep or not key or not value:
                raise ParseError(line, f"expected label=value, got {token!r}")
            if key not in wanted:
                raise ParseError(line, f"unknown input label {key!r}")
            if key in row:
                raise ParseError(line, f"duplicate label {key!r}")
            try:
                number = int(value, 10)
            except ValueError:
                raise ParseError(line, f"bad value for {key!r}: {value!r}") from None
            if number not in (-1, 1):
                raise ParseError(line, f"value for {key!r} must be -1 or +1")
            row[key] = number
        missing = wanted - set(row)
        if missing:
            raise ParseError(line, f"vector missing input label(s) {sorted(missing)}")
        vectors.append(row)
    if not vectors:
        raise ParseError(1, "vector file has no vectors")
    return vectors


def write_kink_csv(out: TextIO, pairs: Iterable[KinkPair]) -> tuple[float, float]:
    """Write the pair table to ``out``, a row as each pair arrives, then a TOTAL row
    of the pairs' ``kink_totals``, which it returns.  Energies in 6-digit scientific."""
    energies = f"{ENERGY_FORMAT},{ENERGY_FORMAT}\n"
    row = "%s,%s,%.6g," + energies
    out.write("id_a,id_b,distance_nm,ekink_bare_J,ekink_neut_J\n")

    def written() -> Iterator[KinkPair]:
        for pair in pairs:
            out.write(row % pair)
            yield pair

    totals = kink_totals(written())
    out.write(("TOTAL,,," + energies) % totals)
    return totals


def kink_report_csv(report: KinkReport) -> str:
    """The pair table of a whole report (see write_kink_csv)."""
    out = io.StringIO()
    write_kink_csv(out, report.pairs)
    return out.getvalue()


class _Texts(dict):
    """One row's P texts by value, each with its leading comma.  Each value it
    formats counts against ``room``; one more raises KeyError.  A zero is
    formatted each time and never kept: 0.0 and -0.0 are one key."""

    def __init__(self, room: int) -> None:
        self.room = room

    def __missing__(self, value: float) -> str:
        self.room -= 1
        if self.room < 0:
            raise KeyError(value)
        text = "," + POLARIZATION_FORMAT % value
        if value:
            self[value] = text
        return text


def trace_csv_writer(out: TextIO, cell_ids: Sequence[str]) -> Callable[[Iterable[TraceSample]], None]:
    """Write the trace CSV header to ``out``; return a function that writes one
    row per sample it is given: vector, sample, the four zone gammas, every P.
    The text of each clock sample's gammas (the first 1,024 without a zero) is
    kept.  A row formats each distinct P once until a row of its vector has
    more than a quarter of its values distinct or zero; from that row on, the
    vector's rows are one %-format each."""
    out.write(",".join(["vector", "sample", "gamma_z0", "gamma_z1", "gamma_z2", "gamma_z3", *cell_ids]) + "\n")
    row = "".join(["%d,%d,%s"] + [f",{POLARIZATION_FORMAT}"] * len(cell_ids)) + "\n"
    gamma_row, gamma_texts = ",".join([ENERGY_FORMAT] * 4), {}
    vector, repeating = None, True  # the vector written last; whether its rows still repeat

    def write(samples: Iterable[TraceSample]) -> None:
        nonlocal vector, repeating
        for vi, si, gammas, p, _ in samples:
            g = gamma_texts.get(gammas)
            if g is None:
                g = gamma_row % gammas
                if 0.0 not in gammas and len(gamma_texts) < 1024:
                    gamma_texts[gammas] = g
            if vi != vector:
                vector, repeating = vi, True
            if repeating:
                try:
                    text = "".join(map(_Texts(len(p) // 4).__getitem__, p))
                except KeyError:
                    repeating = False
            out.write("%d,%d,%s%s\n" % (vi, si, g, text) if repeating else row % (vi, si, g, *p))

    return write


def trace_csv(trace: Trace) -> str:
    """The trace CSV of a whole run (see trace_csv_writer)."""
    out = io.StringIO()
    trace_csv_writer(out, trace.cell_ids)(trace.samples)
    return out.getvalue()


def measurement_csv(measurement: Measurement) -> str:
    """One row per (output, vector): steady and peak polarization."""
    row = f"%s,%d,{POLARIZATION_FORMAT},{POLARIZATION_FORMAT}"
    rows = ["output,vector,steady_P,max_abs_P"]
    rows.extend(row % (r.output, r.vector_index, r.steady, r.max_abs) for r in measurement.readings)
    return "\n".join(rows) + "\n"
