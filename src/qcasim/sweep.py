"""The minimal-inverter sweep: kink energy and output polarization against
cell count, and its three tables (CSV, reference comparison, terminal)."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .electrostatics import kink_pairs, kink_totals
from .engine import ClockConfig, InputSchedule, stream_measurement
from .qcl import format_energy, format_polarization
from .stdcells import gen_minimal_inverter

__all__ = [
    "REFERENCE_TREND",
    "SweepRow",
    "format_sweep_table",
    "format_trend_comparison",
    "run_sweep",
    "sweep_csv",
]

# Published reference points for the minimal inverter family (total kink
# energy in J and |steady polarization| per cell count).  The geometry they
# were measured at is not public; the trends are the comparison target.
REFERENCE_TREND: tuple[tuple[int, float, float], ...] = (
    (3, 6.838e-20, 0.950),
    (4, 10.862e-20, 0.986),
    (5, 14.986e-20, 0.994),
    (6, 17.328e-20, 0.994),
)


class SweepRow(NamedTuple):
    """One minimal-inverter size: kink totals and output polarization."""

    total_cells: int
    kink_bare: float
    kink_neut: float
    max_abs_p: float
    steady_p: tuple[float, ...]  # per vector, exhaustive order


def run_sweep(extras: Sequence[int]) -> tuple[SweepRow, ...]:
    """Simulate gen_minimal_inverter(k) for each k at the default geometry and clock."""
    clock, rows = ClockConfig(), []
    for extra in extras:
        layout = gen_minimal_inverter(extra)
        kink_bare, kink_neut = kink_totals(kink_pairs(layout))
        schedule = InputSchedule.exhaustive(layout.input_labels())
        measurement = stream_measurement(layout, clock, schedule)
        readings = [measurement.reading("b", vi) for vi in range(len(schedule.vectors))]
        rows.append(
            SweepRow(
                total_cells=len(layout.cells),
                kink_bare=kink_bare,
                kink_neut=kink_neut,
                max_abs_p=max(r.max_abs for r in readings),
                steady_p=tuple(r.steady for r in readings),
            )
        )
    return tuple(rows)


def _cells(row: SweepRow) -> tuple[str, ...]:
    """The six formatted columns that every sweep table shows."""
    energies = (format_energy(row.kink_bare), format_energy(row.kink_neut))
    polarizations = (format_polarization(p) for p in (row.max_abs_p, row.steady_p[0], row.steady_p[1]))
    return (str(row.total_cells), *energies, *polarizations)


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    out = ["total_cells,kink_bare_J,kink_neut_J,max_abs_P,steady_P_v0,steady_P_v1"]
    out.extend(",".join(_cells(row)) for row in rows)
    return "\n".join(out) + "\n"


def format_sweep_table(rows: Sequence[SweepRow]) -> str:
    """Fixed-width terminal table of the sweep, one line per row."""
    lines = ["cells  kink_bare_J   kink_neut_J   max_abs_P    steady_v0     steady_v1"]
    lines.extend("%5s  %s  %s  %s  %12s  %12s" % _cells(row) for row in rows)
    return "\n".join(lines) + "\n"


def format_trend_comparison(rows: Sequence[SweepRow]) -> str:
    """Markdown table comparing the computed sweep against REFERENCE_TREND."""
    reference = {cells: (format_energy(kink), f"{pol:.3f}") for cells, kink, pol in REFERENCE_TREND}
    lines = [
        "# Minimal inverter trend: computed vs reference",
        "",
        "Computed values use the default geometry (18 nm cells, 5 nm dots,",
        "20 nm pitch, relative permittivity 1, neutralized charge model) and",
        "the default four-phase clock.  The reference column reproduces",
        "published totals for the same inverter family; the geometry behind",
        "them is not public, so the comparison targets are the trends: total",
        "kink energy grows with every added cell and stays in the 1e-20 J",
        "decade, and output polarization saturates, changing by well under",
        "0.005 between the five and six cell designs.",
        "",
        "| cells | kink bare (J) | kink neutralized (J) | max abs P | steady P (a=-1) | steady P (a=+1) | reference kink (J) | reference abs P |",
        "|------:|--------------:|---------------------:|----------:|----------------:|----------------:|-------------------:|----------------:|",
    ]
    for row in rows:
        columns = [*_cells(row), *reference.get(row.total_cells, ("-", "-"))]
        lines.append("| " + " | ".join(columns) + " |")
    return "\n".join(lines) + "\n"
