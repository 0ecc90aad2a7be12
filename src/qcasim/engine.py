"""Bistable relaxation engine with four-phase adiabatic clocking.

Every free cell responds to the field of its neighbors through the
saturating transfer function P = x / sqrt(1 + x^2), where x is the
kink-energy-weighted sum of neighbor polarizations divided by twice the
cell's current clock barrier energy gamma.  Gamma follows a trapezoid
waveform per clock zone (switch, hold, release, relax quarters), zones
offset by a quarter cycle.  Relaxation is plain Gauss-Seidel in layout
order, which keeps runs exactly reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

# perfbench/tracer.py wraps both names here; relax and _cycles call coupling_map, kink_energy is unused
from .electrostatics import coupling_map, kink_energy
from .model import Layout, RoleKind, _Record

__all__ = [
    "TRUTH_MARGIN",
    "MAX_EXHAUSTIVE_INPUTS",
    "MAX_GAMMA",
    "MAX_SAMPLES_PER_CYCLE",
    "ClockConfig",
    "ConvergenceFailure",
    "NoOutputError",
    "InputSchedule",
    "TraceSample",
    "Trace",
    "MirroredBlock",
    "OutputReading",
    "Measurement",
    "OutputVerdict",
    "VectorVerdict",
    "TruthResult",
    "bistable_response",
    "gamma_at",
    "coupling_map",
    "relax",
    "simulate",
    "measure",
    "stream_measurement",
    "truth_check",
]

# Minimum |steady polarization| for a logic level to count as resolved.
TRUTH_MARGIN = 0.5

# Exhaustive schedules stop here: 2^12 = 4,096 vectors of 128 samples each.
MAX_EXHAUSTIVE_INPUTS = 12

# Physical ceiling on a clock barrier, J (about 6 eV; real barriers are near
# 1e-22 J).  It keeps 2 gamma below 1 J, so total / (2 gamma) never underflows.
MAX_GAMMA = 1e-18

# Longest clock cycle, 512 times the default: a cycle table of about 6 MB (92 B a sample).
MAX_SAMPLES_PER_CYCLE = 65536

# Every relaxation stops at these; both sweep tiers read them at call time.
# A relaxation may take _MAX_SWEEPS sweeps or, if more, _SWEEP_BUDGET cell
# updates: where a clock ramp destabilises the unpolarized state (at eps_r
# 12.9, say) Gauss-Seidel slows down, and a few cells can need 10^4 sweeps.
_TOLERANCE, _MAX_SWEEPS, _SWEEP_BUDGET = 1e-7, 1000, 10**6

Vector = tuple[tuple[str, int], ...]  # ((label, +-1), ...) sorted by label
Neighbours = tuple[tuple[int, float], ...]  # (neighbour index, kink energy J), ...
Row = tuple[int, int, Neighbours]  # free cell (index, zone, neighbours)


class ConvergenceFailure(RuntimeError):
    """Relaxation did not settle below tolerance within the sweep limit."""

    def __init__(
        self,
        residual: float,
        vector_index: int | None = None,
        sample_index: int | None = None,
    ) -> None:
        where = ""
        if vector_index is not None:
            where = f" (vector {vector_index}, sample {sample_index})"
        super().__init__(f"relaxation residual {residual:.3e} above tolerance{where}")
        self.residual = residual
        self.vector_index = vector_index
        self.sample_index = sample_index


class NoOutputError(ValueError):
    """The layout has no output cells to measure."""


class ClockConfig(_Record):
    """Four-phase clock: barrier energies in joules, cycle length in samples."""

    def __init__(
        self,
        gamma_high: float = 9.8e-22,  # barriers low, cell free to repolarize
        gamma_low: float = 3.8e-23,  # barriers high, cell latched
        samples_per_cycle: int = 128,
    ) -> None:
        self.__dict__.update(gamma_high=gamma_high, gamma_low=gamma_low, samples_per_cycle=samples_per_cycle)
        if not all(isinstance(g, (int, float)) for g in (self.gamma_high, self.gamma_low)):
            raise ValueError("gamma_high and gamma_low must be numbers")
        if not (MAX_GAMMA >= self.gamma_high > self.gamma_low > 0):
            raise ValueError(f"need 0 < gamma_low < gamma_high <= {MAX_GAMMA:g} J")
        n = self.samples_per_cycle
        if not isinstance(n, int) or not 8 <= n <= MAX_SAMPLES_PER_CYCLE or n % 4 != 0:
            raise ValueError(f"samples_per_cycle must be an integer in 8..{MAX_SAMPLES_PER_CYCLE}, multiple of 4")

    @functools.cached_property
    def _cycle(self) -> tuple[tuple[float, float, float, float], ...]:
        """Each sample's four zone barriers.  Zone 0 ramps gamma_high ->
        gamma_low (switch), holds gamma_low, ramps back up (release) and
        holds gamma_high (relax), a quarter cycle each; zone z lags it by z
        quarters."""
        gh, gl, q = self.gamma_high, self.gamma_low, self.samples_per_cycle // 4
        wave = [gh + (gl - gh) * (s / q) for s in range(q)] + [gl] * q
        wave += [gl + (gh - gl) * (s / q) for s in range(q)] + [gh] * q  # s counts from 2q
        return tuple((wave[s], wave[s - q], wave[s - 2 * q], wave[s - 3 * q]) for s in range(4 * q))


def gamma_at(clock: ClockConfig, zone: int, sample: int) -> float:
    """Barrier energy of ``zone`` at integer ``sample`` (wraps mod cycle),
    read from the clock's cycle table (see ``ClockConfig._cycle``)."""
    if zone not in (0, 1, 2, 3):
        raise ValueError("zone must be 0..3")
    return clock._cycle[sample % clock.samples_per_cycle][zone]


class InputSchedule(_Record):
    """The input vectors a simulation steps through, one clock cycle each.
    A repeated label raises ValueError: its vectors would pin one input twice."""

    def __init__(self, labels: tuple[str, ...], vectors: tuple[Vector, ...]) -> None:
        self.__dict__.update(labels=labels, vectors=vectors)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"input labels repeat: {self.labels}")
        if not self.vectors:
            raise ValueError("need at least one vector")
        for i, vector in enumerate(self.vectors):
            if tuple(label for label, _ in vector) != tuple(self.labels):
                raise ValueError(f"vector {i} must assign exactly the labels {self.labels}")
            if any(value not in (-1, 1) for _, value in vector):
                raise ValueError(f"vector {i}: values must be -1 or +1")

    @classmethod
    def exhaustive(cls, labels: Iterable[str]) -> "InputSchedule":
        """All 2^n assignments in binary order; first sorted label is the
        most significant bit, with -1 as the 0 bit.  No labels give one
        empty vector, so a layout driven only by fixed cells runs once.
        More than MAX_EXHAUSTIVE_INPUTS labels raise ValueError."""
        names = tuple(sorted(labels))
        n = len(names)
        if n > MAX_EXHAUSTIVE_INPUTS:
            raise ValueError(f"{n} inputs exceed the exhaustive limit of {MAX_EXHAUSTIVE_INPUTS}")
        vectors = itertools.product(*(((name, -1), (name, +1)) for name in names))
        return cls(names, tuple(vectors))

    @classmethod
    def explicit(
        cls, labels: Iterable[str], vectors: Iterable[Mapping[str, int]]
    ) -> "InputSchedule":
        """A caller-chosen vector list; every vector must assign every label."""
        return cls(tuple(sorted(labels)), tuple(tuple(sorted(vec.items())) for vec in vectors))


def bistable_response(x: float) -> float:
    """Saturating cell response, odd in x, within [-1, 1]; exactly +-1
    where x * x overflows."""
    xx = x * x
    return x / math.sqrt(1.0 + xx) if xx != math.inf else math.copysign(1.0, x)


def _pinned_map(layout: Layout, assignments: Mapping[str, int]) -> dict[int, float]:
    """Resolve fixed roles plus explicit assignments into index -> value."""
    index = {cell.id: i for i, cell in enumerate(layout.cells)}
    pinned: dict[int, float] = {}
    for i, cell in enumerate(layout.cells):
        if cell.role.kind is RoleKind.FIXED:
            pinned[i] = float(cell.role.polarization)
    for cell_id, value in assignments.items():
        if cell_id not in index:
            raise ValueError(f"assignment names unknown cell {cell_id!r}")
        if value not in (-1, 1):
            raise ValueError(f"assignment for {cell_id!r} must be -1 or +1")
        i = index[cell_id]
        if i in pinned and pinned[i] != float(value):
            raise ValueError(f"assignment contradicts fixed cell {cell_id!r}")
        pinned[i] = float(value)
    for i, cell in enumerate(layout.cells):
        if cell.role.kind is RoleKind.INPUT and i not in pinned:
            raise ValueError(f"input cell {cell.id!r} ({cell.role.label}) not assigned")
    return pinned


def _free_rows(
    layout: Layout, couplings: Sequence[Neighbours], pinned: Mapping[int, float], p: list[float]
) -> list[Row]:
    """Write the pins into ``p``; return the free cells' rows in sweep order."""
    for i, value in pinned.items():
        p[i] = value
    return [(i, c.zone, couplings[i]) for i, c in enumerate(layout.cells) if i not in pinned]


def _sweep_limit(rows: Sequence[Row]) -> int:
    """The most sweeps one relaxation of ``rows`` may take: max(_MAX_SWEEPS,
    _SWEEP_BUDGET // free rows)."""
    return max(_MAX_SWEEPS, _SWEEP_BUDGET // len(rows)) if rows else _MAX_SWEEPS


def _sweep(p: list[float], rows: list[Row], gammas: Sequence[float]) -> int:
    """The Gauss-Seidel loop: update the free rows of ``p`` in place until
    the largest change in one sweep drops below ``_TOLERANCE``.  Returns the
    sweeps used; raises ConvergenceFailure after ``_sweep_limit`` sweeps.  It
    is relax's loop, _cycles' first tier and the reference for
    _sweepgen.compile_sweep, whose update drops the overflow branch (its
    docstring says why).  The residual, max |d|, is the largest rise or fall."""
    g = (2.0 * gammas[0], 2.0 * gammas[1], 2.0 * gammas[2], 2.0 * gammas[3])  # cheaper than a comprehension
    # _sweep_limit is read only past _MAX_SWEEPS sweeps: reading it costs about
    # 0.2 us, a fifth of a call that converges at once on a 5-cell layout
    residual, done, limit = 0.0, 0, _MAX_SWEEPS
    while done < limit:
        for sweep in range(done + 1, limit + 1):
            rise = fall = 0.0
            for i, zone, neighbours in rows:
                total = 0.0
                for j, e_kink in neighbours:
                    total += e_kink * p[j]
                x = total / g[zone]
                xx = x * x  # bistable_response, inlined: one call less per update
                new = x / math.sqrt(1.0 + xx) if xx != math.inf else math.copysign(1.0, x)
                d = new - p[i]
                if d > rise:
                    rise = d
                elif d < fall:
                    fall = d
                p[i] = new
            residual = -fall if -fall > rise else rise
            if residual < _TOLERANCE:
                return sweep
        done, limit = limit, limit if done else _sweep_limit(rows)
    raise ConvergenceFailure(residual)


# A compile of some rows (_sweepgen) is repaid by about _COMPILE_FIXED +
# _COMPILE_PER_ROW * rows cell updates run compiled instead of by _sweep, and
# each compiled call's set-up costs what about _COMPILED_CALL such updates save.
# ROWS_PER_PART is the one threshold and part size: a run (_runs) of that many
# rows or more compiles as one loop and counts as one row.  CPython 3.11,
# 2-vCPU Xeon, fresh process: importing _sweepgen from source takes 2.2 ms
# (0.2 ms from a bytecode cache), a first compile 0.25 ms + 0.09 ms per row, a
# compiled call 2 us more, and a compiled update saves about 0.2 us (0.15 to
# 0.22; in a run's loop 0.1 to 0.17), so the import and first compile weigh
# ~12,000 updates, a row ~450 and a call ~10.
# A loop also fills the rows after a flat window by one slice store, which
# these prices leave out: it makes a settled wire's updates cheaper still.
# Before its first sample a run prices each sample to relax at one sweep less
# _COMPILED_CALL: wire:512 (six rows priced, 14,400 updates) compiles from
# sample 0 under sim, as 501 x 128 = 64,128 reaches twice that.
_COMPILE_FIXED, _COMPILE_PER_ROW, _COMPILED_CALL, ROWS_PER_PART = 12000, 400, 10, 32


def _runs(rows: Sequence[Row]) -> list[tuple[int, int]]:
    """The (first, stop) slices of ``rows`` that _sweepgen compiles as loops: ``ROWS_PER_PART`` or
    more rows of consecutive cells in one zone whose neighbours lie at the same offsets, in the same
    order, with the same energies, and fill every offset from the lowest to the highest but 0."""
    runs, first, last = [], 0, None
    for k, (i, zone, neighbours) in enumerate([*rows, (0, -1, ())]):  # zone -1 ends the last run
        key = (i - k, zone, [j - i for j, _ in neighbours], [e for _, e in neighbours])
        if key != last:
            if k - first >= ROWS_PER_PART and max(0, 0, *last[2]) - min(0, 0, *last[2]) == len(last[2]):
                runs.append((first, k))
            first, last = k, key
    return runs


def relax(
    layout: Layout,
    assignments: Mapping[str, int],
    gamma_per_zone: Sequence[float],
    initial_p: Sequence[float] | None = None,
) -> tuple[list[float], int]:
    """Gauss-Seidel relaxation to a bistable fixed point at fixed gammas.

    ``assignments`` pins cells by id (every input must be covered; fixed
    cells are pinned automatically).  Sweeps update free cells in layout
    order until the largest per-sweep change drops below 1e-7.  Returns
    (polarizations, sweeps used); raises ConvergenceFailure if
    max(1,000, 10^6 // free cells) sweeps are not enough.  Chained over a
    clock cycle via ``initial_p`` from zeros, it reproduces ``simulate``'s
    trace exactly.
    """
    if len(gamma_per_zone) != 4 or any(g <= 0 for g in gamma_per_zone):
        raise ValueError("gamma_per_zone must be four positive energies")
    pinned = _pinned_map(layout, assignments)
    p = [0.0] * len(layout.cells) if initial_p is None else list(initial_p)
    if len(p) != len(layout.cells):
        raise ValueError("initial_p length must match cell count")
    rows = _free_rows(layout, coupling_map(layout), pinned, p)
    return p, _sweep(p, rows, gamma_per_zone)


class TraceSample(NamedTuple):
    """State after relaxing one clock sample of one vector."""

    vector_index: int
    sample_index: int
    gammas: tuple[float, float, float, float]
    polarizations: tuple[float, ...]
    iterations: int


class Trace(NamedTuple):
    """Full per-sample history of a simulation run."""

    cell_ids: tuple[str, ...]
    vectors: tuple[Vector, ...]
    samples_per_cycle: int
    samples: tuple[TraceSample, ...]


class MirroredBlock:
    """The samples of mirrored vector ``vector``: those of relaxed ``block``
    (vector ``source``), each free P negated as ``0.0 - v`` and each pin
    taken from ``pinned``.  Iterating yields them one by one; a run of
    samples sharing one P tuple shares one negated tuple.  A layout with
    fixed cells never mirrors, so every pin is ``0.0 -`` the source's, and a
    trace writer may format a row from the source P alone (see
    ``qcl.trace_csv_writer``)."""

    __slots__ = ("block", "source", "vector", "pinned")

    def __init__(self, block: Sequence[TraceSample], source: int, vector: int, pinned: Mapping[int, float]) -> None:
        self.block, self.source, self.vector, self.pinned = block, source, vector, pinned

    def negated(self, polarizations: Sequence[float]) -> tuple[float, ...]:
        """A source P as the mirror's: one float per pin, as when relaxed."""
        flipped = [0.0 - v for v in polarizations]
        for i, value in self.pinned.items():
            flipped[i] = value
        return tuple(flipped)

    def __iter__(self) -> Iterator[TraceSample]:
        source = mirrored = None
        for _, s, gammas, polarizations, iters in self.block:
            if polarizations is not source:
                source, mirrored = polarizations, self.negated(polarizations)
            yield tuple.__new__(TraceSample, (self.vector, s, gammas, mirrored, iters))


def _cycles(
    layout: Layout, clock: ClockConfig, schedule: InputSchedule, hold: bool, stop: int | None = None
) -> Iterator[tuple[Iterable[TraceSample] | None, int | None]]:
    """Every run's generator: per vector, its samples and the vector it
    mirrors (None if relaxed).  With ``hold`` a relaxed block is held until
    its last mirror takes it, and a mirror's samples come as a
    ``MirroredBlock`` of it, which negates each P only when iterated (a
    trace writer that kept the runs of that block's P tuples formats a row
    from them instead); without, a mirror comes without samples.  With
    ``stop`` a relaxed block ends after its first ``stop`` samples.

    Inputs stay pinned at the vector's values for the whole cycle while the
    zone gammas sweep through the four phases.  Every vector anneals from
    unpolarized free cells: at the default permittivity the cell coupling
    dwarfs even the lowered barrier energy, so state carried across a
    vector boundary would latch a stable domain wall against the flipped
    input instead of following it.  Per-vector annealing also makes the
    vectors order independent.  Pins and free-cell neighbour rows are
    built once per vector, and each sample runs ``relax``'s loop on them.
    The cell updates of this run, less a set-up allowance per sample, are
    its work.  Once its mean per relaxed sample times the samples left to
    relax (up to ``stop``, counted before the first) reaches twice the
    compile cost of the rows, the samples run a loop compiled for them
    instead, with the same bytes; every vector pins the same cells, so
    later vectors reuse it.  Before sample 0 the mean is its floor, one
    sweep of the rows less the allowance.  The margin of 2 keeps
    interpreted a run whose heaviest samples come first, as on wire:48 at
    eps_r 1.  On wire:64 and longer most rows form one run (``_runs``),
    priced as one row: under sim, wire:64 to wire:235 switch after sample 0
    and longer wires before it (under truth, which relaxes 64 samples of a
    cycle, from wire:461).

    A sample is not relaxed where the last one took one sweep that ended
    where it began, at the same gamma in each zone a free row uses: it
    shares that P tuple, records 1 sweep and counts one sweep of work.  This
    is exact.  A row reads only its zone's gamma, so the state is a fixed
    point of one sweep at these gammas: the loop would change nothing, see
    residual 0.0 below ``_TOLERANCE`` (positive, as that sweep converged)
    and return 1.  Equal P is equal bits: no free cell holds -0.0 (each
    total starts at ``0.0 +``), and as a sweep stores a new float in each
    free cell, a NaN equals no earlier value, not even by identity.  A
    vector mirrors the latest relaxed complement (every input flipped) when
    the layout has no fixed cells: the update is odd and every free zero is
    +0.0, so the negated cycle is exact.
    """
    if set(schedule.labels) != set(layout.input_labels()):
        raise ValueError(f"schedule labels {schedule.labels} do not match layout inputs")
    mirror = not layout.fixed_cells()
    relaxed: dict[Vector, int] = {}
    sources: list[int | None] = []
    for vi, vector in enumerate(schedule.vectors):
        sources.append(relaxed.get(tuple((label, -value) for label, value in vector)) if mirror else None)
        if sources[-1] is None:
            relaxed[vector] = vi
    last = {k: vi for vi, k in enumerate(sources) if k is not None and hold}
    held: dict[int, list[TraceSample]] = {}
    by_label = {c.role.label: c.id for c in layout.inputs()}
    couplings = coupling_map(layout)
    cycle, new = clock._cycle[:stop], tuple.__new__  # new skips the NamedTuple's Python __new__
    loop, work, done, left, runs = _sweep, 0, 0, sources.count(None) * len(cycle), None
    for vi, (vector, k) in enumerate(zip(schedule.vectors, sources)):
        pinned = _pinned_map(layout, {by_label[label]: value for label, value in vector})
        if k is not None:  # the last mirror of a block pops it
            yield (MirroredBlock(held.pop(k) if last[k] == vi else held[k], k, vi, pinned) if hold else None), k
            continue
        p = [0.0] * len(layout.cells)
        rows = _free_rows(layout, couplings, pinned, p)
        if runs is None:  # every relaxed vector pins the same cells, so has the same rows
            runs, used = _runs(rows), {zone for _, zone, _ in rows}
            cost = _COMPILE_FIXED + _COMPILE_PER_ROW * (len(rows) - sum(stop - first - 1 for first, stop in runs))
            key_of = operator.itemgetter(*used) if used else lambda gammas: ()
        block: list[TraceSample] = []
        state = fixed = None  # the last sample's P; the used gammas it is a fixed point at
        for s, gammas in enumerate(cycle):
            # the work left, projected by the mean so far; before sample 0, by the floor of a
            # sample: one sweep of the free rows, less a call's set-up
            if loop is _sweep and (
                work * (left - done) >= 2 * cost * done if done else (len(rows) - _COMPILED_CALL) * left >= 2 * cost
            ):
                from ._sweepgen import compile_sweep  # parsed only by runs that switch

                loop = compile_sweep(rows, runs)
            iters, key = 1, key_of(gammas)
            if key != fixed:
                try:
                    iters = loop(p, rows, gammas)
                except ConvergenceFailure as fail:
                    raise ConvergenceFailure(fail.residual, vi, s) from None
                start, state = state, tuple(p)
                fixed = key if iters == 1 and state == start else None
            block.append(new(TraceSample, (vi, s, gammas, state, iters)))
            work += iters * len(rows) - _COMPILED_CALL
            done += 1
        if vi in last:
            held[vi] = block
        yield block, None


def simulate(layout: Layout, clock: ClockConfig, schedule: InputSchedule) -> Trace:
    """Run one clock cycle per input vector (see ``_cycles``) and keep every
    sample: vectors x samples_per_cycle x cells floats."""
    samples = tuple(s for block, _ in _cycles(layout, clock, schedule, True) for s in block)
    return Trace(tuple(c.id for c in layout.cells), schedule.vectors, clock.samples_per_cycle, samples)


class OutputReading(NamedTuple):
    """Steady and peak polarization of one output during one vector."""

    output: str
    vector_index: int
    steady: float
    max_abs: float


class Measurement(_Record):
    """Each output's readings over the input vectors, output-major; each
    ``max_abs`` is NaN (not measured) from ``stream_measurement(..., peaks=False)``."""

    def __init__(self, vectors: tuple[Vector, ...], readings: tuple[OutputReading, ...]) -> None:
        self.__dict__.update(vectors=vectors, readings=readings)

    @functools.cached_property
    def _by_key(self) -> dict[tuple[str, int], OutputReading]:
        index: dict[tuple[str, int], OutputReading] = {}
        for r in self.readings:
            index.setdefault((r.output, r.vector_index), r)
        return index

    def reading(self, output: str, vector_index: int) -> OutputReading:
        """The first reading of ``output`` for ``vector_index``; KeyError
        ((output, vector_index)) if there is none."""
        return self._by_key[output, vector_index]


def _outputs(layout: Layout, n: int) -> list[tuple[str, int, int]]:
    """(label, cell index, steady sample) of each output, in layout order: the
    steady sample is the last of its zone's hold quarter, mod the cycle of ``n``."""
    quarter = n // 4
    return [
        (c.role.label, i, (2 * quarter - 1 + c.zone * quarter) % n)
        for i, c in enumerate(layout.cells)
        if c.role.kind is RoleKind.OUTPUT
    ]


def _read(
    outputs: list[tuple[str, int, int]], vectors: tuple[Vector, ...], blocks: Iterable[tuple[Any, int | None]],
    write: Callable[[Iterable[TraceSample]], object] | None = None, peaks: bool = True,
) -> Measurement:
    """Pass each vector's samples to ``write``; read each of the ``_outputs``'
    steady P and, with ``peaks``, its peak |P| (else NaN) in one pass, a
    mirror's from its source's.  NoOutputError comes last."""
    per_vector: list[list[tuple[float, float]]] = []
    for block, k in blocks:
        if write:
            write(block)
        if k is not None:
            per_vector.append([(0.0 - steady, peak) for steady, peak in per_vector[k]])
        else:
            rows = [s.polarizations for s in block]
            per_vector.append([
                (rows[at][i], max(map(abs, map(operator.itemgetter(i), rows))) if peaks else math.nan)
                for _, i, at in outputs
            ])
    if not outputs:
        raise NoOutputError("layout has no output cells")
    readings = (
        OutputReading(label, vi, *per_vector[vi][o])
        for o, (label, _, _) in enumerate(outputs)
        for vi in range(len(vectors))
    )
    return Measurement(vectors, tuple(readings))


def measure(trace: Trace, layout: Layout) -> Measurement:
    """Reduce a trace to per-output, per-vector readings, output-major:
    steady P at the last sample of the output zone's hold quarter (mod the
    cycle), and the peak |P| over the vector's samples."""
    n = trace.samples_per_cycle
    blocks = ((trace.samples[at : at + n], None) for at in range(0, len(trace.vectors) * n, n))
    return _read(_outputs(layout, n), trace.vectors, blocks)


def stream_measurement(
    layout: Layout, clock: ClockConfig, schedule: InputSchedule,
    write: Callable[[Iterable[TraceSample]], object] | None = None, *, peaks: bool = True,
) -> Measurement:
    """``measure(simulate(layout, clock, schedule), layout)`` without keeping
    the samples.  ``write``, if given, takes each vector's samples in trace
    order (a mirror's as a ``MirroredBlock``), and only the relaxed blocks a
    later mirror still needs are held.
    With ``peaks=False`` each ``max_abs`` is NaN (not measured), and without
    ``write`` each cycle is relaxed only through the last output's steady
    sample: the steady bits stay, but a ConvergenceFailure after it is not seen."""
    outputs = _outputs(layout, clock.samples_per_cycle)
    stop = None if peaks or write else 1 + max((at for _, _, at in outputs), default=-1)
    blocks = _cycles(layout, clock, schedule, write is not None, stop)
    return _read(outputs, schedule.vectors, blocks, write, peaks)


class OutputVerdict(NamedTuple):
    output: str
    expected: bool
    steady: float
    passed: bool  # sign matches expectation and |steady| >= TRUTH_MARGIN


class VectorVerdict(NamedTuple):
    vector_index: int
    inputs: Vector
    outputs: tuple[OutputVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outputs)


class TruthResult(NamedTuple):
    verdicts: tuple[VectorVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def truth_check(
    measurement: Measurement, expected: Callable[[Mapping[str, bool]], bool]
) -> TruthResult:
    """Compare measured output signs against a boolean truth function.

    ``expected`` maps input labels (True for +1) to the wanted output
    level; every output cell must show that level with at least
    TRUTH_MARGIN of steady polarization.
    """
    verdicts: list[VectorVerdict] = []
    outputs = sorted({r.output for r in measurement.readings})
    for vi, vector in enumerate(measurement.vectors):
        input_bits = {label: value > 0 for label, value in vector}
        want = bool(expected(input_bits))
        rows = []
        for name in outputs:
            r = measurement.reading(name, vi)
            sign_ok = (r.steady > 0) == want
            margin_ok = abs(r.steady) >= TRUTH_MARGIN
            rows.append(OutputVerdict(name, want, r.steady, sign_ok and margin_ok))
        verdicts.append(VectorVerdict(vi, vector, tuple(rows)))
    return TruthResult(tuple(verdicts))
