"""Generated Gauss-Seidel sweeps.  ``engine._cycles`` imports this module
only when a relaxation has run long enough to repay compiling one.  A run of
alike rows (``engine._runs``, as along a wire) compiles as one loop, which
fills a flat stretch of rows with one slice store (see _compile_loop).  The
update drops the overflow branch (see compile_sweep)."""

from __future__ import annotations

import math
import operator
from itertools import islice
from typing import Callable, Iterator, Sequence

from . import engine

__all__ = ["compile_sweep"]

# The compiler holds about 36 kB per row of source while it runs, so rows
# compile in parts of engine.ROWS_PER_PART, and a run of as many or more as one
# loop; sums split every TERMS_PER_LINE terms so no expression nests deep
# enough to exhaust the compiler's stack.  Under X_MARGIN, x * x stays finite:
# sqrt(DBL_MAX) is about 1.34e154.
TERMS_PER_LINE, X_MARGIN = 64, 1e150


def _update(zone: int, terms: list[str], cell: str) -> list[str]:
    """Lines that set ``new`` to the update of ``cell`` from its ``terms``
    (``e * P`` texts, in neighbour order) and fold its change into rise/fall."""
    lines, x = [], "0.0"
    for k in range(0, len(terms), TERMS_PER_LINE):
        if k:
            lines.append(f"x = {x}")
            x = "x"
        x = " + ".join([x, *terms[k : k + TERMS_PER_LINE]])
    return lines + [
        f"x = ({x}) / g{zone}",
        "new = x / sqrt(1.0 + x * x)",
        f"d = new - {cell}",
        "if d > rise: rise = d",
        "elif d < fall: fall = d",
    ]


def _part(lines: list[str]) -> Callable[..., Iterator[float]]:
    namespace = dict(sqrt=math.sqrt, islice=islice)
    exec(compile("\n".join(["def part(p, g0, g1, g2, g3):", *lines]), "<qcasim sweep>", "exec"), namespace)
    return namespace["part"]


def _compile_part(rows: Sequence[engine.Row], shared: set[int]) -> Callable[..., Iterator[float]]:
    """A generator that sweeps ``rows`` once per step, with each P in a local
    c<index>, and yields the largest change.  A step reloads the ``shared``
    cells (free cells read across parts) it does not own and stores those it
    owns; closing the generator stores all of its cells."""
    own = [i for i, _, _ in rows]
    used = {*own, *(j for _, _, neighbours in rows for j, _ in neighbours)}
    reload = sorted((used & shared).difference(own))
    body = [f"c{j} = p[{j}]" for j in reload] + ["rise = fall = 0.0"]
    for i, zone, neighbours in rows:
        body += _update(zone, [f"{e!r} * c{j}" for j, e in neighbours], f"c{i}") + [f"c{i} = new"]
    body += [f"p[{i}] = c{i}" for i in own if i in shared] + ["yield -fall if -fall > rise else rise"]
    return _part(
        [f"    c{j} = p[{j}]" for j in sorted(used.difference(reload))]
        + ["    try:", "        while True:", *(f"            {line}" for line in body), "    finally:"]
        + [f"        p[{i}] = c{i}" for i in own]
    )


def _compile_loop(rows: Sequence[engine.Row], shared: set[int]) -> Callable[..., Iterator[float]]:
    """A generator that sweeps a run of ``rows`` once per step, as one loop
    over i that reads and writes p (so it needs no ``shared``), and yields
    the largest change.  Row i reads a window of locals (m3 holds p[i - 3],
    w p[i], q1 p[i + 1], ...): each pass loads the newest and slides it.
    Where the window is flat (new equals every m, and w every q), each next
    row whose newest cell p[k] still equals w reads the same window, so
    computes the same new and d: one slice stores new into them all and the
    loop resumes at the first other row.  The scan for it gallops, slices of
    n cells against [w] * n with n doubling, then halving.  Float == is bit
    equality here: a +-0.0 term cannot change a sum that starts 0.0 +, new
    is never -0.0, so new - w has the same bits for w = +-0.0.  List ==
    (identity, then ==) differs from float == only for a NaN, and p holds
    none here: every P stays in [-1, 1] (see compile_sweep)."""
    first, zone, neighbours = rows[0]
    offsets = [j - first for j, _ in neighbours]
    window = range(min(0, 0, *offsets), max(0, 0, *offsets) + 1)
    name = {o: f"m{-o}" if o < 0 else f"q{o}" if o else "w" for o in window}
    terms = [f"{e!r} * {name[o]}" for o, (_, e) in zip(offsets, neighbours)]
    hi, stop = window[-1], first + len(rows)
    chains = (["new", *(name[o] for o in reversed(window) if o < 0)], [name[o] for o in window if o >= 0])
    flat = " and ".join(" == ".join(chain) for chain in chains if len(chain) > 1) or "True"
    head = [f"{name[o]} = p[{first + o}]" for o in window[:-1]] + [f"rows = iter(range({first}, {stop}))", "rise = fall = 0.0"]
    body = [f"{name[hi]} = p[i + {hi}]", *_update(zone, terms, "w"), "p[i] = new", f"if {flat}:"]
    # k ends at the first cell from i + hi + 1 that differs from w, or at the limit stop + hi
    body += [f"    k, n = i + {hi + 1}, 1", f"    while k + n <= {stop + hi} and p[k:k + n] == [w] * n:"]
    body += ["        k += n", "        n += n", "    while n > 1:", "        n >>= 1"]
    body += [f"        if k + n <= {stop + hi} and p[k:k + n] == [w] * n:", "            k += n"]
    body += [f"    if k > i + {hi + 1}:", f"        p[i + 1:k - {hi}] = [new] * (k - i - {hi + 1})"]
    body += [f"        next(islice(rows, k - i - {hi + 2}, None))"]
    body += [f"{name[o]} = {'new' if o == -1 else name[o + 1]}" for o in window[:-1]]
    return _part(
        ["    while True:", *(f"        {line}" for line in head)]
        + ["        for i in rows:", *(f"            {line}" for line in body)]
        + ["        yield -fall if -fall > rise else rise"]
    )


def compile_sweep(rows: Sequence[engine.Row], runs: Sequence[tuple[int, int]]) -> Callable[..., int]:
    """_sweep over ``rows`` as generated code: the same contract and the
    same float operations in the same order, less the overflow branch.
    ``runs`` is the plan _cycles priced, ``engine._runs(rows)``.  The source
    holds only integer indices, finite float reprs and fixed text, so every
    kink energy must be finite; a kernel gives no other (a zero distance
    raises).  With every P in [-1, 1], as pins and updates keep it, |x| <=
    the row's sum of |E| / (2 gamma): a call where that may reach X_MARGIN
    in some zone runs ``engine._sweep`` instead."""
    parts, at, size = [], 0, engine.ROWS_PER_PART  # (compiler, rows) in sweep order
    for first, stop in [*runs, (len(rows), 0)]:  # (len(rows), 0) adds the rows after the last run
        parts += [(_compile_part, rows[k : min(k + size, first)]) for k in range(at, first, size)]
        parts += [(_compile_loop, rows[first:stop])] if stop else []
        at = stop
    # a run's rows share their energies, and its first and last read all it reads but does not own
    ends = [part if make is _compile_part else (part[0], part[-1]) for make, part in parts]
    seen = [(k, row) for k, rows_of in enumerate(ends) for row in rows_of]
    if not all(math.isfinite(e) for _, (_, _, neighbours) in seen for _, e in neighbours):
        raise ValueError("a sweep compiles only over finite kink energies")
    limits = [0.0] * 4  # per zone, the 2 gamma at or under which some |x| may reach X_MARGIN
    for _, (_, zone, neighbours) in seen:  # a row sum of |E| that overflows makes its limit inf
        limits[zone] = max(limits[zone], sum(abs(e) for _, e in neighbours) / X_MARGIN)
    owner = {i: k for k, (_, part) in enumerate(parts) for i, _, _ in part}
    shared = {j for k, (_, _, neighbours) in seen for j, _ in neighbours if owner.get(j, k) != k}
    makers = [make(part, shared) for make, part in parts]

    def sweep(p, rows, gammas):
        g = [2.0 * gamma for gamma in gammas]
        if any(map(operator.le, g, limits)):
            return engine._sweep(p, rows, gammas)
        running = [make(p, *g) for make in makers]
        try:
            residual = 0.0
            for n in range(1, engine._sweep_limit(rows) + 1):
                residual = 0.0
                for part in running:
                    r = next(part)
                    if r > residual:
                        residual = r
                if residual < engine._TOLERANCE:
                    return n
            raise engine.ConvergenceFailure(residual)
        finally:
            for part in running:
                part.close()

    return sweep
