"""Generated Gauss-Seidel sweeps.  ``engine._cycles`` imports this module
only when a relaxation has run long enough to repay compiling one.  Their
update drops the overflow branch: with every P in [-1, 1], |x| <= row sum
|E| / (2 gamma), and a call where that may reach X_MARGIN runs engine._sweep."""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator, Sequence

from . import engine

__all__ = ["compile_sweep"]

# The compiler holds about 36 kB per row of source while it runs, so rows
# compile in parts of ROWS_PER_PART; sums split every TERMS_PER_LINE terms
# so no expression nests deep enough to exhaust the compiler's stack.  Under
# X_MARGIN, x * x stays finite: sqrt(DBL_MAX) is about 1.34e154.
ROWS_PER_PART, TERMS_PER_LINE, X_MARGIN = 32, 64, 1e150


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
        x = "0.0"
        for k in range(0, len(neighbours), TERMS_PER_LINE):
            if k:
                body.append(f"x = {x}")
                x = "x"
            x = " + ".join([x, *(f"{e!r} * c{j}" for j, e in neighbours[k : k + TERMS_PER_LINE])])
        body += [
            f"x = ({x}) / g{zone}",
            "new = x / sqrt(1.0 + x * x)",
            f"d = new - c{i}",
            "if d > rise: rise = d",
            "elif d < fall: fall = d",
            f"c{i} = new",
        ]
    body += [f"p[{i}] = c{i}" for i in own if i in shared] + ["yield -fall if -fall > rise else rise"]
    source = "\n".join(
        [
            "def part(p, g0, g1, g2, g3):",
            *(f"    c{j} = p[{j}]" for j in sorted(used.difference(reload))),
            "    try:",
            "        while True:",
            *(f"            {line}" for line in body),
            "    finally:",
            *(f"        p[{i}] = c{i}" for i in own),
        ]
    )
    namespace = dict(sqrt=math.sqrt)
    exec(compile(source, "<qcasim sweep>", "exec"), namespace)
    return namespace["part"]


def compile_sweep(rows: Sequence[engine.Row]) -> Callable[..., int]:
    """_sweep over ``rows`` as generated code: the same contract and the
    same float operations in the same order, less the overflow branch.  The
    source holds only integer indices, finite float reprs and fixed text, so
    every kink energy must be finite; a kernel gives no other (a zero
    distance raises).  With every P in [-1, 1], as pins and updates keep it,
    |x| <= the row's sum of |E| / (2 gamma): a call where that may reach
    X_MARGIN in some zone runs ``engine._sweep`` instead."""
    if not all(math.isfinite(e) for _, _, neighbours in rows for _, e in neighbours):
        raise ValueError("a sweep compiles only over finite kink energies")
    limits = [0.0] * 4  # per zone, the 2 gamma at or under which some |x| may reach X_MARGIN
    for _, zone, neighbours in rows:  # a row sum of |E| that overflows makes its limit inf
        limits[zone] = max(limits[zone], sum(abs(e) for _, e in neighbours) / X_MARGIN)
    parts = [rows[k : k + ROWS_PER_PART] for k in range(0, len(rows), ROWS_PER_PART)]
    owner = {i: k for k, part in enumerate(parts) for i, _, _ in part}
    reads = ((k, j) for k, part in enumerate(parts) for _, _, nb in part for j, _ in nb)
    shared = {j for k, j in reads if owner.get(j, k) != k}
    makers = [_compile_part(part, shared) for part in parts]

    def sweep(p, rows, gammas):
        g = [2.0 * gamma for gamma in gammas]
        if any(map(operator.le, g, limits)):
            return engine._sweep(p, rows, gammas)
        running = [make(p, *g) for make in makers]
        try:
            residual = 0.0
            for n in range(1, engine._MAX_SWEEPS + 1):
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
