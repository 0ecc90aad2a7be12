"""Generated Gauss-Seidel sweeps.  ``engine._cycles`` imports this module
only when a relaxation has run long enough to repay compiling one."""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from . import engine

__all__ = ["compile_sweep"]

# The compiler holds about 36 kB per row of source while it runs, so rows
# compile in parts of ROWS_PER_PART; sums split every TERMS_PER_LINE terms
# so no expression nests deep enough to exhaust the compiler's stack.
ROWS_PER_PART, TERMS_PER_LINE = 32, 64


def _compile_part(rows: Sequence[engine.Row], shared: set[int]) -> Callable[..., Iterator[float]]:
    """A generator that sweeps ``rows`` once per step, with each P in a local
    c<index>, and yields the largest change.  A step reloads the ``shared``
    cells (free cells read across parts) it does not own and stores those it
    owns; closing the generator stores all of its cells."""
    own = [i for i, _, _ in rows]
    used = {*own, *(j for _, _, neighbours in rows for j, _ in neighbours)}
    reload = sorted((used & shared).difference(own))
    body = [f"c{j} = p[{j}]" for j in reload] + ["residual = 0.0"]
    for i, zone, neighbours in rows:
        x = "0.0"
        for k in range(0, len(neighbours), TERMS_PER_LINE):
            terms = [f"{e!r} * c{j}" for j, e in neighbours[k : k + TERMS_PER_LINE]]
            body.append(f"x = {' + '.join([x, *terms])}")
            x = "x"
        body += [
            f"x = {x} / g{zone}",
            "xx = x * x",
            "new = x / sqrt(1.0 + xx) if xx != inf else copysign(1.0, x)",
            f"d = abs(new - c{i})",
            "if d > residual: residual = d",
            f"c{i} = new",
        ]
    body += [f"p[{i}] = c{i}" for i in own if i in shared] + ["yield residual"]
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
    namespace = dict(sqrt=math.sqrt, copysign=math.copysign, inf=math.inf)
    exec(compile(source, "<qcasim sweep>", "exec"), namespace)
    return namespace["part"]


def compile_sweep(rows: Sequence[engine.Row]) -> Callable[..., int]:
    """_sweep over ``rows`` as generated code: the same contract and the
    same float operations in the same order.  The source holds only integer
    indices, finite float reprs and fixed text, so every kink energy must
    be finite; a kernel gives no other (a zero distance raises)."""
    if not all(math.isfinite(e) for _, _, neighbours in rows for _, e in neighbours):
        raise ValueError("a sweep compiles only over finite kink energies")
    parts = [rows[k : k + ROWS_PER_PART] for k in range(0, len(rows), ROWS_PER_PART)]
    owner = {i: k for k, part in enumerate(parts) for i, _, _ in part}
    reads = ((k, j) for k, part in enumerate(parts) for _, _, nb in part for j, _ in nb)
    shared = {j for k, j in reads if owner.get(j, k) != k}
    makers = [_compile_part(part, shared) for part in parts]

    def sweep(p, rows, gammas):
        g = [2.0 * gamma for gamma in gammas]
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
