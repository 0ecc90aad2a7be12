"""Time ``qcasim sim LAYOUT --out FILE`` and ``qcasim truth LAYOUT --expect id``
in fresh processes, on each sweep tier.

Each run is a new child, ``python -B`` with ``PYTHONPYCACHEPREFIX`` set to an
empty folder, so the child reads no bytecode cache and compiles qcasim from
source, as a first run after an install or an edit does.  The child imports
``qcasim.cli`` and then times ``cli.main`` on one of the two commands, which
imports ``qcasim._sweepgen`` from source if the run switches tiers.  ``truth``
relaxes each cycle only through its last steady sample, so ``engine._cycles``
prices its shorter runs on their own and may switch at another sample.  Two
tiers per layout and command:

  auto         the tier ``engine._cycles`` picks (it may switch to the
               compiled sweep of ``qcasim._sweepgen``);
  interpreted  ``engine._COMPILE_FIXED`` patched to infinity in the child,
               so every sample runs ``engine._sweep``.

The runs go round the layouts, commands and tiers, ``--repeat`` times.  For
each layout, command and tier it prints the median and quartiles in ms, and
the vector and sample at which the run switched to the compiled tier, from
one more child that records it ("never" if the run never compiled).  Layouts:
``wire:N``, and ``gaas-zoned:N``, a wire at relative permittivity 12.9 with 16
cells in each clock zone, where the clock really releases cells.  Each is a
one-input wire, so ``truth`` checks it against ``id``.

Usage: python tools/tier_timing.py [--repeat N] [LAYOUT ...]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAYOUTS = ["wire:48", "wire:64", "wire:80", "wire:96", "wire:128", "wire:512", "gaas-zoned:128"]
TIERS = ["auto", "interpreted"]
COMMANDS = ["sim", "truth"]

# argv: tier, command, layout file, output file, "time" or "switch".  "time"
# prints the seconds main took; "switch" wraps _sweepgen.compile_sweep, which
# _cycles calls at the top of sample s of vector vi, and prints "v<vi> s<s>" or
# "never".  The last line printed is the child's answer.
CHILD = """\
import sys, time
from qcasim import cli, engine
tier, command, layout, out, mode = sys.argv[1:]
argv = ["sim", layout, "--out", out] if command == "sim" else ["truth", layout, "--expect", "id"]
if tier == "interpreted":
    engine._COMPILE_FIXED = float("inf")
switched = []
if mode == "switch":
    from qcasim import _sweepgen
    compile_sweep = _sweepgen.compile_sweep

    def recorded(*args):
        at = sys._getframe(1).f_locals
        switched.append(f"v{at['vi']} s{at['s']}")
        return compile_sweep(*args)

    _sweepgen.compile_sweep = recorded
start = time.perf_counter()
code = cli.main(argv)
seconds = time.perf_counter() - start
if code != 0:
    sys.exit(f"{command} exited {code}")
print(repr(seconds) if mode == "time" else (switched or ["never"])[0])
"""


def build(name: str):
    """The layout a name stands for."""
    from qcasim import GeometryParams, Layout, gen_wire

    kind, _, size = name.partition(":")
    if not size.isdigit() or kind not in ("wire", "gaas-zoned"):
        raise SystemExit(f"unknown layout {name!r}: use wire:N or gaas-zoned:N")
    if kind == "wire":
        return gen_wire(int(size))
    geometry = GeometryParams(relative_permittivity=12.9)
    cells = gen_wire(int(size), geometry).cells
    return Layout(geometry, [c._replace(zone=(i // 16) % 4) for i, c in enumerate(cells)])


def child(tier: str, command: str, layout: str, folder: str, mode: str) -> str:
    """The last stdout line of one fresh child."""
    cache = tempfile.mkdtemp(dir=folder)  # empty: nothing compiled to read
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONPYCACHEPREFIX": cache, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-B", "-c", CHILD, tier, command, layout, os.path.join(folder, "trace.csv"), mode]
    result = subprocess.run(argv, env=env, cwd=folder, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"{layout} ({command}, {tier}): {result.stderr.strip()}")
    return result.stdout.splitlines()[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed runs per layout and tier (default 15)")
    parser.add_argument("layouts", nargs="*", default=LAYOUTS, help="wire:N or gaas-zoned:N (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, SRC)
    from qcasim import serialize_qcl

    with tempfile.TemporaryDirectory() as folder:
        files = {}
        for name in args.layouts:
            files[name] = os.path.join(folder, name.replace(":", "_") + ".qcl")
            with open(files[name], "w", encoding="utf-8") as out:
                out.write(serialize_qcl(build(name)))
        runs = [(name, command, tier) for name in args.layouts for command in COMMANDS for tier in TIERS]
        switch = {(name, command, tier): child(tier, command, files[name], folder, "switch") for name, command, tier in runs}
        times: dict[tuple[str, str, str], list[float]] = {key: [] for key in runs}
        for k in range(args.repeat):
            for name in args.layouts:
                for command in COMMANDS:
                    for tier in TIERS[k % 2 :] + TIERS[: k % 2]:  # each tier runs first in turn
                        times[name, command, tier].append(1000 * float(child(tier, command, files[name], folder, "time")))
    print(f"{'layout':<16} {'command':<8} {'tier':<12} {'median ms':>10} {'q1':>8} {'q3':>8}  switch")
    for (name, command, tier), ms in times.items():
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1 else ms * 3
        print(f"{name:<16} {command:<8} {tier:<12} {median:>10.2f} {q1:>8.2f} {q3:>8.2f}  {switch[name, command, tier]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
