"""Outside-in layer trace of one op, installed in the child after import.

Each public layer function is replaced, in the namespace of the module that
calls it, by a wrapper that records a span: name, start, end and parent
span.  Spans stay in memory and are written when the op ends.  Counters are
taken from the arguments and returned objects (Layout, Trace, KinkReport)
after the op, so building them costs no time inside a span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> {function name -> layer}
WRAPPED = {
    "qcasim.cli": {
        "main": "cli",
        "run_sweep": "sweep",
        "parse_qcl": "parse",
        "parse_vectors": "parse",
        "validate": "validate",
        "simulate": "simulate",
        "measure": "measure",
        "truth_check": "truth",
        "circuit_kink_energy": "scan",
        "serialize_qcl": "export",
        "trace_csv": "export",
        "measurement_csv": "export",
        "kink_report_csv": "export",
        "sweep_csv": "export",
        "format_trend_comparison": "export",
        "gen_wire": "gen",
        "gen_majority": "gen",
        "gen_conventional_inverter": "gen",
        "gen_minimal_inverter": "gen",
    },
    "qcasim.engine": {
        "coupling_map": "coupling",
        "relax": "relax",
        "kink_energy": "kink",
    },
    "qcasim.electrostatics": {
        "kink_energy": "kink",
    },
}

# layer -> metric that receives the layer's self time (span minus children)
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "sweep": "cli.sweep_self_s",
    "parse": "qcl.parse_s",
    "export": "qcl.export_s",
    "validate": "model.validate_s",
    "gen": "stdcells.gen_s",
    "kink": "electrostatics.kink_s",
    "scan": "electrostatics.scan_s",
    "coupling": "engine.coupling_self_s",
    "relax": "engine.relax_s",
    "simulate": "engine.simulate_self_s",
    "measure": "engine.measure_s",
    "truth": "engine.truth_s",
}

# Every metric Tracer.metrics returns, in the order they are reported.
LAYER_METRICS = (
    "cli.self_s",
    "cli.sweep_self_s",
    "qcl.parse_s",
    "qcl.export_s",
    "qcl.export_bytes",
    "model.validate_s",
    "model.pairs_checked",
    "stdcells.gen_s",
    "electrostatics.kink_s",
    "electrostatics.kink_calls",
    "electrostatics.distinct_offsets",
    "electrostatics.offset_reuse",
    "electrostatics.scan_s",
    "electrostatics.pairs_examined",
    "electrostatics.pairs_in_range",
    "electrostatics.in_range_ratio",
    "engine.coupling_s",
    "engine.coupling_self_s",
    "engine.relax_s",
    "engine.relax_calls",
    "engine.simulate_self_s",
    "engine.sweeps_total",
    "engine.sweeps_max",
    "engine.cell_updates",
    "engine.ns_per_cell_update",
    "engine.cell_samples_per_s",
    "engine.trace_values",
    "engine.measure_s",
    "engine.truth_s",
    "engine.convergence_failures",
    "trace.unaccounted_s",
)

# Counters that must repeat exactly whenever the same code runs the same input.
EXACT_COUNTERS = (
    "engine.sweeps_total",
    "engine.sweeps_max",
    "engine.relax_calls",
    "engine.trace_values",
    "electrostatics.pairs_in_range",
    "electrostatics.pairs_examined",
    "electrostatics.distinct_offsets",
    "electrostatics.kink_calls",
    "qcl.export_bytes",
)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


class Tracer:
    """Spans and the returned objects that counters are read from, for one op."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.layer_of: dict[str, str] = {}
        self.seen: dict[str, list] = defaultdict(list)
        self.convergence_failures = 0

    def install(self) -> None:
        for module_name, names in WRAPPED.items():
            module = sys.modules[module_name]
            for attr, layer in names.items():
                name = f"{module_name}.{attr}"
                self.layer_of[name] = layer
                setattr(module, attr, self._wrap(getattr(module, attr), name, layer))

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, seen, clock = self.spans, self.stack, self.seen, time.perf_counter
        keep = layer in ("validate", "scan", "coupling", "relax", "simulate", "export")

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if layer == "relax" and type(exc).__name__ == "ConvergenceFailure":
                    self.convergence_failures += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if keep:
                seen[layer].append((args, result))
            return result

        return traced

    def write_spans(self, path: str, op: int) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([op, name, start, end, parent]) + "\n")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-op layer metrics; ``wall_s`` is the op's traced wall time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        coupling_s = simulate_s = 0.0
        kink_calls = 0
        for (name, start, end, _), children in zip(spans, child_time):
            layer = self.layer_of[name]
            out[SELF_TIME_METRIC[layer]] += end - start - children
            if layer == "coupling":
                coupling_s += end - start
            elif layer == "simulate":
                simulate_s += end - start
            elif layer == "kink":
                kink_calls += 1
        out["engine.coupling_s"] = coupling_s
        out["electrostatics.kink_calls"] = kink_calls
        # Every span's self time is counted once, so the self times add up
        # to the time inside cli.main; the rest of the wall time is here.
        out["trace.unaccounted_s"] = wall_s - sum(out[m] for m in SELF_TIME_METRIC.values())
        out.update(self._counters(simulate_s, out["engine.relax_s"]))
        return out

    def _counters(self, simulate_s: float, relax_s: float) -> dict[str, float]:
        seen = self.seen
        examined = in_range = distinct = 0
        for (layout, *_), neighbours in seen["coupling"]:
            cells = layout.cells
            examined += _pairs(len(cells))
            offsets = set()
            for i, row in enumerate(neighbours):
                a = cells[i]
                for j, _ in row:
                    if j > i:
                        offsets.add((cells[j].x - a.x, cells[j].y - a.y))
                        in_range += 1
            distinct += len(offsets)
        for (layout, *_), report in seen["scan"]:
            by_id = {cell.id: cell for cell in layout.cells}
            examined += _pairs(len(layout.cells))
            in_range += len(report.pairs)
            offsets = set()
            for pair in report.pairs:
                a, b = by_id[pair.id_a], by_id[pair.id_b]
                offsets.add((b.x - a.x, b.y - a.y))
            distinct += len(offsets)

        free_cells: dict[tuple, int] = {}
        sweeps_total = sweeps_max = cell_updates = 0
        for (layout, assignments, *_), (_, sweeps) in seen["relax"]:
            key = (id(layout), tuple(sorted(assignments)))
            if key not in free_cells:
                pinned = set(assignments)
                pinned.update(c.id for c in layout.fixed_cells())
                free_cells[key] = sum(1 for c in layout.cells if c.id not in pinned)
            sweeps_total += sweeps
            sweeps_max = max(sweeps_max, sweeps)
            cell_updates += sweeps * free_cells[key]
        trace_values = sum(len(t.samples) * len(t.cell_ids) for _, t in seen["simulate"])

        return {
            "qcl.export_bytes": sum(len(text.encode("utf-8")) for _, text in seen["export"]),
            "model.pairs_checked": sum(_pairs(len(args[0].cells)) for args, _ in seen["validate"]),
            "electrostatics.distinct_offsets": distinct,
            "electrostatics.offset_reuse": 1.0 - distinct / in_range if in_range else 0.0,
            "electrostatics.pairs_examined": examined,
            "electrostatics.pairs_in_range": in_range,
            "electrostatics.in_range_ratio": in_range / examined if examined else 0.0,
            "engine.relax_calls": len(seen["relax"]),
            "engine.sweeps_total": sweeps_total,
            "engine.sweeps_max": sweeps_max,
            "engine.cell_updates": cell_updates,
            "engine.ns_per_cell_update": relax_s * 1e9 / cell_updates if cell_updates else 0.0,
            "engine.cell_samples_per_s": trace_values / simulate_s if simulate_s else 0.0,
            "engine.trace_values": trace_values,
            "engine.convergence_failures": self.convergence_failures,
        }
