"""Checks on the benchmark's own input generator.

Run from the repository root: python3 perfbench/test_inputs.py
(or python3 -m pytest perfbench).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from qcasim.model import validate  # noqa: E402
from qcasim.qcl import parse_qcl  # noqa: E402


def _all_inputs():
    for workload, (build, variants) in inputs.WORKLOADS.items():
        for variant in range(variants):
            for name, data in build(variant).files.items():
                yield f"{workload}/{variant}/{name}", data


class GeneratorTest(unittest.TestCase):
    def test_jitter_keeps_cells_apart(self):
        self.assertLess(inputs.FABRIC_JITTER, (inputs.PITCH - inputs.CELL_SIZE) / 2)

    def test_every_input_validates(self):
        for where, data in _all_inputs():
            layout, _ = parse_qcl(data.decode("utf-8"))
            with self.subTest(input=where):
                self.assertEqual(validate(layout), [])

    def test_same_seed_same_bytes(self):
        for variant in (0, 7, inputs.FABRIC_VARIANTS - 1):
            self.assertEqual(inputs.fabric(variant), inputs.fabric(variant))
        for workload in inputs.WORKLOADS:
            self.assertEqual(
                inputs.variant_order(workload, 12345), inputs.variant_order(workload, 12345)
            )

    def test_different_seeds_different_fabric(self):
        layouts = {inputs.fabric(v) for v in range(inputs.FABRIC_VARIANTS)}
        self.assertEqual(len(layouts), inputs.FABRIC_VARIANTS)
        first_ops = {
            tuple(inputs.variant_order("fabric1k_kink", seed)[:4]) for seed in range(10)
        }
        self.assertEqual(len(first_ops), 10)

    def test_fabric_is_a_jittered_grid(self):
        layout, _ = parse_qcl(inputs.fabric(3).decode("utf-8"))
        self.assertEqual(len(layout.cells), inputs.FABRIC_SIDE ** 2)
        off_grid = 0
        for i, cell in enumerate(layout.cells):
            row, col = divmod(i, inputs.FABRIC_SIDE)
            self.assertLessEqual(abs(cell.x - col * inputs.PITCH), inputs.FABRIC_JITTER)
            self.assertLessEqual(abs(cell.y - row * inputs.PITCH), inputs.FABRIC_JITTER)
            off_grid += cell.x != col * inputs.PITCH
        self.assertGreater(off_grid, len(layout.cells) - 5)


if __name__ == "__main__":
    unittest.main()
