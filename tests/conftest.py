"""Shared pytest wiring.

test_acceptance.py records one line per acceptance criterion through
record_acceptance; the hook below prints the block after the test summary
so every run ends with an explicit pass/FAIL line per criterion.

``--hypothesis-profile=deep`` gives a property test without its own
``max_examples`` a budget of 2,000 examples; CI runs the compiled sweep's
equivalence test so.  Without the flag Hypothesis keeps its default.
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, passed: bool) -> None:
    ACCEPTANCE_LINES.append(f"acceptance: {name}: {'pass' if passed else 'FAIL'}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
