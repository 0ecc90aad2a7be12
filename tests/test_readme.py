"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), "README.md", "exec"), {})
    total, steady, passed = out.getvalue().splitlines()
    assert float(total) > 0
    assert round(float(steady), 4) == 0.9998  # "+0.9998 for a = -1"
    assert passed == "True"
