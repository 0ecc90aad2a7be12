"""The README's library example and command lines run as shown."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from helpers import ROOT
from qcasim.cli import main

README = ROOT / "README.md"


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


def command_lines() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Command line\n.*?^```\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no command block under '## Command line'"
    lines = [shlex.split(line, comments=True) for line in match.group(1).splitlines()]
    return [argv for argv in lines if argv[:1] == ["qcasim"]]


def test_command_lines_exit_0_and_write_the_files_they_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("my_vectors.txt").write_text("a=-1\na=1\n", encoding="utf-8")
    commands = command_lines()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
        named = [argv[at + 1] for at, flag in enumerate(argv) if flag in ("--out", "--measure", "--compare")]
        assert all(Path(name).is_file() for name in named), " ".join(argv)
