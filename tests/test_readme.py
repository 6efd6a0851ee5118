"""The README's library sketch runs as written and prints what its comments
say, and every command of its CLI block parses."""

import re
import shlex
from pathlib import Path

import pytest

from trifold.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    match = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert match, "no python block under '## Library sketch'"
    sketch = match.group(1)
    namespace = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    assert namespace["table"].count == 16
    # a print whose comment is a list literal prints that list
    printed = capsys.readouterr().out.splitlines()
    prints = re.findall(r"^print\(.*?\)\s*#\s*(.*)$", sketch, re.M)
    assert len(printed) == len(prints)
    for line, comment in zip(printed, prints):
        if comment.startswith("["):
            assert line == comment


def _cli_block_commands():
    text = README.read_text()
    match = re.search(r"^## CLI\n\n```sh\n(.*?)^```", text, re.S | re.M)
    assert match, "no sh block under '## CLI'"
    return [
        shlex.split(line, comments=True)[1:]
        for line in match.group(1).splitlines()
        if line.startswith("trifold ")
    ]


def test_cli_block_parses(capsys):
    commands = _cli_block_commands()
    assert {argv[0] for argv in commands} == {
        "check", "build", "verify", "automaton", "oracle", "curvature", "sample"
    }
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: trifold {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")
