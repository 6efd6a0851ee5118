"""The README's library sketch runs as written and prints what its comments say."""

import re
from pathlib import Path

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
