"""The library runs on the Python standard library alone: every absolute
import in src/trifold is trifold itself or a standard-library module, so
pyproject.toml can keep `dependencies = []`."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "trifold").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_import_only_trifold_and_the_standard_library():
    assert SOURCES
    outside = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _absolute_imports(path)
        if name.partition(".")[0] not in {"trifold", *sys.stdlib_module_names}
    ]
    assert not outside, outside
