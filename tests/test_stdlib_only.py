"""Censuses of src/trifold.

The library runs on the Python standard library alone: every absolute
import in src/trifold is trifold itself or a standard-library module, so
pyproject.toml can keep `dependencies = []`.  And it ships only what
something runs or documents: every public top-level function and class is
used elsewhere in src/trifold, named by the benchmark in perfbench, or
mentioned in README.md as supported API.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "trifold").glob("*.py"))


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


def _referenced_names(node):
    """Every identifier node reads: names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_name_is_used_benchmarked_or_documented():
    defined = []  # (module, name, index of its top-level statement)
    referenced = []  # (module, index of a top-level statement, its names)
    for path in SOURCES:
        body = ast.parse(path.read_text(), filename=str(path)).body
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((path.name, node.name, i))
            referenced.append((path.name, i, set(_referenced_names(node))))
    assert defined
    # perfbench names what it wraps in strings, such as "Development.bfs_from"
    benchmark = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    unused = [
        f"{module}: {name}"
        for module, name, index in defined
        if not any(
            name in names
            for other, i, names in referenced
            if (other, i) != (module, index)
        )
        and not re.search(rf"\b{name}\b", benchmark)
        and not re.search(rf"\b{name}\b", readme)
    ]
    assert not unused, unused
