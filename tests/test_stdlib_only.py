"""Censuses of src/trifold.

The library runs on the Python standard library alone: every absolute
import in src/trifold is trifold itself or a standard-library module, so
pyproject.toml can keep `dependencies = []`.  And it ships only what
something runs or documents: every public top-level function and class is
used elsewhere in src/trifold, named by the benchmark in perfbench, or
mentioned in README.md as supported API.  A spec is valid when made: only
`TriangleGroupSpec.__init__` calls `.validate()`.  And it imports only what
a call runs: every CLI call is a fresh interpreter that, without a bytecode cache,
compiles each module it imports, so the sources use no `dataclasses` or
`typing`, and `fractions` is imported at module level only by the modules
whose work is rational arithmetic.
"""

import ast
import os
import re
import subprocess
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


def _validate_calls(node, scope=()):
    """The enclosing class and function names of every .validate() call
    under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                and child.func.attr == "validate":
            yield ".".join(scope)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _validate_calls(child, scope + (child.name,) if named else scope)


def test_only_the_spec_constructor_calls_validate():
    scopes = [
        f"{path.name}: {scope}"
        for path in SOURCES
        for scope in _validate_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert scopes == ["groups.py: TriangleGroupSpec.__init__"]


# imported by dataclasses or typing, or by fractions, which none of the CLI
# modules needs to load a spec or a ball, or by pathlib, where os.path and
# open serve
STARTUP_EXCLUDED = ("dataclasses", "inspect", "typing", "fractions", "decimal",
                    "pathlib", "urllib", "ipaddress")
# the modules whose work is exact rational arithmetic
RATIONAL_MODULES = {"curvature.py", "oracle.py", "rings.py"}


def test_cli_import_leaves_out_dataclasses_typing_and_fractions():
    probe = f"import sys, trifold.cli; print(*[m for m in {STARTUP_EXCLUDED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_no_dataclasses_or_typing_and_fractions_only_where_rational():
    imports = []  # (module file, imported module, at module level)
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [(path.name, name.partition(".")[0], id(node) in top) for name in names]
    assert not [i for i in imports if i[1] in ("dataclasses", "typing")]
    eager = {module for module, name, level in imports if name == "fractions" and level}
    assert eager == RATIONAL_MODULES
