"""The runtime package imports nothing outside the standard library, and
the command-line front end loads no standard module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "abeltile"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [
        name for name in names
        if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


# each costs milliseconds per cold CLI request and is needed, if at all,
# only off the common path (a crash traceback, an exact Fraction)
HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "traceback"}


def _modules_after(statement):
    code = f"import sys; {statement}; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_cli_import_loads_no_heavy_stdlib_module():
    # against a bare interpreter, so that modules a site hook preloads do not count
    new = _modules_after("import abeltile.cli") - _modules_after("pass")
    assert "abeltile.cli" in new
    assert sorted(new & HEAVY) == []


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # a name counts as used where it appears as an identifier, or as a string
    # equal to it: the CLI looks its deciders up in globals() by name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        name
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for name in _bound_names(node)
    ]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    assert [name for name in imported if name not in used] == []
