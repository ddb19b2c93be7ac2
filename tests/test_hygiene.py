"""Source rules of the library: a stdlib-only runtime, no floats, and a
light import.

Every module under src/qsubgroups is parsed, not imported, so a rule
breach is reported with its file and line even if the module would fail
to import.  The import check runs the CLI's import in a child process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "qsubgroups").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert any(p.name == "exact.py" for p in SOURCES)


def _absolute_imports(path):
    """(line, top-level package) of every absolute import in the file."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    bad = [f"{path.name}:{line} {name}" for line, name in _absolute_imports(path)
           if name not in sys.stdlib_module_names]
    assert not bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            bad.append(f"{path.name}:{node.lineno} literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            bad.append(f"{path.name}:{node.lineno} float(...) call")
    assert not bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Records come from qsubgroups._record: importing dataclasses costs
    the CLI more start-up time than the library's own modules."""
    bad = [f"{path.name}:{line}" for line, name in _absolute_imports(path)
           if name == "dataclasses"]
    assert not bad


def test_cli_import_loads_no_introspection_modules():
    code = ("import sys, qsubgroups.cli; print(sorted(set(sys.modules) & "
            "{'dataclasses', 'inspect', 'ast', 'dis', 'typing'}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
