"""Source rules of the library: a stdlib-only runtime and no floats.

Every module under src/qsubgroups is parsed, not imported, so a rule
breach is reported with its file and line even if the module would fail
to import.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qsubgroups").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert any(p.name == "exact.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
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
