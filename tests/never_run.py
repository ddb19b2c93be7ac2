"""List the library statements that the tier-1 suite never runs.

Run from the repository root:

    PYTHONPATH=src python tests/never_run.py

The suite runs in this process under a sys.settrace line tracer that
records the lines of src/qsubgroups/*.py; each module is then parsed with
ast, and every statement that never ran (see _span) is printed as
`module:line: statement`, docstrings excluded.  The three tests named
*leaves_no_cyclic_garbage fail under a tracer, so they are deselected.
Statements that only a child process runs (the CLI children of
test_hygiene, the CLI's __main__ guard) count as never run.  The exit
status is pytest's.  This file has no test_ prefix, so pytest does not
collect it.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsubgroups"


def _docstrings(tree):
    """The docstring statements of the module, its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first


def _span(node):
    """The lines whose events show that a statement ran: a definition's
    decorators and header (its body runs only when called), any line of
    another statement (a compound one's body runs only after its header)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return range(min([d.lineno for d in node.decorator_list] + [node.lineno]),
                     node.body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def never_run(path, hit):
    """(line, first source line) of every statement of the file with no line in hit."""
    source = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(source, filename=str(path)), source.splitlines()
    skip = set(map(id, _docstrings(tree)))
    return sorted((node.lineno, lines[node.lineno - 1].strip()) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and id(node) not in skip
                  and not hit.intersection(_span(node)))


def main() -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):  # trace only the library's frames
        if frame.f_code.co_filename in hits:
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "-k", "not cyclic_garbage",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [f"{path.name}:{line}: {text}" for name, path in files.items()
              for line, text in never_run(path, hits[name])]
    print(f"\nstatements of src/qsubgroups never run: {len(missed)}")
    print("\n".join(missed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
