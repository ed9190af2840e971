"""Source guard: the library states its invariants as explicit checks.

A bare `assert` disappears under `python -O`, so an invariant written that way
silently stops being checked.  Library invariants raise
`InternalInvariantError` instead; oracles that re-derive results belong in
the tests.
"""

import ast
from pathlib import Path

import crossedprod

SRC = Path(crossedprod.__file__).parent


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
