"""Properties of the package source itself."""

import ast
from pathlib import Path

import tlbases

SRC = Path(tlbases.__file__).resolve().parent


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so no invariant may rest on one
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"bare assert statements: {found}"
