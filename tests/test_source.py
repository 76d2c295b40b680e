"""Checks on the library source itself."""

import ast
from pathlib import Path

import diagalg


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a check written as one would vanish
    found = []
    for path in sorted(Path(diagalg.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
