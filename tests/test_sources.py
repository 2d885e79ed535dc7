"""Source-level rules for the package."""
import ast
from pathlib import Path

import arcbar


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no check may live in one
    root = Path(arcbar.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
