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


def test_report_is_the_only_verdict_type():
    # a class with a `failures` field or an `ok` property is a report type;
    # arcbar.report holds the only one
    root = Path(arcbar.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "report.py":
            continue
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                field = isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name) and node.target.id == "failures"
                prop = isinstance(node, ast.FunctionDef) and node.name == "ok" and \
                    any(isinstance(d, ast.Name) and d.id == "property"
                        for d in node.decorator_list)
                if field or prop:
                    found.append(f"{path.name}:{cls.name}.{node.lineno}")
    assert not found, found
