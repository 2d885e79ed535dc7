"""Source-level rules for the package."""
import ast
from pathlib import Path

import arcbar
from arcbar.barcalc import FinCmMonoid, PointedCmSet


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


def _assigned_names(node):
    """Attribute or variable names that `node` assigns, including through
    `object.__setattr__(self, "name", value)`."""
    if isinstance(node, ast.Call):
        return [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [getattr(t, "id", getattr(t, "attr", None)) for t in targets]
    return []


def test_pointed_cm_set_is_the_only_sigma_table():
    # sigma is validated and tabulated once: only PointedCmSet assigns the
    # tables _sig and _powers, and every coefficient monoid is one
    root = Path(arcbar.__file__).parent
    owners = {f"{path.name}:{getattr(top, 'name', None)}"
              for path in sorted(root.rglob("*.py"))
              for top in ast.parse(path.read_text(), str(path)).body
              for node in ast.walk(top)
              if {"_sig", "_powers"} & set(_assigned_names(node))}
    assert owners == {"barcalc.py:PointedCmSet"}, owners
    assert issubclass(FinCmMonoid, PointedCmSet)
