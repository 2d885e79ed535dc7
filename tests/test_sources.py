"""Source-level rules for the package."""
import ast
from collections import Counter
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


def _uses(node, module: str, modules) -> Counter:
    """How often `node`, code of `module`, reads each (module, name): a bare
    name is one of `module`, `from .M import name` and `M.name` are one of M.
    An attribute of the same name on some other object is no use."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[module, n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in modules:
            found[n.value.id, n.attr] += 1
        elif isinstance(n, ast.ImportFrom) and n.module in modules:
            found.update((n.module, alias.name) for alias in n.names)
    return found


def _defined_names(top):
    """Names a top-level statement defines: a function, a class, or the
    variables of an assignment."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    return [name for name in _assigned_names(top) if name]


def test_every_top_level_definition_is_reached_from_src():
    # a top-level function, class or assigned constant that no code in src/
    # outside its own statement refers to is dead or test-only; re-exports
    # in __init__ do not count
    root = Path(arcbar.__file__).parent
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(root.rglob("*.py")) if path.name != "__init__.py"}
    uses = sum((_uses(tree, name, modules) for name, tree in modules.items()),
               Counter())
    acceptance = Path(__file__).with_name("test_acceptance.py")
    allowed = {alias.name
               for node in ast.walk(ast.parse(acceptance.read_text()))
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    allowed.add("split_orbit_element")  # ROADMAP item 9 builds on it
    unreached = [f"{module}.{name}" for module, tree in modules.items()
                 for top in tree.body for name in _defined_names(top)
                 if name not in allowed and uses[module, name] ==
                 _uses(top, module, modules)[module, name]]
    assert not unreached, unreached


def _attribute_reads(node) -> Counter:
    """How often `node` reads each attribute name, on any object."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


# Methods that src/ reads nowhere yet, each with the ROADMAP item that
# would give it a caller.
_UNREACHED_METHODS = {
    "FreeMonoid.lift": "smaller item: a bar-resolution verdict on the free monoid",
    "FreeMonoid.flatten": "item 9: B(T, T, R) resolves finite monoid coefficients",
}


def test_every_method_is_read_from_src():
    # a non-dunder method or property that no code in src/ reads as an
    # attribute, outside its own body, is dead or test-only; any object's
    # attribute of that name counts, and so does a read in acceptance tests
    root = Path(arcbar.__file__).parent
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(root.rglob("*.py"))}
    reads = sum((_attribute_reads(tree) for tree in modules.values()), Counter())
    acceptance = Path(__file__).with_name("test_acceptance.py")
    allowed = set(_attribute_reads(ast.parse(acceptance.read_text())))
    unreached = [f"{module}.{cls.name}.{fn.name}"
                 for module, tree in modules.items()
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 and not (fn.name.startswith("__") and fn.name.endswith("__"))
                 and fn.name not in allowed
                 and f"{cls.name}.{fn.name}" not in _UNREACHED_METHODS
                 and reads[fn.name] == _attribute_reads(fn)[fn.name]]
    assert not unreached, unreached
