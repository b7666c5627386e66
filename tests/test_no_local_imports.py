"""Every import of the package sits at module level: an `import` or `from`
statement inside a function or class body hides a dependency from the top
of the module and is paid again on every call."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def local_imports(source: str) -> list:
    """(line, name of the innermost enclosing def or class) of every import
    nested in a def or class body."""
    tree = ast.parse(source)
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    # ast.walk is breadth first, so an inner scope overwrites an outer one
    found = {node.lineno: scope.name
             for scope in ast.walk(tree) if isinstance(scope, scopes)
             for node in ast.walk(scope)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(found.items())


def test_guard_flags_a_local_import():
    source = ("import math\n"
              "def f():\n"
              "    from itertools import combinations\n"
              "class C:\n"
              "    import re\n"
              "    def g(self):\n"
              "        import os\n"
              "        return math.pi\n")
    assert local_imports(source) == [(3, "f"), (5, "C"), (7, "g")]
    assert local_imports("from math import lcm\nif lcm:\n    import re\n") == []


def test_no_local_imports():
    offenders = [f"{path.relative_to(ROOT)}:{line}: in {name}"
                 for path in sorted((ROOT / "src" / "hwkit").glob("*.py"))
                 for line, name in local_imports(
                     path.read_text(encoding="utf-8"))]
    assert not offenders, offenders
