"""Every module-level import of the package and of the tests is used: an
imported name that the module never reads as a Name is a leftover of a
deletion.  `from __future__` imports are exempt."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_flags_an_unused_import():
    assert unused_imports("import math\nimport re\nre.compile('x')\n") == [
        (1, "math")]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    scanned = [*(ROOT / "src" / "hwkit").glob("*.py"),
               *(ROOT / "tests").glob("*.py")]
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in sorted(scanned)
                 for line, name in unused_imports(
                     path.read_text(encoding="utf-8"))]
    assert not offenders, offenders
