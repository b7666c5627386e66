"""The package writes a record as a `NamedTuple` or as a slotted class, and
no module imports `dataclasses`: a third idiom for the same thing, and one
that loads `dataclasses` and `inspect` into every CLI process."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def dataclass_imports(source: str) -> list:
    """Lines of every import of `dataclasses`, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(a.name.split(".")[0] == "dataclasses"
                          for a in node.names)
                  or isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "dataclasses")


def test_guard_flags_a_dataclasses_import():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "def f():\n"
              "    import dataclasses as dc\n")
    assert dataclass_imports(source) == [1, 2, 5]


def test_no_module_imports_dataclasses():
    offenders = [f"{path.relative_to(ROOT)}:{line}"
                 for path in sorted((ROOT / "src" / "hwkit").glob("*.py"))
                 for line in dataclass_imports(
                     path.read_text(encoding="utf-8"))]
    assert not offenders, offenders
