"""Every module-level private name of the package is read somewhere in the
package: a `_`-prefixed def, class or assignment that no module reads (as a
Name or as an attribute) is a leftover of a deletion.  Dunder names are
exempt."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hwkit"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree) -> dict:
    """Private module-level names of tree -> the line defining them."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stores = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            targets = [n.id for t in stores for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if _is_private(name):
                out[name] = node.lineno
    return out


def read_names(tree) -> set:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of every private name of the sources (module
    name -> source text) that none of them reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for name, line in private_definitions(tree).items()
                  if name not in read)


def test_guard_flags_an_unread_private_name():
    sources = {
        "a": "_X = 1\n_Y: int = 2\n\ndef _f():\n    return _X\n\n"
             "class _C:\n    pass\n\n__all__ = []\n",
        "b": "from . import a\n\na._f()\n",
    }
    assert unread_private_names(sources) == [("a", 2, "_Y"), ("a", 7, "_C")]
    # a store is not a read
    assert unread_private_names({"c": "_Z = 1\n_Z = 2\n"}) == [("c", 2, "_Z")]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert not unread_private_names(sources)
