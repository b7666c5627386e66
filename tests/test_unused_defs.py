"""Every def, method and class of the package is read by some other line
of the package: a function that only tests call, or that nothing calls, is
an entry point kept for no product caller, and a class that nothing names
(an exception nothing raises or catches) is left behind.  Dunder methods
are exempt, and so is the allowlist below.

The scan is by name: a def or class counts as read when its name is read
(as a Name or as an attribute) anywhere in the package outside its own
body.  So a name shared by two defs hides a dead one behind a live one,
e.g. `BfElement.unit` behind `MonomialIdeal.unit`."""

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hwkit"

ALLOWED = {
    # paper-facing functions that only tests call (ROADMAP constraints)
    ("vforacle", "presentation_contained"),
    ("vforacle", "phi_shift"),
    ("vforacle", "kernel_filtration_check"),
    ("vforacle", "candidate_v_whom"),
    ("snc", "snc_weight_top"),
    ("snc", "snc_adjoint_specialization"),
    ("bsdata", "bl_chain"),
    ("whom", "micromult_contains_one"),
    # an argparse override, called by argparse itself
    ("cli", "_Parser.error"),
    # the measure of the principal-symbol property test
    ("weyl", "WeylOperator.total_order"),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def read_names(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute))


def definitions(node, prefix=""):
    """(qualified name, node) of every def and class below node, methods,
    nested defs and nested classes included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield prefix + child.name, child
            yield from definitions(child, prefix + child.name + ".")
        else:
            yield from definitions(child, prefix)


def unread_definitions(sources: dict) -> list:
    """(module, qualified name) of every non-dunder def and every class of
    the sources (module name -> source text) whose name no line outside its
    own body reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = sum(map(read_names, trees.values()), Counter())
    return sorted((mod, qualname) for mod, tree in trees.items()
                  for qualname, node in definitions(tree)
                  if not _is_dunder(node.name)
                  and read[node.name] == read_names(node)[node.name])


def test_guard_flags_an_unread_def():
    sources = {
        "a": "def f():\n    return f()\n\n"
             "class C:\n    def m(self):\n        return 1\n\n"
             "    def n(self):\n        return self.m()\n\n"
             "    def __eq__(self, other):\n        return True\n",
        "b": "from . import a\n\na.C().n()\n",
    }
    # a recursive call is no read from another line
    assert unread_definitions(sources) == [("a", "f")]
    # a nested def is read where its enclosing def uses it
    assert unread_definitions(
        {"c": "def g():\n    def h():\n        return 1\n    return h\n"}
    ) == [("c", "g")]
    # a class is read by a subclass, a raise or an except; one that only
    # names itself is not
    assert unread_definitions({
        "d": "class E(Exception):\n    pass\n\n\n"
             "class Left(E):\n    def again(self):\n"
             "        return Left()\n\n\n"
             "class Used(E):\n    pass\n\n\n"
             "try:\n    raise Used()\nexcept E:\n    pass\n",
    }) == [("d", "Left"), ("d", "Left.again")]


def test_every_def_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unread_definitions(sources)) <= ALLOWED
