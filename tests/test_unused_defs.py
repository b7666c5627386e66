"""Every def, method and class of the package is read by some other line
of the package: a function that only tests call, or that nothing calls, is
an entry point kept for no product caller, and a class that nothing names
(an exception nothing raises or catches) is left behind.  Dunder methods
are exempt, and so is the allowlist below.  Likewise every parameter
default is read: some call in the package leaves that parameter unset, so
the default is no second value that only tests rely on.

The scan is by name: a def or class counts as read when its name is read
(as a Name or as an attribute) anywhere in the package outside its own
body, and a call counts as a call of every def of its name.  So a name
shared by two defs hides a dead one behind a live one, e.g.
`BfElement.unit` behind `MonomialIdeal.unit`.

Every name of a `__slots__` is read as an attribute (`x.name`, loaded)
somewhere in the package: a slot only ever written holds a value nothing
uses."""

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

# (module, qualified def name, parameter) of defaults no call of the
# package uses
ALLOWED_DEFAULTS = set()


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


def _defaults(node, method: bool):
    """(position, name) of each parameter of the def node with a default;
    position None for a keyword-only parameter.  The first parameter of a
    method (not a staticmethod) takes no position of a call."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = int(method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list))
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _leaves_unset(call, position, name) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    return position is None or len(call.args) <= position


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unused_defaults(sources: dict) -> list:
    """(module, qualified def name, parameter) of every parameter default of
    a non-dunder def of the sources that no call of a def of that name
    leaves unset."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls, methods = {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
            elif isinstance(node, ast.ClassDef):
                methods.update(map(id, node.body))
    return sorted(
        (mod, qualname, name) for mod, tree in trees.items()
        for qualname, node in definitions(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _is_dunder(node.name)
        for position, name in _defaults(node, id(node) in methods)
        if not any(_leaves_unset(call, position, name)
                   for call in calls.get(node.name, [])))


def test_guard_flags_an_unused_default():
    sources = {
        "a": "def f(x, y=1, *, z=2):\n    return x\n\n"
             "class C:\n    def m(self, p=0):\n        return p\n\n"
             "    @staticmethod\n    def s(q=0):\n        return q\n\n"
             "    def __eq__(self, other=None):\n        return True\n",
        "b": "from . import a\n\n"
             "a.f(1, 2, z=3)\n"
             "a.C().m()\n"
             "a.C.s(5)\n",
    }
    # every call passes y, z and q; a.C().m() leaves p to its default, and
    # a dunder is exempt
    assert unused_defaults(sources) == [
        ("a", "C.s", "q"), ("a", "f", "y"), ("a", "f", "z")]
    # g(1, z=2) leaves y to its default and g(0, 1) leaves z; a starred
    # call counts as one that may set every parameter
    assert unused_defaults({
        "c": "def g(x, y=1, z=2):\n    return x\n\n"
             "def h(x, y=1):\n    return x\n\n"
             "g(1, z=2)\ng(0, 1)\nh(*[1])\n",
    }) == [("c", "h", "y")]


def test_every_default_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unused_defaults(sources)) <= ALLOWED_DEFAULTS


def slots(tree):
    """(class name, slot) of every string of a class's `__slots__`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(target, ast.Name)
                            and target.id == "__slots__"
                            for target in stmt.targets)
                    and isinstance(stmt.value, (ast.Tuple, ast.List))):
                yield from ((cls.name, elt.value) for elt in stmt.value.elts
                            if isinstance(elt, ast.Constant))


def unread_slots(sources: dict) -> list:
    """(module, class.slot) of every name of a class's `__slots__` in the
    sources that no attribute load of the package reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    return sorted((mod, f"{cls}.{slot}") for mod, tree in trees.items()
                  for cls, slot in slots(tree) if slot not in loaded)


def test_guard_flags_an_unread_slot():
    sources = {
        "a": "class C:\n    __slots__ = (\"x\", \"y\", \"z\")\n\n"
             "    def __init__(self):\n        self.x = self.y = 0\n"
             "        self.z = 1\n\n"
             "    def get(self):\n        return self.x\n",
        "b": "from . import a\n\nprint(a.C().y)\n",
    }
    # x is read in its own class and y in another module; z is only stored
    assert unread_slots(sources) == [("a", "C.z")]
    # a bare name is no attribute read
    assert unread_slots({
        "c": "class D:\n    __slots__ = [\"w\"]\n\n\nw = 1\nprint(w)\n",
    }) == [("c", "D.w")]


def test_every_slot_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_slots(sources) == []
