"""Each module of sections has one chain rule: `weyl.d_part_images`, the
walk that builds every d-part image d^g from d^(g - e_i) by one step, is
read by exactly three defs of the package, one per module its steps act
in: `vforacle.pole_apply` (sections N f^(-pole-alpha) of the twisted
module, the b-function columns included), `vforacle.BfElement.d_images`
(the graph module) and `weyl.basis_products` (operator products).  A fourth
reader would be a second chain rule for one of them.  The independent
checker `weyl.apply_to_twisted` walks its own chains and is not a reader."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

WALK = "d_part_images"

READERS = {
    ("vforacle", "pole_apply"),
    ("vforacle", "BfElement.d_images"),
    ("weyl", "basis_products"),
}


def _reads(node, name: str) -> bool:
    """Whether the subtree reads name, bare or as an attribute."""
    return any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name
               for n in ast.walk(node))


def readers(source: str, name: str = WALK) -> list:
    """Qualified names of the module-level and class-level defs (classes
    nested in classes included) whose body reads name; a read inside a
    nested def or lambda counts for the def that holds it."""
    found = []

    def scan(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, prefix + node.name + ".")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _reads(node, name):
                    found.append(prefix + node.name)

    scan(ast.parse(source).body, "")
    return found


def test_guard_flags_a_planted_reader():
    source = ("from .weyl import d_part_images\n"
              "from . import weyl\n"
              "def pole_apply(gammas, start, step):\n"
              "    return d_part_images(gammas, start, step)\n"
              "def verify(d_parts):\n"
              "    def step(image, i):\n"
              "        return image\n"
              "    return d_part_images(d_parts, 1, step)\n"
              "class Span:\n"
              "    def images(self):\n"
              "        return weyl.d_part_images([], 1, None)\n"
              "    class Inner:\n"
              "        def aliased(self):\n"
              "            walk = d_part_images\n"
              "            return walk\n"
              "def unrelated(d_parts):\n"
              "    return [g for g in d_parts]\n")
    assert readers(source) == ["pole_apply", "verify", "Span.images",
                               "Span.Inner.aliased"]


def test_one_chain_rule_per_module():
    found = {(path.stem, name)
             for path in sorted((ROOT / "src" / "hwkit").glob("*.py"))
             for name in readers(path.read_text(encoding="utf-8"))}
    assert found == READERS
