"""Clearing to a pole is one primitive: `vforacle.clear_to_pole`, which
writes the parts of a twisted-module section over one pole by products with
a `vforacle.PowerTable` of f, is read by exactly its three owners of a
table: `vforacle.verify_bfunction` (the b-function columns and right-hand
sides), `vforacle.WindowSpan` (the twisted-module spans) and
`ppd.operators_on_pole`.  A fourth reader would be a second way of clearing.
The independent checker `weyl.apply_to_twisted` makes its own products by F
and is not a reader."""

import pathlib

from test_one_chain_rule import readers

ROOT = pathlib.Path(__file__).resolve().parents[1]

CLEAR = "clear_to_pole"

OWNERS = {
    ("vforacle", "verify_bfunction"),
    ("vforacle", "WindowSpan"),
    ("ppd", "operators_on_pole"),
}

PLANTED = ("def apply_to_twisted(a, f, shift):\n"
           "    return clear_to_pole({0: a}, 1, f, shift)\n")


def owners(sources: dict) -> set:
    """(module, top-level def or class) of each reader of clear_to_pole in
    the sources {module: text}; a method counts for its class."""
    return {(stem, name.split(".")[0])
            for stem, text in sources.items()
            for name in readers(text, CLEAR)}


def package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "src" / "hwkit").glob("*.py"))}


def test_guard_flags_a_planted_reader():
    sources = package_sources()
    sources["weyl"] += "\n\n" + PLANTED
    found = owners(sources)
    assert found - OWNERS == {("weyl", "apply_to_twisted")}


def test_one_pole_clearing():
    found = owners(package_sources())
    assert ("weyl", "apply_to_twisted") not in found
    assert found == OWNERS
