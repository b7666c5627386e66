"""Every name the README cites in backticks exists in the package: a
`module.name` chain (a submodule of hwkit, or hwkit itself, first) resolves
attribute by attribute, and a chain led by a CamelCase class name resolves
from some hwkit module that holds the class, or from builtins.  Call
arguments after a name, as in `WindowSpan.contains(parts)`, are not part of
the chain.  So a README row cannot keep naming a class or function a change
deleted or renamed."""

import builtins
import importlib
import pathlib
import pkgutil
import re

import hwkit

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {info.name: importlib.import_module(f"hwkit.{info.name}")
           for info in pkgutil.iter_modules(hwkit.__path__)}
CHAIN = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
CLASS = re.compile(r"[A-Z]\w*[a-z]\w*")


def cited_chains(text: str):
    """(qualified chains, class-led chains) of the backticked spans of
    text: the leading dotted name of each span, kept when it starts with
    hwkit or one of its submodules, or with a CamelCase name."""
    qualified, classes = set(), set()
    for span in re.findall(r"`([^`\n]+)`", text):
        chain = CHAIN.match(span)
        if not chain:
            continue
        parts = chain.group().split(".")
        if parts[0] == "hwkit" or parts[0] in MODULES and len(parts) > 1:
            qualified.add(chain.group())
        elif CLASS.fullmatch(parts[0]):
            classes.add(chain.group())
    return qualified, classes


def resolves(obj, attrs) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    qualified, classes = cited_chains(
        (ROOT / "README.md").read_text(encoding="utf-8"))
    assert qualified and classes
    missing = []
    for chain in sorted(qualified):
        parts = chain.split(".")
        if parts[0] != "hwkit":
            parts = ["hwkit"] + parts
        if not resolves(hwkit, parts[1:]):
            missing.append(chain)
    for chain in sorted(classes):
        parts = chain.split(".")
        homes = [*MODULES.values(), builtins]
        if not any(resolves(home, parts) for home in homes):
            missing.append(chain)
    assert not missing, missing


def test_readme_check_flags_a_missing_name():
    qualified, classes = cited_chains(
        "`weyl.KeyPacking.shift(m, 0)`, `vforacle.NoSuchSpan`, "
        "`hwkit.linalg`, `NoSuchClass.method(x)`, `HWKIT_CACHE`, `S`")
    assert qualified == {"weyl.KeyPacking.shift", "vforacle.NoSuchSpan",
                         "hwkit.linalg"}
    assert classes == {"NoSuchClass.method"}
    assert resolves(hwkit, ["weyl", "KeyPacking", "shift"])
    assert not resolves(hwkit, ["vforacle", "NoSuchSpan"])
