"""Only hwkit.linalg may touch Echelon's stored rows, so that the row
representation can change without touching any caller: everything else reads
pivots() and basis().  And every coordinate the package hands to an Echelon
is an int (a KeyPacking key or an index), so the coordinate format is
decided in one place; every value an Echelon or nullspace answers is an int
too, so no caller converts an answer back to integers."""

import ast
import pathlib
import re
from fractions import Fraction as F

from hwkit import ppd, weyl
from hwkit.bsdata import BFunction
from hwkit.cli import main
from hwkit.exactalg import Polynomial, WeightVector, poly_parse
from hwkit.linalg import Echelon
from hwkit.ppd import parse_annihilator_file, weight_module_generators
from hwkit.vforacle import BfElement, Bounds, bf_span, verify_bfunction
from hwkit.weyl import ShiftTable
from hwkit.whom import milnor_basis

ROOT = pathlib.Path(__file__).resolve().parents[1]
LINALG = ROOT / "src" / "hwkit" / "linalg.py"
PRIVATE = re.compile(r"\b_rows\b")


def test_only_linalg_touches_echelon_rows():
    assert PRIVATE.search(LINALG.read_text(encoding="utf-8"))
    scanned = [*(ROOT / "src" / "hwkit").rglob("*.py"),
               *(ROOT / "tests").rglob("*.py")]
    offenders = []
    for path in sorted(scanned):
        if path in (LINALG, pathlib.Path(__file__).resolve()):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        offenders += [f"{path.relative_to(ROOT)}:{n}"
                      for n, line in enumerate(lines, 1)
                      if PRIVATE.search(line)]
    assert not offenders, offenders


def _graph_member(span, u):
    """Reduce a member u of a graph-module span and build its witness, so
    that both the span's echelon and the witness echelon are built."""
    assert not span.reduce(u)[0]
    assert span.witness([u])[0][0]


def test_package_hands_echelons_int_coordinates(monkeypatch, capsys):
    # nullspace inserts through Echelon.insert, so noting insert and reduce
    # sees every coordinate; each run must hand over some.  Every answer is
    # None or integer numerator dicts over an int den, and the runs get
    # some of each kind
    nodes = list(ast.walk(ast.parse(LINALG.read_text(encoding="utf-8"))))
    imports = [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert "fractions" not in {getattr(n, "module", None) for n in imports} | {
        alias.name for n in imports for alias in n.names}
    assert not any(isinstance(n, ast.Name) and n.id == "Fraction"
                   for n in nodes)
    kinds, answered, answers = set(), set(), set()
    insert, reduce = Echelon.insert, Echelon.reduce

    def note(kind, answer):
        if answer is not None:
            *nums, den = answer
            answered.add(type(den))
            for num in nums:
                answered.update(map(type, num.values()))
            answers.add(kind)
        return answer

    def noted_insert(self, vec, den, companion=None):
        kinds.update(map(type, vec))
        return note("insert", insert(self, vec, den, companion))

    def noted_reduce(self, vec, den):
        kinds.update(map(type, vec))
        return note("reduce", reduce(self, vec, den))

    def noted_nullspace(real):
        def nullspace(columns, dens, companions):
            deps = real(columns, dens, companions)
            for dep in deps:
                note("nullspace", dep)
            return deps
        return nullspace

    monkeypatch.setattr(Echelon, "insert", noted_insert)
    monkeypatch.setattr(Echelon, "reduce", noted_reduce)
    for module in (ppd, weyl):
        monkeypatch.setattr(module, "nullspace",
                            noted_nullspace(module.nullspace))
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    cusp = poly_parse("x1^2+x2^3", 2)
    x1 = poly_parse("x1", 1)
    B = Bounds(1, 2, 2)
    ann = (ROOT / "tests" / "data" / "cusp.ann").read_text(encoding="utf-8")
    runs = {
        "suite": lambda: main(["suite", "--profile", "default", "--json"]),
        "verify_bfunction": lambda: verify_bfunction(
            cusp, BFunction({F(-1): 1, F(-5, 6): 1, F(-7, 6): 1}), 3, 3),
        "bf_span reduce and witness": lambda: _graph_member(
            bf_span([BfElement.from_poly(Polynomial.one(1))], x1, B,
                    ShiftTable(1, B.xdeg)),
            BfElement.from_poly(x1)),
        "milnor_basis": lambda: milnor_basis(
            cusp, WeightVector.parse("1/2,1/3")),
        "weight_module_generators": lambda: weight_module_generators(
            parse_annihilator_file(ann, None), 0, Bounds(4, 12, 6)),
    }
    for name, run in runs.items():
        kinds.clear()
        run()
        assert kinds == {int}, name
    assert answered == {int}
    assert answers == {"insert", "reduce", "nullspace"}
    capsys.readouterr()
