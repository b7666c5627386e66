"""verify_bfunction's membership decisions against sympy's rank over QQ.

Each case builds the unpruned graded columns, every key of
graded_operator_basis applied to f^(s+1) by the Fraction reference walk of
twisted_reference, written over one pole.  The right-hand side r(s) f^s of b
and of each maximal proper divisor is a member of their span exactly when
rank [A | v] = rank A, computed by sympy's DomainMatrix over QQ, which shares
no code with the package's Echelon.
"""

import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from hwkit.bsdata import BFunction, RootMultiset
from hwkit.exactalg import Polynomial, poly_parse
from hwkit.vforacle import verify_bfunction
from hwkit.weyl import (WeylOperator, graded_operator_basis,
                        homogeneity_grading)
from twisted_reference import (TwistedSection, apply_section, fraction_terms,
                               roots_section)

# (f, dim, b, order, xdeg): monomial, quasi-homogeneous and generic f,
# members and not, at windows up to (6, 12) and (7, 4)
CASES = [
    ("x1^2*x2", 2, "(s+1)^2*(s+1/2)", 4, 4),
    ("x1*x2*x3", 3, "(s+1)^3", 3, 2),
    ("x1^2+x2^3", 2, "(s+1)*(s+5/6)", 6, 12),
    ("x1^2+x2^3", 2, "(s+1)*(s+5/6)*(s+7/6)", 6, 12),
    ("x1^2+x2^3", 2, "(s+1)^2*(s+5/6)*(s+7/6)", 4, 6),
    ("x1^3+x2^4", 2,
     "(s+1)*(s+17/12)*(s+7/6)*(s+13/12)*(s+11/12)*(s+5/6)*(s+7/12)", 7, 4),
    ("x1^2+x2^3+x1*x2", 2, "(s+1)^2", 2, 2),
    ("x1^2+x2^3+x1*x2", 2, "(s+1)^3", 3, 2),
]


def column(sec, f, pole):
    """{(s-power, monomial): Fraction} of the section sec written over the
    pole pole."""
    mult = f ** (pole - sec.pole)
    return {(j, m): c for j, p in sec.coeffs.items()
            for m, c in fraction_terms(p * mult).items()}


def is_member(columns, rhs) -> bool:
    """Whether rhs lies in the span of columns: rank [A | v] = rank A."""
    rows = {}
    for k, vec in enumerate(columns + [rhs]):
        for coord, c in vec.items():
            rows.setdefault(coord, {})[k] = QQ(c.numerator, c.denominator)
    index = {coord: i for i, coord in enumerate(rows)}
    shape = (len(rows), len(columns) + 1)
    full = DomainMatrix({index[c]: row for c, row in rows.items()}, shape, QQ)
    left = full[:, :len(columns)]
    return full.rank() == left.rank()


@pytest.mark.parametrize("poly,dim,b,order,xdeg", CASES)
def test_verify_bfunction_decisions_match_sympy_rank(poly, dim, b, order,
                                                     xdeg):
    # f's terms scaled by seeded rationals, so that the columns are not
    # those of a unit-coefficient f
    rng = random.Random(f"{poly} {order} {xdeg}")
    f = Polynomial(dim, {m: c * Fraction(rng.choice([1, -1, 2, 3]),
                                         rng.randint(1, 6))
                         for m, c in fraction_terms(poly_parse(poly,
                                                               dim)).items()})
    bf = BFunction.parse(b)
    keys = graded_operator_basis(dim, homogeneity_grading(dim, [f.nums]),
                                 order, xdeg, bf.degree())
    sec0 = TwistedSection.power(dim, 1)
    sections = [apply_section(WeylOperator(dim, {key: 1}), f, sec0)
                for key in keys]
    pole = max([sec.pole for sec in sections] + [1])
    columns = [column(sec, f, pole) for sec in sections]

    def member(roots):
        return is_member(columns, column(roots_section(dim, roots), f, pole))

    cert = verify_bfunction(f, bf, order, xdeg)
    assert cert.is_member() == member(bf)
    if cert.is_member():
        divisors = [RootMultiset({q: m - (q == r)
                                  for q, m in bf.roots.items()})
                    for r in bf.sorted_roots()]
        assert [d["verdict"] == "member"
                for d in cert.witness["divisors"]] == list(map(member,
                                                               divisors))
