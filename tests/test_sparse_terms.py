"""exactalg.SparseTerms: the one copy of the arithmetic, identity and
printing that Polynomial and weyl.WeylOperator share."""

from fractions import Fraction

import pytest

from hwkit.errors import DimensionMismatch
from hwkit.exactalg import Polynomial, SparseTerms
from hwkit.weyl import WeylOperator

SHARED = ("zero", "one", "_check", "__add__", "__sub__", "__neg__", "scale",
          "__pow__", "is_zero", "__eq__", "__hash__", "__str__", "__repr__")

SAMPLES = [
    Polynomial.parse("-3/4*x1^2*x2 + x2^2 - x1", 2),
    Polynomial.parse("x1^3 - 5", 1),
    Polynomial.constant(3, Fraction(-7, 2)),
    WeylOperator.parse("-2/3*x1*d2^3 + s^3 - x2*d1*s", 2),
    WeylOperator.parse("d1*x1 - 1/2", 1),
    WeylOperator.s(3),
]

# strings printed by the two classes before they shared a printer
PRINTED = [
    (Polynomial.constant(2, 3), "3"),
    (Polynomial.constant(2, Fraction(-1, 2)), "-1/2"),
    (Polynomial.zero(2), "0"),
    (Polynomial.one(1), "1"),
    (Polynomial.parse("x1^2 - x2 + 1", 2), "x1^2 - x2 + 1"),
    (Polynomial.parse("-x1*x2^3 + 2/3*x1 - 5", 2), "-x1*x2^3 + 2/3*x1 - 5"),
    (Polynomial.parse("-3/4*x1^2*x2 + x2^2 - x1", 2),
     "-3/4*x1^2*x2 + x2^2 - x1"),
    (Polynomial.parse("-1", 1), "-1"),
    (WeylOperator.constant(2, 3), "3"),
    (WeylOperator.zero(1), "0"),
    (WeylOperator.one(2), "1"),
    (WeylOperator.parse("d1", 1), "d1"),
    (WeylOperator.parse("-x1*d1 - s", 1), "-x1*d1 - s"),
    (WeylOperator.parse("x1^2*d1^2*s^2 - 1/2*d1 + 7", 1),
     "x1^2*d1^2*s^2 - 1/2*d1 + 7"),
    (WeylOperator.parse("-2/3*x1*d2^3 + s^3 - x2*d1*s", 2),
     "-2/3*x1*d2^3 - x2*d1*s + s^3"),
    (WeylOperator.parse("d1*x1", 1), "x1*d1 + 1"),
]


def test_shared_members_have_one_definition():
    for name in SHARED:
        assert name in SparseTerms.__dict__, name
        assert name not in Polynomial.__dict__, name
        assert name not in WeylOperator.__dict__, name
    assert Polynomial.__slots__ == WeylOperator.__slots__ == ()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_equality_is_type_exact(dim):
    assert Polynomial.zero(dim) != WeylOperator.zero(dim)
    assert WeylOperator.zero(dim) != Polynomial.zero(dim)
    assert Polynomial.constant(dim, 2) != WeylOperator.constant(dim, 2)
    assert Polynomial.zero(dim) == Polynomial.zero(dim)
    assert WeylOperator.one(dim) == WeylOperator.constant(dim, 1)
    assert Polynomial.zero(dim) != Polynomial.zero(dim + 1)


def test_equal_values_hash_equal():
    values = SAMPLES + [Polynomial.zero(2), WeylOperator.zero(2)]
    rebuilt = [p.scale(3).scale(Fraction(1, 3)) for p in SAMPLES]
    rebuilt += [p - p for p in SAMPLES[:1] + SAMPLES[3:4]]
    rebuilt += [-(-p) for p in SAMPLES]
    for a in values:
        for b in rebuilt:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert sum(a == b for a in values for b in rebuilt) == 2 * len(SAMPLES) + 2


@pytest.mark.parametrize("p", SAMPLES, ids=str)
def test_group_laws(p):
    cls = type(p)
    zero, one = cls.zero(p.dim), cls.one(p.dim)
    assert p - p == zero and (p - p).is_zero()
    assert p.scale(0) == zero
    assert p ** 0 == one
    assert p ** 2 == p * p
    assert p + zero == p and -(-p) == p
    assert p.scale(Fraction(-1)) == -p
    for q in (p - p, p.scale(0), p ** 0, p + p, -p):
        assert type(q) is cls
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(DimensionMismatch):
        p + cls.zero(p.dim + 1)


@pytest.mark.parametrize("p,text", PRINTED, ids=[t for _, t in PRINTED])
def test_printed_form_pinned(p, text):
    assert str(p) == text
    assert repr(p) == text


def test_mixed_classes_refuse_to_combine():
    # a Weyl key (xe, de, sp) has the length of a monomial in dimension 3,
    # so only the class check stops a Polynomial with Weyl keys
    p = Polynomial.parse("x1+x2+x3", 3)
    w = WeylOperator.parse("d1", 3)
    for a, b in ((p, w), (w, p)):
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            a - b
    with pytest.raises(DimensionMismatch):
        p * w
    with pytest.raises(DimensionMismatch):
        w * p
