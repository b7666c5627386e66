"""exactalg.SparseTerms: the one copy of the arithmetic, identity and
printing that Polynomial, weyl.WeylOperator and vforacle.BfElement share."""

import random
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, perm, prod
from operator import add, sub

import pytest

from hwkit.errors import DimensionMismatch
from hwkit.exactalg import Polynomial, SparseTerms, grlex_key
from hwkit.vforacle import BfElement
from hwkit.weyl import WeylOperator, grlex_operator_key

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

# strings printed by Polynomial and WeylOperator before they shared a
# printer, and BfElement's, whose keys print with the dt power last
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
    (BfElement.zero(2), "0"),
    (BfElement(2, {(1, 0, 1): 1, (0, 0, 0): -3}), "x1*dt - 3"),
    (BfElement.from_poly(Polynomial.parse("x1^2 - 1/2", 1), 2),
     "x1^2*dt^2 - 1/2*dt^2"),
    (BfElement(2, {(0, 1, 0): Fraction(2, 3), (0, 0, 3): 1}),
     "dt^3 + 2/3*x2"),
]


def test_shared_members_have_one_definition():
    for name in SHARED:
        assert name in SparseTerms.__dict__, name
        assert name not in Polynomial.__dict__, name
        assert name not in WeylOperator.__dict__, name
        assert name not in BfElement.__dict__, name
    assert Polynomial.__slots__ == WeylOperator.__slots__ == ()
    assert BfElement.__slots__ == ()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_equality_is_type_exact(dim):
    assert Polynomial.zero(dim) != WeylOperator.zero(dim)
    assert WeylOperator.zero(dim) != Polynomial.zero(dim)
    assert Polynomial.constant(dim, 2) != WeylOperator.constant(dim, 2)
    assert Polynomial.zero(dim) == Polynomial.zero(dim)
    assert WeylOperator.one(dim) == WeylOperator.constant(dim, 1)
    assert Polynomial.zero(dim) != Polynomial.zero(dim + 1)
    assert BfElement.zero(dim) != Polynomial.zero(dim)
    assert BfElement.zero(dim) == BfElement.zero(dim)


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


# ---------------------------------------------------------------------------
# the representation: int numerators over one den, against Fraction dicts


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def _random_terms(rng, cls, dim) -> dict:
    """A seeded {key: Fraction} dict of cls's keys: few exponents, so that
    sums and products collide and cancel, and some values 0."""
    def vector():
        return tuple(rng.randint(0, 2) for _ in range(dim))

    def key():
        if cls is WeylOperator:
            return vector(), vector(), rng.randint(0, 2)
        return vector() + ((rng.randint(0, 2),) if cls is BfElement else ())
    return {key(): Fraction(rng.randint(-6, 6),
                            rng.choice([1, 1, 2, 3, 4, 6, 9, 10]))
            for _ in range(rng.randint(0, 5))}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return _nonzero(out)


def _key_products(ka, kb, cls, dim):
    """(key, int factor) of the normal-ordered product of two keys: d^c x^b
    = sum_k C(c,k) b!/(b-k)! x^(b-k) d^(c-k) in each variable."""
    if cls is Polynomial:
        yield tuple(map(add, ka, kb)), 1
        return
    (xa, da, sa), (xb, db, sb) = ka, kb
    for ks in product(*(range(min(da[i], xb[i]) + 1) for i in range(dim))):
        yield ((tuple(xa[i] + xb[i] - k for i, k in enumerate(ks)),
                tuple(da[i] + db[i] - k for i, k in enumerate(ks)), sa + sb),
               prod(comb(da[i], k) * perm(xb[i], k) for i, k in enumerate(ks)))


def _ref_mul(a: dict, b: dict, cls, dim) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            for key, n in _key_products(ka, kb, cls, dim):
                out[key] = out.get(key, 0) + ca * cb * n
    return _nonzero(out)


def _ref_div_exact(a: dict, b: dict):
    """Long division of Fraction polynomial dicts, or None when inexact."""
    lead = max(b, key=grlex_key)
    rem, quo = dict(a), {}
    while rem:
        m = max(rem, key=grlex_key)
        if any(x > y for x, y in zip(lead, m)):
            return None
        q, c = tuple(map(sub, m, lead)), rem[m] / b[lead]
        quo[q] = c
        for gm, gc in b.items():
            key = tuple(map(add, q, gm))
            rem[key] = rem.get(key, 0) - c * gc
            if not rem[key]:
                del rem[key]
    return quo


def _ref_str(values: dict, p) -> str:
    """The signed sum printed from Fraction values, p's class giving the
    order and the printed keys."""
    order = grlex_operator_key if type(p) is WeylOperator else grlex_key
    parts = []
    for key in sorted(values, key=order, reverse=True):
        c = values[key]
        body = p._factors(key)
        if not body or abs(c) != 1:
            q = abs(c)
            body = (f"{q.numerator}" if q.denominator == 1 else
                    f"{q.numerator}/{q.denominator}") + (f"*{body}"
                                                         if body else "")
        sign = ("+ " if c > 0 else "- ") if parts else ("" if c > 0 else "-")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def _check(p, values: dict):
    """p is canonical, holds the Fraction values in their key order, and
    prints as the reference printer does."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert {k: Fraction(c, p.den) for k, c in p.nums.items()} == values
    assert list(p.nums) == list(values)
    assert str(p) == _ref_str(values, p)


CASES = [(cls, dim, seed) for cls in (Polynomial, WeylOperator, BfElement)
         for dim in (1, 2, 3) for seed in range(4)]


@pytest.mark.parametrize("cls,dim,seed", CASES,
                         ids=[f"{c.__name__}-{d}-{s}" for c, d, s in CASES])
def test_representation_matches_fraction_reference(cls, dim, seed):
    rng = random.Random(1000 * dim + seed + 17 * (cls is WeylOperator)
                        + 31 * (cls is BfElement))
    pool = []
    for _ in range(8):
        terms = _random_terms(rng, cls, dim)
        values = _nonzero(terms)
        p = cls(dim, terms)
        _check(p, values)
        # the same value from numerators that share a factor with den
        k, den = rng.choice([2, 3, 7, 30]), lcm(*(c.denominator
                                                 for c in values.values()))
        q = cls(dim, {key: int(c * den * k) for key, c in values.items()},
                den * k)
        _check(q, values)
        assert q == p and hash(q) == hash(p)
        # half the value: often the same numerators over twice the den
        half = {key: c / 2 for key, c in values.items()}
        _check(p.scale(Fraction(1, 2)), half)
        pool += [(p, values), (q, values), (p.scale(Fraction(1, 2)), half)]
    for p, a in pool:
        for q, b in pool:
            assert (p == q) == (a == b)
            if p == q:
                assert hash(p) == hash(q)
    for (p, a), (q, b) in zip(pool[::3], pool[3::3]):
        _check(p + q, _ref_add(a, b))
        _check(p - q, _ref_add(a, {k: -c for k, c in b.items()}))
        _check(-p, {k: -c for k, c in a.items()})
        for c in (Fraction(-3, 4), 2, Fraction(5, 9), 0):
            _check(p.scale(c), _nonzero({k: v * c for k, v in a.items()}))
        if cls is BfElement:  # a module element: no product
            continue
        _check(p * q, _ref_mul(a, b, cls, dim))
        power = {p.one(dim).sorted_keys()[0]: Fraction(1)}
        for n in range(3):
            _check(p ** n, power)
            power = _ref_mul(power, a, cls, dim)
        if cls is Polynomial:
            for i in range(dim):
                _check(p.partial(i), {m[:i] + (m[i] - 1,) + m[i + 1:]:
                                      c * m[i] for m, c in a.items() if m[i]})
            if b:
                for num in (p * q, p):
                    got, want = num.div_exact(q), _ref_div_exact(
                        {k: Fraction(c, num.den) for k, c in num.nums.items()},
                        b)
                    assert (got is None) == (want is None)
                    if want is not None:
                        _check(got, want)
