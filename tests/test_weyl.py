import random
from fractions import Fraction

import pytest

from hwkit.errors import DimensionMismatch
from hwkit.exactalg import Polynomial, poly_parse
from hwkit.weyl import (TwistedSection, WeylOperator, annihilates_power,
                        apply_to_twisted, basis_products,
                        bounded_operator_basis, d_part_images, syzygy_kernel,
                        weyl_mul)


def op(text, dim):
    return WeylOperator.parse(text, dim)


def rand_operator(rng, dim=2, with_s=False):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        xe = tuple(rng.randint(0, 2) for _ in range(dim))
        de = tuple(rng.randint(0, 2) for _ in range(dim))
        sp = rng.randint(0, 1) if with_s else 0
        terms[(xe, de, sp)] = Fraction(rng.randint(-4, 4))
    return WeylOperator(dim, terms)


def test_constructor_canonicalizes_coefficients():
    z = (0, 0)
    a = WeylOperator(2, {((1, 0), z, 0): 2, (z, (0, 1), 1): "-1/3",
                         (z, z, 0): Fraction(0), ((0, 1), z, 0): 0})
    assert a.terms == {((1, 0), z, 0): Fraction(2),
                       (z, (0, 1), 1): Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in a.terms.values())
    with pytest.raises(DimensionMismatch):
        WeylOperator(2, {((1,), z, 0): Fraction(1)})


def test_normal_order_basics():
    d1, x1 = WeylOperator.d(0, 1), WeylOperator.x(0, 1)
    assert weyl_mul(d1, x1) == op("x1*d1 + 1", 1)
    assert weyl_mul(x1, d1) == op("x1*d1", 1)
    assert weyl_mul(weyl_mul(d1, d1), x1) == op("x1*d1^2 + 2*d1", 1)


def test_mul_associative_distributive():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = (rand_operator(rng, with_s=True) for _ in range(3))
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))
        assert weyl_mul(a, b + c) == weyl_mul(a, b) + weyl_mul(a, c)


def test_s_is_central():
    rng = random.Random(5)
    s = WeylOperator.s(2)
    for _ in range(40):
        a = rand_operator(rng, with_s=True)
        assert weyl_mul(s, a) == weyl_mul(a, s)


def test_total_order():
    assert op("x1^3", 1).total_order() == 0
    assert op("s*d1", 1).total_order() == 2
    assert op("x1*d1 - s", 1).total_order() == 1
    assert WeylOperator.zero(1).total_order() is None


def test_total_order_submultiplicative():
    rng = random.Random(9)
    for _ in range(60):
        a, b = rand_operator(rng, with_s=True), rand_operator(rng, with_s=True)
        p = weyl_mul(a, b)
        if not p.is_zero():
            assert p.total_order() <= a.total_order() + b.total_order()


def test_apply_to_twisted_examples():
    # d1 on f^{s+1}, f=x1 -> (s+1) f^s
    f = poly_parse("x1", 1)
    res = apply_to_twisted(WeylOperator.d(0, 1), f, TwistedSection.power(1, 1))
    assert res.coeffs == {1: Polynomial.one(1), 0: Polynomial.one(1)}
    assert res.exponent_offset() == 0

    # (1/4) d1^2 on f^{s+1}, f=x1^2 -> (s+1)(s+1/2) f^s
    f2 = poly_parse("x1^2", 1)
    quarter = WeylOperator.mono((0,), (2,), 0, Fraction(1, 4))
    res2 = apply_to_twisted(quarter, f2, TwistedSection.power(1, 1))
    want = {2: Polynomial.one(1),
            1: Polynomial.constant(1, Fraction(3, 2)),
            0: Polynomial.constant(1, Fraction(1, 2))}
    assert res2.coeffs == want and res2.exponent_offset() == 0

    # (x1 d1 - (s-1)) kills f^{s-1} for f = x1 x2
    f3 = poly_parse("x1*x2", 2)
    assert annihilates_power(op("x1*d1 - s + 1", 2), f3, -1)


def test_apply_composition_property():
    rng = random.Random(17)
    f = poly_parse("x1*x2", 2)
    sec = TwistedSection.power(2, 1)
    for _ in range(25):
        a, b = rand_operator(rng, with_s=True), rand_operator(rng, with_s=True)
        lhs = apply_to_twisted(weyl_mul(a, b), f, sec)
        rhs = apply_to_twisted(a, f, apply_to_twisted(b, f, sec))
        assert lhs.same_element(rhs, f)


def test_bounded_basis():
    assert [str(o) for o in bounded_operator_basis(1, 0, 0)] == ["1"]
    assert [str(o) for o in bounded_operator_basis(1, 1, 0)] == ["1", "d1"]
    assert [str(o) for o in bounded_operator_basis(1, 1, 1)] == [
        "1", "d1", "x1", "x1*d1"]
    with_s = bounded_operator_basis(1, 1, 0, with_s=True)
    assert [str(o) for o in with_s] == ["1", "s", "d1"]


def test_syzygy_symmetric_pair():
    x = WeylOperator.x(0, 1)
    ker = syzygy_kernel([x, x], 0, 0)
    assert any(t[0] == -t[1] and not t[0].is_zero() for t in ker)


def test_syzygy_d_and_one():
    ker = syzygy_kernel([WeylOperator.d(0, 1), WeylOperator.one(1)], 1, 1)
    # contains (1, -d1): P_0 = c, P_1 = -c*d1
    found = False
    for p0, p1 in ker:
        if not p0.is_zero() and p0.is_polynomial() and p0.total_order() == 0:
            if p1 == weyl_mul(p0, WeylOperator.d(0, 1)).scale(-1):
                found = True
    assert found
    # the wrong combination from the spec example is indeed not a syzygy
    x1, d1 = WeylOperator.x(0, 1), WeylOperator.d(0, 1)
    bad = weyl_mul(x1, d1) - weyl_mul(op("x1*d1 + 1", 1), WeylOperator.one(1))
    assert not bad.is_zero()


def test_syzygy_random_remultiplication():
    # syzygy_kernel re-multiplies internally and raises on failure
    rng = random.Random(23)
    total = 0
    for _ in range(100):
        targets = [rand_operator(rng) for _ in range(rng.randint(2, 3))]
        total += len(syzygy_kernel(targets, 1, 1))
    assert total > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("with_s", [False, True])
def test_basis_products_equal_weyl_mul(dim, with_s):
    rng = random.Random(100 * dim + with_s)
    order, xdeg = (3, 2) if dim < 3 else (2, 1)
    basis = bounded_operator_basis(dim, order, xdeg, with_s=with_s)
    for _ in range(6):
        t = rand_operator(rng, dim, with_s)
        want = [weyl_mul(op, t).terms for op in basis]
        assert basis_products(basis, t) == want
        shuffled = list(range(len(basis)))
        rng.shuffle(shuffled)
        got = basis_products([basis[i] for i in shuffled], t)
        assert got == [want[i] for i in shuffled]


def test_d_part_images_one_step_per_d_part():
    steps = []

    def step(image, i):
        steps.append(i)
        return image + (i,)

    gs = [(2, 1), (0, 1), (2, 1), (1, 0), (0, 0)]
    images = d_part_images(gs, (), step)
    # every d-part and every g - e_i on the way down, each made once
    assert set(images) == {(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)}
    assert len(steps) == len(images) - 1
    assert images[(2, 1)] == (0, 0, 1) and images[(0, 1)] == (1,)


def test_basis_products_rejects_non_monic_basis():
    t = op("x1*d1", 1)
    with pytest.raises(ValueError):
        basis_products([op("2*d1", 1)], t)
    with pytest.raises(ValueError):
        basis_products([op("d1 + x1", 1)], t)
    with pytest.raises(DimensionMismatch):
        basis_products(bounded_operator_basis(2, 1, 1), t)


def test_operator_parse_print_roundtrip():
    rng = random.Random(29)
    for _ in range(200):
        a = rand_operator(rng, with_s=True)
        assert WeylOperator.parse(str(a), 2) == a


def test_substitute_s():
    a = op("x1*d1*s^2 - s + 3", 1)
    got = a.substitute_s(Fraction(-1, 2))
    assert got == op("1/4*x1*d1 + 7/2", 1)


def _leading_symbol(a):
    """Terms of maximal total order, as a commutative polynomial in
    (x, xi, s) encoded by the same keys."""
    top = a.total_order()
    return {k: c for k, c in a.terms.items() if sum(k[1]) + k[2] == top}


def _symbol_mul(sa, sb, dim):
    out = {}
    for (xa, da, ja), ca in sa.items():
        for (xb, db, jb), cb in sb.items():
            key = (tuple(p + q for p, q in zip(xa, xb)),
                   tuple(p + q for p, q in zip(da, db)), ja + jb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def test_principal_symbol_multiplicative():
    rng = random.Random(31)
    for _ in range(100):
        a, b = rand_operator(rng, with_s=True), rand_operator(rng, with_s=True)
        if a.is_zero() or b.is_zero():
            continue
        p = weyl_mul(a, b)
        assert p.total_order() == a.total_order() + b.total_order()
        assert _leading_symbol(p) == _symbol_mul(_leading_symbol(a),
                                                 _leading_symbol(b), 2)
