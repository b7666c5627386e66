import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hwkit.errors import DimensionMismatch, ParseError
from hwkit.exactalg import (MonomialIdeal, Polynomial, WeightVector,
                            fmt_rational, graded_ideal, grlex_key,
                            infer_dim, minimalize, mono_divides, mono_mul,
                            monomials_of_degree, monomials_upto_degree,
                            monomials_weighted_upto,
                            parse_rational, poly_parse,
                            weighted_degree)
from twisted_reference import fraction_terms


def test_parse_single_term():
    p = poly_parse("x1^2*x2^3", 2)
    assert p == Polynomial(2, {(2, 3): 1})


def test_parse_two_terms():
    p = poly_parse("x1^2 + x2^3", 2)
    assert p == Polynomial(2, {(2, 0): 1, (0, 3): 1})


def test_parse_cancellation():
    p = poly_parse("3/2*x1 - x1", 1)
    assert p == Polynomial(1, {(1,): 1}, 2)


def test_parse_errors():
    with pytest.raises(ParseError):
        poly_parse("x1 +", 1)
    with pytest.raises(ParseError):
        poly_parse("x3", 2)
    with pytest.raises(ParseError):
        poly_parse("d1", 1)  # operator token in polynomial context


def test_print_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(500):
        dim = rng.randint(1, 3)
        terms = {}
        for m in monomials_upto_degree(dim, 4):
            if rng.random() < 0.3:
                terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        p = Polynomial(dim, terms)
        assert poly_parse(str(p), dim) == p


def test_weighted_degree():
    w = WeightVector.parse("1/2,1/3")
    assert weighted_degree((2, 0), w) == 1
    assert weighted_degree((0, 0), w) == 0
    assert weighted_degree((1, 1), w) == Fraction(5, 6)
    with pytest.raises(DimensionMismatch):
        weighted_degree((1,), w)


def test_graded_ideal_goldens():
    w = WeightVector.parse("1/2,1/3")
    assert graded_ideal(w, 0, True) == MonomialIdeal(2, [(1, 0), (0, 1)])
    assert graded_ideal(w, Fraction(-1, 3), True) == MonomialIdeal.unit(2)
    assert graded_ideal(w, Fraction(2, 3), True) == MonomialIdeal(
        2, [(2, 0), (1, 1), (0, 3)])
    # non-strict at 0 includes the constant
    assert graded_ideal(w, 0, False) == MonomialIdeal.unit(2)


def test_graded_ideal_strict_vs_nonstrict():
    w = WeightVector.parse("1/2,1/3")
    for num in range(-2, 7):
        g = Fraction(num, 3)
        strict = graded_ideal(w, g, True)
        lax = graded_ideal(w, g, False)
        assert strict <= lax
        exact = [m for m in lax.gens if weighted_degree(m, w) == g]
        assert (strict == lax) == (not exact)


def test_graded_ideal_products():
    w = WeightVector.parse("1/2,1/3")
    for a in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        for b in (Fraction(1, 6), Fraction(2, 3)):
            left, right = graded_ideal(w, a, False), graded_ideal(w, b, False)
            prod = MonomialIdeal(w.dim, [mono_mul(g, h) for g in left.gens
                                         for h in right.gens])
            assert prod <= graded_ideal(w, a + b, False)


def _wdeg(m, ws):
    return sum((e * w for e, w in zip(m, ws)), Fraction(0))


def _box(ws, top):
    """The ranges 0..ceil(top / w_i) (0 alone when that is negative) whose
    product is the brute-force box."""
    return [range(max(-(-top // w), 0) + 1) for w in ws]


def _reference_graded_gens(ws, gamma, strict):
    """The minimal generators of the monomials of weighted degree > gamma
    (strict) or >= gamma, by brute force: every exponent box up to
    ceil((gamma + max w) / w_i), filtered in Fractions, minimalized by
    divisibility in grlex order."""
    ok = [m for m in product(*_box(ws, gamma + max(ws)))
          if (_wdeg(m, ws) > gamma if strict else _wdeg(m, ws) >= gamma)]
    gens = []
    for m in sorted(ok, key=lambda m: (sum(m), m)):
        if not any(all(a <= b for a, b in zip(g, m)) for g in gens):
            gens.append(m)
    return tuple(gens)


@st.composite
def graded_cases(draw):
    """(weights, gamma, strict): dims 1..3, weights n/d with d in 1..12 (some
    above 1); gamma negative, zero, an integer, the weighted degree of a
    monomial, or a positive rational.  The brute-force box stays small."""
    dim = draw(st.sampled_from([3, 2, 1]))
    dens = [draw(st.integers(1, 12)) for _ in range(dim)]
    ws = tuple(Fraction(draw(st.integers(1, 2 * d)), d) for d in dens)
    kind = draw(st.sampled_from(
        ["degree", "rational", "integer", "zero", "negative"]))
    if kind == "negative":
        gamma = -Fraction(draw(st.integers(1, 24)), draw(st.integers(1, 12)))
    elif kind == "zero":
        gamma = Fraction(0)
    elif kind == "integer":
        gamma = Fraction(draw(st.integers(1, 4)))
    elif kind == "degree":
        gamma = _wdeg(draw(st.tuples(*[st.integers(0, 3)] * dim)), ws)
    else:
        gamma = Fraction(draw(st.integers(1, 48)), draw(st.integers(1, 12)))
    assume(prod(map(len, _box(ws, gamma + max(ws)))) <= 3000)
    return ws, gamma, draw(st.booleans())


@settings(derandomize=True, max_examples=200, deadline=None)
@example(((Fraction(5, 3),), Fraction(10, 3), True))
@example(((Fraction(1, 2), Fraction(1, 3)), Fraction(5, 6), False))
@example(((Fraction(3, 2), Fraction(7, 4), Fraction(1, 12)), Fraction(2), True))
@example(((Fraction(1, 12),) * 3, Fraction(-1, 12), False))
@given(graded_cases())
def test_graded_ideal_matches_brute_force(case):
    ws, gamma, strict = case
    w = WeightVector(ws)
    gens = graded_ideal(w, gamma, strict).gens
    assert gens == _reference_graded_gens(ws, gamma, strict)

    def qualifies(m):
        return _wdeg(m, ws) > gamma if strict else _wdeg(m, ws) >= gamma

    for g in gens:
        assert qualifies(g)
        for i, e in enumerate(g):
            if e:
                assert not qualifies(g[:i] + (e - 1,) + g[i + 1:])


@settings(derandomize=True, max_examples=120, deadline=None)
@example(((Fraction(5, 3),), Fraction(-1, 12), True))
@example(((Fraction(1, 2), Fraction(1, 3)), Fraction(7, 6), True))
@given(graded_cases())
def test_monomials_weighted_upto_matches_brute_force(case):
    # the case's gamma serves as the bound; strict is unused
    ws, bound, _ = case
    got = monomials_weighted_upto(WeightVector(ws), bound)
    ref = [m for m in product(*_box(ws, bound)) if _wdeg(m, ws) <= bound]
    assert got == sorted(ref, key=lambda m: (sum(m), m))
    assert len(set(got)) == len(got)
    assert all(_wdeg(m, ws) <= bound for m in got)
    if bound < 0:
        assert got == []


def test_ideal_operations():
    x_or_y = MonomialIdeal(2, [(1, 0), (0, 1)])
    xy = MonomialIdeal(2, [(1, 1)])
    assert xy <= x_or_y


def test_minimalization():
    ideal = MonomialIdeal(2, [(1, 1), (2, 1), (1, 2), (0, 3)])
    assert ideal.gens == ((1, 1), (0, 3))


def test_div_exact():
    f = poly_parse("x1^2+x2^3", 2)
    g = poly_parse("x1 - x2", 2)
    assert (f * g).div_exact(f) == g
    assert f.div_exact(g) is None


def test_infer_dim():
    assert infer_dim("x3*d2 + x1") == 3
    assert infer_dim("s + 1") == 1
    assert infer_dim("x0") == infer_dim("d0^2") == 1


def test_partial_derivative():
    f = poly_parse("x1^2*x2 + 3*x2", 2)
    assert f.partial(0) == poly_parse("2*x1*x2", 2)
    assert f.partial(1) == poly_parse("x1^2 + 3", 2)


def test_rational_format():
    assert fmt_rational(Fraction(5, 6)) == "5/6"
    assert fmt_rational(Fraction(4, 2)) == "2"
    assert parse_rational("-7/3") == Fraction(-7, 3)
    with pytest.raises(ParseError):
        parse_rational("1.5")


def test_constructor_canonicalizes_coefficients():
    p = Polynomial(2, {(1, 0): 3, (0, 1): "1/2", (1, 1): Fraction(6, 4),
                       (2, 0): 0, (0, 2): Fraction(0), (0, 0): "0"})
    assert (p.nums, p.den) == ({(1, 0): 6, (0, 1): 1, (1, 1): 3}, 2)
    assert all(type(c) is int for c in p.nums.values())
    assert p == poly_parse("3*x1 + 1/2*x2 + 3/2*x1*x2", 2)
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatch):
            Polynomial(2, {bad: Fraction(1)})


@pytest.mark.parametrize("dim", range(4))
def test_monomials_upto_degree_is_sorted_grlex(dim):
    # every exponent vector of total degree <= bound, once, in grlex order
    # (none for a negative bound)
    for bound in range(-1, 22 if dim < 3 else 12):
        box = product(range(max(bound, 0) + 1), repeat=dim)
        ref = sorted((m for m in box if sum(m) <= bound), key=grlex_key)
        assert list(monomials_upto_degree(dim, bound)) == ref
        # the degree-exact set of the bound is its last degree block
        assert monomials_of_degree(dim, bound) == [
            m for m in ref if sum(m) == bound]


def _minimalize_quadratic(monos) -> tuple:
    """The minimal elements under division, each monomial tested against
    every one kept before it in grlex order."""
    out = []
    for m in sorted(set(monos), key=grlex_key):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 3)] * dim), max_size=25),
    st.integers(0, 6))))
def test_minimalize_matches_the_quadratic_rule(case):
    # random monomial sets, with duplicates, and an equal-degree antichain
    # (every vector of one degree) mixed in: minimalize, which tests each
    # monomial only against the kept ones of lower degree, keeps what the
    # rule testing every kept one keeps
    monos, degree = case
    dim = len(monos[0]) if monos else 2
    antichain = monomials_of_degree(dim, degree)
    for family in (monos, monos + monos[::2], antichain, monos + antichain):
        assert minimalize(family) == _minimalize_quadratic(family)
    assert minimalize(antichain) == tuple(antichain)


# integers, and Fractions with large or pairwise coprime denominators
RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-10**15, 10**15),
              st.sampled_from([2, 3, 7, 12, 10**9 + 7, 2**61 - 1, 3**40])),
).filter(bool)


@st.composite
def polynomial_pairs(draw):
    """Two polynomials of one dimension 1..3, with few exponents so that
    products collide and cancel; either may be empty."""
    dim = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 2)] * dim)
    return tuple(Polynomial(dim, draw(st.dictionaries(monos, RATIONALS,
                                                      max_size=5)))
                 for _ in range(2))


def reference_mul(p, q):
    """The schoolbook product in Fraction arithmetic, summed per monomial in
    first-seen order, zeros dropped."""
    out = {}
    for m1, c1 in fraction_terms(p).items():
        for m2, c2 in fraction_terms(q).items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(derandomize=True, max_examples=150, deadline=None)
@example((poly_parse("x1 + 1", 1), poly_parse("x1 - 1", 1)))  # x1 cancels
@example((Polynomial.zero(2), poly_parse("x1 - 3/7*x2", 2)))
@example((Polynomial(3, {(1, 0, 2): Fraction(5, 2**61 - 1),
                         (0, 0, 0): Fraction(-7, 3**40)}),
          Polynomial(3, {(0, 1, 0): Fraction(-(2**61 - 1), 10**9 + 7),
                         (1, 0, 2): Fraction(3**40, 2)})))
@given(polynomial_pairs())
def test_polynomial_mul_matches_fraction_reference(pair):
    p, q = pair
    got, ref = p * q, reference_mul(p, q)
    assert got == Polynomial(p.dim, ref)
    assert list(got.nums) == list(ref)
    assert all(type(c) is int for c in got.nums.values())


def test_polynomial_products_cancel():
    x, y = poly_parse("x1", 2), poly_parse("x1 + 2/3*x2 - 5", 2)
    assert (x * y - y * x).is_zero()
    assert (poly_parse("x1 + 1/3", 1) * poly_parse("3*x1 - 1", 1)
            == poly_parse("3*x1^2 - 1/3", 1))
    assert (Polynomial.zero(2) * y) == Polynomial.zero(2)
