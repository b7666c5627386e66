import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hwkit import weyl
from hwkit.cli import main
from hwkit.errors import DimensionMismatch, InternalCheckFailed
from hwkit.exactalg import Polynomial, mono_mul, poly_parse
from hwkit.linalg import Echelon, nullspace
from hwkit.weyl import (KeyPacking, WeylOperator, apply_to_twisted,
                        basis_products, bounded_operator_basis,
                        d_part_images, evaluate_s, graded_operator_basis,
                        homogeneity_grading, syzygy_kernel, weyl_mul,
                        window_packing)
from twisted_reference import TwistedSection, apply_section, fraction_terms


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
    assert (a.nums, a.den) == ({((1, 0), z, 0): 6, (z, (0, 1), 1): -1}, 3)
    assert all(type(c) is int for c in a.nums.values())
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


def total_order(a):
    """Max of |dExponents| + sPower over the terms of a; None for the zero
    operator (the distinguished minus-infinity marker).  The measure of the
    principal-symbol property test."""
    if not a.nums:
        return None
    return max(sum(de) + sp for (_, de, sp) in a.nums)


def test_total_order():
    assert total_order(op("x1^3", 1)) == 0
    assert total_order(op("s*d1", 1)) == 2
    assert total_order(op("x1*d1 - s", 1)) == 1
    assert total_order(WeylOperator.zero(1)) is None


def test_total_order_submultiplicative():
    rng = random.Random(9)
    for _ in range(60):
        a, b = rand_operator(rng, with_s=True), rand_operator(rng, with_s=True)
        p = weyl_mul(a, b)
        if not p.is_zero():
            assert total_order(p) <= total_order(a) + total_order(b)


def test_apply_to_twisted_examples():
    # the Fraction reference walk: d1 on f^{s+1}, f=x1 -> (s+1) f^s
    f = poly_parse("x1", 1)
    res = apply_section(WeylOperator.d(0, 1), f, TwistedSection.power(1, 1))
    assert res.coeffs == {1: Polynomial.one(1), 0: Polynomial.one(1)}
    assert res.exponent_offset() == 0

    # (1/4) d1^2 on f^{s+1}, f=x1^2 -> (s+1)(s+1/2) f^s
    f2 = poly_parse("x1^2", 1)
    quarter = WeylOperator(1, {((0,), (2,), 0): Fraction(1, 4)})
    res2 = apply_section(quarter, f2, TwistedSection.power(1, 1))
    want = {2: Polynomial.one(1),
            1: Polynomial.constant(1, Fraction(3, 2)),
            0: Polynomial.constant(1, Fraction(1, 2))}
    assert res2.coeffs == want and res2.exponent_offset() == 0
    # the kernel keeps the pole G = 2: (s+1)(4s+2) F over 4, times F^(s-1)
    assert apply_to_twisted(quarter, f2, 1) == (
        {2: {(2,): 4}, 1: {(2,): 6}, 0: {(2,): 2}}, 4, 2)

    # (x1 d1 - (s-1)) kills f^{s-1} for f = x1 x2
    f3 = poly_parse("x1*x2", 2)
    assert apply_section(op("x1*d1 - s + 1", 2), f3,
                         TwistedSection.power(2, -1)).is_zero()


def test_apply_composition_property():
    rng = random.Random(17)
    f = poly_parse("x1*x2", 2)
    sec = TwistedSection.power(2, 1)
    for _ in range(25):
        a, b = rand_operator(rng, with_s=True), rand_operator(rng, with_s=True)
        lhs = apply_section(weyl_mul(a, b), f, sec)
        rhs = apply_section(a, f, apply_section(b, f, sec))
        assert lhs.same_element(rhs, f)


def kernel_matches_reference(a, f, shift):
    """Assert that apply_to_twisted(a, f, shift) is the reference section
    a f^(s+shift) = N f^(s+shift-pole): with f = F/df, the kernel's
    a F^(s+shift) = H/den F^(s+shift-G) is a f^(s+shift) =
    H/(den df^G) f^(s+shift-G), so H/(den df^G) == N f^(G-pole)."""
    h, den, top = apply_to_twisted(a, f, shift)
    assert top == max((sum(de) for _, de, _ in a.nums), default=0)
    assert all(t and all(t.values()) for t in h.values())
    ref = apply_section(a, f, TwistedSection.power(f.dim, shift))
    assert ref.pole <= top
    scale = Fraction(1, den * math.lcm(
        *(c.denominator for c in fraction_terms(f).values())) ** top)
    mult = f ** (top - ref.pole)
    assert {j: Polynomial(f.dim, {m: c * scale for m, c in t.items()})
            for j, t in h.items()} == {j: p * mult
                                       for j, p in ref.coeffs.items()}


def kernel_identity(a, f, shift, r):
    """a f^(s+shift) == r(s) f^(s+shift), read from the kernel alone:
    H/den F^(s+shift-G) == r(s) F^(s+shift), that is H/den == r(s) F^G."""
    h, den, top = apply_to_twisted(a, f, shift)
    big_f = f.scale(math.lcm(*(c.denominator
                               for c in fraction_terms(f).values())))
    want = {j: Polynomial.constant(f.dim, c) * big_f ** top
            for j, c in r.items() if c}
    return {j: Polynomial(f.dim, {m: Fraction(c, den) for m, c in t.items()})
            for j, t in h.items()} == want


def reference_identity(a, f, shift, r):
    """The same identity, read from the reference walk."""
    got = apply_section(a, f, TwistedSection.power(f.dim, shift))
    return got.same_element(TwistedSection(f.dim, shift, 0, {
        j: Polynomial.constant(f.dim, c) for j, c in r.items()}), f)


@st.composite
def twisted_cases(draw):
    """(a, f, shift, r): f of dimension 1..3 with coefficients c*k/q, q in
    1..6 and a common factor k, so that F = df*f is often not primitive;
    a nonzero, with s-powers and d-parts up to 2, G = 0 among them (the
    zero operator is an explicit example).  On half the draws in dimension
    >= 2, a is instead the true identity A*(f_j d_i - f_i d_j) + r(s),
    whose Hamiltonian part kills every power of f; else r is None."""
    dim = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 2)] * dim)
    nonzero = st.integers(-4, 4).filter(bool)
    common = draw(st.sampled_from([1, 2, 3, 6]))
    f = Polynomial(dim, {
        m: Fraction(common * c, draw(st.integers(1, 6)))
        for m, c in draw(st.dictionaries(monos.filter(any), nonzero,
                                         min_size=1, max_size=3)).items()})
    a = WeylOperator(dim, {
        key: Fraction(c, draw(st.integers(1, 6)))
        for key, c in draw(st.dictionaries(
            st.tuples(monos, monos, st.integers(0, 2)), nonzero,
            min_size=1, max_size=4)).items()})
    shift = draw(st.sampled_from([-1, 0, 1, 2]))
    if dim == 1 or draw(st.booleans()):
        return a, f, shift, None
    i, j = sorted(draw(st.permutations(range(dim)))[:2])
    hamiltonian = (WeylOperator.from_polynomial(f.partial(j))
                   * WeylOperator.d(i, dim)
                   - WeylOperator.from_polynomial(f.partial(i))
                   * WeylOperator.d(j, dim))
    r = {k: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
         for k in range(draw(st.integers(0, 2)) + 1)}
    return (a * hamiltonian + WeylOperator(dim, {
        ((0,) * dim, (0,) * dim, k): c for k, c in r.items()}), f, shift, r)


@settings(derandomize=True, max_examples=100, deadline=None)
@example((WeylOperator.zero(2), poly_parse("x1*x2", 2), 0, None))
@example((op("s - 1/2", 2), poly_parse("x1*x2", 2), -1,  # A = 0
          {1: Fraction(1), 0: Fraction(-1, 2)}))
@example((op("2/3*x1^2*s^2 - 1/5", 1), poly_parse("2*x1^2", 1), 1, None))
@given(twisted_cases())
def test_apply_to_twisted_matches_reference(case):
    # the integer kernel against the Fraction walk; a true identity holds
    # in both, and fails in both once r(s) is perturbed
    a, f, shift, r = case
    kernel_matches_reference(a, f, shift)
    if r is not None:
        assert kernel_identity(a, f, shift, r)
        assert reference_identity(a, f, shift, r)
        wrong = dict(r)
        wrong[0] += 1
        assert not kernel_identity(a, f, shift, wrong)
        assert not reference_identity(a, f, shift, wrong)


def test_apply_to_twisted_shift_off_by_one():
    # for f = x1*x2, E - s + 1 with the Euler field E kills f^(s-1) and
    # leaves f^s = F * F^(s-1)
    f = poly_parse("x1*x2", 2)
    a = op("1/2*x1*d1 + 1/2*x2*d2 - s + 1", 2)
    assert apply_to_twisted(a, f, -1) == ({}, 2, 1)
    assert apply_to_twisted(a, f, 0) == ({0: {(1, 1): 2}}, 2, 1)
    assert apply_section(a, f, TwistedSection.power(2, -1)).is_zero()
    assert not apply_section(a, f, TwistedSection.power(2, 0)).is_zero()
    for shift in (-1, 0, 1, 2):
        kernel_matches_reference(a, f, shift)


def basis_strings(keys):
    return [str(WeylOperator(len(key[0]), {key: 1})) for key in keys]


def test_bounded_basis():
    assert basis_strings(bounded_operator_basis(1, 0, 0)) == ["1"]
    assert basis_strings(bounded_operator_basis(1, 1, 0)) == ["1", "d1"]
    assert basis_strings(bounded_operator_basis(1, 1, 1)) == [
        "1", "d1", "x1", "x1*d1"]
    with_s = bounded_operator_basis(1, 1, 0, 1)
    assert basis_strings(with_s) == ["1", "s", "d1"]
    # the triple-point w0 basis of hodge_on_weight at l = 1
    assert len(bounded_operator_basis(2, 4, 12, 3)) == 3094


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bounded_basis_size_closed_form(dim):
    # C(dim+xdeg, dim) x-parts, times, for each d-degree d, the
    # C(d+dim-1, dim-1) d-parts of that degree with min(s_bound, order-d)+1
    # s-powers each
    for order in range(5):
        for xdeg in range(5):
            for s_bound in range(4):
                keys = bounded_operator_basis(dim, order, xdeg, s_bound)
                assert len(set(keys)) == len(keys)
                assert keys == sorted(
                    keys, key=lambda k: (sum(k[0]) + sum(k[1]) + k[2], k))
                per_x = sum(math.comb(d + dim - 1, dim - 1)
                            * (min(s_bound, order - d) + 1)
                            for d in range(order + 1))
                assert len(keys) == math.comb(dim + xdeg, dim) * per_x


@pytest.mark.parametrize("text,dim,rank", [
    ("x1^5", 1, 1), ("x1*x2", 2, 2), ("x1^2*x2^3", 2, 2), ("x1*x2*x3", 3, 3),
    ("x1^2+x2^3", 2, 1), ("x1^2*x2+x1*x2^2", 2, 1), ("x1^3+x2^4", 2, 1),
    ("x1*x2+x3^2", 3, 2), ("x1^2+x2^3+x1*x2", 2, 0), ("x1+1", 1, 0),
])
def test_homogeneity_grading(text, dim, rank):
    # a basis of int weights, each giving every term of f the same degree:
    # all of Q^n for a monomial, a line for a quasi-homogeneous germ
    f = poly_parse(text, dim)
    grading = homogeneity_grading(f.dim, [f.nums])
    assert len(grading) == rank
    independent = Echelon()
    for w, (deg,) in grading:
        assert all(type(v) is int for v in (*w, deg))
        assert {sum(wi * ai for wi, ai in zip(w, a)) for a in f.nums} == {deg}
        assert independent.insert(
            {i: wi for i, wi in enumerate(w) if wi}, 1) is None


@pytest.mark.parametrize("text,dim,bounds,kept,total", [
    ("x1^2+x2^3", 2, (3, 4, 3), 5, 300),
    ("x1*x2*x3", 3, (5, 6, 3), 15, 10164),
    ("x1^2*x2+x1*x2^2", 2, (5, 6, 4), 50, 1540),
    ("x1^2+x2^3+x1*x2", 2, (3, 4, 2), 285, 285),
])
def test_graded_basis_is_one_degree_of_the_full_basis(text, dim, bounds,
                                                      kept, total):
    # the keys x^b d^g s^j with w.(b - g) = -deg_w f, found by filtering
    # the full basis, in its order
    f = poly_parse(text, dim)
    grading = homogeneity_grading(f.dim, [f.nums])
    full = bounded_operator_basis(dim, *bounds)
    want = [(b, g, j) for b, g, j in full
            if all(sum(wi * (bi - gi) for wi, bi, gi in zip(w, b, g)) == -deg
                   for w, (deg,) in grading)]
    assert graded_operator_basis(f, *bounds) == want
    assert (len(want), len(full)) == (kept, total)
    with pytest.raises(ValueError):
        graded_operator_basis(f, 1, -1, 0)


def syzygy_operators(tup, dim):
    """A syzygy_kernel tuple (parts, den) as the WeylOperators parts[i]/den,
    after checking its integer form."""
    parts, den = tup
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for p in parts for c in p.values())
    return [WeylOperator(dim, {key: Fraction(c, den) for key, c in p.items()})
            for p in parts]


def test_syzygy_symmetric_pair():
    x = WeylOperator.x(0, 1)
    ker = [syzygy_operators(t, 1) for t in syzygy_kernel([x, x], 0, 0)]
    assert any(t[0] == -t[1] and not t[0].is_zero() for t in ker)


def test_syzygy_d_and_one():
    ker = syzygy_kernel([WeylOperator.d(0, 1), WeylOperator.one(1)], 1, 1)
    # contains (1, -d1): P_0 = c, P_1 = -c*d1
    found = False
    for p0, p1 in (syzygy_operators(t, 1) for t in ker):
        if not p0.is_zero() and total_order(p0) == 0:
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


# rational targets, so that the check's common denominator is not 1
SYZYGY_TARGETS = ("1/2*x1*d1 + 1/2*x2*d2 + 1", "x1*d1 - x2*d2", "1/3*x1*x2")

NODE_ANN = """# ordinary double point, untwisted
f: x1*x2
E: 1/2*x1*d1 + 1/2*x2*d2
alpha: 0
b: (s+1)^2
pp: true
x1*d1 - x2*d2
"""


def scale_entry(dep, tag):
    dep[tag] *= 2


def drop_entry(dep, tag):
    del dep[tag]


@pytest.mark.parametrize("corrupt", [scale_entry, drop_entry])
def test_syzygy_check_fires_on_a_corrupted_dependency(monkeypatch, capsys,
                                                      tmp_path, corrupt):
    tags = []

    def corrupted(columns, dens, companions):
        # the largest tag is an entry of the last target's part
        deps = nullspace(columns, dens, companions)
        tags.append(max(max(dep) for dep, _ in deps))
        corrupt(next(dep for dep, _ in deps if tags[-1] in dep), tags[-1])
        return deps

    targets = [op(t, 2) for t in SYZYGY_TARGETS]
    monkeypatch.setattr(weyl, "nullspace", corrupted)
    with pytest.raises(InternalCheckFailed):
        syzygy_kernel(targets, 2, 2)
    assert tags[0] // len(bounded_operator_basis(2, 2, 2)) == len(targets) - 1
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    (tmp_path / "node.ann").write_text(NODE_ANN)
    code = main(["ppd", "--input", str(tmp_path / "node.ann"), "--l", "0",
                 "--weight-only"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.strip().splitlines() == [
        "internal check failed: syzygy failed re-multiplication check"]


def test_syzygy_check_makes_no_weyl_mul_call(monkeypatch):
    # the check accumulates integer numerators through weyl_mul's kernel,
    # with no Fraction product per tuple entry
    calls = []
    real = weyl.weyl_mul

    def counted(*args):
        calls.append(args)
        return real(*args)

    targets = [op(t, 2) for t in SYZYGY_TARGETS]
    monkeypatch.setattr(weyl, "weyl_mul", counted)
    assert syzygy_kernel(targets, 2, 2)
    assert calls == []


def commutative_d_step(packing, terms, i):
    """KeyPacking.d_step without the a_i x^(a-e_i) term of d_i x^a: d_i
    multiplied as if it commuted with x_i, so each packed code only gains
    the packed key of d_i."""
    e_i = tuple(int(k == i) for k in range(packing.dim))
    place = packing.pack(((0,) * packing.dim, e_i, 0))
    out = {}
    for code, c in terms.items():
        out[code + place] = out.get(code + place, 0) + c
    return out


def test_syzygy_check_fires_on_a_corrupted_d_step(monkeypatch, capsys,
                                                  tmp_path):
    # the columns come from the packed KeyPacking.d_step and the check from
    # the Leibniz kernel, so a wrong column rule gives dependencies that the
    # check rejects
    monkeypatch.setattr(KeyPacking, "d_step", commutative_d_step)
    targets = [op(t, 2) for t in SYZYGY_TARGETS]
    with pytest.raises(InternalCheckFailed):
        syzygy_kernel(targets, 2, 2)
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    (tmp_path / "node.ann").write_text(NODE_ANN)
    code = main(["ppd", "--input", str(tmp_path / "node.ann"), "--l", "0",
                 "--weight-only"])
    assert code == 4
    assert capsys.readouterr().err.strip().splitlines() == [
        "internal check failed: syzygy failed re-multiplication check"]


def test_syzygy_check_expands_each_d_part_image_once(monkeypatch):
    # the check multiplies each tuple through the images d^g * t, so at most
    # one Leibniz product per (target, d-part), however many tuples use it
    leibniz = []
    real = weyl._mul_into

    def counted(out, num_a, num_b, dim):
        if any(any(de) for _, de, _ in num_a):
            leibniz.append(num_a)
        real(out, num_a, num_b, dim)

    targets = [op(t, 2) for t in SYZYGY_TARGETS]
    monkeypatch.setattr(weyl, "_mul_into", counted)
    assert syzygy_kernel(targets, 2, 2)
    d_parts = {g for _, g, _ in bounded_operator_basis(2, 2, 2)}
    assert 0 < len(leibniz) <= len(targets) * len(d_parts)


@st.composite
def integer_operator_pairs(draw):
    """A dimension 1..3 and two integer-term operators of it, with s-powers
    up to 2 or none, and exponents up to 3; either may be empty."""
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    keys = st.tuples(exps, exps, st.integers(0, draw(st.sampled_from([0, 2]))))
    coeffs = st.integers(-9, 9).filter(bool)
    return (dim, *(draw(st.dictionaries(keys, coeffs, max_size=4))
                   for _ in range(2)))


@settings(derandomize=True, max_examples=150, deadline=None)
@example((3, {((1, 0, 2), (0, 2, 1), 2): 3, ((2, 1, 0), (0, 0, 0), 1): -2},
          {((0, 3, 1), (1, 0, 0), 2): 5, ((1, 1, 1), (0, 0, 0), 0): 7}))
@given(integer_operator_pairs())
def test_d_part_route_equals_the_product(case):
    # the syzygy check's route: P = sum_g X_g d^g with every X_g d-free, so
    # P * t = sum_g X_g * (d^g * t); and a d-free left factor, which skips
    # the Leibniz expansion, gives that expansion's product
    dim, p, t = case
    zero = (0,) * dim
    d_free = {}
    for (b, g, j), c in p.items():
        d_free.setdefault(g, {})[(b, zero, j)] = c
    got = {}
    for g, x in d_free.items():
        image = {}
        weyl._mul_into(image, {(zero, g, 0): 1}, t, dim)
        weyl._mul_into(got, x, image, dim)
    assert WeylOperator(dim, got) == weyl_mul(WeylOperator(dim, p),
                                              WeylOperator(dim, t))
    for x in d_free.values():
        out = {}
        weyl._mul_into(out, x, t, dim)
        want = reference_weyl_mul(WeylOperator(dim, x), WeylOperator(dim, t))
        assert {k: c for k, c in out.items() if c} == want


def decoded_products(keys, t, packing):
    """basis_products with every key unpacked, each column an operator over
    the shared denominator."""
    columns, den = basis_products(keys, t, packing)
    return [WeylOperator(t.dim, {packing.unpack(code): c
                                 for code, c in col.items()}, den)
            for col in columns]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("with_s", [False, True])
def test_basis_products_equal_weyl_mul(dim, with_s):
    rng = random.Random(100 * dim + with_s)
    order, xdeg = (3, 2) if dim < 3 else (2, 1)
    s_bound = order if with_s else 0
    keys = bounded_operator_basis(dim, order, xdeg, s_bound)
    for _ in range(6):
        t = rand_operator(rng, dim, with_s)
        packing = window_packing([t], order, xdeg, s_bound)
        want = [weyl_mul(WeylOperator(dim, {key: 1}), t) for key in keys]
        assert decoded_products(keys, t, packing) == want
        shuffled = list(range(len(keys)))
        rng.shuffle(shuffled)
        got = decoded_products([keys[i] for i in shuffled], t, packing)
        assert got == [want[i] for i in shuffled]
    # fractional coefficients share one denominator per generator
    t = op("-5/6*x1*d1 + 3/4*d1^2", dim)
    packing = window_packing([t], order, xdeg, s_bound)
    assert basis_products(keys, t, packing)[1] == 12
    assert decoded_products(keys, t, packing) == [
        weyl_mul(WeylOperator(dim, {key: 1}), t) for key in keys]
    # at the smallest radix window_packing allows, the d digits of the
    # deepest images reach radix - 1 and the x digits are stepped down to
    # 0, so a carry or a borrow in the packed d-step would show; one less
    # is refused
    one, zero = (1,) + (0,) * (dim - 1), (0,) * dim
    t = WeylOperator(dim, {((2,) * dim, (2,) * dim, int(with_s)): 1,
                           (zero, (1,) * dim, 0): -3, (one, zero, 0): 5})
    packing = window_packing([t], order, xdeg, s_bound)
    assert packing.radix == 3 + order
    assert max(de[0] for col in decoded_products(keys, t, packing)
               for _, de, _ in col.nums) == packing.radix - 1
    assert decoded_products(keys, t, packing) == [
        weyl_mul(WeylOperator(dim, {key: 1}), t) for key in keys]
    with pytest.raises(InternalCheckFailed):
        basis_products(keys, t, KeyPacking(dim, packing.radix - 1,
                                           packing.reach))


def test_basis_products_of_no_keys():
    # _kept_keys may keep no product of a generator: there is no image to
    # check or build, and the denominator is still t's
    t = op("1/2*x1*d1 + 1/3*d2^4", 2)
    assert basis_products([], t, window_packing([t], 1, 1)) == ([], 6)
    assert basis_products([], t, KeyPacking(2, 2, 0)) == ([], 6)


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


def test_d_chains_deeper_than_the_stack():
    # both d-chain builders walk bottom-up in a loop, one step per d-part,
    # so a d-part deeper than the recursion limit builds like any other
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    steps = []

    def step(image, i):
        steps.append(i)
        return image + (i,)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        images = d_part_images([(0, 150)], (), step)
        kernel = apply_to_twisted(op("d1^150", 1), poly_parse("x1", 1), 1)
    finally:
        sys.setrecursionlimit(limit)
    assert len(images) == 151 and steps == [1] * 150
    assert images[(0, 150)] == (1,) * 150
    # d1^150 x1^(s+1) = (s+1) s (s-1) ... (s-148) x1^(s-149)
    coeffs = [1]  # of s^0, s^1, ...
    for k in range(150):
        coeffs = [(1 - k) * c + (coeffs[j - 1] if j else 0)
                  for j, c in enumerate(coeffs + [0])]
    assert kernel == ({j: {(0,): c} for j, c in enumerate(coeffs) if c}, 1,
                      150)


def test_basis_products_rejects_dimension_mismatch():
    t = op("x1*d1", 1)
    with pytest.raises(DimensionMismatch):
        basis_products(bounded_operator_basis(2, 1, 1), t,
                       window_packing([t], 1, 1))
    with pytest.raises(DimensionMismatch):
        basis_products(bounded_operator_basis(1, 1, 1), t,
                       window_packing([op("x1*d1", 2)], 1, 1))


def test_basis_products_refuse_a_radix_that_aliases():
    # x1^2 at x-degree 3 reaches x1^5: radix 6 holds it, radix 5 would
    # alias x1^5 with a d-exponent of the next digit
    t = op("x1^2", 1)
    keys = bounded_operator_basis(1, 1, 3)
    packing = window_packing([t], 1, 3)
    assert (packing.radix, packing.reach) == (6, 3)
    assert ((5,), (0,), 0) in {
        packing.unpack(code) for col in basis_products(keys, t, packing)[0]
        for code in col}
    with pytest.raises(InternalCheckFailed):
        basis_products(keys, t, KeyPacking(1, 5, 3))
    # and so are keys that shift further than the packing was sized for
    with pytest.raises(InternalCheckFailed):
        basis_products(bounded_operator_basis(1, 1, 4), t, packing)
    # the d-exponents of an image are checked against the radix itself
    with pytest.raises(InternalCheckFailed):
        basis_products(bounded_operator_basis(1, 3, 0), op("d1^2", 1),
                       KeyPacking(1, 5, 0))


def test_basis_products_bound_each_d_exponent_per_variable():
    # radix 5, reach 1: t = d2^2 packs, and every key's x-part and s-power
    # stays within reach, but d^(0,3) * t = d2^5 would alias d1 at the
    # next digit; the bound is per variable, so t = d1^2 under the same
    # keys (top d-exponent 2 + 0 and 0 + 3) is built, and exactly
    packing = KeyPacking(2, 5, 1)
    zero = (0, 0)
    assert packing.pack((zero, (0, 5), 0)) == packing.pack((zero, (1, 0), 0))
    keys = [k for k in bounded_operator_basis(2, 3, 1) if not k[1][0]]
    assert max(k[1][1] for k in keys) == 3
    with pytest.raises(InternalCheckFailed):
        basis_products(keys, op("d2^2", 2), packing)
    t = op("d1^2", 2)
    assert decoded_products(keys, t, packing) == [
        weyl_mul(WeylOperator(2, {key: 1}), t) for key in keys]


@st.composite
def packing_windows(draw):
    """Generators and a window (order, xdeg, s_bound, s_extra) in dim 1-3."""
    dim = draw(st.integers(1, 3))
    exps = st.integers(0, 3)
    key = st.tuples(st.tuples(*[exps] * dim), st.tuples(*[exps] * dim),
                    st.integers(0, 2))
    gens = [WeylOperator(dim, {k: 1 for k in keys}) for keys in draw(
        st.lists(st.lists(key, min_size=1, max_size=3), min_size=1,
                 max_size=2))]
    window = draw(st.tuples(st.integers(0, 2), st.integers(0, 2),
                            st.integers(0, 2), st.integers(0, 2)))
    return gens, window


@settings(derandomize=True, max_examples=60, deadline=None)
@example(([op("x1^3*d1^3*s^2", 1)], (2, 2, 2, 2)))  # every digit at its top
@given(packing_windows())
def test_packing_is_exact_inside_the_window(case):
    gens, (order, xdeg, s_bound, s_extra) = case
    dim = gens[0].dim
    packing = window_packing(gens, order, xdeg, s_bound, s_extra)
    basis = bounded_operator_basis(dim, order, xdeg, s_bound)
    reached = set()
    for t in gens:
        for g in {g for _, g, _ in basis}:
            image = weyl_mul(WeylOperator(dim, {((0,) * dim, g, 0): 1}), t)
            for (xe, de, sp) in image.nums:
                code = packing.pack((xe, de, sp))
                assert packing.order(code) == sum(de) + sp
                for b, g2, j in basis:
                    if g2 != g:
                        continue
                    for i in range(s_extra + 1):
                        key = (mono_mul(xe, b), de, sp + j + i)
                        # a shift is one addition, and unpacks exactly
                        assert code + packing.shift(b) + j + i == \
                            packing.pack(key)
                        assert packing.unpack(packing.pack(key)) == key
                        reached.add(key)
    # int order is tuple order on everything the window reaches
    ordered = sorted(reached)
    codes = [packing.pack(key) for key in ordered]
    assert codes == sorted(set(codes))
    assert all(code < packing.top for code in codes)


def test_operator_parse_print_roundtrip():
    rng = random.Random(29)
    for _ in range(200):
        a = rand_operator(rng, with_s=True)
        assert WeylOperator.parse(str(a), 2) == a


def test_substitute_s():
    a = op("x1*d1*s^2 - s + 3", 1)
    got = evaluate_s([a, op("2*s^3 - x1", 1), op("d1", 1)], Fraction(-1, 2))
    assert got == [op("1/4*x1*d1 + 7/2", 1), op("-1/4 - x1", 1), op("d1", 1)]
    assert evaluate_s([a], Fraction(0)) == [op("3", 1)]
    assert evaluate_s([], Fraction(2, 3)) == []


def _leading_symbol(a):
    """Terms of maximal total order, as a commutative polynomial in
    (x, xi, s) encoded by the same keys."""
    top = total_order(a)
    return {k: c for k, c in fraction_terms(a).items()
            if sum(k[1]) + k[2] == top}


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
        assert total_order(p) == total_order(a) + total_order(b)
        assert _leading_symbol(p) == _symbol_mul(_leading_symbol(a),
                                                 _leading_symbol(b), 2)


# integers, and Fractions with large or pairwise coprime denominators
RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-10**15, 10**15),
              st.sampled_from([2, 3, 7, 12, 10**9 + 7, 2**61 - 1, 3**40])),
).filter(bool)


@st.composite
def operator_pairs(draw):
    """Two operators of one dimension 1..3 with s-powers up to 2 and
    exponents up to 3, so that Leibniz terms collide and cancel; either may
    be empty."""
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    keys = st.tuples(exps, exps, st.integers(0, 2))
    return tuple(WeylOperator(dim, draw(st.dictionaries(keys, RATIONALS,
                                                        max_size=4)))
                 for _ in range(2))


def reference_weyl_mul(a, b):
    """The normal-ordered product in Fraction arithmetic: per pair of terms,
    d^c x^b = sum_k C(c,k) b!/(b-k)! x^(b-k) d^(c-k) in every variable, summed
    per key in first-seen order, zeros dropped."""
    dim = a.dim
    out = {}
    for (xa, da, sa), ca in fraction_terms(a).items():
        for (xb, db, sb), cb in fraction_terms(b).items():
            acc = [((), Fraction(1))]
            for i in range(dim):
                c_i, b_i = da[i], xb[i]
                acc = [(prefix + (k,), coeff * math.comb(c_i, k)
                        * (math.factorial(b_i) // math.factorial(b_i - k)))
                       for prefix, coeff in acc
                       for k in range(min(c_i, b_i) + 1)]
            for kvec, coeff in acc:
                xe = tuple(xa[i] + xb[i] - kvec[i] for i in range(dim))
                de = tuple(da[i] + db[i] - kvec[i] for i in range(dim))
                key = (xe, de, sa + sb)
                out[key] = out.get(key, Fraction(0)) + ca * cb * coeff
    return {k: c for k, c in out.items() if c}


@settings(derandomize=True, max_examples=150, deadline=None)
@example((op("d1 + x1", 1), op("d1 - x1", 1)))  # the x1*d1 terms cancel
@example((WeylOperator.zero(2), op("d1*x2 - 3/7*s", 2)))
@example((op("d1*x2 - 3/7*s", 2), WeylOperator.zero(2)))
@example((WeylOperator(3, {((0, 1, 0), (2, 0, 3), 1): Fraction(5, 2**61 - 1),
                           ((0, 0, 0), (0, 0, 0), 0): Fraction(-7, 3**40)}),
          WeylOperator(3, {((3, 0, 2), (0, 1, 0), 2):
                           Fraction(-(2**61 - 1), 10**9 + 7),
                           ((1, 2, 1), (1, 0, 0), 0): Fraction(3**40, 2)})))
@given(operator_pairs())
def test_weyl_mul_matches_fraction_reference(pair):
    a, b = pair
    got, ref = weyl_mul(a, b), reference_weyl_mul(a, b)
    assert got == WeylOperator(a.dim, ref)
    assert list(got.nums) == list(ref)
    assert all(type(c) is int for c in got.nums.values())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_commutator_products_cancel(dim):
    one = WeylOperator.one(dim)
    for i in range(dim):
        d, x = WeylOperator.d(i, dim), WeylOperator.x(i, dim)
        assert (weyl_mul(d, x) - weyl_mul(x, d) - one).is_zero()
        # [d^2, x^2/3] = 4/3*x*d + 2/3
        x2 = x.scale(Fraction(1, 3)) * x
        d2 = weyl_mul(d, d)
        assert (weyl_mul(d2, x2) - weyl_mul(x2, d2)
                - weyl_mul(x, d).scale(Fraction(4, 3))
                - one.scale(Fraction(2, 3))).is_zero()
