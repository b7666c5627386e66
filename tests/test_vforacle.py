import random
from fractions import Fraction

import pytest

from hwkit.bsdata import BFunction, bfunction_snc
from hwkit.errors import PreconditionError, WindowExceeded
from hwkit.exactalg import (Polynomial, WeightVector, monomials_upto_degree,
                            poly_parse)
from hwkit import vforacle
from hwkit.linalg import Echelon
from hwkit.snc import HodgePresentation, SncDivisor
from hwkit.vforacle import (BfElement, Bounds, ModuleSpan, SncVFamily,
                            WhomVFamily, _cross_containment,
                            _mutual_containment, act, apply_s_shifted,
                            bf_span, candidate_v_snc, crosscheck_hodge_weight,
                            dspans_equal, kernel_filtration_check, membership,
                            phi_shift, presentation_contained,
                            presentations_equal, psi_map, q_poch,
                            reduce_presentation, truncated_span,
                            verify_bfunction, verify_v_axioms)
from hwkit.weyl import TwistedSection, apply_to_twisted, bounded_operator_basis
from hwkit.whom import QuasiHomogeneousGerm

F = Fraction
XY = poly_parse("x1*x2", 2)


def rand_poly(rng, dim=2, deg=2):
    terms = {m: F(rng.randint(-3, 3)) for m in monomials_upto_degree(dim, deg)
             if rng.random() < 0.4}
    return Polynomial(dim, terms)


def cusp_germ():
    return QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))


# ---------------------------------------------------------------------------
# action rules


def test_act_rules():
    u = BfElement.unit(2)
    assert act("t", u, XY).layers == {0: XY}
    assert act("dt", u, XY).layers == {1: Polynomial.one(2)}
    assert act("s", u, XY).layers == {1: -XY}
    v = BfElement.from_poly(poly_parse("x1", 2), layer=2)
    tv = act("t", v, XY)
    assert tv.layers[2] == XY * poly_parse("x1", 2)
    assert tv.layers[1] == poly_parse("-2*x1", 2)


def test_act_commutator():
    rng = random.Random(61)
    for _ in range(50):
        u = BfElement(2, {0: rand_poly(rng), 1: rand_poly(rng),
                          2: rand_poly(rng)})
        lhs = act("dt", act("t", u, XY), XY)
        rhs = act("t", act("dt", u, XY), XY)
        assert lhs + rhs.scale(-1) == u


def test_act_twisted_partial_rejected():
    u = BfElement.unit(2, twist=F(1, 2))
    with pytest.raises(PreconditionError):
        act("d1", u, XY)
    # t, dt, s, x actions stay polynomial on twisted elements
    act("t", u, XY)
    act("s", u, XY)
    act("x1", u, XY)


# ---------------------------------------------------------------------------
# spans and membership


def test_truncated_span_o_module():
    f = poly_parse("x1", 1)
    span = truncated_span([BfElement.unit(1)], f, 0, 2, 2)
    one = BfElement.from_poly(Polynomial.one(1))
    xsq = BfElement.from_poly(poly_parse("x1^2", 1))
    assert span.contains(one.vector())
    assert span.contains(xsq.vector())
    assert span.echelon.rank == 3  # {1, x, x^2}


def test_membership_with_dt_direction():
    # 1 lies in the dt-extended span of x1 for f = x1 at order 1
    f = poly_parse("x1", 1)
    cert = membership(BfElement.unit(1), [BfElement.from_poly(poly_parse("x1", 1))],
                      f, Bounds(1, 1, 2))
    assert cert.is_member()
    # but not at order 0 over f = x1*x2 with generator x1
    cert2 = membership(BfElement.unit(2), [BfElement.from_poly(poly_parse("x1", 2))],
                       XY, Bounds(0, 2, 2))
    assert cert2.verdict == "not-found-at-bound"


def test_membership_window_guard():
    big = BfElement.from_poly(poly_parse("x1^9", 1))
    with pytest.raises(WindowExceeded):
        membership(big, [BfElement.unit(1)], poly_parse("x1", 1),
                   Bounds(1, 3, 2))


def test_member_witness_reevaluates():
    f = poly_parse("x1", 1)
    gen = BfElement.from_poly(poly_parse("x1", 1))
    cert = membership(BfElement.unit(1), [gen], f, Bounds(1, 1, 2))
    assert cert.is_member()
    total = BfElement(1, {}, F(0))
    for step in cert.witness:
        u = gen
        for i, e in enumerate(step["dgamma"]):
            for _ in range(e):
                u = act(f"d{i + 1}", u, f)
        for _ in range(step["dt"]):
            u = act("dt", u, f)
        beta = tuple(step["xbeta"])
        u = BfElement(1, {j: p.mul_mono(beta) for j, p in u.layers.items()})
        total = total + u.scale(F(step["coeff"]))
    assert total == BfElement.unit(1)


# ---------------------------------------------------------------------------
# b-function certification


def test_verify_bfunction_examples():
    cert = verify_bfunction(poly_parse("x1", 1), BFunction({F(-1): 1}), 1, 1)
    assert cert.is_member() and cert.witness["operator"] == "d1"

    cert2 = verify_bfunction(poly_parse("x1^2", 1),
                             BFunction({F(-1): 1, F(-1, 2): 1}), 2, 2)
    assert cert2.is_member() and cert2.witness["minimal_at_bound"]
    assert all(d["verdict"] == "not-found-at-bound"
               for d in cert2.witness["divisors"])

    cert3 = verify_bfunction(XY, bfunction_snc((1, 1)), 2, 2)
    assert cert3.is_member() and cert3.witness["minimal_at_bound"]


def test_verify_bfunction_negative():
    cert = verify_bfunction(poly_parse("x1^2", 1), BFunction({F(-1): 1}), 2, 2)
    assert cert.verdict == "not-found-at-bound"


def test_verify_bfunction_multiple_property():
    # a certified function stays certified after multiplying by (s+c)
    f = poly_parse("x1^2", 1)
    b = BFunction({F(-1): 1, F(-1, 2): 1})
    bigger = BFunction({F(-1): 1, F(-1, 2): 1, F(-1, 3): 1})
    assert verify_bfunction(f, b, 2, 2).is_member()
    assert verify_bfunction(f, bigger, 3, 3).is_member()


@pytest.mark.parametrize("poly,dim,b,order,xdeg", [
    ("x1^2", 1, {F(-1): 1, F(-1, 2): 1}, 2, 2),
    ("x1*x2", 2, {F(-1): 2}, 3, 4),
    ("x1*x2", 2, {F(-1): 1}, 2, 3),
    ("x1^2+x2^3", 2, {F(-1): 1, F(-5, 6): 1, F(-7, 6): 1}, 2, 3),
    ("x1*x2*x3", 3, {F(-1): 3}, 2, 1),
])
def test_verify_bfunction_columns_match_apply_to_twisted(
        monkeypatch, poly, dim, b, order, xdeg):
    # the columns built from one image per d-part equal every basis operator
    # applied to f^(s+1) on its own, over the same common pole
    inserted = []

    class Recording(Echelon):
        def insert(self, vec, companion=None):
            inserted.append(vec)
            return super().insert(vec, companion)

    monkeypatch.setattr(vforacle, "Echelon", Recording)
    f = poly_parse(poly, dim)
    bf = BFunction(b)
    verify_bfunction(f, bf, order, xdeg)
    basis = bounded_operator_basis(dim, order, xdeg, with_s=True,
                                   s_bound=bf.degree())
    sec0 = TwistedSection.power(dim, 1)
    applied = [apply_to_twisted(op, f, sec0) for op in basis]
    pole_target = max([sec.pole for sec in applied] + [1])
    want = [vforacle._section_vector(sec, f, pole_target) for sec in applied]
    assert inserted == want


# ---------------------------------------------------------------------------
# candidate filtrations


def test_candidate_v_snc_exponents():
    # ceil(1*1) - 1 = 0 per coordinate: the level-1 generator is 1 itself
    gens = candidate_v_snc((1, 1), 1, 0)
    assert gens[0].layers == {0: Polynomial.one(2)}
    # just above level 1 the generator jumps to x1*x2
    eps_gens = candidate_v_snc((1, 1), F(11, 10), 0)
    assert eps_gens[0].layers == {0: XY}
    gens2 = candidate_v_snc((2, 3), F(1, 2), 1)
    assert gens2[0].layers == {0: poly_parse("x2", 2)}
    assert gens2[1].layers == {1: poly_parse("x1^2*x2^4", 2)}


def test_v_axioms_snc():
    fam = SncVFamily(SncDivisor((1, 1)), 4)
    rep = verify_v_axioms(fam, XY, [F(1, 2), 1, F(3, 2)], Bounds(3, 8, 5))
    assert rep["all_member"]
    assert any(c["verdict"] == "member" for c in rep["checks"])


def test_v_axioms_whom():
    fam = WhomVFamily(cusp_germ(), 3)
    rep = verify_v_axioms(fam, cusp_germ().f, [F(5, 6), 1, F(7, 6)],
                          Bounds(3, 10, 5))
    assert rep["all_member"]


def test_v_axioms_negative_control():
    class Corrupt(SncVFamily):
        def gens(self, lam):
            gs = super().gens(lam)
            return gs[1:] if F(lam) == F(3, 2) else gs

    rep = verify_v_axioms(Corrupt(SncDivisor((1, 1)), 4), XY, [F(1, 2)],
                          Bounds(3, 8, 5))
    assert not rep["all_member"]


def test_kernel_filtration_checks():
    fam = SncVFamily(SncDivisor((1, 1)), 4)
    kg = [BfElement.from_poly(poly_parse("x1", 2)),
          BfElement.from_poly(poly_parse("x2", 2))]
    cert = kernel_filtration_check(XY, 1, 1, kg, fam.strict_gens(1),
                                   Bounds(3, 8, 5))
    assert cert.is_member()

    f23 = poly_parse("x1^2*x2^3", 2)
    fam23 = SncVFamily(SncDivisor((2, 3)), 4)
    cert2 = kernel_filtration_check(
        f23, F(1, 2), 1, [BfElement.from_poly(poly_parse("x2", 2))],
        fam23.strict_gens(F(1, 2)), Bounds(4, 10, 5))
    assert cert2.is_member()

    # l = 0 is the degenerate identity-level check
    small = SncVFamily(SncDivisor((1, 1)), 2)
    cert3 = kernel_filtration_check(XY, 1, 0, small.strict_gens(1),
                                    small.strict_gens(1), Bounds(2, 6, 4))
    assert cert3.is_member()


# ---------------------------------------------------------------------------
# the comparison maps


def test_q_poch():
    assert q_poch(0, F(1, 2)) == 1
    assert q_poch(2, 1) == 2
    assert q_poch(1, 0) == 0


def test_psi_map():
    g = poly_parse("x1", 2)
    assert psi_map(BfElement.from_poly(g, 0), 0, XY) == [(g, 0)]
    assert psi_map(BfElement.from_poly(g, 1), 0, XY) == []
    assert psi_map(BfElement.from_poly(g, 2), 1, XY) == [(g.scale(2), 2)]


def test_phi_shift():
    g = poly_parse("x1", 2)
    u = BfElement(2, {1: XY * g}, twist=F(1, 2))
    out = phi_shift(u, XY)
    assert out.twist == 0
    assert out.layers[1] == XY * g
    assert out.layers[0] == g.scale(F(-1, 2))
    # pole clearing failure
    with pytest.raises(PreconditionError):
        phi_shift(BfElement(2, {1: g}, twist=F(1, 2)), XY)


def test_phi_shift_single_layer_identity():
    g = poly_parse("x1+x2", 2)
    u = BfElement.from_poly(g, 0, twist=F(1, 3))
    assert phi_shift(u, XY).layers == {0: g}


def test_phi_shift_s_equivariance():
    rng = random.Random(67)
    alpha = F(1, 2)
    for _ in range(20):
        u = BfElement(2, {0: rand_poly(rng) * XY, 1: rand_poly(rng) * XY * XY},
                      twist=alpha)
        lhs = phi_shift(act("s", u, XY), XY)
        rhs = act("s", phi_shift(u, XY), XY) + phi_shift(u, XY).scale(alpha)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# presentation comparison and the master cross-check


def test_presentations_equal():
    p_x = HodgePresentation.build(F(1), 2, [(0, poly_parse("x1", 2), 0)])
    p_y = HodgePresentation.build(F(1), 2, [(0, poly_parse("x2", 2), 0)])
    p_redundant = HodgePresentation.build(
        F(1), 2, [(0, poly_parse("x1", 2), 0), (0, poly_parse("x1^2", 2), 0)])
    B = Bounds(3, 8, 4)
    assert presentations_equal(p_x, p_x, XY, B).is_member()
    assert presentations_equal(p_x, p_redundant, XY, B).is_member()
    assert presentations_equal(p_x, p_y, XY, B).verdict == "not-found-at-bound"


def test_presentations_equal_across_twists():
    # x1 * f^{-1} at twist 0 equals pole-step-0 x1 at twist 1
    p0 = HodgePresentation.build(F(0), 2, [(0, poly_parse("x1", 2), 1)])
    p1 = HodgePresentation.build(F(1), 2, [(0, poly_parse("x1", 2), 0)])
    assert presentations_equal(p0, p1, XY, Bounds(2, 8, 4)).is_member()
    frac = HodgePresentation.build(F(1, 2), 2, [(0, poly_parse("x1", 2), 0)])
    with pytest.raises(PreconditionError):
        presentations_equal(p0, frac, XY, Bounds(2, 8, 4))


def test_reduce_presentation():
    pres = HodgePresentation.build(
        F(1), 2, [(2, poly_parse("x1", 2), 0), (2, poly_parse("x1^2", 2), 0),
                  (2, poly_parse("x1*x2", 2), 0)])
    red = reduce_presentation(pres, XY, Bounds(2, 8, 4))
    assert [str(g) for _, g, _ in red.summands] == ["x1"]


def test_dspans_equal_depth_search():
    # O . 1 presented at pole 0 equals D-span of the pole-1 maximal ideal
    unit = HodgePresentation.build(F(0), 2, [(0, Polynomial.one(2), 0)])
    deep = HodgePresentation.build(
        F(0), 2, [(0, poly_parse("x1*x2", 2), 1)])
    assert dspans_equal(unit, deep, XY, Bounds(2, 8, 4)).is_member()


def test_crosscheck_goldens():
    B = Bounds(4, 12, 6)
    assert crosscheck_hodge_weight("snc", SncDivisor((1, 1)), 1, 0, 1,
                                   B).is_member()
    assert crosscheck_hodge_weight("snc", SncDivisor((2, 3)), F(1, 2), 1, 0,
                                   B).is_member()
    assert crosscheck_hodge_weight("whom", cusp_germ(), F(5, 6), 0, 0,
                                   B).is_member()


def test_crosscheck_starved_is_inconclusive():
    cert = crosscheck_hodge_weight("snc", SncDivisor((1, 1)), 1, 2, 1,
                                   Bounds(0, 1, 0))
    assert cert.verdict == "not-found-at-bound"


def _pres(*summands):
    return HodgePresentation.build(
        F(1), 2, [(b, poly_parse(g, 2), j) for b, g, j in summands])


def test_containment_details_pinned():
    # detail strings as the vector-by-vector scan reported them
    B = Bounds(3, 8, 4)
    x, y = _pres((0, "x1", 0)), _pres((0, "x2", 0))
    cert = presentations_equal(x, y, XY, B)
    assert cert.detail == (
        "[{'direction': 'first-in-second', 'failed_at': '(0, (0, 0), (0, 0))'}"
        ", {'direction': 'second-in-first', 'failed_at': '(0, (0, 0), (0, 0))'}"
        "]")
    # first-in-second holds at a lower rank; the other side names its tag
    cert = presentations_equal(x, _pres((0, "x1", 0), (0, "x2", 0)), XY, B)
    assert cert.detail == ("[{'direction': 'second-in-first', "
                           "'failed_at': '(0, (0, 0), (0, 0))'}]")
    # a failure after passing vectors: the first failing tag is named
    d1 = _pres((1, "x1^2", 0))
    assert presentations_equal(d1, x, XY, B).detail == (
        "[{'direction': 'first-in-second', 'failed_at': '(0, (0, 1), (0, 0))'}]")
    assert presentation_contained(d1, x, XY, B).detail == (
        "{'direction': 'first-in-second', 'failed_at': '(0, (0, 1), (0, 0))'}")
    assert presentation_contained(x, _pres((0, "x1", 0), (0, "x2", 0)), XY,
                                  B).witness == [
        {"direction": "first-in-second", "vectors": 36}]
    cert = crosscheck_hodge_weight("snc", SncDivisor((1, 1)), 1, 2, 1,
                                   Bounds(0, 1, 0))
    assert cert.detail == (
        "[{'direction': 'oracle-in-closed-form', "
        "'failed_at': 'window too small to represent anything'}, "
        "{'direction': 'closed-form-in-oracle', "
        "'failed_at': 'window too small to represent anything'}]")


def _dense_rank(vectors) -> int:
    cols = sorted({c for v in vectors for c in v})
    rows = [[v.get(c, F(0)) for c in cols] for v in vectors]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                q = rows[i][j] / rows[rank][j]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _reference_containment(name, source, target, expect_nonempty):
    """Vector by vector: a source vector is contained when adding it to the
    target family keeps the dense rank."""
    target = [p.terms for p, _ in target]
    base = _dense_rank(target)
    for p, tag in source:
        if _dense_rank(target + [p.terms]) > base:
            return False, {"direction": name, "failed_at": repr(tag)}
    if expect_nonempty and not source:
        return False, {"direction": name,
                       "failed_at": "window too small to represent anything"}
    return True, {"direction": name, "vectors": len(source)}


def _sparse_poly(rng, xdeg=3):
    while True:
        p = Polynomial(2, {m: F(rng.randint(-4, 4), rng.randint(1, 3))
                           for m in monomials_upto_degree(2, xdeg)
                           if rng.random() < 0.25})
        if not p.is_zero():
            return p


def _family(rng, label, base=(), xdeg=3):
    """Tagged nonzero polynomials: random ones, and (given base) random
    combinations of base, so that containment both holds and fails."""
    out = []
    for i in range(rng.randint(0, 6)):
        p = Polynomial.zero(2)
        if base and rng.random() < 0.7:
            for q, _ in rng.sample(base, rng.randint(1, len(base))):
                p = p + q.scale(rng.randint(-2, 2))
        if p.is_zero():
            p = _sparse_poly(rng, xdeg)
        out.append((p, (label, i)))
    return out


def _span(vectors, xdeg=3):
    span = ModuleSpan(0, F(0), xdeg)
    for p, _ in vectors:
        span.add(p)
    return span


@pytest.mark.parametrize("seed", range(40))
def test_row_containment_matches_vector_scan(seed):
    rng = random.Random(seed)
    a = _family(rng, "a")
    b = _family(rng, "b", base=a)
    if rng.random() < 0.5:
        a, b = b, a
    span_a, span_b = _span(a), _span(b)
    ne_a, ne_b = rng.random() < 0.5, rng.random() < 0.5
    for name, src, src_span, ne, tgt, tgt_span in (
            ("a-in-b", a, span_a, ne_a, b, span_b),
            ("b-in-a", b, span_b, ne_b, a, span_a)):
        ref = _reference_containment(name, src, tgt, ne)
        assert _cross_containment(name, iter(src), src_span, tgt_span,
                                  ne) == ref
    assert _mutual_containment(("a-in-b", iter(a), span_a, ne_a),
                               ("b-in-a", iter(b), span_b, ne_b)) == (
        _reference_containment("a-in-b", a, b, ne_a),
        _reference_containment("b-in-a", b, a, ne_b))


def test_mutual_containment_keeps_expect_nonempty():
    # the rank shortcut still reports an empty family as inconclusive
    empty = _span([])
    assert _mutual_containment(("a-in-b", iter([]), empty, False),
                               ("b-in-a", iter([]), empty, True)) == (
        (True, {"direction": "a-in-b", "vectors": 0}),
        (False, {"direction": "b-in-a",
                 "failed_at": "window too small to represent anything"}))


def test_row_containment_checks_its_source_span():
    # a failing row that no source vector explains is an internal error
    x1, x2 = poly_parse("x1", 2), poly_parse("x2", 2)
    with pytest.raises(AssertionError):
        _cross_containment("x-in-x", [(x1, "x1")], _span([(x2, 0)]),
                           _span([(x1, 0)]))


def test_candidate_v_whom():
    from hwkit.vforacle import candidate_v_whom
    g = cusp_germ()
    gens = candidate_v_whom(g, F(5, 6), 0)
    assert len(gens) == 1
    elt, budget = gens[0]
    assert elt.layers == {0: Polynomial.one(2)} and budget == 0
    gens1 = candidate_v_whom(g, 1, 0)
    polys = sorted(str(p) for e, _ in gens1 for p in e.layers.values())
    assert polys == ["x1", "x2"]  # minimal monomials of weighted degree >= 1/6
    with pytest.raises(PreconditionError):
        candidate_v_whom(g, F(3, 2), 0)


def test_whom_presentation_monotone():
    from hwkit.snc import HodgePresentation
    from hwkit.vforacle import presentation_contained
    from hwkit.whom import whom_hodge_weight
    g = cusp_germ()
    B = Bounds(3, 10, 5)
    a = F(5, 6)
    # monotone in k
    for l in (0, 1):
        small = whom_hodge_weight(g, a, 0, l)
        big = whom_hodge_weight(g, a, 1, l)
        assert presentation_contained(small, big, g.f, B).is_member()
    # monotone in l
    for k in (0, 1):
        low = whom_hodge_weight(g, a, k, 0)
        top = whom_hodge_weight(g, a, k, 1)
        assert presentation_contained(low, top, g.f, B).is_member()
