"""Deeper cross-validation beyond the acceptance set: divisors where two or
three independent computational routes must agree exactly."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hwkit.bsdata import (bfunction_snc, bfunction_whom_isolated,
                          genlevel_bound, hodge_pole_full, reduce,
                          weight_bounds)
from hwkit import whom
from hwkit.exactalg import MonomialIdeal, Polynomial, WeightVector, poly_parse
from hwkit.ppd import (AnnihilatorInput, hodge_on_weight, w0_span,
                       weight_module_generators, weight_step_presentation)
from hwkit.snc import (HodgePresentation, SncDivisor, snc_hodge_weight,
                       snc_weight_top)
from hwkit.vforacle import (BfElement, Bounds, SncVFamily,
                            crosscheck_hodge_weight, dspans_equal,
                            kernel_filtration_check, presentations_equal,
                            verify_bfunction)
from hwkit.weyl import WeylOperator
from hwkit.whom import (QuasiHomogeneousGerm, whom_hodge_weight,
                        whom_weight_top)

F = Fraction


@pytest.fixture(scope="module")
def triple():
    """The ordinary triple point x1*x2*(x1+x2), with an annihilator
    presentation built from a degree-2 logarithmic derivation."""
    f = poly_parse("x1^2*x2 + x1*x2^2", 2)
    w = WeightVector.parse("1/3,1/3")
    germ = QuasiHomogeneousGerm(f, w)
    b = bfunction_whom_isolated(germ)
    euler = WeylOperator.parse("1/3*x1*d1 + 1/3*x2*d2", 2)
    deriv = WeylOperator.parse("x1^2*d1 + 2*x1*x2*d1 + x2^2*d2", 2)
    zeta = deriv - WeylOperator.parse("2*x1 + 4*x2", 2) * euler
    inp = AnnihilatorInput(f, euler, [zeta], F(0), b, pp_asserted=True)
    return germ, b, inp


def test_triple_point_bfunction_certified(triple):
    germ, b, _ = triple
    cert = verify_bfunction(germ.f, b, 4, 6)
    assert cert.is_member() and cert.witness["minimal_at_bound"]


def test_triple_point_crosschecks(triple):
    germ, _, _ = triple
    B = Bounds(4, 14, 6)
    for k in (0, 1):
        for l in (1, 2):
            assert crosscheck_hodge_weight("whom", germ, 1, k, l, B).is_member()
        assert crosscheck_hodge_weight("whom", germ, F(2, 3), k, 0,
                                       B).is_member()


def test_triple_point_weight_steps_agree(triple):
    germ, _, inp = triple
    B = Bounds(4, 12, 6)
    unit0 = HodgePresentation.build(F(0), 2, [(0, Polynomial.one(2), 0)])
    assert dspans_equal(
        weight_step_presentation(inp, weight_module_generators(inp, 0, B)[0],
                                 B),
        unit0, germ.f, B).is_member()
    # the syzygy route at twist 0 against the graded closed form at twist 1
    w3 = weight_step_presentation(inp, weight_module_generators(inp, 1, B)[0],
                                  B)
    whom_pres = whom_hodge_weight(germ, 1, 0, 1)
    assert dspans_equal(w3, whom_pres, germ.f, B).is_member()


def test_triple_point_hodge_pieces_agree(triple):
    germ, _, inp = triple
    B = Bounds(4, 12, 6)
    w0 = w0_span(inp, 1, B)
    for k in (0, 1):
        hp = hodge_on_weight(w0, k)
        wh = whom_hodge_weight(germ, 1, k, 1)
        assert presentations_equal(hp, wh, germ.f, B).is_member(), k


def test_integral_twist_crosschecks():
    B = Bounds(4, 12, 6)
    cusp = QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))
    node = QuasiHomogeneousGerm(poly_parse("x1^2+x2^2", 2),
                                WeightVector.parse("1/2,1/2"))
    for germ in (cusp, node):
        for l in (1, 2):
            for k in (0, 1):
                assert crosscheck_hodge_weight("whom", germ, 1, k, l,
                                               B).is_member()


def test_three_variable_crosschecks():
    B = Bounds(3, 9, 4)
    d = SncDivisor((1, 1, 1))
    for k in (0, 1):
        for l in range(4):
            assert crosscheck_hodge_weight("snc", d, 1, k, l, B).is_member()
    d2 = SncDivisor((2, 1, 3))
    for l in range(d2.m_alpha(F(1, 2)) + 1):
        assert crosscheck_hodge_weight("snc", d2, F(1, 2), 1, l,
                                       Bounds(3, 12, 4)).is_member()


def test_whom_crosscheck_sees_a_dropped_closed_form_generator(monkeypatch):
    # the closed form and the candidates each build their graded slices;
    # a closed form that loses the grlex-first generator of every slice
    # with more than one must fail the cross-check, so the two sides
    # cannot share one computation unnoticed
    germ = QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))

    def check():
        return crosscheck_hodge_weight("whom", germ, F(5, 6), 1, 0,
                                       Bounds(4, 12, 6))

    assert check().verdict == "member"
    graded_ideal = whom.graded_ideal

    def dropped(w, gamma, strict):
        gens = graded_ideal(w, gamma, strict).gens
        return MonomialIdeal(w.dim, gens[1:] if len(gens) > 1 else gens)

    monkeypatch.setattr(whom, "graded_ideal", dropped)
    cert = check()
    assert cert.verdict == "not-found-at-bound"
    assert "oracle-in-closed-form" in cert.detail


def test_snc_pole_predicate_consistency():
    # the reduced-root predicate against unit-ness of the snc closed forms
    B = Bounds(3, 12, 4)
    for a in ((1, 1), (2, 3)):
        d = SncDivisor(a)
        bred = reduce(bfunction_snc(a))
        f = d.polynomial()
        for alpha in (F(1, 2), F(1)):
            fl = 1 if alpha == 1 else 0
            for k in (0, 1):
                for l in (0, 1):
                    stratum = min(l + fl, d.m_alpha(alpha))
                    predicted = hodge_pole_full(bred, alpha, k, l)
                    pres = snc_hodge_weight(d, alpha, k, stratum)
                    unit = HodgePresentation.build(
                        alpha, d.dim, [(0, Polynomial.one(d.dim), k)])
                    got = presentations_equal(pres, unit, f, B).is_member()
                    assert predicted == got, (a, alpha, k, l)


def test_generating_level_bound_in_the_window():
    """From the generating level on, k >= genlevel_bound(b, alpha, l, n), the
    D-module that F_k W_{n+l} generates is the one F_{k+1} W_{n+l}
    generates: dspans_equal of the closed forms at steps k and k + 1.  In
    two variables the level is l = 0, except at alpha = 1, where the whom
    closed forms start at stratum l = 1; the weight-step bound
    (graded=False) does not depend on l.  The three-variable germ
    x1^2+x2^2+x3^2, whose bound reaches 2, is checked at l = 0 and 1 and at
    k = bound only, in a window of its own.  A verdict short of member (a
    generator outside the window, say) is inconclusive, never a
    refutation, but most checks must be members."""
    B = Bounds(4, 16, 6)
    cases = []  # (f, bred, alpha, l, step k -> closed form, bounds, k - bound)
    for text, w in (("x1^2+x2^3", "1/2,1/3"), ("x1^3+x2^4", "1/3,1/4")):
        germ = QuasiHomogeneousGerm(poly_parse(text, 2), WeightVector.parse(w))
        bred = reduce(bfunction_whom_isolated(germ))
        for alpha in (F(1, 2), F(5, 6), F(1)):
            l = 1 if alpha == 1 else 0
            cases.append((germ.f, bred, alpha, l, lambda k, g=germ, a=alpha,
                          l=l: whom_hodge_weight(g, a, k, l), B, (0, 1)))
    d = SncDivisor((1, 1, 1))
    cases.append((d.polynomial(), reduce(bfunction_snc(d.a)), F(1, 2), 0,
                  lambda k: snc_hodge_weight(d, F(1, 2), k, 0), B, (0, 1)))
    sphere = QuasiHomogeneousGerm(poly_parse("x1^2+x2^2+x3^2", 3),
                                  WeightVector.parse("1/2,1/2,1/2"))
    bred = reduce(bfunction_whom_isolated(sphere))
    for alpha in (F(1, 2), F(5, 6)):
        for l in (0, 1):
            cases.append((sphere.f, bred, alpha, l, lambda k, a=alpha, l=l:
                          whom_hodge_weight(sphere, a, k, l), Bounds(4, 8, 6),
                          (0,)))
    levels, members = [], 0
    for f, bred, alpha, l, closed, bounds, steps in cases:
        level = genlevel_bound(bred, alpha, l, f.dim, graded=False)
        levels.append(level)
        for k in (level + step for step in steps):
            members += dspans_equal(closed(k), closed(k + 1), f,
                                    bounds).is_member()
    assert levels == [1, 1, 0, 1, 1, 0, 2, 2, 2, 1, 1]
    assert members >= 16  # of 18


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.integers(1, 12))
def test_snc_highest_weight_is_bracketed_exactly(a, j):
    """Level convention: weight_bounds indexes weights from n, and its
    levels are n + floor(alpha) + a multiplicity of the reduced b-function
    at some -alpha - i.  The SNC closed form puts the highest weight of
    M(f^-alpha) at n + snc_weight_top(d, alpha), n plus the number of
    indices with alpha * a_i integral; at alpha = 1 the floor(alpha) term
    restores the (s+1) that reduce removed.  For a monomial divisor both
    bounds meet at that level.  alpha = j/12 runs over (0, 1]."""
    d, alpha = SncDivisor(tuple(a)), F(j, 12)
    n = d.dim
    assert weight_bounds(reduce(bfunction_snc(d.a)), alpha, n) == (
        n + snc_weight_top(d, alpha),) * 2


def test_whom_highest_weight_exhausts_the_weight_filtration():
    """Level convention: whom_hodge_weight(g, alpha, k, l) presents
    F_k W_{n+l} M(f^-alpha), and weight_bounds bounds the highest weight in
    the same indexing.  The lowest stratum with a closed form is s0 = 0 for
    alpha < 1 and s0 = 1 (= floor(alpha)) at alpha = 1; the top one is
    whom_weight_top(g, alpha).  When the upper bound is n + s0, the weight
    filtration is exhausted at n + s0, so the two strata present the same
    module and presentations_equal must certify member at k = 0 and 1.
    Otherwise the bound leaves room above n + s0, and the window tells the
    strata apart at some k in {0, 1}: a verdict short of member only shows
    that the check is not vacuous, it refutes nothing."""
    germs = [(text, w, Bounds(4, 12, 6)) for text, w in (
        ("x1^2+x2^3", "1/2,1/3"), ("x1^2+x2^2", "1/2,1/2"),
        ("x1^3+x2^4", "1/3,1/4"), ("x1^2+x2^5", "1/2,1/5"))]
    germs.append(("x1^2+x2^2+x3^2", "1/2,1/2,1/2", Bounds(3, 8, 4)))
    exhausted = []
    for text, w, B in germs:
        weights = WeightVector.parse(w)
        germ = QuasiHomogeneousGerm(poly_parse(text, weights.dim),
                                    weights)
        n = germ.dim
        bred = reduce(bfunction_whom_isolated(germ))
        for alpha in (F(1, 2), F(5, 6), F(1)):
            s0 = 1 if alpha == 1 else 0
            top = whom_weight_top(germ, alpha)
            members = [presentations_equal(
                whom_hodge_weight(germ, alpha, k, s0),
                whom_hodge_weight(germ, alpha, k, top),
                germ.f, B).is_member() for k in (0, 1)]
            if weight_bounds(bred, alpha, n)[1] == n + s0:
                assert all(members), (text, alpha)
                exhausted.append((text, alpha))
            else:
                assert not all(members), (text, alpha)
    assert len(exhausted) == 11  # of 15 (germ, alpha) pairs


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=3).flatmap(
    lambda a: st.tuples(st.just(tuple(a)), st.permutations(range(len(a))))))
@example(((2, 1, 3), (2, 0, 1)))
@example(((2, 3), (1, 0)))
def test_snc_crosscheck_is_invariant_under_variable_permutation(case):
    """Metamorphic relation (ROADMAP item 5): the window bounds total
    degrees and orders, so permuting the variables permutes every span, and
    no crosscheck_hodge_weight verdict or witness (the vector count of each
    direction) may change.  At alpha = 1/2, k <= 2 and every valid l."""
    a, perm = case
    d, permuted = SncDivisor(a), SncDivisor(tuple(a[i] for i in perm))
    B = Bounds(3, 12, 4)
    for k in range(3):
        for l in range(d.m_alpha(F(1, 2)) + 1):
            ref, got = (crosscheck_hodge_weight("snc", x, F(1, 2), k, l, B)
                        for x in (d, permuted))
            assert (got.verdict, got.witness) == (ref.verdict, ref.witness), \
                (a, perm, k, l)


def test_whom_checks_are_invariant_under_variable_permutation():
    """The same relation on the cusp written both ways round: every
    crosscheck_hodge_weight verdict and witness at alpha = 5/6, and the
    verify_bfunction verdict, divisors and minimality at the bound."""
    cusp = QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))
    swapped = QuasiHomogeneousGerm(poly_parse("x2^2+x1^3", 2),
                                   WeightVector.parse("1/3,1/2"))
    B = Bounds(4, 12, 6)
    for k in range(3):
        for l in (0, 1):
            ref, got = (crosscheck_hodge_weight("whom", g, F(5, 6), k, l, B)
                        for g in (cusp, swapped))
            assert ref.is_member()
            assert (got.verdict, got.witness) == (ref.verdict, ref.witness)
    ref, got = (verify_bfunction(g.f, bfunction_whom_isolated(g), 3, 6)
                for g in (cusp, swapped))
    assert ref.is_member() and ref.witness["minimal_at_bound"]
    assert got.verdict == ref.verdict
    for key in ("divisors", "minimal_at_bound"):
        assert got.witness[key] == ref.witness[key]


SCALED_GERMS = [("x1^2+x2^3", "1/2,1/3", F(5, 6), (0, 1)),
                ("x1^2+x2^2", "1/2,1/2", F(1), (1, 2)),
                ("x1^3+x2^4", "1/3,1/4", F(7, 12), (0, 1))]


@pytest.mark.parametrize("c", [F(2), F(-1, 3), F(5, 7)])
def test_checks_are_invariant_under_scaling_f(c):
    """Metamorphic relation (ROADMAP item 5): c*f^s differs from f^s by the
    constant c^s, which commutes with every operator, so the b-function and
    every filtration step of c*f are those of f.  No crosscheck_hodge_weight
    certificate (k <= 2) and no verify_bfunction verdict, divisor list or
    minimality flag may change when f is scaled by c."""
    B = Bounds(4, 12, 6)
    for text, w, alpha, levels in SCALED_GERMS:
        weights = WeightVector.parse(w)
        germ = QuasiHomogeneousGerm(poly_parse(text, 2), weights)
        scaled = QuasiHomogeneousGerm(germ.f.scale(c), weights)
        for k in range(3):
            for l in levels:
                ref, got = (crosscheck_hodge_weight("whom", g, alpha, k, l, B)
                            for g in (germ, scaled))
                assert ref.is_member(), (text, k, l)
                assert got.to_json() == ref.to_json(), (text, c, k, l)
        b = bfunction_whom_isolated(germ)
        for order, xdeg in ((3, 4), (3, 6)):
            ref, got = (verify_bfunction(f, b, order, xdeg)
                        for f in (germ.f, scaled.f))
            assert got.verdict == ref.verdict, (text, c, order, xdeg)
            if ref.is_member():
                for key in ("divisors", "minimal_at_bound"):
                    assert got.witness[key] == ref.witness[key]


def test_member_verdicts_survive_window_growth():
    """Metamorphic relation (ROADMAP item 5): Bounds.doubled() only adds
    columns, so a member of verify_bfunction or kernel_filtration_check
    stays a member in the doubled window, where the true b-function is
    still minimal.  The relation is one-way: not-found-at-bound may turn
    into member."""
    whom = [QuasiHomogeneousGerm(poly_parse(text, 2), WeightVector.parse(w))
            for text, w in (("x1^2+x2^3", "1/2,1/3"),
                            ("x1^2+x2^2", "1/2,1/2"))]
    cases = [(SncDivisor(a).polynomial(), bfunction_snc(a), window)
             for a in ((2,), (1, 1), (2, 3), (1, 1, 1))
             for window in (Bounds(2, 2, 0), Bounds(3, 4, 0))]
    cases += [(g.f, bfunction_whom_isolated(g),
               Bounds(3, 4, 0)) for g in whom]
    members = 0
    for f, b, window in cases:
        if not verify_bfunction(f, b, window.order, window.xdeg).is_member():
            continue
        members += 1
        big = window.doubled()
        cert = verify_bfunction(f, b, big.order, big.xdeg)
        assert cert.is_member(), (str(f), window)
        assert cert.witness["minimal_at_bound"], (str(f), window)
    assert members == 7  # of 10: x1^2*x2^3 twice and x1*x2*x3 at (2, 2)

    xy, f23 = poly_parse("x1*x2", 2), poly_parse("x1^2*x2^3", 2)
    for f, lam, kernel, fam, window in (
            (xy, 1, ["x1", "x2"], SncVFamily(SncDivisor((1, 1)), 4),
             Bounds(3, 8, 5)),
            (f23, F(1, 2), ["x2"], SncVFamily(SncDivisor((2, 3)), 4),
             Bounds(4, 10, 5))):
        gens = [BfElement.from_poly(poly_parse(g, 2)) for g in kernel]
        for bounds in (window, window.doubled()):
            cert = kernel_filtration_check(f, lam, 1, gens,
                                           fam.strict_gens(lam), bounds)
            assert cert.is_member(), (str(f), bounds)
