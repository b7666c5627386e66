from fractions import Fraction

import pytest

from hwkit.bsdata import bfunction_snc, bfunction_whom_isolated
from hwkit.errors import InternalCheckFailed, ParseError, PreconditionError
from hwkit.exactalg import (Polynomial, WeightVector, integer_terms,
                            poly_parse)
from hwkit.ppd import (AnnihilatorInput, check_annihilator, gamma_ideal,
                       hodge_on_weight, hodge_weight_interval21,
                       operator_on_pole, parse_annihilator_file, w0_span,
                       weight_module_generators, weight_step_presentation)
from hwkit.snc import (HodgePresentation, SncDivisor, snc_f0_ideal,
                       snc_hodge_weight)
from hwkit.vforacle import Bounds, dspans_equal, presentations_equal
from hwkit.weyl import WeylOperator
from hwkit.whom import QuasiHomogeneousGerm

F = Fraction
B = Bounds(order=4, xdeg=10, dt=6)
XY = poly_parse("x1*x2", 2)


def xy_input(alpha=F(0), pp=True):
    return AnnihilatorInput(
        XY,
        WeylOperator.parse("1/2*x1*d1 + 1/2*x2*d2", 2),
        [WeylOperator.parse("x1*d1 - x2*d2", 2)],
        alpha, bfunction_snc((1, 1)), pp_asserted=pp)


def cusp_input(pp=True):
    f = poly_parse("x1^2+x2^3", 2)
    w = WeightVector.parse("1/2,1/3")
    germ = QuasiHomogeneousGerm(f, w)
    return AnnihilatorInput(
        f, WeylOperator.parse("1/2*x1*d1 + 1/3*x2*d2", 2),
        [WeylOperator.parse("3*x2^2*d1 - 2*x1*d2", 2)],
        F(0), bfunction_whom_isolated(f, w, germ.milnor), pp_asserted=pp)


def test_check_annihilator():
    assert check_annihilator(WeylOperator.parse("x1*d1 - x2*d2", 2), XY)
    assert check_annihilator(WeylOperator.parse("3*x2^2*d1 - 2*x1*d2", 2),
                             poly_parse("x1^2+x2^3", 2))
    assert not check_annihilator(WeylOperator.d(0, 1), poly_parse("x1", 1))


def test_input_validation():
    with pytest.raises(PreconditionError):  # E(f) != f
        AnnihilatorInput(XY, WeylOperator.parse("2*x1*d1", 2), [], F(0),
                         bfunction_snc((1, 1)))
    with pytest.raises(PreconditionError):  # zeta does not annihilate
        AnnihilatorInput(XY, WeylOperator.parse("1/2*x1*d1 + 1/2*x2*d2", 2),
                         [WeylOperator.d(0, 2)], F(0), bfunction_snc((1, 1)))
    with pytest.raises(PreconditionError):  # roots outside (-2-a, -a)
        AnnihilatorInput(XY, WeylOperator.parse("1/2*x1*d1 + 1/2*x2*d2", 2),
                         [], F(3, 2), bfunction_snc((1, 1)))


def test_gamma_ideal_node():
    inp = xy_input()
    g = gamma_ideal(inp)
    texts = [str(x) for x in g.generators]
    # empty window: the unit generator is present, so the ideal is everything
    assert texts == ["x1*x2", "1", "x1*d1 - x2*d2",
                     "1/2*x1*d1 + 1/2*x2*d2 - s + 1"]
    g0 = gamma_ideal(inp, 0)
    assert g0.epsilon == F(1, 2)
    assert "s^2" in [str(x) for x in g0.generators]


def test_gamma_ideal_cusp():
    inp = cusp_input()
    texts = [str(x) for x in gamma_ideal(inp).generators]
    assert "s - 1/6" in texts  # sign-normalized beta factor from root -5/6
    assert inp.epsilon() == F(1, 12)


def test_weight_generators_contain_f():
    inp = xy_input()
    for l in (0, 1):
        gens, meta = weight_module_generators(inp, l, B)
        # f itself lies in the span of the first components
        from hwkit.linalg import Echelon
        ech = Echelon()
        for g in gens:
            ech.insert(*integer_terms(g.terms))
        assert not ech.reduce(
            *integer_terms(WeylOperator.from_polynomial(XY).terms))[0]
    with pytest.raises(PreconditionError):
        weight_module_generators(inp, 2, B)  # l not below multiplicity


def test_weight_steps_match_snc():
    inp = xy_input()
    d = SncDivisor((1, 1))
    for l in (0, 1):
        wpres = weight_step_presentation(
            inp, weight_module_generators(inp, l, B)[0], B)
        spres = HodgePresentation.build(
            F(1), 2,
            [(0, Polynomial.monomial(m), 0)
             for m in snc_f0_ideal(d, 1, l).gens])
        assert dspans_equal(wpres, spres, XY, B).is_member()


def test_hodge_on_weight_matches_snc():
    inp = xy_input()
    d = SncDivisor((1, 1))
    for l in (0, 1):
        w0 = w0_span(inp, l, B)
        for k in (0, 1):
            hp = hodge_on_weight(inp, l, k, B, w0)
            cert = presentations_equal(hp, snc_hodge_weight(d, 1, k, l), XY, B)
            assert cert.is_member(), (l, k, cert.detail)
    # a span passed in gives what the span built inside gives
    assert hp == hodge_on_weight(inp, 1, 1, B)


def test_hodge_on_weight_refuses_a_span_built_elsewhere():
    # a span keyed by the packing of other bounds, another level or another
    # input would decode to other monomials: it raises instead
    inp = xy_input()
    w0 = w0_span(inp, 1, B)
    for l, bounds in ((1, Bounds(B.order, B.xdeg + 1, B.dt)),
                      (1, Bounds(B.order - 1, B.xdeg, B.dt)), (0, B)):
        with pytest.raises(InternalCheckFailed):
            hodge_on_weight(inp, l, 0, bounds, w0)
    with pytest.raises(InternalCheckFailed):
        hodge_on_weight(xy_input(pp=False), 1, 0, B, w0)


def test_hodge_on_weight_requires_flag_for_higher_k():
    inp = xy_input(pp=False)
    hodge_on_weight(inp, 0, 0, B)  # k = 0 unconditional
    with pytest.raises(PreconditionError):
        hodge_on_weight(inp, 0, 1, B)


def test_cusp_weight_and_hodge():
    inp = cusp_input()
    unit0 = HodgePresentation.build(F(0), 2, [(0, Polynomial.one(2), 0)])
    wp = weight_step_presentation(inp, weight_module_generators(inp, 0, B)[0],
                                  B)
    assert dspans_equal(wp, unit0, inp.f, B).is_member()
    hp = hodge_on_weight(inp, 0, 0, B)
    assert presentations_equal(hp, unit0, inp.f, B).is_member()


def test_operator_on_pole():
    num, pole = operator_on_pole(WeylOperator.from_polynomial(XY), XY, 1, F(0))
    assert (str(num), pole) == ("1", 0)
    num2, pole2 = operator_on_pole(WeylOperator.d(0, 2), XY, 1, F(0))
    assert (str(num2), pole2) == ("-x2", 2)


def test_interval21():
    inp = xy_input()
    # full-filtration fallback
    pres = hodge_weight_interval21(inp, None, 2, B)
    assert pres.summands == ((2, Polynomial.one(2), 1),)
    d = SncDivisor((1, 1))
    got = hodge_weight_interval21(
        inp, weight_module_generators(inp, 1, B)[0], 0, B)
    assert presentations_equal(got, snc_hodge_weight(d, 1, 0, 1), XY,
                               B).is_member()
    got2 = hodge_weight_interval21(
        inp, weight_module_generators(inp, 0, B)[0], 1, B)
    assert presentations_equal(got2, snc_hodge_weight(d, 1, 1, 0), XY,
                               B).is_member()
    # hypothesis gate: cusp roots leave (-2, -1]
    with pytest.raises(PreconditionError):
        hodge_weight_interval21(
            cusp_input(), weight_module_generators(cusp_input(), 0, B)[0], 0,
            B)


def test_annihilator_file_roundtrip():
    text = """# ordinary double point
f: x1*x2
E: 1/2*x1*d1 + 1/2*x2*d2
alpha: 0
b: (s+1)^2
pp: true
x1*d1 - x2*d2
"""
    inp = parse_annihilator_file(text)
    assert inp.f == XY
    assert inp.pp_asserted
    assert len(inp.zetas) == 1
    with pytest.raises(ParseError):
        parse_annihilator_file("f: x1*x2\n")


def test_weight_step_monotone_in_l():
    from hwkit.vforacle import presentation_contained
    inp = xy_input()
    w0 = weight_step_presentation(inp, weight_module_generators(inp, 0, B)[0],
                                  B)
    w1 = weight_step_presentation(inp, weight_module_generators(inp, 1, B)[0],
                                  B)
    assert presentation_contained(w0, w1, XY, B).is_member()
