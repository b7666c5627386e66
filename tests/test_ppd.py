import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hwkit import ppd
from hwkit.bsdata import bfunction_snc, bfunction_whom_isolated
from hwkit.errors import InternalCheckFailed, ParseError, PreconditionError
from hwkit.exactalg import (Polynomial, WeightVector, integer_terms,
                            monomials_upto_degree, poly_parse)
from hwkit.ppd import (AnnihilatorInput, check_annihilator, gamma_ideal,
                       hodge_on_weight, hodge_weight_interval21,
                       operators_on_pole, parse_annihilator_file, w0_span,
                       weight_module_generators, weight_step_presentation)
from hwkit.snc import (HodgePresentation, SncDivisor, snc_f0_ideal,
                       snc_hodge_weight)
from hwkit.vforacle import Bounds, dspans_equal, presentations_equal
from hwkit.weyl import WeylOperator, homogeneity_grading
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
    g0 = gamma_ideal(inp, weighted=True)
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
            hp = hodge_on_weight(w0, k)
            cert = presentations_equal(hp, snc_hodge_weight(d, 1, k, l), XY, B)
            assert cert.is_member(), (l, k, cert.detail)
    # a span built afresh gives what the reused span gives
    assert hp == hodge_on_weight(w0_span(inp, 1, B), 1)


def test_hodge_on_weight_requires_flag_for_higher_k():
    inp = xy_input(pp=False)
    w0 = w0_span(inp, 0, B)
    hodge_on_weight(w0, 0)  # k = 0 unconditional
    with pytest.raises(PreconditionError):
        hodge_on_weight(w0, 1)


def test_cusp_weight_and_hodge():
    inp = cusp_input()
    unit0 = HodgePresentation.build(F(0), 2, [(0, Polynomial.one(2), 0)])
    wp = weight_step_presentation(inp, weight_module_generators(inp, 0, B)[0],
                                  B)
    assert dspans_equal(wp, unit0, inp.f, B).is_member()
    hp = hodge_on_weight(w0_span(inp, 0, B), 0)
    assert presentations_equal(hp, unit0, inp.f, B).is_member()


def test_operator_on_pole():
    (num, pole), (num2, pole2) = operators_on_pole(
        [WeylOperator.from_polynomial(XY), WeylOperator.d(0, 2)], XY, 1, F(0))
    assert (str(num), pole) == ("1", 0)
    assert (str(num2), pole2) == ("-x2", 2)


def test_operators_on_pole_rejects_s():
    # an operator that still carries s is a fault of the caller: exit 4,
    # not a traceback
    with pytest.raises(InternalCheckFailed):
        operators_on_pole([WeylOperator.d(0, 2), WeylOperator.parse("s*d1", 2)],
                          XY, 1, F(0))


def d_gamma_on_pole(gamma, g, pole, alpha, f):
    """d^gamma (g f^(-pole-alpha)) as (numerator, pole), one partial at a
    time in Polynomial arithmetic:
    d_i (num f^(-p-alpha)) = (d_i(num) f - (p+alpha) num d_i(f)) f^(-p-1-alpha).
    """
    num, p = g, pole
    for i, e in enumerate(gamma):
        for _ in range(e):
            num = num.partial(i) * f - (num * f.partial(i)).scale(p + alpha)
            p += 1
    return num, p


def operator_on_pole_reference(op, f, step, alpha):
    """One operator on f^(-step-alpha) on its own: each term's d-part image
    built by partials in Polynomial arithmetic, cleared with
    f ** (pole - p), then divided down."""
    parts = []
    for (xe, de, _), c in op.terms.items():
        num, p = d_gamma_on_pole(de, Polynomial.one(f.dim), step, alpha, f)
        parts.append((num.mul_mono(xe, c), p))
    if not parts:
        return Polynomial.zero(f.dim), step
    pole = max(p for _, p in parts)
    total = Polynomial.zero(f.dim)
    for num, p in parts:
        total = total + num * f ** (pole - p)
    while pole > 0 and not total.is_zero():
        q = total.div_exact(f)
        if q is None:
            break
        total, pole = q, pole - 1
    return total, pole


def hamiltonian(f):
    """f_2 d1 - f_1 d2, which kills every power of f: its terms cancel."""
    terms = {(xe, (1, 0), 0): c for xe, c in f.partial(1).terms.items()}
    terms.update({(xe, (0, 1), 0): -c for xe, c in f.partial(0).terms.items()})
    return WeylOperator(2, terms)


# the last pole's rational coefficients give the shared images a
# denominator other than 1
POLES = [poly_parse(t, 2) for t in ("x1*x2", "x1^2+x2^3", "x1^2*x2+x1*x2^2",
                                    "1/3*x1^2 - 2/5*x2^3")]
XMONOS = list(monomials_upto_degree(2, 2))
DPARTS = list(monomials_upto_degree(2, 3))
TERMS = st.dictionaries(
    st.tuples(st.sampled_from(XMONOS), st.sampled_from(DPARTS),
              st.just(0)),
    st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 2)]), max_size=4)


# each op is drawn as a function of f: random terms, the zero operator, or
# operators whose terms cancel on every power of f
OPS = st.one_of(
    TERMS.map(lambda t: lambda f: WeylOperator(2, t)),
    st.sampled_from([lambda f: WeylOperator.zero(2), hamiltonian,
                     lambda f: WeylOperator.parse("x1", 2) * hamiltonian(f)]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(POLES), st.sampled_from([0, 1, 2]),
       st.sampled_from([F(0), F(1, 2), F(5, 6)]), st.lists(OPS, max_size=4))
def test_operators_on_pole_matches_one_at_a_time(f, step, alpha, makers):
    ops = [make(f) for make in makers]
    assert operators_on_pole(ops, f, step, alpha) == [
        operator_on_pole_reference(op, f, step, alpha) for op in ops]


def test_one_pole_apply_per_presentation(monkeypatch):
    # every operator of a presentation shares one set of d-part images
    calls = []
    real = ppd.pole_apply

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ppd, "pole_apply", counted)
    inp, bounds = xy_input(), Bounds(order=4, xdeg=8, dt=6)
    gens = weight_module_generators(inp, 0, bounds)[0]
    counts = []
    for build in (lambda: weight_step_presentation(inp, gens, bounds),
                  lambda: hodge_on_weight(w0_span(inp, 0, bounds), 1),
                  lambda: hodge_weight_interval21(inp, gens, 1, bounds)):
        calls.clear()
        build()
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_interval21():
    inp = xy_input()
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
    inp = parse_annihilator_file(text, None)
    assert inp.f == XY
    assert inp.pp_asserted
    assert len(inp.zetas) == 1
    with pytest.raises(ParseError):
        parse_annihilator_file("f: x1*x2\n", None)


def test_weight_step_monotone_in_l():
    from hwkit.vforacle import presentation_contained
    inp = xy_input()
    w0 = weight_step_presentation(inp, weight_module_generators(inp, 0, B)[0],
                                  B)
    w1 = weight_step_presentation(inp, weight_module_generators(inp, 1, B)[0],
                                  B)
    assert presentation_contained(w0, w1, XY, B).is_member()


# the node, cusp and triple-point inputs of the benchmark's ppd pool
GRADED_ANN = {
    "node": ("f: x1*x2\nE: 1/2*x1*d1 + 1/2*x2*d2\nalpha: 0\nb: (s+1)^2\n"
             "pp: true\nx1*d1 - x2*d2\n"),
    "cusp": (pathlib.Path(__file__).parent / "data" / "cusp.ann").read_text(
        encoding="utf-8"),
    "triple": ("f: x1^2*x2 + x1*x2^2\nE: 1/3*x1*d1 + 1/3*x2*d2\nalpha: 0\n"
               "b: (s+1)^2(s+2/3)(s+4/3)\npp: true\n"
               "1/3*x1^2*d1 + 2/3*x1*x2*d1 - 2/3*x1*x2*d2 - 1/3*x2^2*d2\n"),
}


def _w_degrees(op, w):
    """The values w.(b - g) over the terms x^b d^g s^j of op (s weighs 0)."""
    return {sum(wi * (b - g) for wi, b, g in zip(w, xe, de))
            for xe, de, _ in op.terms}


@pytest.mark.parametrize("name", sorted(GRADED_ANN))
def test_syzygies_and_dependencies_are_w_homogeneous(name, monkeypatch):
    # every column of the Weyl routes is w-homogeneous for each weight w
    # that makes f homogeneous, so every syzygy tuple and every order-bounded
    # dependency must be too; a packing alias or a wrong Leibniz factor
    # would mix degrees
    inp = parse_annihilator_file(GRADED_ANN[name], None)
    grading = homogeneity_grading(inp.f)
    assert grading
    kernels, elements = [], []
    syzygy_kernel, order_bounded = (ppd.syzygy_kernel,
                                    ppd._order_bounded_elements)

    def kernel_spy(targets, *args):
        out = syzygy_kernel(targets, *args)
        kernels.append((targets, out))
        return out

    def elements_spy(*args):
        out = order_bounded(*args)
        elements.extend(out)
        return out

    monkeypatch.setattr(ppd, "syzygy_kernel", kernel_spy)
    monkeypatch.setattr(ppd, "_order_bounded_elements", elements_spy)
    for l in range(inp.b.multiplicity(-inp.alpha - 1)):
        weight_module_generators(inp, l, B)
    hodge_on_weight(w0_span(inp, 0, B), 0)
    if name == "node":
        hodge_weight_interval21(
            inp, weight_module_generators(inp, 0, B)[0], 0, B)
    assert kernels and all(out for _, out in kernels) and elements
    for w, _ in grading:
        for targets, out in kernels:
            target_degrees = [_w_degrees(t, w) for t in targets]
            assert all(len(d) == 1 for d in target_degrees)
            for tup in out:
                assert len({d + min(td) for p, td in zip(tup, target_degrees)
                            for d in _w_degrees(p, w)}) == 1
        assert all(len(_w_degrees(u, w)) == 1 for u in elements)
