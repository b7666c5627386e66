import functools
import pathlib
import random
import re
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from hwkit import cli, ppd, weyl
from hwkit.bsdata import (RootMultiset, bfunction_snc,
                           bfunction_whom_isolated)
from hwkit.errors import (DimensionMismatch, InconclusiveAtBound,
                          InternalCheckFailed, ParseError, PreconditionError)
from hwkit.exactalg import (Polynomial, WeightVector, mono_mul,
                            monomials_upto_degree, poly_parse)
from hwkit.linalg import Echelon
from hwkit.ppd import (AnnihilatorInput, check_annihilator, gamma_ideal,
                       hodge_on_weight, hodge_weight_interval21,
                       operators_on_pole, parse_annihilator_file, w0_span,
                       weight_module_generators, weight_step_presentation)
from hwkit.snc import (HodgePresentation, SncDivisor, snc_f0_ideal,
                       snc_hodge_weight)
from hwkit.vforacle import Bounds, dspans_equal, presentations_equal
from hwkit.weyl import (WeylOperator, basis_products, bounded_operator_basis,
                        grlex_operator_key, homogeneity_grading,
                        window_packing)
from hwkit.whom import QuasiHomogeneousGerm
from test_cli import CUSP_RATIONAL_ANN, CUSP_TWISTED_ANN
from test_weyl import syzygy_operators
from twisted_reference import fraction_terms

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
        F(0), bfunction_whom_isolated(germ), pp_asserted=pp)


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
    with pytest.raises(DimensionMismatch):  # a field in three variables
        AnnihilatorInput(XY, WeylOperator.parse("1/2*x1*d1 + 1/2*x2*d2", 3),
                         [], F(0), bfunction_snc((1, 1)))


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
        ech = Echelon()
        for g in gens:
            ech.insert(g.nums, g.den)
        xy = WeylOperator.from_polynomial(XY)
        assert not ech.reduce(xy.nums, xy.den)[0]
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
        [WeylOperator.from_polynomial(XY), WeylOperator.d(0, 2)], XY, F(0))
    assert (str(num), pole) == ("1", 0)
    assert (str(num2), pole2) == ("-x2", 2)


def test_operators_on_pole_rejects_s():
    # an operator that still carries s is a fault of the caller: exit 4,
    # not a traceback
    with pytest.raises(InternalCheckFailed):
        operators_on_pole([WeylOperator.d(0, 2), WeylOperator.parse("s*d1", 2)],
                          XY, F(0))


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
    for (xe, de, _), c in fraction_terms(op).items():
        num, p = d_gamma_on_pole(de, Polynomial.one(f.dim), step, alpha, f)
        parts.append((Polynomial(f.dim, {mono_mul(k, xe): v * c for k, v
                                         in fraction_terms(num).items()}), p))
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
    terms = {(xe, (1, 0), 0): c
             for xe, c in fraction_terms(f.partial(1)).items()}
    terms.update({(xe, (0, 1), 0): -c
                  for xe, c in fraction_terms(f.partial(0)).items()})
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
@given(st.sampled_from(POLES), st.sampled_from([F(0), F(1, 2), F(5, 6)]),
       st.lists(OPS, max_size=4))
def test_operators_on_pole_matches_one_at_a_time(f, alpha, makers):
    ops = [make(f) for make in makers]
    assert operators_on_pole(ops, f, alpha) == [
        operator_on_pole_reference(op, f, 1, alpha) for op in ops]


# f with an Euler field E, E(f) = f; rational coefficients in the last two
EULER_PAIRS = [(poly_parse(f, 2), WeylOperator.parse(e, 2)) for f, e in (
    ("x1*x2", "1/2*x1*d1 + 1/2*x2*d2"),
    ("x1^2+x2^3", "1/2*x1*d1 + 1/3*x2*d2"),
    ("x1^2*x2 + x1*x2^2", "1/3*x1*d1 + 1/3*x2*d2"),
    ("1/3*x1^2 - 2/5*x2^3", "1/2*x1*d1 + 1/3*x2*d2"),
    ("x1 - 3/4*x2^2", "x1*d1 + 1/2*x2*d2"))]


def derivation_on(op, f):
    """E(f) for an order-1 derivation E: each term c x^b d_i as c x^b
    times Polynomial.partial(i) of f."""
    out = Polynomial.zero(f.dim)
    for (xe, de, _), c in fraction_terms(op).items():
        out = out + Polynomial.monomial(xe).scale(c) * f.partial(de.index(1))
    return out


def test_euler_hypothesis_is_e_of_f_equal_f():
    # derandomized: an Euler pair, or a random f with no field, plus a
    # multiple of the Hamiltonian field (which kills f) and random order-1
    # terms; the input is refused exactly when E(f) != f
    rng = random.Random(39)
    coeffs = [F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(1, 3)]
    seen = set()
    for _ in range(300):
        if rng.random() < 0.6:
            f, euler = rng.choice(EULER_PAIRS)
        else:
            f = Polynomial(2, {m: rng.choice(coeffs) for m in
                               rng.sample(XMONOS[1:], rng.randint(1, 3))})
            euler = WeylOperator.zero(2)
        euler = euler + hamiltonian(f).scale(rng.choice([0, 1, F(-2, 3)]))
        if rng.random() < 0.5:
            euler = euler + WeylOperator(2, {
                (rng.choice(XMONOS), rng.choice([(1, 0), (0, 1)]), 0):
                rng.choice(coeffs) for _ in range(rng.randint(1, 3))})
        if rng.random() < 0.1:
            euler = euler + euler  # 2 E: E(f) = 2 f
        homogeneous = derivation_on(euler, f) == f
        seen.add(homogeneous)
        try:
            AnnihilatorInput(f, euler, [], F(0), bfunction_snc((1, 1)))
        except PreconditionError as exc:
            assert not homogeneous, (f, euler)
            assert (str(exc), exc.hypothesis) == (
                "E(f) != f", "f is Euler homogeneous")
        else:
            assert homogeneous, (f, euler)
    assert seen == {True, False}


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


@pytest.mark.parametrize("value,asserted", [
    ("true", True), ("TRUE", True), ("1", True), ("Yes", True),
    ("false", False), ("False", False), ("0", False), ("NO", False),
    ("ture", None), ("?", None), ("", None), ("2", None), ("y", None)])
def test_pp_header_takes_six_values(value, asserted):
    # any other pp: value is a parse error, not a silent false; no pp:
    # line at all is false
    text = "f: x1*x2\nE: 1/2*x1*d1 + 1/2*x2*d2\nb: (s+1)^2\nx1*d1 - x2*d2\n"
    assert not parse_annihilator_file(text, None).pp_asserted
    text += f"pp: {value}\n"
    if asserted is None:
        with pytest.raises(ParseError):
            parse_annihilator_file(text, None)
    else:
        assert parse_annihilator_file(text, None).pp_asserted is asserted


@pytest.mark.parametrize("header", ["f: x1^2*x2", "E: x1*d1", "e: x1*d1",
                                    "alpha: 1", "alpha: 0", "b: (s+1)",
                                    "pp: true", "PP: false"])
def test_repeated_header_is_a_parse_error(header):
    # the last line of a repeated header was kept without a word
    text = ("f: x1*x2\nE: 1/2*x1*d1 + 1/2*x2*d2\nalpha: 0\nb: (s+1)^2\n"
            "pp: true\nx1*d1 - x2*d2\n")
    assert parse_annihilator_file(text, None).f == XY
    with pytest.raises(ParseError, match="repeated header") as exc:
        parse_annihilator_file(text + header + "\n", None)
    assert exc.value.position == len(text)


def test_header_errors_name_their_line():
    # the position of a header error is the offset of its line, whatever
    # the line ends and comments before it; a missing header is at the end
    head = "# a comment\r\nf: x1*x2  # the node\r\n\nE: x1*d1\x0cb: (s+1)\n"
    cases = [(head + "pp: ture\n", "pp: ture"),
             (head + "x1*d1\nPP: yes\npp: no\n", "pp: no"),
             (head + "F: x1\n", "F: x1")]
    for text, line in cases:
        with pytest.raises(ParseError) as exc:
            parse_annihilator_file(text, None)
        assert exc.value.position == text.index(line), text
    for text in ("", "f: x1\n# E: x1*d1\nb: (s+1)"):
        with pytest.raises(ParseError, match="needs f:, E: and b:") as exc:
            parse_annihilator_file(text, None)
        assert exc.value.position == len(text)


@pytest.mark.parametrize("text,bad,shift", [
    ("# the node\r\nf:  x1*x2 +\r\nE: x1*d1\nb: (s+1)\n", "x1*x2 +", 7),
    ("f: x1*x2\nE: x1*q1\nb: (s+1)\n", "x1*q1", 3),
    ("f: x1*x2\nE: x1*d1\x0calpha: 1/0\nb: (s+1)\n", "1/0", 0),
    ("f: x1*x2\nE: x1*d1\nB:  (s+1)(s+1/0)\n", "(s+1)(s+1/0)", 5),
    ("f: x1*x2\nE: x1*d1\nb: (s+1)^2 (s+q)\n", "(s+1)^2 (s+q)", 7),
    ("f: x1*x2\nE: x1*d1\nb: (s+1)\n\n  x1*d1 - )  # no factor\n",
     "x1*d1 - )", 8)])
def test_value_errors_are_at_their_file_offset(text, bad, shift):
    # an error inside a header value or a generator line was at its offset
    # in that text; it is at its offset in the file, past comments, line
    # ends and blanks
    with pytest.raises(ParseError) as exc:
        parse_annihilator_file(text, None)
    assert exc.value.position == text.index(bad) + shift


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
            for xe, de, _ in op.nums}


@pytest.mark.parametrize("name", sorted(GRADED_ANN))
def test_syzygies_and_dependencies_are_w_homogeneous(name, monkeypatch):
    # every column of the Weyl routes is w-homogeneous for each weight w
    # that makes f homogeneous, so every syzygy tuple and every order-bounded
    # dependency must be too; a packing alias or a wrong Leibniz factor
    # would mix degrees
    inp = parse_annihilator_file(GRADED_ANN[name], None)
    grading = homogeneity_grading(inp.dim, [inp.f.nums])
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
                ops = syzygy_operators(tup, inp.dim)
                assert len({d + min(td) for p, td in zip(ops, target_degrees)
                            for d in _w_degrees(p, w)}) == 1
        assert all(len(_w_degrees(u, w)) == 1 for u in elements)


# the syzygy-route inputs whose ppd columns the relations of _kept_keys prune:
# the benchmark's three, the twisted and rational cusps of the CLI tests, the
# reduced SNC x1*x2*x3 with its annihilators x_i d_i - x_j d_j, and f = x1 in
# three variables, whose fields x2*d3, x3*d2 have the later generator
# x2*d2 - x3*d3 as commutator and x3*d2, x2^2*d3 one that is no generator's
# multiple; each with a window small enough to build every column
SNC3_ANN = ("f: x1*x2*x3\nE: 1/3*x1*d1 + 1/3*x2*d2 + 1/3*x3*d3\nalpha: 0\n"
            "b: (s+1)^3\npp: true\n"
            + "".join(f"x{i}*d{i} - x{j}*d{j}\n"
                      for i, j in ((1, 2), (1, 3), (2, 3))))
SL2_ANN = ("f: x1\nE: x1*d1\nalpha: 0\nb: (s+1)\npp: true\n"
           "x2*d3\nx3*d2\nx2*d2 - x3*d3\nx2^2*d3\n")
PRUNED_INPUTS = {
    **{name: (text, Bounds(order=3, xdeg=6, dt=6))
       for name, text in GRADED_ANN.items()},
    "cusp_twisted": (CUSP_TWISTED_ANN, Bounds(order=3, xdeg=6, dt=6)),
    "cusp_rational": (CUSP_RATIONAL_ANN, Bounds(order=3, xdeg=6, dt=6)),
    "snc3": (SNC3_ANN, Bounds(order=2, xdeg=3, dt=6)),
    "sl2": (SL2_ANN, Bounds(order=2, xdeg=3, dt=6)),
}


def _pruned_sites(inp, bounds):
    """(gens, window, packing) of the three column builds _kept_keys prunes:
    the w0 span, the order-bounded elements of hodge_on_weight at k = 1
    and, when b = (s+1)^n, those of hodge_weight_interval21 at k = 0."""
    w0 = w0_span(inp, 0, bounds)
    so, sx = min(bounds.order, 3), min(bounds.xdeg, 6)
    sites = [(gamma_ideal(inp, weighted=True).generators,
              (bounds.order, bounds.xdeg, 2), w0.packing),
             (gamma_ideal(inp).generators, (so, sx, 2), w0.packing)]
    if inp.b.roots.keys() <= {-1}:
        gens = weight_module_generators(inp, 0, bounds)[0] + [
            inp.euler + WeylOperator.one(inp.dim)]
        so = min(bounds.order, 2)
        sites.append((gens, (so, sx, 0), window_packing(gens, so, sx)))
    return w0, sites


def _unpruned_build(gens, window, packing):
    """Every product column of gens over the whole basis, generator-major,
    in one Echelon, as the build before the pruning made it.  Returns the
    Echelon, the number of columns _kept_keys drops, and how many of those
    do not reduce to zero against the columns before them."""
    kept = ppd._kept_keys(gens, window)
    keys = bounded_operator_basis(gens[0].dim, *window)
    ech, dropped, independent = Echelon(), 0, 0
    for g, gkeys in zip(gens, kept):
        kept_set = set(gkeys)
        assert [m for m in keys if m in kept_set] == gkeys
        columns, den = basis_products(keys, g, packing)
        for m, col in zip(keys, columns):
            if m not in kept_set:
                dropped += 1
                independent += bool(ech.reduce(col, den)[0])
            ech.insert(col, den)
    return ech, dropped, independent


def _covered(w0):
    """w0 with every degree of its kept columns covered in one call: the
    whole span, its rows in the order of a build of every column."""
    w0.cover(w0.kept)
    return w0


@pytest.mark.parametrize("name", sorted(PRUNED_INPUTS))
def test_dropped_columns_depend_on_earlier_ones(name):
    # each column _kept_keys drops is a combination of the columns inserted
    # before it, so the pruned w0 span keeps the rows of the unpruned one
    text, bounds = PRUNED_INPUTS[name]
    inp = parse_annihilator_file(text, None)
    w0, sites = _pruned_sites(inp, bounds)
    builds = [_unpruned_build(*site) for site in sites]
    assert all(dropped for _, dropped, _ in builds)
    assert [independent for _, _, independent in builds] == [0] * len(sites)
    assert builds[0][0].basis() == _covered(w0).span.basis()


def test_leading_terms_from_the_wrong_end_drop_independent_columns(
        monkeypatch):
    # the dependency check above fails a rule that takes LT as the
    # grlex-smallest key of a generator: the rule's max then finds the
    # smallest key
    def smallest_first(a, b):
        a, b = grlex_operator_key(a), grlex_operator_key(b)
        return (a < b) - (a > b)

    monkeypatch.setattr(ppd, "grlex_operator_key",
                        functools.cmp_to_key(smallest_first))
    for name in ("node", "triple"):
        text, bounds = PRUNED_INPUTS[name]
        inp = parse_annihilator_file(text, None)
        gens = gamma_ideal(inp, weighted=True).generators
        packing = window_packing(gens, bounds.order, bounds.xdeg, 2)
        _, _, independent = _unpruned_build(
            gens, (bounds.order, bounds.xdeg, 2), packing)
        assert independent


def test_node_w0_span_inserts_only_kept_columns(monkeypatch):
    # work guard: the relations drop 2,872 of the 8,184 columns of the node
    # w0 span at (order 4, xdeg 10); the rank stays 5,109
    inserts = []
    real = Echelon.insert
    w0 = w0_span(parse_annihilator_file(GRADED_ANN["node"], None), 0, B)

    def counted(self, *args):
        inserts.append(self)
        return real(self, *args)

    monkeypatch.setattr(Echelon, "insert", counted)
    _covered(w0)
    assert len(inserts) <= 5312 and all(e is w0.span for e in inserts)
    assert len(w0.span.basis()) == 5109


# the number of keys _kept_keys keeps at each site of _pruned_sites, summed
# over the generators: a rule that prunes less leaves every span and
# envelope as it is, so only these counts show the lost saving
KEPT_AT_SITES = {
    "cusp": [1708, 1483],
    "cusp_rational": [1843, 1708],
    "cusp_twisted": [1843, 1708],
    "node": [1553, 1240, 2440],
    "sl2": [1338, 1297, 13846],
    "snc3": [1591, 1392, 8060],
    "triple": [1843, 1483],
}


@pytest.mark.parametrize("name", sorted(PRUNED_INPUTS))
def test_relations_keep_the_pinned_number_of_keys(name):
    text, bounds = PRUNED_INPUTS[name]
    _, sites = _pruned_sites(parse_annihilator_file(text, None), bounds)
    assert [sum(map(len, ppd._kept_keys(gens, window)))
            for gens, window, _ in sites] == KEPT_AT_SITES[name]


def _node_interval21_site():
    """(gens, window) of the columns of `ppd --input node.ann --l 0 --k 0
    --interval21 --xdeg 4`: the 57 weight generators at (order 4, xdeg 4)
    and E + 1, over the window (order 2, xdeg 4, no s)."""
    inp = parse_annihilator_file(GRADED_ANN["node"], None)
    gens = weight_module_generators(inp, 0, Bounds(order=4, xdeg=4, dt=6))[0]
    return gens + [inp.euler + WeylOperator.one(2)], (2, 4, 0)


def test_node_interval21_keeps_1653_of_5220_keys():
    gens, window = _node_interval21_site()
    kept = ppd._kept_keys(gens, window)
    assert len(gens) * len(bounded_operator_basis(2, *window)) == 5220
    assert sum(map(len, kept)) == 1653


def test_kept_keys_makes_no_weyl_mul_call_and_no_operator(monkeypatch):
    # the relations are decided on the generators' integer terms, with no
    # Fraction product and no operator built per check
    gens, window = _node_interval21_site()
    w0_gens = gamma_ideal(parse_annihilator_file(GRADED_ANN["node"], None),
                          weighted=True).generators
    calls = []
    real_mul, real_init = weyl.weyl_mul, WeylOperator.__init__

    def counted_mul(*args):
        calls.append("weyl_mul")
        return real_mul(*args)

    def counted_init(self, *args):
        calls.append("WeylOperator")
        real_init(self, *args)

    monkeypatch.setattr(weyl, "weyl_mul", counted_mul)
    monkeypatch.setattr(ppd, "weyl_mul", counted_mul)
    monkeypatch.setattr(WeylOperator, "__init__", counted_init)
    kept = ppd._kept_keys(gens, window)
    kept_w0 = ppd._kept_keys(w0_gens, (B.order, B.xdeg, 2))
    assert calls == []
    assert (sum(map(len, kept)), sum(map(len, kept_w0))) == (1653, 5312)


def test_kernels_build_no_fraction(monkeypatch):
    # the kernels answer in int numerators over one den, and an operator is
    # built from those as they are: with every input set up first, weyl_mul,
    # basis_products and syzygy_kernel on the syzygy targets of the node,
    # the cusp and the triple point, pole_apply on their f at the twist 1/6,
    # and _order_bounded_elements on the interval21 site, make no Fraction
    sites, twist = [], (Fraction(1, 6), 0)
    for name in ("node", "cusp", "triple"):
        inp = parse_annihilator_file(GRADED_ANN[name], None)
        targets = [inp.euler + WeylOperator.constant(inp.dim, inp.alpha + 1),
                   *inp.zetas, WeylOperator.from_polynomial(inp.f)]
        sites.append((gamma_ideal(inp).generators, targets,
                      bounded_operator_basis(inp.dim, 2, 4),
                      window_packing(targets, 2, 4), inp.f))
    gens, window = _node_interval21_site()
    kept, packing = ppd._kept_keys(gens, window), window_packing(gens, 2, 4)
    made, real_new = [], Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    products, columns, kernels, images = [], [], [], []
    for ops, targets, keys, target_packing, f in sites:
        products += [weyl.weyl_mul(a, b) for a in ops for b in ops]
        columns += [basis_products(keys, t, target_packing)[0]
                    for t in targets]
        kernels.append(weyl.syzygy_kernel(targets, 2, 4))
        images.append(ppd.pole_apply({g for _, g, _ in keys},
                                     ({0: {(0, 0): 1}}, 1), 1, twist, f))
    elements = ppd._order_bounded_elements(gens, kept, 0, packing)
    monkeypatch.undo()
    assert made == []
    assert all(kernels) and elements and all(columns) and all(images)
    assert len(products) == sum(len(ops) ** 2 for ops, *_ in sites)


def _swapped(text):
    """The .ann text with x1, x2 and d1, d2 exchanged."""
    return re.sub(r"([xd])([12])", lambda m: m[1] + "21"[int(m[2]) - 1],
                  text)


def _swapped_back(pres):
    """The two-variable presentation with x1 and x2 exchanged."""
    return HodgePresentation.build(pres.alpha, pres.dim, [
        (budget, Polynomial(2, {m[::-1]: c for m, c in g.nums.items()},
                            g.den), step) for budget, g, step in pres.summands])


def test_exchanging_the_variables_changes_pruning_not_spans():
    # metamorphic: x1 <-> x2 changes the grlex leading terms, and so which
    # columns the relations prune, but no span; at xdeg 8 the weight check
    # cannot represent a vector of the cusp's or the triple point's weight
    # presentation, so the weight presentations are compared at xdeg 12
    moved = False
    for name in ("node", "cusp", "triple"):
        inp = parse_annihilator_file(GRADED_ANN[name], None)
        swp = parse_annihilator_file(_swapped(GRADED_ANN[name]), None)
        (gens, meta), (sgens, smeta) = (weight_module_generators(i, 0, B)
                                        for i in (inp, swp))
        assert meta["tuples"] == smeta["tuples"], name
        wide = Bounds(order=B.order, xdeg=12, dt=B.dt)
        weight = weight_step_presentation(inp, gens, B)
        sweight = _swapped_back(weight_step_presentation(swp, sgens, B))
        assert presentations_equal(weight, sweight, inp.f, wide).is_member()
        w0, sw0 = w0_span(inp, 0, B), w0_span(swp, 0, B)
        for k in (0, 1):
            assert presentations_equal(
                hodge_on_weight(w0, k), _swapped_back(hodge_on_weight(sw0, k)),
                inp.f, B).is_member(), (name, k)
        if name == "node":
            assert presentations_equal(
                hodge_weight_interval21(inp, gens, 0, B),
                _swapped_back(hodge_weight_interval21(swp, sgens, 0, B)),
                inp.f, B).is_member()
        kept, skept = (ppd._kept_keys(gamma_ideal(i, weighted=True).generators,
                                      (B.order, B.xdeg, 2)) for i in (inp, swp))
        moved |= [set(k) for k in kept] != [
            {(b[::-1], g[::-1], j) for b, g, j in k} for k in skept]
    assert moved


def _permuted(text, perm):
    """The .ann text with x_i, d_i renamed x_perm[i], d_perm[i] (1-based)."""
    return re.sub(r"([xd])(\d)", lambda m: m[1] + str(perm[int(m[2])]), text)


def _permuted_back(pres, perm):
    """The presentation of a _permuted(text, perm) input in the variables of
    text: the exponent of x_i is the one of x_perm[i]."""
    back = [perm[i] - 1 for i in range(1, pres.dim + 1)]
    return HodgePresentation.build(pres.alpha, pres.dim, [
        (budget, Polynomial(pres.dim, {tuple(m[v] for v in back): c
                                       for m, c in g.nums.items()}, g.den),
         step)
        for budget, g, step in pres.summands])


def test_cycling_three_variables_changes_no_presentation():
    # metamorphic: x1 -> x2 -> x3 -> x1 (with the d_i) permutes the reduced
    # SNC generators x_i d_i - x_j d_j and their signs; the weight step and
    # the Hodge steps at l = 0, moved back, span what the input's span
    # the SNC window of PRUNED_INPUTS; the presentations are compared at
    # xdeg 6, since at xdeg 3 the weight check represents no vector
    perm = {1: 2, 2: 3, 3: 1}
    bounds, wide = Bounds(order=2, xdeg=3, dt=6), Bounds(order=2, xdeg=6, dt=6)
    inp = parse_annihilator_file(SNC3_ANN, None)
    cyc = parse_annihilator_file(_permuted(SNC3_ANN, perm), None)
    assert cyc.f == inp.f and cyc.zetas != inp.zetas
    (gens, meta), (cgens, cmeta) = (weight_module_generators(i, 0, bounds)
                                    for i in (inp, cyc))
    assert meta["tuples"] == cmeta["tuples"]
    assert presentations_equal(
        weight_step_presentation(inp, gens, bounds),
        _permuted_back(weight_step_presentation(cyc, cgens, bounds), perm),
        inp.f, wide).is_member()
    w0, cw0 = w0_span(inp, 0, bounds), w0_span(cyc, 0, bounds)
    for k in (0, 1):
        assert presentations_equal(
            hodge_on_weight(w0, k),
            _permuted_back(hodge_on_weight(cw0, k), perm),
            inp.f, wide).is_member(), k


# the eight ppd jobs of the benchmark's ppd-syzygy pool, as (input, argv)
PPD_POOL_ARGV = [
    ("node", "--l", "0", "--weight-only"),
    ("node", "--l", "1", "--weight-only"),
    ("cusp", "--l", "0", "--weight-only"),
    ("triple", "--l", "0", "--weight-only"),
    ("triple", "--l", "1", "--weight-only"),
    ("node", "--l", "0", "--k", "0"),
    ("node", "--l", "1", "--k", "1", "--xdeg", "8"),
    ("node", "--l", "0", "--k", "0", "--interval21", "--xdeg", "4"),
]


def test_ppd_exit_codes_survive_exchanging_the_variables(capsys, monkeypatch,
                                                         tmp_path):
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    codes = []
    for tag, transform in (("plain", str), ("swapped", _swapped)):
        for name, text in GRADED_ANN.items():
            (tmp_path / f"{tag}-{name}.ann").write_text(transform(text))
        codes.append([cli.main(["ppd", "--input",
                                str(tmp_path / f"{tag}-{name}.ann"), *argv])
                      for name, *argv in PPD_POOL_ARGV])
        capsys.readouterr()
    assert codes[1] == codes[0]


# the factors of the scaled inputs: f times c, and the annihilator generator
# times its own rational
ZETA_SCALES = (Fraction(-3, 2), Fraction(5, 7))


def _scaled(text, c):
    """The .ann text with f times c and the i-th annihilator generator times
    ZETA_SCALES[i]; E, alpha, b and pp as they are (E(c f) = c f, and an
    s-free operator kills (c f)^(s-1) exactly when it kills f^(s-1))."""
    inp = parse_annihilator_file(text, None)
    kept = [line for line in text.splitlines() if line.split(":")[0].strip()
            .lower() in ("e", "alpha", "b", "pp")]
    return "\n".join([f"f: {inp.f.scale(c)}", *kept, *(
        str(z.scale(q)) for z, q in zip(inp.zetas, ZETA_SCALES))]) + "\n"


def test_scaling_f_and_the_annihilators_changes_no_presentation(
        capsys, monkeypatch, tmp_path):
    # metamorphic, with non-unit denominators end to end: c f and rescaled
    # annihilators give the kernel sizes, the exit codes and, summand by
    # summand up to a constant factor, the spans of the unscaled input;
    # each input is scaled by one c of {2/3, -5} for the spans (windows of
    # the exchange test) and by both for the exit codes
    wide = Bounds(order=B.order, xdeg=12, dt=B.dt)
    for name, c in (("node", Fraction(2, 3)), ("cusp", Fraction(-5)),
                    ("triple", Fraction(2, 3))):
        inp = parse_annihilator_file(GRADED_ANN[name], None)
        big = parse_annihilator_file(_scaled(GRADED_ANN[name], c), None)
        assert big.f == inp.f.scale(c) and big.zetas == tuple(
            z.scale(q) for z, q in zip(inp.zetas, ZETA_SCALES))
        (gens, meta), (bgens, bmeta) = (weight_module_generators(i, 0, B)
                                        for i in (inp, big))
        assert meta["tuples"] == bmeta["tuples"], name
        assert presentations_equal(
            weight_step_presentation(inp, gens, B),
            weight_step_presentation(big, bgens, B), inp.f,
            wide).is_member(), name
        w0, bw0 = w0_span(inp, 0, B), w0_span(big, 0, B)
        for k in (0, 1):
            assert presentations_equal(
                hodge_on_weight(w0, k), hodge_on_weight(bw0, k), inp.f,
                B).is_member(), (name, k)
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    codes = []
    for tag, c in (("plain", None), ("two-thirds", Fraction(2, 3)),
                   ("minus-five", Fraction(-5))):
        for name, text in GRADED_ANN.items():
            (tmp_path / f"{tag}-{name}.ann").write_text(
                text if c is None else _scaled(text, c))
        codes.append([cli.main(["ppd", "--input",
                                str(tmp_path / f"{tag}-{name}.ann"), *argv])
                      for name, *argv in PPD_POOL_ARGV])
        capsys.readouterr()
    assert codes[1] == codes[0] and codes[2] == codes[0]


# ---------------------------------------------------------------------------
# the w0 span built by weight blocks


def _levels(inp):
    """The valid weight levels l of the input."""
    return range(inp.b.multiplicity(-inp.alpha - 1))


def _outcome(w0, k):
    """hodge_on_weight(w0, k), or the InconclusiveAtBound it raises."""
    try:
        return hodge_on_weight(w0, k)
    except InconclusiveAtBound as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(PRUNED_INPUTS))
def test_hodge_on_weight_on_a_reused_span_matches_a_fresh_one(name):
    # the blocks one call covers stay in the span, and the next call adds
    # the degrees it lacks; either order of k gives the fresh answers.  k = 1
    # reaches degrees k = 0 does not only where its window is the larger,
    # at order 3
    text, bounds = PRUNED_INPUTS[name]
    inp = parse_annihilator_file(text, None)
    grew = False
    for l in _levels(inp):
        fresh = [_outcome(w0_span(inp, l, bounds), k) for k in (0, 1)]
        for ks in ((0, 1), (1, 0)):
            w0 = w0_span(inp, l, bounds)
            assert _outcome(w0, ks[0]) == fresh[ks[0]], (l, ks)
            built = set(w0.built)
            assert _outcome(w0, ks[1]) == fresh[ks[1]], (l, ks)
            grew |= w0.built > built
    assert grew == (bounds.order > 2)


def _block_checks(inp, l, bounds):
    """Over k in {0, 1}: hodge_on_weight(w0, k) on a fresh span, then each
    of its residual queries (s + alpha)^l * m * g_i, kept key m of gamma
    generator g_i, summed from the basis products (m s^t) * g_i.  A query
    (`ppd._w0_queries`) must reduce against the blocks as against the whole
    span (the same ints and den).  Returns the number of the other columns,
    which the structural rule answers with zero, and how many of those do
    not reduce to zero against the whole span."""
    whole = _covered(w0_span(inp, l, bounds))
    spoly, _ = RootMultiset({-inp.alpha: l}).coefficients()
    answered, wrong = 0, 0
    for k in (0, 1):
        w0 = w0_span(inp, l, bounds)
        _outcome(w0, k)
        kept = ppd._kept_keys(w0.gens, (min(bounds.order, k + 2),
                                        min(bounds.xdeg, 6), l + 2))
        queries = ppd._w0_queries(w0, kept)
        for i, (g, keys) in enumerate(zip(w0.gens, kept)):
            for b, d, j in keys:
                cols, den = basis_products([(b, d, j + t) for t in spoly], g,
                                           w0.packing)
                vec = {}
                for c, col in zip(spoly.values(), cols):
                    for code, v in col.items():
                        vec[code] = vec.get(code, 0) + c * v
                vec = {code: v for code, v in vec.items() if v}
                if (b, d, j) in queries[i]:
                    assert (w0.span.reduce(vec, den)
                            == whole.span.reduce(vec, den)), (k, i, b, d, j)
                else:
                    answered += 1
                    wrong += bool(whole.span.reduce(vec, den)[0])
    return answered, wrong


@pytest.mark.parametrize("name", sorted(PRUNED_INPUTS))
def test_w0_blocks_answer_every_residual_as_the_whole_span(name):
    text, bounds = PRUNED_INPUTS[name]
    inp = parse_annihilator_file(text, None)
    for l in _levels(inp):
        answered, wrong = _block_checks(inp, l, bounds)
        assert answered and not wrong, l


def _looser_queries(w0, kept):
    """_w0_queries with the s-window of w0 widened by one: j + t <= l + 3."""
    top = w0.bounds.order - w0.l
    return [{m for m in keys if sum(m[1]) + m[2] > top or m[2] > 3}
            if g == g0 else set(keys)
            for g, g0, keys in zip(w0.gens, w0.gens0, kept)]


def test_a_wider_s_window_answers_residuals_that_are_not_zero(monkeypatch):
    # negative control for the check above: a rule that takes s^3 * g for a
    # w0 product at l = 1 answers columns whose residual is not zero.  It
    # needs |g| + j + t = 4 <= order, so it shows at order 4, not in the
    # order-2 and order-3 windows of PRUNED_INPUTS
    monkeypatch.setattr(ppd, "_w0_queries", _looser_queries)
    inp = parse_annihilator_file(GRADED_ANN["node"], None)
    assert _block_checks(inp, 1, Bounds(order=4, xdeg=4, dt=6))[1]


@pytest.mark.parametrize("name", sorted(PRUNED_INPUTS))
def test_every_generator_is_homogeneous_for_the_w0_grading(name):
    # each weight of the grading, and the one int weight folded from them
    # (read off the x-part table at the unit vectors), gives every term of
    # a generator the degree the span records for it
    text, bounds = PRUNED_INPUTS[name]
    inp = parse_annihilator_file(text, None)
    w0 = w0_span(inp, 0, bounds)
    ops = w0.gens + w0.gens0
    grading = weyl.homogeneity_grading(inp.dim, [
        [tuple(map(sub, b, g)) for b, g, _ in op.nums] for op in ops])
    units = [tuple(int(i == v) for i in range(inp.dim))
             for v in range(inp.dim)]
    weight = tuple(w0.xw[u] for u in units)
    assert grading and weight == tuple(w0.dw[u] for u in units)
    for w, degrees in grading + [(weight, w0.degrees + w0.degrees)]:
        for op, deg in zip(ops, degrees):
            assert {sum(wi * (bi - gi) for wi, bi, gi in zip(w, b, g))
                    for b, g, _ in op.nums} <= {deg}


def test_an_input_with_no_grading_builds_one_block():
    # (1 + x1 + x2) * (x1*d1 - x2*d2) gives no weight but 0 one degree
    text = GRADED_ANN["node"] + ("x1*d1 - x2*d2 + x1^2*d1 - x1*x2*d2"
                                 " + x1*x2*d1 - x2^2*d2\n")
    inp = parse_annihilator_file(text, None)
    bounds = Bounds(order=3, xdeg=4, dt=6)
    w0 = w0_span(inp, 0, bounds)
    _outcome(w0, 0)
    assert w0.built == {0}
    whole, _, _ = _unpruned_build(w0.gens0, (bounds.order, bounds.xdeg, 2),
                                  w0.packing)
    assert w0.span.basis() == whole.basis()


# inserts into the w0 Echelon and residual reduces of hodge_on_weight on the
# node at (order 4, xdeg, l, k): a rule that answers fewer residuals, or a
# build that reaches more degrees, leaves every envelope as it is, so only
# these counts show the lost saving
W0_WORK = {(10, 0, 0): (1933, 130), (8, 1, 1): (3399, 344)}


@pytest.mark.parametrize("xdeg,l,k", sorted(W0_WORK))
def test_hodge_on_weight_does_the_pinned_w0_work(xdeg, l, k, monkeypatch):
    w0 = w0_span(parse_annihilator_file(GRADED_ANN["node"], None), l,
                 Bounds(order=4, xdeg=xdeg, dt=6))
    calls = []
    for name in ("insert", "reduce"):
        def counted(self, *args, name=name, real=getattr(Echelon, name)):
            if self is w0.span:
                calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(Echelon, name, counted)
    hodge_on_weight(w0, k)
    assert (calls.count("insert"), calls.count("reduce")) == W0_WORK[xdeg, l,
                                                                     k]
