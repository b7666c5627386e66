import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hwkit.bsdata import BFunction, RootMultiset, bfunction_snc
from hwkit.errors import PreconditionError
from hwkit.cli import main
from hwkit.exactalg import (Polynomial, WeightVector, grlex_key,
                            integer_terms, mono_div, mono_divides, mono_mul,
                            monomials_upto_degree, poly_parse)
from hwkit import vforacle
from hwkit.linalg import Echelon
from hwkit.snc import HodgePresentation, SncDivisor, snc_hodge_weight
from hwkit.vforacle import (BfElement, Bounds, SncVFamily,
                            WhomVFamily, WindowSpan, _cross_containment,
                            _mutual_containment, apply_s_shifted,
                            bf_span, candidate_v_snc,
                            crosscheck_hodge_weight, dspans_equal,
                            kernel_filtration_check, phi_shift,
                            presentation_contained, presentations_equal,
                            psi_map, q_poch, reduce_presentation,
                            verify_bfunction, verify_v_axioms)
from hwkit.weyl import (KeyPacking, TwistedSection, WeylOperator,
                        apply_to_twisted, bounded_operator_basis,
                        d_part_images, graded_operator_basis,
                        homogeneity_grading)
from hwkit.whom import QuasiHomogeneousGerm, whom_hodge_weight

F = Fraction
XY = poly_parse("x1*x2", 2)


def poly_parts(parts, den, dim):
    """The integer parts {p: num} over den as (Polynomial, p) parts."""
    return [(Polynomial(dim, {m: F(c, den) for m, c in num.items()}), p)
            for p, num in parts.items()]


def int_parts(parts):
    """(integer parts {p: num}, den) of the Polynomial parts (num, p),
    summed per pole, over one denominator."""
    by_pole = {}
    for num, p in parts:
        by_pole[p] = by_pole.get(p, Polynomial.zero(num.dim)) + num
    flat, den = integer_terms({(p, m): c for p, num in by_pole.items()
                               for m, c in num.terms.items()})
    out = {p: {} for p in by_pole}
    for (p, m), c in flat.items():
        out[p][m] = c
    return out, den


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


def graph_d(u, i, f):
    """d_i (0-based i) on the graph module, in Polynomial arithmetic:
    g dt^j -> (d_i g) dt^j - (d_i f) g dt^(j+1)."""
    out = BfElement(u.dim, {j: p.partial(i) for j, p in u.layers.items()})
    return out + BfElement(u.dim, {j + 1: -(p * f.partial(i))
                                   for j, p in u.layers.items()})


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
    u = BfElement.from_poly(Polynomial.one(2))
    assert u.t(XY).layers == {0: XY}
    assert u.dt().layers == {1: Polynomial.one(2)}
    assert apply_s_shifted(u, XY, 0).layers == {1: -XY}
    v = BfElement.from_poly(poly_parse("x1", 2), layer=2)
    tv = v.t(XY)
    assert tv.layers[2] == XY * poly_parse("x1", 2)
    assert tv.layers[1] == poly_parse("-2*x1", 2)


def test_act_commutator():
    rng = random.Random(61)
    for _ in range(50):
        u = BfElement(2, {0: rand_poly(rng), 1: rand_poly(rng),
                          2: rand_poly(rng)})
        lhs = u.t(XY).dt()
        rhs = u.dt().t(XY)
        assert lhs + rhs.scale(-1) == u


# ---------------------------------------------------------------------------
# spans and membership


def test_truncated_span_o_module():
    f = poly_parse("x1", 1)
    B = Bounds(0, 2, 2)
    one = BfElement.from_poly(Polynomial.one(1))
    span = bf_span([one], f, B)
    xsq = BfElement.from_poly(poly_parse("x1^2", 1))
    assert not span.reduce(one.layers)[0]
    assert not span.reduce(xsq.layers)[0]
    assert span.echelon.rank == 3  # {1, x, x^2}


def _monomial(span, code):
    """The exponent vector m of a window span's packed key of x^m; a key
    that is no x-monomial within the span's radix fails."""
    m = span.packing.unpack(code)[0]
    assert span.packing.shift(m, 0) == code
    return m


def _unpacked(span, vec):
    """vec with each packed key of the window span read back as its
    exponent vector."""
    return {_monomial(span, code): v for code, v in vec.items()}


def _layered(packing, code):
    """(layer j, exponent vector m) of the packed key j * top + shift(m, 0),
    or code itself when it is no such key of packing (a coordinate no
    packing produced, such as a nullspace column's row index)."""
    j, rest = divmod(code, packing.top)
    m = packing.unpack(rest)[0]
    return (j, m) if packing.shift(m, 0) == rest else code


def _queued(span, insert, *args):
    """The vectors insert(span, *args) queues in the window span, as
    (vector with its keys read back as (layer, exponent vector), den,
    tag)."""
    start = len(span._queue)
    insert(span, *args)
    return [({_layered(span.packing, m + code): c
              for m, c in terms.items()}, den, tag + (beta,))
            for terms, den, tag, shifts in span._queue[start:]
            for beta, code in shifts]


@pytest.fixture
def inserted(monkeypatch):
    """Every vector put into a span while the test runs, as the Fractions
    its numerators over den stand for: each vector a window span queues,
    its packed keys read back as (layer, exponent vector), and each vector
    inserted into any other Echelon, its keys read back as (layer, exponent
    vector) through the KeyPacking that last packed layers (kept as they
    are before any did).  A window span's echelon inserts only vectors it
    queued."""
    out = []
    packing = [None]  # the KeyPacking that last packed layers
    building = [False]  # whether a window span is building its echelon
    pack_layers = KeyPacking.pack_layers
    insert = Echelon.insert
    span_insert, span_echelon = WindowSpan.insert, WindowSpan.echelon

    def noting(self, layers):
        packing[0] = self
        return pack_layers(self, layers)

    def recording(self, vec, den, companion=None):
        if not building[0]:
            out.append({_layered(packing[0], c) if packing[0] else c:
                        F(v, den) for c, v in vec.items()})
        return insert(self, vec, den, companion)

    def queueing(self, *args):
        packing[0] = None
        out.extend({m: F(c, den) for m, c in vec.items()}
                   for vec, den, _ in _queued(self, span_insert, *args))

    def building_echelon(self):
        building[0] = True
        try:
            return span_echelon.fget(self)
        finally:
            building[0] = False

    monkeypatch.setattr(KeyPacking, "pack_layers", noting)
    monkeypatch.setattr(Echelon, "insert", recording)
    monkeypatch.setattr(WindowSpan, "insert", queueing)
    monkeypatch.setattr(WindowSpan, "echelon", property(building_echelon))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_span_producers_stay_in_the_window(seed, inserted):
    # no producer leans on the span to drop an out-of-window vector: every
    # vector it inserts or queues is nonzero and inside (dt, xdeg)
    rng = random.Random(700 + seed)
    f = poly_parse(rng.choice(["x1*x2", "x1^2+x2^3", "x1^2*x2"]), 2)
    B = Bounds(2, rng.randint(3, 5), rng.randint(1, 2))
    # the unit generator and summand keep each span nonempty
    gens = [BfElement.from_poly(Polynomial.one(2))] + [
        BfElement(2, {j: rand_poly(rng, 2, 4) for j in range(3)})
        for _ in range(rng.randint(1, 3))]
    pres = HodgePresentation.build(
        F(rng.randint(1, 5), 6), 2,
        [(0, Polynomial.one(2), 4)]
        + [(rng.randint(0, 2), rand_poly(rng, 2, 3), rng.randint(0, 2))
           for _ in range(rng.randint(1, 3))])
    crosschecks = [("snc", SncDivisor((1, 1)), 1, 1, 1),
                   ("snc", SncDivisor((2, 3)), F(1, 2), 0, 0),
                   ("snc", SncDivisor((1, 2)), F(1, 2), 1, 0),
                   ("whom", cusp_germ(), F(5, 6), 1, 0)]

    def check(run, inside):
        inserted.clear()
        run()
        assert inserted
        assert all(vec and all(map(inside, vec)) for vec in inserted)

    check(lambda: bf_span(gens, f, B),
          lambda key: key[0] <= B.dt and sum(key[1]) <= B.xdeg)
    check(lambda: vforacle.presentation_span(pres, f, pres.alpha,
                                             pres.max_pole(), B.xdeg),
          lambda key: key[0] == 0 and sum(key[1]) <= B.xdeg)
    for case in crosschecks:
        check(lambda: crosscheck_hodge_weight(*case, B),
              lambda key: key[0] == 0 and sum(key[1]) <= B.xdeg)


def test_membership_window_guard():
    big = BfElement.from_poly(poly_parse("x1^9", 1))
    B = Bounds(1, 3, 2)
    span = bf_span([BfElement.from_poly(Polynomial.one(1))],
                   poly_parse("x1", 1), B)
    assert span.reduce(big.layers) is None


def test_member_witness_reevaluates():
    # for f = x1, d1 x1 = 1 - x1 dt, so 1 + x1^2 - x1 dt lies in the span
    # of x1 at order 1 through two witness steps
    f = poly_parse("x1", 1)
    gen = BfElement.from_poly(poly_parse("x1", 1))
    B = Bounds(1, 2, 2)
    target = BfElement(1, {0: poly_parse("1 + x1^2", 1),
                           1: poly_parse("-x1", 1)})
    span = bf_span([gen], f, B)
    assert not span.reduce(target.layers)[0]
    witness, = span.witness([target.layers])
    assert len(witness) == 2
    steps = [{"generator": gi, "dgamma": gamma, "xbeta": beta, "coeff": c}
             for (gi, gamma, beta), c in witness.items()]
    assert _reevaluated(steps, [gen], f) == target


def test_graph_module_span_window_edges():
    f = poly_parse("x1^2", 1)
    B = Bounds(1, 3, 1)

    def x(e):
        return poly_parse(f"x1^{e}", 1)

    gens = [BfElement.from_poly(x(3)),
            BfElement.from_poly(Polynomial.one(1), 1)]
    span = bf_span(gens, f, B)
    # deg == xdeg at layer dt gets a verdict; one step past either edge
    # gets None
    assert span.reduce({B.dt: x(B.xdeg)}) is not None
    assert span.reduce({B.dt: x(B.xdeg + 1)}) is None
    assert span.reduce({B.dt + 1: x(B.xdeg)}) is None
    # d1 x1^3 = 3 x1^2 - 2 x1^4 dt leaves the x-degree window and
    # d1 dt = -2 x1 dt^2 the dt window: the span skips both images and
    # holds only the shifts of x1^3 (one) and of dt (x1^0..x1^3), and
    # reduce answers None for the skipped images
    assert span.n_vectors == span.echelon.n_vectors == 1 + 4
    assert all(span.reduce(graph_d(gen, 0, f).layers) is None for gen in gens)
    # the span keys an element with its own packing: dt^3 is no multiple
    # of x1, whatever window a caller has in mind
    x1 = poly_parse("x1", 1)
    span = bf_span([BfElement.from_poly(x1)], x1, Bounds(0, 8, 3))
    residual, _ = span.reduce({3: Polynomial.one(1)})
    assert residual


def _every_graph_vector(gens, f, bounds):
    """(vector, den, (generator, gamma, beta)) of every x^beta d^gamma gen
    inside the window, none skipped, in generator, grlex gamma and grlex
    beta order: d^gamma by graph_d steps, x^beta by exponent addition,
    each vector keyed by (layer, exponent vector)."""
    for gi, gen in enumerate(gens):
        for gamma in monomials_upto_degree(f.dim, bounds.order):
            u = gen
            for i, e in enumerate(gamma):
                for _ in range(e):
                    u = graph_d(u, i, f)
            if not u.layers or _outside(u.layers, bounds):
                continue
            deg = max(p.total_degree() for p in u.layers.values())
            terms, den = integer_terms({(j, m): c
                                        for j, p in u.layers.items()
                                        for m, c in p.terms.items()})
            for beta in monomials_upto_degree(f.dim, bounds.xdeg - deg):
                yield ({(j, mono_mul(m, beta)): c
                        for (j, m), c in terms.items()}, den,
                       (gi, gamma, beta))


def _outside(layers, bounds) -> bool:
    return any(j > bounds.dt or p.total_degree() > bounds.xdeg
               for j, p in layers.items())


def _as_layers(dim, vec) -> dict:
    """{layer: Polynomial} of a vector keyed by (layer, exponent vector)."""
    layers = {}
    for (j, m), c in vec.items():
        layers.setdefault(j, {})[m] = c
    return {j: Polynomial(dim, terms) for j, terms in layers.items()}


@pytest.mark.parametrize("seed", range(20))
def test_graph_span_matches_every_vector_reference(seed):
    # a graph-module span, which queues each direction once, against a plain
    # Echelon of every window vector x^beta d^gamma gen: rank, n_vectors,
    # the None answers, residuals, and the witness of random members
    rng = random.Random(900 + seed)
    dim = rng.randint(1, 2)
    f = poly_parse(rng.choice(["x1", "x1^2"] if dim == 1
                              else ["x1*x2", "x1^2+x2^3", "x1^2*x2"]), dim)
    B = Bounds(rng.randint(0, 2), rng.randint(2, 4), rng.randint(1, 2))
    x1 = (1,) + (0,) * (dim - 1)
    # a nonzero gens[0] of degree 1 at layer 0, inside every window
    gens = [BfElement(dim, {0: Polynomial.monomial(x1)
                            + rand_poly(rng, dim, 0)})]
    gens += [BfElement(dim, {j: rand_poly(rng, dim, 2) for j in range(2)})
             for _ in range(rng.randint(0, 2))]
    multiples = seed % 2 == 0
    if multiples:
        # a scaled copy and an x-multiple share directions with gens[0]
        gens += [gens[0].scale(F(-3, 2)),
                 BfElement(dim, {j: p.mul_mono(x1, 2)
                                 for j, p in gens[0].layers.items()})]
    span = bf_span(gens, f, B)
    every = list(_every_graph_vector(gens, f, B))
    ref = Echelon()
    for vec, den, tag in every:
        ref.insert(vec, den, {tag: den})
    assert span.echelon.rank == ref.rank
    assert span.n_vectors == ref.n_vectors == len(every)
    if multiples:
        assert span.echelon.n_vectors < span.n_vectors
    for _ in range(6):
        picked = rng.sample(every, min(len(every), rng.randint(1, 4)))
        member = {}
        for vec, den, _ in picked:
            k = F(rng.choice([-2, -1, 1, 3]), den)
            for key, c in vec.items():
                member[key] = member.get(key, 0) + k * c
        member = {key: c for key, c in member.items() if c}
        layers = _as_layers(dim, member)
        residual, carried = ref.reduce(*integer_terms(member))
        assert not residual
        assert not span.reduce(layers)[0]
        assert span.witness([layers]) == [carried]
        # an element off the family: the same residual verdict
        other = BfElement(dim, {rng.randint(0, B.dt):
                                rand_poly(rng, dim, B.xdeg)})
        residual, _ = ref.reduce(*integer_terms(
            {(j, m): c for j, p in other.layers.items()
             for m, c in p.terms.items()}))
        assert bool(span.reduce(other.layers)[0]) == bool(residual)
        # one step past either edge of the window: None
        for layers in ({B.dt + 1: Polynomial.one(dim)},
                       {0: Polynomial.monomial(
                           tuple(e * (B.xdeg + 1) for e in x1))}):
            assert _outside(layers, B) and span.reduce(layers) is None


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


def test_verify_bfunction_degree_above_order_builds_nothing(inserted):
    # no basis operator reaches s-degree above the order bound, so a b(s) of
    # higher degree is not found, and nothing is built to find that out
    f = poly_parse("x1", 1)
    not_found = {"verdict": "not-found-at-bound",
                 "bounds": {"order": 4, "xdeg": 4},
                 "detail": "no operator at these bounds satisfies the "
                           "functional equation"}
    for mult in (6000, 5):
        cert = verify_bfunction(f, BFunction({F(-1): mult}), 4, 4)
        assert cert.to_json() == not_found
        assert not inserted
    # at deg b == order the system is built and solved
    assert verify_bfunction(f, BFunction({F(-1): 4}), 4, 4).is_member()
    assert inserted


@pytest.mark.parametrize("poly,dim,b,order,xdeg", [
    ("x1^2", 1, {F(-1): 1, F(-1, 2): 1}, 2, 2),
    ("x1*x2", 2, {F(-1): 2}, 3, 4),
    ("x1*x2", 2, {F(-1): 1}, 2, 3),
    ("x1^2+x2^3", 2, {F(-1): 1, F(-5, 6): 1}, 2, 3),
    ("x1*x2*x3", 3, {F(-1): 2}, 2, 1),  # no column has the degree of b
    ("1/2*x1^2", 1, {F(-1): 1, F(-1, 2): 1}, 2, 2),  # columns over den 2
    ("x1*x2*x3", 3, {F(-1): 3}, 3, 1),
    ("x1^2+x2^3+x1*x2", 2, {F(-1): 1}, 2, 2),  # no grading: every column
])
def test_verify_bfunction_columns_match_apply_to_twisted(
        inserted, poly, dim, b, order, xdeg):
    # the columns built from one image per d-part equal every graded basis
    # operator applied to f^(s+1) on its own, over the common pole of the
    # full d-part set; the dim columns of homogeneity_grading's nullspace
    # come first
    f = poly_parse(poly, dim)
    bf = BFunction(b)
    verify_bfunction(f, bf, order, xdeg)
    columns = inserted[dim:]
    if len(f.terms) == 1:  # a monomial has no exponent differences
        assert inserted[:dim] == [{}] * dim
    sec0 = TwistedSection.power(dim, 1)
    pole_target = max(
        [apply_to_twisted(WeylOperator(dim, {((0,) * dim, g, 0): 1}), f,
                          sec0).pole
         for g in monomials_upto_degree(dim, order)] + [1])
    keys = graded_operator_basis(f, order, xdeg, bf.degree())
    want = [_section_vector(
                apply_to_twisted(WeylOperator(dim, {key: 1}), f, sec0), f,
                pole_target)
            for key in keys]
    assert columns == want


def _section_vector(sec, f, pole_target):
    """{(s-power, monomial): coefficient} of sec written over the pole
    pole_target: the tuple-keyed reference for verify_bfunction's packed
    columns."""
    mult = f ** (pole_target - sec.pole)
    return {(j, m): c for j, p in sec.coeffs.items()
            for m, c in (p * mult).terms.items()}


def full_basis_certificate(f, b, order, xdeg):
    """The JSON of verify_bfunction's certificate, solved as before the
    restriction to one weighted degree: every bounded_operator_basis column
    inserted into one Echelon, in basis order."""
    bounds = {"order": order, "xdeg": xdeg}
    not_found = {"verdict": "not-found-at-bound", "bounds": bounds,
                 "detail": "no operator at these bounds satisfies the "
                           "functional equation"}
    if b.degree() > order:
        return not_found
    keys = bounded_operator_basis(f.dim, order, xdeg, b.degree())
    sec0 = TwistedSection.power(f.dim, 1)
    sections = [apply_to_twisted(WeylOperator(f.dim, {key: 1}), f, sec0)
                for key in keys]
    pole_target = max([sec.pole for sec in sections] + [1])
    ech = Echelon()
    for idx, sec in enumerate(sections):
        vec, den = integer_terms(_section_vector(sec, f, pole_target))
        ech.insert(vec, den, {idx: den})

    def residual(roots):
        rhs = vforacle._roots_section(f.dim, roots)
        return ech.reduce(*integer_terms(
            _section_vector(rhs, f, pole_target)))

    res, carried = residual(b)
    if res:
        return not_found
    divisors = []
    for r in b.sorted_roots():
        smaller = dict(b.roots)
        smaller[r] -= 1
        div = RootMultiset(smaller)
        divisors.append({"divisor": div.product_string(),
                         "verdict": "not-found-at-bound" if residual(div)[0]
                         else "member"})
    operator = WeylOperator(f.dim, {keys[i]: c for i, c in carried.items()})
    return {"verdict": "member", "bounds": bounds,
            "witness": {"operator": str(operator), "divisors": divisors,
                        "minimal_at_bound": all(
                            d["verdict"] == "not-found-at-bound"
                            for d in divisors)}}


# (f, dim, b, order, xdeg, the verdict, divisors that come back member)
GRADING_CASES = [
    # SNC: every weight vector is a grading
    ("x1*x2", 2, "(s+1)^2", 2, 2, "member", 0),
    ("x1*x2", 2, "(s+1)^3", 3, 3, "member", 1),
    ("x1^2*x2^3", 2, "(s+1)^2*(s+2/3)*(s+1/2)*(s+1/3)", 5, 1, "member", 0),
    ("x1^2*x2^3", 2, "(s+1)", 2, 2, "not-found-at-bound", 0),
    ("x1*x2*x3", 3, "(s+1)^3", 3, 1, "member", 0),
    # quasi-homogeneous: one line of gradings
    ("x1^2+x2^3", 2, "(s+1)*(s+7/6)*(s+5/6)", 3, 3, "member", 0),
    ("x1^2+x2^3", 2, "(s+1)^2*(s+7/6)*(s+5/6)", 4, 3, "member", 1),
    ("x1^2+x2^3", 2, "(s+1)*(s+5/6)", 3, 6, "not-found-at-bound", 0),
    ("x1^2+x2^3", 2, "(s+1)*(s+7/6)*(s+5/6)", 2, 3,  # deg b > order
     "not-found-at-bound", 0),
    ("x1^2*x2+x1*x2^2", 2, "(s+1)^2*(s+4/3)*(s+2/3)", 4, 6, "member", 0),
    ("x1^3+x2^4", 2,
     "(s+1)*(s+17/12)*(s+7/6)*(s+13/12)*(s+11/12)*(s+5/6)*(s+7/12)", 7, 2,
     "member", 0),
    # no grading: the full system
    ("x1^2+x2^3+x1*x2", 2, "(s+1)^2", 2, 2, "member", 0),
    ("x1^2+x2^3+x1*x2", 2, "(s+1)^3", 3, 2, "member", 1),
    ("x1^2+x2^3+x1*x2", 2, "(s+1)", 2, 2, "not-found-at-bound", 0),
]


@pytest.mark.parametrize("poly,dim,b,order,xdeg,verdict,members",
                         GRADING_CASES)
def test_verify_bfunction_graded_solve_matches_full_basis(
        poly, dim, b, order, xdeg, verdict, members):
    # the solve over one weighted degree gives the certificate of the full
    # system byte for byte: witness, divisor verdicts and minimality
    f = poly_parse(poly, dim)
    bf = BFunction.parse(b)
    got = verify_bfunction(f, bf, order, xdeg).to_json()
    assert got == full_basis_certificate(f, bf, order, xdeg)
    assert got["verdict"] == verdict
    assert sum(d["verdict"] == "member"
               for d in got.get("witness", {}).get("divisors", [])) == members


@pytest.mark.parametrize("poly,dim,b,order,xdeg,verdict,members",
                         [c for c in GRADING_CASES if c[5] == "member"])
def test_verify_bfunction_witness_is_w_homogeneous(
        poly, dim, b, order, xdeg, verdict, members):
    # every term x^b d^g s^j of the witness P carries f^(s+1) into the
    # weighted degree of b(s) f^s: w.(b - g) = -deg_w f for every grading
    f = poly_parse(poly, dim)
    cert = verify_bfunction(f, BFunction.parse(b), order, xdeg)
    operator = WeylOperator.parse(cert.witness["operator"], dim)
    assert operator.terms
    for xe, de, _ in operator.terms:
        for w, deg in homogeneity_grading(f):
            assert sum(wi * (bi - gi)
                       for wi, bi, gi in zip(w, xe, de)) == -deg


# ---------------------------------------------------------------------------
# candidate filtrations


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_d_gamma_images_match_step_chains(dim):
    # pole_apply's integer images against the per-exponent loop, and the
    # d_part_images BfElement images against chains that step the first
    # index instead, and d_images against those chains; f has rational
    # coefficients on odd draws, so that df is not 1
    rng = random.Random(300 + dim)
    gammas = list(monomials_upto_degree(dim, 3))
    for draw in range(4):
        f = rand_poly(rng, dim) + Polynomial.monomial((1,) + (0,) * (dim - 1))
        f = f.scale(F(2, 3)) if draw % 2 else f
        g = rand_poly(rng, dim)
        pole, alpha = rng.randint(0, 2), F(rng.randint(0, 5), 6)
        images = vforacle.pole_apply(gammas, g, pole, alpha, f)
        assert set(images) == set(gammas)
        for gamma in gammas:
            num, den, p = images[gamma]
            assert poly_parts({p: num}, den, dim) == [
                d_gamma_on_pole(gamma, g, pole, alpha, f)], gamma

        gen = BfElement(dim, {0: rand_poly(rng, dim), 1: rand_poly(rng, dim)})
        images = d_part_images(gammas, gen,
                               lambda u, i: graph_d(u, i, f))
        chain = {gammas[0]: gen}  # grlex order: each gamma after gamma - e_i
        for gamma in gammas[1:]:
            i = next(k for k, e in enumerate(gamma) if e)
            prev = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]
            chain[gamma] = graph_d(chain[prev], i, f)
        assert images == chain
        for dt in (1, 9):
            assert [(gamma, {j: p for p, j in poly_parts(layers, den, dim)})
                    for gamma, layers, den in gen.d_images(gammas, f, dt)] \
                == [(gamma, u.layers) for gamma, u in chain.items()
                    if u.layers and u.max_layer() <= dt]


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


def _witness_cases():
    """(f, family, level lam, kernel level l, axiom grid) on SNC (1,1),
    (2,3) and (1,1,1) and on the cusp at two levels."""
    cases = []
    for a, lam, l in (((1, 1), F(1), 1), ((2, 3), F(1, 2), 1),
                      ((1, 1, 1), F(1), 2)):
        d = SncDivisor(a)
        cases.append((d.polynomial(), SncVFamily(d, 4), lam, l,
                      [lam - F(1, 2), lam, lam + F(1, 2)]))
    germ = cusp_germ()
    for lam, l in ((F(5, 6), 0), (F(1), 1)):
        cases.append((germ.f, WhomVFamily(germ, 3), lam, l,
                      [F(5, 6), 1, F(7, 6)]))
    return cases


WITNESS_BOUNDS = (Bounds(2, 6, 3), Bounds(3, 8, 4))
WITNESS_SHA = (
    "73971a186e76e5d2f5a7eda9544c08e484052a8dbd42894631a190930a3b10e9")


def _reevaluated(witness, gens, f):
    """The sum of coeff * x^xbeta d^dgamma gens[generator] over the steps
    of a membership witness, each d step through graph_d."""
    total = BfElement(f.dim, {})
    for step in witness:
        u = gens[step["generator"]]
        for i, e in enumerate(step["dgamma"]):
            for _ in range(e):
                u = graph_d(u, i, f)
        beta = tuple(step["xbeta"])
        u = BfElement(f.dim, {j: p.mul_mono(beta, 1)
                              for j, p in u.layers.items()})
        total = total + u.scale(F(step["coeff"]))
    return total


def test_graph_module_witnesses_pinned():
    # the kernel_filtration_check certificates, witnesses included, and the
    # verify_v_axioms reports, byte for byte; every member witness
    # re-evaluates to (s+lam)^l g
    out, members = [], 0
    for f, fam, lam, l, grid in _witness_cases():
        kernel = [u for u, _ in fam.kernel_gens(lam, l, 1)]
        strict = fam.strict_gens(lam)
        for bounds in WITNESS_BOUNDS:
            cert = kernel_filtration_check(f, lam, l, kernel, strict, bounds)
            out.append((cert.to_json(), verify_v_axioms(fam, f, grid, bounds)))
            if not cert.is_member():
                continue
            members += 1
            for entry in cert.witness:
                u = kernel[entry["generator"]]
                for _ in range(l):
                    u = apply_s_shifted(u, f, lam)
                assert _reevaluated(entry["witness"], strict, f) == u
    assert members == 8
    blob = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == WITNESS_SHA


# ---------------------------------------------------------------------------
# the comparison maps


def test_q_poch():
    assert q_poch(0, F(1, 2)) == 1
    assert q_poch(2, 1) == 2
    assert q_poch(1, 0) == 0


def test_psi_map():
    x1 = {(1, 0): 1}
    assert psi_map({0: x1}, 1, 0) == ({0: x1}, 1)
    assert psi_map({1: x1}, 1, 0) == ({}, 1)
    assert psi_map({2: x1}, 1, 1) == ({2: {(1, 0): 2}}, 1)
    # over the returned den, the parts are g_j * Q_j(beta), a zero one
    # dropped
    layers = {0: {(1, 0): 2}, 2: {(0, 1): -3, (2, 0): 1}, 3: {(0, 0): 5}}
    for beta in (F(1, 2), F(-2, 3), F(5, 6), F(-1), F(0)):
        parts, den = psi_map(layers, 7, beta)
        assert poly_parts(parts, den, 2) == [
            (Polynomial(2, layers[j]).scale(q_poch(j, beta) / 7), j)
            for j in sorted(layers) if q_poch(j, beta)]


def test_phi_shift():
    g = poly_parse("x1", 2)
    u = BfElement(2, {1: XY * g})
    out = phi_shift(u, F(1, 2), XY)
    assert set(out.layers) == {0, 1}
    assert out.layers[1] == XY * g
    assert out.layers[0] == g.scale(F(-1, 2))
    # pole clearing failure
    with pytest.raises(PreconditionError):
        phi_shift(BfElement(2, {1: g}), F(1, 2), XY)


def test_phi_shift_single_layer_identity():
    g = poly_parse("x1+x2", 2)
    u = BfElement.from_poly(g, 0)
    assert phi_shift(u, F(1, 3), XY).layers == {0: g}


def test_phi_shift_s_equivariance():
    rng = random.Random(67)
    alpha = F(1, 2)
    for _ in range(20):
        u = BfElement(2, {0: rand_poly(rng) * XY, 1: rand_poly(rng) * XY * XY})
        lhs = phi_shift(apply_s_shifted(u, XY, 0), alpha, XY)
        rhs = apply_s_shifted(phi_shift(u, alpha, XY), XY, alpha)
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


def test_dspans_equal_window_details():
    # a generator whose cleared numerator leaves the window is reported as
    # such, at the first depth (x1^9) or after a depth search (x1^5 * f is
    # inside the window at depth 1 but not reduced, x1^5 * f^2 is outside
    # it at depth 2); with no deeper depth to try, it is not reduced
    unit = HodgePresentation.build(F(0), 2, [(0, Polynomial.one(2), 0)])
    wide = HodgePresentation.build(
        F(0), 2, [(0, poly_parse("x1", 2), 0), (0, poly_parse("x1^9", 2), 0)])
    high = HodgePresentation.build(F(0), 2, [(0, poly_parse("x1^5", 2), 0)])
    deep = HodgePresentation.build(
        F(0), 2, [(0, poly_parse("x1*x2^2", 2), 1)])
    for p1, p2, order, detail in (
            (wide, unit, 2, "first-in-second: generator 1 exceeds the window"),
            (high, deep, 1, "first-in-second: generator 0 exceeds the window"),
            (high, deep, 0, "first-in-second: generator 0 not reduced")):
        cert = dspans_equal(p1, p2, XY, Bounds(order, 8, 4))
        assert cert.verdict == "not-found-at-bound"
        assert cert.detail == detail


def test_kernel_filtration_window_details():
    # (s+1) * x1^9 has degree 11 at dt layer 1, outside xdeg 8; (s+1) * 1
    # is inside the window but not in the strict span
    fam = SncVFamily(SncDivisor((1, 1)), 4)
    for second, detail in (("x1^9", "generator 1 exceeds the window"),
                           ("1", "generator 1 not reduced")):
        gens = [BfElement.from_poly(poly_parse(g, 2)) for g in ("x1", second)]
        cert = kernel_filtration_check(XY, 1, 1, gens, fam.strict_gens(1),
                                       Bounds(3, 8, 5))
        assert cert.verdict == "not-found-at-bound"
        assert cert.detail == detail


def test_v_axioms_window_exceeded_is_skipped():
    # the images that leave the window are reported and counted, and do
    # not fail the report
    rep = verify_v_axioms(SncVFamily(SncDivisor((1, 1)), 2), XY, [F(1, 2)],
                          Bounds(2, 3, 2))
    assert [(c["generator"], c["axiom"])
            for c in rep["checks"] if c["verdict"] == "window-exceeded"] == [
        (1, "t"), (2, "t"), (2, "dt"), (2, "(s+1/2)^0")]
    assert {c["verdict"] for c in rep["checks"]} == {"member",
                                                     "window-exceeded"}
    assert rep["skipped"] == 4
    assert rep["all_member"]


def test_reduce_presentation_keeps_out_of_window_summands():
    # x1^9 lies in the D-span of x1 but leaves the degree window, so it is
    # kept; x1^8 is inside it and dropped
    pres = HodgePresentation.build(
        F(1), 2, [(2, poly_parse(g, 2), 0) for g in ("x1", "x1^8", "x1^9")])
    red = reduce_presentation(pres, XY, Bounds(2, 8, 4))
    assert [str(g) for _, g, _ in red.summands] == ["x1", "x1^9"]
    # x1^2 has degree 2, but cleared to the pole 1 of x1*x2 it is
    # x1^3*x2, of degree 4: kept at xdeg 3, dropped at xdeg 4
    pres = HodgePresentation.build(
        F(1), 2, [(0, poly_parse("x1", 2), 0), (0, poly_parse("x1^2", 2), 0),
                  (0, XY, 1)])
    for xdeg, kept in ((3, ["x1", "x1^2", "x1*x2"]), (4, ["x1", "x1*x2"])):
        red = reduce_presentation(pres, XY, Bounds(2, xdeg, 4))
        assert [str(g) for _, g, _ in red.summands] == kept


def test_spans_build_no_image_above_their_pole(monkeypatch):
    # a window span hands pole_apply only the d-parts that land at or below
    # its pole, in presentation_span, reduce_presentation and the shallow
    # depths of dspans_equal
    requests, poles = [], []
    real_apply, real_summand = vforacle.pole_apply, WindowSpan.add_summand

    def apply(gammas, g, pole, alpha, f):
        requests.append((poles[-1], pole, list(gammas)))
        return real_apply(gammas, g, pole, alpha, f)

    def add_summand(self, *args):
        poles.append(self.pole_target)
        real_summand(self, *args)

    monkeypatch.setattr(vforacle, "pole_apply", apply)
    monkeypatch.setattr(WindowSpan, "add_summand", add_summand)
    x1, x2 = poly_parse("x1", 2), poly_parse("x2", 2)
    pres = HodgePresentation.build(F(1), 2, [(4, x1, 0), (4, x2, 1)])
    vforacle.presentation_span(pres, XY, F(1), 2, 8)
    reduce_presentation(pres, XY, Bounds(4, 8, 4))
    unit = HodgePresentation.build(F(0), 2, [(0, Polynomial.one(2), 0)])
    deep = HodgePresentation.build(F(0), 2, [(0, XY, 1)])
    assert dspans_equal(unit, deep, XY, Bounds(2, 8, 4)).is_member()
    assert {target for target, _, _ in requests} == {1, 2}
    for target, pole, gammas in requests:
        assert gammas and all(pole + sum(g) <= target for g in gammas)


def test_d_part_sets_reach_above_xdeg(monkeypatch):
    # a d-part bound may exceed xdeg: for f = x1, d1 takes 1 to -dt, of
    # degree 0, so every image d^gamma 1 stays in the window, and a span
    # builds all C(n + order, n) d-parts, not a slice of its xdeg set
    sizes, real = [], vforacle.d_part_images

    def noting(gammas, start, step):
        sizes.append(len(gammas))
        return real(gammas, start, step)

    monkeypatch.setattr(vforacle, "d_part_images", noting)
    for dim, order, xdeg in ((1, 5, 0), (2, 3, 1), (3, 2, 0)):
        f = Polynomial.monomial((1,) + (0,) * (dim - 1))
        sizes.clear()
        span = bf_span([BfElement.from_poly(Polynomial.one(dim))], f,
                       Bounds(order, xdeg, order))
        assert sizes == [math.comb(dim + order, dim)]
        assert max(sum(gamma) for _, gamma, _ in span.tags) == order


def test_window_span_add_refuses_a_part_above_its_pole():
    span = WindowSpan(XY, 1, 4, 0)
    with pytest.raises(ValueError):
        span.add({2: {(1, 0): 1}}, 1, (0,))
    assert span.n_vectors == 0


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


def _fractions(vec, den):
    return {c: F(v, den) for c, v in vec.items()}


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
    target = [_fractions(vec, den) for vec, den, _ in target]
    base = _dense_rank(target)
    for vec, den, tag in source:
        if _dense_rank(target + [_fractions(vec, den)]) > base:
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
    """Tagged integer terms dicts (numerators, den, tag) of nonzero
    polynomials: random ones, and (given base) random combinations of base,
    so that containment both holds and fails."""
    out = []
    for i in range(rng.randint(0, 6)):
        p = Polynomial.zero(2)
        if base and rng.random() < 0.7:
            for q, den, _ in rng.sample(base, rng.randint(1, len(base))):
                p = p + Polynomial(2, _fractions(q, den)).scale(
                    rng.randint(-2, 2))
        if p.is_zero():
            p = _sparse_poly(rng, xdeg)
        out.append((*integer_terms(p.terms), (label, i)))
    return out


def _raw_span(family):
    """A window span holding the tagged vectors of family, each inserted
    as it is (the last entry of its tag as beta, with shift 0); a multiple
    of an earlier vector is skipped."""
    span = WindowSpan(XY, 0, 3, 0)
    for vec, den, tag in family:
        span.insert({span.packing.shift(m, 0): c for m, c in vec.items()},
                    den, tag[:-1], tag[-1:], (0,))
    return span


@pytest.mark.parametrize("seed", range(40))
def test_row_containment_matches_vector_scan(seed):
    rng = random.Random(seed)
    a = _family(rng, "a")
    b = _family(rng, "b", base=a)
    if rng.random() < 0.5:
        a, b = b, a
    span_a, span_b = _raw_span(a), _raw_span(b)
    ne_a, ne_b = rng.random() < 0.5, rng.random() < 0.5
    for name, src, src_span, ne, tgt, tgt_span in (
            ("a-in-b", a, span_a, ne_a, b, span_b),
            ("b-in-a", b, span_b, ne_b, a, span_a)):
        ref = _reference_containment(name, src, tgt, ne)
        assert _cross_containment(name, src_span, tgt_span, ne) == ref
    assert _mutual_containment(("a-in-b", span_a, ne_a),
                               ("b-in-a", span_b, ne_b)) == (
        _reference_containment("a-in-b", a, b, ne_a),
        _reference_containment("b-in-a", b, a, ne_b))


def test_mutual_containment_keeps_expect_nonempty():
    # the rank shortcut still reports an empty family as inconclusive
    empty = _raw_span([])
    assert _mutual_containment(("a-in-b", empty, False),
                               ("b-in-a", empty, True)) == (
        (True, {"direction": "a-in-b", "vectors": 0}),
        (False, {"direction": "b-in-a",
                 "failed_at": "window too small to represent anything"}))


def cleared_by_powers(parts, f, pole):
    """The sum of num * f ** (pole - p) over the nonzero parts."""
    total = Polynomial.zero(f.dim)
    for num, p in parts:
        if not num.is_zero():
            total = total + num * f ** (pole - p)
    return total


@pytest.mark.parametrize("poles,pole", [
    ([], 0), ([], 3),                # no parts
    ([1, 1, 1], 1), ([2, 0, 2], 2),  # repeated poles
    ([0, 3], 3), ([4, 1], 4),        # gaps between poles
    ([0, 1], 4), ([2], 5),           # the pole above every part
])
def test_clear_to_pole_matches_powers(poles, pole):
    rng = random.Random(10 * len(poles) + pole)
    for f in (XY, poly_parse("x1^2+x2^3", 2), poly_parse("x2^2 - 1/2", 2)):
        parts = [(rand_poly(rng).scale(F(1, rng.randint(1, 6))), p)
                 for p in poles]
        # zero numerators, one of them above the pole, are skipped; a part
        # and its negative at one pole cancel
        parts += [(Polynomial.zero(2), pole), (Polynomial.zero(2), pole + 1)]
        if poles:
            g = rand_poly(rng) + XY
            parts += [(g, poles[0]), (-g, poles[0])]
        num, den = vforacle.clear_to_pole(*int_parts(parts),
                                          integer_terms(f.terms), pole)
        assert poly_parts({pole: num}, den, 2) == [
            (cleared_by_powers(parts, f, pole), pole)], (poles, pole, str(f))
    with pytest.raises(ValueError):
        vforacle.clear_to_pole(*int_parts([(XY, pole + 1)]),
                               integer_terms(XY.terms), pole)


def every_window_vector(parts, f, pole_target, xdeg, tag):
    """The window vectors of one element with none skipped: every shift of
    its cleared numerator, the reference a window family must match."""
    if any(p > pole_target for _, p in parts):
        return
    num = cleared_by_powers(parts, f, pole_target)
    if num.is_zero() or num.total_degree() > xdeg:
        return
    terms, den = integer_terms(num.terms)
    for beta in monomials_upto_degree(f.dim, xdeg - num.total_degree()):
        yield ({mono_mul(m, beta): c for m, c in terms.items()}, den,
               tag + (beta,))


def _direction(vec: dict) -> frozenset:
    """A vector scaled to coefficient 1 at its largest key: equal exactly
    for scalar multiples."""
    top = vec[max(vec)]
    return frozenset((c, F(v) / top) for c, v in vec.items())


BASES = {2: ["x1", "x1 + x2", "x1 - x2", "2*x1*x2 + 3*x2^2", "x2^2 - 1/2",
             "x1^2 + x2^2"],
         3: ["x1", "x1 + x2", "x1 - x2", "x1*x3 - 2*x2", "x3^2 + 1/3*x1",
             "x1*x2*x3"]}
SHIFTS = {dim: list(monomials_upto_degree(dim, 2)) for dim in (2, 3)}
POLES = {2: ["x1*x2", "x1^2+x2^3"], 3: ["x1*x2*x3", "x1^2+x2^2+x3^2"]}


@st.composite
def window_families(draw):
    """(f, xdeg, elements, target elements) in dimension 2 or 3: elements
    are (numerator, pole) parts, drawn as c * x^a * base at pole 0 or 1, so
    that exact x-multiples and scalar multiples of one another are common
    (with a monomial f, f * p at pole 1 is an x-multiple of p too)."""
    dim = draw(st.sampled_from([2, 3]))
    f = poly_parse(draw(st.sampled_from(POLES[dim])), dim)
    bases = draw(st.lists(st.sampled_from(BASES[dim]), min_size=1,
                          max_size=2, unique=True))
    element = st.builds(
        lambda base, shift, c, pole: [(
            poly_parse(base, dim).mul_mono(shift, 1).scale(c), pole)],
        st.sampled_from(bases), st.sampled_from(SHIFTS[dim]),
        st.sampled_from([F(1), F(-1), F(2), F(-3, 2), F(1, 3)]),
        st.sampled_from([0, 1]))
    elements = draw(st.lists(element, min_size=2, max_size=6))
    target = draw(st.lists(st.sampled_from(elements), max_size=4))
    return f, draw(st.integers(3, 5)), elements, target


def _window_stream(produce, elements, f, xdeg):
    return [v for i, parts in enumerate(elements)
            for v in produce(parts, f, 1, xdeg, (i,))]


class _RecordingSpan(WindowSpan):
    """A window span that records every vector it queues, with its keys
    read back as (layer, exponent vector)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inserted = []

    def insert(self, *args):
        self.inserted += _queued(self, WindowSpan.insert, *args)


def _window_span(elements, f, xdeg, cls=WindowSpan):
    span = cls(f, 1, xdeg, 0)
    for i, parts in enumerate(elements):
        span.add(*int_parts(parts), (i,))
    return span


def _scan_containment(name, source, target, expect_nonempty):
    """Vector by vector: the tag of the first source vector that does not
    reduce in a plain Echelon of every target vector."""
    span = Echelon()
    for vec, den, _ in target:
        span.insert(vec, den)
    for vec, den, tag in source:
        if span.reduce(vec, den)[0]:
            return False, {"direction": name, "failed_at": repr(tag)}
    if expect_nonempty and not source:
        return False, {"direction": name,
                       "failed_at": "window too small to represent anything"}
    return True, {"direction": name, "vectors": len(source)}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(window_families())
def test_window_family_inserts_each_vector_once(case):
    f, xdeg, elements, target = case
    span = _window_span(elements, f, xdeg, _RecordingSpan)
    every = _window_stream(every_window_vector, elements, f, xdeg)
    # the inserted vectors are window vectors at layer 0, in the order of
    # the stream
    reference = {tag: ({(0, m): c for m, c in vec.items()}, den)
                 for vec, den, tag in every}
    tags = [tag for *_, tag in span.inserted]
    assert tags == [tag for *_, tag in every if tag in set(tags)]
    for vec, den, tag in span.inserted:
        assert (vec, den) == reference[tag]
    kept = [_direction(vec) for vec, _, _ in span.inserted]
    assert len(kept) == len(set(kept)) == len({_direction(vec)
                                              for vec, _, _ in every})
    full, full_tags = Echelon(), []
    for vec, den, tag in every:
        if full.insert(vec, den) is None:
            full_tags.append(tag)
    assert span.echelon.rank == full.rank
    assert {_monomial(span, code)
            for code in span.echelon.pivots()} == full.pivots()
    assert [(_unpacked(span, row), p)
            for row, p in span.echelon.basis()] == full.basis()
    assert span.n_vectors == full.n_vectors == len(every)
    assert span.tags == full_tags
    # a target family that may miss some of the vectors, so that the rows
    # name the first failing vector of the scan over every vector
    target_span = _window_span(target, f, xdeg)
    target_every = _window_stream(every_window_vector, target, f, xdeg)
    for expect_nonempty in (False, True):
        assert _cross_containment("a-in-b", span, target_span,
                                  expect_nonempty) == _scan_containment(
            "a-in-b", every, target_every, expect_nonempty)


def _record(span) -> set:
    """The (direction, position) pairs of a window span's record."""
    return {(shape, k) for shape, ks in span._taken.items() for k in ks}


def _record_case(rng, case):
    """(f, xdeg, elements a, elements b) in dimension 2, b drawn so that
    the window spans' records are equal, b's a proper subset of a's,
    disjoint, shifted (b is x1 times a: the same directions S at other
    positions) or empty (a too on odd draws): c * x^a * base elements at
    pole 0 or 1, with the bases of b's extra element and of the disjoint
    side apart from a's, and those elements and the shifted ones inside
    the window."""
    f = poly_parse(rng.choice(POLES[2]), 2)
    near, far = BASES[2][:3], BASES[2][3:]

    def element(bases, inside=False):
        base = poly_parse(rng.choice(bases), 2)
        c = rng.choice([F(1), F(-1), F(2), F(-3, 2), F(1, 3)])
        # pole 1 is the spans' own: degree at most 2 + 2 <= xdeg
        return [(base.mul_mono(rng.choice(SHIFTS[2]), c),
                 1 if inside else rng.randint(0, 1))]

    a = [element(near, case == "shifted") for _ in range(rng.randint(1, 4))]
    if case == "equal":
        b = [[(num.scale(rng.choice([F(-1), F(5, 2)])), pole)]
             for [(num, pole)] in rng.sample(a, len(a))]
    elif case == "subset":
        a, b = a + [element(far, True)], a
    elif case == "shifted":
        b = [[(num.mul_mono((1, 0), 1), pole)] for [(num, pole)] in a]
    elif case == "disjoint":
        b = [element(far, True) for _ in range(rng.randint(1, 4))]
    else:
        a, b = (a if rng.random() < 0.5 else []), []
    return f, rng.randint(4, 5), a, b


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("case", ["equal", "subset", "disjoint", "shifted",
                                  "empty"])
def test_record_certificate_matches_elimination(seed, case, monkeypatch):
    # containment certified from the records returns what the row scan
    # returns, failed_at tags included, on both expect_nonempty settings;
    # equal records settle both directions with no Echelon insert
    f, xdeg, a, b = _record_case(random.Random(seed), case)
    records = (_record(_window_span(a, f, xdeg)),
               _record(_window_span(b, f, xdeg)))
    assert {"equal": records[0] == records[1],
            "subset": records[1] < records[0],
            "disjoint": not records[0] & records[1] and records[1],
            "shifted": records[0] != records[1] and {
                shape for shape, _ in records[0]} == {
                shape for shape, _ in records[1]},
            "empty": not records[1]}[case]
    echelon_insert, inserts = Echelon.insert, []

    def counted(self, *args):
        inserts.append(args)
        return echelon_insert(self, *args)

    monkeypatch.setattr(Echelon, "insert", counted)

    def results(by_record):
        """Each containment of the two families, on fresh spans."""
        out = []
        for ne_a, ne_b in ((False, False), (False, True), (True, False),
                           (True, True)):
            sides = (("a-in-b", a, ne_a), ("b-in-a", b, ne_b))
            for (name, source, ne), (_, target, _) in (sides, sides[::-1]):
                out.append(_cross_containment(
                    name, _window_span(source, f, xdeg),
                    _window_span(target, f, xdeg), ne))
            for first, second in (sides, sides[::-1]):
                inserts.clear()
                out.append(_mutual_containment(
                    *[(name, _window_span(elements, f, xdeg), ne)
                      for name, elements, ne in (first, second)]))
                if by_record and records[0] == records[1]:
                    assert inserts == []
        return out

    by_record = results(True)
    with monkeypatch.context() as m:
        m.setattr(WindowSpan, "within", lambda self, other: False)
        eliminated = results(False)
        assert inserts or not (records[0] or records[1])
    assert by_record == eliminated


def test_dropped_generator_names_its_tag_on_both_paths(monkeypatch):
    # the suite's negative control: a presentation missing a generator
    # names the same first failing vector with or without the records
    wrong = HodgePresentation.build(F(1), 2, [(0, poly_parse("x1", 2), 0)])
    right = snc_hodge_weight(SncDivisor((1, 1)), 1, 0, 1)
    detail = ("[{'direction': 'second-in-first', "
              "'failed_at': '(0, (0, 0), (0, 0))'}]")
    assert presentations_equal(wrong, right, XY,
                               Bounds(4, 10, 6)).detail == detail
    monkeypatch.setattr(WindowSpan, "within", lambda self, other: False)
    assert presentations_equal(wrong, right, XY,
                               Bounds(4, 10, 6)).detail == detail


def _reference_reduce(pres, f, xdeg):
    """The kept summands of the greedy minimalization over a plain
    Echelon that takes every window vector of each kept summand."""
    pole_target = max((j for _, _, j in pres.summands), default=0)
    span, kept = Echelon(), []
    for budget, g, j in sorted(pres.summands, key=lambda t: (
            t[2], t[1].total_degree(), grlex_key(t[1].leading_monomial()))):
        vec = g * f ** (pole_target - j)
        if (vec.total_degree() <= xdeg and kept
                and not span.reduce(*integer_terms(vec.terms))[0]):
            continue
        kept.append((budget, g, j))
        for gamma in monomials_upto_degree(f.dim, budget):
            image = d_gamma_on_pole(gamma, g, j, pres.alpha, f)
            for v, den, _ in every_window_vector([image], f, pole_target,
                                                 xdeg, ()):
                span.insert(v, den)
    return HodgePresentation.build(pres.alpha, pres.dim, kept)


@st.composite
def shared_presentations(draw):
    """(f, xdeg, presentation) in dimension 2 whose summands c * x^a *
    base share one or two bases, so that their window vectors share
    multiples across summands."""
    f = poly_parse(draw(st.sampled_from(POLES[2])), 2)
    bases = draw(st.lists(st.sampled_from(BASES[2]), min_size=1,
                          max_size=2, unique=True))
    summand = st.builds(
        lambda budget, base, shift, c, pole: (
            budget, poly_parse(base, 2).mul_mono(shift, 1).scale(c), pole),
        st.integers(0, 2), st.sampled_from(bases),
        st.sampled_from(SHIFTS[2]),
        st.sampled_from([F(1), F(-1), F(2), F(1, 3)]),
        st.sampled_from([0, 1]))
    summands = draw(st.lists(summand, min_size=1, max_size=5))
    alpha = draw(st.sampled_from([F(1), F(1, 2), F(5, 6)]))
    return (f, draw(st.integers(3, 6)),
            HodgePresentation.build(alpha, 2, summands))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(shared_presentations())
def test_reduce_presentation_matches_every_vector_reference(case):
    f, xdeg, pres = case
    got = reduce_presentation(pres, f, Bounds(2, xdeg, 4))
    assert got.to_json() == _reference_reduce(pres, f, xdeg).to_json()


# every alpha in (0, 1] with a denominator 1 to 6, and germs whose rational
# coefficients make df differ from 1
ALPHAS = sorted({F(a, q) for q in range(1, 7) for a in range(1, q + 1)})
RATIONAL_GERMS = [("1/2*x1^2 + 1/3*x2^3", "1/2,1/3"),
                  ("x1^2 - 1/2*x2^2", "1/2,1/2"),
                  ("1/2*x1^2 + 1/3*x2^3 + 2/5*x3^2", "1/2,1/3,1/2")]


def _assert_queue_canonical(span, vector_of):
    """Every queued (terms, den) of the span is the integer_terms pair of
    vector_of(tag), its vector built in Fraction polynomials, at the span's
    packed keys."""
    for terms, den, tag, _ in span._queue:
        vec = vector_of(tag)
        assert (terms, den) == integer_terms(
            {span.packing.shift(m, 0): c for m, c in vec.terms.items()}), tag


def _twisted_vector(summands, alpha, f, pole_target):
    """The Fraction-built vector of the tag (si, gamma) of a twisted span:
    d^gamma (g f^(-j-alpha)) of summand si by partials, cleared with
    f ** (pole_target - p)."""
    def vector_of(tag):
        _, g, j = summands[tag[0]]
        num, p = d_gamma_on_pole(tag[1], g, j, alpha, f)
        return num * f ** (pole_target - p)
    return vector_of


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_twisted_span_queues_canonical_pairs(data):
    # f among the poles and the rational bases (df != 1), alpha of any
    # sign with a denominator 1 to 6; the unit summand keeps the queue
    # nonempty
    dim = data.draw(st.sampled_from([2, 3]))
    f = poly_parse(data.draw(st.sampled_from(POLES[dim] + [BASES[dim][4]])),
                   dim)
    alpha = F(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 6)))
    summand = st.builds(
        lambda budget, base, shift, c, j: (
            budget, poly_parse(base, dim).mul_mono(shift, 1).scale(c), j),
        st.integers(0, 2), st.sampled_from(BASES[dim]),
        st.sampled_from(SHIFTS[dim]),
        st.sampled_from([F(1), F(-2), F(1, 3), F(-5, 4)]), st.integers(0, 2))
    summands = [(0, Polynomial.one(dim), 2)] + data.draw(
        st.lists(summand, min_size=1, max_size=3))
    span = WindowSpan(f, 2, 6, 0)
    for si, s in enumerate(summands):
        span.add_summand(si, s, alpha)
    _assert_queue_canonical(span, _twisted_vector(summands, alpha, f, 2))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(RATIONAL_GERMS), st.sampled_from(ALPHAS),
       st.integers(0, 2), st.integers(0, 1))
def test_crosscheck_spans_queue_canonical_pairs(germ, alpha, k, l):
    # both spans of a cross-check over a germ with rational coefficients:
    # the oracle's d_images -> psi_map -> add chain and the closed form's
    # pole images queue the pairs of their Fraction-built vectors
    poly, weights = germ
    w = WeightVector.parse(weights)
    germ = QuasiHomogeneousGerm(poly_parse(poly, w.dim), w)
    l = 1 if alpha == 1 else l
    bounds, spans = Bounds(2, 4, 2), []

    class Recording(WindowSpan):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(vforacle, "WindowSpan", Recording)
        crosscheck_hodge_weight("whom", germ, alpha, k, l, bounds)
    oracle, closed = spans
    f = germ.f
    gens = WhomVFamily(germ, bounds.dt).kernel_gens(alpha, l, k)

    def oracle_vector(tag):
        u = gens[tag[0]][0]
        for i, e in enumerate(tag[1]):
            for _ in range(e):
                u = graph_d(u, i, f)
        total = Polynomial.zero(f.dim)
        for j, p in u.layers.items():
            total += p.scale(q_poch(j, alpha)) * f ** (oracle.pole_target - j)
        return total

    assert oracle._queue and closed._queue
    _assert_queue_canonical(oracle, oracle_vector)
    _assert_queue_canonical(closed, _twisted_vector(
        whom_hodge_weight(germ, alpha, k, l).summands, alpha, f,
        closed.pole_target))


def _unshared_direction(terms):
    """A direction that no other vector has: with it, a window span skips
    no window vector."""
    return object(), 0


def _add_every_vector(span, parts, den, tag):
    """WindowSpan.add with no window vector skipped: each vector of
    every_window_vector inserted as it is, with shift 0."""
    for vec, den, t in every_window_vector(
            poly_parts(parts, den, span.f.dim), span.f, span.pole_target,
            span.xdeg, tag):
        span.insert({span.packing.shift(m, 0): c for m, c in vec.items()},
                    den, t[:-1], t[-1:], (0,))


@st.composite
def window_monomials(draw):
    """(dim, xdeg, monomials of total degree <= xdeg) in 1 to 3 variables."""
    dim, xdeg = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    monos = st.sampled_from(list(monomials_upto_degree(dim, xdeg)))
    return dim, xdeg, draw(st.lists(monos, min_size=1, max_size=8))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(window_monomials())
def test_window_packing_is_exact(case):
    # a window span packs a monomial into one int at radix xdeg + 1: tuple
    # order is kept, shifts and shape offsets are int additions and
    # subtractions, and its packing reduce answers None above xdeg
    dim, xdeg, monos = case
    span = WindowSpan(poly_parse("x1", dim), 0, xdeg, 0)
    assert span.packing.radix == xdeg + 1

    def pack(m):
        return span.packing.shift(m, 0)

    for a in monos:
        assert _monomial(span, pack(a)) == a
        for b in monos:
            assert (a < b) == (pack(a) < pack(b))
            if sum(a) + sum(b) <= xdeg:
                assert pack(a) + pack(b) == pack(mono_mul(a, b))
            if mono_divides(b, a):
                assert pack(a) - pack(b) == pack(mono_div(a, b))
    # the packing reduce agrees with add's packing inside the window
    mu = monos[0]
    span.add({0: {mu: 1}}, 1, ())
    for m in monomials_upto_degree(dim, xdeg):
        assert span.contains(Polynomial.monomial(m), 0) == \
            mono_divides(mu, m)
    assert span.contains(
        Polynomial.monomial((xdeg + 1,) + (0,) * (dim - 1)), 0) is None


CROSS_111 = ("crosscheck", "--source", "snc", "--exponents", "1,1,1",
             "--alpha", "1", "--k", "2", "--l", "1", "--json")
CROSS_111_SHA = (
    "71c99bbbd23dd78d24be90f7522789e02e4439d4ad1b50d0fd74e1a804df631d")


def test_crosscheck_inserts_each_window_vector_once(inserted, monkeypatch,
                                                    capsys):
    # the pinned crosscheck queues as many vectors in each module span as its
    # window vectors have distinct directions, with an unchanged envelope,
    # and certifies both directions from the spans' records: it inserts no
    # vector into any Echelon.  With every window vector of
    # every_window_vector inserted and no direction shared, every one is
    # queued and the elimination gives the same envelope.
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    init, echelon_insert = WindowSpan.__init__, Echelon.insert
    marks, echelon_inserts = [], []

    def marked(self, *args):
        marks.append(len(inserted))
        init(self, *args)

    def counted(self, *args):
        echelon_inserts.append(args)
        return echelon_insert(self, *args)

    monkeypatch.setattr(WindowSpan, "__init__", marked)
    monkeypatch.setattr(Echelon, "insert", counted)

    def spans():
        """The vectors queued in each module span, in order."""
        inserted.clear()
        marks.clear()
        echelon_inserts.clear()
        assert main(list(CROSS_111)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CROSS_111_SHA
        ends = marks[1:] + [len(inserted)]
        return [inserted[a:b] for a, b in zip(marks, ends)]

    kept = spans()
    assert echelon_inserts == []
    with monkeypatch.context() as m:
        m.setattr(WindowSpan, "add", _add_every_vector)
        m.setattr(vforacle, "_direction", _unshared_direction)
        every = spans()
    assert echelon_inserts
    assert len(kept) == len(every) == 2  # the oracle and closed-form spans
    assert sum(map(len, kept)) < sum(map(len, every))
    for got, ref in zip(kept, every):
        assert len(got) == len({_direction(vec) for vec in ref})
        assert {_direction(vec) for vec in got} == {_direction(vec)
                                                    for vec in ref}


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
