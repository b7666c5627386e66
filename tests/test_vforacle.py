import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hwkit.bsdata import BFunction, RootMultiset, bfunction_snc
from hwkit.errors import InternalCheckFailed, PreconditionError
from hwkit.cli import main
from hwkit.exactalg import (Polynomial, WeightVector, grlex_key, mono_div,
                            mono_divides, mono_mul, monomials_upto_degree,
                            poly_parse)
from hwkit import vforacle, weyl
from hwkit.linalg import Echelon
from hwkit.snc import HodgePresentation, SncDivisor, snc_hodge_weight
from hwkit.vforacle import (BfElement, Bounds, SncVFamily,
                            WhomVFamily, WindowSpan, _common_pole_spans,
                            _cross_containment, apply_s_shifted,
                            bf_span, candidate_v_snc,
                            crosscheck_hodge_weight, dspans_equal,
                            kernel_filtration_check, phi_shift,
                            presentation_contained, presentations_equal,
                            psi_map, q_poch, reduce_presentation,
                            verify_bfunction, verify_v_axioms)
from hwkit.weyl import (KeyPacking, ShiftTable, WeylOperator,
                        bfunction_operator_basis, bounded_operator_basis,
                        d_part_images, graded_operator_basis,
                        homogeneity_grading)
from hwkit.whom import QuasiHomogeneousGerm, whom_hodge_weight
from twisted_reference import (TwistedSection, apply_section, fraction_terms,
                               integer_pair, roots_section)

F = Fraction
XY = poly_parse("x1*x2", 2)


def shifted(p, m, c=1):
    """c * x^m * p, built term by term."""
    return Polynomial(p.dim, {mono_mul(k, m): v * c
                              for k, v in p.nums.items()}, p.den)


def packed_layers(packing, layers):
    """(integer numerators, den) of the layers {j: Polynomial}, each x^m
    at packed key j * top + shift(m), over one denominator."""
    return integer_pair(packing.pack_terms(
        {j: fraction_terms(p) for j, p in layers.items()}))


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
    flat, den = integer_pair({(p, m): c for p, num in by_pole.items()
                              for m, c in fraction_terms(num).items()})
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


def element(dim, layers):
    """The BfElement sum_j p_j dt^j of the layers {j: Polynomial}."""
    return sum((BfElement.from_poly(p, j) for j, p in layers.items()),
               BfElement.zero(dim))


def layers_of(u):
    """The layers {j: Polynomial} of a BfElement, each nonzero."""
    out = {}
    for key, c in u.nums.items():
        out.setdefault(key[-1], {})[key[:-1]] = c
    return {j: Polynomial(u.dim, nums, u.den) for j, nums in out.items()}


def _layer_sum(*families) -> dict:
    """The sum of layer dicts {j: Polynomial}, zero layers dropped."""
    out = {}
    for layers in families:
        for j, p in layers.items():
            out[j] = out[j] + p if j in out else p
    return {j: p for j, p in out.items() if not p.is_zero()}


def _ref_d(layers, i, f):
    """d_i (0-based i) on layers {j: g_j}, in Polynomial arithmetic:
    g dt^j -> (d_i g) dt^j - (d_i f) g dt^(j+1)."""
    return _layer_sum({j: p.partial(i) for j, p in layers.items()},
                      {j + 1: -(p * f.partial(i)) for j, p in layers.items()})


def graph_d(u, i, f):
    """d_i on the graph module, through the layers of u (_ref_d)."""
    return element(u.dim, _ref_d(layers_of(u), i, f))


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
    assert layers_of(u.t(XY)) == {0: XY}
    assert layers_of(u.dt()) == {1: Polynomial.one(2)}
    assert layers_of(apply_s_shifted(u, XY, 0)) == {1: -XY}
    v = BfElement.from_poly(poly_parse("x1", 2), layer=2)
    tv = layers_of(v.t(XY))
    assert tv[2] == XY * poly_parse("x1", 2)
    assert tv[1] == poly_parse("-2*x1", 2)


def test_act_commutator():
    rng = random.Random(61)
    for _ in range(50):
        u = element(2, {0: rand_poly(rng), 1: rand_poly(rng),
                        2: rand_poly(rng)})
        lhs = u.t(XY).dt()
        rhs = u.dt().t(XY)
        assert lhs + rhs.scale(-1) == u


def _ref_t(layers, f):
    """t on layers {j: g_j}: g dt^j -> f g dt^j - j g dt^(j-1)."""
    return _layer_sum({j: p * f for j, p in layers.items()},
                      {j - 1: p.scale(-j) for j, p in layers.items() if j})


def _ref_dt(layers):
    return {j + 1: p for j, p in layers.items()}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6))
def test_graph_module_actions_match_layer_reference(dim, seed):
    # t, dt, (s + shift) and the d_images layers of an element against the
    # same maps on its layers {j: Polynomial}, each layer over its own
    # denominator; f and the layers have rational coefficients
    rng = random.Random(seed)
    x1 = Polynomial.monomial((1,) + (0,) * (dim - 1))
    f = (rand_poly(rng, dim) + x1).scale(rng.choice([F(1), F(2, 3), F(-5, 4)]))
    layers = _layer_sum({j: rand_poly(rng, dim).scale(
        F(rng.randint(1, 5), rng.choice([1, 2, 3, 7])))
        for j in rng.sample(range(4), rng.randint(0, 3))})
    u = element(dim, layers)
    assert layers_of(u) == layers
    assert layers_of(u.t(f)) == _ref_t(layers, f)
    assert layers_of(u.dt()) == _ref_dt(layers)
    shift = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 6]))
    assert layers_of(apply_s_shifted(u, f, shift)) == _layer_sum(
        {j: -p for j, p in _ref_dt(_ref_t(layers, f)).items()},
        {j: p.scale(shift) for j, p in layers.items()})
    gammas = list(monomials_upto_degree(dim, 2))
    chain = {gammas[0]: layers}  # grlex: each gamma after gamma - e_i
    for gamma in gammas[1:]:
        i = next(k for k, e in enumerate(gamma) if e)
        prev = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]
        chain[gamma] = _ref_d(chain[prev], i, f)
    for dt in (0, 1, 9):
        assert [(gamma, {j: Polynomial(dim, num, den)
                         for j, num in image.items()})
                for gamma, image, den in u.d_images(gammas, f, dt)] == [
            (gamma, image) for gamma, image in chain.items()
            if image and max(image) <= dt]


# ---------------------------------------------------------------------------
# spans and membership


def test_truncated_span_o_module():
    f = poly_parse("x1", 1)
    B = Bounds(0, 2, 2)
    one = BfElement.from_poly(Polynomial.one(1))
    span = bf_span([one], f, B, ShiftTable(1, B.xdeg))
    xsq = BfElement.from_poly(poly_parse("x1^2", 1))
    assert not span.reduce(one)[0]
    assert not span.reduce(xsq)[0]
    assert len(span.echelon.pivots()) == 3  # {1, x, x^2}


def _monomial(span, code):
    """The exponent vector m of a window span's packed key of x^m; a key
    that is no x-monomial within the span's radix fails."""
    m = span.packing.unpack(code)[0]
    assert span.packing.shift(m) == code
    return m


def _unpacked(span, vec):
    """vec with each packed key of the window span read back as its
    exponent vector."""
    return {_monomial(span, code): v for code, v in vec.items()}


def _layered(packing, code):
    """(layer j, exponent vector m) of the packed key j * top + shift(m),
    or code itself when it is no such key of packing (a coordinate no
    packing produced, such as a nullspace column's row index)."""
    j, rest = divmod(code, packing.top)
    m = packing.unpack(rest)[0]
    return (j, m) if packing.shift(m) == rest else code


def _queue_vectors(span, start=0):
    """The vectors queued in the window span from queue entry start on, as
    (vector with its keys read back as (layer, exponent vector), den,
    tag), the entries settled first: an entry (terms, den, tag, S, top,
    bound) with its settled fresh positions stands for x^beta * terms at
    the positions top + shift(beta) of fresh (all when None), for the betas
    of degree <= bound in grlex order."""
    packing = span.packing
    return [({_layered(packing, m + code): c for m, c in terms.items()}, den,
             tag + (beta,))
            for (terms, den, tag, _, top, bound), fresh
            in zip(span._queue[start:], span._settle()[start:])
            for beta in monomials_upto_degree(packing.dim, bound)
            for code in [packing.shift(beta)]
            if fresh is None or top + code in fresh]


def _queued(span, insert, *args):
    """The vectors insert(span, *args) queues in the window span, as
    _queue_vectors gives them."""
    start = len(span._queue)
    insert(span, *args)
    return _queue_vectors(span, start)


@pytest.fixture
def inserted(monkeypatch):
    """Every vector put into a span while the test runs, as the Fractions
    its numerators over den stand for: each vector a window span queues,
    its packed keys read back as (layer, exponent vector), and each vector
    inserted into any other Echelon, its keys read back as (layer, exponent
    vector) through the KeyPacking that last packed layers, by pack_terms
    or by a window span's _packed (kept as they are before any did).  A
    window span's echelon inserts only vectors it queued."""
    out = []
    packing = [None]  # the KeyPacking that last packed layers
    building = [False]  # whether a window span is building its echelon
    insert = Echelon.insert
    span_insert, span_echelon = WindowSpan.insert, WindowSpan.echelon

    pack_terms, span_packed = KeyPacking.pack_terms, WindowSpan._packed

    def packing_noted(self, layers):
        packing[0] = self
        return pack_terms(self, layers)

    def span_packing_noted(self, layers):
        packing[0] = self.packing
        return span_packed(self, layers)

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

    monkeypatch.setattr(KeyPacking, "pack_terms", packing_noted)
    monkeypatch.setattr(WindowSpan, "_packed", span_packing_noted)
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
        element(2, {j: rand_poly(rng, 2, 4) for j in range(3)})
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

    check(lambda: bf_span(gens, f, B, ShiftTable(2, B.xdeg)),
          lambda key: key[0] <= B.dt and sum(key[1]) <= B.xdeg)
    check(lambda: vforacle.presentation_span(pres, f, pres.alpha,
                                             pres.max_pole(),
                                             ShiftTable(2, B.xdeg)),
          lambda key: key[0] == 0 and sum(key[1]) <= B.xdeg)
    for case in crosschecks:
        check(lambda: crosscheck_hodge_weight(*case, B),
              lambda key: key[0] == 0 and sum(key[1]) <= B.xdeg)


def test_membership_window_guard():
    big = BfElement.from_poly(poly_parse("x1^9", 1))
    B = Bounds(1, 3, 2)
    span = bf_span([BfElement.from_poly(Polynomial.one(1))],
                   poly_parse("x1", 1), B, ShiftTable(1, B.xdeg))
    assert span.reduce(big) is None


def test_member_witness_reevaluates():
    # for f = x1, d1 x1 = 1 - x1 dt, so 1 + x1^2 - x1 dt lies in the span
    # of x1 at order 1 through two witness steps
    f = poly_parse("x1", 1)
    gen = BfElement.from_poly(poly_parse("x1", 1))
    B = Bounds(1, 2, 2)
    target = element(1, {0: poly_parse("1 + x1^2", 1),
                         1: poly_parse("-x1", 1)})
    span = bf_span([gen], f, B, ShiftTable(1, B.xdeg))
    assert not span.reduce(target)[0]
    (witness, den), = span.witness([target])
    assert len(witness) == 2
    steps = [{"generator": gi, "dgamma": gamma, "xbeta": beta,
              "coeff": F(c, den)} for (gi, gamma, beta), c in witness.items()]
    assert _reevaluated(steps, [gen], f) == target


def test_witness_answers_only_for_members():
    # x1^4 leaves the (3, 1) window and dt * 1 is not in the span of 1 at
    # order 2: neither has a combination; the in-window members keep theirs
    span = bf_span([BfElement.from_poly(Polynomial.one(2))], XY,
                   Bounds(2, 3, 1), ShiftTable(2, 3))
    outside = BfElement.from_poly(poly_parse("x1^4", 2))
    off = BfElement.from_poly(Polynomial.one(2), 1)
    members = [BfElement.from_poly(poly_parse("x1^2", 2)),
               BfElement.from_poly(poly_parse("x2", 2), 1), BfElement.zero(2)]
    assert span.reduce(outside) is None
    assert span.reduce(off)[0]
    assert [w and _int_pair(*w) for w in span.witness(
        [members[0], outside, members[1], off, members[2]])] == [
        {(0, (0, 0), (2, 0)): 1}, None, {(0, (1, 0), (0, 0)): -1}, None, {}]


def test_graph_module_span_window_edges():
    f = poly_parse("x1^2", 1)
    B = Bounds(1, 3, 1)

    def x(e):
        return poly_parse(f"x1^{e}", 1)

    gens = [BfElement.from_poly(x(3)),
            BfElement.from_poly(Polynomial.one(1), 1)]
    span = bf_span(gens, f, B, ShiftTable(f.dim, B.xdeg))
    # deg == xdeg at layer dt gets a verdict; one step past either edge
    # gets None
    assert span.reduce(BfElement.from_poly(x(B.xdeg), B.dt)) is not None
    assert span.reduce(BfElement.from_poly(x(B.xdeg + 1), B.dt)) is None
    assert span.reduce(BfElement.from_poly(x(B.xdeg), B.dt + 1)) is None
    # d1 x1^3 = 3 x1^2 - 2 x1^4 dt leaves the x-degree window and
    # d1 dt = -2 x1 dt^2 the dt window: the span skips both images and
    # holds only the shifts of x1^3 (one) and of dt (x1^0..x1^3), and
    # reduce answers None for the skipped images
    queued = len(_queue_vectors(span))
    assert span.n_vectors == queued == 1 + 4
    assert all(span.reduce(graph_d(gen, 0, f)) is None for gen in gens)
    # the span keys an element with its own packing: dt^3 is no multiple
    # of x1, whatever window a caller has in mind
    x1 = poly_parse("x1", 1)
    span = bf_span([BfElement.from_poly(x1)], x1, Bounds(0, 8, 3),
                   ShiftTable(1, 8))
    residual, _, _ = span.reduce(BfElement.from_poly(Polynomial.one(1), 3))
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
            layers = layers_of(u)
            if not layers or _outside(layers, bounds):
                continue
            deg = max(p.total_degree() for p in layers.values())
            terms, den = integer_pair({(j, m): c
                                       for j, p in layers.items()
                                       for m, c in fraction_terms(p).items()})
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
    gens = [BfElement.from_poly(Polynomial.monomial(x1)
                                + rand_poly(rng, dim, 0))]
    gens += [element(dim, {j: rand_poly(rng, dim, 2) for j in range(2)})
             for _ in range(rng.randint(0, 2))]
    multiples = seed % 2 == 0
    if multiples:
        # a scaled copy and an x-multiple share directions with gens[0]
        gens += [gens[0].scale(F(-3, 2)),
                 element(dim, {j: shifted(p, x1, 2)
                               for j, p in layers_of(gens[0]).items()})]
    span = bf_span(gens, f, B, ShiftTable(f.dim, B.xdeg))
    every = list(_every_graph_vector(gens, f, B))
    ref = Echelon()
    for vec, den, tag in every:
        ref.insert(vec, den, {tag: den})
    assert len(span.echelon.pivots()) == len(ref.pivots())
    assert span.n_vectors == len(every)
    if multiples:
        assert len(_queue_vectors(span)) < span.n_vectors
    for _ in range(6):
        picked = rng.sample(every, min(len(every), rng.randint(1, 4)))
        member = {}
        for vec, den, _ in picked:
            k = F(rng.choice([-2, -1, 1, 3]), den)
            for key, c in vec.items():
                member[key] = member.get(key, 0) + k * c
        member = {key: c for key, c in member.items() if c}
        u = element(dim, _as_layers(dim, member))
        residual, carried, den = ref.reduce(*integer_pair(member))
        assert not residual
        assert not span.reduce(u)[0]
        assert [_int_pair(*w) for w in span.witness([u])] == [
            _fractions(carried, den)]
        # an element off the family: the same residual verdict
        other = element(dim, {rng.randint(0, B.dt):
                              rand_poly(rng, dim, B.xdeg)})
        residual, _, _ = ref.reduce(*integer_pair(
            {(j, m): c for j, p in layers_of(other).items()
             for m, c in fraction_terms(p).items()}))
        assert bool(span.reduce(other)[0]) == bool(residual)
        # one step past either edge of the window: None
        for layers in ({B.dt + 1: Polynomial.one(dim)},
                       {0: Polynomial.monomial(
                           tuple(e * (B.xdeg + 1) for e in x1))}):
            assert _outside(layers, B)
            assert span.reduce(element(dim, layers)) is None


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
    ("2*x1*x2", 2, {F(-1): 2}, 3, 4),  # F not primitive
    ("1/2*x1^2+1/3*x2^3", 2,  # df = 6
     {F(-1): 1, F(-5, 6): 1, F(-7, 6): 1}, 3, 3),
])
def test_verify_bfunction_columns_match_apply_to_twisted(
        inserted, poly, dim, b, order, xdeg):
    # the columns built from one image per d-part equal every kept graded
    # basis operator applied to f^(s+1) on its own by the Fraction reference
    # walk, over the pole of the largest kept d-part; the dim columns of
    # homogeneity_grading's nullspace come first
    f = poly_parse(poly, dim)
    bf = BFunction(b)
    verify_bfunction(f, bf, order, xdeg)
    columns = inserted[dim:]
    if len(f.nums) == 1:  # a monomial has no exponent differences
        assert inserted[:dim] == [{}] * dim
    sec0 = TwistedSection.power(dim, 1)
    keys = bfunction_keys(f, order, xdeg, bf.degree())[1]
    pole_target = max([sum(g) for _, g, _ in keys] + [1])
    want = [_section_vector(
                apply_section(WeylOperator(dim, {key: 1}), f, sec0), f,
                pole_target)
            for key in keys]
    assert columns == want


def bfunction_keys(f, order, xdeg, s_bound):
    """(the graded basis keys of f at the window, the keys verify_bfunction
    keeps of them), both in basis order."""
    grading = homogeneity_grading(f.dim, [f.nums])
    return (graded_operator_basis(f.dim, grading, order, xdeg, s_bound),
            bfunction_operator_basis(f, order, xdeg, s_bound))


def _section_vector(sec, f, pole_target):
    """{(s-power, monomial): coefficient} of sec written over the pole
    pole_target: the tuple-keyed reference for verify_bfunction's packed
    columns."""
    mult = f ** (pole_target - sec.pole)
    return {(j, m): c for j, p in sec.coeffs.items()
            for m, c in fraction_terms(p * mult).items()}


def full_basis_certificate(f, b, order, xdeg, keys=None):
    """The JSON of verify_bfunction's certificate, solved as before the
    restriction to one weighted degree and the key rules: every column of
    keys (by default every bounded_operator_basis key) inserted into one
    Echelon, in basis order."""
    bounds = {"order": order, "xdeg": xdeg}
    not_found = {"verdict": "not-found-at-bound", "bounds": bounds,
                 "detail": "no operator at these bounds satisfies the "
                           "functional equation"}
    if b.degree() > order:
        return not_found
    if keys is None:
        keys = bounded_operator_basis(f.dim, order, xdeg, b.degree())
    sec0 = TwistedSection.power(f.dim, 1)
    sections = [apply_section(WeylOperator(f.dim, {key: 1}), f, sec0)
                for key in keys]
    pole_target = max([sec.pole for sec in sections] + [1])
    ech = Echelon()
    for idx, sec in enumerate(sections):
        vec, den = integer_pair(_section_vector(sec, f, pole_target))
        ech.insert(vec, den, {idx: den})

    def residual(roots):
        rhs = roots_section(f.dim, roots)
        return ech.reduce(*integer_pair(
            _section_vector(rhs, f, pole_target)))

    res, carried, den = residual(b)
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
    operator = WeylOperator(f.dim, {keys[i]: F(c, den)
                                    for i, c in carried.items()})
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
    assert operator.nums
    for xe, de, _ in operator.nums:
        for w, (deg,) in homogeneity_grading(f.dim, [f.nums]):
            assert sum(wi * (bi - gi)
                       for wi, bi, gi in zip(w, xe, de)) == -deg


# (f, dim, b, order, xdeg): monomial, quasi-homogeneous (one line or a plane
# of weights) and generic f, at windows where the key rules drop columns
PRUNED_BFUN_CASES = [
    ("x1*x2", 2, "(s+1)^2", 4, 3),
    ("x1^2*x2", 2, "(s+1)^2*(s+1/2)", 5, 3),
    ("x1*x2*x3", 3, "(s+1)^3", 4, 2),
    ("x1^2+x2^3", 2, "(s+1)*(s+5/6)", 6, 12),
    ("x1^2+x2^3", 2, "(s+1)*(s+5/6)*(s+7/6)", 4, 8),
    ("x1^2*x2+x1*x2^2", 2, "(s+1)^2*(s+4/3)*(s+2/3)", 4, 6),
    ("x1*x2+x3^2", 3, "(s+1)^2", 3, 3),
    ("x1^2+x2^3+x1*x2", 2, "(s+1)^2", 3, 3),
    ("x1^2+x2^2+x3^3+x1*x2*x3", 3, "(s+1)^2", 2, 2),
]


def check_pruned_solve(f, bf, order, xdeg):
    """Assert that each graded key verify_bfunction drops has a column that
    reduces to zero against the kept columns before it, and that the solve
    gives the certificate of every graded column; return the numbers of
    graded and kept keys."""
    keys, kept = bfunction_keys(f, order, xdeg, bf.degree())
    sec0 = TwistedSection.power(f.dim, 1)
    sections = [apply_section(WeylOperator(f.dim, {key: 1}), f, sec0)
                for key in keys]
    pole_target = max([sec.pole for sec in sections] + [1])
    earlier, kept_set = Echelon(), set(kept)
    for key, sec in zip(keys, sections):
        vec, den = integer_pair(_section_vector(sec, f, pole_target))
        if key in kept_set:
            earlier.insert(vec, den)
        else:
            assert not earlier.reduce(vec, den)[0], key
    assert verify_bfunction(f, bf, order, xdeg).to_json() == \
        full_basis_certificate(f, bf, order, xdeg, keys)
    return len(keys), len(kept)


@pytest.mark.parametrize("case", PRUNED_BFUN_CASES)
@settings(derandomize=True, max_examples=3, deadline=None)
@given(data=st.data())
def test_dropped_bfunction_columns_depend_on_earlier_ones(case, data):
    # the Euler and Hamiltonian rules drop only columns that the kept
    # columns before them span, so the solve keeps the rows, witness and
    # divisor verdicts of the unpruned graded one; f's terms are scaled by
    # rationals, which moves every column but no rule
    poly, dim, b, order, xdeg = case
    f = Polynomial(dim, {m: c * F(data.draw(st.sampled_from([1, -1, 2, 3])),
                                  data.draw(st.integers(1, 6)))
                         for m, c in fraction_terms(poly_parse(poly,
                                                               dim)).items()})
    graded, kept = check_pruned_solve(f, BFunction.parse(b), order, xdeg)
    assert kept < graded


def test_bfunction_keys_dropped_by_each_rule():
    # the cusp's Euler field 3 x1 d1 + 2 x2 d2 drops x^b d^g s^j with
    # b_1, g_1 >= 1 and j < deg b; its Hamiltonian 3 x2^2 d1 - 2 x1 d2, led
    # by x2^2 d1, drops b_2 >= 2, g_1 >= 1; the basis keys at (6, 12) go
    # 62 -> 33 -> 20.  A generic f has only Hamiltonians, a monomial in one
    # variable only the Euler rule
    keys, kept = bfunction_keys(poly_parse("x1^2+x2^3", 2), 6, 12, 2)
    euler = [k for k in keys if not (k[2] < 2 and k[0][0] and k[1][0])]
    both = [k for k in euler if not (k[0][1] >= 2 and k[1][0])]
    assert (len(keys), len(euler), len(both)) == (62, 33, 20)
    assert kept == both
    keys, kept = bfunction_keys(poly_parse("x1^2+x2^3+x1*x2", 2), 3, 3, 1)
    assert kept == [k for k in keys
                    if not (k[0][1] >= 2 and k[1][0])]  # led by 3 x2^2 d1
    keys, kept = bfunction_keys(poly_parse("x1^3", 1), 4, 3, 3)
    assert kept == [k for k in keys
                    if not (k[2] < 3 and k[0][0] and k[1][0])]


def test_a_rule_led_by_the_smallest_term_fails_the_check(monkeypatch):
    # x1 d2, the smallest term of the cusp's Hamiltonian, as its lead: then
    # the other term x2^2 d1 comes later, and some dropped column is not
    # spanned by the ones before it
    def reversed_key(key):
        return tuple(-e for e in (sum(key[0]) + sum(key[1]) + key[2],
                                  *key[0], *key[1], key[2]))

    monkeypatch.setattr(weyl, "grlex_operator_key", reversed_key)
    with pytest.raises(AssertionError):
        check_pruned_solve(poly_parse("x1^2+x2^3", 2),
                           BFunction.parse("(s+1)*(s+5/6)"), 6, 12)


def fraction_bfunction_system(f, bf, order, xdeg):
    """verify_bfunction's linear system built in Fraction polynomials:
    d-part images by apply_d for the d-parts of the kept keys, pole_target
    the largest of their poles, each column and right-hand side times
    f ** (pole_target - pole) and packed by packed_layers.  Returns
    (pole_target, packing, the (vec, den) inserts in basis order, the
    right-hand side (vec, den) of a RootMultiset)."""
    dim = f.dim
    keys = bfunction_keys(f, order, xdeg, bf.degree())[1]
    d_parts = {g for _, g, _ in keys}
    images = d_part_images(d_parts, TwistedSection.power(dim, 1),
                           lambda sec, i: sec.apply_d(i, f))
    pole_target = max([images[g].pole for g in d_parts] + [1])

    def layers(sec):
        mult = f ** (pole_target - sec.pole)
        return {j: p * mult for j, p in sec.coeffs.items()}

    def rhs(roots):
        return layers(roots_section(dim, roots))

    columns = {g: layers(images[g]) for g in d_parts}
    largest = max((p.total_degree() for ls in [*columns.values(), rhs(bf)]
                   for p in ls.values()), default=0)
    packing = KeyPacking(dim, 1 + largest + xdeg, xdeg)
    inserts = []
    for xb, g, j in keys:
        vec, den = packed_layers(packing, columns[g])
        shift = j * packing.top + packing.shift(xb)
        inserts.append(({k + shift: c for k, c in vec.items()}, den))
    return (pole_target, packing, inserts,
            lambda roots: packed_layers(packing, rhs(roots)))


# (f, dim, b, order, xdeg, pole_target): pole_target is the largest |g|
# over the d-parts g of the kept keys, whose images are not divided by f;
# x1^2 and x1^2*x2 are not reduced, so their columns carry extra factors of
# F, and the graded d-parts of x1^2 in dimension 1, (2) and (3), skip (1),
# and the Euler rule drops the one key x1 d1^3 of (3), so the pole is 2
BFUN_GERMS = [
    ("x1^2", 1, "(s+1)*(s+1/2)", 3, 3, 2),
    ("x1^2", 2, "(s+1)*(s+1/2)", 2, 2, 2),
    ("x1^2*x2", 2, "(s+1)^2*(s+1/2)", 3, 2, 3),
    ("x1*x2", 2, "(s+1)^2", 2, 3, 2),
    ("x1^2+x2^3", 2, "(s+1)*(s+5/6)*(s+7/6)", 3, 3, 3),
    ("x1^2+x2^3+x1*x2", 2, "(s+1)^2", 2, 2, 2),
]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(BFUN_GERMS), st.sampled_from([1, 2, 6]), st.data())
def test_verify_bfunction_inserts_canonical_pairs(germ, common, data):
    # f's terms scaled by rationals over denominators 1..6 with a common
    # numerator factor, so that F = df * f is often not primitive: every
    # inserted column and every reduced right-hand side stands for the
    # Fraction-built one, over the largest kept |g|
    poly, dim, b, order, xdeg, pole = germ
    f = Polynomial(dim, {m: c * F(common * data.draw(st.sampled_from(
        [1, -1, 2, 3])), data.draw(st.integers(1, 6)))
        for m, c in fraction_terms(poly_parse(poly, dim)).items()})
    bf = BFunction.parse(b)
    pole_target, packing, inserts, rhs = fraction_bfunction_system(
        f, bf, order, xdeg)
    calls = {"insert": [], "reduce": []}

    class Recording(Echelon):
        def insert(self, vec, den, companion=None):
            calls["insert"].append((vec, den))
            return super().insert(vec, den, companion)

        def reduce(self, vec, den):
            calls["reduce"].append((vec, den))
            return super().reduce(vec, den)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(vforacle, "Echelon", Recording)
        cert = verify_bfunction(f, bf, order, xdeg)

    def rationals(pairs):
        return [_int_pair(vec, den) for vec, den in pairs]

    assert rationals(calls["insert"]) == rationals(inserts)
    divisors = [RootMultiset({q: k - (q == r) for q, k in bf.roots.items()})
                for r in bf.sorted_roots()] if cert.is_member() else []
    assert rationals(calls["reduce"]) == rationals(
        [rhs(bf)] + [rhs(div) for div in divisors])
    # b(s) f^s is b(s) F^(pole_target - 1) over the pole pole_target
    assert pole_target == pole
    assert max(sum(_layered(packing, k)[1]) for k in calls["reduce"][0][0]) \
        == f.total_degree() * (pole_target - 1)


def test_verify_bfunction_applies_d_only_to_reevaluate(monkeypatch):
    # the columns are built in integer form: apply_to_twisted runs only in
    # the witness re-evaluation, once per member solve, on the witness
    calls = []
    kernel = weyl.apply_to_twisted

    def counted(a, f, shift):
        calls.append((str(a), shift))
        return kernel(a, f, shift)

    monkeypatch.setattr(weyl, "apply_to_twisted", counted)
    monkeypatch.setattr(vforacle, "apply_to_twisted", counted)
    # and every column comes from one pole_apply call per solve, at the
    # twist -1 - s that puts f^(s+1) at the pole 0
    applies = []
    real_apply = vforacle.pole_apply

    def applied(gammas, start, pole, alpha, f):
        applies.append((start, pole, alpha))
        return real_apply(gammas, start, pole, alpha, f)

    monkeypatch.setattr(vforacle, "pole_apply", applied)
    f, b = poly_parse("x1^2+x2^3", 2), BFunction.parse("(s+1)*(s+5/6)*(s+7/6)")
    cert = verify_bfunction(f, b, 3, 3)
    assert cert.is_member()
    assert calls == [(cert.witness["operator"], 1)]
    assert applies == [(({0: {(0, 0): 1}}, 1), 0, (-1, -1))]
    calls.clear()
    applies.clear()
    # no witness, nothing to re-evaluate
    smaller = BFunction.parse("(s+1)*(s+5/6)")
    assert not verify_bfunction(f, smaller, 3, 6).is_member()
    assert not calls
    assert len(applies) == 1


# (f, dim, the b-function of f, a wrong b): monomial, non-reduced,
# non-primitive and rational germs, among them the non-reduced, non-monomial
# (x1+x2)^2 and (x1+x2)^3; a wrong b is a proper divisor of the right one,
# another b, or a multiple of the right one (member, but not minimal)
PINNED_BFUN_GERMS = [
    ("x1^2", 1, "(s+1)*(s+1/2)", "(s+1)"),
    ("x1^2", 2, "(s+1)*(s+1/2)", "(s+1/2)"),
    ("x1*x2", 2, "(s+1)^2", "(s+1)^3"),
    ("2*x1*x2", 2, "(s+1)^2", "(s+1)*(s+1/2)"),
    ("x1^2*x2", 2, "(s+1)^2*(s+1/2)", "(s+1)*(s+1/2)"),
    ("x1^2*x2^3", 2, "(s+1)^2*(s+1/2)*(s+1/3)*(s+2/3)",
     "(s+1)*(s+1/2)*(s+1/3)*(s+2/3)"),
    ("x1^3", 1, "(s+1)*(s+1/3)*(s+2/3)", "(s+1)*(s+2/3)"),
    ("x1^2+2*x1*x2+x2^2", 2, "(s+1)*(s+1/2)", "(s+1)"),
    ("x1^3+3*x1^2*x2+3*x1*x2^2+x2^3", 2, "(s+1)*(s+1/3)*(s+2/3)",
     "(s+1)*(s+1/3)"),
    ("x1", 2, "(s+1)", "(s+1)*(s+2)"),
    ("1/2*x1^2+1/3*x2^3", 2, "(s+1)*(s+5/6)*(s+7/6)", "(s+1)*(s+5/6)"),
]
PINNED_BFUN_WINDOWS = [(k, k) for k in range(6)] + [(2, 5), (5, 2)]
BFUN_GRID_SHA = (
    "96442e75af4793103130e0adbb8c3aff498c101c43989530fd032f7f5af74c37")


def test_verify_bfunction_certificates_pinned():
    # the certificates do not depend on the common pole the columns are
    # cleared to: this SHA was taken with every image divided by f as far
    # as it goes; 176 certificates, 65 members, 10 of them not minimal
    certs = [verify_bfunction(poly_parse(poly, dim), BFunction.parse(b),
                              order, xdeg).to_json()
             for poly, dim, right, wrong in PINNED_BFUN_GERMS
             for b in (right, wrong)
             for order, xdeg in PINNED_BFUN_WINDOWS]
    assert sum(c["verdict"] == "member" for c in certs) == 65
    assert sum(c.get("witness", {}).get("minimal_at_bound", False)
               for c in certs) == 55
    blob = json.dumps(certs, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == BFUN_GRID_SHA


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
        images = vforacle.pole_apply(gammas, ({0: g.nums}, g.den), pole,
                                     (alpha, 0), f)
        assert set(images) == set(gammas)
        for gamma in gammas:
            layers, den, p = images[gamma]
            assert set(layers) <= {0}, gamma  # no s-layer without alpha1
            assert poly_parts({p: layers.get(0, {})}, den, dim) == [
                d_gamma_on_pole(gamma, g, pole, alpha, f)], gamma

        gen = element(dim, {0: rand_poly(rng, dim), 1: rand_poly(rng, dim)})
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
                == [(gamma, layers_of(u)) for gamma, u in chain.items()
                    if u.nums and u.max_layer() <= dt]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2),
       st.sampled_from([F(0), F(1, 2), F(-5, 6), F(2)]),
       st.sampled_from([F(-1), F(1), F(1, 2), F(-2, 3), F(3)]),
       st.integers(2, 3), st.integers(0, 10 ** 6))
def test_s_twisted_pole_apply_matches_apply_d_chains(dim, pole, alpha0,
                                                     alpha1, n_layers, seed):
    # d^gamma of sum_j s^j N_j f^(-pole-alpha0-alpha1 s) against chains of
    # TwistedSection.apply_d: with s = -s'/alpha1 the section is
    # sum_j s'^j N_j (-alpha1)^(-j) f^(s'-pole-alpha0), a section of the
    # reference whose offset e = shift - pole is rational; f is scaled by
    # 2/3 so that df is not 1, and x1^(j+2) keeps start layer j nonzero
    rng = random.Random(seed)
    x1 = Polynomial.monomial((1,) + (0,) * (dim - 1))
    f = (rand_poly(rng, dim) + x1).scale(F(2, 3))
    assert f.den != 1
    start = {j: rand_poly(rng, dim) + x1 ** (j + 2) for j in range(n_layers)}
    flat, den = integer_pair({(j, m): c for j, p in start.items()
                              for m, c in fraction_terms(p).items()})
    layers = {j: {m: c for (i, m), c in flat.items() if i == j}
              for j in start}
    gammas = list(monomials_upto_degree(dim, 3))
    images = vforacle.pole_apply(gammas, (layers, den), pole,
                                 (alpha0, alpha1), f)
    assert set(images) == set(gammas)
    chain = {gammas[0]: TwistedSection(
        dim, -pole - alpha0, 0,
        {j: p.scale((-alpha1) ** -j) for j, p in start.items()})}
    for gamma in gammas[1:]:  # grlex: each gamma after gamma - e_i
        i = next(k for k, e in enumerate(gamma) if e)
        prev = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]
        chain[gamma] = chain[prev].apply_d(i, f)
    for gamma in gammas:
        got, den, p = images[gamma]
        assert p == pole + chain[gamma].pole == pole + sum(gamma)
        assert {j: poly for poly, j in poly_parts(got, den, dim)} == {
            j: q.scale((-alpha1) ** j)
            for j, q in chain[gamma].coeffs.items()}, gamma


def test_candidate_v_snc_exponents():
    # ceil(1*1) - 1 = 0 per coordinate: the level-1 generator is 1 itself
    gens = candidate_v_snc((1, 1), 1, 0)
    assert layers_of(gens[0]) == {0: Polynomial.one(2)}
    # just above level 1 the generator jumps to x1*x2
    eps_gens = candidate_v_snc((1, 1), F(11, 10), 0)
    assert layers_of(eps_gens[0]) == {0: XY}
    gens2 = candidate_v_snc((2, 3), F(1, 2), 1)
    assert layers_of(gens2[0]) == {0: poly_parse("x2", 2)}
    assert layers_of(gens2[1]) == {1: poly_parse("x1^2*x2^4", 2)}


def test_v_axioms_snc():
    fam = SncVFamily(SncDivisor((1, 1)), 4)
    rep = verify_v_axioms(fam, [F(1, 2), 1, F(3, 2)], Bounds(3, 8, 5))
    assert rep["all_member"]
    assert any(c["verdict"] == "member" for c in rep["checks"])


def test_v_axioms_whom():
    fam = WhomVFamily(cusp_germ(), 3)
    rep = verify_v_axioms(fam, [F(5, 6), 1, F(7, 6)], Bounds(3, 10, 5))
    assert rep["all_member"]


def test_v_axioms_negative_control():
    class Corrupt(SncVFamily):
        def gens(self, lam):
            gs = super().gens(lam)
            return gs[1:] if F(lam) == F(3, 2) else gs

    rep = verify_v_axioms(Corrupt(SncDivisor((1, 1)), 4), [F(1, 2)],
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
    total = BfElement.zero(f.dim)
    for step in witness:
        u = gens[step["generator"]]
        for i, e in enumerate(step["dgamma"]):
            for _ in range(e):
                u = graph_d(u, i, f)
        beta = tuple(step["xbeta"])
        u = element(f.dim, {j: shifted(p, beta)
                            for j, p in layers_of(u).items()})
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
            out.append((cert.to_json(), verify_v_axioms(fam, grid, bounds)))
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


def test_psi_map_matches_its_q_poch_form():
    # the integer running product over (a + i*q), times q^(top-j), is the
    # numerator of Q_j(beta) * q^top: same parts, in the same order, and
    # the same den, for beta of either sign and integer beta <= 0, where
    # every layer from -beta + 1 on vanishes
    rng = random.Random(38)
    for _ in range(300):
        layers = {j: {(rng.randint(0, 3), rng.randint(0, 3)):
                      rng.choice([-3, -1, 1, 2, 5])}
                  for j in rng.sample(range(7), rng.randint(0, 4))}
        beta = F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
        den = rng.randint(1, 12)
        scale = beta.denominator ** max(layers, default=0)
        factors = {j: (q_poch(j, beta) * scale).numerator
                   for j in sorted(layers)}
        expected = {j: {m: v * c for m, v in layers[j].items()}
                    for j, c in factors.items() if c}
        parts, out_den = psi_map(layers, den, beta)
        assert (parts, out_den) == (expected, den * scale), (layers, beta)
        assert list(parts) == list(expected)


def test_phi_shift():
    g = poly_parse("x1", 2)
    u = BfElement.from_poly(XY * g, 1)
    out = layers_of(phi_shift(u, F(1, 2), XY))
    assert set(out) == {0, 1}
    assert out[1] == XY * g
    assert out[0] == g.scale(F(-1, 2))
    # pole clearing failure
    with pytest.raises(PreconditionError):
        phi_shift(BfElement.from_poly(g, 1), F(1, 2), XY)


def test_phi_shift_single_layer_identity():
    g = poly_parse("x1+x2", 2)
    u = BfElement.from_poly(g, 0)
    assert layers_of(phi_shift(u, F(1, 3), XY)) == {0: g}


def test_phi_shift_s_equivariance():
    rng = random.Random(67)
    alpha = F(1, 2)
    for _ in range(20):
        u = element(2, {0: rand_poly(rng) * XY, 1: rand_poly(rng) * XY * XY})
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
    rep = verify_v_axioms(SncVFamily(SncDivisor((1, 1)), 2), [F(1, 2)],
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

    def apply(gammas, start, pole, alpha, f):
        requests.append((poles[-1], pole, list(gammas)))
        assert alpha[1] == 0  # a span's twist carries no s
        return real_apply(gammas, start, pole, alpha, f)

    def add_summand(self, *args):
        poles.append(self.pole_target)
        real_summand(self, *args)

    monkeypatch.setattr(vforacle, "pole_apply", apply)
    monkeypatch.setattr(WindowSpan, "add_summand", add_summand)
    x1, x2 = poly_parse("x1", 2), poly_parse("x2", 2)
    pres = HodgePresentation.build(F(1), 2, [(4, x1, 0), (4, x2, 1)])
    vforacle.presentation_span(pres, XY, F(1), 2, ShiftTable(2, 8))
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
                       Bounds(order, xdeg, order), ShiftTable(dim, xdeg))
        assert sizes == [math.comb(dim + order, dim)]
        assert max(sum(gamma) for _, gamma, _ in span.tags) == order


def test_window_span_add_refuses_a_part_above_its_pole():
    span = WindowSpan(XY, 1, 0, ShiftTable(2, 4))
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


def _int_pair(vec, den):
    """_fractions of a pair of int numerators over a positive int den."""
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in vec.values())
    return _fractions(vec, den)


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
    so that containment both holds and fails.  Each tag ends in the zero
    beta, that of the one shift _raw_span gives the vector."""
    out = []
    for i in range(rng.randint(0, 6)):
        p = Polynomial.zero(2)
        if base and rng.random() < 0.7:
            for q, den, _ in rng.sample(base, rng.randint(1, len(base))):
                p = p + Polynomial(2, _fractions(q, den)).scale(
                    rng.randint(-2, 2))
        if p.is_zero():
            p = _sparse_poly(rng, xdeg)
        out.append((p.nums, p.den, (label, i, (0, 0))))
    return out


def _raw_span(family):
    """A window span holding the tagged vectors of family, each inserted
    as it is (shift bound 0: the one beta is the zero vector, which ends
    its tag); a multiple of an earlier vector is skipped."""
    span = WindowSpan(XY, 0, 0, ShiftTable(2, 3))
    for vec, den, tag in family:
        span.insert({span.packing.shift(m): c for m, c in vec.items()},
                    den, tag[:-1], 0)
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


def test_mutual_containment_keeps_expect_nonempty():
    # a direction settled by the record still reports an empty family as
    # inconclusive
    empty = _raw_span([])
    assert (_cross_containment("a-in-b", empty, empty, False),
            _cross_containment("b-in-a", empty, empty, True)) == (
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


CLEARED_FS = (XY, poly_parse("x1^2+x2^3", 2), poly_parse("x2^2 - 1/2", 2))


@pytest.mark.parametrize("poles,pole", [
    ([], 0), ([], 3),                # no parts
    ([1, 1, 1], 1), ([2, 0, 2], 2),  # repeated poles
    ([0, 3], 3), ([4, 1], 4),        # gaps between poles
    ([0, 1], 4), ([2], 5),           # the pole above every part
    ([0], 4),                        # a lone part at pole 0
])
def test_clear_to_pole_matches_powers(poles, pole):
    rng = random.Random(10 * len(poles) + pole)
    for f in CLEARED_FS:
        parts = [(rand_poly(rng).scale(F(1, rng.randint(1, 6))), p)
                 for p in poles]
        # zero numerators, one of them above the pole, are skipped; a part
        # and its negative at one pole cancel
        parts += [(Polynomial.zero(2), pole), (Polynomial.zero(2), pole + 1)]
        if poles:
            g = rand_poly(rng) + XY
            parts += [(g, poles[0]), (-g, poles[0])]
        num, den = vforacle.clear_to_pole(*int_parts(parts),
                                          vforacle.PowerTable(f), pole)
        assert poly_parts({pole: num}, den, 2) == [
            (cleared_by_powers(parts, f, pole), pole)], (poles, pole, str(f))
    with pytest.raises(ValueError):
        vforacle.clear_to_pole(*int_parts([(XY, pole + 1)]),
                               vforacle.PowerTable(XY), pole)


def test_one_power_table_serves_rising_and_falling_poles():
    """One table clears calls whose poles rise and then fall, each with a
    part at pole 0 cleared to the call's pole, and holds F^k up to the
    largest pole asked for (F^0 and F^1 from the start), no further."""
    rng = random.Random(3)
    for f in CLEARED_FS:
        powers = vforacle.PowerTable(f)
        big_f = f.scale(f.den)
        reached = 0
        for pole in (0, 1, 3, 6, 5, 2, 0, 4, 6):
            for lone in (True, False):
                parts = [(rand_poly(rng) + XY, 0)]
                if not lone:
                    parts += [(rand_poly(rng).scale(F(1, rng.randint(1, 6))),
                               rng.randint(0, pole)) for _ in range(2)]
                num, den = vforacle.clear_to_pole(*int_parts(parts), powers,
                                                  pole)
                assert poly_parts({pole: num}, den, 2) == [
                    (cleared_by_powers(parts, f, pole), pole)], (pole, str(f))
            reached = max(reached, pole, 1)
            assert len(powers._powers) == reached + 1
        assert [Polynomial(2, powers[k]) for k in range(reached + 1)] == [
            big_f ** k for k in range(reached + 1)]


def every_window_vector(parts, f, pole_target, xdeg, tag):
    """The window vectors of one element with none skipped: every shift of
    its cleared numerator, the reference a window family must match."""
    if any(p > pole_target for _, p in parts):
        return
    num = cleared_by_powers(parts, f, pole_target)
    if num.is_zero() or num.total_degree() > xdeg:
        return
    terms, den = num.nums, num.den
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
            shifted(poly_parse(base, dim), shift, c), pole)],
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
    span = cls(f, 1, 0, ShiftTable(f.dim, xdeg))
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
    assert len(span.echelon.pivots()) == len(full.pivots())
    assert {_monomial(span, code)
            for code in span.echelon.pivots()} == full.pivots()
    assert [(_unpacked(span, row), p)
            for row, p in span.echelon.basis()] == full.basis()
    assert span.n_vectors == len(every)
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
    """The (direction, position) pairs of a window span's record: each
    simplex (top, bound) of a direction expanded to its positions top +
    shift(beta), |beta| <= bound."""
    packing = span.packing
    return {(shape, top + packing.shift(beta))
            for shape, simplices in span._record.items()
            for top, bound in simplices
            for beta in monomials_upto_degree(packing.dim, bound)}


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
        return [(shifted(base, rng.choice(SHIFTS[2]), c),
                 1 if inside else rng.randint(0, 1))]

    a = [element(near, case == "shifted") for _ in range(rng.randint(1, 4))]
    if case == "equal":
        b = [[(num.scale(rng.choice([F(-1), F(5, 2)])), pole)]
             for [(num, pole)] in rng.sample(a, len(a))]
    elif case == "subset":
        a, b = a + [element(far, True)], a
    elif case == "shifted":
        b = [[(shifted(num, (1, 0)), pole)] for [(num, pole)] in a]
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
                # both directions over one pair of spans
                inserts.clear()
                spans = [_window_span(elements, f, xdeg)
                         for _, elements, _ in (first, second)]
                out.append(tuple(
                    _cross_containment(name, source, target, ne)
                    for (name, _, ne), source, target
                    in zip((first, second), spans, spans[::-1])))
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


def test_equal_spans_neither_record_holds_are_reduced_both_ways():
    # {x1 + x2, x1 - x2} and {x1, x2} span the same window, with equal
    # ranks, but neither record holds the other's: each direction reduces
    # its source rows
    p1, p2 = (HodgePresentation.build(F(1), 2, [
        (0, poly_parse(g, 2), 0) for g in gens])
        for gens in (["x1+x2", "x1-x2"], ["x1", "x2"]))
    span1, span2 = _common_pole_spans(p1, p2, XY, 4)
    assert not span1.within(span2) and not span2.within(span1)
    assert len(span1.echelon.pivots()) == len(span2.echelon.pivots()) == 14
    assert presentations_equal(p1, p2, XY, Bounds(2, 4, 0)).to_json() == {
        "bounds": {"order": 2, "xdeg": 4, "dt": 0}, "verdict": "member",
        "witness": [{"direction": "first-in-second", "vectors": 20},
                    {"direction": "second-in-first", "vectors": 20}]}


@st.composite
def record_pairs(draw):
    """(source, target) window spans with dt 1 on one table, in dimension 2
    or 3: the target's elements c * x^a * base at layer 0 or 1, and the
    source's drawn from them (rescaled, moved by a further x^e, which keeps
    the direction and moves the simplex inside the other's, moved to
    another x^a', or to the other layer) and from bases of their own, so
    that the records are equal, shifted, partly overlapping or apart.
    add_layers skips an element that leaves the window."""
    dim, xdeg = draw(st.sampled_from([2, 3])), draw(st.integers(2, 5))
    coeffs = st.sampled_from([F(1), F(-1), F(2), F(-3, 2), F(1, 3)])
    drawn = st.tuples(st.integers(0, len(BASES[dim]) - 1),
                      st.sampled_from(SHIFTS[dim]), st.integers(0, 1), coeffs)
    target = draw(st.lists(drawn, max_size=5))

    def moved(element, how, shift, c):
        base, a, layer, _ = element
        return {"scale": (base, a, layer, c),
                "further": (base, mono_mul(a, shift), layer, c),
                "sibling": (base, shift, layer, c),
                "layer": (base, a, 1 - layer, c)}[how]

    move = st.builds(moved, st.sampled_from(target), st.sampled_from(
        ["scale", "further", "sibling", "layer"]),
        st.sampled_from(SHIFTS[dim]), coeffs) if target else drawn
    source = draw(st.lists(st.one_of(move, drawn), max_size=5))
    table = ShiftTable(dim, xdeg)
    spans = []
    for elements in (source, target):
        span = WindowSpan(poly_parse("x1", dim), 0, 1, table)
        for i, (base, a, layer, c) in enumerate(elements):
            p = shifted(poly_parse(BASES[dim][base], dim), a, c)
            span.add_layers({layer: p.nums}, p.den, (i,))
        spans.append(span)
    return tuple(spans)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(record_pairs())
def test_within_is_the_subset_test_on_positions(spans):
    # the digit test on simplices answers what the subset test on the
    # (direction, position) pairs of the expanded records answers, both ways
    source, target = spans
    assert source.within(target) == (_record(source) <= _record(target))
    assert target.within(source) == (_record(target) <= _record(source))


def _reference_reduce(pres, f, xdeg):
    """The kept summands of the greedy minimalization over a plain
    Echelon that takes every window vector of each kept summand."""
    pole_target = max((j for _, _, j in pres.summands), default=0)
    span, kept = Echelon(), []
    for budget, g, j in sorted(pres.summands, key=lambda t: (
            t[2], t[1].total_degree(), grlex_key(t[1].leading_monomial()))):
        vec = g * f ** (pole_target - j)
        if (vec.total_degree() <= xdeg and kept
                and not span.reduce(vec.nums, vec.den)[0]):
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
            budget, shifted(poly_parse(base, 2), shift, c), pole),
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
    """Every queued (terms, den) of the span, integer numerators over a
    positive int den, stands for vector_of(tag), its vector built in
    Fraction polynomials, at the span's packed keys."""
    for terms, den, tag, *_ in span._queue:
        vec = vector_of(tag)
        assert _int_pair(terms, den) == {
            span.packing.shift(m): c
            for m, c in fraction_terms(vec).items()}, tag


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
            budget, shifted(poly_parse(base, dim), shift, c), j),
        st.integers(0, 2), st.sampled_from(BASES[dim]),
        st.sampled_from(SHIFTS[dim]),
        st.sampled_from([F(1), F(-2), F(1, 3), F(-5, 4)]), st.integers(0, 2))
    summands = [(0, Polynomial.one(dim), 2)] + data.draw(
        st.lists(summand, min_size=1, max_size=3))
    span = WindowSpan(f, 2, 0, ShiftTable(f.dim, 6))
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
        for j, p in layers_of(u).items():
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


def _every_vector_adder(f):
    """WindowSpan.add for spans over f with no window vector skipped: each
    vector of every_window_vector inserted as it is (shift bound 0), its
    tag t + (beta,) followed by the zero beta."""
    def add(span, parts, den, tag):
        for vec, den, t in every_window_vector(
                poly_parts(parts, den, f.dim), f, span.pole_target,
                span.xdeg, tag):
            span.insert({span.packing.shift(m): c for m, c in vec.items()},
                        den, t, 0)
    return add


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
    span = WindowSpan(poly_parse("x1", dim), 0, 0, ShiftTable(dim, xdeg))
    assert span.packing.radix == xdeg + 1

    def pack(m):
        return span.packing.shift(m)

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
        m.setattr(WindowSpan, "add",
                  _every_vector_adder(SncDivisor((1, 1, 1)).polynomial()))
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
    assert layers_of(elt) == {0: Polynomial.one(2)} and budget == 0
    gens1 = candidate_v_whom(g, 1, 0)
    polys = sorted(str(p) for e, _ in gens1 for p in layers_of(e).values())
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


# ---------------------------------------------------------------------------
# the shift table of a job


@pytest.mark.parametrize("dim, xdeg", [(1, 0), (1, 3), (2, 2), (2, 5),
                                       (3, 1), (3, 3)])
def test_shift_table_serves_bounds_in_any_order(dim, xdeg):
    # codes and tuples asked in interleaved random order, twice each, bounds
    # above xdeg and below 0 included: every set is the grlex enumeration up
    # to its bound, each code the packed key of its vector's x-monomial;
    # above xdeg, where codes alias, tuples are served and codes refused
    rng = random.Random(1200 + 10 * dim + xdeg)
    table = ShiftTable(dim, xdeg)
    packing = KeyPacking(dim, xdeg + 1, 0)
    asks = [(kind, bound) for kind in ("codes", "betas")
            for bound in range(-1, xdeg + 4)] * 2
    rng.shuffle(asks)
    for kind, bound in asks:
        betas = list(monomials_upto_degree(dim, bound))
        if kind == "betas":
            assert list(table.betas(bound)) == betas
        elif bound > xdeg:
            with pytest.raises(InternalCheckFailed):
                table.codes(bound)
        else:
            codes = list(table.codes(bound))
            assert codes == [packing.shift(beta) for beta in betas]
            assert codes == [packing.pack((beta, (0,) * dim, 0))
                             for beta in betas]
    # a span on the table packs layers as pack_terms does, with their
    # largest degree, and answers None above xdeg, where keys alias
    monos = list(monomials_upto_degree(dim, xdeg + 1))
    span = WindowSpan(poly_parse("x1", dim), 0, 2, table)
    for _ in range(8):
        layers = {j: {m: rng.randint(1, 9) for m in rng.sample(
            monos, rng.randint(0, min(4, len(monos))))}
            for j in rng.sample(range(3), rng.randint(0, 3))}
        deg = max((sum(m) for terms in layers.values() for m in terms),
                  default=-1)
        assert span._packed(layers) == (
            (packing.pack_terms(layers), deg) if deg <= xdeg else None)
    # a span on the table answers None for a layer above its dt and a
    # degree above its lowered xdeg, and packs inside them
    span = WindowSpan(poly_parse("x1", dim), 0, 1, table)
    span.xdeg = low = max(xdeg - 1, 0)
    x1 = (1,) + (0,) * (dim - 1)

    def reduced(e, j):
        return span.reduce(BfElement.from_poly(
            Polynomial.monomial(tuple(e * a for a in x1)), j))

    assert reduced(low, 2) is None and reduced(low + 1, 1) is None
    assert reduced(low, 1) is not None and reduced(0, 0) is not None


@pytest.mark.parametrize("seed", range(8))
def test_spans_sharing_a_table_match_spans_alone(seed):
    # graph-module and twisted-module spans built in a random order from one
    # table, d-part bounds above xdeg included, against the same spans each
    # with a table of its own: the same queue, record, tags and rows
    rng = random.Random(1250 + seed)
    f = poly_parse(rng.choice(["x1*x2", "x1^2+x2^3", "x1^2*x2"]), 2)
    B = Bounds(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2))
    gens = [BfElement.from_poly(Polynomial.one(2))] + [
        element(2, {j: rand_poly(rng, 2, 2) for j in range(2)})
        for _ in range(2)]
    pres = HodgePresentation.build(
        F(1, 2), 2, [(rng.randint(0, 3), Polynomial.one(2) + rand_poly(rng),
                      rng.randint(0, 2)) for _ in range(3)])
    builds = [lambda table: bf_span(gens, f, B, table)] + [
        lambda table, pole=pole: vforacle.presentation_span(
            pres, f, pres.alpha, pole, table)
        for pole in (pres.max_pole(), pres.max_pole() + 2)]
    rng.shuffle(builds)
    table = ShiftTable(2, B.xdeg)
    for build in builds:
        alone, shared = build(ShiftTable(2, B.xdeg)), build(table)
        assert shared._queue == alone._queue
        assert shared._record == alone._record
        assert shared.tags == alone.tags
        assert shared.echelon.basis() == alone.echelon.basis()


def test_window_span_refuses_a_table_of_another_packing():
    # a span takes its window from its table and refuses one of another
    # dimension; bf_span, which gets the window in its bounds as well,
    # refuses a table of another radix too
    for table in (ShiftTable(3, 4), ShiftTable(1, 4)):
        with pytest.raises(InternalCheckFailed):
            WindowSpan(XY, 1, 0, table)
    for table in (ShiftTable(3, 4), ShiftTable(1, 4), ShiftTable(2, 5),
                  ShiftTable(2, 3)):
        with pytest.raises(InternalCheckFailed):
            bf_span([BfElement.from_poly(Polynomial.one(2))], XY,
                    Bounds(1, 4, 1), table)
    assert WindowSpan(XY, 1, 0, ShiftTable(2, 4)).packing.radix == 5


@pytest.mark.parametrize("case, bounds, top", [
    (("snc", SncDivisor((1, 1)), 1, 2, 1), Bounds(2, 4, 2), 2),
    (("snc", SncDivisor((2, 3)), F(1, 2), 2, 0), Bounds(3, 1, 3), 2),
    (("whom", cusp_germ(), F(5, 6), 2, 1), Bounds(2, 4, 2), 2),
])
def test_crosscheck_builds_each_shift_vector_once(monkeypatch, case, bounds,
                                                  top):
    # one cross-check makes one table and grows it a degree at a time: each
    # exponent tuple up to the largest d-part bound, top, is built once (in
    # the second case top is above xdeg and no element is in the window);
    # the records settle each cross-check, with no Echelon insert, so no
    # row asks for a tuple above top, and the spans record simplices, so no
    # shift code is built at all
    codes, betas, tables, inserts = [], [], [], []
    init, echelon_insert = ShiftTable.__init__, Echelon.insert

    def noting(build, out):
        def building(*args):
            built = build(*args)
            out.extend(built)
            return built
        return building

    def noted(self, *args):
        tables.append(args)
        init(self, *args)

    def counted(self, *args):
        inserts.append(args)
        return echelon_insert(self, *args)

    monkeypatch.setattr(weyl, "_codes_of_degree",
                        noting(weyl._codes_of_degree, codes))
    monkeypatch.setattr(weyl, "monomials_of_degree",
                        noting(weyl.monomials_of_degree, betas))
    monkeypatch.setattr(ShiftTable, "__init__", noted)
    monkeypatch.setattr(Echelon, "insert", counted)
    crosscheck_hodge_weight(*case, bounds)
    assert tables == [(2, bounds.xdeg)] and inserts == []
    assert codes == []
    assert betas == list(monomials_upto_degree(2, top))


def test_window_span_enforces_a_lowered_xdeg():
    # a span's window is its table's radix less one; lowered below it, the
    # span answers only inside the sub-window and keeps the table's keys
    span = WindowSpan(XY, 0, 0, ShiftTable(2, 6))
    assert span.xdeg == 6
    span.xdeg = 4
    span.add_layers({0: {(5, 0): 1}}, 1, (0,))
    assert span.n_vectors == 0 and not span.tags
    span.add_layers({0: {(1, 0): 1}}, 1, (1,))
    betas = list(monomials_upto_degree(2, 3))
    assert span.n_vectors == len(betas)
    assert span.tags == [(1, beta) for beta in betas]
    packing = KeyPacking(2, 7, 0)
    assert span.packing.radix == packing.radix
    assert span.echelon.pivots() == {
        packing.shift(mono_mul((1, 0), beta)) for beta in betas}
    assert span.reduce(BfElement.from_poly(poly_parse("x1^2*x2^3", 2))) is None
    assert not span.reduce(BfElement.from_poly(poly_parse("x1^4", 2)))[0]
    assert span.contains(poly_parse("x2^5", 2), 0) is None
    assert span.contains(poly_parse("x1^3*x2", 2), 0) is True
    assert span.contains(poly_parse("x2^4", 2), 0) is False
