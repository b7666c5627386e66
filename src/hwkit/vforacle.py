"""The independent verification engine.

Everything here computes inside truncations of the graph-embedding module
(polynomial coefficients, bounded partial-derivative order, bounded
dt-layer) or of the twisted localization module (polynomial numerators over
a fixed pole order), using exact linear algebra only.  Verdicts are
three-valued: "member" always carries a witness that re-evaluates exactly;
"not-found-at-bound" is never treated as a refutation.

Window vectors are built in integer form: numerators {m: int}, or layers
{j: {m: int}}, over an int den > 0; f = F/df and alpha = a/q in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .errors import DimensionMismatch, InternalCheckFailed, PreconditionError
from .exactalg import (Polynomial, combine_terms, fmt_rational,
                       graded_ideal, grlex_key, integer_terms,
                       monomials_upto_degree, mul_terms, partial_terms)
from .bsdata import BFunction, RootMultiset
from .linalg import Echelon
from .snc import HodgePresentation, SncDivisor, snc_hodge_weight
from .weyl import (KeyPacking, TwistedSection, WeylOperator,
                   apply_to_twisted, d_part_images, graded_operator_basis)
from .whom import QuasiHomogeneousGerm, whom_hodge_weight


@dataclass(frozen=True)
class Bounds:
    """Truncation window: operator order, x-degree, dt-layer order.  No
    field has a default: the CLI or the caller sets all three."""

    order: int
    xdeg: int
    dt: int

    def to_json(self):
        return {"order": self.order, "xdeg": self.xdeg, "dt": self.dt}

    def doubled(self) -> "Bounds":
        return Bounds(self.order * 2, self.xdeg * 2, self.dt * 2)


@dataclass
class SpanCertificate:
    """Outcome of a bounded membership/equality test."""

    verdict: str  # "member" | "not-found-at-bound" | "refuted"
    bounds: dict
    witness: object = None
    detail: str | None = None

    def is_member(self) -> bool:
        return self.verdict == "member"

    def to_json(self):
        out = {"verdict": self.verdict, "bounds": self.bounds}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# elements of the graph-embedding module


class BfElement:
    """Finitely many layers g_j * dt^j applied to the module generator."""

    __slots__ = ("dim", "layers")

    def __init__(self, dim: int, layers=None):
        self.dim = dim
        self.layers = {int(j): p for j, p in (layers or {}).items()
                       if not p.is_zero()}
        if any(j < 0 for j in self.layers):
            raise ValueError("negative dt layer")

    @classmethod
    def from_poly(cls, p: Polynomial, layer: int = 0):
        return cls(p.dim, {layer: p})

    def max_layer(self) -> int:
        return max(self.layers, default=0)

    def __add__(self, other: "BfElement") -> "BfElement":
        if self.dim != other.dim:
            raise DimensionMismatch("incompatible elements")
        out = dict(self.layers)
        for j, p in other.layers.items():
            out[j] = out[j] + p if j in out else p
        return BfElement(self.dim, out)

    def scale(self, c) -> "BfElement":
        return BfElement(self.dim,
                         {j: p.scale(c) for j, p in self.layers.items()})

    def t(self, f: Polynomial) -> "BfElement":
        """t: g dt^j -> f g dt^j - j g dt^(j-1)."""
        layers = self.layers.items()
        return BfElement(self.dim, {j: p * f for j, p in layers}) + \
            BfElement(self.dim, {j - 1: p.scale(-j) for j, p in layers if j})

    def dt(self) -> "BfElement":
        """dt: g dt^j -> g dt^(j+1)."""
        return BfElement(self.dim, {j + 1: p for j, p in self.layers.items()})

    def d_images(self, gammas, f: Polynomial, dt: int) -> list:
        """(gamma, layers, den) for the d-parts gamma of gammas (see
        d_part_images) whose image d^gamma self, in integer form, is nonzero
        and has no layer above dt; d_i: g dt^j -> (df d_i(g) dt^j -
        d_i(F) g dt^(j+1)) / df.  bf_span and the cross-check's oracle take
        their graph-module images from it: one place makes the dt skip."""
        fnum, df = integer_terms(f.terms)
        dfs = [partial_terms(fnum, i) for i in range(self.dim)]
        flat, den = integer_terms({(j, m): c for j, p in self.layers.items()
                                   for m, c in p.terms.items()})
        start = {j: {m: c for (i, m), c in flat.items() if i == j}
                 for j in self.layers}

        def step(image, i):
            layers, den = image
            out = {j: combine_terms(
                partial_terms(layers.get(j, {}), i), df,
                mul_terms(layers.get(j - 1, {}), dfs[i]), -1)
                for j in {*layers, *(j + 1 for j in layers)}}
            return {j: terms for j, terms in out.items() if terms}, den * df

        images = d_part_images(gammas, (start, den), step)
        return [(gamma, layers, den) for gamma, (layers, den) in images.items()
                if layers and max(layers) <= dt]

    def __eq__(self, other):
        return (isinstance(other, BfElement) and self.dim == other.dim
                and self.layers == other.layers)

    def __str__(self):
        if not self.layers:
            return "0"
        bits = []
        for j in sorted(self.layers):
            head = f"({self.layers[j]})"
            bits.append(head if j == 0 else f"{head}*dt^{j}" if j > 1 else f"{head}*dt")
        return " + ".join(bits)

    __repr__ = __str__


def apply_s_shifted(u: BfElement, f: Polynomial, shift: Fraction) -> BfElement:
    """(s + shift) * u, with s = -dt t."""
    return u.t(f).dt().scale(-1) + u.scale(shift)


# ---------------------------------------------------------------------------
# b-function certification


def _section_layers(sec: TwistedSection, f: Polynomial,
                    pole_target: int) -> dict:
    """{s-power: numerator} of sec written over the pole pole_target."""
    mult = f ** (pole_target - sec.pole)
    return {j: p * mult for j, p in sec.coeffs.items()}


def _roots_section(dim: int, roots: RootMultiset) -> TwistedSection:
    """The section roots(s) * f^s, kept as roots(s) * f^(s+1) / f."""
    return TwistedSection(dim, 1, 1, {j: Polynomial.constant(dim, c)
                                      for j, c in roots.coefficients().items()})


def verify_bfunction(f: Polynomial, b: BFunction, order_bound: int,
                     xdeg_bound: int) -> SpanCertificate:
    """Certify the functional equation P(s) f^(s+1) = b(s) f^s by solving the
    exact linear system for P over the bounded operator basis (s adjoined),
    then refute every maximal proper divisor of b at the same bounds.

    Only the columns of graded_operator_basis are built.  For each weight w
    making f homogeneous, the column of x^b d^g s^j, cleared to the pole the
    full d-part set fixes, is w-homogeneous of degree w.(b - g) plus a shared
    constant.  So the elimination is block-diagonal, and b(s) f^s and its
    divisors lie in the kept block w.(b - g) = -deg_w f, whose rows,
    residuals and witness are those of the full system.  The kept-block part
    of a solution is itself one: not-found-at-bound covers the whole window.
    On the cusp, 5 of 300 columns are built at order 3, xdeg 4.  A basis
    operator x^b d^g s^j has j <= order_bound - |g|, and d^g adds at most
    |g| to the s-degree; so when deg b exceeds order_bound, not-found-at-bound
    comes before any build.

    member  => the equation holds with the returned operator witness, and
               the certificate records whether b is minimal at these bounds.
    """
    if b.is_one():
        raise PreconditionError("empty b-function")
    if not f.total_degree():
        raise PreconditionError("f is constant", hypothesis="f is non-constant")
    bounds_json = {"order": order_bound, "xdeg": xdeg_bound}
    not_found = SpanCertificate("not-found-at-bound", bounds_json,
                                detail="no operator at these bounds satisfies "
                                       "the functional equation")
    if b.degree() > order_bound:
        return not_found
    dim = f.dim
    keys = graded_operator_basis(f, order_bound, xdeg_bound, b.degree())
    sec0 = TwistedSection.power(dim, 1)
    # d^g f^(s+1), normalized, for every d-part g of the full basis; x^b and
    # s^j only multiply the numerator, so this fixes the full basis' pole
    images = d_part_images(monomials_upto_degree(dim, order_bound), sec0,
                           lambda sec, i: sec.apply_d(i, f).normalized(f))
    pole_target = max([sec.pole for sec in images.values()] + [1])
    columns = {g: _section_layers(images[g], f, pole_target)
               for g in {g for _, g, _ in keys}}

    def rhs_layers(roots: RootMultiset):
        """{s-power: numerator} of the section roots(s) * f^s."""
        return _section_layers(_roots_section(dim, roots), f, pole_target)

    rhs = rhs_layers(b)
    # x^b adds at most xdeg_bound to an exponent of a column numerator; a
    # divisor's numerator has the degree of b's, that of f^(pole_target - 1)
    largest = max((p.total_degree() for layers in [*columns.values(), rhs]
                   for p in layers.values()), default=0)
    packing = KeyPacking(dim, 1 + largest + xdeg_bound, xdeg_bound)
    vectors = {g: packing.pack_layers(layers) for g, layers in columns.items()}
    ech = Echelon()
    for idx, (xb, g, j) in enumerate(keys):
        vec, den = vectors[g]
        shift = j * packing.top + packing.shift(xb, 0)
        ech.insert({k + shift: c for k, c in vec.items()}, den, {idx: den})

    residual, carried = ech.reduce(*packing.pack_layers(rhs))
    if residual:
        return not_found
    # distinct basis keys: one term per index
    operator = WeylOperator(dim, {keys[idx]: c for idx, c in carried.items()})
    # re-evaluate the witness exactly
    check = apply_to_twisted(operator, f, sec0)
    if not check.same_element(_roots_section(dim, b), f):
        raise InternalCheckFailed("witness failed re-evaluation")

    divisors = []
    for r in b.sorted_roots():
        div = RootMultiset({q: m - (q == r) for q, m in b.roots.items()})
        res_d, _ = ech.reduce(*packing.pack_layers(rhs_layers(div)))
        divisors.append({"divisor": div.product_string(),
                         "verdict": "not-found-at-bound" if res_d else "member"})
    minimal = all(d["verdict"] != "member" for d in divisors)
    return SpanCertificate(
        "member", bounds_json,
        witness={"operator": str(operator), "divisors": divisors,
                 "minimal_at_bound": minimal})


def certify_bfunction(f: Polynomial, b: BFunction, order_bound: int,
                      xdeg_bound: int):
    """Run verify_bfunction; return (b, certificate), b replaced by its
    verified copy when it is certified minimal at the bounds."""
    cert = verify_bfunction(f, b, order_bound, xdeg_bound)
    if cert.is_member() and cert.witness.get("minimal_at_bound"):
        return b.with_verification(), cert
    return b, cert


# ---------------------------------------------------------------------------
# candidate canonical filtrations


def snc_v_generator_exponents(a, lam: Fraction):
    """Exponent vector of the level-lam generator monomial: per support index
    max(ceil(lam * a_i) - 1, 0)."""
    return tuple(max(math.ceil(Fraction(lam) * ai) - 1, 0) if ai else 0 for ai in a)


def candidate_v_snc(a, lam, jmax: int):
    """Candidate level-lam filtration generators of the monomial divisor:
    the layer-j monomials for j = 0..jmax."""
    lam = Fraction(lam)
    a = tuple(int(e) for e in a)
    out = []
    for j in range(jmax + 1):
        exps = snc_v_generator_exponents(a, lam + j)
        out.append(BfElement.from_poly(Polynomial.monomial(exps), j))
    return out


class SncVFamily:
    """Closed-form candidate filtration for a monomial divisor."""

    def __init__(self, d: SncDivisor, jmax: int):
        self.d = d
        self.jmax = jmax
        # smallest positive grading step: 1/lcm of the nonzero exponents
        self.eps = Fraction(1, 2 * math.lcm(*[ai for ai in d.a if ai]))

    def gens(self, lam) -> list:
        return candidate_v_snc(self.d.a, lam, self.jmax)

    def strict_gens(self, lam) -> list:
        return candidate_v_snc(self.d.a, Fraction(lam) + self.eps, self.jmax)

    def nilpotency(self, lam) -> int:
        lam = Fraction(lam)
        return sum(1 for i in self.d.support
                   if (lam * self.d.a[i]).denominator == 1 and lam > 0)

    def kernel_gens(self, lam, l: int, budget: int) -> list:
        """Level-l kernel-filtration generators per the closed form: the
        layer-0 monomials f^(lam) * prod over the integral indices outside a
        size-l subset."""
        lam = Fraction(lam)
        ia = self.d.integral_indices(lam)
        if not (0 <= l <= len(ia)):
            raise PreconditionError(f"l={l} outside 0..{len(ia)}")
        base = snc_v_generator_exponents(self.d.a, lam)
        out = []
        for J in combinations(ia, l):
            e = list(base)
            for i in ia:
                if i not in J:
                    e[i] += 1
            out.append((BfElement.from_poly(Polynomial.monomial(tuple(e))),
                        budget))
        return out


def _graded_slices(germ: QuasiHomogeneousGerm, lam: Fraction, strict: bool,
                   jmax: int):
    """(j, x^g at layer j) for j = 0..jmax and the minimal monomials x^g of
    weighted degree >= lam + j - |w| (> when strict).  Kept apart from the
    closed form's slices (whom) so that the closed forms stay independent of
    the oracle's candidates."""
    for j in range(jmax + 1):
        for g in graded_ideal(germ.w, lam + j - germ.w.total, strict).gens:
            yield j, BfElement.from_poly(Polynomial.monomial(g), j)


def candidate_v_whom(germ: QuasiHomogeneousGerm, lam, k: int):
    """Candidate level-lam filtration generators of a weight-1
    quasi-homogeneous isolated singularity, truncated at t-order k: the
    minimal monomials of weighted degree >= lam + j - |w| at layer j, with
    operator budget k - j."""
    lam = Fraction(lam)
    if lam > 1:
        raise PreconditionError("levels above 1 are reached by the t-action",
                                hypothesis="lam <= 1")
    return [(u, k - j) for j, u in _graded_slices(germ, lam, False, k)]


class WhomVFamily:
    """Closed-form candidate filtration for a weight-1 quasi-homogeneous
    isolated singularity, valid on levels lam <= 1 and extended upward by
    the t-action."""

    def __init__(self, germ: QuasiHomogeneousGerm, jmax: int):
        self.germ = germ
        self.jmax = jmax

    def _graded_gens(self, lam, strict: bool) -> list:
        lam = Fraction(lam)
        if lam > 1:
            inner = self._graded_gens(lam - 1, strict)
            return [u.t(self.germ.f) for u in inner]
        return [u for _, u in
                _graded_slices(self.germ, lam, strict, self.jmax)]

    def gens(self, lam) -> list:
        return self._graded_gens(lam, strict=False)

    def strict_gens(self, lam) -> list:
        return self._graded_gens(lam, strict=True)

    def nilpotency(self, lam) -> int:
        lam = Fraction(lam)
        return 2 if lam.denominator == 1 and lam >= 1 else 1

    def kernel_gens(self, lam, l: int, budget: int) -> list:
        """Level-l kernel generators with per-layer budgets (budget - j)."""
        lam = Fraction(lam)
        top = 2 if lam == 1 else 1
        if not (0 <= l <= top):
            raise PreconditionError(f"l={l} outside 0..{top}")
        if lam == 1 and l == 0:
            raise PreconditionError(
                "no closed form for the lowest kernel level at integral twist")
        return [(u, budget - j)
                for j, u in _graded_slices(self.germ, lam, l < top, budget)]


def bf_span(gens, f: Polynomial, bounds: Bounds) -> WindowSpan:
    """The span of {x^beta d^gamma gen} over the BfElements gens, with
    |gamma| at most bounds.order, inside the (xdeg, dt) window of bounds,
    tagged (generator, gamma, beta)."""
    span = WindowSpan(f, 0, bounds.xdeg, bounds.dt)
    gammas, _ = span.shifts(bounds.order)
    for gi, gen in enumerate(gens):
        for gamma, layers, den in gen.d_images(gammas, f, bounds.dt):
            span.add_layers(layers, den, (gi, gamma))
    return span


def verify_v_axioms(family, f: Polynomial, grid, bounds: Bounds) -> dict:
    """Generator-wise bounded checks of the filtration axioms on a grid of
    levels: t maps level gam into gam+1, dt into gam-1, and (s+gam)^N kills
    generators into the strict part, N the claimed nilpotency order.

    Images that do not fit inside the truncation window are reported as
    "window-exceeded" and counted separately; all_member reflects only the
    checks that ran.  A failed check is always "not-found-at-bound".
    """
    report = {"checks": [], "all_member": True, "skipped": 0}
    for gam in grid:
        gam = Fraction(gam)
        span_up = bf_span(family.gens(gam + 1), f, bounds)
        span_down = bf_span(family.gens(gam - 1), f, bounds)
        span_strict = bf_span(family.strict_gens(gam), f, bounds)
        n = family.nilpotency(gam)
        for gi, gen in enumerate(family.gens(gam)):
            entries = [
                ("t", gen.t(f), span_up),
                ("dt", gen.dt(), span_down),
            ]
            u = gen
            for _ in range(n):
                u = apply_s_shifted(u, f, gam)
            entries.append((f"(s+{fmt_rational(gam)})^{n}", u, span_strict))
            for name, elt, span in entries:
                reduced = span.reduce(elt.layers)
                verdict = ("window-exceeded" if reduced is None
                           else "not-found-at-bound" if reduced[0]
                           else "member")
                report["checks"].append({
                    "level": fmt_rational(gam), "generator": gi,
                    "axiom": name, "verdict": verdict})
                if verdict == "window-exceeded":
                    report["skipped"] += 1
                elif verdict != "member":
                    report["all_member"] = False
    return report


def kernel_filtration_check(f: Polynomial, lam, l: int, kernel_gens,
                            strict_gens, bounds: Bounds) -> SpanCertificate:
    """Certify (s+lam)^l * g lies in the strict span for every kernel
    generator g, a BfElement.  Each member carries its witness: the
    combination of strict-span vectors x^beta d^gamma gens[generator] that
    gives it.  Otherwise the detail names the first generator that exceeds
    the window or is not reduced."""
    lam = Fraction(lam)
    span = bf_span(strict_gens, f, bounds)
    members = []
    for gi, u in enumerate(kernel_gens):
        for _ in range(l):
            u = apply_s_shifted(u, f, lam)
        reduced = span.reduce(u.layers)
        if reduced is None or reduced[0]:
            why = "exceeds the window" if reduced is None else "not reduced"
            return SpanCertificate("not-found-at-bound", bounds.to_json(),
                                   detail=f"generator {gi} {why}")
        members.append(u.layers)
    witnesses = [{"generator": gi, "witness": [
        {"generator": g, "dgamma": list(gamma), "xbeta": list(beta),
         "coeff": fmt_rational(combo[g, gamma, beta])}
        for g, gamma, beta in sorted(combo, key=repr)]}
        for gi, combo in enumerate(span.witness(members))]
    return SpanCertificate("member", bounds.to_json(), witness=witnesses)


# ---------------------------------------------------------------------------
# comparison maps into the twisted localization module


def q_poch(j: int, beta: Fraction) -> Fraction:
    """Q_j(beta) = beta (beta+1) ... (beta+j-1), empty product 1."""
    out = Fraction(1)
    for i in range(j):
        out *= beta + i
    return out


def psi_map(layers: dict, den: int, beta) -> tuple:
    """Image of sum g_j dt^j, its layers over den in integer form, under the
    layer-collapse into the module twisted by beta more: (parts, den'), the
    nonzero parts {pole step j: g_j * Q_j(beta)} over den' = den * q^top, q
    the denominator of beta and top the highest layer."""
    beta = Fraction(beta)
    scale = beta.denominator ** max(layers, default=0)
    factors = {j: (q_poch(j, beta) * scale).numerator for j in sorted(layers)}
    return {j: {m: v * c for m, v in layers[j].items()}
            for j, c in factors.items() if c}, den * scale


def phi_shift(u: BfElement, alpha, f: Polynomial) -> BfElement:
    """Shift an element of the module twisted by alpha to the untwisted one:
    sum_i sum_{j>=i} g_j f^(i-j) C(j,i) Q_{j-i}(-alpha) dt^i.
    Fails when a required exact division by f does not hold."""
    alpha = Fraction(alpha)
    k = u.max_layer()
    out = {}
    for i in range(k + 1):
        total = Polynomial.zero(u.dim)
        for j in range(i, k + 1):
            g = u.layers.get(j)
            if g is None:
                continue
            c = math.comb(j, i) * q_poch(j - i, -alpha)
            if not c:
                continue
            g = g.scale(c)
            for _ in range(j - i):
                gq = g.div_exact(f)
                if gq is None:
                    raise PreconditionError(
                        "pole clearing failed: coefficient not divisible by f",
                        hypothesis="layers lie in the polynomial ring after "
                                   "clearing")
                g = gq
            total = total + g
        if not total.is_zero():
            out[i] = total
    return BfElement(u.dim, out)


# ---------------------------------------------------------------------------
# window spans of the graph-embedding and twisted localization modules


def pole_apply(gammas, g: Polynomial, pole: int, alpha: Fraction,
               f: Polynomial) -> dict:
    """Map each gamma of gammas to d^gamma (g f^(-pole-alpha)) in integer
    form, (num, den, pole + |gamma|), one step per gamma (d_part_images):
    d_i (num/den f^(-p-alpha))
    = (q d_i(num) F - (pq+a) num d_i(F)) / (den q df) f^(-p-1-alpha)."""
    fnum, df = integer_terms(f.terms)
    dfs = [partial_terms(fnum, i) for i in range(f.dim)]
    a, q = alpha.numerator, alpha.denominator

    def step(image, i):
        num, den, p = image
        return (combine_terms(mul_terms(partial_terms(num, i), fnum), q,
                              mul_terms(num, dfs[i]), -(p * q + a)),
                den * q * df, p + 1)

    return d_part_images(gammas, (*integer_terms(g.terms), pole), step)


def clear_to_pole(parts, den: int, f_int: tuple, pole: int) -> tuple:
    """The parts {p: num} over den, each num/den f^(-p), written over one
    pole in integer form (numerator, den'), zero numerators skipped: cleared
    by Horner's rule on F of f_int = (F, df), one product by F per pole
    step, over den' = den df^(pole - lo), lo the lowest pole of a part."""
    by_pole = {p: num for p, num in parts.items() if num}
    if max(by_pole, default=pole) > pole:
        raise ValueError("a part lies above the pole")
    fnum, df = f_int
    lo = min(by_pole, default=pole)
    total = {}
    for p in range(lo, pole + 1):
        if total:
            total = mul_terms(total, fnum)
        if p in by_pole:
            total = combine_terms(total, 1, by_pole[p], df ** (p - lo))
    return {m: c for m, c in total.items() if c}, den * df ** (pole - lo)


def _direction(terms: dict) -> tuple:
    """(S, k) of a nonzero integer vector: k is its largest key and S its
    entries keyed relative to k, over their content signed positive at k.
    Vectors are multiples exactly when their (S, k) agree."""
    top = max(terms)
    content = math.gcd(*terms.values())
    if terms[top] < 0:
        content = -content
    return frozenset((m - top, c // content) for m, c in terms.items()), top


class WindowSpan:
    """A bounded span: the window vectors x^beta * v of its elements, v an
    element's layers {j: numerator}, for every beta with deg v + |beta| <=
    xdeg.  Graph-module spans (bf_span) have dt layers up to dt;
    twisted-module spans have dt 0 and clear each element to the pole
    pole_target.  The span owns its (xdeg, dt) window: add_layers skips an
    element outside it, add_summand builds no image above pole_target, and
    reduce and contains answer None outside it.

    Its coordinates are the layered keys of a KeyPacking at radix xdeg + 1,
    so x^beta adds the packed beta to every key.  Spans compared with each
    other share xdeg.  Each element is packed and queued once with its
    shifts.  The record maps each S of _direction to the positions k queued
    (a shift moves only k); a vector it already holds is a multiple of a
    queued one and is not queued.  The echelon is built from the queue, in
    queue order, when a query reads it; its rows, tags (the tag of each
    row's vector, in rank-gain order) and n_vectors are those of inserting
    every vector.  It carries no companions: witness builds them on demand.
    """

    __slots__ = ("f", "pole_target", "xdeg", "dt", "packing", "n_vectors",
                 "_f_int", "_echelon", "_tags", "_queue", "_built",
                 "_shifts", "_taken")

    def __init__(self, f: Polynomial, pole_target: int, xdeg: int, dt: int):
        self.f = f
        self._f_int = integer_terms(f.terms)
        self.pole_target = pole_target
        self.xdeg = xdeg
        self.dt = dt
        self.packing = KeyPacking(f.dim, xdeg + 1, 0)
        self.n_vectors = 0
        self._echelon, self._tags, self._queue = Echelon(), [], []
        self._built = 0  # queue entries inserted into _echelon
        self._shifts = {}  # bound -> (monomials of degree <= bound, codes)
        self._taken = {}   # the record: S -> positions k taken

    def shifts(self, bound: int) -> tuple:
        """KeyPacking.shifts(bound), built once per bound."""
        if bound not in self._shifts:
            self._shifts[bound] = self.packing.shifts(bound)
        return self._shifts[bound]

    @property
    def echelon(self) -> Echelon:
        for terms, den, tag, shifts in self._queue[self._built:]:
            for beta, code in shifts:
                if self._echelon.insert({m + code: c for m, c in terms.items()},
                                        den) is None:
                    self._tags.append(tag + (beta,))
        self._built = len(self._queue)
        return self._echelon

    @property
    def tags(self) -> list:
        self.echelon  # built first
        return self._tags

    def within(self, other: "WindowSpan") -> bool:
        """Whether other's record holds this span's: then each vector of this
        span is a multiple of one of other's."""
        return all(ks <= other._taken.get(shape, set())
                   for shape, ks in self._taken.items())

    def _packed(self, layers: dict):
        """(packed terms, largest term degree or -1) of the layers
        {j: {m: c}}; None outside the (xdeg, dt) window, where keys alias."""
        deg = max(map(sum, chain.from_iterable(layers.values())), default=-1)
        if deg > self.xdeg or any(j > self.dt for j in layers):
            return None
        return self.packing.pack_terms(layers), deg

    def reduce(self, layers: dict):
        """Echelon.reduce of the element given by its layers
        {j: Polynomial}; None when it leaves the window."""
        packed = self._packed({j: p.terms for j, p in layers.items()})
        return packed and self.echelon.reduce(*integer_terms(packed[0]))

    def witness(self, members: list) -> list:
        """For each member given by its layers, the combination
        {tag + (beta,): coefficient} of window vectors that gives it, from
        one echelon of the queued vectors, each carrying its tag as its
        companion, built on each call.  The record skipped only dependent
        inserts, which change no row and no companion, so each combination
        is that of inserting every vector."""
        ech = Echelon()
        for terms, den, tag, shifts in self._queue:
            for beta, code in shifts:
                ech.insert({m + code: c for m, c in terms.items()}, den,
                           {tag + (beta,): den})
        return [ech.reduce(*self.packing.pack_layers(layers))[1]
                for layers in members]

    def contains(self, g: Polynomial, pole: int) -> bool | None:
        """Whether g * f^(-pole), cleared to pole_target, lies in the span
        (None outside the window); no scalar changes that, so dens drop."""
        packed = self._packed({0: clear_to_pole(
            {pole: integer_terms(g.terms)[0]}, 1, self._f_int,
            self.pole_target)[0]})
        return packed and not self.echelon.reduce(packed[0], 1)[0]

    def insert(self, terms: dict, den: int, tag, betas, codes):
        """Queue and record the vectors x^beta * terms/den (integer
        numerators, packed keys), tagged tag + (beta,), for the betas (packed:
        codes) whose position the record lacks.  Each counts in n_vectors,
        a skipped one as the dependent insert it would be."""
        shape, top = _direction(terms)
        taken = self._taken.setdefault(shape, set())
        fresh = [(beta, code) for beta, code in zip(betas, codes)
                 if top + code not in taken]
        taken.update(top + code for _, code in fresh)
        self.n_vectors += len(codes)
        if fresh:
            self._queue.append((terms, den, tag, fresh))

    def add_layers(self, layers: dict, den: int, tag):
        """Add the window vectors of an element given by its layers over den
        (integer form), tagged tag + (beta,); none when it is zero or leaves
        the window.  Keys are packed once, and the pair divided by
        gcd(den, content) is its integer_terms pair, shared by every shift."""
        packed = self._packed(layers)
        if packed is not None and packed[1] >= 0:
            terms, deg = packed
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
            self.insert(terms, den // g, tag, *self.shifts(self.xdeg - deg))

    def add(self, parts, den: int, tag):
        """add_layers of the element given by its parts {p: num} over den,
        cleared to pole_target at layer 0; a part above it raises ValueError."""
        num, den = clear_to_pole(parts, den, self._f_int, self.pole_target)
        self.add_layers({0: num}, den, tag)

    def add_summand(self, si: int, summand, alpha: Fraction):
        """Add the vectors x^beta d^gamma (g f^(-j-alpha)) of the summand
        (budget, g, j), tagged (si, gamma, beta).  d^gamma lands on the pole
        j + |gamma|, so only the d-parts with |gamma| <= pole_target - j are
        built: a grlex prefix, in the order and with the tags of the full
        list."""
        budget, g, j = summand
        gammas, _ = self.shifts(min(budget, self.pole_target - j))
        images = pole_apply(gammas, g, j, alpha, self.f)
        for gamma in gammas:
            num, den, pole = images[gamma]
            self.add({pole: num}, den, (si, gamma))


def _twist_shift(alpha_base: Fraction, alpha: Fraction) -> int:
    """The integer by which twist alpha exceeds alpha_base; presentations
    can only be compared when their twists differ by an integer."""
    delta = alpha - alpha_base
    if delta.denominator != 1:
        raise PreconditionError("presentations live in different twists",
                                hypothesis="twists differ by an integer")
    return int(delta)


def presentation_span(pres: HodgePresentation, f: Polynomial,
                      alpha_base: Fraction, pole_target: int,
                      xdeg: int) -> WindowSpan:
    """The span of all vectors x^beta d^gamma (g f^(-j-alpha)) of a
    presentation, cleared to the common pole (relative to alpha_base);
    elements whose clearing leaves the degree window are skipped."""
    shift = _twist_shift(alpha_base, pres.alpha)
    span = WindowSpan(f, pole_target, xdeg, 0)
    for si, (budget, g, j) in enumerate(pres.summands):
        span.add_summand(si, (budget, g, j + shift), alpha_base)
    return span


def _verdict(name: str, count: int, expect_nonempty: bool):
    """A passing direction over count source vectors.  With expect_nonempty,
    an empty source family counts as inconclusive (guards against vacuous
    verdicts when the window is too small to represent anything)."""
    if expect_nonempty and count == 0:
        return False, {"direction": name,
                       "failed_at": "window too small to represent anything"}
    return True, {"direction": name, "vectors": count}


def _cross_containment(name: str, source: WindowSpan, target: WindowSpan,
                       expect_nonempty: bool):
    """Report the tag of the first source vector outside the target span,
    or the vector count.  When the target's record holds the source's, every
    source vector is a multiple of a target vector, and nothing is reduced.
    That is a certifying check (McConnell, Mehlhorn, Naher and Schweitzer,
    Computer Science Review 5(2), 2011).  Otherwise only the source rows are
    reduced: a row is its vector minus earlier rows, which span the earlier
    vectors, so the first row outside the target is that of the first vector
    outside it.  Only this path names failed_at."""
    if not source.within(target):
        for (row, p), tag in zip(source.echelon.basis(), source.tags):
            if target.echelon.reduce(row, p)[0]:
                return False, {"direction": name, "failed_at": repr(tag)}
    return _verdict(name, source.n_vectors, expect_nonempty)


def _mutual_containment(first, second):
    """Two-sided containment of the sides (name, span, expect_nonempty):
    the results of "first in second" and "second in first".  Once the first
    holds, the second needs no reduction when the first's record holds the
    second's (as equal records do) or the ranks are equal."""
    name1, span1, nonempty1 = first
    name2, span2, nonempty2 = second
    d1 = _cross_containment(name1, span1, span2, nonempty1)
    if d1[0] and (span2.within(span1)
                  or span1.echelon.rank == span2.echelon.rank):
        return d1, _verdict(name2, span2.n_vectors, nonempty2)
    return d1, _cross_containment(name2, span2, span1, nonempty2)


def _certificate(bounds: Bounds, directions) -> SpanCertificate:
    """member, witnessed by the details, when every (ok, detail) direction
    holds; else not-found-at-bound listing the details of the failed ones."""
    if all(ok for ok, _ in directions):
        return SpanCertificate("member", bounds.to_json(),
                               witness=[d for _, d in directions])
    return SpanCertificate("not-found-at-bound", bounds.to_json(),
                           detail=str([d for ok, d in directions if not ok]))


def _common_pole_spans(p1: HodgePresentation, p2: HodgePresentation,
                       f: Polynomial, xdeg: int) -> tuple:
    """The spans of the two presentations at the twist of the first,
    cleared to the pole both reach."""
    pole_target = max(p1.max_pole(),
                      p2.max_pole() + _twist_shift(p1.alpha, p2.alpha), 0)
    return tuple(presentation_span(p, f, p1.alpha, pole_target, xdeg)
                 for p in (p1, p2))


def presentations_equal(p1: HodgePresentation, p2: HodgePresentation,
                        f: Polynomial, bounds: Bounds) -> SpanCertificate:
    """Two-sided bounded containment between the spans the presentations
    denote, after aligning twists (which must differ by an integer)."""
    span1, span2 = _common_pole_spans(p1, p2, f, bounds.xdeg)
    d21, d12 = _mutual_containment(
        ("second-in-first", span2, bool(p2.summands)),
        ("first-in-second", span1, bool(p1.summands)))
    return _certificate(bounds, [d12, d21])


def reduce_presentation(pres: HodgePresentation, f: Polynomial,
                        bounds: Bounds) -> HodgePresentation:
    """Greedy minimalization at bounds: drop any summand whose generator
    already lies in the bounded span of the summands kept so far (low pole
    steps and low degrees first); a generator outside the window is kept.
    Never changes the denoted span."""
    pole_target = max((j for _, _, j in pres.summands), default=0)
    span = WindowSpan(f, pole_target, bounds.xdeg, 0)
    kept = []
    order = sorted(pres.summands,
                   key=lambda t: (t[2], t[1].total_degree(),
                                  grlex_key(t[1].leading_monomial())))
    for budget, g, j in order:
        if kept and span.contains(g, j):
            continue
        span.add_summand(len(kept), (budget, g, j), pres.alpha)
        kept.append((budget, g, j))
    return HodgePresentation.build(pres.alpha, pres.dim, kept)


def presentation_contained(p1: HodgePresentation, p2: HodgePresentation,
                           f: Polynomial, bounds: Bounds) -> SpanCertificate:
    """One-sided bounded containment: every vector of the first presentation
    reduces inside the span of the second.  A failure's detail is that one
    direction's, not a list."""
    ok, d = _cross_containment(
        "first-in-second", *_common_pole_spans(p1, p2, f, bounds.xdeg),
        expect_nonempty=bool(p1.summands))
    if ok:
        return SpanCertificate("member", bounds.to_json(), witness=[d])
    return SpanCertificate("not-found-at-bound", bounds.to_json(),
                           detail=str(d))


def dspans_equal(p1: HodgePresentation, p2: HodgePresentation, f: Polynomial,
                 bounds: Bounds) -> SpanCertificate:
    """Generator-wise bounded equality of the D-module spans the two
    presentations generate: every generator of each side must lie in the
    bounded operator span of the other side (budgets taken from the bounds,
    not from the presentations)."""
    alpha_base = p1.alpha
    shift = _twist_shift(alpha_base, p2.alpha)

    def full(pres, extra_shift):
        return HodgePresentation.build(
            alpha_base, pres.dim,
            [(bounds.order, g, j + extra_shift) for _, g, j in pres.summands])

    def gen_steps(pres, extra_shift):
        return [(g, j + extra_shift) for _, g, j in pres.summands]

    directions = []
    for name, src, tgt in (
            ("first-in-second", gen_steps(p1, 0), full(p2, shift)),
            ("second-in-first", gen_steps(p2, shift), full(p1, 0))):
        # Witness combinations may pass through representations deeper than
        # both generator lists; search pole depths progressively (any success
        # is a sound witness, rows being true members of the target span).
        base = max([j for _, j in src]
                   + [j for _, _, j in tgt.summands] + [0])
        spans = {}
        for gi, (g, j) in enumerate(src):
            for depth in range(base, max(tgt.max_pole(), base) + 1):
                if depth not in spans:
                    spans[depth] = presentation_span(
                        tgt, f, alpha_base, depth, bounds.xdeg)
                inside = spans[depth].contains(g, j)
                if inside is None or inside:
                    break
            if not inside:
                why = "exceeds the window" if inside is None else "not reduced"
                return SpanCertificate(
                    "not-found-at-bound", bounds.to_json(),
                    detail=f"{name}: generator {gi} {why}")
        directions.append({"direction": name, "generators": len(src)})
    return SpanCertificate("member", bounds.to_json(), witness=directions)


# ---------------------------------------------------------------------------
# the master cross-check


# kind -> (candidate family, closed form, the polynomial of the source)
_SOURCES = {
    "snc": (SncVFamily, snc_hodge_weight, SncDivisor.polynomial),
    "whom": (WhomVFamily, whom_hodge_weight, lambda germ: germ.f),
}


def crosscheck_hodge_weight(kind: str, obj, alpha, k: int, l: int,
                            bounds: Bounds) -> SpanCertificate:
    """Master cross-check: the layer-collapse image of the bounded
    kernel-filtration candidates must coincide, within the window, with the
    closed-form Hodge/weight presentation.  Certifies containment both ways.
    """
    if kind not in _SOURCES:
        raise ValueError(f"unknown source {kind!r}")
    family, closed_form, polynomial = _SOURCES[kind]
    alpha = Fraction(alpha)
    f = polynomial(obj)
    pres = closed_form(obj, alpha, k, l)
    gens = family(obj, bounds.dt).kernel_gens(alpha, l, k)

    pole_target = max(pres.max_pole(),
                      max((g.max_layer() + b for g, b in gens), default=0))

    # oracle side: bounded operators in the graph module, collapsed
    oracle_span = WindowSpan(f, pole_target, bounds.xdeg, 0)
    for gi, (gen, budget) in enumerate(gens):
        gammas, _ = oracle_span.shifts(min(budget, bounds.order))
        for gamma, layers, den in gen.d_images(gammas, f, bounds.dt):
            oracle_span.add(*psi_map(layers, den, alpha), (gi, gamma))

    closed_span = presentation_span(pres, f, alpha, pole_target, bounds.xdeg)
    return _certificate(bounds, _mutual_containment(
        ("oracle-in-closed-form", oracle_span, bool(gens)),
        ("closed-form-in-oracle", closed_span, bool(pres.summands))))
