"""The independent verification engine.

Everything here computes inside truncations of the graph-embedding module
(polynomial coefficients, bounded partial-derivative order, bounded
dt-layer) or of the twisted localization module (polynomial numerators over
a fixed pole order), using exact linear algebra only.  Verdicts are
three-valued: "member" always carries a witness that re-evaluates exactly;
"not-found-at-bound" is never treated as a refutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DimensionMismatch, InternalCheckFailed,
                     PreconditionError, WindowExceeded)
from .exactalg import (Polynomial, fmt_rational, graded_ideal, grlex_key,
                       mono_mul, monomials_upto_degree)
from .bsdata import BFunction, RootMultiset
from .linalg import Echelon
from .snc import HodgePresentation, SncDivisor, snc_hodge_weight
from .weyl import (TwistedSection, WeylOperator, apply_to_twisted, basis_keys,
                   bounded_operator_basis, d_part_images)
from .whom import QuasiHomogeneousGerm, whom_hodge_weight


@dataclass(frozen=True)
class Bounds:
    """Truncation window: operator order, x-degree, dt-layer order."""

    order: int = 4
    xdeg: int = 12
    dt: int = 6

    def to_json(self):
        return {"order": self.order, "xdeg": self.xdeg, "dt": self.dt}

    def doubled(self) -> "Bounds":
        return Bounds(self.order * 2, self.xdeg * 2, self.dt * 2)


DEFAULT_BOUNDS = Bounds()


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
    """Finitely many layers g_j * dt^j applied to the module generator; the
    twist tag records which twisted module the element lives in (0 for the
    untwisted one)."""

    __slots__ = ("dim", "layers", "twist")

    def __init__(self, dim: int, layers=None, twist=Fraction(0)):
        self.dim = dim
        self.layers = {int(j): p for j, p in (layers or {}).items()
                       if not p.is_zero()}
        if any(j < 0 for j in self.layers):
            raise ValueError("negative dt layer")
        self.twist = Fraction(twist)

    @classmethod
    def from_poly(cls, p: Polynomial, layer: int = 0, twist=Fraction(0)):
        return cls(p.dim, {layer: p}, twist)

    @classmethod
    def unit(cls, dim: int, twist=Fraction(0)):
        return cls(dim, {0: Polynomial.one(dim)}, twist)

    def is_zero(self) -> bool:
        return not self.layers

    def max_layer(self) -> int:
        return max(self.layers, default=0)

    def max_degree(self) -> int:
        return max((p.total_degree() for p in self.layers.values()), default=0)

    def __add__(self, other: "BfElement") -> "BfElement":
        if self.dim != other.dim or self.twist != other.twist:
            raise DimensionMismatch("incompatible elements")
        out = dict(self.layers)
        for j, p in other.layers.items():
            out[j] = out[j] + p if j in out else p
        return BfElement(self.dim, out, self.twist)

    def scale(self, c) -> "BfElement":
        return BfElement(self.dim,
                         {j: p.scale(c) for j, p in self.layers.items()},
                         self.twist)

    def vector(self) -> dict:
        """Coordinates keyed by (layer, monomial)."""
        out = {}
        for j, p in self.layers.items():
            for m, c in p.terms.items():
                out[(j, m)] = c
        return out

    def __eq__(self, other):
        return (isinstance(other, BfElement) and self.dim == other.dim
                and self.twist == other.twist and self.layers == other.layers)

    def __str__(self):
        if not self.layers:
            return "0"
        bits = []
        for j in sorted(self.layers):
            head = f"({self.layers[j]})"
            bits.append(head if j == 0 else f"{head}*dt^{j}" if j > 1 else f"{head}*dt")
        return " + ".join(bits)

    __repr__ = __str__


def act(sym: str, u: BfElement, f: Polynomial) -> BfElement:
    """Exact action on the graph-embedding module:
      t:  g dt^j -> f g dt^j - j g dt^(j-1)
      dt: g dt^j -> g dt^(j+1)
      s = -dt t
      x<i>: multiply by the variable
      d<i>: g dt^j -> (d_i g) dt^j - (d_i f) g dt^(j+1)  (untwisted only)
    """
    if sym == "t":
        out = {}

        def acc(j, p):
            if p.is_zero():
                return
            out[j] = out[j] + p if j in out else p

        for j, p in u.layers.items():
            acc(j, p * f)
            if j >= 1:
                acc(j - 1, p.scale(-j))
        return BfElement(u.dim, out, u.twist)
    if sym == "dt":
        return BfElement(u.dim, {j + 1: p for j, p in u.layers.items()}, u.twist)
    if sym == "s":
        return act("dt", act("t", u, f), f).scale(-1)
    if sym.startswith("x"):
        i = int(sym[1:]) - 1
        e = [0] * u.dim
        e[i] = 1
        return BfElement(u.dim,
                         {j: p.mul_mono(tuple(e)) for j, p in u.layers.items()},
                         u.twist)
    if sym.startswith("d"):
        i = int(sym[1:]) - 1
        if u.twist != 0:
            raise PreconditionError(
                "partial-derivative action on a twisted element would leave "
                "the polynomial window; shift to twist 0 first",
                hypothesis="twist = 0 for d_i action")
        df = f.partial(i)
        out = {}

        def acc2(j, p):
            if p.is_zero():
                return
            out[j] = out[j] + p if j in out else p

        for j, p in u.layers.items():
            acc2(j, p.partial(i))
            acc2(j + 1, (p * df).scale(-1))
        return BfElement(u.dim, out, u.twist)
    raise ValueError(f"unknown symbol {sym!r}")


def act_d(i: int, u: BfElement, f: Polynomial) -> BfElement:
    return act(f"d{i + 1}", u, f)


def apply_s_shifted(u: BfElement, f: Polynomial, shift: Fraction) -> BfElement:
    """(s + shift) * u."""
    return act("s", u, f) + u.scale(shift)


# ---------------------------------------------------------------------------
# bounded spans in the graph-embedding module


def _derivative_images(gen: BfElement, f: Polynomial, max_order: int):
    """All d^gamma * gen for |gamma| <= max_order, keyed by gamma."""
    dim = gen.dim
    images = {(0,) * dim: gen}
    for total in range(1, max_order + 1):
        for gamma in monomials_upto_degree(dim, total):
            if sum(gamma) != total:
                continue
            i = next(k for k, e in enumerate(gamma) if e)
            prev = list(gamma)
            prev[i] -= 1
            images[gamma] = act_d(i, images[tuple(prev)], f)
    return images


class SpanWindow:
    """Row space of a bounded operator family applied to generators, inside
    the (xdeg, dt) window.  Generated vectors that leave the window are
    excluded, so membership verdicts are only ever bound-relative."""

    __slots__ = ("echelon", "bounds", "dim", "n_vectors")

    def __init__(self, bounds: Bounds, dim: int):
        self.echelon = Echelon()
        self.bounds = bounds
        self.dim = dim
        self.n_vectors = 0

    def add_vector(self, vec: dict, companion):
        if not vec:
            return
        if any(j > self.bounds.dt or sum(m) > self.bounds.xdeg
               for (j, m) in vec):
            return
        self.n_vectors += 1
        self.echelon.insert(vec, companion)

    def reduce(self, vec: dict):
        return self.echelon.reduce(vec)

    def contains(self, vec: dict) -> bool:
        residual, _ = self.reduce(vec)
        return not residual


def bf_span(gens, f: Polynomial, bounds: Bounds, with_dt: bool = False,
            track: bool = False) -> SpanWindow:
    """Span of {x^b d^g (dt^e) * gen} within the window.

    `gens` is a list of BfElement or (BfElement, budget) pairs; a budget
    caps |g| (+ e) for that generator, defaulting to bounds.order.
    with_dt additionally adjoins dt-powers (the t-order direction).  With
    track, reductions against the span carry their witness combination keyed
    by (generator, gamma, dt power, beta).
    """
    norm = []
    for g in gens:
        if isinstance(g, tuple):
            norm.append(g)
        else:
            norm.append((g, bounds.order))
    dim = f.dim
    span = SpanWindow(bounds, dim)
    for gi, (gen, budget) in enumerate(norm):
        budget = min(budget, bounds.order)
        if budget < 0 or gen.is_zero():
            continue
        images = _derivative_images(gen, f, budget)
        for gamma, img in sorted(images.items(), key=lambda kv: grlex_key(kv[0])):
            emax = (budget - sum(gamma)) if with_dt else 0
            for e in range(emax + 1):
                base = img if e == 0 else BfElement(
                    dim, {j + e: p for j, p in img.layers.items()}, img.twist)
                if base.is_zero():
                    continue
                deg = base.max_degree()
                if base.max_layer() > bounds.dt or deg > bounds.xdeg:
                    continue
                vec0 = base.vector()
                for beta in monomials_upto_degree(dim, bounds.xdeg - deg):
                    vec = {(j, mono_mul(m, beta)): c
                           for (j, m), c in vec0.items()}
                    span.add_vector(vec, {(gi, gamma, e, beta): 1}
                                    if track else None)
    return span


def truncated_span(gens, f: Polynomial, order_bound: int, xdeg_bound: int,
                   dt_bound: int | None = None) -> SpanWindow:
    """Bounded span with dt-powers adjoined up to the implied t-order."""
    bounds = Bounds(order_bound, xdeg_bound,
                    dt_bound if dt_bound is not None else DEFAULT_BOUNDS.dt)
    return bf_span(gens, f, bounds, with_dt=True, track=True)


def _witness_json(combo) -> list:
    out = []
    for tag, c in sorted(combo.items(), key=lambda kv: repr(kv[0])):
        gi, gamma, e, beta = tag
        out.append({"generator": gi, "dgamma": list(gamma), "dt": e,
                    "xbeta": list(beta), "coeff": fmt_rational(c)})
    return out


def membership(u: BfElement, gens, f: Polynomial,
               bounds: Bounds = DEFAULT_BOUNDS) -> SpanCertificate:
    """Bounded membership of u in the truncated span of the generators."""
    if u.max_layer() > bounds.dt or u.max_degree() > bounds.xdeg:
        raise WindowExceeded("element exceeds the truncation window")
    span = bf_span(gens, f, bounds, with_dt=True, track=True)
    residual, combo = span.reduce(u.vector())
    if residual:
        return SpanCertificate("not-found-at-bound", bounds.to_json())
    return SpanCertificate("member", bounds.to_json(), witness=_witness_json(combo))


def bf_membership(u: BfElement, span: SpanWindow) -> SpanCertificate:
    if u.max_layer() > span.bounds.dt or u.max_degree() > span.bounds.xdeg:
        raise WindowExceeded("element exceeds the truncation window")
    residual, combo = span.reduce(u.vector())
    if residual:
        return SpanCertificate("not-found-at-bound", span.bounds.to_json())
    return SpanCertificate("member", span.bounds.to_json(),
                           witness=_witness_json(combo))


# ---------------------------------------------------------------------------
# b-function certification


def _section_vector(sec: TwistedSection, f: Polynomial, pole_target: int) -> dict:
    mult = f ** (pole_target - sec.pole)
    out = {}
    for j, p in sec.coeffs.items():
        q = p * mult
        for m, c in q.terms.items():
            key = (j, m)
            v = out.get(key, Fraction(0)) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def verify_bfunction(f: Polynomial, b: BFunction, order_bound: int,
                     xdeg_bound: int) -> SpanCertificate:
    """Certify the functional equation P(s) f^(s+1) = b(s) f^s by solving the
    exact linear system for P over the bounded operator basis (s adjoined),
    then refute every maximal proper divisor of b at the same bounds.

    member  => the equation holds with the returned operator witness, and
               the certificate records whether b is minimal at these bounds.
    """
    if b.is_one():
        raise PreconditionError("empty b-function")
    if not f.total_degree():
        raise PreconditionError("f is constant", hypothesis="f is non-constant")
    dim = f.dim
    basis = bounded_operator_basis(dim, order_bound, xdeg_bound, with_s=True,
                                   s_bound=b.degree())
    keys = basis_keys(basis)
    sec0 = TwistedSection.power(dim, 1)
    # d^g f^(s+1), normalized, for each d-part g; x^b and s^j only multiply
    # the numerator, so the pole of x^b d^g s^j f^(s+1) is at most that of
    # d^g f^(s+1), and the b = 0, j = 0 operator of every g is in the basis
    d_parts = {g for _, g, _ in keys}
    images = d_part_images(d_parts, sec0,
                           lambda sec, i: sec.apply_d(i, f).normalized(f))
    pole_target = max([images[g].pole for g in d_parts] + [1])
    vectors = {g: _section_vector(images[g], f, pole_target) for g in d_parts}
    ech = Echelon()
    for idx, (xb, g, j) in enumerate(keys):
        ech.insert({(k + j, mono_mul(m, xb)): c
                    for (k, m), c in vectors[g].items()}, {idx: 1})

    def rhs_vector(roots: RootMultiset) -> dict:
        # roots(s) * f^s written over the common pole: coeffs * f^(pole-1)
        sec = TwistedSection(dim, 1, 1,
                             {j: Polynomial.constant(dim, c)
                              for j, c in roots.coefficients().items()})
        return _section_vector(sec, f, pole_target)

    residual, carried = ech.reduce(rhs_vector(b))
    bounds_json = {"order": order_bound, "xdeg": xdeg_bound}
    if residual:
        return SpanCertificate("not-found-at-bound", bounds_json,
                               detail="no operator at these bounds satisfies "
                                      "the functional equation")
    # basis operators are distinct monic monomials: one term per index
    operator = WeylOperator(dim, {keys[idx]: c for idx, c in carried.items()})
    # re-evaluate the witness exactly
    check = apply_to_twisted(operator, f, sec0)
    target = TwistedSection(dim, 1, 1,
                            {j: Polynomial.constant(dim, c)
                             for j, c in b.coefficients().items()})
    if not check.same_element(target, f):
        raise InternalCheckFailed("witness failed re-evaluation")

    divisors = []
    minimal = True
    for r in b.sorted_roots():
        smaller = dict(b.roots)
        smaller[r] -= 1
        if not smaller[r]:
            del smaller[r]
        div = RootMultiset(smaller)
        res_d, _ = ech.reduce(rhs_vector(div))
        verdict = "not-found-at-bound" if res_d else "member"
        if verdict == "member":
            minimal = False
        divisors.append({"divisor": div.product_string(), "verdict": verdict})
    return SpanCertificate(
        "member", bounds_json,
        witness={"operator": str(operator), "divisors": divisors,
                 "minimal_at_bound": minimal})


def certify_bfunction(f: Polynomial, b: BFunction, order_bound: int,
                      xdeg_bound: int):
    """Run verify_bfunction; on success return the verified copy of b with
    the certificate attached, else (b unchanged, certificate)."""
    cert = verify_bfunction(f, b, order_bound, xdeg_bound)
    if cert.is_member() and cert.witness.get("minimal_at_bound"):
        return b.with_verification(cert.to_json()), cert
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
    dim = len(a)
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
        from math import lcm
        self.eps = Fraction(1, 2 * lcm(*[ai for ai in d.a if ai]))

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
        from itertools import combinations
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


def candidate_v_whom(germ: QuasiHomogeneousGerm, lam, k: int):
    """Candidate level-lam filtration generators of a weight-1
    quasi-homogeneous isolated singularity, truncated at t-order k: the
    minimal monomials of weighted degree >= lam + j - |w| at layer j, with
    operator budget k - j."""
    lam = Fraction(lam)
    if lam > 1:
        raise PreconditionError("levels above 1 are reached by the t-action",
                                hypothesis="lam <= 1")
    out = []
    for j in range(k + 1):
        ideal = graded_ideal(germ.w, lam + j - germ.w.total, strict=False)
        for g in ideal.gens:
            out.append((BfElement.from_poly(Polynomial.monomial(g), j), k - j))
    return out


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
            return [act("t", u, self.germ.f) for u in inner]
        out = []
        for j in range(self.jmax + 1):
            ideal = graded_ideal(self.germ.w, lam + j - self.germ.w.total, strict)
            for g in ideal.gens:
                out.append(BfElement.from_poly(Polynomial.monomial(g), j))
        return out

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
        strict = l < top
        out = []
        for j in range(budget + 1):
            ideal = graded_ideal(self.germ.w, lam + j - self.germ.w.total, strict)
            for g in ideal.gens:
                out.append((BfElement.from_poly(Polynomial.monomial(g), j),
                            budget - j))
        return out


def verify_v_axioms(family, f: Polynomial, grid,
                    bounds: Bounds = DEFAULT_BOUNDS) -> dict:
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
                ("t", act("t", gen, f), span_up),
                ("dt", act("dt", gen, f), span_down),
            ]
            u = gen
            for _ in range(n):
                u = apply_s_shifted(u, f, gam)
            entries.append((f"(s+{fmt_rational(gam)})^{n}", u, span_strict))
            for name, elt, span in entries:
                verdict = "member"
                if not elt.is_zero():
                    try:
                        verdict = bf_membership(elt, span).verdict
                    except WindowExceeded:
                        verdict = "window-exceeded"
                report["checks"].append({
                    "level": fmt_rational(gam), "generator": gi,
                    "axiom": name, "verdict": verdict})
                if verdict == "window-exceeded":
                    report["skipped"] += 1
                elif verdict != "member":
                    report["all_member"] = False
    return report


def kernel_filtration_check(f: Polynomial, lam, l: int, kernel_gens,
                            strict_gens,
                            bounds: Bounds = DEFAULT_BOUNDS) -> SpanCertificate:
    """Certify (s+lam)^l * g lies in the strict span for every kernel
    generator g."""
    lam = Fraction(lam)
    span = bf_span(strict_gens, f, bounds, track=True)
    witnesses = []
    for gi, gen in enumerate(kernel_gens):
        g = gen[0] if isinstance(gen, tuple) else gen
        u = g
        for _ in range(l):
            u = apply_s_shifted(u, f, lam)
        if u.is_zero():
            witnesses.append({"generator": gi, "witness": []})
            continue
        try:
            cert = bf_membership(u, span)
        except WindowExceeded:
            return SpanCertificate("not-found-at-bound", bounds.to_json(),
                                   detail=f"generator {gi} exceeds the window")
        if not cert.is_member():
            return SpanCertificate("not-found-at-bound", bounds.to_json(),
                                   detail=f"generator {gi} not reduced")
        witnesses.append({"generator": gi, "witness": cert.witness})
    return SpanCertificate("member", bounds.to_json(), witness=witnesses)


# ---------------------------------------------------------------------------
# comparison maps into the twisted localization module


def q_poch(j: int, beta: Fraction) -> Fraction:
    """Q_j(beta) = beta (beta+1) ... (beta+j-1), empty product 1."""
    out = Fraction(1)
    for i in range(j):
        out *= beta + i
    return out


def psi_map(u: BfElement, beta, f: Polynomial):
    """Image of sum g_j dt^j under the layer-collapse into the module twisted
    by beta more: the list of (g_j * Q_j(beta), pole step j)."""
    beta = Fraction(beta)
    out = []
    for j in sorted(u.layers):
        q = q_poch(j, beta)
        p = u.layers[j].scale(q)
        if not p.is_zero():
            out.append((p, j))
    return out


def phi_shift(u: BfElement, f: Polynomial) -> BfElement:
    """Shift a twist-alpha element to the untwisted module:
    sum_i sum_{j>=i} g_j f^(i-j) C(j,i) Q_{j-i}(-alpha) dt^i.
    Fails when a required exact division by f does not hold."""
    alpha = u.twist
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
    return BfElement(u.dim, out, Fraction(0))


# ---------------------------------------------------------------------------
# spans inside the twisted localization module


def pole_apply(gamma, g: Polynomial, pole: int, alpha: Fraction,
               f: Polynomial):
    """Apply d^gamma to g * f^(-pole-alpha): returns (numerator, pole').
    Each step: d_i (g f^(-c)) = (d_i(g) f - c g d_i(f)) f^(-c-1)."""
    cur = g
    p = pole
    for i, e in enumerate(gamma):
        df = f.partial(i)
        for _ in range(e):
            cur = cur.partial(i) * f - (cur * df).scale(p + alpha)
            p += 1
    return cur, p


class ModuleSpan:
    """Bounded span inside the twisted localization module: elements are
    polynomials at a fixed pole order, inside a degree window."""

    __slots__ = ("echelon", "pole", "alpha", "xdeg", "n_vectors")

    def __init__(self, pole: int, alpha: Fraction, xdeg: int):
        self.echelon = Echelon()
        self.pole = pole
        self.alpha = alpha
        self.xdeg = xdeg
        self.n_vectors = 0

    def add(self, p: Polynomial):
        if p.is_zero() or p.total_degree() > self.xdeg:
            return
        self.n_vectors += 1
        self.echelon.insert(dict(p.terms))

    def reduce_poly(self, p: Polynomial):
        return self.echelon.reduce(dict(p.terms))


def _twist_shift(alpha_base: Fraction, alpha: Fraction) -> int:
    """The integer by which twist alpha exceeds alpha_base; presentations
    can only be compared when their twists differ by an integer."""
    delta = alpha - alpha_base
    if delta.denominator != 1:
        raise PreconditionError("presentations live in different twists",
                                hypothesis="twists differ by an integer")
    return int(delta)


def presentation_elements(pres: HodgePresentation, f: Polynomial,
                          alpha_base: Fraction, pole_target: int, xdeg: int):
    """All vectors x^beta d^gamma (g f^(-j-alpha)) of a presentation, cleared
    to the common pole (relative to alpha_base); elements whose clearing
    leaves the degree window are skipped.  Yields (polynomial, tag)."""
    shift = _twist_shift(alpha_base, pres.alpha)
    for si, (budget, g, j) in enumerate(pres.summands):
        step = j + shift
        for gamma in monomials_upto_degree(f.dim, budget):
            num, p = pole_apply(gamma, g, step, alpha_base, f)
            if p > pole_target or num.is_zero():
                continue
            num = num * f ** (pole_target - p)
            deg = num.total_degree()
            if deg > xdeg:
                continue
            for beta in monomials_upto_degree(f.dim, xdeg - deg):
                yield num.mul_mono(beta), (si, gamma, beta)


def _module_span(vectors, pole: int, alpha: Fraction, xdeg: int) -> ModuleSpan:
    """Span of the polynomials of (polynomial, tag) pairs."""
    span = ModuleSpan(pole, alpha, xdeg)
    for p, _ in vectors:
        span.add(p)
    return span


def presentation_span(pres: HodgePresentation, f: Polynomial,
                      alpha_base: Fraction, pole_target: int,
                      xdeg: int) -> ModuleSpan:
    return _module_span(
        presentation_elements(pres, f, alpha_base, pole_target, xdeg),
        pole_target, alpha_base, xdeg)


def _verdict(name: str, count: int, expect_nonempty: bool):
    """A passing direction over count source vectors.  With expect_nonempty,
    an empty source family counts as inconclusive (guards against vacuous
    verdicts when the window is too small to represent anything)."""
    if expect_nonempty and count == 0:
        return False, {"direction": name,
                       "failed_at": "window too small to represent anything"}
    return True, {"direction": name, "vectors": count}


def _cross_containment(name: str, source_vectors, source_span: ModuleSpan,
                       target_span: ModuleSpan, expect_nonempty: bool = False):
    """Report the first source vector outside the target span, or the vector
    count.  source_span is the span of the source vectors (all nonzero and
    inside the window); only its echelon rows are reduced, as they span the
    same space, so the vectors are scanned only to name the first failure."""
    if not any(target_span.echelon.reduce(row)[0]
               for row, _ in source_span.echelon.rows.values()):
        return _verdict(name, source_span.n_vectors, expect_nonempty)
    for p, tag in source_vectors:
        residual, _ = target_span.reduce_poly(p)
        if residual:
            return False, {"direction": name, "failed_at": repr(tag)}
    raise InternalCheckFailed(f"{name}: a row of the source span is not "
                              "contained but every source vector is")


def _mutual_containment(first, second):
    """Two-sided containment of the sides (name, vectors, span,
    expect_nonempty): the results of "first in second" and "second in first".
    Once the first holds, equal ranks make the spans equal, so the second
    needs no reduction; its vectors are then never read."""
    name1, vectors1, span1, nonempty1 = first
    name2, vectors2, span2, nonempty2 = second
    d1 = _cross_containment(name1, vectors1, span1, span2, nonempty1)
    if d1[0] and span1.echelon.rank == span2.echelon.rank:
        return d1, _verdict(name2, span2.n_vectors, nonempty2)
    return d1, _cross_containment(name2, vectors2, span2, span1, nonempty2)


def _elements_and_span(pres: HodgePresentation, f: Polynomial,
                       alpha_base: Fraction, pole_target: int, xdeg: int):
    """The element list of a presentation and its span, built from the list
    once, so that a failing containment can scan the elements again."""
    elements = list(presentation_elements(pres, f, alpha_base, pole_target,
                                          xdeg))
    return elements, _module_span(elements, pole_target, alpha_base, xdeg)


def presentations_equal(p1: HodgePresentation, p2: HodgePresentation,
                        f: Polynomial,
                        bounds: Bounds = DEFAULT_BOUNDS) -> SpanCertificate:
    """Two-sided bounded containment between the spans the presentations
    denote, after aligning twists (which must differ by an integer)."""
    alpha_base = p1.alpha
    pole_target = max(p1.max_pole(),
                      p2.max_pole() + _twist_shift(alpha_base, p2.alpha), 0)

    def side(name, p):
        return (name,
                *_elements_and_span(p, f, alpha_base, pole_target,
                                    bounds.xdeg),
                bool(p.summands))

    (ok21, d21), (ok12, d12) = _mutual_containment(
        side("second-in-first", p2), side("first-in-second", p1))
    if ok12 and ok21:
        return SpanCertificate("member", bounds.to_json(),
                               witness=[d12, d21])
    return SpanCertificate("not-found-at-bound", bounds.to_json(),
                           detail=str([d for ok, d in ((ok12, d12), (ok21, d21))
                                       if not ok]))


def reduce_presentation(pres: HodgePresentation, f: Polynomial,
                        bounds: Bounds = DEFAULT_BOUNDS) -> HodgePresentation:
    """Greedy minimalization at bounds: drop any summand whose generator
    already lies in the bounded span of the summands kept so far (low pole
    steps and low degrees first).  Never changes the denoted span."""
    pole_target = max((j for _, _, j in pres.summands), default=0)
    span = ModuleSpan(pole_target, pres.alpha, bounds.xdeg)
    kept = []
    order = sorted(pres.summands,
                   key=lambda t: (t[2], t[1].total_degree(),
                                  grlex_key(t[1].leading_monomial())))
    for budget, g, j in order:
        vec = g * f ** (pole_target - j)
        if (vec.total_degree() <= bounds.xdeg and kept
                and not span.reduce_poly(vec)[0]):
            continue
        kept.append((budget, g, j))
        single = HodgePresentation.build(pres.alpha, pres.dim, [(budget, g, j)])
        for p, _ in presentation_elements(single, f, pres.alpha,
                                          pole_target, bounds.xdeg):
            span.add(p)
    return HodgePresentation.build(pres.alpha, pres.dim, kept)


def presentation_contained(p1: HodgePresentation, p2: HodgePresentation,
                           f: Polynomial,
                           bounds: Bounds = DEFAULT_BOUNDS) -> SpanCertificate:
    """One-sided bounded containment: every vector of the first presentation
    reduces inside the span of the second."""
    alpha_base = p1.alpha
    pole_target = max(p1.max_pole(),
                      p2.max_pole() + _twist_shift(alpha_base, p2.alpha), 0)
    span2 = presentation_span(p2, f, alpha_base, pole_target, bounds.xdeg)
    ok, d = _cross_containment(
        "first-in-second",
        *_elements_and_span(p1, f, alpha_base, pole_target, bounds.xdeg),
        span2, expect_nonempty=bool(p1.summands))
    if ok:
        return SpanCertificate("member", bounds.to_json(), witness=[d])
    return SpanCertificate("not-found-at-bound", bounds.to_json(),
                           detail=str(d))


def dspans_equal(p1: HodgePresentation, p2: HodgePresentation, f: Polynomial,
                 bounds: Bounds = DEFAULT_BOUNDS) -> SpanCertificate:
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
            found = False
            windowed = False
            for depth in range(base, max(tgt.max_pole(), base) + 1):
                vec = g * f ** (depth - j)
                if vec.total_degree() > bounds.xdeg:
                    windowed = True
                    break
                if depth not in spans:
                    spans[depth] = presentation_span(
                        tgt, f, alpha_base, depth, bounds.xdeg)
                if not spans[depth].reduce_poly(vec)[0]:
                    found = True
                    break
            if not found:
                why = "exceeds the window" if windowed else "not reduced"
                return SpanCertificate(
                    "not-found-at-bound", bounds.to_json(),
                    detail=f"{name}: generator {gi} {why}")
        directions.append({"direction": name, "generators": len(src)})
    return SpanCertificate("member", bounds.to_json(), witness=directions)


# ---------------------------------------------------------------------------
# the master cross-check


def _kernel_candidates(kind: str, obj, alpha: Fraction, k: int, l: int,
                       bounds: Bounds):
    if kind == "snc":
        fam = SncVFamily(obj, bounds.dt)
        return fam.kernel_gens(alpha, l, k)
    if kind == "whom":
        fam = WhomVFamily(obj, bounds.dt)
        return fam.kernel_gens(alpha, l, k)
    raise ValueError(f"unknown source {kind!r}")


def _closed_form(kind: str, obj, alpha: Fraction, k: int, l: int):
    if kind == "snc":
        return snc_hodge_weight(obj, alpha, k, l)
    return whom_hodge_weight(obj, alpha, k, l)


def crosscheck_hodge_weight(kind: str, obj, alpha, k: int, l: int,
                            bounds: Bounds = DEFAULT_BOUNDS) -> SpanCertificate:
    """Master cross-check: the layer-collapse image of the bounded
    kernel-filtration candidates must coincide, within the window, with the
    closed-form Hodge/weight presentation.  Certifies containment both ways.
    """
    alpha = Fraction(alpha)
    f = obj.polynomial() if kind == "snc" else obj.f
    pres = _closed_form(kind, obj, alpha, k, l)
    gens = _kernel_candidates(kind, obj, alpha, k, l, bounds)

    pole_target = max(pres.max_pole(),
                      max((g.max_layer() + b for g, b in gens), default=0))

    # oracle-side vectors: bounded operators in the graph module, collapsed
    oracle_vectors = []
    for gi, (gen, budget) in enumerate(gens):
        budget = min(budget, bounds.order)
        if budget < 0:
            continue
        images = _derivative_images(gen, f, budget)
        for gamma, img in sorted(images.items(), key=lambda kv: grlex_key(kv[0])):
            if img.is_zero() or img.max_layer() > bounds.dt:
                continue
            num = Polynomial.zero(f.dim)
            ok = True
            for p, j in psi_map(img, alpha, f):
                if j > pole_target:
                    ok = False
                    break
                num = num + p * f ** (pole_target - j)
            if not ok or num.is_zero():
                continue
            deg = num.total_degree()
            if deg > bounds.xdeg:
                continue
            for beta in monomials_upto_degree(f.dim, bounds.xdeg - deg):
                oracle_vectors.append((num.mul_mono(beta), (gi, gamma, beta)))

    oracle_span = _module_span(oracle_vectors, pole_target, alpha, bounds.xdeg)
    closed_span = presentation_span(pres, f, alpha, pole_target, bounds.xdeg)

    (ok_oc, d_oc), (ok_co, d_co) = _mutual_containment(
        ("oracle-in-closed-form", oracle_vectors, oracle_span, bool(gens)),
        ("closed-form-in-oracle",
         presentation_elements(pres, f, alpha, pole_target, bounds.xdeg),
         closed_span, bool(pres.summands)))
    if ok_oc and ok_co:
        return SpanCertificate("member", bounds.to_json(), witness=[d_oc, d_co])
    return SpanCertificate("not-found-at-bound", bounds.to_json(),
                           detail=str([d for ok, d in ((ok_oc, d_oc),
                                                       (ok_co, d_co)) if not ok]))
