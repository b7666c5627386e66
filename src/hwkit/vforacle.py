"""The independent verification engine.

Everything here computes inside truncations of the graph-embedding module
(polynomial coefficients, bounded partial-derivative order, bounded
dt-layer) or of the twisted localization module (polynomial numerators over
a fixed pole order), using exact linear algebra only.  Verdicts are
three-valued: "member" always carries a witness that re-evaluates exactly;
"not-found-at-bound" is never treated as a refutation.

An element of the graph-embedding module (`BfElement`) holds int numerators
keyed by its x exponents with the dt power appended, over one den, on the
base `exactalg.SparseTerms` it shares with `Polynomial`.  Window vectors and
b-function columns are built in integer form: numerators {m: int}, or
layers {j: {m: int}} (dt layers or s-powers), over an int den > 0; an
element's numerators are grouped into such layers once, to be packed.
f = F/df and alpha = a/q in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch, InternalCheckFailed, PreconditionError
from .exactalg import (Polynomial, SparseTerms, combine_terms,
                       fmt_rational, graded_ideal, grlex_key, mul_terms,
                       partial_terms, power_factors)
from .bsdata import BFunction, RootMultiset
from .linalg import Echelon
from .snc import HodgePresentation, SncDivisor, snc_hodge_weight
from .weyl import (KeyPacking, ShiftTable, WeylOperator, apply_to_twisted,
                   d_part_images, graded_operator_basis)
from .whom import QuasiHomogeneousGerm, whom_hodge_weight


class Bounds(NamedTuple):
    """Truncation window: operator order, x-degree, dt-layer order.  No
    field has a default: the CLI or the caller sets all three."""

    order: int
    xdeg: int
    dt: int

    def to_json(self):
        return {"order": self.order, "xdeg": self.xdeg, "dt": self.dt}

    def doubled(self) -> "Bounds":
        return Bounds(self.order * 2, self.xdeg * 2, self.dt * 2)


class SpanCertificate(NamedTuple):
    """Outcome of a bounded membership/equality test."""

    verdict: str  # "member" | "not-found-at-bound"
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


def _layers(nums: dict) -> dict:
    """The numerators {m + (j,): c} of an element grouped into its dt layers
    {j: {m: c}}, the form a KeyPacking packs."""
    out = {}
    for key, c in nums.items():
        out.setdefault(key[-1], {})[key[:-1]] = c
    return out


class BfElement(SparseTerms):
    """An element sum_j g_j dt^j of the graph-embedding module, applied to
    its generator: the numerators nums {x exponents + (j,): int} over den,
    the dt power j last in each key."""

    __slots__ = ()

    def __init__(self, dim: int, nums, den: int = 1):
        super().__init__(dim, nums, den)
        if bad := [k for k in self.nums if len(k) != dim + 1 or k[-1] < 0]:
            raise DimensionMismatch(f"key {bad[0]} is no x exponents in "
                                    f"dimension {dim} and a dt power")

    @classmethod
    def from_poly(cls, p: Polynomial, layer: int = 0):
        """p * dt^layer."""
        return cls(p.dim, {m + (layer,): c for m, c in p.nums.items()}, p.den)

    def max_layer(self) -> int:
        return max((key[-1] for key in self.nums), default=0)

    def _factors(self, key) -> str:
        j = key[-1]
        dt = ["dt" if j == 1 else f"dt^{j}"] if j else []
        return "*".join(power_factors("x", key[:-1]) + dt)

    def t(self, f: Polynomial) -> "BfElement":
        """t u = f u - du/d(dt): g dt^j -> f g dt^j - j g dt^(j-1)."""
        fnum = {m + (0,): c for m, c in f.nums.items()}
        return BfElement(self.dim, combine_terms(
            mul_terms(self.nums, fnum), 1,
            partial_terms(self.nums, self.dim), -f.den), self.den * f.den)

    def dt(self) -> "BfElement":
        """dt: g dt^j -> g dt^(j+1)."""
        return BfElement(self.dim, mul_terms(
            self.nums, {(0,) * self.dim + (1,): 1}), self.den)

    def d_images(self, gammas, f: Polynomial, dt: int) -> list:
        """(gamma, layers, den) for the d-parts gamma of gammas (see
        d_part_images) whose image d^gamma self is nonzero and has no layer
        above dt, its numerators grouped into layers {j: {m: int}} over den.
        d_i u = d_i(u) - d_i(f) dt u, so with f = F/df, d_i: N/den ->
        (df d_i(N) - d_i(F) dt N) / (df den).  bf_span and the cross-check's
        oracle take their graph-module images from it: one place makes the
        dt skip."""
        df = f.den
        dfdt = [{m + (1,): c for m, c in partial_terms(f.nums, i).items()}
                for i in range(self.dim)]

        def step(image, i):
            nums, den = image
            return combine_terms(partial_terms(nums, i), df,
                                 mul_terms(nums, dfdt[i]), -1), den * df

        images = d_part_images(gammas, (self.nums, self.den), step)
        return [(gamma, _layers(nums), den)
                for gamma, (nums, den) in images.items()
                if nums and max(key[-1] for key in nums) <= dt]


def apply_s_shifted(u: BfElement, f: Polynomial, shift: Fraction) -> BfElement:
    """(s + shift) * u, with s = -dt t."""
    return u.t(f).dt().scale(-1) + u.scale(shift)


# ---------------------------------------------------------------------------
# b-function certification


def verify_bfunction(f: Polynomial, b: BFunction, order_bound: int,
                     xdeg_bound: int) -> SpanCertificate:
    """Certify the functional equation P(s) f^(s+1) = b(s) f^s by solving the
    exact linear system for P over the bounded operator basis (s adjoined),
    then refute every maximal proper divisor of b at the same bounds.

    Only the columns of graded_operator_basis are built.  For each weight w
    making f homogeneous, the column of x^b d^g s^j, cleared to a common
    pole, is w-homogeneous of degree w.(b - g) plus a shared
    constant.  So the elimination is block-diagonal, and b(s) f^s and its
    divisors lie in the kept block w.(b - g) = -deg_w f, whose rows,
    residuals and witness are those of the full system.  The kept-block part
    of a solution is itself one: not-found-at-bound covers the whole window.
    On the cusp, 5 of 300 columns are built at order 3, xdeg 4.  A basis
    operator x^b d^g s^j has j <= order_bound - |g|, and d^g adds at most
    |g| to the s-degree; so when deg b exceeds order_bound, not-found-at-bound
    comes before any build.

    An image d^g f^(s+1) is pole_apply's (layers, den, pole) at the twist
    -1 - s: sum_j s^j N_j/den times f^(s+1-pole), at its natural pole |g|,
    one pole_apply step per d-part; nothing is divided out.  Images are
    built for the kept d-parts only, and each s-layer of every column and
    right-hand side is cleared (clear_to_pole) to pole_target, the largest
    kept |g| (at least 1, the pole of b(s) f^s).
    Any common pole gives the same solve: another one multiplies every
    column and every right-hand side by one power of f, a linear and one to
    one map, and no window truncates a column (the radix is sized from the
    built columns).  So the same columns gain rank, hence every divisor's
    verdict is the same, and b(s) f^s has the same unique coordinates in
    them, hence the same witness.

    The witness P is re-evaluated by apply_to_twisted, which shares only
    exactalg's term kernels with the columns: P F^(s+1) = H/aden F^(s+1-G)
    with f = F/df, and b(s) = bnum(s)/rden, so the equation, times
    df^(s+1) aden rden, reads H rden F^(s+1-G) = df bnum(s) aden F^s.  The
    power F^(s+1-G) or F^s, whichever is lower, is cancelled, and
    H rden F^max(0, 1-G) == df bnum(s) aden F^max(0, G-1) is checked in
    Z[x, s].  The cancelling is exact: s is an indeterminate, so F^s is a
    free generator over Q[x, s][1/F], and multiplying by a power of F is
    one to one there, Q[x, s] being a domain.

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
    fnum, df = f.nums, f.den
    # d^g f^(s+1) for the kept d-parts g, f^(s+1) being the pole 0 of the
    # twist -1 - s; x^b and s^j only multiply the numerator
    d_parts = {g for _, g, _ in keys}
    images = pole_apply(d_parts, ({0: {(0,) * dim: 1}}, 1), 0, (-1, -1), f)
    pole_target = max([sum(g) for g in d_parts] + [1])

    def cleared(layers, den, pole):
        """The layers over den, each written over the pole pole_target."""
        return ({j: clear_to_pole({pole: num}, den, f, pole_target)[0]
                 for j, num in layers.items()},
                den * df ** (pole_target - pole))

    def rhs_layers(roots: RootMultiset):
        """The section roots(s) * f^s = roots(s) * f^(s+1) / f, cleared."""
        nums, den = roots.coefficients()
        return cleared({j: {(0,) * dim: c} for j, c in nums.items() if c},
                       den, 1)

    columns = {g: cleared(*images[g]) for g in d_parts}
    rhs = rhs_layers(b)
    # x^b adds at most xdeg_bound to an exponent of a column numerator; a
    # divisor's numerator has the degree of b's, that of f^(pole_target - 1)
    largest = max((sum(m) for layers, _ in [*columns.values(), rhs]
                   for terms in layers.values() for m in terms), default=0)
    packing = KeyPacking(dim, 1 + largest + xdeg_bound, xdeg_bound)
    vectors = {g: (packing.pack_terms(layers), den)
               for g, (layers, den) in columns.items()}
    ech = Echelon()
    for idx, (xb, g, j) in enumerate(keys):
        vec, den = vectors[g]
        shift = j * packing.top + packing.shift(xb)
        ech.insert({k + shift: c for k, c in vec.items()}, den, {idx: den})

    residual, carried, den = ech.reduce(packing.pack_terms(rhs[0]), rhs[1])
    if residual:
        return not_found
    # distinct basis keys: one term per index
    operator = WeylOperator(dim, {keys[idx]: c for idx, c in carried.items()},
                            den)
    # re-evaluate the witness exactly, as an identity in Z[x, s] (docstring)
    h, aden, top = apply_to_twisted(operator, f, 1)
    bnum, rden = b.coefficients()
    got = {j: {m: rden * c for m, c in t.items()} for j, t in h.items()}
    want = {j: {(0,) * dim: df * aden * c} for j, c in bnum.items()}

    def times_f(layers):
        return {j: {m: c for m, c in mul_terms(t, fnum).items() if c}
                for j, t in layers.items()}

    if not top:
        got = times_f(got)
    for _ in range(top - 1):
        want = times_f(want)
    if got != want:
        raise InternalCheckFailed("witness failed re-evaluation")

    divisors = []
    for r in b.sorted_roots():
        div = RootMultiset({q: m - (q == r) for q, m in b.roots.items()})
        layers, den = rhs_layers(div)
        res_d = ech.reduce(packing.pack_terms(layers), den)[0]
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
    return tuple(max(math.ceil(lam * ai) - 1, 0) if ai else 0 for ai in a)


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
        self.f = d.polynomial()
        self.jmax = jmax
        # smallest positive grading step: 1/lcm of the nonzero exponents
        self.eps = Fraction(1, 2 * math.lcm(*[ai for ai in d.a if ai]))

    def gens(self, lam) -> list:
        return candidate_v_snc(self.d.a, lam, self.jmax)

    def strict_gens(self, lam) -> list:
        return candidate_v_snc(self.d.a, Fraction(lam) + self.eps, self.jmax)

    def nilpotency(self, lam) -> int:
        return self.d.m_alpha(lam) if lam > 0 else 0

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
        self.f = germ.f
        self.jmax = jmax

    def _graded_gens(self, lam, strict: bool) -> list:
        lam = Fraction(lam)
        if lam > 1:
            inner = self._graded_gens(lam - 1, strict)
            return [u.t(self.f) for u in inner]
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


def bf_span(gens, f: Polynomial, bounds: Bounds,
            table: ShiftTable) -> WindowSpan:
    """The span of {x^beta d^gamma gen} over the BfElements gens, with
    |gamma| at most bounds.order, inside the (xdeg, dt) window of bounds,
    tagged (generator, gamma, beta); its shift sets come from table, whose
    radix must be bounds.xdeg + 1."""
    if table.packing.radix != bounds.xdeg + 1:
        raise InternalCheckFailed("shift table of another packing")
    span = WindowSpan(f, 0, bounds.dt, table)
    gammas = list(table.betas(bounds.order))
    for gi, gen in enumerate(gens):
        for gamma, layers, den in gen.d_images(gammas, f, bounds.dt):
            span.add_layers(layers, den, (gi, gamma))
    return span


def verify_v_axioms(family, grid, bounds: Bounds) -> dict:
    """Generator-wise bounded checks of the filtration axioms of family, a
    filtration of family.f, on a grid of levels: t maps level gam into
    gam+1, dt into gam-1, and (s+gam)^N kills generators into the strict
    part, N the claimed nilpotency order.

    Images that do not fit inside the truncation window are reported as
    "window-exceeded" and counted separately; all_member reflects only the
    checks that ran.  A failed check is always "not-found-at-bound".
    """
    report = {"checks": [], "all_member": True, "skipped": 0}
    f = family.f
    table = ShiftTable(f.dim, bounds.xdeg)  # one for every span of the grid
    for gam in grid:
        gam = Fraction(gam)
        span_up = bf_span(family.gens(gam + 1), f, bounds, table)
        span_down = bf_span(family.gens(gam - 1), f, bounds, table)
        span_strict = bf_span(family.strict_gens(gam), f, bounds, table)
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
                reduced = span.reduce(elt)
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
    span = bf_span(strict_gens, f, bounds, ShiftTable(f.dim, bounds.xdeg))
    members = []
    for gi, u in enumerate(kernel_gens):
        for _ in range(l):
            u = apply_s_shifted(u, f, lam)
        reduced = span.reduce(u)
        if reduced is None or reduced[0]:
            why = "exceeds the window" if reduced is None else "not reduced"
            return SpanCertificate("not-found-at-bound", bounds.to_json(),
                                   detail=f"generator {gi} {why}")
        members.append(u)
    witnesses = [{"generator": gi, "witness": [
        {"generator": g, "dgamma": list(gamma), "xbeta": list(beta),
         "coeff": fmt_rational(Fraction(combo[g, gamma, beta], den))}
        for g, gamma, beta in sorted(combo, key=repr)]}
        for gi, (combo, den) in enumerate(span.witness(members))]
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
    the denominator of beta and top the highest layer.  With beta = a/q,
    Q_j(beta) * q^top is the integer (a)(a+q)...(a+(j-1)q) * q^(top-j),
    one running product over the layers."""
    a, q = beta.numerator, beta.denominator
    top = max(layers, default=0)
    parts, poch, done = {}, 1, 0
    for j in sorted(layers):
        for i in range(done, j):
            poch *= a + i * q
        done = j
        c = poch * q ** (top - j)
        if c:
            parts[j] = {m: v * c for m, v in layers[j].items()}
    return parts, den * q ** top


def phi_shift(u: BfElement, alpha, f: Polynomial) -> BfElement:
    """Shift an element of the module twisted by alpha to the untwisted one:
    sum_i sum_{j>=i} g_j f^(i-j) C(j,i) Q_{j-i}(-alpha) dt^i.
    Fails when a required exact division by f does not hold."""
    alpha = Fraction(alpha)
    out = BfElement.zero(u.dim)
    for j, num in _layers(u.nums).items():
        layer = Polynomial(u.dim, num, u.den)
        for i in range(j + 1):
            c = math.comb(j, i) * q_poch(j - i, -alpha)
            if not c:
                continue
            g = layer.scale(c)
            for _ in range(j - i):
                g = g.div_exact(f)
                if g is None:
                    raise PreconditionError(
                        "pole clearing failed: coefficient not divisible by f",
                        hypothesis="layers lie in the polynomial ring after "
                                   "clearing")
            out = out + BfElement.from_poly(g, i)
    return out


# ---------------------------------------------------------------------------
# window spans of the graph-embedding and twisted localization modules


def pole_apply(gammas, start: tuple, pole: int, alpha: tuple,
               f: Polynomial) -> dict:
    """Map each gamma of gammas to d^gamma of sum_j s^j N_j/den
    f^(-pole-alpha0-alpha1 s), start = ({j: N_j}, den) and alpha =
    (alpha0, alpha1), in integer form (layers, den', pole + |gamma|), zero
    layers dropped, one step per gamma (d_part_images).  With f = F/df in
    integers and the twist (a0 + a1 s)/q, d_i gives layer j = q F d_i(N_j) -
    (pq+a0) N_j d_i(F) - a1 N_(j-1) d_i(F) over den q df at pole p + 1.
    The spans and ppd pass alpha1 = 0, so no layer above the start's is
    built; verify_bfunction passes -1 - s, f^(s+1) at the pole 0."""
    fnum, df = f.nums, f.den
    dfs = [partial_terms(fnum, i) for i in range(len(next(iter(fnum))))]
    q = math.lcm(*(a.denominator for a in alpha))
    a0, a1 = (a.numerator * (q // a.denominator) for a in alpha)

    def step(image, i):
        layers, den, p = image
        nds = {j: mul_terms(num, dfs[i]) for j, num in layers.items()}
        out = {j: combine_terms(mul_terms(partial_terms(num, i), fnum), q,
                                nds[j], -(p * q + a0))
               for j, num in layers.items()}
        if a1:
            for j, nd in nds.items():
                out[j + 1] = combine_terms(out.get(j + 1, {}), 1, nd, -a1)
        return {j: t for j, t in out.items() if t}, den * q * df, p + 1

    return d_part_images(gammas, (*start, pole), step)


def clear_to_pole(parts, den: int, f: Polynomial, pole: int) -> tuple:
    """The parts {p: num} over den, each num/den f^(-p), written over one
    pole in integer form (numerator, den'), zero numerators skipped: cleared
    by Horner's rule on F of f = F/df in integers, one product by F per pole
    step, over den' = den df^(pole - lo), lo the lowest pole of a part."""
    by_pole = {p: num for p, num in parts.items() if num}
    if max(by_pole, default=pole) > pole:
        raise ValueError("a part lies above the pole")
    fnum, df = f.nums, f.den
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
    """A bounded span: the window vectors x^beta * v of its elements v,
    each packed from its layers {j: numerator} over one den, for every beta
    with deg v + |beta| <= xdeg.  Graph-module spans (bf_span) have dt
    layers up to dt; twisted-module spans have dt 0 and clear each element
    to the pole pole_target.  The span owns its (xdeg, dt) window:
    add_layers skips an element outside it, add_summand builds no image
    above pole_target, and reduce, contains and witness answer None outside
    it.

    Its coordinates are the layered keys of the packing of the caller's
    ShiftTable, and xdeg is that packing's radix less one, so x^beta adds
    the packed beta to every key.  Spans compared with each other share
    xdeg.  The shift codes and d-parts come from the table the spans of a
    job share.  Each element is packed and queued once, as (terms, den, tag,
    top, bound, fresh): shifted by the codes of degree <= bound.  The record
    maps each S of _direction to the positions k = top + code taken (a
    shift moves only k); fresh holds those it lacked (None: all), and a
    vector it holds is a multiple of a queued one.  The echelon is built
    from the queue, in queue order, when a query reads it; its rows, tags
    (the tag of each row's vector, in rank-gain order) and n_vectors are
    those of inserting every vector.  No companions: witness builds them.
    """

    __slots__ = ("pole_target", "xdeg", "dt", "packing", "n_vectors",
                 "_f", "_echelon", "_tags", "_queue", "_built",
                 "_table", "_taken")

    def __init__(self, f: Polynomial, pole_target: int, dt: int,
                 table: ShiftTable):
        if table.packing.dim != f.dim:
            raise InternalCheckFailed("shift table of another packing")
        self._f = f
        self.pole_target = pole_target
        self.xdeg = table.packing.radix - 1
        self.dt = dt
        self.packing = table.packing
        self.n_vectors = 0
        self._echelon, self._tags, self._queue = Echelon(), [], []
        self._built = 0  # queue entries inserted into _echelon
        self._table = table
        self._taken = {}   # the record: S -> positions k taken

    @property
    def echelon(self) -> Echelon:
        for vec, den, tag, beta in self._vectors(self._built):
            if self._echelon.insert(vec, den) is None:
                self._tags.append(tag + (beta,))
        self._built = len(self._queue)
        return self._echelon

    def _vectors(self, start: int = 0):
        """(vector, den, tag, beta) of each queued vector x^beta * terms/den,
        tagged tag + (beta,), from queue entry start on, in queue order."""
        table = self._table
        for terms, den, tag, top, bound, fresh in self._queue[start:]:
            for code, beta in zip(table.codes(bound), table.betas(bound)):
                if fresh is None or top + code in fresh:
                    yield ({m + code: c for m, c in terms.items()}, den, tag,
                           beta)

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
        {j: {m: c}}, in one pass; None outside the (xdeg, dt) window, where
        keys alias."""
        if any(j > self.dt for j in layers):
            return None
        places, top = self.packing.xplaces, self.packing.top
        out, deg = {}, -1
        for j, terms in layers.items():
            for m, c in terms.items():
                out[j * top + sum(map(mul, m, places))] = c
                deg = max(deg, sum(m))
        return (out, deg) if deg <= self.xdeg else None

    def reduce(self, u: BfElement):
        """Echelon.reduce of the element u, the (residual, carried, den)
        triple; None when it leaves the window."""
        packed = self._packed(_layers(u.nums))
        return packed and self.echelon.reduce(packed[0], u.den)

    def witness(self, members: list) -> list:
        """For each element of members, the combination (in integer form,
        ({tag + (beta,): int}, den)) of window vectors that gives it, from
        one echelon of the queued vectors, each carrying its tag as its
        companion, built on each call; None when it leaves the window or is
        not in the span.  The record skipped only dependent inserts, which
        change no row and no companion, so each combination is that of
        inserting every vector."""
        ech = Echelon()
        for vec, den, tag, beta in self._vectors():
            ech.insert(vec, den, {tag + (beta,): den})
        out = []
        for u in members:
            packed = self._packed(_layers(u.nums))
            reduced = packed and ech.reduce(packed[0], u.den)
            out.append(None if reduced is None or reduced[0] else
                       reduced[1:])
        return out

    def contains(self, g: Polynomial, pole: int) -> bool | None:
        """Whether g * f^(-pole), cleared to pole_target, lies in the span
        (None outside the window); no scalar changes that, so dens drop."""
        packed = self._packed({0: clear_to_pole(
            {pole: g.nums}, 1, self._f, self.pole_target)[0]})
        return packed and not self.echelon.reduce(packed[0], 1)[0]

    def insert(self, terms: dict, den: int, tag, bound: int):
        """Queue and record the vectors x^beta * terms/den (integer
        numerators, packed keys), tagged tag + (beta,), for the betas of
        degree <= bound whose position the record lacks.  Each counts in
        n_vectors, a skipped one as the dependent insert it would be."""
        shape, top = _direction(terms)
        positions = {top + code for code in self._table.codes(bound)}
        taken = self._taken.get(shape)
        if taken is None:  # no position recorded: every shift is fresh
            self._taken[shape], fresh = positions, None
        else:
            fresh = positions - taken
            taken |= fresh
        self.n_vectors += len(positions)
        if fresh is None or fresh:
            self._queue.append((terms, den, tag, top, bound, fresh))

    def add_layers(self, layers: dict, den: int, tag):
        """Add the window vectors of an element given by its layers over den
        (integer form), tagged tag + (beta,); none when it is zero or leaves
        the window.  Keys are packed once, and the pair is shared by every
        shift."""
        packed = self._packed(layers)
        if packed is not None and packed[1] >= 0:
            terms, deg = packed
            self.insert(terms, den, tag, self.xdeg - deg)

    def add(self, parts, den: int, tag):
        """add_layers of the element given by its parts {p: num} over den,
        cleared to pole_target at layer 0; a part above it raises ValueError."""
        num, den = clear_to_pole(parts, den, self._f, self.pole_target)
        self.add_layers({0: num}, den, tag)

    def add_summand(self, si: int, summand, alpha: Fraction):
        """Add the vectors x^beta d^gamma (g f^(-j-alpha)) of the summand
        (budget, g, j), tagged (si, gamma, beta).  d^gamma lands on the pole
        j + |gamma|, so only the d-parts with |gamma| <= pole_target - j are
        built: a grlex prefix, in the order and with the tags of the full
        list."""
        budget, g, j = summand
        gammas = list(self._table.betas(min(budget, self.pole_target - j)))
        images = pole_apply(gammas, ({0: g.nums}, g.den), j, (alpha, 0),
                            self._f)
        for gamma in gammas:
            layers, den, pole = images[gamma]
            self.add({pole: layers.get(0, {})}, den, (si, gamma))


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
                      table: ShiftTable) -> WindowSpan:
    """The span of all vectors x^beta d^gamma (g f^(-j-alpha)) of a
    presentation, cleared to the common pole (relative to alpha_base);
    elements whose clearing leaves the degree window are skipped.  Its
    shift sets come from table."""
    shift = _twist_shift(alpha_base, pres.alpha)
    span = WindowSpan(f, pole_target, 0, table)
    for si, (budget, g, j) in enumerate(pres.summands):
        span.add_summand(si, (budget, g, j + shift), alpha_base)
    return span


def _cross_containment(name: str, source: WindowSpan, target: WindowSpan,
                       expect_nonempty: bool):
    """One direction of a containment, settled by the record or by the rows
    and by nothing else: the tag of the first source vector outside the
    target span, or the vector count.  When the target's record holds the
    source's, every source vector is a multiple of a target vector, and
    nothing is reduced: a certifying check (McConnell, Mehlhorn, Naher and
    Schweitzer, Computer Science Review 5(2), 2011).  Otherwise every source
    row is reduced: a row is its vector minus earlier rows, which span the
    earlier vectors, so the first row outside the target is that of the
    first vector outside it.  With expect_nonempty, a source with no vector
    is inconclusive (guards against vacuous verdicts when the window is too
    small to represent anything); else the direction passes over the
    source's vector count."""
    if not source.within(target):
        for (row, p), tag in zip(source.echelon.basis(), source.tags):
            if target.echelon.reduce(row, p)[0]:
                return False, {"direction": name, "failed_at": repr(tag)}
    if expect_nonempty and source.n_vectors == 0:
        return False, {"direction": name,
                       "failed_at": "window too small to represent anything"}
    return True, {"direction": name, "vectors": source.n_vectors}


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
    cleared to the pole both reach, from one shift table."""
    pole_target = max(p1.max_pole(),
                      p2.max_pole() + _twist_shift(p1.alpha, p2.alpha), 0)
    table = ShiftTable(f.dim, xdeg)
    return tuple(presentation_span(p, f, p1.alpha, pole_target, table)
                 for p in (p1, p2))


def presentations_equal(p1: HodgePresentation, p2: HodgePresentation,
                        f: Polynomial, bounds: Bounds) -> SpanCertificate:
    """Two-sided bounded containment between the spans the presentations
    denote, after aligning twists (which must differ by an integer)."""
    span1, span2 = _common_pole_spans(p1, p2, f, bounds.xdeg)
    d21 = _cross_containment("second-in-first", span2, span1,
                             bool(p2.summands))
    d12 = _cross_containment("first-in-second", span1, span2,
                             bool(p1.summands))
    return _certificate(bounds, [d12, d21])


def reduce_presentation(pres: HodgePresentation, f: Polynomial,
                        bounds: Bounds) -> HodgePresentation:
    """Greedy minimalization at bounds: drop any summand whose generator
    already lies in the bounded span of the summands kept so far (low pole
    steps and low degrees first); a generator outside the window is kept.
    Never changes the denoted span."""
    pole_target = max((j for _, _, j in pres.summands), default=0)
    span = WindowSpan(f, pole_target, 0, ShiftTable(f.dim, bounds.xdeg))
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
    table = ShiftTable(f.dim, bounds.xdeg)  # one for the spans of any depth
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
                        tgt, f, alpha_base, depth, table)
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


# kind -> (candidate family, closed form)
_SOURCES = {
    "snc": (SncVFamily, snc_hodge_weight),
    "whom": (WhomVFamily, whom_hodge_weight),
}


def crosscheck_hodge_weight(kind: str, obj, alpha, k: int, l: int,
                            bounds: Bounds) -> SpanCertificate:
    """Master cross-check: the layer-collapse image of the bounded
    kernel-filtration candidates must coincide, within the window, with the
    closed-form Hodge/weight presentation.  Certifies containment both ways.
    """
    if kind not in _SOURCES:
        raise ValueError(f"unknown source {kind!r}")
    make_family, closed_form = _SOURCES[kind]
    alpha = Fraction(alpha)
    pres = closed_form(obj, alpha, k, l)
    family = make_family(obj, bounds.dt)
    f = family.f
    gens = family.kernel_gens(alpha, l, k)

    pole_target = max(pres.max_pole(),
                      max((g.max_layer() + b for g, b in gens), default=0))

    # oracle side: bounded operators in the graph module, collapsed; both
    # spans take their shift sets from one table
    table = ShiftTable(f.dim, bounds.xdeg)
    oracle_span = WindowSpan(f, pole_target, 0, table)
    for gi, (gen, budget) in enumerate(gens):
        gammas = table.betas(min(budget, bounds.order))
        for gamma, layers, den in gen.d_images(gammas, f, bounds.dt):
            oracle_span.add(*psi_map(layers, den, alpha), (gi, gamma))

    closed_span = presentation_span(pres, f, alpha, pole_target, table)
    return _certificate(bounds, [
        _cross_containment("oracle-in-closed-form", oracle_span, closed_span,
                           bool(gens)),
        _cross_containment("closed-form-in-oracle", closed_span, oracle_span,
                           bool(pres.summands))])
