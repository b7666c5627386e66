"""Weighted-homogeneous isolated-singularity computations: Milnor basis by
graded exact linear algebra, Hodge/weight presentations from the weighted
grading, and the order-zero weighted microlocal multiplier ideals.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (NotIsolatedSingularity, NotQuasiHomogeneous,
                     PreconditionError)
from .exactalg import (Polynomial, WeightVector, graded_ideal, grlex_key,
                       monomials_of_degree, monomials_weighted_upto,
                       scaled_degree, unit_interval_alpha, weighted_degree)
from .linalg import Echelon
from .snc import HodgePresentation
from .weyl import KeyPacking


def check_weight_one(f: Polynomial, w: WeightVector) -> None:
    """Exact check that every monomial of f has weighted degree 1, i.e. the
    Euler field sum w_i x_i d_i fixes f."""
    if f.dim != w.dim:
        raise NotQuasiHomogeneous("weight vector dimension mismatch")
    if f.is_zero():
        raise NotQuasiHomogeneous("zero polynomial")
    for m in f.nums:
        if scaled_degree(m, w) != w.den:
            raise NotQuasiHomogeneous(
                f"monomial {m} has weighted degree {weighted_degree(m, w)} != 1")


def milnor_basis(f: Polynomial, w: WeightVector):
    """Monomial basis of the Jacobian quotient ring: the monomials of
    weighted degree up to the socle degree sum(1 - 2 w_i) that are not
    pivots of the products x^m * d_i f.

    Isolatedness is certified by checking that every monomial of weighted
    degree in (socle, socle + max w] reduces to zero modulo the Jacobian
    ideal; stripping one variable at a time pushes any higher-degree monomial
    into that window, so the certificate covers all degrees above the socle.
    The monomials up to weighted degree socle + max w, the largest queried,
    are enumerated once and bucketed by weighted degree (each bucket in
    grlex order), each degree kept as its int numerator over w.den.  The
    partials are packed once, at a radix above every product exponent, so
    each product x^m * d_i f is a shift, and the pivots are unpacked back.
    The products of all degrees share one Echelon: products of different
    degrees have disjoint supports, so each degree keeps its own pivots.
    """
    check_weight_one(f, w)
    partials = [f.partial(i) for i in range(f.dim)]
    if any(p.constant_term() for p in partials):
        raise NotIsolatedSingularity("f is smooth at the origin")

    den = w.den
    socle = w.dim * den - 2 * sum(w.nums)  # sum(1 - 2 w_i), over den
    by_degree = {}
    for m in monomials_weighted_upto(w, Fraction(socle + max(w.nums), den)):
        by_degree.setdefault(scaled_degree(m, w), []).append(m)
    # a product x^m * (a term of a partial) has no exponent above the
    # largest of the bucketed monomials plus the largest of f
    largest = max(e for ms in by_degree.values() for m in ms for e in m)
    packing = KeyPacking(f.dim, 1 + largest + max(map(max, f.nums)), 0)
    packed_partials = [(packing.pack_terms({0: p.nums}), p.den)
                       for p in partials]

    ech = Echelon()
    for gamma in sorted(by_degree):
        for i, (num, pden) in enumerate(packed_partials):
            if not num:
                continue
            mult_deg = gamma - den + w.nums[i]
            for m in by_degree.get(mult_deg, ()):
                shift = packing.shift(m)
                ech.insert({k + shift: c for k, c in num.items()}, pden)
    pivots = {packing.unpack(code)[0] for code in ech.pivots()}

    basis = []
    for gamma in sorted(by_degree):
        standard = [m for m in by_degree[gamma] if m not in pivots]
        if gamma <= socle:
            basis.extend(standard)
        elif standard:
            raise NotIsolatedSingularity(
                f"monomials of weighted degree {Fraction(gamma, den)} do not "
                "all reduce to 0 modulo the Jacobian ideal")
    basis.sort(key=grlex_key)
    return basis


class QuasiHomogeneousGerm:
    """f quasi-homogeneous of weight 1 with an isolated singularity at the
    origin; construction certifies both properties exactly."""

    __slots__ = ("f", "w", "milnor")

    def __init__(self, f: Polynomial, w: WeightVector):
        self.f = f
        self.w = w
        self.milnor = tuple(milnor_basis(f, w))

    @property
    def dim(self) -> int:
        return self.f.dim

    @property
    def mu(self) -> int:
        return len(self.milnor)


def whom_weight_top(germ: QuasiHomogeneousGerm, alpha) -> int:
    """Top weight offset: 1 for alpha in (0,1), 2 for alpha = 1."""
    alpha = unit_interval_alpha(alpha)
    if germ.dim < 2:
        raise PreconditionError("ambient dimension must be at least 2",
                                hypothesis="n >= 2")
    return 2 if alpha == 1 else 1


def _graded_summands(germ, alpha, k, strict):
    out = []
    for j in range(k + 1):
        ideal = graded_ideal(germ.w, alpha + j - germ.w.total, strict)
        for g in ideal.gens:
            out.append((k - j, Polynomial.monomial(g), j))
    return out


def whom_hodge_weight(germ: QuasiHomogeneousGerm, alpha, k: int,
                      l: int) -> HodgePresentation:
    """Hodge step k of the weight-(n+l) piece, as graded slices:
    sum over j of budget-(k-j) operators on the monomials of weighted degree
    > alpha + j - |w| (strict, for the stratum below the top) or >= (at the
    top stratum), each at pole step j.

    Strata carrying a closed form: l = 0 (strict) and l = 1 (top) for
    alpha in (0,1); l = 1 (strict) and l = 2 (top) for alpha = 1.
    """
    alpha = Fraction(alpha)
    top = whom_weight_top(germ, alpha)
    if k < 0:
        raise PreconditionError("k must be non-negative")
    if not (0 <= l <= top):
        raise PreconditionError(f"l={l} outside 0..{top}",
                                hypothesis="l <= top weight offset")
    if alpha == 1 and l == 0:
        raise PreconditionError(
            "no closed form at the lowest weight stratum for integral twist",
            hypothesis="(alpha, l) carries a closed form")
    strict = l < top
    return HodgePresentation.build(alpha, germ.dim,
                                   _graded_summands(germ, alpha, k, strict))


def whom_micromult_ideal(germ: QuasiHomogeneousGerm, alpha, k: int):
    """Generators of the order-zero weighted microlocal multiplier ideal at
    level k + alpha: for j = 0..k the products of the degree-(k-j) symmetric
    power sum of the partials of f with the monomials of weighted degree
    > alpha + j - |w|.  Emitted unminimalized: minimalization of non-monomial
    generator lists is out of scope."""
    alpha = unit_interval_alpha(alpha)
    if k < 0:
        raise PreconditionError("k must be non-negative")
    partials = [germ.f.partial(i) for i in range(germ.dim)]
    gens = []
    for j in range(k + 1):
        power_sum = Polynomial.zero(germ.dim)
        for gamma in monomials_of_degree(germ.dim, k - j):
            prod = Polynomial.one(germ.dim)
            for i, e in enumerate(gamma):
                prod = prod * partials[i] ** e
            power_sum = power_sum + prod
        ideal = graded_ideal(germ.w, alpha + j - germ.w.total, True)
        for g in ideal.gens:
            gens.append(power_sum * Polynomial.monomial(g))
    return [g for g in gens if not g.is_zero()]


def micromult_contains_one(gens) -> bool:
    """True iff some generator is a nonzero constant (the emitted list is
    unminimalized, so the unit shows up as a literal constant)."""
    return any(not g.is_zero() and g.total_degree() == 0 for g in gens)
