"""Bernstein-Sato root data and the invariants derived from it: reduced
b-function, the iterated radical-quotient chain, weighted minimal exponents,
the beta factor, singularity-pair classification, highest-weight bounds,
generating-level bounds, and the pole-order predicates on Hodge/weight steps.

b-functions are kept as root multisets; `RootMultiset.coefficients` expands
one, in integers, for the consumers that need its coefficients.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError, PreconditionError
from .exactalg import (fmt_rational, parse_rational, positive_alpha,
                       unit_interval_alpha, weighted_degree)

PROVENANCES = ("closed-form-snc", "closed-form-whom", "user-supplied")


class RootMultiset:
    """Finite multiset of rational roots, the common core of all b-function
    style objects.  A root r with multiplicity m stands for the factor
    (s - r)^m."""

    __slots__ = ("roots",)

    def __init__(self, roots=None):
        clean = {}
        for r, m in (roots or {}).items():
            m = int(m)
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                clean[Fraction(r)] = m
        self.roots = clean

    def multiplicity(self, r) -> int:
        return self.roots.get(Fraction(r), 0)

    def degree(self) -> int:
        return sum(self.roots.values())

    def is_one(self) -> bool:
        return not self.roots

    def sorted_roots(self):
        return sorted(self.roots)

    def product_string(self) -> str:
        """e.g. (s+1)^2*(s+1/2); the (s+1) factor is printed first."""
        if not self.roots:
            return "1"
        keys = self.sorted_roots()
        ordered = []
        if Fraction(-1) in self.roots:
            ordered.append(Fraction(-1))
        ordered += [r for r in keys if r != -1]
        parts = []
        for r in ordered:
            c = -r
            if c > 0:
                fac = f"(s+{fmt_rational(c)})"
            elif c == 0:
                fac = "s"
            else:
                fac = f"(s-{fmt_rational(-c)})"
            m = self.roots[r]
            parts.append(fac if m == 1 else f"{fac}^{m}")
        return "*".join(parts)

    __str__ = product_string
    __repr__ = product_string

    def coefficients(self) -> tuple:
        """Expansion of prod (s - r)^m as ({s-power: int}, den), zeros
        dropped: r = p/q gives the factor (q s - p)/q, so den = prod q^m."""
        nums, den = {0: 1}, 1
        for r, m in sorted(self.roots.items()):
            p, q = r.numerator, r.denominator
            for _ in range(m):
                nxt = {}
                for j, c in nums.items():
                    nxt[j + 1] = nxt.get(j + 1, 0) + q * c
                    v = nxt.get(j, 0) - p * c
                    if v:
                        nxt[j] = v
                    elif j in nxt:
                        del nxt[j]
                nums = nxt
            den *= q ** m
        return nums, den

    def to_json(self):
        return [{"root": fmt_rational(r), "mult": m}
                for r, m in sorted(self.roots.items())]


def parse_root_product(text: str) -> dict:
    """Parse product strings like "(s+1)^2*(s+5/6)" into a root dict; a
    factor that does not parse raises ParseError at its offset."""
    roots = {}
    pos = 0
    pat = re.compile(
        r"\s*\*?\s*(?:\(\s*s\s*(?P<sgn>[+-])\s*(?P<c>\d+(?:/\d+)?)\s*\)|(?P<bare>s))"
        r"(?:\^(?P<m>\d+))?")
    while pos < len(text) and text[pos:].strip():
        m = pat.match(text, pos)
        if not m:
            raise ParseError(
                f"cannot parse b-function factor at {text[pos:]!r}", pos)
        mult = int(m.group("m") or 1)
        if m.group("bare"):
            root = Fraction(0)
        else:
            try:
                c = parse_rational(m.group("c"))
            except ParseError as exc:  # a zero denominator
                raise ParseError(exc.message, pos) from exc
            root = -c if m.group("sgn") == "+" else c
        roots[root] = roots.get(root, 0) + mult
        pos = m.end()
    return roots


class BFunction(RootMultiset):
    """Bernstein-Sato root data.  All roots are strictly negative; -1 is a
    root whenever the object represents the b-function of a non-invertible
    function.  Closed-form provenances stay unverified until the oracle
    confirms the functional equation and refutes every maximal proper
    divisor."""

    __slots__ = ("provenance", "verified")

    def __init__(self, roots, provenance: str = "user-supplied",
                 verified: bool = False, dim=None):
        super().__init__(roots)
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        for r in self.roots:
            if r >= 0:
                raise PreconditionError(f"b-function root {r} is not negative")
            if dim is not None and r <= -dim - 1:
                raise ValueError(f"root {r} out of range (-{dim + 1},0)")
        self.provenance = provenance
        self.verified = verified

    @classmethod
    def parse(cls, text: str) -> "BFunction":
        return cls(parse_root_product(text))

    def with_verification(self) -> "BFunction":
        return BFunction(self.roots, self.provenance, True)

    def to_json(self):
        return {"roots": super().to_json(), "provenance": self.provenance,
                "verified": self.verified}


class ReducedBFunction(RootMultiset):
    """b-function with one factor (s+1) removed."""

    __slots__ = ()


def bfunction_snc(a) -> BFunction:
    """Closed-form root data for a monomial x1^a1 ... xn^an.

    Roots are -j/a_i for 1 <= j <= a_i, and the multiplicity of a value -g
    (g in (0,1]) is the number of indices i with g*a_i a positive integer.
    Marked unverified until certified by the oracle.
    """
    a = tuple(int(e) for e in a)
    if not any(e > 0 for e in a):
        raise PreconditionError("all exponents vanish",
                                hypothesis="monomial divisor is non-empty")
    values = set()
    for ai in a:
        for j in range(1, ai + 1):
            values.add(Fraction(j, ai))
    roots = {}
    for g in values:
        mult = sum(1 for ai in a if ai and (g * ai).denominator == 1 and g * ai >= 1)
        roots[-g] = mult
    return BFunction(roots, provenance="closed-form-snc", dim=len(a))


def bfunction_whom_isolated(germ) -> BFunction:
    """Closed-form root data for a weight-1 quasi-homogeneous polynomial with
    isolated singularity at the origin, the whom.QuasiHomogeneousGerm germ,
    from its monomial Milnor basis: (s+1) * prod over distinct values
    c = wdeg(m) + |w| of (s+c).  Marked unverified until certified by the
    oracle."""
    w = germ.w
    exponents = {weighted_degree(m, w) + w.total for m in germ.milnor}
    roots = {Fraction(-1): 1}
    for c in exponents:
        roots[-c] = roots.get(-c, 0) + 1
    return BFunction(roots, provenance="closed-form-whom", dim=germ.dim)


def reduce(b: BFunction) -> ReducedBFunction:
    """Divide by (s+1): decrement the multiplicity of -1 by exactly one."""
    m = b.multiplicity(-1)
    if m < 1:
        raise PreconditionError("-1 is not a root",
                                hypothesis="-1 is a root of the b-function")
    roots = dict(b.roots)
    if m == 1:
        del roots[Fraction(-1)]
    else:
        roots[Fraction(-1)] = m - 1
    return ReducedBFunction(roots)


def bl_chain(bred: ReducedBFunction, l: int) -> ReducedBFunction:
    """l-fold division by the radical: each step decrements every positive
    multiplicity by one.  May return the empty multiset (the constant 1)."""
    roots = dict(bred.roots)
    for _ in range(l):
        roots = {r: m - 1 for r, m in roots.items() if m > 1}
    return ReducedBFunction(roots)


def weighted_minimal_exponent(bred: ReducedBFunction, l: int):
    """Smallest positive value c with multiplicity of -c at least l+1, i.e.
    the smallest root of bred(-s) of multiplicity >= l+1; None if no root
    qualifies."""
    candidates = [-r for r, m in bred.roots.items() if m >= l + 1]
    return min(candidates) if candidates else None


def beta_factor(b: RootMultiset, alpha) -> RootMultiset:
    """Roots of b strictly inside (-alpha-1, -alpha), shifted by +1,
    multiplicities preserved: the root multiset of
    prod (s + r + 1)^{m_r} over those roots r."""
    alpha = Fraction(alpha)
    out = {}
    for r, m in b.roots.items():
        if -alpha - 1 < r < -alpha:
            out[-(r + 1)] = m
    return RootMultiset(out)


class PairClass(NamedTuple):
    lc: bool
    plt: bool
    klt: bool
    note: str | None = None

    def to_json(self):
        out = {"lc": self.lc, "plt": self.plt, "klt": self.klt}
        if self.note:
            out["note"] = self.note
        return out


def classify_pair(bred: ReducedBFunction, alpha) -> PairClass:
    """Singularity class of the pair scaled by alpha, from the reduced
    b-function at the point:
      lc  <=>  alpha <= a0,
      plt <=>  alpha < a0, or alpha = a0 with alpha != 1 and a0 != a1,
      klt <=>  alpha != 1 and alpha < a0,
    where a0, a1 are the 0th and 1st weighted minimal exponents (an absent
    a1 counts as different from a0).  For alpha > 1 all three are false.
    """
    alpha = positive_alpha(alpha)
    if alpha > 1:
        return PairClass(False, False, False,
                         note="alpha > 1 forces all classes to fail")
    a0 = weighted_minimal_exponent(bred, 0)
    if a0 is None:
        # smooth point: lc/plt always, klt unless alpha = 1
        return PairClass(True, True, alpha != 1, note="smooth point")
    a1 = weighted_minimal_exponent(bred, 1)
    lc = alpha <= a0
    plt = alpha < a0 or (alpha == a0 and alpha != 1 and a1 != a0)
    klt = alpha != 1 and alpha < a0
    return PairClass(lc, plt, klt)


def _integer_shift_mults(bred: ReducedBFunction, alpha: Fraction):
    """Multiplicities of roots of the form -alpha - i, keyed by the integer i."""
    out = {}
    for r, m in bred.roots.items():
        i = -alpha - r
        if i.denominator == 1:
            out[int(i)] = m
    return out


def weight_bounds(bred: ReducedBFunction, alpha, n: int):
    """(lower, upper) bounds for the highest weight of the twisted
    localization module at the point, in ambient dimension n:
      n + max_i mult(-alpha-i) + floor(alpha) <= w_max
                <= n + sum_{i>=0} mult(-alpha-i) + floor(alpha),
    with the unconditional floor w_max >= n + floor(alpha)."""
    alpha = unit_interval_alpha(alpha)
    shifts = _integer_shift_mults(bred, alpha)
    fl = math.floor(alpha)
    lower = n + max(shifts.values(), default=0) + fl
    lower = max(lower, n + fl)
    upper = n + sum(m for i, m in shifts.items() if i >= 0) + fl
    return (lower, max(upper, lower))


def genlevel_bound(bred: ReducedBFunction, alpha, l: int, n: int,
                   graded: bool) -> int:
    """Published generating-level bound at the point.

    graded=True: bound for the weight-graded piece at level n+l:
        n - l - ceil(alpha + a0) + 1.
    graded=False: bound for the weight step at level n+l:
        min(n - 1, n - ceil(alpha + a0) + 1 - floor(alpha)).
    a0 is the minimal exponent; requires alpha in (0,1].
    """
    alpha = unit_interval_alpha(alpha)
    a0 = weighted_minimal_exponent(bred, 0)
    if a0 is None:
        raise PreconditionError("reduced b-function is 1 (smooth point)",
                                hypothesis="f is singular at the point")
    if graded:
        return n - l - math.ceil(alpha + a0) + 1
    return min(n - 1, n - math.ceil(alpha + a0) + 1 - math.floor(alpha))


def hodge_pole_full(bred: ReducedBFunction, alpha, k: int, l: int) -> bool:
    """True iff the k-th Hodge step of the weight-(n+l+floor(alpha)) piece is
    the full cyclic module generated by f^(-k-alpha) at the point:
    k + alpha < a0, or k + alpha = a0 with a0 != a_l (absent a_l counts as
    holding)."""
    alpha = unit_interval_alpha(alpha)
    if k < 0 or l < 0:
        raise PreconditionError("k, l must be non-negative")
    a0 = weighted_minimal_exponent(bred, 0)
    if a0 is None:
        return True
    if k + alpha < a0:
        return True
    if k + alpha == a0:
        al = weighted_minimal_exponent(bred, l)
        return al != a0
    return False


def roots_in_interval(b: RootMultiset, lo, hi, hi_open: bool) -> bool:
    """True iff every root lies in the interval (lo, hi), or (lo, hi] when
    not hi_open."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise PreconditionError("empty interval")
    for r in b.roots:
        if r <= lo:
            return False
        if r > hi or (hi_open and r == hi):
            return False
    return True
