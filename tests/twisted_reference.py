"""The Fraction-polynomial action of operators on sections N(x, s) f^(s+e),
kept in the tests as the reference for `weyl.apply_to_twisted`'s integer
kernel and for `verify_bfunction`'s columns.  It walks one d-chain per
operator term in Fraction polynomials, aligns poles by powers of f and
divides f out until it no longer divides (`Polynomial.div_exact`), so it
shares with the kernel only the `exactalg` term kernels that `Polynomial`
products and partials run on."""

import math
from fractions import Fraction

from hwkit.errors import DimensionMismatch
from hwkit.exactalg import Polynomial


def fraction_terms(a) -> dict:
    """The coefficients of a Polynomial or WeylOperator as {key: Fraction},
    in its key order: the view the Fraction references compute in."""
    return {k: Fraction(c, a.den) for k, c in a.nums.items()}


def integer_pair(terms: dict) -> tuple:
    """(int numerators, den) of a {key: Fraction} dict over the lcm of its
    denominators (1 for an empty dict): the references' own way into the
    integer form the kernels take."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


class TwistedSection:
    """numerator(x,s) * f^(s + shift - pole), with f fixed by context.

    coeffs maps s-powers to x-polynomials.  Normalization cancels f from the
    numerator exactly as polynomials, keeping the pole order minimal.
    """

    __slots__ = ("dim", "shift", "pole", "coeffs")

    def __init__(self, dim: int, shift: int, pole: int, coeffs=None):
        self.dim = dim
        self.shift = shift
        self.pole = pole
        self.coeffs = {j: p for j, p in (coeffs or {}).items()
                       if not p.is_zero()}

    @classmethod
    def power(cls, dim: int, shift: int) -> "TwistedSection":
        """The section f^(s+shift)."""
        return cls(dim, shift, 0, {0: Polynomial.one(dim)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def exponent_offset(self) -> int:
        return self.shift - self.pole

    def mul_s_power(self, j: int) -> "TwistedSection":
        return TwistedSection(self.dim, self.shift, self.pole,
                              {k + j: p for k, p in self.coeffs.items()})

    def mul_poly(self, g: Polynomial) -> "TwistedSection":
        return TwistedSection(self.dim, self.shift, self.pole,
                              {k: p * g for k, p in self.coeffs.items()})

    def apply_d(self, i: int, f: Polynomial) -> "TwistedSection":
        """d_i (N * f^(s+e)) = (d_i N) f^(s+e) + (s+e) * N * d_i(f) * f^(s+e-1)."""
        e = self.exponent_offset()
        df = f.partial(i)
        out = {}

        def acc(j, p):
            if p.is_zero():
                return
            out[j] = out[j] + p if j in out else p

        for j, p in self.coeffs.items():
            acc(j, p.partial(i) * f)
            q = p * df
            acc(j + 1, q)           # s * N * d_i f
            acc(j, q.scale(e))      # e * N * d_i f
        return TwistedSection(self.dim, self.shift, self.pole + 1, out)

    def add_with(self, other: "TwistedSection",
                 f: Polynomial) -> "TwistedSection":
        """Addition after aligning pole orders by multiplying through by f."""
        if self.dim != other.dim or self.shift != other.shift:
            raise DimensionMismatch("incompatible sections")
        a, b = self, other
        pole = max(a.pole, b.pole)
        out = {}
        for sec in (a, b):
            mult = f ** (pole - sec.pole)
            for j, p in sec.coeffs.items():
                q = p * mult
                out[j] = out[j] + q if j in out else q
        return TwistedSection(self.dim, self.shift, pole, out)

    def normalized(self, f: Polynomial) -> "TwistedSection":
        """Cancel common f-factors so the pole order is minimal."""
        if not self.coeffs:
            return TwistedSection(self.dim, self.shift, 0, {})
        coeffs = self.coeffs
        pole = self.pole
        while True:
            divided = {}
            for j, p in coeffs.items():
                q = p.div_exact(f)
                if q is None:
                    return TwistedSection(self.dim, self.shift, pole, coeffs)
                divided[j] = q
            coeffs = divided
            pole -= 1

    def same_element(self, other: "TwistedSection", f: Polynomial) -> bool:
        a = self.normalized(f)
        b = other.normalized(f)
        return (a.exponent_offset() == b.exponent_offset()
                and a.coeffs == b.coeffs)


def apply_section(a, f: Polynomial, sec: TwistedSection) -> TwistedSection:
    """Exact action of a normal-ordered operator on a twisted section.

    s acts as multiplication by the central parameter; d_i by the chain
    rule.  The result is normalized so the pole order is minimal.
    """
    if a.dim != f.dim or a.dim != sec.dim:
        raise DimensionMismatch("operator/section dimension mismatch")
    total = TwistedSection(a.dim, sec.shift, 0, {})
    for (xe, de, sp), c in fraction_terms(a).items():
        cur = sec.mul_s_power(sp)
        for i, e in enumerate(de):
            for _ in range(e):
                cur = cur.apply_d(i, f)
        cur = cur.mul_poly(Polynomial.monomial(xe).scale(c))
        total = total.add_with(cur, f)
    return total.normalized(f)


def roots_section(dim: int, roots) -> TwistedSection:
    """The section roots(s) * f^s, kept as roots(s) * f^(s+1) / f, with
    roots(s) = prod (s - r)^m expanded here in Fractions."""
    coeffs = {0: Fraction(1)}
    for r, m in roots.roots.items():
        for _ in range(m):
            nxt = {}
            for j, c in coeffs.items():
                nxt[j + 1] = nxt.get(j + 1, 0) + c
                nxt[j] = nxt.get(j, 0) - r * c
            coeffs = nxt
    return TwistedSection(dim, 1, 1, {j: Polynomial.constant(dim, c)
                                      for j, c in coeffs.items()})
