"""Weyl algebra in n variables extended by a central parameter s.

Operators are kept in normal order (x-factors left of d-factors, s central)
as sparse dicts keyed by (x exponents, d exponents, s power).  The module
also provides the symbolic calculus of operators acting on sections
g(x,s) * f^(s+m), bounded operator bases and their images (one d-step per
d-part, see `d_part_images`), and bounded-degree syzygy kernels computed by
exact linear algebra and certified by re-multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, InternalCheckFailed, ParseError
from .exactalg import (Polynomial, fmt_rational, mono_mul,
                       monomials_upto_degree, parse_terms)
from .linalg import nullspace

Key = tuple  # (xExponents, dExponents, sPower)


def _falling(n: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= n - j
    return out


class WeylOperator:
    """Normal-form element of the Weyl algebra over Q, with s central."""

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        clean = {}
        if terms:
            for (xe, de, sp), c in terms.items():
                if type(c) is not Fraction:  # a Fraction is already canonical
                    c = Fraction(c)
                if not c:
                    continue
                if len(xe) != dim or len(de) != dim:
                    raise DimensionMismatch(f"key ({xe},{de}) in dimension {dim}")
                clean[(tuple(xe), tuple(de), sp)] = c
        self.terms = clean
        self._hash = None

    # -- constructors

    @classmethod
    def zero(cls, dim: int) -> "WeylOperator":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c) -> "WeylOperator":
        z = (0,) * dim
        return cls(dim, {(z, z, 0): Fraction(c)})

    @classmethod
    def one(cls, dim: int) -> "WeylOperator":
        return cls.constant(dim, 1)

    @classmethod
    def x(cls, i: int, dim: int) -> "WeylOperator":
        e = [0] * dim
        e[i] = 1
        return cls(dim, {(tuple(e), (0,) * dim, 0): Fraction(1)})

    @classmethod
    def d(cls, i: int, dim: int) -> "WeylOperator":
        e = [0] * dim
        e[i] = 1
        return cls(dim, {((0,) * dim, tuple(e), 0): Fraction(1)})

    @classmethod
    def s(cls, dim: int) -> "WeylOperator":
        z = (0,) * dim
        return cls(dim, {(z, z, 1): Fraction(1)})

    @classmethod
    def mono(cls, xe, de, sp, coeff=1) -> "WeylOperator":
        return cls(len(xe), {(tuple(xe), tuple(de), sp): Fraction(coeff)})

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "WeylOperator":
        z = (0,) * p.dim
        return cls(p.dim, {(m, z, 0): c for m, c in p.terms.items()})

    @classmethod
    def parse(cls, text: str, dim: int) -> "WeylOperator":
        """Parse the operator grammar and normal-order the result."""
        out = cls.zero(dim)
        for coeff, factors in parse_terms(text, allow="xds"):
            term = cls.constant(dim, coeff)
            for name, e in factors:
                if name == "s":
                    fac = cls.s(dim)
                else:
                    idx = int(name[1:]) - 1
                    if idx < 0 or idx >= dim:
                        raise ParseError(f"index in {name} out of range 1..{dim}", 0)
                    fac = cls.x(idx, dim) if name[0] == "x" else cls.d(idx, dim)
                for _ in range(e):
                    term = term * fac
            out = out + term
        return out

    # -- arithmetic

    def _check(self, other: "WeylOperator"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def __add__(self, other: "WeylOperator") -> "WeylOperator":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return WeylOperator(self.dim, out)

    def __sub__(self, other: "WeylOperator") -> "WeylOperator":
        return self + (-other)

    def __neg__(self) -> "WeylOperator":
        return WeylOperator(self.dim, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "WeylOperator":
        c = Fraction(c)
        if not c:
            return WeylOperator.zero(self.dim)
        return WeylOperator(self.dim, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return weyl_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "WeylOperator":
        if n < 0:
            raise ValueError("negative power")
        out = WeylOperator.one(self.dim)
        for _ in range(n):
            out = weyl_mul(out, self)
        return out

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        return all(sum(de) == 0 and sp == 0 for (_, de, sp) in self.terms)

    def is_s_free(self) -> bool:
        return all(sp == 0 for (_, _, sp) in self.terms)

    def to_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError("operator has d- or s-part")
        return Polynomial(self.dim, {xe: c for (xe, _, _), c in self.terms.items()})

    def total_order(self):
        """Max of |dExponents| + sPower; None for the zero operator
        (the distinguished minus-infinity marker)."""
        if not self.terms:
            return None
        return max(sum(de) + sp for (_, de, sp) in self.terms)

    def substitute_s(self, value) -> "WeylOperator":
        value = Fraction(value)
        out = {}
        for (xe, de, sp), c in self.terms.items():
            key = (xe, de, 0)
            out[key] = out.get(key, Fraction(0)) + c * value ** sp
        return WeylOperator(self.dim, out)

    def __eq__(self, other):
        return (isinstance(other, WeylOperator) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
        return self._hash

    def sorted_keys(self):
        return sorted(
            self.terms,
            key=lambda k: (sum(k[0]) + sum(k[1]) + k[2], k),
            reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in self.sorted_keys():
            xe, de, sp = key
            c = self.terms[key]
            factors = []
            for i, e in enumerate(xe):
                if e:
                    factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
            for i, e in enumerate(de):
                if e:
                    factors.append(f"d{i + 1}" if e == 1 else f"d{i + 1}^{e}")
            if sp:
                factors.append("s" if sp == 1 else f"s^{sp}")
            body = "*".join(factors) if factors else "1"
            if abs(c) != 1 or not factors:
                body = fmt_rational(abs(c)) + ("*" + "*".join(factors) if factors else "")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = __str__


def weyl_mul(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Normal-ordered product.  Per variable, d^c x^b expands by Leibniz:
    d^c x^b = sum_k C(c,k) * b!/(b-k)! * x^(b-k) d^(c-k)."""
    a._check(b)
    dim = a.dim
    out = {}
    for (xa, da, sa), ca in a.terms.items():
        for (xb, db, sb), cb in b.terms.items():
            base = ca * cb
            sp = sa + sb
            # distribute each variable's commutator independently
            acc = [((), Fraction(1))]  # (k vector prefix, coefficient)
            for i in range(dim):
                c_i, b_i = da[i], xb[i]
                nxt = []
                for prefix, coeff in acc:
                    for k in range(min(c_i, b_i) + 1):
                        nxt.append(
                            (prefix + (k,),
                             coeff * math.comb(c_i, k) * _falling(b_i, k)))
                acc = nxt
            for kvec, coeff in acc:
                xe = tuple(xa[i] + xb[i] - kvec[i] for i in range(dim))
                de = tuple(da[i] + db[i] - kvec[i] for i in range(dim))
                key = (xe, de, sp)
                out[key] = out.get(key, Fraction(0)) + base * coeff
    return WeylOperator(dim, out)


# ---------------------------------------------------------------------------
# sections g(x,s) * f^(s+m)


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
        self.coeffs = {j: p for j, p in (coeffs or {}).items() if not p.is_zero()}

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

    def mul_spoly(self, spoly: dict) -> "TwistedSection":
        """Multiply by sum_j spoly[j] * s^j with Fraction coefficients."""
        out = {}
        for k, p in self.coeffs.items():
            for j, c in spoly.items():
                key = k + j
                q = p.scale(c)
                out[key] = out[key] + q if key in out else q
        return TwistedSection(self.dim, self.shift, self.pole, out)

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

    def add_with(self, other: "TwistedSection", f: Polynomial) -> "TwistedSection":
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

    def scale(self, c) -> "TwistedSection":
        return TwistedSection(self.dim, self.shift, self.pole,
                              {j: p.scale(c) for j, p in self.coeffs.items()})

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

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j in sorted(self.coeffs, reverse=True):
            head = f"s^{j}*" if j > 1 else ("s*" if j == 1 else "")
            parts.append(f"{head}({self.coeffs[j]})")
        e = self.exponent_offset()
        off = f"s{e:+d}" if e else "s"
        return " + ".join(parts) + f" * f^({off})"

    __repr__ = __str__


def apply_to_twisted(a: WeylOperator, f: Polynomial,
                     sec: TwistedSection) -> TwistedSection:
    """Exact action of a normal-ordered operator on a twisted section.

    s acts as multiplication by the central parameter; d_i by the chain rule.
    The result is normalized so the pole order is minimal.
    """
    if a.dim != f.dim or a.dim != sec.dim:
        raise DimensionMismatch("operator/section dimension mismatch")
    total = TwistedSection(a.dim, sec.shift, 0, {})
    for (xe, de, sp), c in a.terms.items():
        cur = sec.mul_s_power(sp)
        for i, e in enumerate(de):
            for _ in range(e):
                cur = cur.apply_d(i, f)
        cur = cur.mul_poly(Polynomial.monomial(xe, c))
        total = total.add_with(cur, f)
    return total.normalized(f)


def annihilates_power(a: WeylOperator, f: Polynomial, shift: int) -> bool:
    """True iff a kills the section f^(s+shift) exactly."""
    return apply_to_twisted(a, f, TwistedSection.power(f.dim, shift)).is_zero()


# ---------------------------------------------------------------------------
# bounded bases and syzygies


def bounded_operator_basis(dim: int, order_bound: int, xdeg_bound: int,
                           with_s: bool = False, s_bound: int | None = None):
    """All monomial operators x^b d^g s^j with |g|+j <= order_bound,
    |b| <= xdeg_bound and j <= s_bound, in graded-lex order."""
    if order_bound < 0 or xdeg_bound < 0:
        raise ValueError("bounds must be non-negative")
    smax = 0 if not with_s else (order_bound if s_bound is None else min(s_bound, order_bound))
    keys = []
    for b in monomials_upto_degree(dim, xdeg_bound):
        for g in monomials_upto_degree(dim, order_bound):
            for j in range(min(smax, order_bound - sum(g)) + 1):
                keys.append((b, g, j))
    keys.sort(key=lambda k: (sum(k[0]) + sum(k[1]) + k[2], k))
    return [WeylOperator.mono(b, g, j) for (b, g, j) in keys]


def basis_keys(basis) -> list:
    """The key (b, g, j) of each operator x^b d^g s^j of a basis of monic
    monomials."""
    keys = []
    for op in basis:
        if len(op.terms) != 1 or next(iter(op.terms.values())) != 1:
            raise ValueError("basis operators must be monic monomials")
        keys.append(next(iter(op.terms)))
    return keys


def d_part_images(d_parts, start, step) -> dict:
    """Map every d-part g in d_parts (and each g - e_i on the way down) to
    d^g applied to start.  Each image is made from the image of g - e_i, i
    the last index with g_i > 0, by one call step(image, i), which must
    return d_i applied to image; so a basis of monomials x^b d^g s^j costs
    one step per distinct d-part, however many (b, j) share it."""
    images = {}

    def image(g):
        out = images.get(g)
        if out is None:
            i = max((k for k, e in enumerate(g) if e), default=None)
            if i is None:
                out = start
            else:
                out = step(image(g[:i] + (g[i] - 1,) + g[i + 1:]), i)
            images[g] = out
        return out

    for g in d_parts:
        image(g)
    return images


def _d_step(terms: dict, i: int) -> dict:
    """Terms of d_i * t for the normal-ordered terms of t:
    d_i x^a d^e s^k = x^a d^(e+e_i) s^k + a_i x^(a-e_i) d^e s^k."""
    out = {}
    for (xe, de, sp), c in terms.items():
        key = (xe, de[:i] + (de[i] + 1,) + de[i + 1:], sp)
        out[key] = out[key] + c if key in out else c
        if xe[i]:
            key = (xe[:i] + (xe[i] - 1,) + xe[i + 1:], de, sp)
            c2 = xe[i] * c
            out[key] = out[key] + c2 if key in out else c2
    return {k: c for k, c in out.items() if c}


def basis_products(basis, t: WeylOperator) -> list:
    """weyl_mul(op, t).terms for each op = x^b d^g s^j of a basis of monic
    monomials.  In normal order x^b and the central s^j stand left of
    d^g * t, so each product is the image d^g * t with every key shifted by
    (b, j): the coefficients are reused, not recomputed."""
    for op in basis:
        op._check(t)
    keys = basis_keys(basis)
    images = d_part_images([g for _, g, _ in keys], t.terms, _d_step)
    return [{(mono_mul(xe, b), de, sp + j): c
             for (xe, de, sp), c in images[g].items()}
            for b, g, j in keys]


def syzygy_kernel(targets, order_bound: int, xdeg_bound: int,
                  with_s: bool = False, s_bound: int | None = None):
    """Spanning set, within the stated bounds, of tuples (P_0,...,P_r) with
    sum_i P_i * targets_i == 0, each P_i a combination of
    bounded_operator_basis monomials.  Every returned tuple is re-multiplied
    and checked against zero before being returned.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("no targets")
    dim = targets[0].dim
    for t in targets:
        if t.dim != dim:
            raise DimensionMismatch("targets of mixed dimension")
    basis = bounded_operator_basis(dim, order_bound, xdeg_bound, with_s, s_bound)
    keys = basis_keys(basis)
    columns = []
    companions = []
    for ti, t in enumerate(targets):
        columns.extend(basis_products(basis, t))
        companions.extend({(ti, oi): 1} for oi in range(len(basis)))
    out = []
    for dep in nullspace(columns, companions):
        # basis operators are distinct monic monomials: one term per entry
        parts = [{} for _ in targets]
        for (ti, oi), c in dep.items():
            parts[ti][keys[oi]] = c
        tup = [WeylOperator(dim, p) for p in parts]
        total = WeylOperator.zero(dim)
        for p, t in zip(tup, targets):
            total = total + weyl_mul(p, t)
        if not total.is_zero():
            raise InternalCheckFailed("syzygy failed re-multiplication check")
        out.append(tuple(tup))
    return out
