"""Weyl algebra in n variables extended by a central parameter s.

Operators are kept in normal order (x-factors left of d-factors, s central)
as sparse dicts keyed by (x exponents, d exponents, s power).  The module
also provides the symbolic calculus of operators acting on sections
g(x,s) * f^(s+m), bounded operator bases and their images (one d-step per
d-part, see `d_part_images`), and bounded-degree syzygy kernels computed by
exact linear algebra and certified by re-multiplication.  `KeyPacking`
decides every elimination coordinate of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, perm
from operator import mul

from .errors import DimensionMismatch, InternalCheckFailed, ParseError
from .exactalg import (Polynomial, SparseTerms, integer_terms, mono_mul,
                       monomials_upto_degree, parse_terms, power_factors)
from .linalg import nullspace

Key = tuple  # (xExponents, dExponents, sPower)


class WeylOperator(SparseTerms):
    """Normal-form element of the Weyl algebra over Q, with s central."""

    __slots__ = ()

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
    def constant(cls, dim: int, c) -> "WeylOperator":
        z = (0,) * dim
        return cls(dim, {(z, z, 0): Fraction(c)})

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return weyl_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- queries

    def is_s_free(self) -> bool:
        return all(sp == 0 for (_, _, sp) in self.terms)

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

    def sorted_keys(self):
        return sorted(
            self.terms,
            key=lambda k: (sum(k[0]) + sum(k[1]) + k[2], k),
            reverse=True)

    def _factors(self, key: Key) -> str:
        xe, de, sp = key
        s_part = ["s" if sp == 1 else f"s^{sp}"] if sp else []
        return "*".join(power_factors("x", xe) + power_factors("d", de)
                        + s_part)


def weyl_mul(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Normal-ordered product.  Both operands are brought to integer
    numerators over the lcm of their denominators, `_mul_into` accumulates
    their product as ints, and each coefficient becomes one Fraction over
    the product of the two denominators."""
    a._check(b)
    num_a, den_a = integer_terms(a.terms)
    num_b, den_b = integer_terms(b.terms)
    out = {}
    _mul_into(out, num_a, num_b, a.dim)
    den = den_a * den_b
    # the constructor drops the sums that cancelled
    return WeylOperator(a.dim, {key: Fraction(c, den)
                                for key, c in out.items()})


def _mul_into(out: dict, num_a: dict, num_b: dict, dim: int):
    """Add the normal-ordered product of the integer terms num_a and num_b
    into the int dict out.  Per variable, d^c x^b expands by Leibniz:
    d^c x^b = sum_k C(c,k) * b!/(b-k)! * x^(b-k) d^(c-k)."""
    for (xa, da, sa), ca in num_a.items():
        for (xb, db, sb), cb in num_b.items():
            base = ca * cb
            xe = mono_mul(xa, xb)
            de = mono_mul(da, db)
            sp = sa + sb
            # a variable whose d^c x^b has c or b zero commutes as is
            active = [i for i in range(dim) if da[i] and xb[i]]
            if not active:
                key = (xe, de, sp)
                out[key] = out.get(key, 0) + base
                continue
            # distribute each active variable's commutator independently
            acc = [((), base)]  # (k vector prefix, coefficient)
            for i in active:
                c_i, b_i = da[i], xb[i]
                acc = [(prefix + (k,), coeff * comb(c_i, k) * perm(b_i, k))
                       for prefix, coeff in acc
                       for k in range(min(c_i, b_i) + 1)]
            for kvec, coeff in acc:
                xk, dk = list(xe), list(de)
                for i, k in zip(active, kvec):
                    xk[i] -= k
                    dk[i] -= k
                key = (tuple(xk), tuple(dk), sp)
                out[key] = out.get(key, 0) + coeff


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
                           s_bound: int = 0) -> list:
    """Keys (b, g, j) of the monomial operators x^b d^g s^j with
    |g|+j <= order_bound, |b| <= xdeg_bound and j <= s_bound, in graded-lex
    order.  s_bound = 0 gives the s-free basis."""
    return _graded_keys(dim, [], order_bound, xdeg_bound, s_bound)


def homogeneity_grading(f: Polynomial) -> list:
    """[(w, deg_w f)]: an integer basis of the weights w that make f
    w-homogeneous, from one `nullspace` call over the differences of f's
    exponent vectors: all of Q^n for a monomial, a line for a
    quasi-homogeneous germ, none for a generic f."""
    base = next(iter(f.terms), (0,) * f.dim)
    columns = [{r: a[i] - base[i] for r, a in enumerate(f.terms)
                if a[i] != base[i]} for i in range(f.dim)]
    grading = []
    for dep in nullspace(columns, [1] * f.dim, [{i: 1} for i in range(f.dim)]):
        scale = lcm(*(c.denominator for c in dep.values()))
        w = tuple(int(dep.get(i, 0) * scale) for i in range(f.dim))
        grading.append((w, sum(wi * e for wi, e in zip(w, base))))
    return grading


def graded_operator_basis(f: Polynomial, order_bound: int, xdeg_bound: int,
                          s_bound: int) -> list:
    """The keys of bounded_operator_basis(f.dim, ...) with w.(b - g) =
    -deg_w f for every (w, deg_w f) of homogeneity_grading(f), in the same
    order: the operators that carry f^(s+1) into the w-degree of f^s."""
    return _graded_keys(f.dim, homogeneity_grading(f), order_bound,
                        xdeg_bound, s_bound)


def _graded_keys(dim, grading, order_bound, xdeg_bound, s_bound) -> list:
    """The bounded basis keys (b, g, j) with w.(b - g) = -deg for every
    (w, deg) of grading: x-monomials are bucketed once by grade vector, and
    each d-part g looks up the bucket grade(g) - deg."""
    if min(order_bound, xdeg_bound, s_bound) < 0:
        raise ValueError("bounds must be non-negative")

    def grade(m):
        return tuple(sum(wi * e for wi, e in zip(w, m)) for w, _ in grading)

    buckets = {}
    for b in monomials_upto_degree(dim, xdeg_bound):
        buckets.setdefault(grade(b), []).append(b)
    keys = [(b, g, j)
            for g in monomials_upto_degree(dim, order_bound)
            for b in buckets.get(tuple(
                d - deg for d, (_, deg) in zip(grade(g), grading)), ())
            for j in range(min(s_bound, order_bound - sum(g)) + 1)]
    keys.sort(key=lambda k: (sum(k[0]) + sum(k[1]) + k[2], k))
    return keys


def d_part_images(d_parts, start, step) -> dict:
    """Map every d-part g in d_parts (and each g - e_i on the way down) to
    d^g applied to start.  Each image is made from the image of g - e_i, i
    the last index with g_i > 0, by one call step(image, i), which must
    return d_i applied to image; so a basis of monomials x^b d^g s^j costs
    one step per distinct d-part, however many (b, j) share it.  Over a
    grlex, downward-closed d_parts the dict comes out in grlex order."""
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


class KeyPacking:
    """Operator keys (x exponents, d exponents, s power) packed into ints.

    The 2n+1 exponents are the digits of the int in base `radix`, most
    significant first in tuple order (the packed-exponent-vector technique of
    Monagan and Pearce, CASC 2007).  While every exponent stays below the
    radix, int order equals tuple order, so an `Echelon` picks the same
    pivots, and multiplying by x^b s^j is adding `shift(b, j)`.  `reach` is
    the most a window may still add to an x or s exponent of an image
    d^g * t (`pack_image` checks it); `top` exceeds every packed key, so
    `code + top` stacks a second block of coordinates above the first.

    Every monomial coordinate an `Echelon` of the package gets is such an
    int.  A monomial x^m at layer j (a dt layer or an s power) is
    `j * top + shift(m, 0)`: the layer is the most significant digit, so int
    order is (j, m) tuple order, and multiplying by x^b and raising the layer
    by i is adding `i * top + shift(b, 0)`.  The x-monomials of a
    twisted-module window are layer 0.  Callers size the radix so that no
    shifted exponent reaches it.
    """

    __slots__ = ("dim", "radix", "reach", "top", "_xplaces")

    def __init__(self, dim: int, radix: int, reach: int):
        self.dim = dim
        self.radix = radix
        self.reach = reach
        self.top = radix ** (2 * dim + 1)
        self._xplaces = tuple(radix ** (2 * dim - i) for i in range(dim))

    def pack(self, key: Key) -> int:
        xe, de, sp = key
        code = 0
        for e in xe + de:
            code = code * self.radix + e
        return code * self.radix + sp

    def unpack(self, code: int) -> Key:
        digits = []
        for _ in range(2 * self.dim + 1):
            code, e = divmod(code, self.radix)
            digits.append(e)
        digits.reverse()
        n = self.dim
        return tuple(digits[:n]), tuple(digits[n:2 * n]), digits[2 * n]

    def order(self, code: int) -> int:
        """|d exponents| + s power of a packed key."""
        code, total = divmod(code, self.radix)
        for _ in range(self.dim):
            code, e = divmod(code, self.radix)
            total += e
        return total

    def shift(self, b, j: int) -> int:
        """The packed key of x^b s^j: adding it multiplies by x^b s^j."""
        return sum(map(mul, b, self._xplaces)) + j

    def pack_terms(self, layers: dict) -> dict:
        """The layers {j: {m: c}} as {j * top + shift(m, 0): c}, each
        exponent vector packed once."""
        places, top = self._xplaces, self.top
        return {j * top + sum(map(mul, m, places)): c
                for j, terms in layers.items() for m, c in terms.items()}

    def pack_layers(self, layers: dict) -> tuple:
        """(integer numerators, den) of the layers {j: Polynomial}, each x^m
        keyed at its layer as above, over one denominator."""
        return integer_terms(self.pack_terms(
            {j: p.terms for j, p in layers.items()}))

    def shifts(self, bound: int) -> tuple:
        """(the exponent vectors of total degree <= bound, in grlex order,
        and the packed keys of their x-monomials).  Each key is the dot
        product of the vector with the place values of the x digits."""
        betas = tuple(monomials_upto_degree(self.dim, bound))
        return betas, tuple(sum(map(mul, b, self._xplaces)) for b in betas)

    def pack_image(self, terms: dict) -> dict:
        """terms with packed keys, for an image d^g * t whose x and s
        exponents may still grow by `reach`; raises InternalCheckFailed when
        an exponent could then reach the radix and alias another key."""
        top_xs = max((max(*xe, sp) for xe, _, sp in terms), default=0)
        top_d = max((max(de) for _, de, _ in terms), default=0)
        if top_xs + self.reach >= self.radix or top_d >= self.radix:
            raise InternalCheckFailed(
                f"operator exponents reach the packing radix {self.radix}")
        return {self.pack(key): c for key, c in terms.items()}


def window_packing(generators, order_bound: int, xdeg_bound: int,
                   s_bound: int = 0, s_extra: int = 0) -> KeyPacking:
    """The packing of every product x^b d^g s^j * t, with (b, g, j) in
    bounded_operator_basis(dim, order_bound, xdeg_bound, s_bound) and t in
    generators, and of those products times s^i for i <= s_extra.

    d^g never raises an x exponent, and adds at most |g| to a d exponent;
    x^b adds at most |b| to an x exponent, s^j s^i at most
    min(s_bound, order_bound) + s_extra to the s power.  So the radix is one
    more than the largest generator exponent plus the largest of those
    reaches.
    """
    generators = list(generators)
    largest = max((e for t in generators for xe, de, sp in t.terms
                   for e in (*xe, *de, sp)), default=0)
    reach = max(xdeg_bound, order_bound,
                min(s_bound, order_bound) + s_extra)
    return KeyPacking(generators[0].dim, 1 + largest + reach, reach)


def basis_products(keys, t: WeylOperator, packing: KeyPacking):
    """(columns, den): for each basis key (b, g, j), the terms of
    weyl_mul(x^b d^g s^j, t) as integer numerators over den, keyed by
    `packing`.  In normal order x^b and the central s^j stand left of
    d^g * t, so each product is the image d^g * t with every key shifted by
    (b, j): t is scaled to integers once, each image is packed once, and a
    product costs one int addition per term."""
    if packing.dim != t.dim:
        raise DimensionMismatch(f"packing of dimension {packing.dim} vs "
                                f"{t.dim}")
    for b, g, j in keys:
        if len(b) != t.dim or len(g) != t.dim:
            raise DimensionMismatch(f"key ({b},{g}) vs dimension {t.dim}")
        if max(*b, j) > packing.reach:
            raise InternalCheckFailed(f"key ({b},{g},{j}) shifts beyond the "
                                      f"packing's reach {packing.reach}")
    num, den = integer_terms(t.terms)
    d_parts = {g for _, g, _ in keys}
    images = d_part_images(d_parts, num, _d_step)
    packed = {g: packing.pack_image(images[g]) for g in d_parts}
    columns = []
    for b, g, j in keys:
        shift = packing.shift(b, j)
        columns.append({code + shift: c for code, c in packed[g].items()})
    return columns, den


def syzygy_kernel(targets, order_bound: int, xdeg_bound: int):
    """Spanning set, within the stated bounds, of tuples (P_0,...,P_r) with
    sum_i P_i * targets_i == 0, each P_i a combination of the s-free
    bounded_operator_basis monomials.  Every returned tuple is re-multiplied
    and checked against zero before being returned: the targets are scaled
    once to one common denominator, and sum_i P_i * targets_i is accumulated
    from the tuple's integer numerators over one denominator by the Leibniz
    kernel of `weyl_mul`, independently of `basis_products`.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("no targets")
    dim = targets[0].dim
    for t in targets:
        if t.dim != dim:
            raise DimensionMismatch("targets of mixed dimension")
    keys = bounded_operator_basis(dim, order_bound, xdeg_bound)
    packing = window_packing(targets, order_bound, xdeg_bound)
    n = len(keys)
    columns, dens, companions = [], [], []
    for ti, t in enumerate(targets):
        cols, den = basis_products(keys, t, packing)
        columns.extend(cols)
        dens.extend([den] * n)
        # the tag of column (ti, oi) is ti * n + oi, one int
        companions.extend({ti * n + oi: den} for oi in range(n))
    # the targets as integer numerators over one common denominator
    scaled = [integer_terms(t.terms) for t in targets]
    common = lcm(*(den for _, den in scaled))
    scaled = [{key: c * (common // den) for key, c in num.items()}
              for num, den in scaled]
    out = []
    for dep in nullspace(columns, dens, companions):
        # distinct basis keys: one term per entry, Fractions for the tuple
        # and their numerators over one denominator for the check
        parts = [{} for _ in targets]
        nums = [{} for _ in targets]
        for tag, c in integer_terms(dep)[0].items():
            ti, oi = divmod(tag, n)
            parts[ti][keys[oi]] = dep[tag]
            nums[ti][keys[oi]] = c
        total = {}
        for num, t in zip(nums, scaled):
            _mul_into(total, num, t, dim)
        if any(total.values()):
            raise InternalCheckFailed("syzygy failed re-multiplication check")
        out.append(tuple(WeylOperator(dim, p) for p in parts))
    return out
