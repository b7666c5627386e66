"""Weyl algebra in n variables extended by a central parameter s.

Operators are kept in normal order (x-factors left of d-factors, s central)
as sparse dicts keyed by (x exponents, d exponents, s power).  The module
also provides the action of operators on the powers f^(s+m), in integer
layers over the integer numerator of f (`apply_to_twisted`), bounded
operator bases and their images (one packed `KeyPacking.d_step` per
d-part, see `d_part_images`), and bounded-degree syzygy kernels computed by
exact linear algebra, returned in integer numerators and certified by
re-multiplication through the Leibniz images d^g * t, independently of the
d-steps of the columns.  `KeyPacking` decides every elimination coordinate
of the package, and a `ShiftTable` serves the window spans of a job their
shift sets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import comb, lcm, perm
from operator import ge, mul

from .errors import DimensionMismatch, InternalCheckFailed
from .exactalg import (Polynomial, SparseTerms, combine_terms, mono_mul,
                       monomials_of_degree, mul_terms, parse_terms,
                       partial_terms, power_factors)
from .linalg import nullspace

Key = tuple  # (xExponents, dExponents, sPower)


def grlex_operator_key(key: Key) -> tuple:
    """The grlex order of operator keys (b, g, j): total degree |b| + |g| +
    j, then the key; printing, ppd's rules and the bounded bases follow it."""
    return sum(key[0]) + sum(key[1]) + key[2], key


class WeylOperator(SparseTerms):
    """Normal-form element of the Weyl algebra over Q, with s central: the
    numerators nums {(x exponents, d exponents, s power): int} over den."""

    __slots__ = ()

    def __init__(self, dim: int, nums=None, den: int = 1):
        super().__init__(dim, nums, den)
        for xe, de, _ in self.nums:
            if len(xe) != dim or len(de) != dim:
                raise DimensionMismatch(f"key ({xe},{de}) in dimension {dim}")

    # -- constructors

    @classmethod
    def constant(cls, dim: int, c) -> "WeylOperator":
        z = (0,) * dim
        return cls(dim, {(z, z, 0): c})

    @classmethod
    def x(cls, i: int, dim: int) -> "WeylOperator":
        e = [0] * dim
        e[i] = 1
        return cls(dim, {(tuple(e), (0,) * dim, 0): 1})

    @classmethod
    def d(cls, i: int, dim: int) -> "WeylOperator":
        e = [0] * dim
        e[i] = 1
        return cls(dim, {((0,) * dim, tuple(e), 0): 1})

    @classmethod
    def s(cls, dim: int) -> "WeylOperator":
        z = (0,) * dim
        return cls(dim, {(z, z, 1): 1})

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "WeylOperator":
        z = (0,) * p.dim
        return cls(p.dim, {(m, z, 0): c for m, c in p.nums.items()}, p.den)

    @classmethod
    def parse(cls, text: str, dim: int) -> "WeylOperator":
        """Parse the operator grammar and normal-order the result."""
        out = cls.zero(dim)
        for coeff, factors in parse_terms(text, "xds", dim):
            term = cls.constant(dim, coeff)
            for kind, idx, e in factors:
                if kind == "s":
                    fac = cls.s(dim)
                else:
                    fac = cls.x(idx, dim) if kind == "x" else cls.d(idx, dim)
                for _ in range(e):
                    term = term * fac
            out = out + term
        return out

    # -- arithmetic

    def __mul__(self, other):
        return weyl_mul(self, other)

    # -- queries

    def is_s_free(self) -> bool:
        return all(sp == 0 for (_, _, sp) in self.nums)

    def sorted_keys(self):
        return sorted(self.nums, key=grlex_operator_key, reverse=True)

    def _factors(self, key: Key) -> str:
        xe, de, sp = key
        s_part = ["s" if sp == 1 else f"s^{sp}"] if sp else []
        return "*".join(power_factors("x", xe) + power_factors("d", de)
                        + s_part)


def weyl_mul(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Normal-ordered product: `_mul_into` accumulates the product of the
    operands' numerators as ints, over the product of their denominators;
    the constructor drops the sums that cancelled."""
    a._check(b)
    return WeylOperator(a.dim, _mul_into({}, a.nums, b.nums, a.dim),
                        a.den * b.den)


def evaluate_s(ops, value: Fraction) -> list:
    """Each operator of ops with s replaced by value = a/q, in ints from one
    power table: a term c x^b d^g s^j over den becomes c a^j q^(top - j)
    x^b d^g over den q^top, top the largest s power over ops."""
    a, q = value.numerator, value.denominator
    top = max((sp for op in ops for _, _, sp in op.nums), default=0)
    powers = [a ** j * q ** (top - j) for j in range(top + 1)]
    out = []
    for op in ops:
        nums = {}
        for (xe, de, sp), c in op.nums.items():
            key = (xe, de, 0)
            nums[key] = nums.get(key, 0) + c * powers[sp]
        out.append(WeylOperator(op.dim, nums, op.den * q ** top))
    return out


def _mul_into(out: dict, num_a: dict, num_b: dict, dim: int):
    """Add the normal-ordered product of the integer terms num_a and num_b
    into the int dict out, and return out.  Per variable, d^c x^b expands
    by Leibniz: d^c x^b = sum_k C(c,k) * b!/(b-k)! * x^(b-k) d^(c-k).  A
    term of num_a with no d-part times a normal-ordered term is already
    normal-ordered, so its products only add exponents."""
    for (xa, da, sa), ca in num_a.items():
        if not any(da):
            for (xb, db, sb), cb in num_b.items():
                key = (mono_mul(xa, xb), db, sa + sb)
                out[key] = out.get(key, 0) + ca * cb
            continue
        for (xb, db, sb), cb in num_b.items():
            base = ca * cb
            xe = mono_mul(xa, xb)
            de = mono_mul(da, db)
            sp = sa + sb
            # a variable whose d^c x^b has c or b zero commutes as is
            active = [i for i in range(dim) if da[i] and xb[i]]
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
    return out


# ---------------------------------------------------------------------------
# the action on powers of f


def apply_to_twisted(a: WeylOperator, f: Polynomial, shift: int) -> tuple:
    """(H, den, G) with a * F^(s+shift) = H(x, s)/den * F^(s+shift-G),
    where f = F/df in integers, G is the largest |g| over the terms
    x^b d^g s^j of a (0 for the zero operator), and H is zero-free integer
    layers {s-power: {m: int}}.  F^(s+shift) is df^(s+shift) f^(s+shift), so
    a kills f^(s+shift) exactly when H is empty.

    Each d^g F^(s+shift) = N_g F^(s+shift-|g|) is built once per call, from
    N_(g-e_i) by the chain rule d_i (N F^(s+e)) = (F d_i N + (s+e) N d_i F)
    F^(s+e-1).  Nothing is divided out: the terms of each order k are summed
    and brought to the pole G by one product with F per order."""
    if a.dim != f.dim:
        raise DimensionMismatch("operator/polynomial dimension mismatch")
    fnum = f.nums
    dfs = [partial_terms(fnum, i) for i in range(f.dim)]
    one = (0,) * f.dim
    chains = {one: {0: {one: 1}}}

    def chain(g):
        down = []  # (d-part, i) from g down to the nearest one built
        while g not in chains:
            i = max(k for k, e in enumerate(g) if e)
            down.append((g, i))
            g = g[:i] + (g[i] - 1,) + g[i + 1:]
        out = chains[g]
        for g, i in reversed(down):
            e = shift - sum(g) + 1
            prev, out = out, {}
            for j, n in prev.items():
                nd = mul_terms(n, dfs[i])
                _add_into(out.setdefault(j, {}), combine_terms(
                    mul_terms(partial_terms(n, i), fnum), 1, nd, e))
                _add_into(out.setdefault(j + 1, {}), nd)
            chains[g] = out
        return out

    num, den = a.nums, a.den
    by_order = {}  # k -> the layers of the terms x^b d^g s^j with |g| = k
    for (xe, de, sp), c in num.items():
        layers = by_order.setdefault(sum(de), {})
        for j, n in chain(de).items():
            _add_into(layers.setdefault(j + sp, {}), mul_terms(n, {xe: c}))
    top = max(by_order, default=0)
    h = {}
    for k in range(top + 1):
        h = {j: mul_terms(t, fnum) for j, t in h.items()}
        for j, t in by_order.get(k, {}).items():
            _add_into(h.setdefault(j, {}), t)
    h = {j: {m: c for m, c in t.items() if c} for j, t in h.items()}
    return {j: t for j, t in h.items() if t}, den, top


def _add_into(acc: dict, terms: dict):
    """Add the {monomial: int} terms into acc in place; sums that cancel
    stay, as 0."""
    for m, c in terms.items():
        acc[m] = acc.get(m, 0) + c


# ---------------------------------------------------------------------------
# bounded bases and syzygies


def bounded_operator_basis(dim: int, order_bound: int, xdeg_bound: int,
                           s_bound: int = 0) -> list:
    """Keys (b, g, j) of x^b d^g s^j with |g|+j <= order_bound, |b| <=
    xdeg_bound and j <= s_bound, walked in grlex_operator_key order with no
    sort (graded_operator_basis with no weight).  s_bound = 0 gives the
    s-free basis."""
    return graded_operator_basis(dim, [], order_bound, xdeg_bound, s_bound)


def homogeneity_grading(dim: int, families) -> list:
    """[(w, degrees)]: an integer basis of the weights w in Z^dim that give
    the exponent vectors of each family one w-degree, degrees[i] that of
    family i (0 for an empty one).  The w are the numerators of the
    dependencies of one `nullspace` call over the differences of each
    family's vectors from its first (each w at a positive scale), taken
    from the last coordinate down, so the basis is in echelon form by the
    first index: no two w share their first nonzero index.  For the one
    family of f's exponents: all of Q^n for a monomial, a line for a
    quasi-homogeneous germ, none for a generic f."""
    bases = [next(iter(fam), (0,) * dim) for fam in families]
    rows = [(a, base) for fam, base in zip(families, bases) for a in fam]
    places = range(dim - 1, -1, -1)
    columns = [{r: a[i] - base[i] for r, (a, base) in enumerate(rows)
                if a[i] != base[i]} for i in places]
    grading = []
    for dep, _ in nullspace(columns, [1] * dim, [{i: 1} for i in places]):
        w = tuple(dep.get(i, 0) for i in range(dim))
        grading.append((w, tuple(sum(map(mul, w, base)) for base in bases)))
    return grading


def fold_grading(dim: int, families: int, grading, reach: int) -> tuple:
    """(weight, degrees): the weights w of grading, a homogeneity_grading
    over the given number of families, as the digits of one int weight,
    and each family's degrees as those of one int, in a balanced radix
    above twice any |w.v - deg| for v of total degree at most reach, so
    equal ints are equal degrees under every w.  No weight folds to zeros."""
    radix = 2 * max((max(map(abs, degs)) + sum(map(abs, w)) * reach
                     for w, degs in grading), default=0) + 1
    weight, degrees, scale = (0,) * dim, (0,) * families, 1
    for w, degs in grading:
        weight = tuple(a + scale * b for a, b in zip(weight, w))
        degrees = tuple(a + scale * b for a, b in zip(degrees, degs))
        scale *= radix
    return weight, degrees


def graded_operator_basis(dim: int, grading, order_bound: int,
                          xdeg_bound: int, s_bound: int) -> list:
    """The keys (b, g, j) of bounded_operator_basis(dim, ...) with
    w.(b - g) = -deg for every (w, (deg,)) of grading, in the same order;
    for grading = homogeneity_grading(dim, [f.nums]), the operators that
    carry f^(s+1) into the w-degree of f^s.  Grlex order with no sort: each
    b, in lex order, files its (g, j) bucket, grade(g) - deg = grade(b), by
    |b| + |g| + j, grades taken in the one int weight of fold_grading.  Lex
    walks: monomials_of_degree(dim + 1, n), last exponent dropped."""
    if min(order_bound, xdeg_bound, s_bound) < 0:
        raise ValueError("bounds must be non-negative")

    # grade(v) = weight.v, the last (slack) exponent of m outside the zip
    weight, (deg,) = fold_grading(dim, 1, grading, order_bound + xdeg_bound)
    parts = {}  # grade(g) - deg -> {|g| + j: [(g, j) in lex order]}
    for m in monomials_of_degree(dim + 1, order_bound):
        g, r = m[:-1], order_bound - m[-1]
        by_r = parts.setdefault(sum(map(mul, weight, m)) - deg, {})
        for j in range(min(s_bound, order_bound - r) + 1):
            by_r.setdefault(r + j, []).append((g, j))
    rows = [[] for _ in range(xdeg_bound + order_bound + 1)]
    for m in monomials_of_degree(dim + 1, xdeg_bound):
        b, nb = m[:-1], xdeg_bound - m[-1]
        for r, gjs in parts.get(sum(map(mul, weight, m)), {}).items():
            rows[nb + r].append((b, gjs))
    return [(b, g, j) for row in rows for b, gjs in row for g, j in gjs]


def bfunction_operator_basis(f: Polynomial, order_bound: int,
                             xdeg_bound: int, s_bound: int) -> list:
    """The keys (b, g, j) of graded_operator_basis(f.dim, grading, ...),
    grading = homogeneity_grading(f.dim, [f.nums]) computed once here, in
    that order, whose column x^b d^g s^j f^(s+1) no annihilator of f^(s+1)
    writes by columns of the graded keys strictly before it: F5's criterion
    (Faugere, ISSAC 2002) on this Macaulay-style matrix.  Two rules drop a
    key:

    - Euler: E = sum_i w_i x_i d_i, for a w of grading with first nonzero
      index p, acts on d^c f^(s+1) as the scalar (s+1) deg_w f - w.c.  So
      for b_p, g_p >= 1, w_p x^b d^g s^j f^(s+1) is x^(b-e_p) s^j
      ((s+1) deg_w f - w.(g-e_p)) d^(g-e_p) f^(s+1) minus the terms
      w_k x^(b-e_p+e_k) d^(g-e_p+e_k) s^j f^(s+1), k > p: two keys of lower
      degree, one with s^(j+1) (hence j < s_bound), and keys of the same
      degree that are lex smaller in b.
    - Hamiltonian: for i < j, H = f_j d_i - f_i d_j kills f^(s+1).  With
      x^a d_k its largest term by grlex_operator_key, and b >= a, g_k >= 1,
      x^b d^g s^j is x^(b-a) s^j (x^a d_k) d^(g-e_k), and x^a d_k is H
      minus its other terms (earlier keys) over its coefficient, while
      H d^(g-e_k) f^(s+1) is the commutator [H, d^(g-e_k)] f^(s+1), whose
      terms have lower degree.

    Each key a rule writes by stays in the window, and in the weight block
    of the dropped key: the Euler rule shifts b and g alike, and H is
    w-homogeneous for every w.  So a dropped column is a combination of
    earlier graded columns, and by induction of earlier kept ones.  The
    rules read only exponents: grading's echelon form gives one first index
    per w, and f's exponents give each H's terms."""
    dim = f.dim
    grading = homogeneity_grading(dim, [f.nums])
    firsts = [next(i for i, c in enumerate(w) if c) for w, _ in grading]
    units = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    leads = []  # (a, k) of the largest term x^a d_k of each nonzero H
    for i, j in combinations(range(dim), 2):
        terms = [(tuple(e - (t == q) for t, e in enumerate(m)), units[k], 0)
                 for q, k in ((j, i), (i, j)) for m in f.nums if m[q]]
        if terms:
            a, g, _ = max(terms, key=grlex_operator_key)
            leads.append((a, g.index(1)))
    return [(b, g, j) for b, g, j in graded_operator_basis(
                dim, grading, order_bound, xdeg_bound, s_bound)
            if not (j < s_bound and any(b[p] and g[p] for p in firsts))
            and not any(g[k] and all(map(ge, b, a)) for a, k in leads)]


def d_part_images(d_parts, start, step) -> dict:
    """Map every d-part g in d_parts (and each g - e_i on the way down) to
    d^g applied to start.  Each image is made from the image of g - e_i, i
    the last index with g_i > 0, by one call step(image, i), which must
    return d_i applied to image; so a basis of monomials x^b d^g s^j costs
    one step per distinct d-part, however many (b, j) share it.  The walk
    goes down to the nearest image built, then up in a loop, so no d-part
    is too deep for the stack.  Over a grlex, downward-closed d_parts the
    dict comes out in grlex order."""
    images = {}
    for g in d_parts:
        down = []  # (d-part, i) from g down to the nearest image built
        while g not in images and any(g):
            i = max(k for k, e in enumerate(g) if e)
            down.append((g, i))
            g = g[:i] + (g[i] - 1,) + g[i + 1:]
        image = images.setdefault(g, start)
        for g, i in reversed(down):
            image = images[g] = step(image, i)
    return images


class KeyPacking:
    """Operator keys (x exponents, d exponents, s power) packed into ints.

    The 2n+1 exponents are the digits of the int in base `radix`, most
    significant first in tuple order (the packed-exponent-vector technique of
    Monagan and Pearce, CASC 2007).  While every exponent stays below the
    radix, int order equals tuple order, so an `Echelon` picks the same
    pivots, and multiplying by x^b s^j is adding `shift(b) + j`.  `reach` is
    the most a window may still add to an x or s exponent of an image
    d^g * t (`pack_image` checks it); `top` exceeds every packed key, so
    `code + top` stacks a second block of coordinates above the first.

    Every monomial coordinate an `Echelon` of the package gets is such an
    int.  A monomial x^m at layer j (a dt layer or an s power) is
    `j * top + shift(m)`: the layer is the most significant digit, so int
    order is (j, m) tuple order, and multiplying by x^b and raising the layer
    by i is adding `i * top + shift(b)`.  The x-monomials of a
    twisted-module window are layer 0.  Callers size the radix so that no
    shifted exponent reaches it.

    `d_step` applies d_i to packed terms without unpacking them: d_i x^a =
    x^a d_i + a_i x^(a - e_i) adds the d_i place to a code, and subtracts
    the x_i place from it with a_i, its x_i digit, as a factor.
    """

    __slots__ = ("dim", "radix", "reach", "top", "xplaces", "_dplaces")

    def __init__(self, dim: int, radix: int, reach: int):
        self.dim = dim
        self.radix = radix
        self.reach = reach
        self.top = radix ** (2 * dim + 1)
        self.xplaces = tuple(radix ** (2 * dim - i) for i in range(dim))
        self._dplaces = tuple(radix ** (dim - i) for i in range(dim))

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

    def shift(self, b) -> int:
        """The packed key of x^b: adding it multiplies by x^b."""
        return sum(map(mul, b, self.xplaces))

    def pack_terms(self, layers: dict) -> dict:
        """The layers {j: {m: c}} as {j * top + shift(m): c}, each
        exponent vector packed once."""
        places, top = self.xplaces, self.top
        return {j * top + sum(map(mul, m, places)): c
                for j, terms in layers.items() for m, c in terms.items()}

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

    def d_step(self, terms: dict, i: int) -> dict:
        """The packed terms of d_i * t for the packed normal-ordered terms
        of t, none zero: d_i x^a d^e s^k = x^a d^(e+e_i) s^k + a_i
        x^(a-e_i) d^e s^k.  The caller keeps every d_i digit of the result
        below the radix; an x digit only falls, and only when it is not 0."""
        dplace, xplace, radix = self._dplaces[i], self.xplaces[i], self.radix
        out = {}
        for code, c in terms.items():
            key = code + dplace
            out[key] = out[key] + c if key in out else c
            a = code // xplace % radix
            if a:
                key = code - xplace
                out[key] = out[key] + a * c if key in out else a * c
        return {k: c for k, c in out.items() if c}


def _codes_of_degree(places, degree: int) -> list:
    """The packed codes sum(v_i * places[i]) of the exponent vectors v of
    total degree `degree`, in the lex order of monomials_of_degree and by
    its recursion, built as ints with no tuple."""
    below = [[d * places[-1]] for d in range(degree + 1)]
    for place in places[-2:0:-1]:
        below = [[e * place + rest for e in range(d + 1)
                  for rest in below[d - e]] for d in range(degree + 1)]
    if len(places) == 1:
        return below[degree]
    return [e * places[0] + rest for e in range(degree + 1)
            for rest in below[degree - e]]


class ShiftTable:
    """The shift sets of a job's window spans at one packing (radix xdeg +
    1), grown a degree at a time: the vectors beta of degree <= b in grlex
    order, as codes shift(beta) up to xdeg (above it they alias) and as
    exponent tuples (a d-part bound may exceed xdeg) only when asked for.
    A job makes one and hands it to each span it builds, so each code and
    tuple is built once per job and lives no longer than it."""

    __slots__ = ("packing", "_codes", "_betas")

    def __init__(self, dim: int, xdeg: int):
        self.packing = KeyPacking(dim, xdeg + 1, 0)
        self._codes, self._betas = [], []  # [d]: those of degree d

    @staticmethod
    def _upto(degrees: list, bound: int, build, first):
        """The entries of degrees[:bound + 1] in order, degrees grown first
        by build(first, degree)."""
        while len(degrees) <= bound:
            degrees.append(build(first, len(degrees)))
        return chain.from_iterable(degrees[:max(bound + 1, 0)])

    def codes(self, bound: int):
        """The codes of degree <= bound, in grlex order, none below 0; above
        xdeg InternalCheckFailed."""
        if bound >= self.packing.radix:
            raise InternalCheckFailed("shift codes above xdeg alias")
        return self._upto(self._codes, bound, _codes_of_degree,
                          self.packing.xplaces)

    def betas(self, bound: int):
        """The vectors of degree <= bound, in grlex order; none below 0."""
        return self._upto(self._betas, bound, monomials_of_degree,
                          self.packing.dim)


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
    largest = max((e for t in generators for xe, de, sp in t.nums
                   for e in (*xe, *de, sp)), default=0)
    reach = max(xdeg_bound, order_bound,
                min(s_bound, order_bound) + s_extra)
    return KeyPacking(generators[0].dim, 1 + largest + reach, reach)


def basis_products(keys, t: WeylOperator, packing: KeyPacking):
    """(columns, den): for each basis key (b, g, j), the terms of
    weyl_mul(x^b d^g s^j, t) as integer numerators over den, keyed by
    `packing`.  In normal order x^b and the central s^j stand left of
    d^g * t, so each product is the image d^g * t with every key shifted by
    (b, j).  t is scaled to integers and packed once (`pack_image` checks
    its x and s reach), and the images are built from it in packed ints,
    one `packing.d_step` per d-part; a product costs one int addition per
    term.  Only a key that brings a new x-part or d-part is checked in
    full; any other key has only its s-power compared with the reach.
    Before any image is built, each d exponent of t, raised by the largest
    g_i, is checked against the radix."""
    dim, reach = t.dim, packing.reach
    if packing.dim != dim:
        raise DimensionMismatch(f"packing of dimension {packing.dim} vs "
                                f"{dim}")
    shifts, d_parts = {}, {}
    for b, g, j in keys:
        top = j
        if b not in shifts or g not in d_parts:
            if len(b) != dim or len(g) != dim:
                raise DimensionMismatch(f"key ({b},{g}) vs dimension {dim}")
            shifts[b] = packing.shift(b)
            d_parts[g] = None
            top = max(*b, j)
        if top > reach:
            raise InternalCheckFailed(f"key ({b},{g},{j}) shifts beyond the "
                                      f"packing's reach {reach}")
    num, den = t.nums, t.den
    if not d_parts:
        return [], den
    for i in range(dim):
        if (max(g[i] for g in d_parts)
                + max((de[i] for _, de, _ in num), default=0)
                >= packing.radix):
            raise InternalCheckFailed(
                f"operator exponents reach the packing radix {packing.radix}")
    images = d_part_images(d_parts, packing.pack_image(num), packing.d_step)
    columns = []
    for b, g, j in keys:
        shift = shifts[b] + j
        columns.append({code + shift: c for code, c in images[g].items()})
    return columns, den


def syzygy_kernel(targets, order_bound: int, xdeg_bound: int):
    """Spanning set, within the stated bounds, of tuples (P_0,...,P_r) with
    sum_i P_i * targets_i == 0, each P_i a combination of the s-free
    bounded_operator_basis monomials.  Each tuple comes as (parts, den):
    parts[i] is P_i as {operator key: int numerator} over the one positive
    int den, with no zero entry.

    Every returned tuple is re-multiplied and checked against zero before
    being returned, independently of `basis_products`: the targets are
    scaled once to one common denominator, and P_i = sum_g X_(i,g) d^g with
    every X_(i,g) d-free (s is central), so sum_i P_i * targets_i is
    accumulated by the Leibniz kernel of `weyl_mul` as sum X_(i,g) *
    (d^g * targets_i).  Each image d^g * targets_i is expanded once per
    call, when a tuple first needs it.
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
    common = lcm(*(t.den for t in targets))
    scaled = [{key: c * (common // t.den) for key, c in t.nums.items()}
              for t in targets]
    zero = (0,) * dim
    images = {}  # (ti, g) -> the integer terms of d^g * scaled[ti]
    out = []
    for dep, den in nullspace(columns, dens, companions):
        # distinct basis keys: one term per entry
        parts = tuple({} for _ in targets)
        d_free = {}  # (ti, g) -> X_(ti,g)
        for tag, c in dep.items():
            ti, oi = divmod(tag, n)
            b, g, j = key = keys[oi]
            parts[ti][key] = c
            d_free.setdefault((ti, g), {})[(b, zero, j)] = c
        total = {}
        for (ti, g), x in d_free.items():
            image = images.get((ti, g))
            if image is None:
                image = images[ti, g] = {}
                _mul_into(image, {(zero, g, 0): 1}, scaled[ti], dim)
            _mul_into(total, x, image, dim)
        if any(total.values()):
            raise InternalCheckFailed("syzygy failed re-multiplication check")
        out.append((parts, den))
    return out
