"""Exact rational arithmetic: multivariate polynomials over Q, monomial
ideals, weight vectors and the weighted-graded slices of the polynomial ring.

Everything here is immutable and pure.  No floating point is used anywhere
in this package.  A `Polynomial` holds int numerators over one denominator
(`SparseTerms`, the layout of FLINT's fmpq_poly) and computes in ints; a
`fractions.Fraction` is made only to parse, print or hand out a scalar.  The
closed forms' twist ranges are checked here, once each (`unit_interval_alpha`,
`positive_alpha`), so that the benchmark's tracer, which times the functions
defined in bsdata, snc and whom, gains no spans.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Iterator

from .errors import DimensionMismatch, ParseError, PreconditionError

Mono = tuple  # exponent vector; length equals the ambient dimension


# ---------------------------------------------------------------------------
# rationals


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
    if not m:
        raise ParseError(f"invalid rational {text!r}", 0)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", 0)
    return Fraction(num, den)


def fmt_rational(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def unit_interval_alpha(alpha) -> Fraction:
    """alpha as a Fraction; PreconditionError unless 0 < alpha <= 1."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise PreconditionError("alpha outside (0,1]",
                                hypothesis="alpha in (0,1]")
    return alpha


def positive_alpha(alpha) -> Fraction:
    """alpha as a Fraction; PreconditionError unless alpha > 0."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionError("alpha must be positive",
                                hypothesis="alpha > 0")
    return alpha


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def mul_terms(a: dict, b: dict) -> dict:
    """The product of two {monomial: number} dicts: the term products summed
    per monomial; a sum that cancels stays, as 0."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def combine_terms(a: dict, ca, b: dict, cb) -> dict:
    """ca * a + cb * b of two {monomial: number} dicts, zero sums dropped."""
    out = {m: ca * c for m, c in a.items()}
    for m, c in b.items():
        out[m] = out.get(m, 0) + cb * c
    return {m: c for m, c in out.items() if c}


def partial_terms(terms: dict, i: int) -> dict:
    """d/dx_i of a {monomial: number} dict; m -> m - e_i is one to one."""
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
            for m, c in terms.items() if m[i]}


def grlex_key(m: Mono):
    return (sum(m), m)


def power_factors(name: str, exps) -> list:
    """["x1", "x3^2"] for name "x" and exponents (1, 0, 2)."""
    return [f"{name}{i + 1}" if e == 1 else f"{name}{i + 1}^{e}"
            for i, e in enumerate(exps) if e]


def mono_str(m: Mono) -> str:
    return "*".join(power_factors("x", m)) or "1"


def monomials_of_degree(dim: int, degree: int) -> list:
    """All exponent vectors of total degree `degree`, in lex order: the first
    exponent e ascending, each followed by the vectors of degree
    `degree` - e over the other exponents; none for a negative degree."""
    if not dim or degree < 0:
        return [] if degree else [()]
    # below[d]: the vectors of total degree d over the last exponents, in lex
    # order, from the last exponent alone; each pass puts one more exponent
    # in front, and the last pass builds the one degree asked for
    below = [[(d,)] for d in range(degree + 1)]
    for _ in range(dim - 2):
        below = [_put_in_front(below, d) for d in range(degree + 1)]
    return _put_in_front(below, degree) if dim > 1 else below[degree]


def _put_in_front(below: list, degree: int) -> list:
    """The vectors e + rest of total degree `degree`, rest from below (by
    degree, in lex order), e ascending: in lex order."""
    return [(e,) + rest for e in range(degree + 1)
            for rest in below[degree - e]]


def monomials_upto_degree(dim: int, bound: int) -> Iterator[Mono]:
    """All exponent vectors of total degree <= bound, in grlex order: degree
    by degree (monomials_of_degree), each degree in lex order."""
    return (m for d in range(bound + 1) for m in monomials_of_degree(dim, d))


# ---------------------------------------------------------------------------
# term-level expression parser, shared with the operator grammar


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[xd]\d+|s)|(?P<op>[-+*/^()]))")


def tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def parse_terms(text: str, allow: str, dim: int):
    """Parse a sum of products into [(coefficient, [(kind, index,
    exponent), ...])]: kind is a name's letter, index its variable's
    0-based index (None for s).

    `allow` is a string of permitted factor kinds: 'x' for variables,
    'd' for partials, 's' for the central parameter.  A variable index
    outside 1..dim is a ParseError at the name.  Grammar:
      expr   := ['-'] term (('+'|'-') term)*
      term   := coeff ('*' factor)* | factor ('*' factor)*
      coeff  := int ('/' posint)?
      factor := name ('^' nat)?
    """
    tokens = tokenize(text)
    i = 0

    def peek():
        return tokens[i]

    def take(kind=None):
        nonlocal i
        tok = tokens[i]
        if kind and tok[0] != kind:
            got = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind}, got {got}", tok[2])
        i += 1
        return tok

    def parse_factor():
        tok = take("name")
        name = tok[1]
        if name[0] not in allow:
            raise ParseError(f"{name!r} not allowed here", tok[2])
        idx = None
        if name != "s":
            idx = int(name[1:]) - 1
            if not 0 <= idx < dim:
                raise ParseError(f"variable {name} out of range 1..{dim}",
                                 tok[2])
        exp = 1
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            exp = take("int")[1]
        return (name[0], idx, exp)

    def parse_term():
        coeff = Fraction(1)
        factors = []
        tok = peek()
        if tok[0] == "int":
            take()
            coeff = Fraction(tok[1])
            if peek()[0] == "op" and peek()[1] == "/":
                take()
                den = take("int")[1]
                if den == 0:
                    raise ParseError("zero denominator", tok[2])
                coeff /= den
        else:
            factors.append(parse_factor())
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            factors.append(parse_factor())
        return coeff, factors

    terms = []
    sign = 1
    if peek()[0] == "op" and peek()[1] in "+-":
        sign = -1 if take()[1] == "-" else 1
    while True:
        coeff, factors = parse_term()
        terms.append((sign * coeff, factors))
        tok = peek()
        if tok[0] == "end":
            break
        if tok[0] == "op" and tok[1] in "+-":
            sign = -1 if take()[1] == "-" else 1
        else:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
    return terms


# ---------------------------------------------------------------------------
# polynomials


class SparseTerms:
    """Canonical sparse terms in `dim` variables: nonzero int numerators
    `nums` {key: int}, in key insertion order, over one int `den` > 0
    coprime to their content (1 for zero), so identity is a plain compare.
    What `Polynomial`, `weyl.WeylOperator` and `vforacle.BfElement` share; a
    subclass supplies `__init__` (defaults and a check of the keys) and
    `_factors(key)` (the key printed as a product, "" for a constant), and
    `sorted_keys` (printing order) where descending grlex does not fit;
    `Polynomial` and `weyl.WeylOperator` add `constant` and a product."""

    __slots__ = ("dim", "nums", "den")

    def __init__(self, dim: int, nums, den: int):
        """nums over den, zeros dropped; Fraction values (parsed or literal
        coefficients) are brought over the lcm of their denominators.  den's
        common factor with the content is divided out (no gcd pass at 1)."""
        self.dim = dim
        nums = {k: c for k, c in nums.items() if c} if nums else {}
        if not {*map(type, nums.values())} <= {int}:
            nums = {k: Fraction(c) for k, c in nums.items()}
            scale = lcm(*(c.denominator for c in nums.values()))
            nums = {k: c.numerator * (scale // c.denominator)
                    for k, c in nums.items() if c}
            den *= scale
        if den != 1:
            if den < 1:
                raise ValueError(f"denominator {den} is not positive")
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: c // g for k, c in nums.items()}
                den //= g
        self.nums, self.den = nums, den

    @classmethod
    def zero(cls, dim: int):
        return cls(dim, {})

    @classmethod
    def one(cls, dim: int):
        return cls.constant(dim, 1)

    def _check(self, other: "SparseTerms"):
        if type(other) is not type(self):
            raise DimensionMismatch(
                f"{type(self).__name__} vs {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def __add__(self, other):
        self._check(other)
        den = lcm(self.den, other.den)
        return type(self)(self.dim, combine_terms(
            self.nums, den // self.den, other.nums, den // other.den), den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """self times the int or Fraction c."""
        n = c.numerator
        return type(self)(self.dim, {k: v * n for k, v in self.nums.items()},
                          self.den * c.denominator)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.one(self.dim)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        # type-exact: a Polynomial never equals a WeylOperator
        return (type(other) is type(self) and self.dim == other.dim
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.nums.items())))

    def sorted_keys(self):
        """Keys in descending grlex order."""
        return sorted(self.nums, key=grlex_key, reverse=True)

    def __str__(self):
        """Signed sum in `sorted_keys` order: "-3/4*x1^2 + x2 - 1"."""
        parts = []
        for key in self.sorted_keys():
            n = self.nums[key]
            body = self._factors(key)
            if not body or abs(n) != self.den:
                body = (fmt_rational(Fraction(abs(n), self.den))
                        + (f"*{body}" if body else ""))
            if parts:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
            else:
                parts.append(body if n > 0 else f"-{body}")
        return " ".join(parts) or "0"

    __repr__ = __str__


class Polynomial(SparseTerms):
    """Sparse multivariate polynomial over Q, canonical and immutable: the
    numerators nums {exponent vector: int} over den."""

    __slots__ = ()

    def __init__(self, dim: int, nums=None, den: int = 1):
        super().__init__(dim, nums, den)
        if bad := [m for m in self.nums if len(m) != dim]:
            raise DimensionMismatch(f"monomial {bad[0]} in dimension {dim}")

    # -- constructors

    @classmethod
    def constant(cls, dim: int, c) -> "Polynomial":
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def monomial(cls, m: Mono) -> "Polynomial":
        return cls(len(m), {tuple(m): 1})

    @classmethod
    def parse(cls, text: str, dim: int) -> "Polynomial":
        terms = {}
        for coeff, factors in parse_terms(text, "x", dim):
            exps = [0] * dim
            for _, idx, e in factors:
                exps[idx] += e
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return cls(dim, terms)

    # -- arithmetic

    def __mul__(self, other):
        """The products of the operands' numerators summed per monomial
        (`mul_terms`), over the product of their denominators."""
        self._check(other)
        return Polynomial(self.dim, mul_terms(self.nums, other.nums),
                          self.den * other.den)

    def partial(self, i: int) -> "Polynomial":
        return Polynomial(self.dim, partial_terms(self.nums, i), self.den)

    # -- queries

    def total_degree(self) -> int:
        return max((sum(m) for m in self.nums), default=0)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.dim, 0), self.den)

    def _factors(self, m: Mono) -> str:
        return "*".join(power_factors("x", m))

    def leading_monomial(self) -> Mono:
        if not self.nums:
            raise ValueError("zero polynomial")
        return max(self.nums, key=grlex_key)

    def div_exact(self, g: "Polynomial"):
        """Return q with self == q*g, or None when g does not divide exactly.

        Long division by the single divisor g, in ints: with A and G the
        numerators, s*A == quo*G + rem throughout, s raised only when a
        leading coefficient of rem is no multiple of G's.  For a principal
        ideal the remainder vanishes iff the division is exact, and then
        q = quo * g.den / (s * self.den)."""
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead = g.leading_monomial()
        lc = g.nums[lead]
        rem, quo, s = dict(self.nums), {}, 1
        while rem:
            m = max(rem, key=grlex_key)
            if not mono_divides(lead, m):
                return None
            k = abs(lc) // gcd(rem[m], lc)
            if k != 1:
                rem = {key: v * k for key, v in rem.items()}
                quo = {key: v * k for key, v in quo.items()}
                s *= k
            q, c = mono_div(m, lead), rem[m] // lc
            quo[q] = c
            for gm, gc in g.nums.items():
                key = mono_mul(q, gm)
                nv = rem.get(key, 0) - c * gc
                if nv:
                    rem[key] = nv
                else:
                    rem.pop(key, None)
        return Polynomial(self.dim, {key: v * g.den for key, v in quo.items()},
                          s * self.den)


def poly_parse(text: str, dim: int) -> Polynomial:
    return Polynomial.parse(text, dim)


def infer_dim(text: str) -> int:
    """The largest variable index x<i> or d<i> named in the text, and at
    least 1 (the text may name only x0 or d0, which no dimension has)."""
    return max([1] + [int(m[1:]) for m in re.findall(r"[xd]\d+", text)])


# ---------------------------------------------------------------------------
# weight vectors and weighted degrees


class WeightVector:
    """Strictly positive rational weights; `total` is their sum, and the
    weights are nums[i]/den over their common denominator den, in ints."""

    __slots__ = ("total", "nums", "den")

    def __init__(self, weights: Iterable):
        ws = tuple(Fraction(w) for w in weights)
        if not ws or any(w <= 0 for w in ws):
            raise PreconditionError("weights must be strictly positive")
        self.total = sum(ws, Fraction(0))
        self.den = lcm(*(w.denominator for w in ws))
        self.nums = tuple(w.numerator * (self.den // w.denominator)
                          for w in ws)

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        return cls([parse_rational(p) for p in text.split(",")])

    @property
    def dim(self) -> int:
        return len(self.nums)

    def __str__(self):
        return ",".join(fmt_rational(Fraction(n, self.den)) for n in self.nums)


def scaled_degree(m: Mono, w: WeightVector) -> int:
    """w.den times the weighted degree of m: one int dot product over
    w.nums."""
    if len(m) != w.dim:
        raise DimensionMismatch(f"monomial length {len(m)} vs weights {w.dim}")
    return sum(e * n for e, n in zip(m, w.nums))


def weighted_degree(m: Mono, w: WeightVector) -> Fraction:
    """scaled_degree(m, w) over w.den."""
    return Fraction(scaled_degree(m, w), w.den)


def monomials_weighted_upto(w: WeightVector, bound: Fraction):
    """All monomials of weighted degree <= bound (bound may be negative), in
    grlex order.  The weights and bound are scaled to integers once, so the
    enumeration adds and compares ints."""
    ws, num, den = w.nums, bound.numerator * w.den, bound.denominator
    out = []

    def rec(prefix, i, rest):
        if i == w.dim:
            out.append(prefix)
            return
        for e in range(rest // ws[i] + 1):
            rec(prefix + (e,), i + 1, rest - e * ws[i])

    if num >= 0:
        rec((), 0, num // den)
    out.sort(key=grlex_key)
    return out


# ---------------------------------------------------------------------------
# monomial ideals


def minimalize(monos: Iterable[Mono]) -> tuple:
    """The minimal elements of monos under division, in grlex order.  A
    proper divisor has lower total degree, so each monomial is tested only
    against the kept ones of lower degree, a prefix of the kept list."""
    ms = sorted(set(tuple(m) for m in monos), key=grlex_key)
    out, lower, deg = [], (), None
    for m in ms:
        if sum(m) != deg:
            deg, lower = sum(m), tuple(out)
        if not any(mono_divides(g, m) for g in lower):
            out.append(m)
    return tuple(out)


class MonomialIdeal:
    """Monomial ideal given by its minimal generator set."""

    __slots__ = ("dim", "gens")

    def __init__(self, dim: int, gens: Iterable[Mono] = ()):
        gens = tuple(tuple(g) for g in gens)
        for g in gens:
            if len(g) != dim:
                raise DimensionMismatch(f"generator {g} in dimension {dim}")
        self.dim = dim
        self.gens = minimalize(gens)

    @classmethod
    def unit(cls, dim: int) -> "MonomialIdeal":
        return cls(dim, [(0,) * dim])

    def _check(self, other: "MonomialIdeal"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def contains_monomial(self, m: Mono) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def __le__(self, other: "MonomialIdeal") -> bool:
        self._check(other)
        return all(other.contains_monomial(g) for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.dim == other.dim
                and self.gens == other.gens)

    def __str__(self):
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(mono_str(g) for g in self.gens) + ")"

    __repr__ = __str__

    def to_json(self):
        return [mono_str(g) for g in self.gens]


def graded_ideal(w: WeightVector, gamma, strict: bool) -> MonomialIdeal:
    """Minimal generators of the ideal of monomials of weighted degree
    > gamma (strict) or >= gamma.

    With the weights and gamma scaled to integers once, a monomial
    qualifies when its degree reaches need.  The walk visits only the
    staircase: each prefix exponent runs up to the least one with which the
    prefix alone qualifies (the rest then zero), and the last exponent is
    the least that qualifies.  A monomial is kept when no exponent can drop
    by one: its excess over need is below each weight of its support.
    """
    ws, num, den = w.nums, gamma.numerator * w.den, gamma.denominator
    need = num // den + 1 if strict else -(-num // den)
    if need <= 0:
        return MonomialIdeal.unit(w.dim)
    last = w.dim - 1
    gens = []

    def walk(prefix, i, rest):
        wi = ws[i]
        top = -(-rest // wi)
        if i < last:
            for e in range(top):
                walk(prefix + (e,), i + 1, rest - e * wi)
        m = prefix + (top,) + (0,) * (last - i)
        excess = top * wi - rest
        if all(wj > excess for wj, e in zip(ws, m) if e):
            gens.append(m)

    walk((), 0, need)
    return MonomialIdeal(w.dim, gens)
