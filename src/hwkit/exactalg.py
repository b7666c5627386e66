"""Exact rational arithmetic: multivariate polynomials over Q, monomial
ideals, weight vectors and the weighted-graded slices of the polynomial ring.

Everything here is immutable and pure.  No floating point is used anywhere
in this package; products accumulate integer numerators (`mul_terms`), and
every scalar a `Polynomial` returns is a `fractions.Fraction`.  The closed
forms' twist ranges are checked here, once each (`unit_interval_alpha`,
`positive_alpha`), so that the benchmark's tracer, which times the functions
defined in bsdata, snc and whom, gains no spans.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
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


def integer_terms(terms: dict):
    """(numerators, den) for a dict of Fractions: den is the lcm of the
    denominators (1 for an empty dict), and numerators maps each key to the
    int n with value == n/den."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


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


def monomials_upto_degree(dim: int, bound: int) -> Iterator[Mono]:
    """All exponent vectors of total degree <= bound, in grlex order: degree
    by degree, each degree in lex order."""
    # exact[d]: the vectors of total degree d over the exponents built so
    # far, in lex order; each pass puts one more exponent in front
    exact = [[()] if d == 0 else [] for d in range(bound + 1)]
    for _ in range(dim):
        exact = [[(e,) + rest for e in range(d + 1) for rest in exact[d - e]]
                 for d in range(bound + 1)]
    return (m for level in exact for m in level)


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


def parse_terms(text: str, allow: str):
    """Parse a sum of products into [(coefficient, [(name, exponent), ...])].

    `allow` is a string of permitted factor kinds: 'x' for variables,
    'd' for partials, 's' for the central parameter.  Grammar:
      expr   := ['-'] term (('+'|'-') term)*
      term   := coeff ('*' factor)* | factor ('*' factor)*
      coeff  := int ('/' posint)?
      factor := name ('^' nat)?
    """
    tokens = tokenize(text)
    i = 0

    def peek():
        return tokens[i]

    def take(kind=None, value=None):
        nonlocal i
        tok = tokens[i]
        if kind and tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, got {tok[1]!r}", tok[2])
        i += 1
        return tok

    def parse_factor():
        tok = take("name")
        name = tok[1]
        if name[0] not in allow:
            raise ParseError(f"{name!r} not allowed here", tok[2])
        exp = 1
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            exp = take("int")[1]
        return (name, exp)

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
    """Canonical sparse dict {key: nonzero Fraction} in `dim` variables: the
    arithmetic, identity and printing that `Polynomial` and
    `weyl.WeylOperator` share.  A subclass supplies its own `__init__` (key
    canonicalisation), `constant`, product, `sorted_keys` (printing order)
    and `_factors(key)` (the key printed as a product, "" for a constant)."""

    __slots__ = ("dim", "terms", "_hash")

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
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return type(self)(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.dim, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self.zero(self.dim)
        return type(self)(self.dim, {k: v * c for k, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.one(self.dim)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        # type-exact: a Polynomial never equals a WeylOperator
        return (type(other) is type(self) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        """Signed sum in `sorted_keys` order: "-3/4*x1^2 + x2 - 1"."""
        parts = []
        for key in self.sorted_keys():
            c = self.terms[key]
            body = self._factors(key)
            if not body or abs(c) != 1:
                body = fmt_rational(abs(c)) + (f"*{body}" if body else "")
            if parts:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
            else:
                parts.append(body if c > 0 else f"-{body}")
        return " ".join(parts) or "0"

    __repr__ = __str__


class Polynomial(SparseTerms):
    """Sparse multivariate polynomial over Q, canonical and immutable."""

    __slots__ = ()

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        clean = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:  # a Fraction is already canonical
                    c = Fraction(c)
                if c:
                    if len(m) != dim:
                        raise DimensionMismatch(
                            f"monomial {m} in dimension-{dim} polynomial")
                    clean[tuple(m)] = c
        self.terms = clean
        self._hash = None

    # -- constructors

    @classmethod
    def constant(cls, dim: int, c) -> "Polynomial":
        return cls(dim, {(0,) * dim: Fraction(c)})

    @classmethod
    def monomial(cls, m: Mono, coeff=1) -> "Polynomial":
        return cls(len(m), {tuple(m): Fraction(coeff)})

    @classmethod
    def parse(cls, text: str, dim: int) -> "Polynomial":
        terms = {}
        for coeff, factors in parse_terms(text, allow="x"):
            exps = [0] * dim
            for name, e in factors:
                idx = int(name[1:]) - 1
                if idx < 0 or idx >= dim:
                    raise ParseError(f"variable {name} out of range 1..{dim}", 0)
                exps[idx] += e
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(dim, terms)

    # -- arithmetic

    def __mul__(self, other):
        """Zero at once when an operand has no terms; otherwise the products
        of the operands' integer numerators (integer_terms) are summed per
        monomial, over the product of their denominators."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if not (self.terms and other.terms):
            return Polynomial.zero(self.dim)
        num_a, den_a = integer_terms(self.terms)
        num_b, den_b = integer_terms(other.terms)
        den = den_a * den_b
        # drops the sums that cancelled
        return Polynomial(self.dim, {m: Fraction(c, den) for m, c
                                     in mul_terms(num_a, num_b).items()})

    __rmul__ = __mul__

    def mul_mono(self, m: Mono, coeff) -> "Polynomial":
        coeff = Fraction(coeff)
        return Polynomial(
            self.dim, {mono_mul(k, m): v * coeff for k, v in self.terms.items()})

    def partial(self, i: int) -> "Polynomial":
        return Polynomial(self.dim, partial_terms(self.terms, i))

    # -- queries

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def sorted_keys(self):
        """Monomials in descending grlex order."""
        return sorted(self.terms, key=grlex_key, reverse=True)

    def _factors(self, m: Mono) -> str:
        return "*".join(power_factors("x", m))

    def leading_monomial(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial")
        return max(self.terms, key=grlex_key)

    def div_exact(self, g: "Polynomial"):
        """Return q with self == q*g, or None when g does not divide exactly.

        Long division by the single divisor g; for a principal ideal the
        remainder vanishes iff the division is exact.
        """
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead = g.leading_monomial()
        lc = g.terms[lead]
        rem = dict(self.terms)
        quo = {}
        while rem:
            m = max(rem, key=grlex_key)
            if not mono_divides(lead, m):
                return None
            q = mono_div(m, lead)
            c = rem[m] / lc
            quo[q] = quo.get(q, Fraction(0)) + c
            for gm, gc in g.terms.items():
                key = mono_mul(q, gm)
                nv = rem.get(key, Fraction(0)) - c * gc
                if nv:
                    rem[key] = nv
                else:
                    rem.pop(key, None)
        return Polynomial(self.dim, quo)


def poly_parse(text: str, dim: int) -> Polynomial:
    return Polynomial.parse(text, dim)


def infer_dim(text: str) -> int:
    """The largest variable index x<i> or d<i> named in the text, or 1."""
    idx = [int(m[1:]) for m in re.findall(r"[xd]\d+", text)]
    return max(idx) if idx else 1


# ---------------------------------------------------------------------------
# weight vectors and weighted degrees


class WeightVector:
    """Strictly positive rational weights; `total` is their sum."""

    __slots__ = ("weights", "total")

    def __init__(self, weights: Iterable):
        ws = tuple(Fraction(w) for w in weights)
        if not ws or any(w <= 0 for w in ws):
            raise PreconditionError("weights must be strictly positive")
        self.weights = ws
        self.total = sum(ws, Fraction(0))

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        return cls([parse_rational(p) for p in text.split(",")])

    @property
    def dim(self) -> int:
        return len(self.weights)

    def __eq__(self, other):
        return isinstance(other, WeightVector) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __str__(self):
        return ",".join(fmt_rational(w) for w in self.weights)


def weighted_degree(m: Mono, w: WeightVector) -> Fraction:
    if len(m) != w.dim:
        raise DimensionMismatch(f"monomial length {len(m)} vs weights {w.dim}")
    return sum((e * wi for e, wi in zip(m, w.weights)), Fraction(0))


def _scaled(w: WeightVector, bound) -> tuple:
    """(weights, numerator, denominator) of w and bound times the lcm of
    the weights' denominators; the weights come out as ints."""
    den = lcm(*(wi.denominator for wi in w.weights))
    bound = Fraction(bound)
    return ([wi.numerator * (den // wi.denominator) for wi in w.weights],
            bound.numerator * den, bound.denominator)


def monomials_weighted_upto(w: WeightVector, bound: Fraction):
    """All monomials of weighted degree <= bound (bound may be negative), in
    grlex order.  The weights and bound are scaled to integers once, so the
    enumeration adds and compares ints."""
    ws, num, den = _scaled(w, bound)
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
    ms = sorted(set(tuple(m) for m in monos), key=grlex_key)
    out = []
    for m in ms:
        if not any(mono_divides(g, m) for g in out):
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

    @classmethod
    def zero(cls, dim: int) -> "MonomialIdeal":
        return cls(dim, [])

    def _check(self, other: "MonomialIdeal"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def is_zero(self) -> bool:
        return not self.gens

    def contains_monomial(self, m: Mono) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.dim, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(
            self.dim,
            [mono_mul(a, b) for a in self.gens for b in other.gens])

    def __le__(self, other: "MonomialIdeal") -> bool:
        self._check(other)
        return all(other.contains_monomial(g) for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.dim == other.dim
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.dim, self.gens))

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
    ws, num, den = _scaled(w, gamma)
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
