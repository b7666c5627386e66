"""Closed-form Hodge x weight tables for monomial (simple normal crossing)
divisors, with the multiplier- and adjoint-ideal specializations of the
lowest Hodge step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import PreconditionError
from .exactalg import (MonomialIdeal, Polynomial, fmt_rational, grlex_key,
                       mono_str, positive_alpha)


class SncDivisor:
    """Monomial divisor f = prod x_i^(a_i) with at least one positive exponent."""

    __slots__ = ("a", "dim")

    def __init__(self, a):
        self.a = tuple(int(e) for e in a)
        if any(e < 0 for e in self.a):
            raise PreconditionError("negative exponent")
        if not any(self.a):
            raise PreconditionError("all exponents vanish",
                                    hypothesis="divisor support is non-empty")
        self.dim = len(self.a)

    @property
    def support(self):
        return tuple(i for i, e in enumerate(self.a) if e)

    def integral_indices(self, alpha) -> tuple:
        return tuple(i for i in self.support
                     if self.a[i] % alpha.denominator == 0)

    def m_alpha(self, alpha) -> int:
        return len(self.integral_indices(alpha))

    def polynomial(self) -> Polynomial:
        return Polynomial.monomial(self.a)

    def restrict_to_stratum(self, vanishing) -> "SncDivisor":
        """Local model at a stratum where only the listed coordinates vanish:
        the other exponents are dropped."""
        keep = set(vanishing)
        a = tuple(e if i in keep else 0 for i, e in enumerate(self.a))
        return SncDivisor(a)

    def __str__(self):
        return mono_str(self.a)

    __repr__ = __str__


class HodgePresentation(NamedTuple):
    """Finite sum over summands (budget k_j, generator g_j, pole step j) of
    F_{k_j}D * g_j * f^(-j-alpha); summands with negative budget are dropped
    at construction."""

    alpha: Fraction
    dim: int
    summands: tuple  # of (budget: int, generator: Polynomial, pole_step: int)

    @classmethod
    def build(cls, alpha, dim, summands) -> "HodgePresentation":
        packed = []
        for budget, gen, step in summands:
            if budget < 0 or gen.is_zero():
                continue
            packed.append((int(budget), gen, int(step)))
        packed.sort(key=lambda t: (t[2], -t[0], grlex_key(t[1].leading_monomial())))
        return cls(Fraction(alpha), dim, tuple(packed))

    def max_pole(self) -> int:
        return max((step + budget for budget, _, step in self.summands), default=0)

    def to_json(self):
        return {
            "alpha": fmt_rational(self.alpha),
            "summands": [{"budget": b, "generator": str(g), "pole_step": j}
                         for b, g, j in self.summands],
        }


def snc_weight_top(d: SncDivisor, alpha) -> int:
    """Number of support indices i with alpha*a_i integral; the weight
    filtration is exhausted at level n plus this count."""
    alpha = positive_alpha(alpha)
    return d.m_alpha(alpha)


def snc_f0_ideal(d: SncDivisor, alpha, l: int) -> MonomialIdeal:
    """Minimal monomial generators of the order-zero Hodge piece of the
    weight-(n+l) step: the sum over subsets J of the integral index set of
    size l of prod_{I_a \\ J} x^ceil(alpha a) * prod_{(I \\ I_a) u J}
    x^(ceil(alpha a) - 1)."""
    alpha = positive_alpha(alpha)
    ia = d.integral_indices(alpha)
    if not (0 <= l <= len(ia)):
        raise PreconditionError(f"l={l} outside 0..{len(ia)}",
                                hypothesis="0 <= l <= m_alpha")
    gens = []
    for J in combinations(ia, l):
        Jset = set(J)
        e = [0] * d.dim
        for i in d.support:
            c = math.ceil(alpha * d.a[i])
            e[i] = c if (i in ia and i not in Jset) else c - 1
        gens.append(tuple(e))
    return MonomialIdeal(d.dim, gens)


def snc_hodge_weight(d: SncDivisor, alpha, k: int, l: int) -> HodgePresentation:
    """Hodge step k of the weight-(n+l) piece: budget-k operators applied to
    the order-zero generators, all at pole step 0."""
    if k < 0:
        raise PreconditionError("k must be non-negative")
    ideal = snc_f0_ideal(d, alpha, l)
    return HodgePresentation.build(
        Fraction(alpha), d.dim,
        [(k, Polynomial.monomial(g), 0) for g in ideal.gens])


def snc_multiplier_ideal(d: SncDivisor, alpha) -> MonomialIdeal:
    """prod x_i^floor(alpha a_i); agrees with snc_f0_ideal(d, alpha, 0)."""
    alpha = positive_alpha(alpha)
    e = tuple(math.floor(alpha * ai) for ai in d.a)
    return MonomialIdeal(d.dim, [e])


def snc_adjoint_specialization(d: SncDivisor, alpha) -> MonomialIdeal:
    """The weight-(n+1) order-zero piece, defined when at least one index is
    integral for alpha."""
    alpha = Fraction(alpha)
    if d.m_alpha(alpha) < 1:
        raise PreconditionError("no index with alpha*a_i integral",
                                hypothesis="m_alpha >= 1")
    return snc_f0_ideal(d, alpha, 1)
