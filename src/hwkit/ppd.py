"""Weight and Hodge filtration data for Euler-homogeneous divisors with a
user-supplied annihilator presentation: the generator ideal built from f,
the beta factor and the annihilator, its weighted sub-ideals, and the
syzygy-based formulas for weight steps and their Hodge pieces.

Results computed under the asserted (never verified) primality flag carry a
conditional provenance tag.  The s-polynomials beta(-s) and (s+alpha)^l are
expansions of a root multiset (`RootMultiset.coefficients`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bsdata import BFunction, RootMultiset, beta_factor, roots_in_interval
from .errors import (InconclusiveAtBound, InternalCheckFailed, ParseError,
                     PreconditionError)
from .exactalg import (Polynomial, fmt_rational, infer_dim, integer_terms,
                       mono_mul, parse_rational)
from .linalg import Echelon, nullspace
from .snc import HodgePresentation
from .vforacle import Bounds, clear_to_pole, pole_apply, reduce_presentation
from .weyl import (KeyPacking, WeylOperator, annihilates_power,
                   basis_products, bounded_operator_basis, syzygy_kernel,
                   weyl_mul, window_packing)


def check_annihilator(zeta: WeylOperator, f: Polynomial) -> bool:
    """True iff zeta kills f^(s-1) exactly."""
    if not zeta.is_s_free():
        return False
    return annihilates_power(zeta, f, -1)


def _is_derivation(op: WeylOperator) -> bool:
    return all(sum(de) == 1 and sp == 0 for (_, de, sp) in op.terms)


def _apply_derivation(op: WeylOperator, f: Polynomial) -> Polynomial:
    out = Polynomial.zero(f.dim)
    for (xe, de, _), c in op.terms.items():
        i = next(k for k, e in enumerate(de) if e)
        out = out + f.partial(i).mul_mono(xe, c)
    return out


@dataclass
class AnnihilatorInput:
    """f with an Euler field, s-free annihilator generators of f^(s-1), a
    verified b-function whose roots lie in (-2-alpha, -alpha), and the
    asserted primality flag."""

    f: Polynomial
    euler: WeylOperator
    zetas: tuple
    alpha: Fraction
    b: BFunction
    pp_asserted: bool = False

    def __post_init__(self):
        self.alpha = Fraction(self.alpha)
        self.zetas = tuple(self.zetas)
        if not self.f.total_degree():
            raise PreconditionError("f is constant",
                                    hypothesis="f is non-constant")
        if self.alpha < 0:
            raise PreconditionError("alpha must be non-negative",
                                    hypothesis="alpha >= 0")
        if not _is_derivation(self.euler):
            raise PreconditionError("Euler field must be a pure derivation",
                                    hypothesis="E is an order-1 vector field")
        if _apply_derivation(self.euler, self.f) != self.f:
            raise PreconditionError("E(f) != f",
                                    hypothesis="f is Euler homogeneous")
        for i, z in enumerate(self.zetas):
            if not check_annihilator(z, self.f):
                raise PreconditionError(
                    f"generator {i} does not annihilate f^(s-1)",
                    hypothesis="zetas annihilate f^(s-1)")
        if not roots_in_interval(self.b, -2 - self.alpha, -self.alpha,
                                 True, True):
            raise PreconditionError(
                "b-function roots not contained in (-2-alpha,-alpha)",
                hypothesis="roots of b lie in (-2-alpha,-alpha)")

    @property
    def dim(self) -> int:
        return self.f.dim

    def epsilon(self) -> Fraction:
        """Half the minimal positive distance from -alpha to the roots of b
        and their integer shifts; the canonical witness for the boundary
        perturbation."""
        dists = set()
        for r in self.b.roots:
            for shift in range(-self.dim - 2, self.dim + 3):
                d = abs((r + shift) - (-self.alpha))
                if d > 0:
                    dists.add(d)
        dists.add(Fraction(1))
        return min(dists) / 2


@dataclass(frozen=True)
class GammaPresentation:
    """Generators {f, beta(-s), zetas..., E - s + 1} of the ideal carrying
    the weight data, together with the perturbation used for the weighted
    level (None for the unweighted ideal)."""

    generators: tuple
    weighted_level: int | None
    epsilon: Fraction | None

    def to_json(self):
        out = {"generators": [str(g) for g in self.generators]}
        if self.weighted_level is not None:
            out["weighted_level"] = self.weighted_level
            out["epsilon"] = fmt_rational(self.epsilon)
        return out


def gamma_ideal(inp: AnnihilatorInput,
                weighted: bool = False) -> GammaPresentation:
    """The generator list of the ideal; weighted recomputes the beta factor
    at alpha + epsilon, giving the level-0 sub-ideal all higher weighted
    levels test against ("weighted_level": 0 in its JSON).  beta(-s)
    appears sign-normalized monic; the empty beta factor contributes the
    unit generator."""
    dim = inp.dim
    alpha = inp.alpha
    eps = None
    if weighted:
        eps = inp.epsilon()
        alpha = alpha + eps
    # beta(-s), made monic: prod (s - r - 1) over b-roots r in (-alpha-1, -alpha)
    window = beta_factor(inp.b, alpha)
    z = (0,) * dim
    beta_op = WeylOperator(dim, {(z, z, j): c for j, c in RootMultiset(
        {-c: m for c, m in window.roots.items()}).coefficients().items()})
    gens = [WeylOperator.from_polynomial(inp.f), beta_op]
    gens.extend(inp.zetas)
    euler_gen = inp.euler - WeylOperator.s(dim) + WeylOperator.one(dim)
    gens.append(euler_gen)
    return GammaPresentation(tuple(gens), 0 if weighted else None, eps)


def weight_module_generators(inp: AnnihilatorInput, l: int, bounds: Bounds):
    """First components of the bounded syzygy kernel of
    (P_0,...,P_{m+1}) -> P_0 (E+alpha+1)^l + sum P_i zeta_i + P_{m+1} f.

    Returns (generators, meta); the span of the generators applied to
    f^(-1-alpha) presents the weight-(n+l) step.  Completeness holds only at
    the stated search bounds and is recorded in meta.  f itself is always a
    first component, via the tuple (f, 0, ..., 0, -(E+alpha)^l), so the
    generators are never empty.
    """
    mult = inp.b.multiplicity(-inp.alpha - 1)
    if not l < mult:
        raise PreconditionError(
            f"l={l} is not below the multiplicity {mult} of -alpha-1",
            hypothesis="l < multiplicity of -alpha-1 as a b-function root")
    dim = inp.dim
    so, sx = min(bounds.order, l + 2), min(bounds.xdeg, 4)
    shifted = (inp.euler + WeylOperator.constant(dim, inp.alpha + 1)) ** l
    fop = WeylOperator.from_polynomial(inp.f)
    targets = [shifted] + list(inp.zetas) + [fop]
    kernel = syzygy_kernel(targets, so, sx)

    # the always-present witness tuple (f, 0, ..., 0, -(E+alpha)^l); its
    # zero entries drop out of the re-multiplication, which leaves
    # f (E+alpha+1)^l = (E+alpha)^l f
    euler_l = (inp.euler + WeylOperator.constant(dim, inp.alpha)) ** l
    if weyl_mul(fop, shifted) != weyl_mul(euler_l, fop):
        raise InternalCheckFailed(
            "Euler witness tuple failed re-multiplication")

    firsts = [p0 for p0 in [*(tup[0] for tup in kernel), fop]
              if not p0.is_zero()]
    # the packing of the first components themselves: radix one above their
    # largest exponent
    packing = window_packing(firsts, 0, 0)
    seen = Echelon()
    gens = []
    for p0 in firsts:
        if seen.insert(*integer_terms(packing.pack_image(p0.terms))) is None:
            gens.append(p0)
    meta = {"complete_at_bounds": {"order": so, "xdeg": sx},
            "tuples": len(kernel)}
    return gens, meta


def operators_on_pole(ops, f: Polynomial, step: int, alpha: Fraction) -> list:
    """Evaluate each s-free operator of ops applied to f^(-step-alpha) as
    (numerator, pole), with the pole kept minimal.  One pole_apply call over
    the d-parts of all the ops gives the images d^gamma f^(-step-alpha) that
    their terms share, in integer numerators, brought over one denominator
    once.  Each op's terms x^a * c * image are summed per pole as ints and
    cleared in ints (clear_to_pole) to the largest pole of a term (a pole
    whose sum is zero included); the one Polynomial this gives is divided
    down to the minimal pole.  An operator that still carries s raises
    InternalCheckFailed."""
    if not all(op.is_s_free() for op in ops):
        raise InternalCheckFailed(
            "an operator evaluated on a pole still carries s")
    images = pole_apply({de for op in ops for _, de, _ in op.terms},
                        Polynomial.one(f.dim), step, alpha, f)
    den = lcm(*(d for _, d, _ in images.values()))
    image_nums = {de: [(m, c * (den // d)) for m, c in num.items()]
                  for de, (num, d, _) in images.items()}
    f_int = integer_terms(f.terms)
    out = []
    for op in ops:
        op_num, op_den = integer_terms(op.terms)
        sums = {}  # pole -> {monomial: int numerator}
        for (xe, de, _), c in op_num.items():
            acc = sums.setdefault(images[de][2], {})
            for m, v in image_nums[de]:
                key = mono_mul(xe, m)
                acc[key] = acc.get(key, 0) + c * v
        pole = max(sums, default=step)
        num, scale = clear_to_pole(sums, op_den * den, f_int, pole)
        total = Polynomial(f.dim, {m: Fraction(v, scale)
                                   for m, v in num.items()})
        while pole > 0 and not total.is_zero():
            q = total.div_exact(f)
            if q is None:
                break
            total, pole = q, pole - 1
        out.append((total, pole))
    return out


def weight_step_presentation(inp: AnnihilatorInput, gens,
                             bounds: Bounds) -> HodgePresentation:
    """The weight-(n+l) step as a presentation, from the generators of
    weight_module_generators(inp, l, bounds): each syzygy first component
    evaluated on f^(-1-alpha), carrying the full operator budget bounds.order
    (the step is a D-module, not just an O-module).  The generator list is
    minimalized at the given bounds."""
    summands = [(bounds.order, num, pole)
                for num, pole in operators_on_pole(gens, inp.f, 1, inp.alpha)]
    pres = HodgePresentation.build(inp.alpha, inp.dim, summands)
    return reduce_presentation(pres, inp.f, bounds)


def _order_bounded_elements(gens, sbasis, k: int, packing, residual=None):
    """Basis of the elements u = sum A_i g_i, each A_i a combination of the
    operators of the basis keys sbasis, with total order <= k and, when
    residual is given, residual(u) == 0 (a linear map from integer terms
    dicts, keyed by `packing`, into Fraction coordinate dicts).

    The order > k part and the residual are stacked into one column per
    product op * g, the residual block shifted by packing.top above the
    first, and the order <= k part is its companion.  A nullspace
    dependency cancels the order > k parts, so its companion combination is
    an element of the answer.
    """
    dim = gens[0].dim
    above_k = functools.cache(lambda code: packing.order(code) > k)
    cols, dens, comps = [], [], []
    for g in gens:
        products, den = basis_products(sbasis, g, packing)
        for u in products:
            res, scale = ({}, 1) if residual is None \
                else integer_terms(residual(u))
            stacked, below = {}, {}
            for code, c in u.items():
                (stacked if above_k(code) else below)[code] = c * scale
            for code, c in res.items():
                stacked[code + packing.top] = c
            cols.append(stacked)
            dens.append(den * scale)
            comps.append(below)
    found = Echelon()
    out = []
    for dep in nullspace(cols, dens, comps):
        if dep and found.insert(*integer_terms(dep)) is None:
            out.append(WeylOperator(dim, {packing.unpack(code): c
                                          for code, c in dep.items()}))
    return out


@dataclass(frozen=True, eq=False)
class W0Span:
    """What w0_span(inp, l, bounds) builds: the span, the key packing it is
    keyed by, the gamma generators that packing also covers, and the
    (inp, l, bounds) it was built for."""

    inp: AnnihilatorInput
    l: int
    bounds: Bounds
    gens: tuple
    packing: KeyPacking
    span: Echelon


def _require_pp(inp: AnnihilatorInput):
    """Hodge steps k >= 1 of the syzygy route, and every step of the (-2,-1]
    formula, rest on the asserted primality of the symbol ideal."""
    if not inp.pp_asserted:
        raise PreconditionError(
            "this Hodge step needs the asserted primality flag",
            hypothesis="symbol ideal of the annihilator is prime (asserted)")


def w0_span(inp: AnnihilatorInput, l: int, bounds: Bounds) -> W0Span:
    """The bounded span, at bounds with s-powers up to l + 2, of the products
    of the level-0 weighted sub-ideal's generators.  Its packing also covers
    the products of the gamma generators over the same window, whose
    s-powers the residual map (s + alpha)^l raises by at most l; it does not
    depend on the Hodge step k, so one span serves hodge_on_weight(w0, k)
    for every k."""
    if l < 0:
        raise PreconditionError("l must be non-negative")
    gens = gamma_ideal(inp).generators
    gens0 = gamma_ideal(inp, weighted=True).generators
    packing = window_packing(gens + gens0, bounds.order, bounds.xdeg, l + 2,
                             s_extra=l)
    basis = bounded_operator_basis(inp.dim, bounds.order, bounds.xdeg, l + 2)
    span = Echelon()
    for g in gens0:
        products, den = basis_products(basis, g, packing)
        for u in products:
            span.insert(u, den)
    return W0Span(inp, l, bounds, gens, packing, span)


def hodge_on_weight(w0: W0Span, k: int) -> HodgePresentation:
    """Hodge step k of the weight-(n+l) piece, for the input, level l and
    bounds the span w0 = w0_span(inp, l, bounds) was built for: elements of
    the weighted sub-ideal with total order <= k, evaluated at s = -alpha on
    f^(-1-alpha).  It reads the input, level and bounds from w0 alone, so it
    cannot be handed a span of another input, level or bounds.

    k = 0 is unconditional; k >= 1 requires the asserted primality flag and
    the output then carries conditional provenance.
    """
    inp, l, bounds = w0.inp, w0.l, w0.bounds
    if k < 0:
        raise PreconditionError("k must be non-negative")
    if k >= 1:
        _require_pp(inp)
    dim = inp.dim
    gens, packing = w0.gens, w0.packing
    # (s + alpha)^l; s is central, so multiplying by s^j adds the packed key
    # of s^j
    spoly, _ = integer_terms(RootMultiset({-inp.alpha: l}).coefficients())
    spoly = {packing.shift((0,) * dim, j): c for j, c in spoly.items()}
    so, sx = min(bounds.order, k + 2), min(bounds.xdeg, 6)
    sbasis = bounded_operator_basis(dim, so, sx, l + 2)

    def residual(u):
        # spoly*u must lie in the bounded span of the w0 generators; spoly
        # is scaled by one constant, which leaves the kernel unchanged
        prod = {}
        for shift, cj in spoly.items():
            for code, c in u.items():
                key = code + shift
                v = cj * c
                prod[key] = prod[key] + v if key in prod else v
        return w0.span.reduce({key: c for key, c in prod.items() if c},
                              1)[0]

    sols = _order_bounded_elements(gens, sbasis, k, packing, residual)
    if not sols:
        raise InconclusiveAtBound("no elements found at these bounds",
                                  bounds={"order": so, "xdeg": sx})
    ops = [u.substitute_s(-inp.alpha) for u in sols]
    summands = [(0, num, pole)
                for num, pole in operators_on_pole(ops, inp.f, 1, inp.alpha)]
    return HodgePresentation.build(inp.alpha, dim, summands)


def hodge_weight_interval21(inp: AnnihilatorInput, gens, k: int,
                            bounds: Bounds) -> HodgePresentation:
    """Untwisted (alpha = 0) Hodge pieces under the hypothesis that all
    b-function roots lie in (-2,-1]: the bounded intersection of the syzygy
    first components gens (of weight_module_generators at the weight level)
    extended by the ideal of E+1 with the order-<=k operators, applied to
    f^(-1)."""
    if inp.alpha != 0:
        raise PreconditionError("this formula is for the untwisted module",
                                hypothesis="alpha = 0")
    if not roots_in_interval(inp.b, -2, -1, True, False):
        raise PreconditionError(
            "b-function roots not contained in (-2,-1]",
            hypothesis="roots of b lie in (-2,-1]")
    _require_pp(inp)
    dim = inp.dim
    gens = list(gens) + [inp.euler + WeylOperator.one(dim)]
    so, sx = min(bounds.order, k + 2), min(bounds.xdeg, 6)
    sbasis = bounded_operator_basis(dim, so, sx)
    packing = window_packing(gens, so, sx)
    ops = _order_bounded_elements(gens, sbasis, k, packing)
    summands = [(0, num, pole)
                for num, pole in operators_on_pole(ops, inp.f, 1, Fraction(0))]
    pres = HodgePresentation.build(Fraction(0), dim, summands)
    if not pres.summands:
        raise InconclusiveAtBound("no elements found at these bounds",
                                  bounds={"order": so, "xdeg": sx})
    return pres


# ---------------------------------------------------------------------------
# annihilator input files


def parse_annihilator_file(text: str, dim: int | None) -> AnnihilatorInput:
    """Header lines `f:`, `E:`, `alpha:`, `b:`, `pp:`; every other non-empty
    line is one annihilator generator in the operator grammar.  Without dim,
    the dimension is inferred from the comment-stripped lines."""
    f_text = e_text = b_text = None
    alpha = Fraction(0)
    pp = False
    zeta_lines = []
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    for line in filter(None, lines):
        lowered = line.lower()
        if lowered.startswith("f:"):
            f_text = line[2:].strip()
        elif lowered.startswith("e:"):
            e_text = line[2:].strip()
        elif lowered.startswith("alpha:"):
            alpha = parse_rational(line[6:].strip())
        elif lowered.startswith("b:"):
            b_text = line[2:].strip()
        elif lowered.startswith("pp:"):
            pp = line[3:].strip().lower() in ("true", "1", "yes")
        else:
            zeta_lines.append(line)
    if f_text is None or e_text is None or b_text is None:
        raise ParseError("annihilator file needs f:, E: and b: headers", 0)
    if dim is None:
        dim = infer_dim("\n".join(lines))
    f = Polynomial.parse(f_text, dim)
    euler = WeylOperator.parse(e_text, dim)
    b = BFunction.parse(b_text)
    zetas = [WeylOperator.parse(z, dim) for z in zeta_lines]
    return AnnihilatorInput(f, euler, zetas, alpha, b, pp)
