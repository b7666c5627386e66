"""Weight and Hodge filtration data for Euler-homogeneous divisors with a
user-supplied annihilator presentation: the generator ideal built from f,
the beta factor and the annihilator, its weighted sub-ideals, and the
syzygy-based formulas for weight steps and their Hodge pieces.

Results computed under the asserted (never verified) primality flag carry a
conditional provenance tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bsdata import BFunction, RootMultiset, beta_factor, roots_in_interval
from .errors import (InconclusiveAtBound, InternalCheckFailed, ParseError,
                     PreconditionError)
from .exactalg import Polynomial, fmt_rational, infer_dim, parse_rational
from .linalg import Echelon, nullspace
from .snc import HodgePresentation
from .vforacle import Bounds, DEFAULT_BOUNDS, pole_apply
from .weyl import (WeylOperator, annihilates_power, basis_products,
                   bounded_operator_basis, syzygy_kernel, weyl_mul)


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


def _roots_to_operator(dim: int, factor: RootMultiset) -> WeylOperator:
    """The operator prod (s - c)^m for the factor's roots c, sign-normalized
    to be monic in s (units do not change the generated ideal)."""
    out = WeylOperator.one(dim)
    s = WeylOperator.s(dim)
    for c, m in sorted(factor.roots.items()):
        fac = s - WeylOperator.constant(dim, c)
        for _ in range(m):
            out = out * fac
    return out


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


def gamma_ideal(inp: AnnihilatorInput, l: int | None = None) -> GammaPresentation:
    """The generator list of the ideal; for l=0 the beta factor is recomputed
    at alpha + epsilon (the sub-ideal all higher weighted levels test
    against).  beta(-s) appears sign-normalized monic; the empty beta factor
    contributes the unit generator."""
    dim = inp.dim
    alpha = inp.alpha
    eps = None
    if l is not None:
        if l != 0:
            raise PreconditionError("only the level-0 sub-ideal has its own "
                                    "generator list")
        eps = inp.epsilon()
        alpha = alpha + eps
    # beta(-s): the factor's roots c give (s + c + 1) in s; substituting -s
    # and normalizing signs yields roots at c+1 shifted... concretely the
    # factor list of beta(-s) is prod (s - (r+1)) over b-roots r in the
    # open window.
    window = beta_factor(inp.b, alpha)
    beta_op = _roots_to_operator(dim, RootMultiset(
        {-c: m for c, m in window.roots.items()}))
    gens = [WeylOperator.from_polynomial(inp.f), beta_op]
    gens.extend(inp.zetas)
    euler_gen = inp.euler - WeylOperator.s(dim) + WeylOperator.one(dim)
    gens.append(euler_gen)
    return GammaPresentation(tuple(gens), l, eps)


def weight_module_generators(inp: AnnihilatorInput, l: int,
                             bounds: Bounds = DEFAULT_BOUNDS,
                             search_order: int | None = None,
                             search_xdeg: int | None = None):
    """First components of the bounded syzygy kernel of
    (P_0,...,P_{m+1}) -> P_0 (E+alpha+1)^l + sum P_i zeta_i + P_{m+1} f.

    Returns (generators, meta); the span of the generators applied to
    f^(-1-alpha) presents the weight-(n+l) step.  Completeness holds only at
    the stated search bounds and is recorded in meta.  f itself is always a
    first component, via the tuple (f, 0, ..., 0, -(E+alpha)^l).
    """
    mult = inp.b.multiplicity(-inp.alpha - 1)
    if not l < mult:
        raise PreconditionError(
            f"l={l} is not below the multiplicity {mult} of -alpha-1",
            hypothesis="l < multiplicity of -alpha-1 as a b-function root")
    dim = inp.dim
    so = search_order if search_order is not None else min(bounds.order, l + 2)
    sx = search_xdeg if search_xdeg is not None else min(bounds.xdeg, 4)
    shifted = (inp.euler + WeylOperator.constant(dim, inp.alpha + 1)) ** l
    targets = [shifted] + list(inp.zetas) + [WeylOperator.from_polynomial(inp.f)]
    kernel = syzygy_kernel(targets, so, sx)

    # the always-present witness tuple (f, 0, ..., 0, -(E+alpha)^l)
    fop = WeylOperator.from_polynomial(inp.f)
    witness = [fop] + [WeylOperator.zero(dim)] * len(inp.zetas) \
        + [-((inp.euler + WeylOperator.constant(dim, inp.alpha)) ** l)]
    total = WeylOperator.zero(dim)
    for p, t in zip(witness, targets):
        total = total + weyl_mul(p, t)
    if not total.is_zero():
        raise InternalCheckFailed(
            "Euler witness tuple failed re-multiplication")

    seen = Echelon()
    gens = []
    for tup in list(kernel) + [tuple(witness)]:
        p0 = tup[0]
        if p0.is_zero():
            continue
        if seen.insert(dict(p0.terms)) is None:
            gens.append(p0)
    meta = {"complete_at_bounds": {"order": so, "xdeg": sx},
            "tuples": len(kernel)}
    if not gens:
        raise InconclusiveAtBound("no kernel elements at these bounds",
                                  bounds={"order": so, "xdeg": sx})
    return gens, meta


def operator_on_pole(op: WeylOperator, f: Polynomial, step: int,
                     alpha: Fraction):
    """Evaluate an s-free operator applied to f^(-step-alpha) as
    (numerator, pole), with the pole kept minimal."""
    if not op.is_s_free():
        raise ValueError("operator still carries s")
    parts = []
    for (xe, de, _), c in op.terms.items():
        num, p = pole_apply(de, Polynomial.one(f.dim), step, alpha, f)
        parts.append((num.mul_mono(xe, c), p))
    if not parts:
        return Polynomial.zero(f.dim), step
    pole = max(p for _, p in parts)
    total = Polynomial.zero(f.dim)
    for num, p in parts:
        total = total + num * f ** (pole - p)
    while pole > 0 and not total.is_zero():
        q = total.div_exact(f)
        if q is None:
            break
        total, pole = q, pole - 1
    return total, pole


def weight_step_presentation(inp: AnnihilatorInput, l: int,
                             bounds: Bounds = DEFAULT_BOUNDS,
                             budget: int | None = None) -> HodgePresentation:
    """The weight-(n+l) step as a presentation: each syzygy first component
    evaluated on f^(-1-alpha), carrying the full operator budget (the step
    is a D-module, not just an O-module).  The generator list is minimalized
    at the given bounds."""
    from .vforacle import reduce_presentation

    gens, _ = weight_module_generators(inp, l, bounds)
    budget = bounds.order if budget is None else budget
    summands = []
    for g in gens:
        num, pole = operator_on_pole(g, inp.f, 1, inp.alpha)
        if not num.is_zero():
            summands.append((budget, num, pole))
    pres = HodgePresentation.build(inp.alpha, inp.dim, summands)
    return reduce_presentation(pres, inp.f, bounds)


def _order_bounded_elements(gens, sbasis, k: int, residual=None):
    """Basis of the elements u = sum A_i g_i, each A_i a combination of the
    sbasis operators, with total order <= k and, when residual is given,
    residual(u) == 0 (a linear map into coordinate dicts).

    The order > k part and the residual are stacked into one column per
    product op * g; every nullspace dependency, carried with the products as
    companions, is an element of the answer.
    """
    dim = gens[0].dim
    cols, comps = [], []
    for g in gens:
        for u in basis_products(sbasis, g):
            stacked = {("h", key): c for key, c in u.items()
                       if sum(key[1]) + key[2] > k}
            if residual is not None:
                for key, c in residual(WeylOperator(dim, u)).items():
                    stacked[("r", key)] = c
            cols.append(stacked)
            comps.append(u)
    found = Echelon()
    out = []
    for dep in nullspace(cols, comps):
        if dep and found.insert(dep) is None:
            out.append(WeylOperator(dim, dep))
    return out


def hodge_on_weight(inp: AnnihilatorInput, l: int, k: int,
                    bounds: Bounds = DEFAULT_BOUNDS,
                    search_order: int | None = None,
                    search_xdeg: int | None = None) -> HodgePresentation:
    """Hodge step k of the weight-(n+l) piece: elements of the weighted
    sub-ideal with total order <= k, evaluated at s = -alpha on f^(-1-alpha).

    k = 0 is unconditional; k >= 1 requires the asserted primality flag and
    the output then carries conditional provenance.
    """
    if k < 0 or l < 0:
        raise PreconditionError("k, l must be non-negative")
    if k >= 1 and not inp.pp_asserted:
        raise PreconditionError(
            "higher Hodge steps need the asserted primality flag",
            hypothesis="symbol ideal of the annihilator is prime (asserted)")
    dim = inp.dim
    gamma = gamma_ideal(inp)
    gamma0 = gamma_ideal(inp, 0)
    spoly = (WeylOperator.s(dim)
             + WeylOperator.constant(dim, inp.alpha)) ** l
    so = search_order if search_order is not None else min(bounds.order, k + 2)
    sx = search_xdeg if search_xdeg is not None else min(bounds.xdeg, 6)
    s_bound = l + 2
    w0 = Echelon()
    w0_basis = bounded_operator_basis(dim, bounds.order, bounds.xdeg,
                                      with_s=True, s_bound=s_bound)
    for g in gamma0.generators:
        for u in basis_products(w0_basis, g):
            w0.insert(u)
    sbasis = bounded_operator_basis(dim, so, sx, with_s=True, s_bound=s_bound)
    # spoly*u must lie in the bounded span of the w0 generators
    sols = _order_bounded_elements(
        gamma.generators, sbasis, k,
        lambda u: w0.reduce(dict(weyl_mul(spoly, u).terms))[0])
    if not sols:
        raise InconclusiveAtBound("no elements found at these bounds",
                                  bounds={"order": so, "xdeg": sx})
    summands = []
    for u in sols:
        num, pole = operator_on_pole(u.substitute_s(-inp.alpha), inp.f, 1,
                                     inp.alpha)
        if not num.is_zero():
            summands.append((0, num, pole))
    return HodgePresentation.build(inp.alpha, dim, summands)


def hodge_weight_interval21(inp: AnnihilatorInput, l: int | None, k: int,
                            bounds: Bounds = DEFAULT_BOUNDS,
                            search_order: int | None = None,
                            search_xdeg: int | None = None) -> HodgePresentation:
    """Untwisted (alpha = 0) Hodge pieces under the hypothesis that all
    b-function roots lie in (-2,-1]: the bounded intersection of the syzygy
    first components extended by the ideal of E+1 with the order-<=k
    operators, applied to f^(-1).  l = None gives the full-filtration
    fallback F_k D f^(-1)."""
    if inp.alpha != 0:
        raise PreconditionError("this formula is for the untwisted module",
                                hypothesis="alpha = 0")
    if not roots_in_interval(inp.b, -2, -1, True, False):
        raise PreconditionError(
            "b-function roots not contained in (-2,-1]",
            hypothesis="roots of b lie in (-2,-1]")
    if not inp.pp_asserted:
        raise PreconditionError(
            "this formula needs the asserted primality flag",
            hypothesis="symbol ideal of the annihilator is prime (asserted)")
    dim = inp.dim
    if l is None:
        return HodgePresentation.unit(Fraction(0), dim, k, 1)
    p1, _ = weight_module_generators(inp, l, bounds)
    euler1 = inp.euler + WeylOperator.one(dim)
    gens = list(p1) + [euler1]
    so = search_order if search_order is not None else min(bounds.order, k + 2)
    sx = search_xdeg if search_xdeg is not None else min(bounds.xdeg, 6)
    sbasis = bounded_operator_basis(dim, so, sx)
    summands = []
    for u in _order_bounded_elements(gens, sbasis, k):
        num, pole = operator_on_pole(u, inp.f, 1, Fraction(0))
        if not num.is_zero():
            summands.append((0, num, pole))
    if not summands:
        raise InconclusiveAtBound("no elements found at these bounds",
                                  bounds={"order": so, "xdeg": sx})
    return HodgePresentation.build(Fraction(0), dim, summands)


# ---------------------------------------------------------------------------
# annihilator input files


def parse_annihilator_file(text: str, dim: int | None = None,
                           pp_default: bool = False) -> AnnihilatorInput:
    """Header lines `f:`, `E:`, `alpha:`, `b:`, `pp:`; every other non-empty
    line is one annihilator generator in the operator grammar."""
    f_text = e_text = b_text = None
    alpha = Fraction(0)
    pp = pp_default
    zeta_lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
        dim = infer_dim(text)
    f = Polynomial.parse(f_text, dim)
    euler = WeylOperator.parse(e_text, dim)
    b = BFunction.parse(b_text)
    zetas = [WeylOperator.parse(z, dim) for z in zeta_lines]
    return AnnihilatorInput(f, euler, zetas, alpha, b, pp)
