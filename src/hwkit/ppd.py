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
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from operator import mul, sub
from typing import NamedTuple

from .bsdata import BFunction, RootMultiset, beta_factor, roots_in_interval
from .errors import (InconclusiveAtBound, InternalCheckFailed, ParseError,
                     PreconditionError)
from .exactalg import (Polynomial, combine_terms, fmt_rational, infer_dim,
                       mono_mul, monomials_upto_degree, parse_rational)
from .linalg import Echelon, nullspace
from .snc import HodgePresentation
from .vforacle import (Bounds, PowerTable, clear_to_pole, pole_apply,
                       reduce_presentation)
from .weyl import (KeyPacking, WeylOperator, _mul_into, apply_to_twisted,
                   basis_products, bounded_operator_basis, evaluate_s,
                   fold_grading, grlex_operator_key, homogeneity_grading,
                   syzygy_kernel, weyl_mul, window_packing)


def check_annihilator(zeta: WeylOperator, f: Polynomial) -> bool:
    """True iff zeta kills f^(s-1) exactly: zeta F^(s-1) = H F^(s-1-G)
    with H = 0 (apply_to_twisted)."""
    if not zeta.is_s_free():
        return False
    return not apply_to_twisted(zeta, f, -1)[0]


def _is_derivation(op: WeylOperator) -> bool:
    return all(sum(de) == 1 and sp == 0 for (_, de, sp) in op.nums)


class AnnihilatorInput:
    """f with an Euler field, s-free annihilator generators of f^(s-1), the
    b-function b that the input asserts, and the asserted primality flag.
    Construction checks the hypotheses in order (PreconditionError).  b is
    not verified as the b-function of f: the only check on it is that its
    roots lie in (-2-alpha, -alpha)."""

    __slots__ = ("f", "euler", "zetas", "alpha", "b", "pp_asserted")

    def __init__(self, f: Polynomial, euler: WeylOperator, zetas,
                 alpha, b: BFunction, pp_asserted: bool = False):
        self.f = f
        self.euler = euler
        self.zetas = tuple(zetas)
        self.alpha = Fraction(alpha)
        self.b = b
        self.pp_asserted = pp_asserted
        if not f.total_degree():
            raise PreconditionError("f is constant",
                                    hypothesis="f is non-constant")
        if self.alpha < 0:
            raise PreconditionError("alpha must be non-negative",
                                    hypothesis="alpha >= 0")
        if not _is_derivation(euler):
            raise PreconditionError("Euler field must be a pure derivation",
                                    hypothesis="E is an order-1 vector field")
        # a derivation E has (E - s) f^s = s f^(s-1) (E(f) - f)
        if apply_to_twisted(euler - WeylOperator.s(self.dim), f, 0)[0]:
            raise PreconditionError("E(f) != f",
                                    hypothesis="f is Euler homogeneous")
        for i, z in enumerate(self.zetas):
            if not check_annihilator(z, f):
                raise PreconditionError(
                    f"generator {i} does not annihilate f^(s-1)",
                    hypothesis="zetas annihilate f^(s-1)")
        if not roots_in_interval(b, -2 - self.alpha, -self.alpha, True):
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


class GammaPresentation(NamedTuple):
    """Generators {f, beta(-s), zetas..., E - s + 1} of the ideal carrying
    the weight data, together with the perturbation used for the weighted
    level-0 sub-ideal (None for the unweighted ideal): the JSON of a set
    epsilon also carries "weighted_level": 0."""

    generators: tuple
    epsilon: Fraction | None

    def to_json(self):
        out = {"generators": [str(g) for g in self.generators]}
        if self.epsilon is not None:
            out["weighted_level"] = 0
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
    nums, den = RootMultiset(
        {-c: m for c, m in window.roots.items()}).coefficients()
    beta_op = WeylOperator(dim, {(z, z, j): c for j, c in nums.items()}, den)
    gens = [WeylOperator.from_polynomial(inp.f), beta_op]
    gens.extend(inp.zetas)
    euler_gen = inp.euler - WeylOperator.s(dim) + WeylOperator.one(dim)
    gens.append(euler_gen)
    return GammaPresentation(tuple(gens), eps)


def weight_module_generators(inp: AnnihilatorInput, l: int, bounds: Bounds):
    """First components of the bounded syzygy kernel of
    (P_0,...,P_{m+1}) -> P_0 (E+alpha+1)^l + sum P_i zeta_i + P_{m+1} f.

    Returns (generators, meta); the span of the generators applied to
    f^(-1-alpha) presents the weight-(n+l) step.  Completeness holds only at
    the stated search bounds and is recorded in meta.  f itself is always a
    first component, via the tuple (f, 0, ..., 0, -(E+alpha)^l), so the
    generators are never empty.  The kernel's tuples are integer numerators
    over one den (`syzygy_kernel`); their first components and f go into one
    `Echelon` as they are, each operator key an int coordinate, and each
    linearly independent one, in kernel order with f last, becomes a
    WeylOperator of those ints and den as is.
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

    # the nonzero first components and f, as integer numerators over den,
    # each operator key given an int index at first sight: whether an insert
    # is independent does not depend on the order of the coordinates
    firsts = [(parts[0], den) for parts, den in kernel if parts[0]]
    firsts.append((fop.nums, fop.den))
    index = {}
    seen = Echelon()
    gens = []
    for p0, den in firsts:
        vec = {index.setdefault(key, len(index)): c for key, c in p0.items()}
        if seen.insert(vec, den) is None:
            gens.append(WeylOperator(dim, p0, den))
    meta = {"complete_at_bounds": {"order": so, "xdeg": sx},
            "tuples": len(kernel)}
    return gens, meta


def operators_on_pole(ops, f: Polynomial, alpha: Fraction) -> list:
    """Evaluate each s-free operator of ops applied to f^(-1-alpha) as
    (numerator, pole), with the pole kept minimal.  One pole_apply call over
    the d-parts of all the ops gives the images d^gamma f^(-1-alpha) that
    their terms share, in integer numerators, brought over one denominator
    once.  Each op's terms x^a * c * image are summed per pole as ints and
    cleared in ints (clear_to_pole, from the call's one PowerTable) to the
    largest pole of a term (a pole whose sum is zero included); the one
    Polynomial this gives is divided down to the minimal pole.  An operator
    that still carries s raises InternalCheckFailed."""
    if not all(op.is_s_free() for op in ops):
        raise InternalCheckFailed(
            "an operator evaluated on a pole still carries s")
    images = pole_apply({de for op in ops for _, de, _ in op.nums},
                        ({0: {(0,) * f.dim: 1}}, 1), 1, (alpha, 0), f)
    den = lcm(*(d for _, d, _ in images.values()))
    image_nums = {de: [(m, c * (den // d))
                       for m, c in layers.get(0, {}).items()]
                  for de, (layers, d, _) in images.items()}
    powers = PowerTable(f)
    out = []
    for op in ops:
        sums = {}  # pole -> {monomial: int numerator}
        for (xe, de, _), c in op.nums.items():
            acc = sums.setdefault(images[de][2], {})
            for m, v in image_nums[de]:
                key = mono_mul(xe, m)
                acc[key] = acc.get(key, 0) + c * v
        pole = max(sums, default=1)
        total = Polynomial(f.dim,
                           *clear_to_pole(sums, op.den * den, powers, pole))
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
                for num, pole in operators_on_pole(gens, inp.f, inp.alpha)]
    pres = HodgePresentation.build(inp.alpha, inp.dim, summands)
    return reduce_presentation(pres, inp.f, bounds)


def _reach(keys) -> tuple:
    """The largest x-degree, |d| + s and s over the operator keys (0 for
    none)."""
    return tuple(map(max, zip((0, 0, 0), *((sum(xe), sum(de) + sp, sp)
                                           for xe, de, sp in keys))))


def _kept_keys(gens, window) -> list:
    """Per generator g_b, the keys m of bounded_operator_basis(dim, *window),
    window = (order, xdeg, s_bound), in that (grlex) order, whose column
    m * g_b no relation among the generators writes by columns inserted
    before it, generator-major and then grlex.  With LT the largest key of a
    nonzero generator under grlex_operator_key, the order of those keys,
    and a < b, two relations skip columns:

    - g_b = P * g_a for a monomial P: m * g_b is (m * P) * g_a, columns of
      g_a, when m + P lies in the window;
    - g_a * g_b - g_b * g_a = c with c = 0 or c = q * g_i for a scalar q
      and i <= b: for m = LT(g_a) + m'', m'' g_a g_b = m'' g_b g_a + q m'' g_i
      writes m * g_b by columns of g_a, by the column m'' * g_i and by the
      columns n * g_b, n a grlex-smaller key of m'' * g_a, when m'' plus the
      reach (x-degree, |d| + s, s) of g_a and of g_b lies in the window (c
      is nonzero only for g_a not constant, so m'' comes before m).

    The checks run on the generators' integer terms, read once, through
    weyl's product kernel `_mul_into`; a scalar multiple is found by
    cross-multiplying at the leading key.  A check costs about as many term
    products as columns it could skip (|g_a| for P * g_a, 2 |g_a| |g_b| for
    c), so it is made only when it would skip at least that many columns
    not skipped yet (a P whose reach is >= that of a P taken skips none).
    A zero generator gives no relation and gets none.  Keys are compared as
    ints packed in radix max(window) + 1, so a shift is an int addition."""
    order, xdeg, s_bound = window
    dim = gens[0].dim
    keys = bounded_operator_basis(dim, order, xdeg, s_bound)
    pack = KeyPacking(dim, max(window) + 1, 0).pack
    one = (0,) * dim
    # x-part -> (|x|, packed), (d, s)-part -> (|d| + s, s, packed)
    xs = {x: (sum(x), pack((x, one, 0)))
          for x in monomials_upto_degree(dim, xdeg)}
    gjs = {(g, j): (sum(g) + j, j, pack((one, g, j)))
           for g in monomials_upto_degree(dim, order)
           for j in range(min(s_bound, order - sum(g)) + 1)}
    nums = [g.nums for g in gens]
    lead = [max(num, key=grlex_operator_key, default=None) for num in nums]
    flat = [lt and (*lt[0], *lt[1], lt[2]) for lt in lead]
    reach = [_reach(num) for num in nums]

    def size(r):
        """The number of keys m'' with m'' + r in the window."""
        x, o, s = xdeg - r[0], order - r[1], s_bound - r[2]
        return comb(x + dim, dim) * sum(comb(o - j + dim, dim) for j in
                                        range(min(o, s) + 1)) if x >= 0 else 0

    @functools.cache  # lives for this call: one set per shift and reach
    def skipped(shift, r):
        """The packed keys shift + m'' with m'' + r in the window."""
        x, o, s, base = xdeg - r[0], order - r[1], s_bound - r[2], pack(shift)
        gc = [base + c for oj, j, c in gjs.values() if oj <= o and j <= s]
        return {u + v for d, u in xs.values() if d <= x for v in gc}

    def multiple(u, key, cu, i):
        """Whether u, zeros dropped, is cu / nums[i][key] times nums[i]."""
        return ({k: v * nums[i][key] for k, v in u.items() if v}
                == {k: v * cu for k, v in nums[i].items()})

    codes = [xs[x][1] + gjs[g, j][2] for x, g, j in keys]
    room = [size(r) for r in reach]  # size(r) <= room[a] for r >= reach[a]
    out = []
    for b, nb in enumerate(nums):
        lb, skip = lead[b], set()
        earlier = [a for a in range(b) if lead[a] and lb]
        # the P of smallest reach first, since it skips the most columns; p
        # is the key of P as one flat vector (x, d, then s exponents)
        for rp, p, a in sorted(
                ((sum(p[:dim]), sum(p[dim:]), p[-1]), p, a) for a in earlier
                for p in [tuple(map(sub, flat[b], flat[a]))] if min(p) >= 0):
            if len(new := skipped((one, one, 0), rp) - skip) < len(nums[a]):
                continue
            # P * g_a = g_b for P = LC(g_b) / LC(g_a) times the monomial p
            if multiple(_mul_into({}, {(p[:dim], p[dim:-1], p[-1]): 1},
                                  nums[a], dim), lb, nums[a][lead[a]], b):
                skip |= new
        for a in earlier:
            na = nums[a]
            cost = 2 * len(na) * len(nb)
            if min(room[a], room[b]) < cost:
                continue
            r = tuple(map(max, reach[a], reach[b]))
            if size(r) < cost or len(new := skipped(lead[a], r) - skip) < cost:
                continue
            c = combine_terms(_mul_into({}, na, nb, dim), 1,
                              _mul_into({}, nb, na, dim), -1)
            lc = max(c, key=grlex_operator_key, default=None)
            if not c or any(lead[i] == lc and multiple(c, lc, c[lc], i)
                            for i in range(b + 1)):
                skip |= new
        out.append([m for m, c in zip(keys, codes) if c not in skip]
                   if skip else keys)
    return out


def _order_bounded_elements(gens, kept, k: int, packing, residual=None):
    """Basis of the elements u = sum A_i g_i, each A_i a combination of the
    operators x^b d^g s^j of kept[i], with total order <= k and, when
    residual is given, residual(i, m, u) == 0 for the product u = m * g_i
    (a linear map from integer terms dicts, keyed by `packing`, to an
    `Echelon.reduce` triple).

    The order > k part and the residual are stacked into one column per
    product m * g_i, the residual block shifted by packing.top above the
    first, and the order <= k part is its companion.  A nullspace
    dependency cancels the order > k parts, so its companion combination is
    an element of the answer, made a WeylOperator of the dependency's
    numerators, unpacked, over its den.

    kept is `_kept_keys` of the caller's window: the products that a
    relation among the gens writes by earlier ones are not built.  Column
    and companion are both linear in the product, so a dropped column's
    dependency would be a combination of earlier dependencies, which
    `found` rejects; and a dependent insert changes no row, so every later
    dependency, and the answer, stay those of the whole basis.
    """
    dim = gens[0].dim
    above_k = functools.cache(lambda code: packing.order(code) > k)
    cols, dens, comps = [], [], []
    for i, (g, keys) in enumerate(zip(gens, kept)):
        products, den = basis_products(keys, g, packing)
        for m, u in zip(keys, products):
            res, _, scale = residual(i, m, u) if residual else ({}, {}, 1)
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
    for dep, den in nullspace(cols, dens, comps):
        if dep and found.insert(dep, den) is None:
            out.append(WeylOperator(dim, {packing.unpack(code): c
                                          for code, c in dep.items()}, den))
    return out


class W0Span(NamedTuple):
    """What w0_span(inp, l, bounds) makes: the span of the level-0 weighted
    sub-ideal's products, the key packing it is keyed by (which also covers
    the gamma generators' products), and the (inp, l, bounds) it was made
    for.

    The span is built one weight block at a time (`cover`).  The grading
    makes every generator of gens w-homogeneous, where x^b d^g s^j weighs
    w.(b - g); its weights are folded into one int weight, so the column
    m * g of the generator of degree e has degree e + xw[b] - dw[g]
    (`degrees` per generator, xw and dw per x-part and d-part).  The i-th
    generators of gens and gens0 differ at most in beta(-s), which is
    s-only and so of degree 0 under every weight: `degrees` grades both
    lists.  Columns of different degrees have disjoint supports, so a
    block's rows, and the residual of a vector of one degree, are those of
    the whole span; built holds the degrees inserted so far."""

    inp: AnnihilatorInput
    l: int
    bounds: Bounds
    gens: tuple
    packing: KeyPacking
    span: Echelon
    gens0: tuple
    kept: list
    degrees: tuple
    xw: dict
    dw: dict
    built: set

    def cover(self, keys):
        """Insert the kept w0 columns of the degrees not built yet that the
        keys (b, g, j) reach, one collection of keys per generator,
        generator-major and grlex within a generator: covering every
        degree in one call inserts them in the order of the whole basis."""
        xw, dw = self.xw, self.dw
        new = {e + xw[b] - dw[g] for e, ks in zip(self.degrees, keys)
               for b, g, _ in ks} - self.built
        if not new:
            return
        for g, kept, e in zip(self.gens0, self.kept, self.degrees):
            reached = [m for m in kept if e + xw[m[0]] - dw[m[1]] in new]
            products, den = basis_products(reached, g, self.packing)
            for u in products:
                self.span.insert(u, den)
        self.built.update(new)


def _require_pp(inp: AnnihilatorInput):
    """Hodge steps k >= 1 of the syzygy route, and every step of the (-2,-1]
    formula, rest on the asserted primality of the symbol ideal."""
    if not inp.pp_asserted:
        raise PreconditionError(
            "this Hodge step needs the asserted primality flag",
            hypothesis="symbol ideal of the annihilator is prime (asserted)")


def w0_span(inp: AnnihilatorInput, l: int, bounds: Bounds) -> W0Span:
    """The bounded span, at bounds with s-powers up to l + 2, of the products
    of the level-0 weighted sub-ideal's generators, with no block built yet.
    Its packing also covers the products of the gamma generators over the
    same window, whose s-powers the residual map (s + alpha)^l raises by at
    most l; it does not depend on the Hodge step k, so one span serves
    hodge_on_weight(w0, k) for every k, each call covering only the degrees
    it lacks.  The products that a relation among the generators writes by
    earlier ones (_kept_keys) are not built: each would be a dependent
    insert, which changes no row, so the span keeps the rows, in the same
    order, of the whole basis.  The grading is one `homogeneity_grading`
    over the exponent differences b - g of the gamma generators' terms,
    which also grades the level-0 list (W0Span); with none, every column
    has degree 0 and the span is one block."""
    if l < 0:
        raise PreconditionError("l must be non-negative")
    dim, order, xdeg = inp.dim, bounds.order, bounds.xdeg
    gens = gamma_ideal(inp).generators
    gens0 = gamma_ideal(inp, weighted=True).generators
    packing = window_packing(gens + gens0, order, xdeg, l + 2, s_extra=l)
    grading = homogeneity_grading(dim, [[tuple(map(sub, b, g))
                                         for b, g, _ in op.nums]
                                        for op in gens])
    # one int weight, over every degree a column reaches
    weight, degrees = fold_grading(dim, len(gens), grading, order + xdeg)
    xw, dw = ({m: sum(map(mul, weight, m))
               for m in monomials_upto_degree(dim, bound)}
              for bound in (xdeg, order))
    return W0Span(inp, l, bounds, gens, packing, Echelon(), gens0,
                  _kept_keys(gens0, (order, xdeg, l + 2)), degrees, xw, dw,
                  set())


def _w0_queries(w0: W0Span, kept) -> list:
    """Per gamma generator g_i, the set of keys m of kept[i] whose residual
    hodge_on_weight must reduce.  The others have residual zero: g_i is also
    w0's i-th generator, and m s^t, for the top power t = l of (s + alpha)^l
    and so for every lower one, lies in w0's window (|g| + j + l <= order,
    j + l <= l + 2; |b| <= xdeg holds in every hodge window), so every term
    of (s + alpha)^l * m * g_i is a w0 basis product, a kept column or one
    that _kept_keys dropped as dependent on earlier ones."""
    top = w0.bounds.order - w0.l
    return [{m for m in keys if sum(m[1]) + m[2] > top or m[2] > 2}
            if g == g0 else set(keys)
            for g, g0, keys in zip(w0.gens, w0.gens0, kept)]


def hodge_on_weight(w0: W0Span, k: int) -> HodgePresentation:
    """Hodge step k of the weight-(n+l) piece, for the input, level l and
    bounds the span w0 = w0_span(inp, l, bounds) was made for: elements of
    the weighted sub-ideal with total order <= k, evaluated at s = -alpha on
    f^(-1-alpha).  It reads the input, level and bounds from w0 alone, so it
    cannot be handed a span of another input, level or bounds.  Before its
    columns are built it covers the w0 blocks of the degrees its residual
    queries (`_w0_queries`) reach; a column that is no query gets the
    residual zero with no reduce.

    k = 0 is unconditional; k >= 1 requires the asserted primality flag and
    the output then carries conditional provenance.
    """
    inp, l, bounds = w0.inp, w0.l, w0.bounds
    if k < 0:
        raise PreconditionError("k must be non-negative")
    if k >= 1:
        _require_pp(inp)
    gens, packing = w0.gens, w0.packing
    # (s + alpha)^l; s is central, so multiplying by s^j adds the packed key
    # of s^j, which is j
    spoly, _ = RootMultiset({-inp.alpha: l}).coefficients()
    so, sx = min(bounds.order, k + 2), min(bounds.xdeg, 6)
    kept = _kept_keys(gens, (so, sx, l + 2))
    queries = _w0_queries(w0, kept)
    w0.cover(queries)

    def residual(i, m, u):
        # spoly*u must lie in the bounded span of the w0 generators; spoly
        # is scaled by one constant, which leaves the kernel unchanged
        if m not in queries[i]:
            return {}, {}, 1
        prod = {}
        for shift, cj in spoly.items():
            for code, c in u.items():
                key = code + shift
                v = cj * c
                prod[key] = prod[key] + v if key in prod else v
        return w0.span.reduce({key: c for key, c in prod.items() if c}, 1)

    sols = _order_bounded_elements(gens, kept, k, packing, residual)
    if not sols:
        raise InconclusiveAtBound("no elements found at these bounds",
                                  bounds={"order": so, "xdeg": sx})
    summands = [(0, num, pole) for num, pole in operators_on_pole(
        evaluate_s(sols, -inp.alpha), inp.f, inp.alpha)]
    return HodgePresentation.build(inp.alpha, inp.dim, summands)


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
    if not roots_in_interval(inp.b, -2, -1, False):
        raise PreconditionError(
            "b-function roots not contained in (-2,-1]",
            hypothesis="roots of b lie in (-2,-1]")
    _require_pp(inp)
    dim = inp.dim
    gens = list(gens) + [inp.euler + WeylOperator.one(dim)]
    so, sx = min(bounds.order, k + 2), min(bounds.xdeg, 6)
    packing = window_packing(gens, so, sx)
    ops = _order_bounded_elements(gens, _kept_keys(gens, (so, sx, 0)), k,
                                  packing)
    summands = [(0, num, pole)
                for num, pole in operators_on_pole(ops, inp.f, Fraction(0))]
    pres = HodgePresentation.build(Fraction(0), dim, summands)
    if not pres.summands:
        raise InconclusiveAtBound("no elements found at these bounds",
                                  bounds={"order": so, "xdeg": sx})
    return pres


# ---------------------------------------------------------------------------
# annihilator input files


def _parse_at(offset: int, parse, text: str, *args):
    """parse(text, *args), with a ParseError's position moved by offset, the
    offset of text in the file it was read from."""
    try:
        return parse(text, *args)
    except ParseError as exc:
        raise ParseError(exc.message, exc.position + offset) from exc


def parse_annihilator_file(text: str, dim: int | None) -> AnnihilatorInput:
    """Header lines `f:`, `E:`, `alpha:`, `b:`, `pp:` (true/false, 1/0 or
    yes/no), each at most once, in any case; every other non-empty line is
    one annihilator generator in the operator grammar.  Another pp: value or
    a repeated header raises ParseError at the offset of its line, a
    missing header at the end of the text, and an error inside a header
    value or a generator at its offset in the text.  Without dim, the
    dimension is inferred from the comment-stripped lines."""
    headers, starts, at, zeta_lines = {}, {}, {}, []
    lines = []
    offsets = accumulate(map(len, text.splitlines(keepends=True)), initial=0)
    for start, raw in zip(offsets, text.splitlines()):
        code = raw.split("#", 1)[0]
        line = code.strip()
        lines.append(line)
        if not line:
            continue
        line_at = start + len(code) - len(code.lstrip())
        name, colon, value = line.partition(":")
        key = name.lower()
        if not colon or key not in ("f", "e", "alpha", "b", "pp"):
            zeta_lines.append((line, line_at))
        elif key in headers:
            raise ParseError(f"repeated header {name}:", start)
        else:
            headers[key], starts[key] = value.strip(), start
            at[key] = line_at + len(line) - len(headers[key])
    if not {"f", "e", "b"} <= headers.keys():
        raise ParseError("annihilator file needs f:, E: and b: headers",
                         len(text))
    pp = headers.get("pp", "false")
    if pp.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ParseError(f"pp: takes true/false, 1/0 or yes/no, not {pp!r}",
                         starts["pp"])
    if dim is None:
        dim = infer_dim("\n".join(lines))
    f = _parse_at(at["f"], Polynomial.parse, headers["f"], dim)
    euler = _parse_at(at["e"], WeylOperator.parse, headers["e"], dim)
    alpha = _parse_at(at.get("alpha", 0), parse_rational,
                      headers.get("alpha", "0"))
    b = _parse_at(at["b"], BFunction.parse, headers["b"])
    zetas = [_parse_at(pos, WeylOperator.parse, z, dim)
             for z, pos in zeta_lines]
    return AnnihilatorInput(f, euler, zetas, alpha, b,
                            pp.lower() in ("true", "1", "yes"))
