"""The acceptance battery: one function per criterion, each returning a
JSON-able result dict.  The CLI `suite` verb and the acceptance tests both
drive these; outputs carry no timing or environment data so envelopes are
byte-identical across runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import bsdata
from .bsdata import (BFunction, ReducedBFunction, bfunction_snc,
                     bfunction_whom_isolated, classify_pair, genlevel_bound,
                     hodge_pole_full, weight_bounds,
                     weighted_minimal_exponent)
from .exactalg import (MonomialIdeal, Polynomial, WeightVector, mono_str,
                       monomials_upto_degree, poly_parse)
from .ppd import (AnnihilatorInput, hodge_on_weight, w0_span,
                  weight_module_generators, weight_step_presentation)
from .snc import (HodgePresentation, SncDivisor, snc_f0_ideal,
                  snc_hodge_weight, snc_multiplier_ideal)
from .vforacle import (Bounds, SncVFamily, crosscheck_hodge_weight,
                       dspans_equal, presentations_equal, verify_bfunction,
                       verify_v_axioms)
from .weyl import WeylOperator, syzygy_kernel, weyl_mul
from .whom import (QuasiHomogeneousGerm, whom_hodge_weight,
                   whom_micromult_ideal)


def _cusp_germ() -> QuasiHomogeneousGerm:
    return QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))


def _node_germ() -> QuasiHomogeneousGerm:
    return QuasiHomogeneousGerm(poly_parse("x1^2+x2^2", 2),
                                WeightVector.parse("1/2,1/2"))


def _germ_reduced(germ: QuasiHomogeneousGerm) -> ReducedBFunction:
    b = bfunction_whom_isolated(germ)
    return bsdata.reduce(b)


def criterion_1() -> dict:
    """b-function certification for x1^2, x1*x2 and the cusp, with
    minimality refutations at the stated bounds."""
    cases = []
    ok = True

    def run(name, f, b, order, xdeg):
        nonlocal ok
        cert = verify_bfunction(f, b, order, xdeg)
        minimal = cert.is_member() and cert.witness["minimal_at_bound"]
        ok = ok and cert.is_member() and minimal
        cases.append({"f": name, "b": b.product_string(),
                      "verdict": cert.verdict, "minimal_at_bound": minimal})

    run("x1^2", poly_parse("x1^2", 1), bfunction_snc((2,)), 2, 2)
    run("x1*x2", poly_parse("x1*x2", 2), bfunction_snc((1, 1)), 2, 2)
    cusp = _cusp_germ()
    run("x1^2+x2^3", cusp.f, bfunction_whom_isolated(cusp), 3, 6)
    return {"criterion": 1, "name": "b-function certification",
            "passed": ok, "cases": cases}


def criterion_2() -> dict:
    """SNC golden tables and multiplier-ideal consistency."""
    checks = []

    def eq(label, got, want):
        checks.append({"check": label, "got": str(got), "want": str(want),
                       "ok": got == want})

    d11 = SncDivisor((1, 1))
    eq("(1,1) a=1 I_0", snc_f0_ideal(d11, 1, 0), MonomialIdeal(2, [(1, 1)]))
    eq("(1,1) a=1 I_1", snc_f0_ideal(d11, 1, 1),
       MonomialIdeal(2, [(1, 0), (0, 1)]))
    eq("(1,1) a=1 I_2", snc_f0_ideal(d11, 1, 2), MonomialIdeal.unit(2))
    d23 = SncDivisor((2, 3))
    half = Fraction(1, 2)
    checks.append({"check": "(2,3) a=1/2 m_alpha", "got": d23.m_alpha(half),
                   "want": 1, "ok": d23.m_alpha(half) == 1})
    eq("(2,3) a=1/2 I_0", snc_f0_ideal(d23, half, 0),
       MonomialIdeal(2, [(1, 1)]))
    eq("(2,3) a=1/2 I_1", snc_f0_ideal(d23, half, 1),
       MonomialIdeal(2, [(0, 1)]))
    for d, alpha in ((d11, Fraction(1)), (d23, half), (d23, Fraction(1, 5))):
        eq(f"{d} a={alpha} I_0 = multiplier ideal",
           snc_f0_ideal(d, alpha, 0), snc_multiplier_ideal(d, alpha))
        m = d.m_alpha(alpha)
        gens = tuple(max(math.ceil(alpha * ai) - 1, 0) if ai else 0 for ai in d.a)
        eq(f"{d} a={alpha} I_top = eps-shifted multiplier ideal",
           snc_f0_ideal(d, alpha, m), MonomialIdeal(d.dim, [gens]))
    passed = all(c["ok"] for c in checks)
    return {"criterion": 2, "name": "SNC golden tables", "passed": passed,
            "checks": checks}


def criterion_3() -> dict:
    """Master cross-check on the three acceptance divisors, all k <= 2 and
    all valid l, both containments."""
    bounds = Bounds(4, 12, 6)
    results = []
    ok = True
    cusp = _cusp_germ()
    jobs = [("snc", SncDivisor((1, 1)), Fraction(1), (0, 1, 2)),
            ("snc", SncDivisor((2, 3)), Fraction(1, 2), (0, 1)),
            ("whom", cusp, Fraction(5, 6), (0, 1))]
    for kind, obj, alpha, ls in jobs:
        name = str(obj) if kind == "snc" else str(obj.f)
        for k in range(3):
            for l in ls:
                cert = crosscheck_hodge_weight(kind, obj, alpha, k, l, bounds)
                ok = ok and cert.is_member()
                results.append({"f": name, "alpha": str(alpha), "k": k,
                                "l": l, "verdict": cert.verdict})
    return {"criterion": 3, "name": "master-formula cross-check",
            "passed": ok, "results": results, "bounds": bounds.to_json()}


def criterion_4() -> dict:
    """Weighted-homogeneous outputs for the cusp."""
    cusp = _cusp_germ()
    checks = []
    checks.append({"check": "milnor basis",
                   "got": [mono_str(m) for m in cusp.milnor],
                   "ok": list(cusp.milnor) == [(0, 0), (0, 1)]})
    a = Fraction(5, 6)
    p_low = whom_hodge_weight(cusp, a, 0, 0)
    got_low = sorted(str(g) for _, g, _ in p_low.summands)
    checks.append({"check": "F_0 W_2 at 5/6", "got": got_low,
                   "ok": got_low == ["x1", "x2"]
                   and all(b == 0 and j == 0 for b, _, j in p_low.summands)})
    p_full = whom_hodge_weight(cusp, a, 0, 1)
    checks.append({"check": "F_0 full at 5/6",
                   "got": [str(g) for _, g, _ in p_full.summands],
                   "ok": [str(g) for _, g, _ in p_full.summands] == ["1"]})
    m56 = whom_micromult_ideal(cusp, a, 0)
    checks.append({"check": "W_0 microlocal ideal at 5/6",
                   "got": sorted(str(g) for g in m56),
                   "ok": sorted(str(g) for g in m56) == ["x1", "x2"]})
    m12 = whom_micromult_ideal(cusp, Fraction(1, 2), 0)
    checks.append({"check": "W_0 microlocal ideal at 1/2",
                   "got": [str(g) for g in m12],
                   "ok": [str(g) for g in m12] == ["1"]})
    passed = all(c["ok"] for c in checks)
    return {"criterion": 4, "name": "weighted-homogeneous outputs",
            "passed": passed, "checks": checks}


def criterion_5() -> dict:
    """Classification grid for cusp and node."""
    cusp_red = _germ_reduced(_cusp_germ())
    node_red = _germ_reduced(_node_germ())
    grid = [(cusp_red, Fraction(1, 2), (True, True, True)),
            (cusp_red, Fraction(5, 6), (False, True, True)),
            (cusp_red, Fraction(9, 10), (False, False, False)),
            (cusp_red, Fraction(1), (False, False, False)),
            (node_red, Fraction(1), (False, False, True))]
    rows = []
    ok = True
    for bred, alpha, want in grid:
        c = classify_pair(bred, alpha)
        got = (c.klt, c.plt, c.lc)
        ok = ok and got == want
        rows.append({"alpha": str(alpha), "klt": c.klt, "plt": c.plt,
                     "lc": c.lc, "ok": got == want})
    return {"criterion": 5, "name": "classification grid", "passed": ok,
            "rows": rows}


def criterion_6() -> dict:
    """Weight and generating-level bounds."""
    cusp_red = _germ_reduced(_cusp_germ())
    node_red = _germ_reduced(_node_germ())
    checks = [
        ("node weight bounds a=1", weight_bounds(node_red, 1, 2), (4, 4)),
        ("cusp weight bounds a=1", weight_bounds(cusp_red, 1, 2), (3, 3)),
        ("cusp weight bounds a=5/6",
         weight_bounds(cusp_red, Fraction(5, 6), 2), (3, 3)),
        ("node genlevel a=1", genlevel_bound(node_red, 1, 0, 2, False), 0),
        ("cusp genlevel a=1", genlevel_bound(cusp_red, 1, 0, 2, False), 0),
    ]
    rows = [{"check": n, "got": str(g), "want": str(w), "ok": g == w}
            for n, g, w in checks]
    passed = all(r["ok"] for r in rows)
    return {"criterion": 6, "name": "weight and generating-level bounds",
            "passed": passed, "checks": rows}


def _xy_annihilator() -> AnnihilatorInput:
    return AnnihilatorInput(
        poly_parse("x1*x2", 2),
        WeylOperator.parse("1/2*x1*d1 + 1/2*x2*d2", 2),
        [WeylOperator.parse("x1*d1 - x2*d2", 2)],
        Fraction(0), bfunction_snc((1, 1)), pp_asserted=True)


def criterion_7() -> dict:
    """Cross-module agreement between the syzygy route and the monomial
    closed forms on x1*x2."""
    bounds = Bounds(4, 10, 6)
    inp = _xy_annihilator()
    d = SncDivisor((1, 1))
    f = inp.f
    rows = []
    ok = True
    for l in (0, 1):
        gens, _ = weight_module_generators(inp, l, bounds)
        wpres = weight_step_presentation(inp, gens, bounds)
        spres = HodgePresentation.build(
            Fraction(1), 2,
            [(0, Polynomial.monomial(m), 0) for m in snc_f0_ideal(d, 1, l).gens])
        cert = dspans_equal(wpres, spres, f, bounds)
        ok = ok and cert.is_member()
        rows.append({"check": f"weight step l={l}", "verdict": cert.verdict})
        w0 = w0_span(inp, l, bounds)
        for k in (0, 1):
            hp = hodge_on_weight(w0, k)
            cert2 = presentations_equal(hp, snc_hodge_weight(d, 1, k, l), f,
                                        bounds)
            ok = ok and cert2.is_member()
            rows.append({"check": f"hodge l={l} k={k}",
                         "verdict": cert2.verdict})
    return {"criterion": 7, "name": "syzygy route vs monomial closed forms",
            "passed": ok, "rows": rows, "bounds": bounds.to_json()}


def criterion_8() -> dict:
    """Pole-order predicate agrees with unit-ideal-ness of the closed forms
    wherever both are defined."""
    bounds = Bounds(4, 12, 6)
    rows = []
    ok = True
    for germ in (_cusp_germ(), _node_germ()):
        bred = _germ_reduced(germ)
        name = str(germ.f)
        for alpha in (Fraction(1, 2), Fraction(5, 6), Fraction(1)):
            fl = 1 if alpha == 1 else 0
            for k in range(3):
                for l in (0, 1):
                    stratum = l + fl
                    predicted = hodge_pole_full(bred, alpha, k, l)
                    pres = whom_hodge_weight(germ, alpha, k, stratum)
                    unit = HodgePresentation.build(
                        alpha, 2, [(0, Polynomial.one(2), k)])
                    cert = presentations_equal(pres, unit, germ.f, bounds)
                    agrees = predicted == cert.is_member()
                    ok = ok and agrees
                    rows.append({"f": name, "alpha": str(alpha), "k": k,
                                 "l": l, "predicted": predicted,
                                 "closed_form_unit": cert.is_member(),
                                 "ok": agrees})
    return {"criterion": 8, "name": "pole-order predicate consistency",
            "passed": ok, "rows": rows}


def _random_root_multiset(rng: random.Random) -> ReducedBFunction:
    roots = {}
    for _ in range(rng.randint(1, 4)):
        r = -Fraction(rng.randint(1, 12), rng.randint(1, 6))
        roots[r] = roots.get(r, 0) + rng.randint(1, 3)
    return ReducedBFunction(roots)


def _random_operator(rng: random.Random) -> WeylOperator:
    dim = 2
    terms = {}
    for _ in range(rng.randint(1, 4)):
        xe = tuple(rng.randint(0, 2) for _ in range(dim))
        de = tuple(rng.randint(0, 2) for _ in range(dim))
        terms[(xe, de, 0)] = Fraction(rng.randint(-4, 4))
    return WeylOperator(dim, terms)


def _operator_x_derivative(op: WeylOperator, i: int) -> WeylOperator:
    return WeylOperator(op.dim, {
        (xe[:i] + (xe[i] - 1,) + xe[i + 1:], de, sp): c * xe[i]
        for (xe, de, sp), c in op.nums.items() if xe[i]}, op.den)


def criterion_9() -> dict:
    """Property suites: filtration monotonicity, pole-predicate
    monotonicity, the class-implication chain, syzygy re-multiplication,
    the commutator identity, and verdict flips under corruption."""
    rng = random.Random(20240801)
    checks = []

    # monotonicity of the closed-form ideals
    mono_ok = True
    for a in ((1, 1), (2, 3), (1, 1, 1)):
        d = SncDivisor(a)
        for alpha in (Fraction(1, 5), Fraction(1, 2), Fraction(1)):
            m = d.m_alpha(alpha)
            for l in range(m):
                mono_ok = mono_ok and (snc_f0_ideal(d, alpha, l)
                                       <= snc_f0_ideal(d, alpha, l + 1))
    checks.append({"check": "snc ideal monotonicity in l", "ok": mono_ok})

    # pole-predicate monotonicity and implication chain on random multisets
    pole_ok = True
    chain_ok = True
    alphas = [Fraction(n, 10) for n in range(1, 11)]
    for _ in range(200):
        bred = _random_root_multiset(rng)
        for alpha in (Fraction(1, 2), Fraction(1)):
            for k in range(3):
                for l in range(2):
                    if hodge_pole_full(bred, alpha, k + 1, l):
                        pole_ok = pole_ok and hodge_pole_full(bred, alpha, k, l)
                    if hodge_pole_full(bred, alpha, k, l):
                        pole_ok = pole_ok and hodge_pole_full(bred, alpha, k,
                                                              l + 1)
        for alpha in alphas:
            c = classify_pair(bred, alpha)
            chain_ok = chain_ok and (not c.klt or c.plt) and (not c.plt or c.lc)
    checks.append({"check": "pole predicate monotone", "ok": pole_ok})
    checks.append({"check": "klt => plt => lc on 200 random multisets",
                   "ok": chain_ok})

    # weighted minimal exponents non-decreasing in l
    wme_ok = True
    for _ in range(200):
        bred = _random_root_multiset(rng)
        prev = None
        for l in range(4):
            cur = weighted_minimal_exponent(bred, l)
            if cur is not None and prev is not None:
                wme_ok = wme_ok and cur >= prev
            if cur is not None:
                prev = cur
    checks.append({"check": "weighted minimal exponent monotone", "ok": wme_ok})

    # syzygy re-multiplication on random instances (syzygy_kernel raises on
    # any failed re-multiplication, so reaching the count is the check)
    tuples = 0
    for _ in range(100):
        targets = [_random_operator(rng) for _ in range(rng.randint(2, 3))]
        tuples += len(syzygy_kernel(targets, 1, 1))
    checks.append({"check": "syzygy re-multiplication (100 instances)",
                   "ok": True, "tuples": tuples})

    # commutator identity [d_i, P] = dP/dx_i on 200 random operators
    comm_ok = True
    for _ in range(200):
        op = _random_operator(rng)
        i = rng.randrange(2)
        d = WeylOperator.d(i, 2)
        lhs = weyl_mul(d, op) - weyl_mul(op, d)
        comm_ok = comm_ok and lhs == _operator_x_derivative(op, i)
    checks.append({"check": "commutator identity (200 operators)",
                   "ok": comm_ok})

    # negative controls flip verdicts
    neg = negative_controls()
    checks.append({"check": "negative controls flip verdicts",
                   "ok": neg["passed"]})

    passed = all(c["ok"] for c in checks)
    return {"criterion": 9, "name": "property suites", "passed": passed,
            "checks": checks}


def roundtrip_check() -> dict:
    """Parse/print round trips on random polynomials and operators."""
    count = 500
    rng = random.Random(991)
    ok = True
    for _ in range(count):
        dim = rng.randint(1, 3)
        terms = {}
        for m in monomials_upto_degree(dim, 3):
            if rng.random() < 0.3:
                terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Polynomial(dim, terms)
        ok = ok and poly_parse(str(p), dim) == p
        op = _random_operator(rng)
        ok = ok and WeylOperator.parse(str(op), 2) == op
    return {"criterion": 10, "name": f"parse/print round trips ({count})",
            "passed": ok}


def negative_controls() -> dict:
    """Every verification flips its verdict when the candidate is corrupted."""
    rows = []

    # wrong b-function is not certified
    f1 = poly_parse("x1^2", 1)
    cert = verify_bfunction(f1, BFunction({Fraction(-1): 1}), 2, 2)
    rows.append({"control": "truncated b-function for x1^2",
                 "verdict": cert.verdict,
                 "expected_failure": not cert.is_member()})

    # candidate filtration with a dropped generator fails the axioms
    d = SncDivisor((1, 1))
    f = poly_parse("x1*x2", 2)

    class Corrupt(SncVFamily):
        def gens(self, lam):
            gs = super().gens(lam)
            return gs[1:] if Fraction(lam) == Fraction(3, 2) else gs

    rep = verify_v_axioms(Corrupt(d, 4), [Fraction(1, 2)], Bounds(3, 8, 5))
    rows.append({"control": "dropped filtration generator",
                 "expected_failure": not rep["all_member"]})

    # corrupted closed form fails the cross-check
    honest = verify_v_axioms(SncVFamily(d, 4), [Fraction(1, 2)],
                             Bounds(3, 8, 5))
    rows.append({"control": "honest filtration generators",
                 "expected_failure": False,
                 "all_member": honest["all_member"]})

    wrong = HodgePresentation.build(Fraction(1), 2,
                                    [(0, poly_parse("x1", 2), 0)])
    right = snc_hodge_weight(d, 1, 0, 1)
    cert2 = presentations_equal(wrong, right, f, Bounds(4, 10, 6))
    rows.append({"control": "dropped presentation generator",
                 "verdict": cert2.verdict,
                 "expected_failure": not cert2.is_member()})

    passed = (rows[0]["expected_failure"] and rows[1]["expected_failure"]
              and rows[2]["all_member"] and rows[3]["expected_failure"])
    return {"passed": passed, "controls": rows}


def starved_profile() -> dict:
    """Deliberately undersized windows: verdicts must be inconclusive, never
    refutations."""
    rows = []
    f = poly_parse("x1^2+x2^3", 2)
    cusp = _cusp_germ()
    b = bfunction_whom_isolated(cusp)
    cert = verify_bfunction(f, b, 1, 1)
    rows.append({"check": "cusp b-function at order 1",
                 "verdict": cert.verdict})
    cert2 = crosscheck_hodge_weight("snc", SncDivisor((1, 1)), Fraction(1),
                                    2, 1, Bounds(0, 1, 0))
    rows.append({"check": "cross-check in a unit window",
                 "verdict": cert2.verdict})
    inconclusive = all(r["verdict"] == "not-found-at-bound" for r in rows)
    return {"passed": inconclusive, "rows": rows}


DEFAULT_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                    criterion_5, criterion_6, criterion_7, criterion_8,
                    criterion_9, roundtrip_check)


def run_suite(profile: str) -> dict:
    if profile == "default":
        results = [fn() for fn in DEFAULT_CRITERIA]
        return {"profile": profile,
                "results": results,
                "passed": all(r["passed"] for r in results)}
    if profile == "corrupted":
        neg = negative_controls()
        return {"profile": profile, "results": [neg], "passed": neg["passed"]}
    if profile == "starved":
        res = starved_profile()
        return {"profile": profile, "results": [res], "passed": res["passed"],
                "inconclusive": True}
    raise ValueError(f"unknown profile {profile!r}")
