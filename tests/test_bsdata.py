import random
from fractions import Fraction

import pytest

from hwkit import bsdata
from hwkit.bsdata import (BFunction, ReducedBFunction, beta_factor,
                          bfunction_snc, bfunction_whom_isolated, bl_chain,
                          classify_pair, genlevel_bound, hodge_pole_full,
                          parse_root_product, roots_in_interval,
                          weight_bounds, weighted_minimal_exponent)
from hwkit.errors import PreconditionError
from hwkit.exactalg import WeightVector, poly_parse
from hwkit.whom import QuasiHomogeneousGerm

F = Fraction


def cusp_reduced():
    return ReducedBFunction({F(-5, 6): 1, F(-7, 6): 1})


def test_bfunction_snc_goldens():
    assert bfunction_snc((1, 1)).roots == {F(-1): 2}
    assert bfunction_snc((2,)).roots == {F(-1): 1, F(-1, 2): 1}
    assert bfunction_snc((2, 3)).roots == {
        F(-1): 2, F(-1, 2): 1, F(-1, 3): 1, F(-2, 3): 1}
    with pytest.raises(PreconditionError):
        bfunction_snc((0, 0))


def test_bfunction_whom_goldens():
    cusp = QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))
    b = bfunction_whom_isolated(cusp)
    assert b.roots == {F(-1): 1, F(-5, 6): 1, F(-7, 6): 1}
    node = QuasiHomogeneousGerm(poly_parse("x1^2+x2^2", 2),
                                WeightVector.parse("1/2,1/2"))
    bn = bfunction_whom_isolated(node)
    assert bn.roots == {F(-1): 2}
    triple = QuasiHomogeneousGerm(poly_parse("x1^2*x2+x1*x2^2", 2),
                                  WeightVector.parse("1/3,1/3"))
    bt = bfunction_whom_isolated(triple)
    assert bt.roots == {F(-1): 2, F(-2, 3): 1, F(-4, 3): 1}


def test_reduce():
    assert bsdata.reduce(BFunction({F(-1): 2})).roots == {F(-1): 1}
    b = BFunction({F(-1): 1, F(-5, 6): 1, F(-7, 6): 1})
    assert bsdata.reduce(b).roots == {F(-5, 6): 1, F(-7, 6): 1}
    with pytest.raises(PreconditionError):
        bsdata.reduce(BFunction({F(-1, 2): 1}))


def test_bl_chain():
    assert bl_chain(ReducedBFunction({F(-1): 2}), 1).roots == {F(-1): 1}
    assert bl_chain(cusp_reduced(), 1).is_one()
    seed = ReducedBFunction({F(-1): 2, F(-2, 3): 1, F(-4, 3): 1})
    assert bl_chain(seed, 1).roots == {F(-1): 1}
    # chain divisibility
    rng = random.Random(41)
    for _ in range(100):
        roots = {-F(rng.randint(1, 9), rng.randint(1, 4)): rng.randint(1, 3)
                 for _ in range(rng.randint(1, 4))}
        bred = ReducedBFunction(roots)
        for l in range(3):
            a = bl_chain(bred, l + 1)
            b = bl_chain(bred, l)
            assert all(b.multiplicity(r) >= m for r, m in a.roots.items())


def test_weighted_minimal_exponent():
    assert weighted_minimal_exponent(cusp_reduced(), 0) == F(5, 6)
    assert weighted_minimal_exponent(ReducedBFunction({F(-1): 2}), 1) == 1
    assert weighted_minimal_exponent(ReducedBFunction({F(-1): 1}), 1) is None
    # monotone in l on random multisets
    rng = random.Random(43)
    for _ in range(200):
        roots = {-F(rng.randint(1, 9), rng.randint(1, 4)): rng.randint(1, 3)
                 for _ in range(rng.randint(1, 4))}
        bred = ReducedBFunction(roots)
        vals = [weighted_minimal_exponent(bred, l) for l in range(4)]
        defined = [v for v in vals if v is not None]
        assert defined == sorted(defined)


def test_beta_factor():
    b2 = BFunction({F(-1): 2})
    assert beta_factor(b2, 0).is_one()
    cusp_b = BFunction({F(-1): 1, F(-5, 6): 1, F(-7, 6): 1})
    assert beta_factor(cusp_b, 0).roots == {F(-1, 6): 1}
    got = beta_factor(cusp_b, F(1, 2))
    assert got.roots == {F(0): 1, F(-1, 6): 1, F(1, 6): 1}


def test_classify_pair_goldens():
    cusp = cusp_reduced()
    node = ReducedBFunction({F(-1): 1})
    c = classify_pair(cusp, F(1, 2))
    assert (c.lc, c.plt, c.klt) == (True, True, True)
    c = classify_pair(cusp, F(5, 6))
    assert (c.lc, c.plt, c.klt) == (True, True, False)
    c = classify_pair(node, 1)
    assert (c.lc, c.plt, c.klt) == (True, False, False)
    c = classify_pair(cusp, 2)
    assert (c.lc, c.plt, c.klt) == (False, False, False) and c.note
    with pytest.raises(PreconditionError):
        classify_pair(cusp, 0)


def test_classify_chain_random():
    rng = random.Random(47)
    alphas = [F(n, 12) for n in range(1, 13)]
    for _ in range(200):
        roots = {-F(rng.randint(1, 12), rng.randint(1, 6)): rng.randint(1, 3)
                 for _ in range(rng.randint(1, 4))}
        bred = ReducedBFunction(roots)
        for a in alphas:
            c = classify_pair(bred, a)
            assert (not c.klt or c.plt) and (not c.plt or c.lc)


def test_weight_bounds():
    node = ReducedBFunction({F(-1): 1})
    cusp = cusp_reduced()
    assert weight_bounds(node, 1, 2) == (4, 4)
    assert weight_bounds(cusp, 1, 2) == (3, 3)
    assert weight_bounds(cusp, F(5, 6), 2) == (3, 3)
    lo, hi = weight_bounds(ReducedBFunction({F(-1, 2): 1, F(-3, 2): 2}),
                           F(1, 2), 3)
    assert (lo, hi) == (5, 6)  # max mult 2; sum over i >= 0 is 1 + 2
    with pytest.raises(PreconditionError):
        weight_bounds(node, F(3, 2), 2)


def test_single_shift_collapses_bounds():
    # exactly one integer shift of -alpha among the roots: lower == upper
    bred = ReducedBFunction({F(-3, 2): 2, F(-5, 6): 1})
    assert weight_bounds(bred, F(1, 2), 3) == (5, 5)


def test_genlevel_bound():
    cusp = cusp_reduced()
    node = ReducedBFunction({F(-1): 1})
    assert genlevel_bound(cusp, 1, 0, 2, False) == 0
    assert genlevel_bound(node, 1, 0, 2, False) == 0
    assert genlevel_bound(ReducedBFunction({F(-3, 4): 1}), F(1, 2), 1, 3,
                          True) == 1


def test_hodge_pole_full():
    cusp = cusp_reduced()
    assert not hodge_pole_full(cusp, F(5, 6), 0, 0)
    assert hodge_pole_full(cusp, F(5, 6), 0, 1)
    assert hodge_pole_full(cusp, F(1, 2), 0, 0)
    # monotone in (k, l)
    rng = random.Random(53)
    for _ in range(200):
        roots = {-F(rng.randint(1, 12), rng.randint(1, 6)): rng.randint(1, 3)
                 for _ in range(rng.randint(1, 4))}
        bred = ReducedBFunction(roots)
        for a in (F(1, 2), F(1)):
            for k in range(3):
                for l in range(2):
                    if hodge_pole_full(bred, a, k + 1, l):
                        assert hodge_pole_full(bred, a, k, l)
                    if hodge_pole_full(bred, a, k, l):
                        assert hodge_pole_full(bred, a, k, l + 1)


def test_roots_in_interval():
    b2 = BFunction({F(-1): 2})
    assert roots_in_interval(b2, -2, 0, True)
    cusp_b = BFunction({F(-1): 1, F(-5, 6): 1, F(-7, 6): 1})
    assert not roots_in_interval(cusp_b, -2, -1, False)
    assert roots_in_interval(cusp_b, -2, 0, True)


def test_parse_root_product():
    assert parse_root_product("(s+1)^2*(s+5/6)") == {F(-1): 2, F(-5, 6): 1}
    assert parse_root_product("(s+1)(s+5/6)(s+7/6)") == {
        F(-1): 1, F(-5, 6): 1, F(-7, 6): 1}
    assert BFunction.parse("(s+1)^2").product_string() == "(s+1)^2"


def test_json_rendering():
    b = BFunction({F(-1): 1, F(-5, 6): 1}, provenance="closed-form-snc")
    js = b.to_json()
    assert js["provenance"] == "closed-form-snc"
    assert js["verified"] is False
    assert {"root": "-5/6", "mult": 1} in js["roots"]
