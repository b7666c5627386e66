from fractions import Fraction

import pytest

from hwkit import bsdata
from hwkit.bsdata import bfunction_snc, bfunction_whom_isolated, classify_pair
from hwkit.errors import (NotIsolatedSingularity, NotQuasiHomogeneous,
                          PreconditionError)
from hwkit.exactalg import (MonomialIdeal, WeightVector, poly_parse,
                            weighted_degree)
from hwkit.snc import (SncDivisor, snc_adjoint_specialization, snc_f0_ideal,
                       snc_hodge_weight, snc_multiplier_ideal, snc_weight_top)
from hwkit.whom import (QuasiHomogeneousGerm, micromult_contains_one,
                        milnor_basis, whom_hodge_weight, whom_micromult_ideal,
                        whom_weight_top)

F = Fraction


def cusp():
    return QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))


def node():
    return QuasiHomogeneousGerm(poly_parse("x1^2+x2^2", 2),
                                WeightVector.parse("1/2,1/2"))


# ---------------------------------------------------------------------------
# snc


def test_weight_top():
    assert snc_weight_top(SncDivisor((1, 1)), 1) == 2
    assert snc_weight_top(SncDivisor((2, 3)), F(1, 2)) == 1
    assert snc_weight_top(SncDivisor((2, 3)), F(1, 5)) == 0


def test_f0_ideal_goldens():
    d = SncDivisor((1, 1))
    assert snc_f0_ideal(d, 1, 0) == MonomialIdeal(2, [(1, 1)])
    assert snc_f0_ideal(d, 1, 1) == MonomialIdeal(2, [(1, 0), (0, 1)])
    assert snc_f0_ideal(d, 1, 2) == MonomialIdeal.unit(2)
    d23 = SncDivisor((2, 3))
    assert snc_f0_ideal(d23, F(1, 2), 0) == MonomialIdeal(2, [(1, 1)])
    assert snc_f0_ideal(d23, F(1, 2), 1) == MonomialIdeal(2, [(0, 1)])
    assert snc_f0_ideal(d23, F(1, 5), 0) == MonomialIdeal.unit(2)
    with pytest.raises(PreconditionError):
        snc_f0_ideal(d23, F(1, 5), 1)


def test_f0_monotone_in_l():
    for a in ((1, 1), (2, 3), (1, 1, 1), (3, 1, 2)):
        d = SncDivisor(a)
        for alpha in (F(1, 5), F(1, 3), F(1, 2), F(1)):
            m = d.m_alpha(alpha)
            for l in range(m):
                assert snc_f0_ideal(d, alpha, l) <= snc_f0_ideal(d, alpha, l + 1)


def test_multiplier_ideal():
    assert snc_multiplier_ideal(SncDivisor((2, 3)), F(1, 2)) == MonomialIdeal(
        2, [(1, 1)])
    assert snc_multiplier_ideal(SncDivisor((1, 1)), 1) == MonomialIdeal(
        2, [(1, 1)])
    assert snc_multiplier_ideal(SncDivisor((1,)), F(1, 3)) == MonomialIdeal.unit(1)
    for a in ((1, 1), (2, 3), (1, 1, 1)):
        d = SncDivisor(a)
        for alpha in (F(1, 5), F(1, 2), F(1)):
            assert snc_f0_ideal(d, alpha, 0) == snc_multiplier_ideal(d, alpha)


def test_adjoint_specialization():
    assert snc_adjoint_specialization(SncDivisor((1, 1)), 1) == MonomialIdeal(
        2, [(1, 0), (0, 1)])
    assert snc_adjoint_specialization(SncDivisor((2, 3)), F(1, 2)) == \
        MonomialIdeal(2, [(0, 1)])
    assert snc_adjoint_specialization(SncDivisor((1, 1, 1)), 1) == \
        MonomialIdeal(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    with pytest.raises(PreconditionError):
        snc_adjoint_specialization(SncDivisor((2, 3)), F(1, 5))


def test_top_ideal_is_eps_shifted_multiplier_ideal():
    for a in ((1, 1), (2, 3)):
        d = SncDivisor(a)
        for alpha in (F(1, 2), F(1)):
            m = d.m_alpha(alpha)
            want = tuple(
                max(-((-alpha * ai).numerator // (-alpha * ai).denominator)
                    - 1, 0) if ai else 0
                for ai in d.a)
            assert snc_f0_ideal(d, alpha, m) == MonomialIdeal(d.dim, [want])


def test_hodge_weight_wrapper():
    d = SncDivisor((2, 3))
    pres = snc_hodge_weight(d, F(1, 2), 2, 1)
    assert all(b == 2 and j == 0 for b, _, j in pres.summands)
    assert sorted(str(g) for _, g, _ in pres.summands) == ["x2"]


def test_klt_agrees_with_unit_multiplier_ideal():
    # klt verdict == (multiplier ideal trivial and alpha < minimal exponent)
    for a in ((1, 1), (2, 3), (1, 1, 1)):
        d = SncDivisor(a)
        bred = bsdata.reduce(bfunction_snc(a))
        for n in range(1, 6):
            alpha = F(n, 5)
            klt = classify_pair(bred, alpha).klt
            trivial = snc_f0_ideal(d, alpha, 0) == MonomialIdeal.unit(d.dim)
            assert klt == trivial


def test_stratum_restriction():
    d = SncDivisor((2, 3, 1))
    r = d.restrict_to_stratum([0, 2])
    assert r.a == (2, 0, 1)
    with pytest.raises(PreconditionError):
        d.restrict_to_stratum([])


# ---------------------------------------------------------------------------
# whom


def test_milnor_basis_goldens():
    assert list(cusp().milnor) == [(0, 0), (0, 1)]
    assert list(node().milnor) == [(0, 0)]
    triple = QuasiHomogeneousGerm(poly_parse("x1^2*x2+x1*x2^2", 2),
                                  WeightVector.parse("1/3,1/3"))
    assert triple.mu == 4
    degrees = sorted(weighted_degree(m, triple.w) for m in triple.milnor)
    assert degrees == [0, F(1, 3), F(1, 3), F(2, 3)]


@pytest.mark.parametrize("poly, weights, basis", [
    ("x1^2+x2^3", "1/2,1/3", [(0, 0), (0, 1)]),
    ("x1^2+x2^2", "1/2,1/2", [(0, 0)]),
    ("x1^2*x2+x1*x2^2", "1/3,1/3", [(0, 0), (0, 1), (1, 0), (0, 2)]),
    ("x1^2+x2^5", "1/2,1/5", [(0, 0), (0, 1), (0, 2), (0, 3)]),
    ("x1^3+x2^4", "1/3,1/4",
     [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]),
    ("x1^2+x2^2+x3^2", "1/2,1/2,1/2", [(0, 0, 0)]),
])
def test_milnor_basis_pinned(poly, weights, basis):
    # the whom germs of the benchmark pool, basis in order and mu
    w = WeightVector.parse(weights)
    germ = QuasiHomogeneousGerm(poly_parse(poly, w.dim), w)
    assert list(milnor_basis(germ.f, w)) == basis
    assert germ.mu == len(basis)


def test_milnor_number_formula():
    for germ in (cusp(), node()):
        expect = 1
        for n in germ.w.nums:
            expect *= Fraction(germ.w.den, n) - 1
        assert germ.mu == expect


def test_rejections():
    with pytest.raises(NotQuasiHomogeneous):
        QuasiHomogeneousGerm(poly_parse("x1^3+x2^3", 2),
                             WeightVector.parse("1/2,1/3"))
    # the message names the lowest weighted degree that fails to reduce
    unreduced = ("monomials of weighted degree {} do not all reduce to 0 "
                 "modulo the Jacobian ideal")
    with pytest.raises(NotIsolatedSingularity) as err:
        QuasiHomogeneousGerm(poly_parse("x1^2*x2^3", 2),
                             WeightVector.parse("1/4,1/6"))
    assert str(err.value) == unreduced.format("5/4")
    with pytest.raises(NotIsolatedSingularity) as err:
        QuasiHomogeneousGerm(poly_parse("x1^2", 2),
                             WeightVector.parse("1/2,1/3"))
    assert str(err.value) == unreduced.format("2/3")
    with pytest.raises(NotIsolatedSingularity):
        # smooth at the origin
        QuasiHomogeneousGerm(poly_parse("x1", 1), WeightVector.parse("1"))


def test_weight_top_values():
    assert whom_weight_top(cusp(), F(5, 6)) == 1
    assert whom_weight_top(cusp(), 1) == 2
    assert whom_weight_top(node(), F(1, 2)) == 1
    with pytest.raises(PreconditionError):
        whom_weight_top(cusp(), F(3, 2))


def test_hodge_weight_cusp():
    g = cusp()
    low = whom_hodge_weight(g, F(5, 6), 0, 0)
    assert sorted(str(gen) for _, gen, _ in low.summands) == ["x1", "x2"]
    full = whom_hodge_weight(g, F(5, 6), 0, 1)
    assert [str(gen) for _, gen, _ in full.summands] == ["1"]
    # k=1 at alpha=1, l=1: two graded slices
    pres = whom_hodge_weight(g, 1, 1, 1)
    by_step = {}
    for b, gen, j in pres.summands:
        by_step.setdefault(j, []).append((b, str(gen)))
    assert set(by_step) == {0, 1}
    assert all(b == 1 for b, _ in by_step[0])
    assert sorted(s for _, s in by_step[0]) == ["x1", "x2"]
    assert all(b == 0 for b, _ in by_step[1])
    # O^{>7/6} minimal generators
    assert sorted(s for _, s in by_step[1]) == [
        "x1*x2^3", "x1^2*x2", "x1^3", "x2^4"]


def test_hodge_weight_preconditions():
    g = cusp()
    with pytest.raises(PreconditionError):
        whom_hodge_weight(g, 1, 0, 0)  # no closed form at this stratum
    with pytest.raises(PreconditionError):
        whom_hodge_weight(g, F(5, 6), 0, 2)


def test_micromult_ideals():
    g = cusp()
    assert sorted(str(p) for p in whom_micromult_ideal(g, F(5, 6), 0)) == [
        "x1", "x2"]
    assert [str(p) for p in whom_micromult_ideal(g, F(1, 2), 0)] == ["1"]
    assert sorted(str(p) for p in whom_micromult_ideal(node(), 1, 0)) == [
        "x1", "x2"]


def test_micromult_unit_iff_below_minimal_exponent():
    for germ in (cusp(), node()):
        b = bfunction_whom_isolated(germ)
        a0 = -max(bsdata.reduce(b).sorted_roots())
        for alpha in (F(1, 4), F(1, 2), F(5, 6), F(9, 10), F(1)):
            gens = whom_micromult_ideal(germ, alpha, 0)
            assert micromult_contains_one(gens) == (alpha < a0)


def test_snc_full_module_matches_pole_predicate():
    # the top ideal is the unit ideal exactly when the order-zero Hodge step
    # of the full module is everything, i.e. alpha <= minimal exponent
    from hwkit.bsdata import weighted_minimal_exponent
    for a in ((1, 1), (2, 3), (3,), (1, 2, 2)):
        d = SncDivisor(a)
        bred = bsdata.reduce(bfunction_snc(a))
        a0 = weighted_minimal_exponent(bred, 0)
        if a0 is None:
            a0 = F(10 ** 6)
        for n in range(1, 13):
            alpha = F(n, 6)
            unit = (snc_f0_ideal(d, alpha, d.m_alpha(alpha))
                    == MonomialIdeal.unit(d.dim))
            assert unit == (alpha <= a0), (a, alpha)
