"""Library entry points refuse what they cannot compute, each with one
exception type and one message: the refusals below are those no other test
reaches."""

from fractions import Fraction

import pytest

from hwkit.bsdata import (BFunction, ReducedBFunction, RootMultiset,
                          hodge_pole_full, roots_in_interval)
from hwkit.errors import (DimensionMismatch, NotQuasiHomogeneous,
                          PreconditionError)
from hwkit.exactalg import MonomialIdeal, Polynomial, WeightVector, poly_parse
from hwkit.ppd import hodge_on_weight, parse_annihilator_file, w0_span
from hwkit.snc import SncDivisor, snc_hodge_weight
from hwkit.suite import run_suite
from hwkit.vforacle import BfElement, Bounds, crosscheck_hodge_weight
from hwkit.weyl import WeylOperator, apply_to_twisted, syzygy_kernel
from hwkit.whom import (QuasiHomogeneousGerm, whom_hodge_weight,
                        whom_micromult_ideal)
from test_cli import NODE_ANN

BOUNDS = Bounds(order=2, xdeg=2, dt=2)


def _cusp():
    return QuasiHomogeneousGerm(poly_parse("x1^2+x2^3", 2),
                                WeightVector.parse("1/2,1/3"))


def _node():
    return parse_annihilator_file(NODE_ANN, None)


# (id, call, exception type, message)
REFUSALS = [
    ("snc_hodge_weight k<0",
     lambda: snc_hodge_weight(SncDivisor((1, 1)), 1, -1, 0),
     PreconditionError, "k must be non-negative"),
    ("whom_hodge_weight k<0",
     lambda: whom_hodge_weight(_cusp(), Fraction(5, 6), -1, 0),
     PreconditionError, "k must be non-negative"),
    ("whom_micromult_ideal k<0",
     lambda: whom_micromult_ideal(_cusp(), Fraction(5, 6), -1),
     PreconditionError, "k must be non-negative"),
    ("hodge_pole_full k<0",
     lambda: hodge_pole_full(ReducedBFunction({Fraction(-5, 6): 1,
                                               Fraction(-7, 6): 1}),
                             Fraction(1, 2), -1, 0),
     PreconditionError, "k, l must be non-negative"),
    ("roots_in_interval empty",
     lambda: roots_in_interval(BFunction({-1: 1}), 1, 1, True),
     PreconditionError, "empty interval"),
    ("syzygy_kernel no targets",
     lambda: syzygy_kernel([], 1, 1),
     ValueError, "no targets"),
    ("syzygy_kernel mixed dimensions",
     lambda: syzygy_kernel([WeylOperator.one(1), WeylOperator.one(2)], 1, 1),
     DimensionMismatch, "targets of mixed dimension"),
    ("apply_to_twisted across dimensions",
     lambda: apply_to_twisted(WeylOperator.one(1), poly_parse("x1*x2", 2),
                              0),
     DimensionMismatch, "operator/polynomial dimension mismatch"),
    ("SncDivisor negative exponent",
     lambda: SncDivisor((1, -1)),
     PreconditionError, "negative exponent"),
    ("RootMultiset negative multiplicity",
     lambda: RootMultiset({-1: -1}),
     ValueError, "negative multiplicity"),
    ("BFunction unknown provenance",
     lambda: BFunction({-1: 1}, provenance="guessed"),
     ValueError, "unknown provenance 'guessed'"),
    ("BFunction root out of range",
     lambda: BFunction({-3: 1}, dim=1),
     ValueError, "root -3 out of range (-2,0)"),
    ("MonomialIdeal generator dimension",
     lambda: MonomialIdeal(2, [(1,)]),
     DimensionMismatch, "generator (1,) in dimension 2"),
    ("MonomialIdeal <= across dimensions",
     lambda: MonomialIdeal(1, [(1,)]) <= MonomialIdeal(2, [(1, 0)]),
     DimensionMismatch, "1 vs 2"),
    ("Polynomial zero leading monomial",
     lambda: Polynomial.zero(1).leading_monomial(),
     ValueError, "zero polynomial"),
    ("Polynomial div_exact by zero",
     lambda: poly_parse("x1", 1).div_exact(Polynomial.zero(1)),
     ZeroDivisionError, "division by zero polynomial"),
    ("Polynomial zero denominator",
     lambda: Polynomial(1, {(1,): 1}, 0),
     ValueError, "denominator 0 is not positive"),
    ("Polynomial negative denominator",
     lambda: Polynomial(1, {(1,): 1}, -2),
     ValueError, "denominator -2 is not positive"),
    ("BfElement key without a dt power",
     lambda: BfElement(1, {(1,): 1}),
     DimensionMismatch,
     "key (1,) is no x exponents in dimension 1 and a dt power"),
    ("QuasiHomogeneousGerm zero polynomial",
     lambda: QuasiHomogeneousGerm(Polynomial.zero(2),
                                  WeightVector.parse("1/2,1/3")),
     NotQuasiHomogeneous, "zero polynomial"),
    ("crosscheck_hodge_weight unknown source",
     lambda: crosscheck_hodge_weight("x", None, 1, 0, 0, BOUNDS),
     ValueError, "unknown source 'x'"),
    ("run_suite unknown profile",
     lambda: run_suite("x"),
     ValueError, "unknown profile 'x'"),
    ("w0_span l<0",
     lambda: w0_span(_node(), -1, BOUNDS),
     PreconditionError, "l must be non-negative"),
    ("hodge_on_weight k<0",
     lambda: hodge_on_weight(w0_span(_node(), 0, BOUNDS), -1),
     PreconditionError, "k must be non-negative"),
]


@pytest.mark.parametrize("call,exc,message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_names_its_reason(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message
