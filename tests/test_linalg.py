"""Echelon and nullspace on seeded random sparse systems over Q, handed
over as integer numerators with one denominator per vector, and answering
in integer numerators over one positive denominator."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hwkit.linalg import Echelon, nullspace

SEEDS = range(12)


def random_system(seed, n_cols=14, n_coords=9):
    """Sparse columns over coordinates 0..n_coords-1; about a third of them
    are built as combinations of earlier ones, so dependencies occur."""
    rng = random.Random(seed)
    cols = []
    for _ in range(n_cols):
        if cols and rng.random() < 0.35:
            col = {}
            for c in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
                add(col, F(rng.randint(-4, 4), rng.randint(1, 3)), c)
        else:
            col = {rng.randrange(n_coords): F(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(rng.randint(0, 4))}
        cols.append({k: v for k, v in col.items() if v})
    return rng, cols


def integral(vec, companion=None):
    """(numerators, den, companion numerators): the Fraction vector and its
    companion over the lcm of all their denominators, as Echelon takes
    them."""
    companion = companion or {}
    den = lcm(*(F(v).denominator for v in (*vec.values(),
                                            *companion.values())))
    return ({c: int(v * den) for c, v in vec.items()}, den,
            {c: int(v * den) for c, v in companion.items()})


def all_ints(*vecs):
    return all(type(v) is int for vec in vecs for v in vec.values())


def rational(*answer):
    """An integer answer (numerators, ..., den) of Echelon or nullspace as
    Fraction dicts: each numerator dict over den, a positive int."""
    *nums, den = answer
    assert type(den) is int and den > 0 and all_ints(*nums)
    out = tuple({c: F(v, den) for c, v in num.items()} for num in nums)
    return out if len(out) > 1 else out[0]


def insert(ech, vec, companion=None):
    dep = ech.insert(*integral(vec, companion))
    return None if dep is None else rational(*dep)


def reduce(ech, vec):
    return rational(*ech.reduce(*integral(vec)[:2]))


def fraction_basis(ech):
    """ech.basis() as Fraction rows: each pair (integer numerators, pivot
    coefficient p) stands for numerators/p, and p is a positive int."""
    pairs = ech.basis()
    assert all(type(p) is int and p > 0 and row[max(row)] == p
               and all(type(v) is int for v in row.values())
               for row, p in pairs)
    return [{c: F(v, p) for c, v in row.items()} for row, p in pairs]


def integral_nullspace(columns, companions):
    cols, dens, comps = zip(*map(integral, columns, companions))
    return [rational(*dep) for dep in nullspace(list(cols), dens, comps)]


def add(acc, coeff, vec):
    for k, v in vec.items():
        acc[k] = acc.get(k, F(0)) + coeff * v
        if not acc[k]:
            del acc[k]
    return acc


def combine(coeffs, vectors):
    out = {}
    for i, c in coeffs.items():
        add(out, c, vectors[i])
    return out


def dense_rank(cols, n_coords):
    """Rank by plain Gaussian elimination on the dense matrix."""
    rows = [[col.get(j, F(0)) for j in range(n_coords)] for col in cols]
    rank = 0
    for j in range(n_coords):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][j]:
                q = rows[r][j] / rows[rank][j]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_dependencies_annihilate_columns(seed):
    _, cols = random_system(seed)
    deps = integral_nullspace(cols, [{i: 1} for i in range(len(cols))])
    ech = Echelon()
    for c in cols:
        insert(ech, c)
    assert len(deps) == len(cols) - len(ech.pivots())
    for dep in deps:
        assert dep
        assert combine(dep, cols) == {}


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_carries_the_reduced_part(seed):
    rng, cols = random_system(seed)
    tagged, self_carried = Echelon(), Echelon()
    for i, c in enumerate(cols):
        insert(tagged, c, {i: 1})
        insert(self_carried, c, c)
    for _ in range(5):
        vec = {rng.randrange(9): F(rng.randint(-6, 6), rng.randint(1, 5))
               for _ in range(rng.randint(1, 5))}
        vec = {k: v for k, v in vec.items() if v}
        residual, carried = reduce(tagged, vec)
        assert not set(residual) & tagged.pivots()
        expected = add(dict(vec), F(-1), residual)
        assert combine(carried, cols) == expected
        # with each column as its own companion, carried is vec - residual
        residual2, carried2 = reduce(self_carried, vec)
        assert residual2 == residual and carried2 == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_matches_dense_elimination(seed):
    _, cols = random_system(seed)
    ech = Echelon()
    for c in cols:
        insert(ech, c)
    assert len(ech.pivots()) == dense_rank(cols, 9)
    basis = fraction_basis(ech)
    assert len(basis) == len(ech.pivots())
    assert all(row[max(row)] == 1 for row in basis)
    assert ech.pivots() == {max(row) for row in basis}


def test_dependent_insert_without_companions():
    ech = Echelon()
    assert insert(ech, {0: F(1), 1: F(2)}) is None
    assert insert(ech, {1: F(3)}) is None
    assert insert(ech, {0: F(2), 1: F(7)}) == {}
    assert insert(ech, {}) == {}
    assert len(ech.pivots()) == 2
    assert not reduce(ech, {0: F(5)})[0] and reduce(ech, {2: F(1)})[0]


def test_companions_need_not_be_tags():
    ech = Echelon()
    insert(ech, {0: F(1)}, {"a": F(1)})
    insert(ech, {1: F(1)}, {"b": F(2)})
    assert insert(ech, {0: F(3), 1: F(1, 2)}, {"z": F(1)}) == {
        "z": F(1), "a": F(-3), "b": F(-1)}
    assert integral_nullspace([{0: F(1)}, {0: F(2)}, {}],
                              [{"x": F(1)}, {"y": F(1)}, {"e": F(4)}]) == [
        {"y": F(1), "x": F(-2)}, {"e": F(4)}]


def test_companion_shares_the_vector_denominator():
    # the companion {"t": 3} over den 6 is t/2, as the vector is 1/2 at 0
    ech = Echelon()
    assert ech.insert({0: 3}, 6, {"t": 3}) is None
    assert rational(*ech.insert({0: 1}, 1, {"u": 1})) == {
        "u": F(1), "t": F(-1)}
    assert [rational(*dep) for dep in nullspace(
        [{0: 1}, {0: 2}], [3, 1], [{"a": 3}, {"b": 1}])] == [
        {"b": F(1), "a": F(-6)}]


def test_insert_and_reduce_leave_their_arguments_alone():
    ech = Echelon()
    vecs = [{0: 2, 1: 4}, {1: 3, 2: -6}, {0: 1, 2: 5}, {0: 5, 1: 1, 2: 7}]
    comps = [{"a": 1}, {"b": 2}, {"c": -3}, {}]
    for i, (vec, comp) in enumerate(zip(vecs, comps)):
        before = (dict(vec), dict(comp))
        ech.insert(vec, i + 1, comp)
        assert (vec, comp) == before
    for vec in vecs:
        before = dict(vec)
        ech.reduce(vec, 2)
        assert vec == before
    # a dependent insert (every pivot present) also leaves its dicts alone
    vec, comp = {0: 4, 1: 8}, {"d": 1}
    assert ech.insert(vec, 1, comp) is not None
    assert (vec, comp) == ({0: 4, 1: 8}, {"d": 1})


# ---------------------------------------------------------------------------
# property test against a Fraction reference


class FractionEchelon:
    """Reference elimination in Fraction arithmetic: the same max-coordinate
    pivot rule, rows normalized to pivot coefficient 1."""

    def __init__(self):
        self.rows = {}  # pivot -> (row, companion)

    def reduce(self, vec):
        vec, carried = dict(vec), {}
        while True:
            hits = [c for c in vec if c in self.rows]
            if not hits:
                return vec, carried
            pivot = max(hits)
            row, comp = self.rows[pivot]
            coeff = vec[pivot]
            add(vec, -coeff, row)
            add(carried, coeff, comp)

    def insert(self, vec, companion=None):
        residual, carried = self.reduce(vec)
        comp = add({c: -v for c, v in carried.items()}, F(1), companion or {})
        if not residual:
            return comp
        pivot = max(residual)
        inv = F(1) / residual[pivot]
        self.rows[pivot] = ({c: v * inv for c, v in residual.items()},
                            {c: v * inv for c, v in comp.items()})
        return None


def reference_nullspace(columns, companions):
    ech, out = FractionEchelon(), []
    for col, comp in zip(columns, companions):
        dep = ech.insert(col, comp)
        if dep is not None:
            out.append(dep)
    return out


# integers, and Fractions with denominators up to 2^61 - 1 and 3^40
BIG_DENOMINATORS = st.sampled_from([1, 2, 3, 12, 10**9 + 7, 2**61 - 1, 3**40])
RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.builds(F, st.integers(-10**15, 10**15), BIG_DENOMINATORS),
).filter(bool)
# entries that make unit pivots, pivots that divide the entry they clear and
# leading entries of -1 common
UNITS = st.sampled_from([-2, -1, 1, 2, 4])


@st.composite
def systems(draw):
    """Columns with companions (absent, empty or not), some columns
    dependent on earlier ones, and probe vectors, some of them in the span;
    the entries of one system are all drawn from RATIONALS or all from
    UNITS."""
    entries = draw(st.sampled_from([RATIONALS, UNITS]))
    vectors = st.dictionaries(st.integers(0, 7), entries, max_size=5)
    cols = []
    for _ in range(draw(st.integers(1, 10))):
        if cols and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(cols), min_size=1,
                                  max_size=3))
            cols.append(combine({i: draw(entries)
                                 for i in range(len(picks))}, picks))
        else:
            cols.append(draw(vectors))
    comps = [draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from("abcd"), entries, max_size=3))) for _ in cols]
    probes = draw(st.lists(vectors, max_size=3))
    probes.append(combine({i: draw(entries) for i in range(len(cols))}, cols))
    return cols, comps, probes


@settings(derandomize=True, max_examples=80, deadline=None)
@example(  # a negative pivot coefficient, a big denominator, a companion
    ([{0: F(1, 2**61 - 1), 3: -2}, {3: F(-4, 3)}, {0: 5, 3: 7}],
     [{"a": F(1, 3)}, None, {"b": -1}], [{3: 1, 5: F(1, 7)}]))
@example(  # unit pivots, a pivot 2 that divides the entry 4, leading
    # entries -1 and -2, inserts with no, an empty and a nonempty companion
    ([{1: 1, 0: 2}, {1: 3, 0: 1}, {2: 2, 0: 1}, {2: 4, 1: 1, 0: 3},
      {3: -1, 0: 2}, {3: -2, 1: 4}, {3: 1, 2: 2}],
     [None, {"a": 1}, {}, None, {"b": 2}, None, {"c": -1}],
     [{3: 2, 2: 4, 1: 1}]))
@given(systems())
def test_echelon_matches_fraction_reference(system):
    cols, comps, probes = system
    ech, ref = Echelon(), FractionEchelon()
    for col, comp in zip(cols, comps):
        got = ech.insert(*integral(col, comp))
        assert (None if got is None else rational(*got)) == ref.insert(
            col, comp)
        assert got is None or all_ints(got[0])
    assert len(ech.pivots()) == len(ref.rows)
    assert ech.pivots() == set(ref.rows)
    basis = fraction_basis(ech)
    assert basis == [row for row, _ in ref.rows.values()]
    assert all(type(v) is F for row in basis for v in row.values())
    for vec in probes:
        residual, carried, den = ech.reduce(*integral(vec)[:2])
        assert rational(residual, carried, den) == ref.reduce(vec)
        assert all_ints(residual, carried)
    comps = [comp or {"e": i + 1} for i, comp in enumerate(comps)]
    int_cols, dens, int_comps = zip(*map(integral, cols, comps))
    deps = nullspace(list(int_cols), dens, int_comps)
    assert [rational(*dep) for dep in deps] == reference_nullspace(cols, comps)
    assert all_ints(*(dep for dep, _ in deps))
