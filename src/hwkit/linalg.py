"""Sparse exact linear algebra over Q.

`Echelon` is the one elimination primitive: every span, membership test,
kernel and projection in the package goes through it.  A vector is a dict of
nonzero integer numerators over one positive int denominator: `vec` with
`den` stands for {c: v/den}.  Its coordinates are mutually comparable; the
package keys each by an int, a `weyl.KeyPacking` key or a plain index where
a coordinate has no monomial (`weyl.homogeneity_grading`).  Producers scale
each family of vectors to integers once, so the elimination never rescales a
`Fraction` column.  An inserted vector may bring a companion over the same
denominator: every row carries the combination of inserted companions that
it is of inserted vectors, so a dependency or a witness comes out in the
caller's terms.  Companions never take part in pivoting, and `Echelon`
never mutates a caller's dict.

Rows are primitive integer vectors, reduced fraction-free (Bareiss, Math.
Comp. 1968, with the content divided out after each step that multiplies).
Answers are integer too: `reduce`, `insert` and `nullspace` return integer
numerators over one positive int denominator, the form a `Polynomial` or
`WeylOperator` holds (`exactalg.SparseTerms`), so an answer becomes one as is.
"""

from __future__ import annotations

from math import gcd


def _content(den: int, *vecs) -> int:
    """gcd of den and every value of vecs, stopping as soon as it is 1."""
    for vec in vecs:
        for v in vec.values():
            if den == 1:
                return 1
            den = gcd(den, v)
    return den


class Echelon:
    """Row space accumulator in (partial) echelon form.

    Each stored row's pivot is its largest coordinate.  A row is kept as a
    primitive integer vector with its pivot coefficient (positive) and its
    companion, scaled alike: the combination of the inserted companions
    matching the combination of inserted vectors the row equals.  A vector
    inserted without a companion contributes zero.  The row format is
    private to this module (tests/test_row_format.py guards it); callers
    read `pivots()` and `basis()`.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        # pivot coordinate -> (integer row, its pivot coefficient, companion)
        self._rows = {}

    def pivots(self) -> frozenset:
        """The leading coordinates of the span."""
        return frozenset(self._rows)

    def basis(self) -> list:
        """The stored rows as (integer numerators, pivot coefficient p), in
        the order they gained rank: row/p has pivot coefficient 1, and the
        pair goes to `reduce` as it is."""
        return [(dict(row), p) for row, p, _ in self._rows.values()]

    def _eliminate(self, vec: dict, comb: dict, den: int):
        """Reduce the integer vector vec/den fraction-free against the rows.

        Each step subtracts a/g times the row from vec, and the row's
        companion from comb, where a is vec's coefficient at the row's pivot
        p and g = gcd(a, p).  Unless g = p (always so at p = 1, where no gcd
        is taken), it first multiplies vec, comb and den by m = p/g, and
        after the subtraction divides out the content the three share
        (without the multiplication any common factor divides den, so sizes
        stay bounded).  An empty comb or companion is not walked.
        Returns the final (vec, comb, den):
        vec/den is the residual, and comb/den is the initial comb/den minus
        the carried combination of companions.
        """
        rows = self._rows
        while True:
            pivot = None
            for c in vec:
                if c in rows and (pivot is None or c > pivot):
                    pivot = c
            if pivot is None:
                return vec, comb, den
            row, p, companion = rows[pivot]
            a = vec[pivot]
            m = 1
            if p != 1:
                g = gcd(a, p)
                a //= g
                m = p // g
                if m != 1:
                    vec = {c: v * m for c, v in vec.items()}
                    if comb:
                        comb = {c: v * m for c, v in comb.items()}
                    den *= m
            # this loop is the package's hot path
            for c, v in row.items():
                nv = vec.get(c, 0) - a * v
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
            if companion:
                for c, v in companion.items():
                    nv = comb.get(c, 0) - a * v
                    if nv:
                        comb[c] = nv
                    else:
                        comb.pop(c, None)
            if m != 1:
                content = _content(den, vec, comb)
                if content != 1:
                    vec = {c: v // content for c, v in vec.items()}
                    if comb:
                        comb = {c: v // content for c, v in comb.items()}
                    den //= content

    def reduce(self, vec: dict, den: int):
        """Reduce the vector vec/den (integer numerators) against the rows.

        Returns (residual, carried, den'), integer numerators over den' > 0:
        vec/den - residual/den' is a combination of inserted vectors, and
        carried/den' is the same combination of their companions.
        """
        vec, comb, den = self._eliminate(dict(vec), {}, den)
        return vec, {c: -v for c, v in comb.items()}, den

    def insert(self, vec: dict, den: int, companion: dict | None = None):
        """Insert the vector vec/den with its companion companion/den (both
        integer numerators over den); return None if it increased the rank,
        otherwise (dependency, den'), integer numerators over den' > 0: the
        vector equals a combination of earlier inserted vectors, and
        dependency/den' is the companion minus that combination of their
        companions (a vector with no nonzero entry comes back as its
        companion).  The tuple is truthy even when the dependency is empty,
        so test `is None`."""
        vec, comb, den = self._eliminate(
            dict(vec), dict(companion) if companion else {}, den)
        if not vec:
            # comb/den is companion minus the carried combination
            return comb, den
        pivot = max(vec)
        lead = vec[pivot]
        # a leading 1 makes the content 1
        if lead != 1:
            content = _content(0, vec, comb)
            if lead < 0:
                content = -content
            if content != 1:
                vec = {c: v // content for c, v in vec.items()}
                comb = {c: v // content for c, v in comb.items()}
                lead = vec[pivot]
        self._rows[pivot] = (vec, lead, comb)
        return None


def nullspace(columns, dens, companions):
    """Spanning set of the dependencies sum(x_i * columns_i/dens_i) == 0, one
    per column that depends on the earlier ones (x_i = 1 there).

    Each companion is over its column's denominator.  Each dependency is
    returned as its companion combination sum(x_i * companions_i/dens_i), as
    the (numerators, den) pair `Echelon.insert` returns; with companions
    {i: dens_i} that is the coefficient dict itself.
    """
    ech = Echelon()
    deps = (ech.insert(col, den, comp)
            for col, den, comp in zip(columns, dens, companions))
    return [dep for dep in deps if dep is not None]
