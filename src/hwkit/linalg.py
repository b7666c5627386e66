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
`Fraction` appears only at the boundary: every value `reduce`, `insert` and
`nullspace` return is one.
"""

from __future__ import annotations

from fractions import Fraction
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
    read `pivots()`, `basis()`, `rank` and `n_vectors` (the number of
    inserts, dependent ones included).
    """

    __slots__ = ("_rows", "n_vectors")

    def __init__(self):
        # pivot coordinate -> (integer row, its pivot coefficient, companion)
        self._rows = {}
        self.n_vectors = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

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

        Each step multiplies vec, comb and den by m = pivot/g and subtracts
        a/g times the row, and the row's companion from comb, where a is
        vec's coefficient at the row's pivot and g = gcd(a, pivot); if m is
        not 1 it then divides out the content the three share (without the
        multiplication any common factor divides den, so sizes stay bounded).
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
            g = gcd(a, p)
            a //= g
            m = p // g
            if m != 1:
                vec = {c: v * m for c, v in vec.items()}
                comb = {c: v * m for c, v in comb.items()}
                den *= m
            # this loop is the package's hot path
            for c, v in row.items():
                nv = vec.get(c, 0) - a * v
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
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
                    comb = {c: v // content for c, v in comb.items()}
                    den //= content

    def reduce(self, vec: dict, den: int):
        """Reduce the vector vec/den (integer numerators) against the rows.

        Returns (residual, carried): vec/den - residual is a combination of
        inserted vectors, and carried is the same combination of their
        companions.
        """
        vec, comb, den = self._eliminate(dict(vec), {}, den)
        return ({c: Fraction(v, den) for c, v in vec.items()},
                {c: Fraction(-v, den) for c, v in comb.items()})

    def insert(self, vec: dict, den: int, companion: dict | None = None):
        """Insert the vector vec/den with its companion companion/den (both
        integer numerators over den); return None if it increased the rank,
        otherwise the dependency: the vector equals a combination of earlier
        inserted vectors, and the dependency is the companion minus that
        combination of their companions (a vector with no nonzero entry
        comes back as its companion)."""
        self.n_vectors += 1
        vec, comb, den = self._eliminate(dict(vec), dict(companion or {}),
                                         den)
        if not vec:
            # comb/den is companion minus the carried combination
            return {c: Fraction(v, den) for c, v in comb.items()}
        pivot = max(vec)
        content = _content(0, vec, comb)
        if vec[pivot] < 0:
            content = -content
        if content != 1:
            vec = {c: v // content for c, v in vec.items()}
            comb = {c: v // content for c, v in comb.items()}
        self._rows[pivot] = (vec, vec[pivot], comb)
        return None


def nullspace(columns, dens, companions):
    """Spanning set of the dependencies sum(x_i * columns_i/dens_i) == 0, one
    per column that depends on the earlier ones (x_i = 1 there).

    Each companion is over its column's denominator.  Each dependency is
    returned as its companion combination sum(x_i * companions_i/dens_i), as
    `Echelon.insert` returns it; with companions {i: dens_i} that is the
    coefficient dict itself.
    """
    ech = Echelon()
    deps = (ech.insert(col, den, comp)
            for col, den, comp in zip(columns, dens, companions))
    return [dep for dep in deps if dep is not None]
