"""Sparse exact linear algebra over Q.

Vectors are dicts mapping hashable, mutually comparable coordinate labels to
nonzero Fractions.  `Echelon` is the one elimination primitive: every span,
membership test, kernel and projection in the package goes through it.  Each
inserted vector may bring a companion vector; every stored row carries the
same exact combination of the inserted companions that it is of the inserted
vectors, so a dependency or a witness comes out of the echelon already built
in whatever terms the caller chose.  Companions never take part in pivoting.
"""

from __future__ import annotations

from fractions import Fraction


def _axpy(acc: dict, coeff, vec: dict):
    """acc += coeff * vec in place, dropping coordinates that cancel."""
    for c, v in vec.items():
        nv = acc.get(c, _ZERO) + coeff * v
        if nv:
            acc[c] = nv
        else:
            acc.pop(c, None)


class Echelon:
    """Row space accumulator in (partial) echelon form.

    Each stored row is normalized so that its pivot (its largest coordinate)
    has coefficient 1, and carries its companion: the combination of the
    inserted companions matching the combination of inserted vectors the row
    equals.  A vector inserted without a companion contributes zero.  The row
    format is private to this module; callers read `pivots()`, `basis()`,
    `rank` and `n_vectors` (the number of inserts, dependent ones included).
    """

    __slots__ = ("_rows", "n_vectors")

    def __init__(self):
        self._rows = {}  # pivot coordinate -> (row vector, companion)
        self.n_vectors = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> frozenset:
        """The leading coordinates of the span."""
        return frozenset(self._rows)

    def basis(self) -> list:
        """Copies of the stored rows, each with pivot coefficient 1, in the
        order they gained rank."""
        return [dict(row) for row, _ in self._rows.values()]

    def reduce(self, vec: dict):
        """Reduce vec against the stored rows.

        Returns (residual, carried): vec - residual is a combination of
        inserted vectors, and carried is the same combination of their
        companions.
        """
        vec = dict(vec)
        carried = {}
        while True:
            pivot = None
            for c in vec:
                if c in self._rows and (pivot is None or c > pivot):
                    pivot = c
            if pivot is None:
                break
            coeff = vec[pivot]
            row, companion = self._rows[pivot]
            # _axpy twice, inlined: this loop is the package's hot path
            for c2, v2 in row.items():
                nv = vec.get(c2, _ZERO) - coeff * v2
                if nv:
                    vec[c2] = nv
                else:
                    vec.pop(c2, None)
            for c2, v2 in companion.items():
                nv = carried.get(c2, _ZERO) + coeff * v2
                if nv:
                    carried[c2] = nv
                else:
                    carried.pop(c2, None)
        return vec, carried

    def insert(self, vec: dict, companion: dict | None = None):
        """Insert vec with its companion; return None if it increased the
        rank, otherwise the carried combination: vec equals a combination of
        earlier inserted vectors, and this is that combination of their
        companions."""
        self.n_vectors += 1
        residual, carried = self.reduce(vec)
        if not residual:
            return carried
        pivot = max(residual)
        inv = Fraction(1) / residual[pivot]
        row = {c: v * inv for c, v in residual.items()}
        # row = (vec - reduced part) / pivot coefficient, and likewise for
        # the companion
        ninv = -inv
        rcomp = {c: v * ninv for c, v in carried.items()}
        if companion:
            _axpy(rcomp, inv, companion)
        self._rows[pivot] = (row, rcomp)
        return None


_ZERO = Fraction(0)


def nullspace(columns, companions):
    """Spanning set of the dependencies sum(x_i * columns_i) == 0, one per
    column that depends on the earlier ones (x_i = 1 there).

    Each dependency is returned as its companion combination
    sum(x_i * companions_i); with companions {i: 1} that is the coefficient
    dict itself.
    """
    ech = Echelon()
    out = []
    for col, comp in zip(columns, companions):
        if not col:
            out.append(dict(comp))
            continue
        carried = ech.insert(col, comp)
        if carried is not None:
            dep = {c: -v for c, v in carried.items()}
            _axpy(dep, 1, comp)
            out.append(dep)
    return out
