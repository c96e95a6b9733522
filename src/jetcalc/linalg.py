"""Exact rational linear algebra for the determining-equation solvers.

`nullspace` is `peel` then `eliminate`.  `peel` drops singleton rows, as
structured Gaussian elimination does (LaMacchia & Odlyzko, CRYPTO '90): a
third to a half of a determining system's rows force one unknown to 0 and
some tens survive; rows that share no column peel apart.  `eliminate` is
one Gauss-Jordan pass over Q on those survivors, sparsest first, the
row-count form of Markowitz's pivot order (Management Science 3, 1957),
which keeps fill-in low.  Each pivot row is 1 in its highest column and 0
in every other pivot column, so the pivot rows are the reduced row echelon
form, whatever the row order, and the free-column vectors are read off
them."""

from __future__ import annotations

from fractions import Fraction


def peel(rows):
    """(rows left, columns forced to 0) of rows without zero entries, not mutated:
    while some row has one entry, its column is forced and leaves every row."""
    rows, forced = list(rows), set()
    while new := {c for row in rows if len(row) == 1 for c in row}:
        forced |= new  # which is all a singleton row says
        rows = [row if row.keys().isdisjoint(new)
                else {c: v for c, v in row.items() if c not in new}
                for row in rows if len(row) > 1]
    return rows, forced


def _clear(row, col, piv):
    """Take row[col] times `piv`, which is 1 at col, from `row` in place."""
    f = row[col]
    for c, v in piv.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            del row[c]


def eliminate(rows, forced, ncols):
    """The basis, as sparse {col: Fraction} vectors, on peeled rows and forced
    columns.  Rows are taken in order of nonzero count (stable); each is cleared
    on every pivot column it holds, and what is left, scaled to 1 in its highest
    column `lead`, clears lead from the earlier pivot rows and becomes its pivot."""
    pivots = {}
    for row in sorted(filter(None, rows), key=len):
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _clear(row, c, pivots[c])
        if row:
            lead = max(row)
            inv = 1 / Fraction(row[lead])
            row = {c: v * inv for c, v in row.items()}
            for piv in pivots.values():
                if lead in piv:
                    _clear(piv, lead, row)
            pivots[lead] = row
    # one vector per free column f, neither a pivot nor forced to 0: 1 at f
    # and -row[f] in each pivot column c above it, which is the RREF
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots and f not in forced}
    for c, row in pivots.items():
        for f, v in row.items():
            if f != c:
                basis[f][c] = -v
    return list(basis.values())


def nullspace(rows, ncols):
    """Nullspace basis of sparse rational rows {col: int or Fraction}: the
    reduced row echelon form of the solution space as lists of Fractions.
    Zero entries are dropped first, so `{0: 0}` forces nothing."""
    zero = Fraction(0)
    return [[vec.get(c, zero) for c in range(ncols)] for vec in eliminate(*peel(
        row if all(row.values()) else {c: v for c, v in row.items() if v} for row in rows), ncols)]
