"""Exact rational linear algebra for the determining-equation solvers.

`nullspace` is `peel` then `eliminate`.  `peel` drops singleton rows, as
structured Gaussian elimination does (LaMacchia & Odlyzko, CRYPTO '90): a
third to a half of a determining system's rows force one unknown to 0 and
some tens survive; rows that share no column peel apart.  `eliminate` works
over the integers: each row is cleared of denominators, kept primitive and
reduced against a pivot row without division (Bareiss, Math. Comp. 22,
1968), sparsest first, the row-count form of Markowitz's pivot order
(Management Science 3, 1957), which keeps fill-in low.  Each row's pivot is
its highest column, so after back-substitution the free-column vectors are
the reduced row echelon form itself, whatever the row order.  The
back-substitution stays over the integers too; only the basis, each entry
a quotient by its pivot, works over Q."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integral(row):
    """The row times the lcm of its denominators: int entries."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def _primitive(row):
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


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


def eliminate(rows, forced, ncols):
    """The basis, as sparse {col: Fraction} vectors, on peeled rows and forced
    columns.  Rows, cleared of denominators, are taken in order of nonzero
    count (stable); a row whose highest column `lead` holds a pivot p becomes
    `(p/g)*row - (row[lead]/g)*pivot` with `g = gcd(p, row[lead])`, made
    primitive again; a row whose highest column is free becomes its pivot, lead > 0."""
    pivots = {}
    for row in sorted(map(_integral, filter(None, rows)), key=len):
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                row = _primitive(row)
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                pivots[lead] = row
                break
            g = gcd(piv[lead], row[lead])
            a, b = piv[lead] // g, row[lead] // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            if row:
                row = _primitive(row)
    # back-substitute over Z in ascending pivot order: a row's other columns
    # lie below its pivot, so the pivot rows it meets are already clean
    for lead in sorted(pivots):
        row = pivots[lead]
        for other in [c for c in row if c != lead and c in pivots]:
            piv = pivots[other]
            g = gcd(piv[other], row[other])
            a, b = piv[other] // g, row[other] // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
        pivots[lead] = _primitive(row)
    # one vector per free column f, neither a pivot nor forced to 0: 1 at f
    # and -row[f]/row[c] in each pivot column c above it, which is the RREF
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots and f not in forced}
    for c, row in pivots.items():
        for f, v in row.items():
            if f != c:
                basis[f][c] = Fraction(-v, row[c])
    return list(basis.values())


def nullspace(rows, ncols):
    """Nullspace basis of sparse rational rows {col: int or Fraction}: the
    reduced row echelon form of the solution space as lists of Fractions.
    Zero entries are dropped first, so `{0: 0}` forces nothing."""
    zero = Fraction(0)
    return [[vec.get(c, zero) for c in range(ncols)] for vec in eliminate(*peel(
        row if all(row.values()) else {c: v for c, v in row.items() if v} for row in rows), ncols)]
