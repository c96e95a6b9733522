"""Exact rational linear algebra for the determining-equation solvers.

`nullspace` first peels singleton rows, as structured Gaussian elimination
does (LaMacchia & Odlyzko, CRYPTO '90): a third to a half of a determining
system's rows force one unknown to 0, and some tens of rows survive.  These
are eliminated over the integers: each row is cleared of denominators and
kept primitive, and is reduced against a pivot row without division, as in
fraction-free elimination (Bareiss, Math. Comp. 22, 1968).  Rows are taken
sparsest first, the row-count form of Markowitz's pivot order (Management
Science 3, 1957), which keeps fill-in low.  Each row's pivot is its highest
column, so after back-substitution the free-column vectors are the reduced
row echelon form itself.  Only the back-substitution and the basis work
over Q."""

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


def nullspace(rows, ncols):
    """Nullspace basis of a sparse rational matrix.

    rows: iterable of {col: int or Fraction}; returns echelonized basis
    vectors as lists of Fractions (reduced row echelon form of the solution
    space, leading coefficients 1, deterministic).

    While some row has one nonzero entry, its column is forced to 0 and
    leaves every row; zero entries go first, so `{0: 0}` forces nothing, and
    the caller's rows are not mutated.  Forward elimination of the rows left
    is over Z: rows, cleared of denominators, are taken in order of nonzero
    count (stable), and a row whose highest column `lead` holds a pivot p
    becomes `(p/g)*row - (row[lead]/g)*pivot` with `g = gcd(p, row[lead])`,
    made primitive again; a row whose highest column is free becomes that
    column's pivot, with a positive lead.  The pivot columns, and so the
    returned basis, do not depend on row order."""
    rows = [row if all(row.values()) else {c: v for c, v in row.items() if v}
            for row in rows]
    forced = set()
    while new := {c for row in rows if len(row) == 1 for c in row}:
        forced |= new  # which is all a singleton row says
        rows = [row if row.keys().isdisjoint(new)
                else {c: v for c, v in row.items() if c not in new}
                for row in rows if len(row) > 1]
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
    pivots = {lead: {c: Fraction(v, row[lead]) for c, v in row.items()}
              for lead, row in pivots.items()}
    # back-substitute in ascending pivot order: a row's other columns lie
    # below its pivot, so the pivot rows it meets are already clean
    for lead in sorted(pivots):
        row = pivots[lead]
        for other in [c for c in row if c != lead and c in pivots]:
            factor = row[other]
            for c, v in pivots[other].items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
    # one vector per free column f, neither a pivot nor forced to 0: 1 at f
    # and -row[f] in each pivot column c above it, which is already the RREF
    basis = {f: [Fraction(0)] * ncols for f in range(ncols)
             if f not in pivots and f not in forced}
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    for c, row in pivots.items():
        for f, v in row.items():
            if f != c:
                basis[f][c] = -v
    return list(basis.values())
