"""Exact rational linear algebra for the determining-equation solvers.

`nullspace` first peels singleton rows, as structured Gaussian elimination
does (LaMacchia & Odlyzko, CRYPTO '90): a third to a half of a determining
system's rows force one unknown to 0, and some tens of rows survive.  These
are eliminated over the integers: each row is cleared of denominators and
kept primitive, and is reduced against a pivot row without division, as in
fraction-free elimination (Bareiss, Math. Comp. 22, 1968).  Rows are taken
sparsest first, the row-count form of Markowitz's pivot order (Management
Science 3, 1957), which keeps fill-in low.  Only the back-substitution, the
free-column basis and `rref` work over Q, `rref` only on the columns the
basis touches."""

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
    count (stable), and a row whose leading column holds a pivot p becomes
    `(p/g)*row - (row[lead]/g)*pivot` with `g = gcd(p, row[lead])`, made
    primitive again; a row whose leading column is free becomes that
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
            lead = min(row)
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
    # back-substitute so every pivot row is clean in the other pivot columns
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other in [c for c in row if c != lead and c in pivots]:
            factor = row[other]
            for c, v in pivots[other].items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
    # a sparse vector per free column, neither a pivot nor forced to 0; the
    # RREF is taken on the columns they touch, every other entry being 0
    vecs = [{f: Fraction(1), **{c: -row[f] for c, row in pivots.items() if f in row}}
            for f in range(ncols) if f not in pivots and f not in forced]
    touched = sorted({c for vec in vecs for c in vec})
    basis = []
    for small in rref([vec.get(c, 0) for c in touched] for vec in vecs):
        full = [Fraction(0)] * ncols
        for c, v in zip(touched, small):
            full[c] = v
        basis.append(full)
    return basis


def rref(vectors):
    """Reduced row echelon form of a list of dense rational vectors (int or
    Fraction entries); the rows returned hold Fractions."""
    rows = [list(v) for v in vectors]
    out = []
    pivot_cols = []
    for row in rows:
        for pc, prow in zip(pivot_cols, out):
            factor = row[pc]
            if factor:
                for k in range(len(row)):
                    row[k] -= factor * prow[k]
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = Fraction(row[lead])
        row = [v / inv for v in row]
        out.append(row)
        pivot_cols.append(lead)
    order = sorted(range(len(out)), key=lambda i: pivot_cols[i])
    out = [out[order[i]] for i in range(len(out))]
    pivot_cols.sort()
    for i in range(len(out)):
        for k in range(i + 1, len(out)):
            factor = out[i][pivot_cols[k]]
            if factor:
                out[i] = [a - factor * b for a, b in zip(out[i], out[k])]
    return out


def same_span(vecs_a, vecs_b) -> bool:
    return rref(vecs_a) == rref(vecs_b)
