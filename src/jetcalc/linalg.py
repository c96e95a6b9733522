"""Exact rational linear algebra for the determining-equation solvers."""

from __future__ import annotations

from fractions import Fraction


def nullspace(rows, ncols):
    """Nullspace basis of a sparse rational matrix.

    rows: iterable of {col: int or Fraction}; returns echelonized basis
    vectors as lists of Fractions (reduced row echelon form of the solution
    space, leading coefficients 1, deterministic)."""
    mat = [dict(r) for r in rows if r]
    pivots = {}
    for row in mat:
        while row:
            lead = min(row)
            if lead in pivots:
                piv = pivots[lead]
                factor = row[lead]
                for c, v in piv.items():
                    nv = row.get(c, 0) - factor * v
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
            else:
                inv = Fraction(row[lead])
                pivots[lead] = {c: v / inv for c, v in row.items()}
                break
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
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for lead, row in pivots.items():
            vec[lead] = -row.get(f, Fraction(0))
        basis.append(vec)
    return rref(basis)


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
