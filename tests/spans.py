"""Test helpers that compare solution spaces and inspect coverings: `rref`
puts dense rational vectors in reduced row echelon form, `same_span` says
whether two lists of vectors span the same space, and `is_abelian` whether
no field of a covering reads a nonlocal."""

from fractions import Fraction


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


def is_abelian(cov) -> bool:
    """Whether no field X_i of the covering depends on a nonlocal."""
    wkeys = {('w', name) for name in cov.nonlocals}
    return all(not (set(f.variables()) & wkeys)
               for fields in cov.X.values() for f in fields)
