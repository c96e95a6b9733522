"""The tests' one reader of the monomial format, which is otherwise private
to jetcalc.algebra: `decoded_terms` spells an expression's monomials out
as sorted ((key, exponent), ...) tuples, and `layout` gives its integer
numerators and denominator.  `from_factors` builds an expression back
from such a dict with the JetSpace constructors and products alone.
`entries` and `raw_entries` give an expression's and a raw_sum's nonzero
coefficients with their types, and `as_raw` writes an expression as a
raw_sum could give it, in another term order and over a larger denominator."""

from fractions import Fraction

from jetcalc.algebra import _factors


def decoded_terms(e) -> dict:
    """{((key, exponent), ...): coefficient} of an expression, in term order,
    each coefficient an int or a reduced Fraction as `coefficients()` gives it."""
    return {_factors(mono): c for mono, c in e.coefficients()}


def layout(e) -> tuple:
    """(numerators, denominator) of an expression as it is stored."""
    return list(e.terms.values()), e.den


def key_expr(space, key):
    """The variable with this key, built by its JetSpace constructor."""
    kind = key[0]
    if kind == 'i':
        return space.indep(key[1])
    if kind == 'j':
        return space.jet(key[1], key[2])
    if kind == 'q':
        return space.param(key[1])
    return space.nonlocal_var(key[1])


def from_factors(space, terms: dict):
    """The expression sum(c * prod(key^exponent)) of a decoded term dict,
    each product taken left to right in the monomial's factor order."""
    out = space.zero()
    for factors, c in terms.items():
        term = space.num(c)
        for key, x in factors:
            term = term * key_expr(space, key) ** x
        out = out + term
    return out


def entries(e) -> dict:
    """{monomial: (type, coefficient)} of an expression's coefficients()."""
    return {mono: (type(c), c) for mono, c in e.coefficients()}


def raw_entries(raw) -> dict:
    """{monomial: (type, coefficient)} of the nonzero sums of a raw_sum's
    (sums, den, top, space), each the reduced value of sum / den: an int when it
    is integral, else a Fraction."""
    sums, den, _, _ = raw
    out = {}
    for mono, c in sums.items():
        if c:
            q = Fraction(c, den)
            q = q.numerator if q.denominator == 1 else q
            out[mono] = (type(q), q)
    return out


def as_raw(e, scale: int) -> tuple:
    """(sums, den, top, space) of the expression as a raw_sum could give them: its
    terms in reverse sorted monomial order, each numerator and the
    denominator times `scale`."""
    items = sorted(e.terms.items(), key=lambda t: _factors(t[0]), reverse=True)
    return {mono: c * scale for mono, c in items}, e.den * scale, e._top, e.space
