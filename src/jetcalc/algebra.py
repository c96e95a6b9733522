"""Graded Laurent differential polynomials on jet coordinate systems.

Values are sparse sums of terms over Q extended by commuting parameters.
Variable keys are plain tuples so they hash fast and compare
deterministically:

    ('i', k)        independent variable number k
    ('j', j, K)     jet of dependent variable j at multi-index K
    ('q', name)     parameter (commuting symbolic constant)
    ('w', name)     nonlocal variable (never carries a multi-index)

Odd variables (Grassmann) occur with exponent exactly one and are kept in
key order; every constructor normalizes the sign accordingly.  Negative
exponents are allowed on even jet and nonlocal variables only.

Coefficients are int numerators over one positive denominator per
expression (`DiffExpr.den`, coprime to them, 1 for an integral expression;
FLINT's fmpq_poly layout, Hart, ICMS 2010), since int arithmetic costs a
small fraction of Fraction's.  Only `coefficients` builds a coefficient
value: an int when integral, else a reduced Fraction.

A monomial is one int, the key of a {monomial: numerator} term dict:
sum_s e_s * 2^(W*s), one signed W-bit field per variable slot s (packed
exponent vectors, as in Bachmann & Schoenemann, ISSAC 1998, and Monagan
& Pearce, CASC 2007).  A process-wide registry gives each variable key a
slot on first use.  Fields are balanced, so a negative exponent needs no
bias: the empty monomial is 0, a product is m1 + m2, dropping one power
of v is m - unit(v) and the inverse is -m.  `_factors` decodes a monomial
into its sorted ((key, exponent), ...) pairs, cached; everything that
reads factors or sorts monomials (rendering, `exponents`) goes through it,
so no output depends on the order in which slots were registered.

Odd signs come from a parity record, one per tuple of dependents, nonlocals
and odd names (`_Parity`; the bitmaps of Dorst, Fontijne & Mann, Geometric
Algebra for Computer Science, 2007, ch. 19).  A monomial's odd part is
(m + bias) & mask: mask holds the low bit of each odd slot, bias 2^(W-1) =
2^31 in every slot, without which u^-1*p would borrow from p's field and read
0.  A product's sign is 1 when an odd part is 0, else a table entry computed
once in key order: no decoder reads it.

One accumulator per result: the kernels that sum many products, D_i
(`total_derivative`), the product and `raw_sum` (each slot of
`CDiffOp.columns`; through `sum_of_terms`, each row of `apply` and each slot
of an operator built from unmultiplied Leibniz terms), add every term into one
dict of raw int sums over the lcm of the denominators (`_mul_into`).  All but
`raw_sum`, whose sums a determining row reads through `raw_coefficients`,
make it canonical in one pass (`_canonical`: zero sums
dropped and, over a denominator above 1, the gcd of it and the numerators
divided out); an integral result pays only for the zero scan.  D_i reads each
variable's image from an `ImageTable` kept per setting and direction, at most
one entry per slot: process-wide when free, else on a Presentation, whose
tables also hold a covering's fields, reduced once when it is built; its
monomials are stored divided by their variable v, so a factor v^e of m adds
m + dm, with no m / v to take.  On a space without odd variables a monomial
product is the sum of two ints, with no sign to find.  A result's terms come
in the order of their first occurrence, which may differ from a term-by-term
sum's; nothing that is reported depends on it.

Exponent budget: W = 32 and E = 2^16.  Every operation that can raise an
exponent (a product, a power, a substitution, D_i, a partial derivative,
an antiderivative) checks its result and raises BudgetError beyond E; the
others (sums, negation, scaling, inverses, renaming) keep the exponents
they are given.  So every field of every expression lies in [-E, E], and
a product adds two such fields into [-2E, 2E], inside a field's range
[-2^31, 2^31): no carry or borrow ever crosses into the next slot.  The
widest intermediate is `substitute`'s chain of products over one
monomial's k replaced or odd factors, at most (k+1)*E, which stays inside
the range for k < 2^15 - 1; `substitute` raises BudgetError beyond that
before any product.  With the odd parts' bias 2^31, a field in [-2E, 2E]
lies in [2^31 - 2E, 2^31 + 2E], inside [0, 2^32).  The budget check is
cheap: each expression carries a bound on its largest |exponent|
(`DiffExpr._top`), the bound of a result is the sum of its operands'
bounds, and only a bound beyond E costs a pass over the result.  The
parser reports a power or product beyond E as an ExprSyntaxError at its
operator.

Coefficient budget: C = 2^13 bits.  Before its first product, a power x^k
bounds its coefficients' bit length by k * log2(max(L, S)), L the
denominator of x and S the sum of its |numerators|, and raises BudgetError
beyond C: 2^N fails at once, and a power's coefficients stay within Python's
4,300-digit limit on printing an int.

Term and work budgets: T = 2^16 and P = 2^20.  Before its first product,
a power x^k also bounds its term count by C(n + k - 1, k), the number of
monomials of degree k in x's n terms, and the work of its square-and-multiply
chain by the sum of size(a) * size(b) over its products x^a * x^b, size(j)
the terms of x^j times the 64-bit words of its coefficients; it raises
BudgetError beyond either.  (u + u_x + u_xx + u_xxx)^4000 would have about
10^10 terms, and (u + 1)^8192 squares two 4,097-term polynomials of 4,096-bit
coefficients for minutes.  (u/3 + u_x/5 + 1/7)^51, the slowest power found
within P with a Fraction per coefficient (1.1 s), takes 0.09 s over one
denominator (Python 3.11.7, 2-vCPU Xeon).  A product of a by b terms raises
BudgetError before any work beyond P term pairs: the power budgets pass each
of two 3,003-term powers, whose product would have 9,018,009 terms.

The monomial format is private to this module.  Other modules build
expressions from the JetSpace constructors and the ring operations, and read
them through `variables`, `coefficients` ((opaque monomial, coefficient)
pairs, as `raw_coefficients` gives them from `raw_sum`'s sums for a
determining row), `exponents` (each monomial's sorted (key, exponent)
pairs), `by_least` (the terms split by their least selected key, in one
pass), `negative_keys` and `len` (the term count).  Expressions over a space
and its `extended` spaces meet, in either order, on the extending space
(`_meet`), whose parity gives the signs, and D_i meets its table's space; over
spaces that neither extends they raise ShapeError.  == holds for equal terms
whose variables read alike (name and parity) over the same independents.
"""

from __future__ import annotations

import re
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, comb, floor, gcd, lcm, log2, log10
from types import MappingProxyType

from .errors import (
    BudgetError,
    ExprSyntaxError,
    LaurentError,
    NonlocalObstruction,
    ShapeError,
    UnknownNameError,
    VariationalityError,
)

MultiIndex = tuple  # length-n tuple of non-negative ints


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x - y for x, y in zip(a, b))


def mi_leq(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mi_order(a: MultiIndex) -> int:
    return sum(a)


def mi_unit(n: int, i: int) -> MultiIndex:
    return tuple(1 if k == i else 0 for k in range(n))


def mi_zero(n: int) -> MultiIndex:
    return (0,) * n


def mi_iter(n: int, order: int):
    """All multi-indices of the given exact order, lexicographically, by an
    odometer: each next index moves the last entry's units, plus one, from
    the rightmost nonzero entry j before the last to the entry after it."""
    index, j = [order] + [0] * (n - 1), min(0, n - 2)  # zeros after j, but the last
    while True:
        yield tuple(index)
        while j >= 0 and not index[j]:
            j -= 1
        if j < 0:
            return
        index[j] -= 1
        if j < n - 2:
            j += 1
            index[j], index[-1] = index[-1] + 1, 0
        else:
            index[-1] += 1


_SPACES = weakref.WeakValueDictionary()  # field tuple -> the one live space with them


@dataclass(frozen=True, init=False, eq=False)
class JetSpace:
    """Jet coordinate system: independents, dependents (with parity),
    parameters and nonlocal variables (with parity).  Interned (Ershov, CACM
    1(8), 1958): the constructor, `create`, `extended`, a copy and an unpickled
    space give the one live space per field tuple, so == is `is`."""

    independent: tuple
    dependent: tuple
    parameters: tuple
    nonlocals: tuple
    odd: frozenset

    def __new__(cls, independent, dependent, parameters, nonlocals, odd):
        fields = (independent, dependent, parameters, nonlocals, odd)
        space = _SPACES.get(fields)
        if space is None:
            names = list(independent) + list(dependent) + list(parameters) + list(nonlocals)
            if len(set(names)) != len(names):
                raise UnknownNameError(f"duplicate names in jet space: {names}")
            if not independent or not dependent:
                raise UnknownNameError("need at least one independent and one dependent variable")
            if unknown := set(odd) - set(dependent) - set(nonlocals):
                raise UnknownNameError(f"odd flag on unknown variable {min(unknown)!r}")
            space = _SPACES[fields] = object.__new__(cls)
            vars(space).update(zip(cls.__dataclass_fields__, fields))
        return space

    def __reduce__(self):  # copy and pickle through the constructor
        return JetSpace, tuple(map(vars(self).get, self.__dataclass_fields__))

    @classmethod
    def create(cls, independent, dependent, parameters=(), nonlocals=(), odd=()):
        return cls(tuple(independent), tuple(dependent), tuple(parameters),
                   tuple(nonlocals), frozenset(odd))

    @property
    def n(self) -> int:
        return len(self.independent)

    @property
    def m(self) -> int:
        return len(self.dependent)

    def dep_index(self, name: str) -> int:
        return self.dependent.index(name)

    @cached_property
    def _parity(self) -> "_Parity":
        """The parity record of the space, shared by all spaces with its
        dependents, nonlocals and odd names and kept for the process: a record
        of the space's own would be rebuilt with each problem's spaces."""
        key = (self.dependent, self.nonlocals, self.odd)
        return _PARITIES.setdefault(key, _Parity(
            {k for k, (_, odd) in self._readings.items() if odd}))

    @cached_property
    def _readings(self) -> dict:
        """{key[:2]: (name, odd)} of the variable each key names over this space."""
        return {(kind, k if kind in 'ij' else x): (x, x in self.odd) for kind, names in (
            ('i', self.independent), ('j', self.dependent), ('q', self.parameters),
            ('w', self.nonlocals)) for k, x in enumerate(names)}

    def is_odd_key(self, key) -> bool:
        return self._readings.get(key[:2], (None, False))[1]

    def fresh(self, names) -> list:
        """The names, each unchanged unless the space or an earlier one of
        them already uses it; a taken name gets '_' appended until free."""
        taken = set(self.independent + self.dependent + self.parameters + self.nonlocals)
        out = []
        for name in names:
            while name in taken:
                name += "_"
            taken.add(name)
            out.append(name)
        return out

    def extended(self, dependent=(), nonlocals=(), odd=()) -> "JetSpace":
        """The space with extra dependent/nonlocal variables appended; existing
        variable keys stay valid (dependent indices are stable)."""
        return JetSpace.create(self.independent, self.dependent + tuple(dependent),
                               self.parameters, self.nonlocals + tuple(nonlocals),
                               self.odd | set(odd))

    # -- expression constructors ------------------------------------------

    def zero(self) -> "DiffExpr":
        return DiffExpr(self, {}, 0)

    def num(self, value) -> "DiffExpr":
        if type(value) is not int:
            value = Fraction(value)
        return DiffExpr(self, {0: value.numerator} if value else {}, 0, value.denominator)

    def one(self) -> "DiffExpr":
        return self.num(1)

    def indep(self, i) -> "DiffExpr":
        if isinstance(i, str):
            i = self.independent.index(i)
        return DiffExpr(self, {_unit(('i', i)): 1}, 1)

    def jet(self, j, K) -> "DiffExpr":
        if isinstance(j, str):
            j = self.dep_index(j)
        K = tuple(K)
        if len(K) != self.n or any(k < 0 for k in K):
            raise UnknownNameError(f"bad multi-index {K} for {self.independent}")
        return DiffExpr(self, {_unit(('j', j, K)): 1}, 1)

    def param(self, name) -> "DiffExpr":
        if name not in self.parameters:
            raise UnknownNameError(f"unknown parameter {name!r}")
        return DiffExpr(self, {_unit(('q', name)): 1}, 1)

    def nonlocal_var(self, name) -> "DiffExpr":
        if name not in self.nonlocals:
            raise UnknownNameError(f"unknown nonlocal variable {name!r}")
        return DiffExpr(self, {_unit(('w', name)): 1}, 1)

    def var(self, name) -> "DiffExpr":
        """Independent, parameter or nonlocal variable by bare name."""
        if name in self.independent:
            return self.indep(name)
        if name in self.parameters:
            return self.param(name)
        if name in self.nonlocals:
            return self.nonlocal_var(name)
        raise UnknownNameError(f"unknown name {name!r}")


# -- where a result lives ----------------------------------------------------


def _meet(a: JetSpace, b: JetSpace) -> JetSpace:
    """The space where a result over a and b lives: the one that extends the
    other, as `extended` does (the same independents, each of its dependents,
    parameters and nonlocals the other's plus a tail, and the same parity for
    every name the two share), a for a is b: equal spaces are one object, so
    callers test `is` first.  ShapeError when neither extends the other
    (renamed or crossed variables)."""
    for wide, narrow in ((a, b), (b, a)):
        if wide.dependent[:len(narrow.dependent)] == narrow.dependent \
                and wide.nonlocals[:len(narrow.nonlocals)] == narrow.nonlocals \
                and wide.parameters[:len(narrow.parameters)] == narrow.parameters \
                and wide.independent == narrow.independent \
                and (wide.odd ^ narrow.odd).isdisjoint(narrow.dependent + narrow.nonlocals):
            return wide
    raise ShapeError(f"incompatible jet spaces: {a} and {b}")


# -- coefficient and monomial helpers -------------------------------------


_W = 32                 # bits per exponent field
_E = 1 << 16            # exponent budget: no |exponent| may exceed it
_C = 1 << 13            # coefficient budget of a power or a parsed product, in bits
_T = 1 << 16            # term budget of a power
_P = 1 << 20            # work budget of a power, in products of coefficient words,
                        # and of a product, in term pairs
_D = 100                # nesting budget of a parsed expression: '(' and unary '-'
_J = 12                 # largest multi-index entry of a parsed jet (u[0,12] on KdV: 0.3 s)
_S = (1 << (_W - 1)) // _E - 2  # factors one monomial may substitute: (k+1)*E < 2^(W-1)
_FIELD = (1 << _W) - 1
_UNITS = {}             # variable key -> 2^(W*slot), its monomial x^1
_KEYS = []              # slot -> variable key
_FACTORS = {}           # monomial -> its factors, decoded
_PARITIES = {}          # (dependent, nonlocals, odd) -> the spaces' parity record


class _Parity(dict):
    """The parity record of the spaces with given dependents, nonlocals and
    odd names: the table {(o1, o2): sign of o1 * o2} of odd parts, and the
    `mask` and `bias` of the slots that `current` last saw registered, given
    the key[:2] of the odd variables, `odd` (no space, which it would keep)."""

    __slots__ = ("odd", "mask", "bias")

    def __init__(self, odd: set):
        super().__init__()
        self.odd, self.mask, self.bias = odd, 0, 0

    def current(self) -> "_Parity":
        for s in range(self.bias.bit_length() // _W, len(_KEYS)):
            self.bias |= 1 << (_W * s + _W - 1)
            self.mask |= (_KEYS[s][:2] in self.odd) << (_W * s)
        return self

    def __missing__(self, pair) -> int:  # (-1)^(pairs a > b, a in o1, b in o2); 0 for a square
        odd1, odd2 = ([k for k, _ in _factors(o)] for o in pair)
        inversions = sum(len(odd1) - bisect_left(odd1, b) for b in odd2)
        sign = self[pair] = 0 if pair[0] & pair[1] else -1 if inversions & 1 else 1
        return sign


def _unit(key) -> int:
    """The monomial `key`^1, registering a slot for a new key."""
    u = _UNITS.get(key)
    if u is None:
        u = _UNITS[key] = 1 << (_W * len(_KEYS))
        _KEYS.append(key)
    return u


def _factors(mono: int) -> tuple:
    """The sorted ((key, exponent), ...) of a monomial: the fields that are
    not zero, lowest set bit first, each read as a signed W-bit number and
    taken off before the next."""
    f = _FACTORS.get(mono)
    if f is None:
        out = []
        x = mono
        while x:
            s = ((x & -x).bit_length() - 1) // _W
            e = (x >> (_W * s)) & _FIELD
            if e >> (_W - 1):
                e -= 1 << _W
            out.append((_KEYS[s], e))
            x -= e << (_W * s)
        f = _FACTORS[mono] = tuple(sorted(out))
    return f


def _by_factors(item):
    """Sort key of a (monomial, coefficient) pair: the decoded factors, so
    that no order depends on the order in which slots were registered."""
    return _factors(item[0])


def _top_exponent(terms) -> int:
    """The largest |exponent| in a term dict, zero sums left out."""
    return max((abs(e) for m, c in terms.items() if c for _, e in _factors(m)), default=0)


def _within_budget(terms, bound) -> int:
    """A bound on the largest |exponent| in the result `terms` of an
    operation, given `bound`, the one its operands' bounds give;
    BudgetError when an exponent is beyond E.  Only a bound beyond E costs
    a pass over the terms."""
    if bound <= _E:
        return bound
    top = _top_exponent(terms)
    if top > _E:
        raise BudgetError(f"exponent {top} beyond the budget of {_E}")
    return top


def _check_bits(bits):
    """BudgetError for coefficients of up to `bits` bits, beyond C."""
    if bits > _C:
        raise BudgetError(f"coefficients of up to {ceil(bits)} bits beyond "
                          f"the budget of {_C} bits")


def _power_work(n, k, bits) -> int:
    """The work bound of x^k for x of n terms with coefficients of up to
    `bits` bits, following __pow__'s square-and-multiply chain."""
    def size(j):
        return comb(n + j - 1, j) * (1 + int(j * bits) // 64) if j else 1

    work, r, b = 0, 0, 1
    while k:
        if k & 1:
            work += size(r) * size(b)
            r += b
        k >>= 1
        if k:
            work += size(b) ** 2
            b *= 2
    return work


def _canonical(res: dict, den: int) -> tuple:
    """(terms, den) of a kernel's raw integer sums `res` over `den`, made
    canonical in one pass: zero sums dropped and, for den > 1, the gcd of
    den and the numerators divided out.  Both scans run in C; an integral
    result of nonzero sums is returned as it is."""
    if 0 in res.values():
        res = {m: c for m, c in res.items() if c}
    if den > 1:
        g = gcd(den, *res.values())
        if g > 1:
            res = {m: c // g for m, c in res.items()}
            den //= g
    return res, den


def _widen(res: dict, den: int, d: int) -> int:
    """lcm(den, d), for den not a multiple of d, with the raw sums `res`
    over den rescaled to it in place."""
    g = lcm(den, d) // den
    for m in res:
        res[m] *= g
    return den * g


def _mul_into(res: dict, space: JetSpace, t1: dict, t2: dict) -> dict:
    """Add the product of two dicts of integer numerators, t1 on the left,
    to the raw sums `res`, and return `res`.  Without odd variables a
    monomial product is the sum of the two ints.  BudgetError, before any
    work, beyond P term pairs."""
    if len(t1) * len(t2) > _P:
        raise BudgetError(f"product of {len(t1)} by {len(t2)} terms beyond the budget "
                          f"of {_P} term pairs")
    get = res.get
    if not space.odd:
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
        return res
    signs = space._parity.current()
    mask, bias = signs.mask, signs.bias
    right = [(m2, c2, (m2 + bias) & mask) for m2, c2 in t2.items()]
    for m1, c1 in t1.items():
        o1 = (m1 + bias) & mask
        for m2, c2, o2 in right:
            sign = signs[o1, o2] if o1 and o2 else 1
            if sign:
                m = m1 + m2
                res[m] = get(m, 0) + sign * c1 * c2
    return res


def sum_of_products(space: JetSpace, pairs) -> "DiffExpr":
    """The sum of a * b over the (a, b) pairs, a on the left."""
    return sum_of_terms(space, [(1, a, b) for a, b in pairs])


def raw_sum(space: JetSpace, terms) -> tuple:
    """(sums, den, top, space) of the sum of k * a * b over the (k, a, b) terms (an int k, a
    on the left, b None for k * a): raw int sums over the lcm of the denominators, not canonical
    (zeros kept; read by raw_coefficients), their exponent bound (BudgetError beyond E) and
    the extending space."""
    res, den, top, met = {}, 1, 0, space  # met: a space that `space` extends
    for k, a, b in terms:
        if a.space is not space or b is not None and b.space is not space:
            for x in (a,) if b is None else (a, b):
                if x.space is not space and x.space is not met:
                    wide = _meet(space, x.space)
                    space, met = wide, x.space if wide is space else space
        d = a.den if b is None else a.den * b.den
        if den % d:
            den = _widen(res, den, d)
        s = k * (den // d)
        if b is None:  # the constant s times a
            _mul_into(res, space, {0: s}, a.terms)
        else:
            _mul_into(res, space, a.terms if s == 1 else {m: c * s for m, c in a.terms.items()},
                      b.terms)
        top = max(top, a._top if b is None else a._top + b._top)
    return res, den, _within_budget(res, top), space


def raw_coefficients(sums: dict, den: int) -> list:
    """(monomial, coefficient) of each nonzero raw sum over den, an int or a reduced Fraction:
    `coefficients` of an expression, and a determining row's entries from a raw_sum."""
    if den == 1:
        return [item for item in sums.items() if item[1]]
    return [(m, Fraction(c, den) if c % den else c // den) for m, c in sums.items() if c]


def sum_of_terms(space: JetSpace, terms: list) -> "DiffExpr":
    """The raw_sum of the (k, a, b) terms made canonical once; a lone k * a is a times k."""
    if len(terms) == 1 and terms[0][2] is None:
        return terms[0][1] if terms[0][0] == 1 else terms[0][1] * terms[0][0]
    res, den, top, space = raw_sum(space, terms)
    res, den = _canonical(res, den)
    return DiffExpr(space, res, top, den)


class ImageTable(dict):
    """{variable key v: (pairs, den, top)} of its D_i image in one derivative
    setting, filled on first use: (monomial, numerator) pairs over den, each
    monomial divided by v (so that m + dm is a term of (m / v) * D_i(v)),
    and the image's exponent bound.  `space` is the setting's (None: free), `jets`
    maps the key of u^j_{K+e_i} to the image of u^j_K (None: that jet), `wmap` a
    nonlocal's name to its image (None, NonlocalObstruction, until a covering's
    presentation assigns it).  It holds at most one entry per registered slot."""

    __slots__ = ("i", "space", "wmap", "jets")

    def __init__(self, i: int, space, jets):
        super().__init__()
        self.i, self.space, self.wmap, self.jets = i, space, None, jets

    def __missing__(self, key) -> tuple:
        kind, i = key[0], self.i
        if kind == 'j':
            K = key[2]
            up = ('j', key[1], K[:i] + (K[i] + 1,) + K[i + 1:])
            image = DiffExpr(None, {_unit(up): 1}, 1) if self.jets is None else self.jets(up)
        elif kind == 'w' and self.wmap is None:
            raise NonlocalObstruction(
                f"total derivative of nonlocal variable {key[1]!r} requires a covering")
        elif kind == 'w':
            image = self.wmap[key[1]]
        else:  # an independent variable or a parameter
            image = DiffExpr(None, {0: 1} if key == ('i', i) else {}, 0)
        u = _unit(key)
        self[key] = tuple((m - u, c) for m, c in image.terms.items()), image.den, image._top
        return self[key]


_FREE_TABLES = {}       # i -> the ImageTable of the free D_i


class DiffExpr:
    """Immutable sparse differential polynomial over a JetSpace: `terms`
    {monomial: integer numerator} over the positive denominator `den`, in
    canonical form.  No code writes `terms` in place, so the free total
    derivatives can be cached on the expression (`_free_d`, {i: D_i(self)}),
    and so can its partial derivatives (`_partials`, {key: raw sums until
    first asked for, then the partial}, all split off in one pass) and
    `_top`, a bound on its largest |exponent|."""

    __slots__ = ("space", "terms", "den", "_free_d", "_partials", "_top")

    def __init__(self, space: JetSpace, terms: dict, top: int, den=1):
        self.space, self.terms, self.den = space, terms, den
        self._free_d = self._partials = None
        self._top = top

    # -- ring structure ---------------------------------------------------

    def _sum(self, other, sign: int):
        """self + sign * other, built in one dict: the body of + and -."""
        other, space = self._coerce(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        res = dict(self.terms) if s == 1 else {m: c * s for m, c in self.terms.items()}
        get = res.get
        for m, c in other.terms.items():
            res[m] = get(m, 0) + c * t
        res, den = _canonical(res, den)
        return DiffExpr(space, res, max(self._top, other._top), den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return DiffExpr(self.space, {m: -c for m, c in self.terms.items()}, self._top,
                        self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            terms, den = _canonical({m: c * p for m, c in self.terms.items()},
                                    self.den * other.denominator)
            return DiffExpr(self.space, terms, self._top, den)
        other, space = self._coerce(other)  # one product: no accumulator bookkeeping
        res, den = _canonical(_mul_into({}, space, self.terms, other.terms),
                              self.den * other.den)
        return DiffExpr(space, res, _within_budget(res, self._top + other._top), den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse_monomial() ** (-k)
        if k > 1:
            top = _top_exponent(self.terms) * k if self._top * k > _E else 0
            if top > _E:
                raise BudgetError(f"exponent {top} beyond the budget of {_E}")
            bits = self._coefficient_bits()
            _check_bits(k * bits)
            # the monomials of degree k in len(self) terms
            count = comb(len(self.terms) + k - 1, k)
            if count > _T:
                raise BudgetError(f"power of up to {count} terms beyond the budget "
                                  f"of {_T} terms")
            work = _power_work(len(self.terms), k, bits)
            if work > _P:
                raise BudgetError(f"power of up to {work} coefficient-word products "
                                  f"beyond the budget of {_P}")
        result, base = self.space.one(), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _coefficient_bits(self) -> float:
        """log2 of a bound on the numerators and the denominator: the bound
        of a product adds its factors' bounds."""
        return log2(max(self.den, sum(map(abs, self.terms.values()))))

    def inverse_monomial(self) -> "DiffExpr":
        """Inverse of a single-term monomial in even jet/nonlocal variables."""
        if len(self.terms) != 1:
            raise LaurentError(f"cannot invert non-monomial {self}")
        (mono, n), = self.terms.items()
        for key, _ in _factors(mono):
            if key[0] not in ('j', 'w') or self.space.is_odd_key(key):
                raise LaurentError(f"cannot invert factor {_render_key(self.space, key)} in {self}")
        return DiffExpr(self.space, {-mono: self.den if n > 0 else -self.den}, self._top,
                        abs(n))

    def _coerce(self, other) -> tuple:
        """(`other` as an expression, the space that a result with it lives
        on): a number lies over self's space, and two spaces meet on the one
        that extends the other; ShapeError when neither does."""
        if not isinstance(other, DiffExpr):
            return self.space.num(other), self.space
        return other, self.space if other.space is self.space else _meet(self.space, other.space)

    # -- structure queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.space.num(other)
        return isinstance(other, DiffExpr) and self.den == other.den \
            and self.terms == other.terms \
            and (other.space is self.space
                 or self.space.independent == other.space.independent
                 and all(self.space._readings.get(k[:2]) == other.space._readings.get(k[:2])
                         for k in self.variables()))

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def coefficients(self):
        """(monomial, coefficient) pairs, each coefficient an int or a
        reduced Fraction; a monomial is an opaque hashable key, equal for
        equal monomials."""
        return raw_coefficients(self.terms, self.den)

    def negative_keys(self) -> set:
        """The variable keys that carry a negative exponent."""
        return {k for mono in self.terms for k, e in _factors(mono) if e < 0}

    def exponents(self):  # the sorted ((key, exponent), ...) of each monomial
        return [_factors(m) for m in self.terms]

    def variables(self):
        seen = set()
        for m in self.terms:
            for k, _ in _factors(m):
                seen.add(k)
        return seen

    def jet_keys(self):
        return sorted(k for k in self.variables() if k[0] == 'j')

    def is_linear_in(self, key) -> bool:
        return all(e == 1 for m in self.terms for k, e in _factors(m) if k == key)

    def by_least(self, keep) -> tuple:
        """(rest, {key: quotient}) in one pass over the terms: a term holding
        a variable key with keep(key) goes to the quotient of its least such
        key, divided by that key, and the other terms make up rest; every part
        is canonical over self's space.  The selected keys must be even:
        dividing out an odd one would need a sign."""
        parts = {}
        for mono, c in self.terms.items():
            key = next((k for k, _ in _factors(mono) if keep(k)), None)
            parts.setdefault(key, {})[mono if key is None else mono - _UNITS[key]] = c
        out = {}
        for key, terms in parts.items():
            res, den = _canonical(terms, self.den)
            out[key] = DiffExpr(self.space, res,
                                _within_budget(res, self._top + (key is not None)), den)
        return out.pop(None, None) or self.space.zero(), out

    # -- calculus ----------------------------------------------------------

    def partial(self, key) -> "DiffExpr":
        """Partial derivative; left derivative for odd variables.  The first
        call splits off every partial's raw sums in one pass (distinct
        monomials with a key lose it to distinct rests, so none meet); each
        is made canonical and checked against the budget when asked for."""
        parts = self._partials
        if parts is None:
            parts = self._partials = {}
            signs = self.space._parity.current()
            for mono, c in self.terms.items():
                odd = (mono + signs.bias) & signs.mask
                for k, e in _factors(mono):
                    unit = _UNITS[k]
                    if unit & odd:
                        e = signs[unit, odd - unit] if odd - unit else 1
                    parts.setdefault(k, {})[mono - unit] = c * e
        got = parts.get(key, {})
        if type(got) is dict:
            res, den = _canonical(got, self.den)
            top = _within_budget(res, self._top + 1)
            got = parts[key] = DiffExpr(self.space, res, top, den)
        return got

    def total_derivative(self, i: int, table=None) -> "DiffExpr":
        """Total derivative D_i, each variable's image read from `table`,
        the `ImageTable` of one setting: kept by a presentation (restricted
        to its equation, and lifted on a covering's), or the process-wide
        free one for None, where a nonlocal occurrence is an error.  Each
        factor v^e of a monomial gives e*v^(e-1)*D_i(v); an odd v is first
        moved to the front, and D_i(v) stays there.  The free derivative is
        also cached on the expression, so D_K reuses every D_{K-e_i} of the
        same object.  The result lives on the meet with the table's space."""
        space = self.space
        free = table is None
        if free:
            if self._free_d is None:
                self._free_d = {}
            elif i in self._free_d:
                return self._free_d[i]
            table = _FREE_TABLES.get(i) or _FREE_TABLES.setdefault(
                i, ImageTable(i, None, None))
        elif table.space is not space and table.space is not None:
            space = _meet(space, table.space)
        odd, signs = space.odd, space._parity
        if odd:  # refreshed whenever filling an entry registers a slot
            mask, bias, slots = signs.current().mask, signs.bias, len(_KEYS)
        den = 1  # the lcm of the denominators of the images met
        top = 1  # a bound on the exponents of the images D_i(v)
        res = {}
        get = res.get
        for mono, c in self.terms.items():
            for key, e in _FACTORS.get(mono) or _factors(mono):
                dv, d, t = table[key]
                if t > top:
                    top = t
                if not dv:
                    continue
                if den % d:
                    den = _widen(res, den, d)
                ec = e * c if den == d else e * c * (den // d)
                if not odd:
                    for dm, dc in dv:
                        new = mono + dm
                        res[new] = get(new, 0) + ec * dc
                    continue
                if len(_KEYS) != slots:
                    mask, bias, slots = signs.current().mask, signs.bias, len(_KEYS)
                unit = _UNITS[key]
                o, front = (mono - unit + bias) & mask, unit & mask
                ec = signs[unit, o] * ec if front and o else ec
                for dm, dc in dv:
                    od = (dm + unit + bias) & mask
                    sign = 1 if not (o and od) else signs[od, o] if front else signs[o, od]
                    if sign:
                        new = mono + dm
                        res[new] = get(new, 0) + sign * ec * dc
        res, den = _canonical(res, self.den * den)
        out = DiffExpr(space, res, _within_budget(res, self._top + 1 + top), den)
        if free:
            self._free_d[i] = out
        return out

    def substitute(self, mapping: dict) -> "DiffExpr":
        """Replace variable keys by expressions.  Odd keys may only map to
        odd-linear expressions; even keys to even expressions.

        Each monomial is one product.  Even factors commute with everything,
        so it starts from the kept even factors, times the power rep**e of
        each replaced even factor (computed once per call), and then takes
        the odd factors, kept or replaced, in their monomial order."""
        space = self.space
        for x in mapping.values():
            if x.space is not space:
                space = _meet(space, x.space)
        powers = {}
        out, den = {}, 1  # den: the lcm of the denominators of the images so far
        for mono, c in self.terms.items():
            kept, factors, odd = mono, [], []
            for key, e in _factors(mono):
                if space.odd and space.is_odd_key(key):
                    kept -= _UNITS[key]
                    odd.append(mapping[key] if key in mapping else DiffExpr(
                        space, {_UNITS[key]: 1}, 1))
                elif key in mapping:
                    kept -= e * _UNITS[key]
                    if (key, e) not in powers:
                        powers[key, e] = mapping[key] ** e
                    factors.append(powers[key, e])
            if (k := len(factors) + len(odd)) > _S:
                raise BudgetError(f"substitution into {k} factors beyond the budget of {_S}")
            term, d = {kept: c}, 1
            for f in factors + odd:
                term = _mul_into({}, space, term, f.terms)
                d *= f.den
            if den % d:
                den = _widen(out, den, d)
            s = den // d
            for m, v in term.items():
                out[m] = out.get(m, 0) + v * s
        images = list(powers.values()) + [x for k, x in mapping.items() if space.is_odd_key(k)]
        out, den = _canonical(out, self.den * den)
        return DiffExpr(space, out, _within_budget(
            out, sum((x._top for x in images), self._top)), den)

    def rename_space(self, space: JetSpace) -> "DiffExpr":
        """The same terms, read over another space."""
        return DiffExpr(space, dict(self.terms), self._top, self.den)

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        return f"DiffExpr({render(self)})"


# -- derivative stacks -----------------------------------------------------


def apply_DI(e: DiffExpr, K: MultiIndex) -> DiffExpr:
    """D_K(e) on free jets, one derivative at a time; a setting's D_K (restricted
    to an equation, or lifted to a covering) is tower_DI's."""
    for i, k in enumerate(K):
        for _ in range(k):
            e = e.total_derivative(i)
    return e


def tower_DI(tower: dict, e: DiffExpr, K: MultiIndex, d) -> DiffExpr:
    """D_K(e) through the memo tower {K: D_K(e)}: D_K is d(D_{K-e_i}, i), d the
    caller's total derivative, for i the last nonzero slot of K, exactly the
    derivatives apply_DI takes, and each D_{K-e_i} already in the tower is
    reused.  One loop walks down to the first D_L in the tower (or L = 0), and
    one walks back up."""
    pending = []  # (K, i) of each D_K still to take, from the top down
    while K not in tower:
        if not any(K):
            got = e
            break
        i = max(k for k, x in enumerate(K) if x)
        pending.append((K, i))
        K = K[:i] + (K[i] - 1,) + K[i + 1:]
    else:
        got = tower[K]
    while pending:
        K, i = pending.pop()
        got = tower[K] = d(got, i)
    return got


def euler(density: DiffExpr, targets=None, d=None) -> list:
    """Variational derivatives (delta L / delta u^j) for the listed
    dependent families (default: all), with total derivatives d(e, i) of
    a setting (free jets by default).  Left-derivative convention for odd targets.

    sum_K (-D)_K (dL/du^j_K) is summed in one downward sweep over the
    multi-indices: node K hands -d(acc[K], i) to K - e_i, i the first
    nonzero slot of K.  Each node costs one derivative, and every D_K is
    still applied in apply_DI's order."""
    space = density.space
    if targets is None:
        targets = range(space.m)
    out = []
    for j in targets:
        acc = {k[2]: density.partial(k) for k in sorted(density.variables())
               if k[0] == 'j' and k[1] == j}
        for order in range(max(map(mi_order, acc), default=0), 0, -1):
            for K in [K for K in acc if mi_order(K) == order]:
                i = next(i for i, k in enumerate(K) if k)
                down = K[:i] + (K[i] - 1,) + K[i + 1:]
                e = acc.pop(K)
                de = e.total_derivative(i) if d is None else d(e, i)
                acc[down] = acc[down] - de if down in acc else -de
        out.append(acc.get(mi_zero(space.n), space.zero()))
    return out


def euler_is_zero(density: DiffExpr, targets=None) -> bool:
    """Whether euler(density, targets) vanishes, one target at a time: False
    at the first nonzero one, with the later ones never computed."""
    return all(euler(density, [j])[0].is_zero()
               for j in (range(density.space.m) if targets is None else targets))


# -- horizontal forms ------------------------------------------------------


@dataclass(frozen=True)
class HorizontalForm:
    """Horizontal q-form; components indexed by sorted q-subsets of
    independent variables."""

    space: JetSpace
    degree: int
    comps: dict

    def __post_init__(self):  # a read-only map, over a copy
        object.__setattr__(self, "comps", MappingProxyType(dict(self.comps)))


# -- homotopy inverses -----------------------------------------------------


def homotopy_density(psi) -> DiffExpr:
    """Density L with euler(L) = psi, via L = sum_j u^j * int_0^1 psi_j(s u) ds.
    Requires psi to be a variational gradient, polynomial in the jets."""
    space = psi[0].space
    if any(k[0] == 'j' for p in psi for k in p.negative_keys()):
        raise NonlocalObstruction("homotopy base point u=0 incompatible with Laurent part")
    # int_0^1 psi_j(s u) ds divides each term of psi_j by 1 + its degree in the jets
    out = sum_of_products(space, [
        (space.jet(j, mi_zero(space.n)),
         _divided(p, {m: 1 + sum(e for k, e in _factors(m) if k[0] == 'j') for m in p.terms},
                  0, 0))
        for j, p in zip(range(space.m), psi)])
    check = euler(out)
    if any((a - b) for a, b in zip(check, psi)):
        raise VariationalityError("input is not a variational gradient")
    return out


_JETKEY = lambda k: (mi_order(k[2]), k[1], k[2])


def _top_jet(e: DiffExpr):
    return max((k for k in e.variables() if k[0] == 'j'), key=_JETKEY, default=None)


def _by_parts(g: DiffExpr, z):
    """One integration by parts along x at g's top jet z: (B, g - D_x(B))
    with B the primitive of g's part linear in z.  NonlocalObstruction when
    z carries no D_x, g is not linear in z, the primitive is not
    polynomial, or the top jet does not drop."""
    space = g.space
    if z[2][0] == 0:
        raise NonlocalObstruction(f"top jet {_render_key(space, z)} carries no "
                                  f"D_{space.independent[0]} derivative")
    down = ('j', z[1], mi_sub(z[2], mi_unit(space.n, 0)))
    if space.is_odd_key(z):
        c = g.partial(z)
        if down in c.variables():
            raise NonlocalObstruction("odd integrand not linear in its primitive slot")
        B = DiffExpr(space, {_unit(down): 1}, 1) * c  # D_i(B) = z*c + down*D_i(c)
    else:
        if not g.is_linear_in(z):
            raise NonlocalObstruction(f"integrand nonlinear in top jet {_render_key(space, z)}")
        B = _integrate_var(g.partial(z), down)
    rest = g - B.total_derivative(0)
    nz = _top_jet(rest)
    if nz is not None and _JETKEY(nz) >= _JETKEY(z):
        raise NonlocalObstruction("integration by parts failed to reduce order")
    return B, rest


def invert_total_derivative(e: DiffExpr) -> DiffExpr:
    """The primitive theta with D_x(theta) = e, x the first independent, and
    zero constant of integration; NonlocalObstruction when none is local."""
    if any(k[0] == 'w' for k in e.variables()):
        raise NonlocalObstruction("nonlocal variable in integrand")
    present = sorted({k[1] for k in e.variables() if k[0] == 'j'})
    if not euler_is_zero(e, present):
        raise NonlocalObstruction("nonzero variational derivative: primitive is nonlocal")
    theta = e.space.zero()
    g = e
    while (z := _top_jet(g)) is not None:
        B, g = _by_parts(g, z)
        theta = theta + B
    # residual depends on independents/parameters only
    return theta + _integrate_var(g, ('i', 0))


def _integrate_var(c: DiffExpr, key) -> DiffExpr:
    """Antiderivative of c with respect to the (even) variable `key`."""
    exponents = {mono: dict(_factors(mono)).get(key, 0) + 1 for mono in c.terms}
    if 0 in exponents.values():
        raise NonlocalObstruction("logarithmic primitive required")
    return _divided(c, exponents, _unit(key), 1)


def _divided(e: DiffExpr, divisors: dict, unit: int, top: int) -> DiffExpr:
    """sum c/q * m*unit over the terms c*m of e, q = divisors[m] a nonzero
    int, built over the lcm of the divisors; `top` bounds the exponents
    that `unit` adds."""
    den = lcm(*divisors.values())
    terms, den = _canonical({m + unit: c * (den // divisors[m]) for m, c in e.terms.items()},
                            e.den * den)
    return DiffExpr(e.space, terms, _within_budget(terms, e._top + top), den)


def canonical_density(e: DiffExpr) -> DiffExpr:
    """Deterministic divergence-equivalent representative: integrate even
    top jets by parts in x^0 while that strictly lowers the top jet."""
    g = e
    while (z := _top_jet(g)) is not None and not e.space.is_odd_key(z):
        try:
            _, g = _by_parts(g, z)
        except NonlocalObstruction:
            break
    return g


# -- parsing and rendering -------------------------------------------------

# a token past any blanks; `bad` is a character that no token starts with
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[\[\],()+^*-])|(?P<bad>\S))")


def _tokenize(text: str):
    pos = 0
    out = []
    while m := _TOKEN.match(text, pos):  # none once only blanks are left
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character {m['bad']!r}", m.start("bad"))
        out.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _number(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond Python's limit on the digits of an int
        raise ExprSyntaxError(f"number of {len(digits)} digits is too long", pos) from None


class _Parser:
    def __init__(self, text: str, space: JetSpace):
        self.tokens = _tokenize(text)
        self.space = space
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            found = "end of input" if kind == "end" else repr(val)
            raise ExprSyntaxError(f"expected {value!r}, found {found}", pos)

    def nested(self, parse, pos) -> DiffExpr:
        """parse() one level deeper, for the '(' or unary '-' at pos."""
        self.depth += 1
        if self.depth > _D:
            raise ExprSyntaxError(f"expression nested deeper than {_D} levels", pos)
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> DiffExpr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> DiffExpr:
        if self.peek()[1] == '-':
            e = -self.nested(self.term, self.next()[2])
        else:
            e = self.term()
        while self.peek()[1] in ('+', '-'):
            op = self.next()[1]
            t = self.term()
            e = e + t if op == '+' else e - t
        return e

    def term(self) -> DiffExpr:
        e = self.factor()
        while self.peek()[1] == '*':
            pos = self.next()[2]
            f = self.factor()
            try:
                _check_bits(e._coefficient_bits() + f._coefficient_bits())
                e = e * f
            except BudgetError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        return e

    def factor(self) -> DiffExpr:
        e = self.atom()
        if self.peek()[1] == '^':
            caret = self.next()[2]
            sign = 1
            if self.peek()[1] == '-':
                self.next()
                sign = -1
            kind, val, pos = self.next()
            if kind != 'num' or '/' in val:
                raise ExprSyntaxError("exponent must be an integer", pos)
            try:
                e = e ** (sign * _number(val, pos))
            except LaurentError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
            except BudgetError as exc:
                raise ExprSyntaxError(str(exc), caret) from None
        return e

    def atom(self) -> DiffExpr:
        kind, val, pos = self.next()
        if kind == 'num':
            if '/' in val:
                p, q = (_number(x, pos) for x in val.split('/'))
                if not q:
                    raise ExprSyntaxError("division by zero", pos)
                return self.space.num(Fraction(p, q))
            return self.space.num(_number(val, pos))
        if val == '(':
            e = self.nested(self.expr, pos)
            self.expect(')')
            return e
        if val == '-':
            return -self.nested(self.atom, pos)
        if kind == 'name':
            if self.peek()[1] == '[':
                if val not in self.space.dependent:
                    raise ExprSyntaxError(f"jet token on non-dependent name {val!r}", pos)
                self.next()
                K = []
                while True:
                    k2, v2, p2 = self.next()
                    if k2 != 'num' or '/' in v2:
                        raise ExprSyntaxError("multi-index entries must be integers", p2)
                    K.append(_number(v2, p2))
                    if K[-1] > _J:
                        raise ExprSyntaxError(
                            f"multi-index entries must be at most {_J}", p2)
                    _, v3, p3 = self.next()
                    if v3 == ']':
                        break
                    if v3 != ',':
                        raise ExprSyntaxError("expected ',' or ']'", p3)
                if len(K) != self.space.n:
                    raise ExprSyntaxError(
                        f"multi-index length {len(K)} != {self.space.n}", pos)
                return self.space.jet(val, tuple(K))
            if val in self.space.dependent:
                raise ExprSyntaxError(f"dependent name {val!r} needs a jet index", pos)
            try:
                return self.space.var(val)
            except UnknownNameError:
                raise ExprSyntaxError(f"unknown name {val!r}", pos) from None
        raise ExprSyntaxError("unexpected end of input" if kind == "end"
                              else f"unexpected token {val!r}", pos)


def parse(text: str, space: JetSpace) -> DiffExpr:
    return _Parser(text, space).parse()


def _render_key(space: JetSpace, key) -> str:
    kind = key[0]
    if kind == 'i':
        return space.independent[key[1]]
    if kind == 'j':
        idx = ",".join(str(k) for k in key[2])
        return f"{space.dependent[key[1]]}[{idx}]"
    return key[1]


def _coefficient_text(c) -> str:
    """str(c); a BudgetError naming the digits beyond Python's print limit."""
    try:
        return str(c)
    except ValueError:
        big = max(abs(c.numerator), c.denominator)
        digits = floor(log10(big)) + 1
        digits -= 10 ** (digits - 1) > big  # log10 may round up near a power of 10
        raise BudgetError(f"coefficient of {digits} digits is too long to print") from None


def render(e: DiffExpr) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for mono, c in sorted(e.coefficients(), key=_by_factors):
        factors = []
        for key, exp in _factors(mono):
            name = _render_key(e.space, key)
            factors.append(name if exp == 1 else f"{name}^{exp}")
        body = "*".join(factors)
        coeff = abs(c)
        if not factors:
            text = _coefficient_text(coeff)
        elif coeff == 1:
            text = body
        else:
            text = f"{_coefficient_text(coeff)}*{body}"
        parts.append(("-" if c < 0 else "+", text))
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


DiffExpr.__str__ = lambda self: render(self)
