"""Seeded oracles for the kernels of jetcalc.algebra: the total derivative
(free, and through an `ImageTable` of given images), the product, `sum_of_products`
(and the raw sums of `raw_sum` behind it), `partial`, `substitute`, scalar
products, `inverse_monomial` and `euler` against a term-by-term reference
on decoded terms, over spaces with odd variables, with coefficients over
coprime denominators, and one step past the exponent budget; the derivative
through a table also against a sum of ring products.  Every result is
checked for the stored layout: int numerators over one denominator, in
canonical form."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from jetcalc import CDiffOp, JetSpace, euler, parse
from jetcalc import algebra
from jetcalc.algebra import _E, _KEYS, ImageTable, raw_sum, sum_of_products, sum_of_terms
from jetcalc.errors import BudgetError, ShapeError
from jetcalc.hamiltonian import momenta_space
from constructs import lifted_table
from monomials import decoded_terms, entries, from_factors, layout, raw_entries

# v and z are odd; w is an even nonlocal and a a parameter
SPACE = JetSpace.create(["x", "t"], ["u", "v"], ["a"], ["w", "z"], odd=["v", "z"])
EVEN = JetSpace.create(["x", "t"], ["u"], ["a"], ["w"])
COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
          Fraction(1, 3), Fraction(-3, 4), Fraction(5, 6), Fraction(7, 10)]


def rand_index(rng):
    return (rng.randint(0, 2), rng.randint(0, 1))


def rand_factors(rng, space, odd=None):
    """The decoded factors of a random monomial; with `odd` set, exactly
    that many odd factors (0 or 1), else any."""
    factors = {}
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            factors[('i', rng.randrange(2))] = rng.randint(1, 2)
        elif kind == 1:
            factors[('j', 0, rand_index(rng))] = rng.choice([-2, -1, 1, 2, 3])
        elif kind == 2:
            factors[('q', 'a')] = rng.randint(1, 2)
        elif kind == 3 and 'w' in space.nonlocals:
            factors[('w', 'w')] = rng.choice([-1, 1, 2])
    odd_keys = [('j', 1, rand_index(rng)) for _ in range(2)] + [('w', 'z')]
    if space.odd:
        count = rng.randint(0, 2) if odd is None else odd
        for key in rng.sample(odd_keys, count):
            factors[key] = 1
    return tuple(sorted(factors.items()))


def rand_terms(rng, space, nterms=4, odd=None):
    return {rand_factors(rng, space, odd): rng.choice(COEFFS) for _ in range(nterms)}


def rand_expr(rng, space, nterms=4, odd=None):
    return from_factors(space, rand_terms(rng, space, nterms, odd))


# -- the term-by-term reference, on decoded terms --------------------------


def mono_mul(space, m1, m2):
    """(m1 * m2, sign) of decoded monomials, or None for an odd square: the
    sign of merging m1's odd keys and then m2's into key order."""
    odd1 = [k for k, _ in m1 if space.is_odd_key(k)]
    odd2 = [k for k, _ in m2 if space.is_odd_key(k)]
    if set(odd1) & set(odd2):
        return None
    exps = dict(m1)
    for k, e in m2:
        exps[k] = exps.get(k, 0) + e
    sign = (-1) ** sum(1 for p in odd1 for q in odd2 if p > q)
    return tuple(sorted((k, e) for k, e in exps.items() if e)), sign


def ref_mul(space, t1, t2):
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            merged = mono_mul(space, m1, m2)
            if merged is not None:
                m, sign = merged
                out[m] = out.get(m, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_add(out, terms):
    for m, c in terms.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_total_derivative(space, terms, image):
    """Each factor v^e of each term c*m gives e*c*(m / v)*D(v), an odd v
    moved to the front first and D(v) left there; image(key) is D(v)."""
    out = {}
    for m, c in terms.items():
        for key, e in m:
            rest = tuple((k, x - (k == key)) for k, x in m if k != key or x != 1)
            if space.is_odd_key(key):
                before = sum(1 for k, _ in m if k < key and space.is_odd_key(k))
                out = ref_add(out, ref_mul(space, image(key), {rest: (-1) ** before * c}))
            else:
                out = ref_add(out, ref_mul(space, {rest: e * c}, image(key)))
    return out


def ref_partial(space, terms, key):
    """Each term c*m with m = ...*key^e*... gives e*c*(m / key), an odd key
    first moved to the front (the left derivative)."""
    out = {}
    for m, c in terms.items():
        e = dict(m).get(key)
        if e is not None:
            rest = tuple((k, x - (k == key)) for k, x in m if k != key or x != 1)
            if space.is_odd_key(key):
                e = (-1) ** sum(1 for k, _ in m if k < key and space.is_odd_key(k))
            out = ref_add(out, {rest: e * c})
    return out


def ref_power(space, terms, x):
    out = {(): 1}
    for _ in range(x):
        out = ref_mul(space, out, terms)
    return out


def ref_substitute(space, terms, mapping):
    """Each term rebuilt factor by factor in its (key) order, a mapped
    key^x replaced by the image's x-th power."""
    out = {}
    for m, c in terms.items():
        term = {(): c}
        for key, x in m:
            factor = ref_power(space, mapping[key], x) if key in mapping else {((key, x),): 1}
            term = ref_mul(space, term, factor)
        out = ref_add(out, term)
    return out


def ref_euler(space, terms, j):
    """sum over the jets u^j_K of (-D)_K (dL/du^j_K), one D at a time."""
    out = {}
    for key in sorted({k for m in terms for k, _ in m if k[0] == 'j' and k[1] == j}):
        t = ref_partial(space, terms, key)
        for i, times in enumerate(key[2]):
            for _ in range(times):
                t = {m: -c for m, c in ref_total_derivative(space, t, free_image(i)).items()}
        out = ref_add(out, t)
    return out


def free_image(i):
    def image(key):
        if key[0] == 'i':
            return {(): 1} if key[1] == i else {}
        if key[0] == 'j':
            K = list(key[2])
            K[i] += 1
            return {((('j', key[1], tuple(K)), 1),): 1}
        return {}
    return image


def assert_canonical(e):
    """The stored layout: nonzero int numerators over a denominator den > 0
    with gcd(den, *numerators) == 1, and den == 1 exactly when every
    coefficient is an integer; each coefficient read back is an int when
    integral and a Fraction otherwise."""
    nums, den = layout(e)
    assert all(type(n) is int and n for n in nums) and type(den) is int and den > 0
    assert gcd(den, *nums) == 1
    coeffs = decoded_terms(e).values()
    assert all(type(c) is int or c.denominator != 1 for c in coeffs)
    assert (den == 1) == all(type(c) is int for c in coeffs)


# -- the oracles ----------------------------------------------------------------


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_free_total_derivative_matches_the_reference(space):
    rng = random.Random(71)
    for _ in range(60):
        terms = rand_terms(rng, space)
        e = from_factors(space, terms)
        for i in range(2):
            got = e.total_derivative(i, lifted_table(i, {'w': space.zero(), 'z': space.zero()}
                                                     if space is SPACE else {'w': space.zero()}))
            assert decoded_terms(got) == ref_total_derivative(
                space, decoded_terms(e), free_image(i))
            assert_canonical(got)
            if not any(k[0] == 'w' for k in e.variables()):
                assert got == e.total_derivative(i)


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_restricted_and_lifted_derivatives_match_the_reference(space):
    """The table's `jets` maps u_{K+e_i} to a random image, odd-linear for
    an odd family and even otherwise; its `wmap` maps each nonlocal likewise."""
    rng = random.Random(73)
    for _ in range(40):
        images = {}

        def jets(key):
            if key not in images:
                odd = 1 if space.is_odd_key(key) else 0
                images[key] = rand_expr(rng, space, nterms=3, odd=odd)
            return images[key]

        wmap = {name: rand_expr(rng, space, nterms=3, odd=1 if name in space.odd else 0)
                for name in space.nonlocals}
        e = rand_expr(rng, space)
        i = rng.randrange(2)
        got = e.total_derivative(i, lifted_table(i, wmap, jets))

        def image(key):
            if key[0] == 'j':
                K = list(key[2])
                K[i] += 1
                return decoded_terms(jets(('j', key[1], tuple(K))))
            if key[0] == 'w':
                return decoded_terms(wmap[key[1]])
            return free_image(i)(key)

        assert decoded_terms(got) == ref_total_derivative(space, decoded_terms(e), image)
        assert_canonical(got)


# the momenta space of a base with an odd nonlocal: u even (with negative
# exponents), its momentum p_u odd, w even and z odd nonlocals, a a parameter
MOMENTA = momenta_space(JetSpace.create(["x", "t"], ["u"], ["a"], ["w", "z"], odd=["z"]))


def product_total_derivative(e, i, image):
    """D_i(e) as the sum, over each term c*m of e and each factor v^x of m,
    of x*c*(m / v)*D_i(v), every product taken with `*`: an odd v is first
    moved to the front of m, past the odd factors before it, and D_i(v)
    stays there; image(key) is D_i(v) as an expression."""
    space = e.space
    out = space.zero()
    for m, c in decoded_terms(e).items():
        for p, (key, x) in enumerate(m):
            rest = from_factors(space, {tuple((k, y - (k == key)) for k, y in m
                                              if k != key or y != 1): 1})
            if space.is_odd_key(key):
                passed = sum(space.is_odd_key(k) for k, _ in m[:p])
                out = out + image(key) * rest * (c * (-1) ** passed)
            else:
                out = out + rest * image(key) * (x * c)
    return out


@pytest.mark.parametrize("space", [MOMENTA, SPACE, EVEN], ids=["momenta", "odd", "even"])
def test_derivatives_through_tables_match_a_sum_of_products(space):
    """Entries stored divided by their variable give D_i as the ring does:
    random jet and nonlocal images, odd-linear for an odd variable, with
    Fraction coefficients and negative exponents, in the table and in e."""
    rng = random.Random(97)
    seen = set()
    for _ in range(40):
        images = {}

        def jets(key):
            if key not in images:
                images[key] = rand_expr(rng, space, nterms=3, odd=int(space.is_odd_key(key)))
            return images[key]

        wmap = {name: rand_expr(rng, space, nterms=3, odd=int(name in space.odd))
                for name in space.nonlocals}
        e = rand_expr(rng, space)
        i = rng.randrange(2)

        def image(key):
            if key[0] == 'j':
                K = list(key[2])
                K[i] += 1
                return jets(('j', key[1], tuple(K)))
            if key[0] == 'w':
                return wmap[key[1]]
            return space.one() if key == ('i', i) else space.zero()

        got = e.total_derivative(i, lifted_table(i, wmap, jets))
        assert got == product_total_derivative(e, i, image)
        assert_canonical(got)
        for m in decoded_terms(e):
            odd = [k for k, _ in m if space.is_odd_key(k)]
            seen |= {"negative" for _, x in m if x < 0} | {"nonlocal" for k, _ in m if k[0] == 'w'}
            seen |= {"odd front" for k in odd[1:] if image(k)}
        seen |= {"fraction" for x in list(images.values()) + list(wmap.values()) if x.den > 1}
    assert seen == {"negative", "nonlocal", "fraction"} | ({"odd front"} if space.odd else set())


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_products_and_sums_of_products_match_the_reference(space):
    rng = random.Random(79)
    signs, squares = set(), 0
    for _ in range(60):
        pairs = [(rand_terms(rng, space, 3), rand_terms(rng, space, 3))
                 for _ in range(rng.randint(0, 4))]
        exprs = [(from_factors(space, a), from_factors(space, b)) for a, b in pairs]
        want = {}
        for x, y in exprs:
            product = x * y
            assert decoded_terms(product) == ref_mul(space, decoded_terms(x), decoded_terms(y))
            assert_canonical(product)
            want = ref_add(want, ref_mul(space, decoded_terms(x), decoded_terms(y)))
            for m1 in decoded_terms(x):
                for m2 in decoded_terms(y):
                    merged = mono_mul(space, m1, m2)
                    if merged is None:
                        squares += 1
                    else:
                        signs.add(merged[1])
        got = sum_of_products(space, exprs)
        assert decoded_terms(got) == want
        assert_canonical(got)
    assert signs == ({1, -1} if space.odd else {1}) and (squares > 10) == bool(space.odd)


def test_fractions_that_sum_to_integers_are_ints():
    u, ux = EVEN.jet("u", (0, 0)), EVEN.jet("u", (1, 0))
    half = Fraction(1, 2)
    u_ux = ((('j', 0, (0, 0)), 1), (('j', 0, (1, 0)), 1))
    for got, want in [
        ((u * u * half).total_derivative(0), {u_ux: 1}),
        ((u * half).total_derivative(0, ImageTable(0, None, lambda key: ux * 2)),
         {u_ux[1:]: 1}),
        ((u * half) * (ux * 4), {u_ux: 2}),
        (sum_of_products(EVEN, [(u * half, ux), (ux * Fraction(3, 2), u)]), {u_ux: 2}),
        ((3 - u * half) * 2, {u_ux[:1]: -1, (): 6}),  # int - DiffExpr
    ]:
        assert decoded_terms(got) == want
        assert all(type(c) is int for c in decoded_terms(got).values())


def test_full_cancellation_leaves_no_entry():
    sp = JetSpace.create(["x"], ["u"])
    u, u1 = sp.jet("u", (0,)), sp.jet("u", (1,))
    # D(u u_x) with u_x -> u_x and u_xx -> -u_x^2 / u: u_x^2 - u_x^2
    images = {('j', 0, (1,)): u1, ('j', 0, (2,)): -(u1 * u1) * u ** -1}
    assert len((u * u1).total_derivative(0, ImageTable(0, None, images.get))) == 0
    a, b = rand_expr(random.Random(83), SPACE), rand_expr(random.Random(89), SPACE)
    assert len(sum_of_products(SPACE, [(a, b), (-a, b)])) == 0
    v, z = SPACE.jet("v", (0, 0)), SPACE.nonlocal_var("z")
    assert len(sum_of_products(SPACE, [(v, z), (z, v)])) == 0  # odd: v z = -z v


def test_one_step_past_the_budget_raises():
    u, u1 = EVEN.jet("u", (0, 0)), EVEN.jet("u", (1, 0))
    w = EVEN.nonlocal_var("w")
    at_budget = (u * u1 ** (_E - 1)).total_derivative(0)
    assert max(e for m in decoded_terms(at_budget) for _, e in m) == _E
    beyond = [
        lambda: (u * u1 ** _E).total_derivative(0),
        lambda: (u ** _E).total_derivative(0, ImageTable(0, None, lambda key: u * u)),
        lambda: (u * u1).total_derivative(0, ImageTable(0, None, lambda key: u ** _E)),
        lambda: (w ** _E).total_derivative(0, lifted_table(0, {'w': w * w})),
        lambda: (w * w).total_derivative(0, lifted_table(0, {'w': w ** _E})),
        lambda: u ** _E * u,
        lambda: sum_of_products(EVEN, [(u1, u1), (u ** _E, u)]),
    ]
    for make in beyond:
        with pytest.raises(BudgetError):
            make()


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_raw_sums_are_the_sum_of_terms_before_its_canonical_pass(space):
    """raw_sum's (sums, den, top) hold what sum_of_terms makes canonical:
    its nonzero sums over den are the coefficients of the sum, each of the
    same type, with cancelled sums kept as 0 and the same exponent bound."""
    rng = random.Random(97)
    zeros = 0
    for _ in range(80):
        terms = [(rng.choice([1, -1, 2, 3]), rand_expr(rng, space, 3),
                  rng.choice([None, rand_expr(rng, space, 3)])) for _ in range(rng.randint(1, 4))]
        terms += [(-k, a, b) for k, a, b in terms[:rng.randint(0, 1)]]
        raw, got = raw_sum(space, terms), sum_of_terms(space, terms)
        assert raw_entries(raw) == entries(got) and raw[2] == got._top
        zeros += sum(not c for c in raw[0].values())
    assert zeros > 20


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_a_slot_sum_beyond_a_budget_raises(space, monkeypatch):
    """The raw sums that the determining rows read keep the budgets: with P
    and E lowered below a 3-by-3-term product u^3 * u^3, CDiffOp.columns
    raises BudgetError for the slot, as sum_of_terms does for the sum."""
    u, ux = space.jet("u", (0, 0)), space.jet("u", (1, 0))
    a, e = u ** 3 + ux + 1, u ** 3 + ux ** 2 + u
    op = CDiffOp.mult(space, a)
    assert raw_entries(op.columns(e)[0][0]) == entries(a * e)
    for name, value, match in [("_P", 8, "product of 3 by 3 terms"), ("_E", 5, "exponent 6")]:
        monkeypatch.setattr(algebra, name, value)
        for make in (lambda: op.columns(e), lambda: sum_of_terms(space, [(1, a, e)])):
            with pytest.raises(BudgetError, match=match):
                make()
        monkeypatch.undo()


def local_terms(rng, space, nterms=4):
    """Random terms without nonlocal factors, for the free derivatives."""
    return {tuple(f for f in rand_factors(rng, space) if f[0][0] != 'w'): rng.choice(COEFFS)
            for _ in range(nterms)}


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_partial_and_scalar_products_match_the_reference(space):
    rng = random.Random(97)
    for _ in range(60):
        terms = rand_terms(rng, space)
        e = from_factors(space, terms)
        for key in sorted(e.variables()):
            got = e.partial(key)
            assert decoded_terms(got) == ref_partial(space, decoded_terms(e), key)
            assert_canonical(got)
        for k in (0, 1, -2, 6, 15, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 5),
                  Fraction(10, 7), rng.choice(COEFFS)):
            want = {m: c * k for m, c in decoded_terms(e).items() if c * k}
            for got in (e * k, k * e):
                assert decoded_terms(got) == want
                assert_canonical(got)


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_substitute_matches_the_reference(space):
    """Even keys of positive exponent go to even images, odd keys to
    odd-linear ones."""
    rng = random.Random(101)
    for _ in range(40):
        e = rand_expr(rng, space)
        terms = decoded_terms(e)
        positive = {k for m in terms for k, _ in m} - {k for m in terms for k, x in m if x < 0}
        mapping = {key: rand_expr(rng, space, nterms=2, odd=int(space.is_odd_key(key)))
                   for key in sorted(positive) if rng.random() < 0.6}
        got = e.substitute(mapping)
        assert decoded_terms(got) == ref_substitute(
            space, terms, {k: decoded_terms(x) for k, x in mapping.items()})
        assert_canonical(got)


def test_inverse_monomials_match_the_reference():
    rng = random.Random(103)
    for _ in range(60):
        m = tuple((k, x) for k, x in rand_factors(rng, EVEN) if k[0] in ('j', 'w'))
        c = rng.choice(COEFFS)
        got = from_factors(EVEN, {m: c}).inverse_monomial()
        want = {tuple((k, -x) for k, x in m): 1 / Fraction(c)}
        assert decoded_terms(got) == want
        assert_canonical(got)


@pytest.mark.parametrize("space", [SPACE, EVEN], ids=["odd", "even"])
def test_euler_matches_the_reference(space):
    rng = random.Random(107)
    for _ in range(40):
        terms = local_terms(rng, space)
        grads = euler(from_factors(space, terms))
        assert len(grads) == space.m
        for j, got in enumerate(grads):
            assert decoded_terms(got) == ref_euler(space, decoded_terms(
                from_factors(space, terms)), j)
            assert_canonical(got)


def test_equal_values_built_by_different_routes_are_one_key():
    u = EVEN.jet("u", (0, 0))
    half, third = u * Fraction(1, 2), u * Fraction(1, 3)
    routes = [half + third, u * Fraction(5, 6), (u * 10) * Fraction(1, 12),
              (u * 5) * Fraction(1, 6), half * Fraction(1, 3) * 5,
              parse("5/6*u[0,0]", EVEN), Fraction(5, 6) * u, u - half + third]
    for route in routes:
        assert route == routes[0] and hash(route) == hash(routes[0])
        assert_canonical(route)
    assert len(set(routes)) == 1
    ints = [half + half, u, third * 3, u * Fraction(3, 3), (u * 2) * Fraction(1, 2)]
    assert len(set(ints)) == 1 and all(layout(x) == ([1], 1) for x in ints)
    zeros = [EVEN.zero(), half - half, third * 0, (half + third) - u * Fraction(5, 6)]
    assert len(set(zeros)) == 1 and all(layout(x) == ([], 1) for x in zeros)
    constants = [EVEN.num(Fraction(5, 6)), EVEN.one() * Fraction(5, 6), zeros[1] + Fraction(5, 6)]
    assert all(x == Fraction(5, 6) and hash(x) == hash(constants[0]) for x in constants)
    assert half != third and half != u and half * 2 == 1 * u and half * 2 == u


def test_incompatible_spaces_do_not_meet():
    """Variables renamed in either direction, or with another parity, and two
    extensions of one space that neither extends are an error in every ring
    operation; the renamed pairs are unequal under ==, and the crossed pair,
    u[1,0] named alike and even over both extensions, is equal.  A space meets
    an equal copy and its extended spaces in either order, on the extending
    space, whose parity gives the signs."""
    a = JetSpace.create(["x", "t"], ["u"])
    renamed = [JetSpace.create(["y", "s"], ["v"]), JetSpace.create(["x", "t"], ["v"]),
               JetSpace.create(["t", "x"], ["u"]), JetSpace.create(["x", "t"], ["u"], odd=["u"]),
               JetSpace.create(["x", "t"], ["u"], ["c"], ["w"]).extended(nonlocals=["z"]),
               a.extended(nonlocals=["w"])]
    ua = parse("u[1,0]", a)
    pairs = [(ua, parse("u[1,0]" if "u" in space.dependent else "v[1,0]", space))
             for space in renamed[:4]]
    pairs.append((parse("u[1,0]", a.extended(dependent=["v"])), parse("u[1,0]", renamed[5])))
    for pair in pairs:
        crossed = pair is pairs[-1]
        for x, y in (pair, pair[::-1]):
            for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                       lambda: sum_of_products(x.space, [(x, y)]),
                       lambda: sum_of_products(x.space, [(y, x)])):
                with pytest.raises(ShapeError):
                    op()
            assert (x == y) is crossed and (x != y) is not crossed
    # nonlocals w, z against w alone: a prefix; parameter c against none: a prefix
    w1 = renamed[4].nonlocal_var("w")
    w2 = renamed[5].nonlocal_var("w")
    assert w1 == w2 and w2 == w1 and len(w1 + w2) == 1
    swapped = JetSpace.create(["x", "t"], ["u"], [], ["z", "w"]).nonlocal_var("w")
    with pytest.raises(ShapeError):
        w1 * swapped
    ext = a.extended(dependent=["p"], nonlocals=["w"], odd=["p"])
    u_ext, u_copy = parse("u[1,0]", ext), parse("u[1,0]", JetSpace.create(["x", "t"], ["u"]))
    for x, y in ((ua, u_ext), (u_ext, ua), (ua, u_copy), (u_copy, ua)):
        assert x == y and len(x + y) == 1 and len(x * y) == 1
        assert len(sum_of_products(x.space, [(x, y), (y, x)])) == 1
    p, px, v = ext.jet("p", (0, 0)), ext.jet("p", (1, 0)), parse("v[0,0]", a.extended(["v"]))
    assert (ua * px) * px == 0 and (ua * px) * p == (px * ua) * p == -(ua * p * px) != 0
    assert repr(ua * v + ua) == "DiffExpr(u[1,0] + u[1,0]*v[0,0])"
    for x, y in ((ua, v), (v, ua)):
        both = sum_of_products(a, [(x, y), (ua, ua)])
        assert (x + y).space == (x * y).space == both.space == v.space
        assert both == ua * v + ua * ua
    op = CDiffOp.scalar(a, {(1, 0): ua, (0, 0): a.one()})
    renamed_op = CDiffOp(ext, 1, 1, ((r, c, I, x.rename_space(ext)) for r, c, I, x in op.terms()))
    for vec in ([p * px + ua], [px]):
        got, = op.apply(vec)
        assert got.space == ext and got == renamed_op.apply(vec)[0]


def test_equality_is_transitive_across_crossed_extensions():
    """u, and u read back over two extensions of its space that neither
    extends, are one value: a set of the three has one member in every
    insertion order, and u over a renamed, swapped or odd space stays apart."""
    a = JetSpace.create(["x", "t"], ["u"])
    u = a.jet("u", (1, 0))
    v = a.extended(dependent=["v"]).jet("v", (0, 0))
    w = a.extended(nonlocals=["w"]).nonlocal_var("w")
    three = [u, (u + v) - v, (u + w) - w]
    for order in itertools.permutations(three):
        assert len(set(order)) == 1
        assert all(x == y for x in order for y in order)
    for other in (JetSpace.create(["x", "t"], ["v"]), JetSpace.create(["t", "x"], ["u"]),
                  JetSpace.create(["x", "t"], ["u"], odd=["u"])):
        apart = parse("u[1,0]" if "u" in other.dependent else "v[1,0]", other)  # u's key
        assert all(x != apart and apart != x for x in three)


def test_odd_signs_see_through_a_borrow_from_a_lower_slot():
    """An even Laurent jet in a lower slot than an odd factor borrows from
    the odd factor's field: stored as an int, u^-1*v has a 0 where v's
    exponent was.  Products, total derivatives and partials still give the
    reference's signs.  The jets are fresh, so they get slots in the order
    they are built here."""
    u, v, w = (SPACE.jet(j, K) for j, K in ((0, (41, 7)), (1, (41, 7)), (1, (40, 7))))
    keys = [next(iter(x.variables())) for x in (u, v, w)]
    assert _KEYS.index(keys[0]) < _KEYS.index(keys[1]) < _KEYS.index(keys[2])
    a, b = u ** -1 * v, 3 * u ** -2 * v - 2 * w * u ** -1 + u
    assert decoded_terms(a * w) == {((keys[0], -1), (keys[2], 1), (keys[1], 1)): -1}
    for x, y in ((a, w), (w, a), (a, b), (b, a), (b, w * v)):
        assert decoded_terms(x * y) == ref_mul(SPACE, decoded_terms(x), decoded_terms(y))
    for e in (a, b, a * w, b * a, a + b * w):
        for i in range(2):
            assert decoded_terms(e.total_derivative(i)) == ref_total_derivative(
                SPACE, decoded_terms(e), free_image(i))
        for key in sorted(e.variables()):
            assert decoded_terms(e.partial(key)) == ref_partial(SPACE, decoded_terms(e), key)


def test_partials_are_split_once_and_finished_per_key():
    """Every partial comes from one cached split of the terms: a key the
    expression lacks gives zero, a repeated call an equal result, and an
    exponent beyond the budget fails only the partial that has it."""
    rng = random.Random(109)
    for _ in range(20):
        e = rand_expr(rng, SPACE)
        copy = from_factors(SPACE, decoded_terms(e))
        for key in sorted(e.variables()) + [('j', 0, (9, 9)), ('w', 'absent')]:
            first = e.partial(key)
            assert first == e.partial(key) == copy.partial(key)
            assert_canonical(first)
            if key not in e.variables():
                assert first.is_zero()
    u, v = EVEN.jet("u", (0, 0)), EVEN.jet("u", (1, 0))
    for keys in ([('j', 0, (0, 0)), ('j', 0, (1, 0))], [('j', 0, (1, 0)), ('j', 0, (0, 0))]):
        e = u ** -_E * v  # a fresh split for each order of the calls
        for key in keys * 2:
            if key[2] == (0, 0):
                with pytest.raises(BudgetError):
                    e.partial(key)
            else:
                assert e.partial(key) == u ** -_E
