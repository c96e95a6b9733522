import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetcalc import (
    DiffExpr,
    HorizontalForm,
    JetSpace,
    NonlocalObstruction,
    VariationalityError,
    canonical_density,
    d_h,
    euler,
    homotopy_density,
    invert_total_derivative,
    parse,
    render,
)
from jetcalc.algebra import (
    _E,
    _P,
    _S,
    _W,
    _integrate_var,
    _power_work,
    ImageTable,
    apply_DI,
    euler_is_zero,
    mi_iter,
    mi_order,
    tower_DI,
)
from jetcalc.errors import BudgetError, ExprSyntaxError
from jetcalc.hamiltonian import momenta_space
from jetcalc.linalg import nullspace
from monomials import decoded_terms, from_factors, key_expr
from spans import rref

ROOT = Path(__file__).resolve().parents[1]
SP = JetSpace.create(["x", "t"], ["u"])
SP1 = JetSpace.create(["x"], ["u"])


def rand_expr(space, rng, maxord=2, maxdeg=3, nterms=3, with_xt=True):
    e = space.zero()
    for _ in range(nterms):
        m = space.num(rng.randint(-4, 4))
        for _ in range(rng.randint(0, maxdeg)):
            choice = rng.randint(0, maxord + (2 if with_xt else 0))
            if choice <= maxord:
                m = m * space.jet(0, tuple(
                    (choice, 0) if space.n == 2 else (choice,)))
            else:
                m = m * space.indep(choice - maxord - 1)
        e = e + m
    return e


def test_parse_examples():
    e = parse("u[1,0]^2 + u[0,0]*u[2,0]", SP)
    u = SP.jet("u", (0, 0))
    ux = SP.jet("u", (1, 0))
    assert e == (u * ux).total_derivative(0)
    assert parse("3/2 * t * u[1,0]", SP) == SP.indep("t") * ux * Fraction(3, 2)
    spz = JetSpace.create(["x", "t"], ["z"])
    zm3 = parse("z[0,0]^-3", spz)
    assert zm3 * spz.jet("z", (0, 0)) ** 3 == spz.one()


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse("u[1,0] +", SP)
    with pytest.raises(ExprSyntaxError):
        parse("q[0,0]", SP)
    with pytest.raises(ExprSyntaxError):
        parse("u[1]", SP)  # wrong multi-index length
    spo = JetSpace.create(["x"], ["u", "p"], odd=["p"])
    with pytest.raises(ExprSyntaxError):
        parse("p[0]^-1", spo)


@pytest.mark.parametrize("text, message", [
    ("u[0,0] +  #", "unexpected character '#' (at position 10)"),
    ("u[0,0] + #", "unexpected character '#' (at position 9)"),
    ("u[0,0] +#", "unexpected character '#' (at position 8)"),
    ("", "unexpected end of input (at position 0)"),
    ("u[0,0] +", "unexpected end of input (at position 8)"),
    ("u[0,0] +  ", "unexpected end of input (at position 10)"),
    ("(u[0,0] *", "unexpected end of input (at position 9)"),
    ("(u[0,0]", "expected ')', found end of input (at position 7)"),
])
def test_parse_errors_name_what_is_there(text, message):
    """A character no token starts with is named at its own position, past
    any blanks before it; a missing operand or bracket is the input's end."""
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, SP)
    assert str(err.value) == message


def test_render_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        e = rand_expr(SP, rng)
        text = render(e)
        assert render(parse(text, SP)) == text


def _mi_iter_recursive(n, order):
    """The multi-indices of one exact order by their first entry, largest first."""
    if n == 1:
        yield (order,)
        return
    for first in range(order, -1, -1):
        for rest in _mi_iter_recursive(n - 1, order - first):
            yield (first,) + rest


def test_mi_iter_is_the_recursive_enumeration():
    for n in range(1, 6):
        for order in range(10):
            assert list(mi_iter(n, order)) == list(_mi_iter_recursive(n, order)), (n, order)


def test_total_derivative_basics():
    u = SP.jet("u", (0, 0))
    assert SP.indep("x").total_derivative(0) == SP.one()
    assert SP.indep("x").total_derivative(1).is_zero()
    inv = parse("u[0,0]^-1", SP)
    assert inv.total_derivative(0) == -(u ** -2) * SP.jet("u", (1, 0))


def test_derivation_laws():
    rng = random.Random(5)
    for _ in range(30):
        e = rand_expr(SP, rng)
        f = rand_expr(SP, rng)
        for i in range(2):
            lhs = (e * f).total_derivative(i)
            rhs = e.total_derivative(i) * f + e * f.total_derivative(i)
            assert (lhs - rhs).is_zero()
        # commuting total derivatives
        a = e.total_derivative(0).total_derivative(1)
        b = e.total_derivative(1).total_derivative(0)
        assert (a - b).is_zero()
    # graded Laurent space with nonlocal variables whose D_i-images are given
    sp = JetSpace.create(["x", "t"], ["u", "p"], parameters=["a"],
                         nonlocals=["w", "z"], odd=["p", "z"])
    factors = [parse(s, sp) for s in (
        "u[0,0]", "u[1,0]", "u[0,1]", "u[2,1]", "u[0,0]^-1", "u[1,0]^-2",
        "p[0,0]", "p[1,0]", "p[0,1]", "x", "t", "a", "w", "w^-1", "z")]
    wmaps = [{"w": parse("u[0,0]*u[1,0] + x", sp), "z": parse("u[2,0]*p[0,0]", sp)},
             {"w": parse("u[0,0]^-1*p[0,0]*p[1,0]", sp),
              "z": parse("p[1,0] + w*z", sp)}]

    def rand_graded():
        e = sp.zero()
        for _ in range(4):
            m = sp.num(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4)):
                m = m * rng.choice(factors)
            e = e + m
        return e

    def image(key, i):
        """D_i of one variable, from its definition."""
        if key[0] == 'i':
            return sp.one() if key[1] == i else sp.zero()
        if key[0] == 'j':
            K = list(key[2])
            K[i] += 1
            return sp.jet(key[1], K)
        if key[0] == 'w':
            return wmaps[i][key[1]]
        return sp.zero()

    for _ in range(40):
        e, f = rand_graded(), rand_graded()
        for i in range(2):
            table = ImageTable(i, wmaps[i], None)
            D = lambda g: g.total_derivative(i, table)
            assert D(e * f) == D(e) * f + e * D(f)  # D_i is an even derivation
            chain = sp.zero()
            for v in e.variables():
                chain = chain + image(v, i) * e.partial(v)
            assert D(e) == chain


def test_odd_sign_consistency():
    sp = JetSpace.create(["x"], ["u", "p", "q"], odd=["p", "q"])
    p = sp.jet("p", (0,))
    p1 = sp.jet("p", (1,))
    q = sp.jet("q", (0,))
    assert (p * p).is_zero()
    assert p * q == -(q * p)
    assert p1 * p * q == -(p * p1 * q)
    assert ((p * q) * p1) == (p * (q * p1))


def test_normal_form_idempotence():
    # rebuilding a normal form from its decoded factors changes nothing
    rng = random.Random(3)
    for _ in range(30):
        e = rand_expr(SP, rng)
        again = from_factors(SP, decoded_terms(e)) + SP.zero()
        assert again == e
        assert list(again.coefficients()) == list(e.coefficients())


def test_euler_examples():
    u = SP.jet("u", (0, 0))
    assert euler(u * u * Fraction(1, 2))[0] == u
    L = parse("u[0,0]^3 - 1/2*u[1,0]^2", SP)
    assert euler(L)[0] == parse("3*u[0,0]^2 + u[2,0]", SP)


def test_euler_kills_divergences():
    rng = random.Random(7)
    for _ in range(50):
        f = rand_expr(SP, rng)
        for i in range(2):
            assert euler_is_zero(f.total_derivative(i))


def test_dh_complex():
    u = SP.jet("u", (0, 0))
    f0 = HorizontalForm(SP, 0, {(): u})
    df = d_h(f0)
    assert df.comps[(0,)] == SP.jet("u", (1, 0))
    assert df.comps[(1,)] == SP.jet("u", (0, 1))
    # KdV current is closed only after restriction
    w = HorizontalForm(SP, 1, {(0,): u, (1,): parse("u[2,0] + 3*u[0,0]^2", SP)})
    dw = d_h(w)
    assert not dw.is_zero()
    rng = random.Random(9)
    for _ in range(30):
        form = HorizontalForm(SP, 0, {(): rand_expr(SP, rng)})
        assert d_h(d_h(form)).is_zero()


def test_homotopy_density():
    psi = parse("3*u[0,0]^2 + u[2,0]", SP)
    L = homotopy_density([psi])
    assert euler(L)[0] == psi
    assert canonical_density(L) == parse("u[0,0]^3 - 1/2*u[1,0]^2", SP)
    assert homotopy_density([SP.jet("u", (0, 0))]) == \
        parse("1/2*u[0,0]^2", SP)
    with pytest.raises(VariationalityError):
        homotopy_density([SP.jet("u", (1, 0))])  # l - l* = 2 D_x != 0


def test_homotopy_sections_random():
    rng = random.Random(13)
    count = 0
    while count < 30:
        L = rand_expr(SP, rng)
        psi = euler(L)[0]
        try:
            back = homotopy_density([psi])
        except NonlocalObstruction:
            continue
        assert euler(back)[0] == psi
        count += 1


def test_invert_divergence():
    u = SP1.jet("u", (0,))
    ux = SP1.jet("u", (1,))
    assert invert_total_derivative(u * ux, 0) == u * u * Fraction(1, 2)
    with pytest.raises(NonlocalObstruction):
        invert_total_derivative(u, 0)
    form = HorizontalForm(SP1, 0, {(): invert_total_derivative(u * ux, 0)})
    assert form.comps[()] == u * u * Fraction(1, 2)
    # this summand occurs in R(phi_4); its primitive is genuinely nonlocal
    bad = parse("u[1,0]*(6*t*u[1,0] + 1)", SP)
    with pytest.raises(NonlocalObstruction):
        invert_total_derivative(bad, 0)
    # no jet at all: each monomial gains one power of x
    assert invert_total_derivative(parse("3*x^2*t + 1/2", SP), 0) == parse("x^3*t + 1/2*x", SP)


def test_invert_divergence_at_an_odd_top_jet():
    """At an odd top jet z = D_x(y), with g = z*c + ..., one integration by
    parts takes B = y*c; c*y would be -y*c for an odd c, and the order
    would not drop."""
    sp = JetSpace.create(["x"], ["u", "p", "q"], odd=["p", "q"])
    for text in ("p[0]*q[0]", "p[1]*q[0]", "u[0]*p[0]*q[1]", "p[0]*p[1]", "q[2]*p[0]",
                 "p[0]*p[1]*u[0]", "p[1]*p[2]", "u[0]*p[0]", "p[0]*q[0]*u[1]"):
        g = parse(text, sp).total_derivative(0)
        assert invert_total_derivative(g, 0).total_derivative(0) == g


def test_invert_divergence_sections_random():
    rng = random.Random(17)
    for _ in range(30):
        f = rand_expr(SP, rng)
        g = f.total_derivative(0)
        theta = invert_total_derivative(g, 0)
        assert (theta.total_derivative(0) - g).is_zero()


def test_invert_divergence_n2():
    g = parse("u[1,0]*u[0,1] + u[0,0]*u[1,1]", SP)  # = D_x(u u_t)
    form = HorizontalForm(SP, 1, {(0,): SP.zero(), (1,): invert_total_derivative(g, 0)})
    back = d_h(form)
    assert back.comps[(0, 1)] == g


def test_laurent_total_derivative_chain():
    spz = JetSpace.create(["x", "y"], ["z"])
    e = parse("z[0,0]^-2*z[1,0]", spz)
    d = e.total_derivative(0)
    expect = parse("-2*z[0,0]^-3*z[1,0]^2 + z[0,0]^-2*z[2,0]", spz)
    assert d == expect


# -- the free-derivative memo ----------------------------------------------------


def test_free_derivative_memo_matches_a_fresh_copy():
    """A repeated free D_i, and D_K through the memos of the intermediate
    results, gives the terms a freshly built copy of the expression gives."""
    rng = random.Random(59)
    sp2 = JetSpace.create(["x", "t"], ["u", "v"])
    cases = [(SP1, [0], ()), (sp2, [0, 1], ()), (momenta_space(sp2), [0, 1], [2, 3])]
    for space, fams, odd in cases:
        for _ in range(20):
            e = rand_density(space, rng, fams, maxord=3, odd_fams=odd)
            for _ in range(4):
                i = rng.randrange(space.n)
                K = rand_index(rng, space.n, 3)
                first = e.total_derivative(i)
                assert e.total_derivative(i) is first
                fresh = e.rename_space(space)
                assert list(first.coefficients()) == \
                    list(fresh.total_derivative(i).coefficients())
                assert list(apply_DI(e, K).coefficients()) == \
                    list(apply_DI(e.rename_space(space), K).coefficients())


def test_rename_space_starts_an_empty_memo():
    e = parse("u[0]^2*u[1] + x*u[2]", SP1)
    before = e.total_derivative(0)
    ext = momenta_space(SP1)
    after = e.rename_space(ext).total_derivative(0)
    assert after.space is ext and before.space is SP1
    assert dict(after.coefficients()) == dict(before.coefficients())


# -- the Euler sweep and canonical coefficients --------------------------------


def euler_per_index(density, targets=None, d=None):
    """The variational derivative by its definition: sum_K (-D)_K dL/du_K,
    with |K| derivatives for every K (the reference for euler's sweep)."""
    space = density.space
    out = []
    for j in (range(space.m) if targets is None else targets):
        total = space.zero()
        for K in sorted({k[2] for k in density.variables() if k[0] == 'j' and k[1] == j}):
            part = apply_DI(density.partial(('j', j, K)), K, d)
            total = total + part if mi_order(K) % 2 == 0 else total - part
        out.append(total)
    return out


def rand_index(rng, n, maxord):
    K = [0] * n
    for _ in range(rng.randint(0, maxord)):
        K[rng.randrange(n)] += 1
    return tuple(K)


def rand_density(space, rng, fams, maxord=2, maxdeg=3, nterms=4, odd_fams=()):
    """Random density in jets of `fams` (any multi-index up to maxord) and
    the independents, with half-integer coefficients; with `odd_fams`, every
    term also carries two odd jets, as a superdensity does."""
    e = space.zero()
    for _ in range(nterms):
        m = space.num(Fraction(rng.randint(-6, 6), 2))
        for _ in range(rng.randint(0, maxdeg)):
            if rng.random() < 0.2:
                m = m * space.indep(rng.randrange(space.n))
            else:
                m = m * space.jet(rng.choice(fams), rand_index(rng, space.n, maxord))
        for _ in range(2 if odd_fams else 0):
            m = m * space.jet(rng.choice(odd_fams), rand_index(rng, space.n, maxord))
        e = e + m
    return e


def test_euler_sweep_matches_definition():
    rng = random.Random(23)
    sp2 = JetSpace.create(["x", "t"], ["u", "v"])
    for space, fams in ((SP1, [0]), (sp2, [0, 1])):
        for _ in range(40):
            L = rand_density(space, rng, fams, maxord=3)
            assert euler(L) == euler_per_index(L)
            assert euler(L, fams[-1:]) == euler_per_index(L, fams[-1:])


def test_euler_sweep_odd_targets():
    rng = random.Random(29)
    for base in (SP1, JetSpace.create(["x", "t"], ["u", "v"])):
        ext = momenta_space(base)
        m = base.m
        evens, odds = list(range(m)), list(range(m, 2 * m))
        for _ in range(30):
            W = rand_density(ext, rng, evens, maxord=3, odd_fams=odds)
            assert euler(W) == euler_per_index(W)
            assert euler(W, odds) == euler_per_index(W, odds)


@pytest.mark.parametrize("name", ["kdv", "camassa_holm"])
def test_euler_sweep_on_equation(name, request):
    pres = request.getfixturevalue(name)
    rng = random.Random(31)
    for _ in range(6):
        L = pres.normal_form(rand_density(pres.space, rng, [0], maxord=2, maxdeg=2))
        assert euler(L, None, pres.d_bar) == euler_per_index(L, None, pres.d_bar)


def test_euler_sweep_one_derivative_per_node():
    calls = []

    def d(e, i):
        calls.append(i)
        return e.total_derivative(i)

    L = parse("u[2,1]^2 + u[1,1]*u[0,0]", SP)
    assert euler(L, None, d) == euler_per_index(L)
    # nodes (2,1) -> (1,1) -> (0,1) -> (0,0), each in apply_DI's order;
    # the definition takes 3 + 2 derivatives
    assert calls == [0, 0, 1]


def _canonical(e):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for _, c in e.coefficients())


def test_coefficients_stay_canonical(kdv):
    half = SP.num(Fraction(1, 2)) * SP.jet("u", (1, 0))
    assert decoded_terms(half + half) == {((('j', 0, (1, 0)), 1),): 1}
    assert type(decoded_terms(SP.num(Fraction(6, 3)))[()]) is int
    assert type(decoded_terms(parse("4/2*u[0,0]", SP))[((('j', 0, (0, 0)), 1),)]) is int
    assert type(decoded_terms(half * 4)[((('j', 0, (1, 0)), 1),)]) is int
    assert type(decoded_terms((SP.jet("u", (1, 0)) * Fraction(-1, 2)).inverse_monomial())
                [((('j', 0, (1, 0)), -1),)]) is int
    # the homotopy and integration helpers divide by exponents
    density = homotopy_density([parse("3*u[0,0]^2 + u[2,0]", SP)])
    assert density == parse("u[0,0]^3 + 1/2*u[0,0]*u[2,0]", SP)
    primitive = invert_total_derivative(parse("2*u[0,0]*u[1,0] + 2*x", SP), 0)
    assert primitive == parse("u[0,0]^2 + x^2", SP)
    assert _canonical(density) and _canonical(primitive)
    assert _canonical(_integrate_var(parse("2*u[0,0]*u[1,0]", SP), ('j', 0, (0, 0))))
    rng = random.Random(37)
    u, ux = ('j', 0, (0, 0)), ('j', 0, (1, 0))
    for _ in range(40):
        e = rand_density(SP, rng, [0])
        f = rand_density(SP, rng, [0])
        results = [e + f, e - f, e * f, e * f * f, e * 2, e * Fraction(2),
                   e * Fraction(4, 3), e.substitute({u: f, ux: half}),
                   kdv.normal_form(e * f)]
        results += [e.partial(k) for k in e.variables()]
        results += [e.total_derivative(i) for i in range(2)]
        results += euler(e * f)
        for r in results:
            assert _canonical(r), r
        for term in e.summands():
            if all(k[0] == 'j' for k in term.variables()):
                assert _canonical(term.inverse_monomial())


def substitute_by_factors(e, mapping):
    """Substitution one factor at a time: each monomial is rebuilt left to
    right by DiffExpr products (the reference for substitute's one product
    per monomial)."""
    space = e.space
    out = space.zero()
    for factors, c in decoded_terms(e).items():
        term = space.num(c)
        for key, x in factors:
            if key in mapping:
                rep = mapping[key]
                if x < 0:
                    term = term * rep.inverse_monomial() ** (-x)
                else:
                    term = term * rep ** x if not space.is_odd_key(key) else term * rep
            else:
                term = term * key_expr(space, key) ** x
        out = out + term
    return out


def _check_substitute(e, mapping):
    got = e.substitute(mapping)
    assert dict(got.coefficients()) == dict(substitute_by_factors(e, mapping).coefficients())
    assert _canonical(got), got


def test_substitute_matches_factor_by_factor_even():
    rng = random.Random(41)
    sp2 = JetSpace.create(["x", "t"], ["u", "v"])
    for space, fams in ((SP1, [0]), (sp2, [0, 1])):
        absent = ('j', fams[-1], (4,) + (0,) * (space.n - 1))  # above maxord
        for _ in range(30):
            e = rand_density(space, rng, fams, maxord=3)
            keys = sorted(e.variables())
            even = {k: rand_density(space, rng, fams, maxdeg=2, nterms=2)
                    for k in keys if rng.random() < 0.5}
            _check_substitute(e, even)
            _check_substitute(e, {k: space.zero() for k in keys[:2]})
            _check_substitute(e, {**even, absent: rand_density(space, rng, fams)})


def _rand_super(space, rng, odd_atoms, nterms=4):
    """Random element of (x; u, p, q; w, r, s): even densities in u and the
    even nonlocal w, times up to three odd atoms per term."""
    e = space.zero()
    for _ in range(nterms):
        m = rand_density(space, rng, [0], nterms=1)
        if rng.random() < 0.3:
            m = m * space.nonlocal_var("w")
        for _ in range(rng.randint(0, 3)):
            m = m * rng.choice(odd_atoms)
        e = e + m
    return e


def test_substitute_matches_factor_by_factor_odd():
    rng = random.Random(43)
    space = JetSpace.create(["x"], ["u", "p", "q"], nonlocals=["w", "r", "s"],
                            odd=["p", "q", "r", "s"])
    odd_atoms = [space.jet(j, (k,)) for j in ("p", "q") for k in range(3)] + \
        [space.nonlocal_var("r"), space.nonlocal_var("s")]

    def odd_linear():
        return sum((rand_density(space, rng, [0], nterms=1) * rng.choice(odd_atoms)
                    for _ in range(2)), space.zero())

    def even():
        e = rand_density(space, rng, [0], maxdeg=2, nterms=2)
        return e + e * rng.choice(odd_atoms) * rng.choice(odd_atoms)

    for _ in range(40):
        e = _rand_super(space, rng, odd_atoms)
        keys = sorted(e.variables())
        mapping = {k: odd_linear() if space.is_odd_key(k) else even()
                   for k in keys if rng.random() < 0.5}
        _check_substitute(e, mapping)
        odd_keys = [k for k in keys if space.is_odd_key(k)]
        _check_substitute(e, {k: space.zero() for k in odd_keys[:2]})
        # keys above maxord, absent from e
        _check_substitute(e, {**mapping, ('j', 1, (5,)): odd_linear(),
                              ('j', 0, (5,)): even()})


def test_substitute_matches_factor_by_factor_laurent():
    rng = random.Random(47)
    space = JetSpace.create(["x", "t"], ["u", "v"], nonlocals=["w"])
    atoms = [space.jet(j, K) for j in (0, 1) for K in ((0, 0), (1, 0), (0, 1))] + \
        [space.nonlocal_var("w")]
    for _ in range(40):
        e = rand_density(space, rng, [0, 1])
        e = e * rng.choice(atoms) ** -rng.randint(1, 3) + \
            rand_density(space, rng, [0, 1]) * rng.choice(atoms) ** -1
        negative = e.negative_keys()
        mapping = {}
        for k in sorted(e.variables()):
            if k in negative:  # a Laurent factor maps to a monomial
                coeff = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2]))
                mapping[k] = rng.choice(atoms) * rng.choice(atoms) * coeff
            elif rng.random() < 0.5:
                mapping[k] = rand_density(space, rng, [0, 1], maxdeg=2, nterms=2)
        _check_substitute(e, mapping)


def test_by_least_regroups_each_term_under_its_least_selected_key():
    """by_least(keep) splits an expression exactly: rest + sum of key *
    quotient is the expression, rest holds no selected key, each quotient
    holds none below its own key, and every part is canonical.  The
    expressions have Fraction coefficients, a parameter, a second family
    and a negative exponent; keep selects the jets of the first family."""
    space = JetSpace.create(["x", "t"], ["u", "v"], ["q"])
    rng = random.Random(44)
    q, v_x, u = space.param("q"), space.jet("v", (1, 0)), space.jet("u", (0, 0))

    def keep(key):
        return key[0] == 'j' and key[1] == 0

    for _ in range(25):
        e = (Fraction(2, 3) * rand_expr(space, rng) + q * v_x * rand_expr(space, rng)
             + Fraction(-1, 5) * u.inverse_monomial() * rand_expr(space, rng))
        rest, parts = e.by_least(keep)
        assert rest + sum((space.jet(k[1], k[2]) * x for k, x in parts.items()),
                          space.zero()) == e
        assert not any(keep(k) for k in rest.variables())
        for key, quotient in parts.items():
            assert keep(key) and quotient
            assert all(k >= key for k in quotient.variables() if keep(k))
        assert all(x * 1 == x for x in (rest, *parts.values()))


def test_product_ignores_an_unused_odd_family():
    rng = random.Random(53)
    odd_sp = JetSpace.create(["x", "t"], ["u", "p"], odd=["p"])
    for _ in range(40):
        e, f = (rand_density(SP, rng, [0], maxord=3) for _ in range(2))
        f = f * SP.jet("u", rand_index(rng, 2, 2)) ** -1
        assert dict((e * f).coefficients()) == \
            dict((e.rename_space(odd_sp) * f.rename_space(odd_sp)).coefficients())


def test_linalg_is_exact_on_int_entries():
    basis = nullspace([{0: 2, 1: 3}, {1: 3, 2: 1}], 3)
    assert basis == [[Fraction(1), Fraction(-2, 3), Fraction(2)]]
    assert all(type(v) is Fraction for vec in basis for v in vec)
    rows = rref([[3, 1, 2], [6, 4, 1]])
    assert rows == [[1, 0, Fraction(7, 6)], [0, 1, Fraction(-3, 2)]]
    assert all(type(v) is Fraction for row in rows for v in row)


def nullspace_reference(rows, ncols):
    """Gaussian elimination over Fractions in assembly order, lowest column
    first, then back-substitution: the reference for `nullspace`."""
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
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for lead, row in pivots.items():
            vec[lead] = -row.get(f, Fraction(0))
        basis.append(vec)
    return rref(basis)


def rand_entry(rng):
    """A nonzero int, integral Fraction or proper Fraction."""
    kind = rng.randrange(3)
    value = rng.choice([-1, 1]) * rng.randint(1, 9)
    if kind == 0:
        return value
    return Fraction(value) if kind == 1 else Fraction(value, rng.randint(2, 12))


def rand_sparse_rows(rng, ncols):
    """Sparse rows over a random subset of the columns (the others untouched),
    with empty rows, duplicate rows and combinations of earlier rows."""
    touched = rng.sample(range(ncols), rng.randint(1, ncols))
    rows = []
    for _ in range(rng.randint(1, 2 * ncols)):
        choice = rng.random()
        if choice < 0.1:
            rows.append({})
        elif choice < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif choice < 0.4 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            x, y = rand_entry(rng), rand_entry(rng)
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in row.items() if v})
        else:
            rows.append({rng.choice(touched): rand_entry(rng)
                         for _ in range(rng.randint(1, 4))})
    return rows


def rand_cascade_rows(rng, ncols):
    """Rows that singleton peeling clears one column at a time: a singleton,
    then rows that each add one column to columns already forced to 0,
    shuffled among sparse rows over the columns the cascade leaves."""
    order = rng.sample(range(ncols), ncols)
    length = rng.randint(1, ncols)
    rows = [{order[0]: rand_entry(rng)}]
    for k in range(1, length):
        earlier = rng.sample(order[:k], rng.randint(1, min(k, 3)))
        rows.append({c: rand_entry(rng) for c in earlier + [order[k]]})
    rest = order[length:]
    for _ in range(rng.randint(0, len(rest))):
        rows.append({rng.choice(rest): rand_entry(rng)
                     for _ in range(rng.randint(2, 4))})
    rng.shuffle(rows)
    return rows


def test_nullspace_matches_fraction_elimination():
    rng = random.Random(53)
    cases = [([], 4), ([{}, {}], 3), ([], 0), ([{0: Fraction(2)}, {0: 4}], 2)]
    cases += [(rand_sparse_rows(rng, n), n)
              for n in [rng.randint(1, 12) for _ in range(400)]]
    # peeling: a cascade, a matrix it empties, columns in no row, and
    # Fraction singletons
    peeled = [([{0: 1}, {0: 2, 1: 3}, {1: 1, 2: 5}, {2: -1, 3: 1, 4: 1}], 6),
              ([{0: 3}, {0: 1, 1: 2}, {1: Fraction(1, 2), 2: -1}], 3),
              ([{2: Fraction(2, 3)}, {2: 1, 5: Fraction(-1, 7), 6: 1}], 9),
              ([{1: Fraction(-5, 4)}, {1: Fraction(1, 3)}, {0: 1, 2: Fraction(3, 2)}], 3)]
    assert [len(nullspace(rows, ncols)) for rows, ncols in peeled] == [2, 0, 7, 1]
    cases += peeled
    # a zero entry is no entry: `{0: 0}` is not a singleton row
    cases += [([{0: 0}], 2), ([{0: 0, 1: 1}], 2),
              ([{0: Fraction(0), 1: 1, 2: 1}, {1: 0, 3: 2}], 4)]
    cases += [(rand_cascade_rows(rng, n), n)
              for n in [rng.randint(1, 12) for _ in range(200)]]
    nullities = set()
    for rows, ncols in cases:
        before = [dict(r) for r in rows]
        basis = nullspace(rows, ncols)
        assert rows == before  # the caller's rows are not mutated
        nonzero = [{c: v for c, v in r.items() if v} for r in rows]
        assert basis == nullspace_reference(nonzero, ncols), (rows, ncols)
        assert all(type(v) is Fraction for vec in basis for v in vec)
        for vec in basis:
            assert len(vec) == ncols
            assert all(sum(v * vec[c] for c, v in row.items()) == 0 for row in rows)
        nullities.add(len(basis))
    assert len(nullities) > 5  # the cases span many ranks


def test_nullspace_matches_sympy():
    """A third opinion on the first 60 random systems and the 4 peeled ones of
    test_nullspace_matches_fraction_elimination (the same seed and draws):
    sympy's Matrix.nullspace on the columns reversed, mapped back.  Its
    lowest-column pivots are then highest-column ones, so its vectors are
    `nullspace`'s, up to their order."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)
    cases = [(rand_sparse_rows(rng, n), n) for n in [rng.randint(1, 12) for _ in range(400)][:60]]
    cases += [([{0: 1}, {0: 2, 1: 3}, {1: 1, 2: 5}, {2: -1, 3: 1, 4: 1}], 6),
              ([{0: 3}, {0: 1, 1: 2}, {1: Fraction(1, 2), 2: -1}], 3),
              ([{2: Fraction(2, 3)}, {2: 1, 5: Fraction(-1, 7), 6: 1}], 9),
              ([{1: Fraction(-5, 4)}, {1: Fraction(1, 3)}, {0: 1, 2: Fraction(3, 2)}], 3)]
    for rows, ncols in cases:
        mat = sympy.zeros(max(len(rows), 1), ncols)
        for i, row in enumerate(rows):
            for c, v in row.items():
                mat[i, ncols - 1 - c] = sympy.Rational(v.numerator, v.denominator)
        theirs = [[Fraction(int(x.p), int(x.q)) for x in reversed(list(vec))]
                  for vec in mat.nullspace()]
        assert sorted(nullspace(rows, ncols)) == sorted(theirs), (rows, ncols)


def test_peeling_leaves_few_rows_to_eliminate(monkeypatch):
    """On KdV's (7,4) symmetry system (3,173 rows, 999 of them singletons)
    at most 45 nonempty rows reach the elimination.  The presentation's
    scaling weights, a 2-row system of their own, are found first."""
    from jetcalc import Ansatz, make_presentation, solve_symmetries
    from jetcalc import analysis

    eliminate, rows_in = analysis.eliminate, []

    def counted(rows, forced, ncols):
        rows_in.extend(row for row in rows if row)
        return eliminate(rows, forced, ncols)

    pres = make_presentation(SP, [parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", SP)],
                             [("u", (0, 1))])
    assert pres.scaling['F', 0]
    monkeypatch.setattr(analysis, "eliminate", counted)
    assert len(solve_symmetries(pres, Ansatz(7, 4))) == 6
    assert 0 < len(rows_in) <= 45


# -- independent oracle: sympy's Euler-Lagrange operator --------------------


def _to_sympy(e, sympy, funcs, xs):
    out = sympy.Integer(0)
    for factors, c in decoded_terms(e).items():
        term = sympy.Rational(c.numerator, c.denominator)
        for key, p in factors:
            if key[0] == 'i':
                base = xs[key[1]]
            else:
                f = funcs[key[1]]
                steps = [x for x, k in zip(xs, key[2]) for _ in range(k)]
                base = f.diff(*steps) if steps else f
            term = term * base ** p
        out = out + term
    return out


@pytest.mark.parametrize("space", [SP, JetSpace.create(["x", "t"], ["u", "v"])],
                         ids=["x,t;u", "x,t;u,v"])
def test_total_derivative_matches_sympy(space):
    """D_i is d/dx_i of the expression as a function of (x, t)."""
    sympy = pytest.importorskip("sympy")

    xs = sympy.symbols(space.independent)
    funcs = [sympy.Function(name)(*xs) for name in space.dependent]
    rng = random.Random(43)
    fams = list(range(space.m))
    laurent = space.jet(0, (0, 0)).inverse_monomial() * space.jet(fams[-1], (1, 0))
    for _ in range(10):
        e = rand_density(space, rng, fams, maxord=3, nterms=4)
        for f in (e, e * laurent):
            theirs = _to_sympy(f, sympy, funcs, xs)
            for i, x in enumerate(xs):
                ours = _to_sympy(f.total_derivative(i), sympy, funcs, xs)
                assert sympy.expand(sympy.diff(theirs, x) - ours) == 0


@pytest.mark.parametrize("space", [SP1, JetSpace.create(["x", "t"], ["u", "v"])],
                         ids=["x;u", "x,t;u,v"])
def test_euler_matches_sympy(space):
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    xs = sympy.symbols(space.independent)
    funcs = [sympy.Function(name)(*xs) for name in space.dependent]
    rng = random.Random(41)
    fams = list(range(space.m))
    for _ in range(12):
        L = rand_density(space, rng, fams, maxord=2, nterms=3)
        ours = euler(L)
        theirs = euler_equations(_to_sympy(L, sympy, funcs, xs), funcs, xs)
        for a, eq in zip(ours, theirs):
            assert sympy.expand(eq.lhs - _to_sympy(a, sympy, funcs, xs)) == 0


# -- the packed monomial kernel ------------------------------------------------


def test_monomials_round_trip_at_the_budget():
    """Monomials with exponents at +-E (negative ones on jets and nonlocals,
    next to each other and to small ones) decode to the factors they were
    built from, invert exactly and print and parse back."""
    space = JetSpace.create(["x", "t"], ["u", "v"], ["a"], ["w", "r"])
    laurent = [('j', 0, (0, 0)), ('j', 1, (3, 1)), ('j', 0, (7, 7)), ('w', 'w'), ('w', 'r')]
    keys = [('i', 0), ('i', 1), ('q', 'a')] + laurent
    rng = random.Random(61)
    for _ in range(60):
        factors = {}
        for key in rng.sample(keys, rng.randint(1, len(keys))):
            signs = (1, -1) if key in laurent else (1,)
            factors[key] = rng.choice(signs) * rng.choice([_E, _E - 1, 1, 2])
        want = {tuple(sorted(factors.items())): 1}
        e = from_factors(space, want)
        assert decoded_terms(e) == want
        assert e.negative_keys() == {k for k, x in factors.items() if x < 0}
        assert e.variables() == set(factors)
        assert parse(render(e), space) == e
        if all(k in laurent for k in factors):
            inverse = {tuple((k, -x) for k, x in sorted(factors.items())): 1}
            assert decoded_terms(e.inverse_monomial()) == inverse
            assert e * e.inverse_monomial() == space.one()
    u, w = space.jet("u", (0, 0)), space.nonlocal_var("w")
    ukey, wkey = ('j', 0, (0, 0)), ('w', 'w')
    assert decoded_terms(u ** _E * u ** -1) == {((ukey, _E - 1),): 1}
    assert decoded_terms(u ** -_E * u) == {((ukey, 1 - _E),): 1}
    assert decoded_terms(u ** _E * w ** -_E) == {((ukey, _E), (wkey, -_E)): 1}
    assert decoded_terms((u ** _E).total_derivative(0)) == \
        {((ukey, _E - 1), (('j', 0, (1, 0)), 1)): _E}
    beyond = [lambda: u ** _E * u, lambda: u ** -_E * u ** -1, lambda: w ** -_E * w ** -1,
              lambda: (u ** -_E).total_derivative(0), lambda: (u ** -_E).partial(ukey),
              lambda: (u ** _E * w).substitute({wkey: u}),
              lambda: (u * w) ** _E * w]
    for make in beyond:
        with pytest.raises(BudgetError):
            make()


def test_fields_at_the_budget_keep_to_their_slots():
    """Products of fields at +-E in adjacent slots decode exactly, up to
    the 2E a product can reach, and an odd slot just above a field at -E
    keeps its parity: the bias keeps the borrow out of the odd part."""
    names = ["width_a", "width_b", "width_p", "width_q"]
    space = JetSpace.create(["x"], ["u"], (), names, odd=["width_p", "width_q"])
    a, b, p, q = map(space.nonlocal_var, names)  # fresh keys: adjacent slots, in order
    ka, kb, kp, kq = (('w', n) for n in names)
    x = a ** _E * b ** -_E
    assert decoded_terms(x * a ** -1 * b) == {((ka, _E - 1), (kb, 1 - _E)): 1}
    assert decoded_terms(x * b ** _E) == {((ka, _E),): 1}
    assert decoded_terms(a ** -_E * b ** _E * x) == {(): 1}
    with pytest.raises(BudgetError, match=f"exponent {2 * _E} beyond"):
        x * x
    y = b ** -_E * p
    assert decoded_terms(y * q) == {((kb, -_E), (kp, 1), (kq, 1)): 1}
    assert decoded_terms(q * y) == {((kb, -_E), (kp, 1), (kq, 1)): -1}
    assert (y * y).is_zero() and (y * p).is_zero()
    assert decoded_terms(y * (b ** _E * q)) == {((kp, 1), (kq, 1)): 1}
    assert decoded_terms((y * q).partial(kq)) == {((kb, -_E), (kp, 1)): -1}


def test_substitution_chains_are_bounded(monkeypatch):
    """A substitution multiplies a monomial's kept part by each replaced
    factor's image, so k replaced factors each at E give (k+1)*E, named
    exactly; a monomial with more factors than the fields can hold
    without a carry is refused before any product."""
    names = [f"chain_{k}" for k in range(5)]
    space = JetSpace.create(["x"], ["u"], (), names)
    ws = [space.nonlocal_var(n) for n in names]
    monomial = space.one()
    for w in ws:
        monomial = monomial * w ** _E
    for k in range(1, 5):
        with pytest.raises(BudgetError, match=f"exponent {(k + 1) * _E} beyond"):
            monomial.substitute({('w', n): ws[0] for n in names[1:k + 1]})
    assert (_S + 1) * _E < 1 << (_W - 1) <= (_S + 2) * _E
    monkeypatch.setattr("jetcalc.algebra._S", 3)
    with pytest.raises(BudgetError, match="substitution into 4 factors"):
        monomial.substitute({('w', n): ws[0] for n in names[1:]})
    assert monomial.substitute({('w', names[1]): ws[1]}) == monomial


@pytest.mark.parametrize("text, caret", [("(u[0,0]^60000)^60000", 14),
                                         ("u[0,0]^3000000000", 6)],
                         ids=["power-of-power", "huge-power"])
def test_powers_beyond_the_budget_fail_before_expanding(monkeypatch, text, caret):
    """parse reports the power at its '^' without allocating more than a
    few kilobytes, and DiffExpr's ** refuses it before its first product."""
    import tracemalloc

    u = SP.jet("u", (0, 0))
    base, k = (u ** 60000, 60000) if text.startswith("(") else (u, 3000000000)
    tracemalloc.start()
    try:
        with pytest.raises(ExprSyntaxError, match=rf"budget of {_E} \(at position {caret}\)"):
            parse(text, SP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    def product(a, b):
        pytest.fail("** multiplied before it checked the budget")

    monkeypatch.setattr(DiffExpr, "__mul__", product)
    for big in (base, base + 1):
        with pytest.raises(BudgetError):
            big ** k


def test_powers_beyond_the_term_budget_fail_before_expanding(monkeypatch):
    """(u + u_x + u_xx + u_xxx)^4000 is within the exponent and coefficient
    budgets but has C(4003, 3) terms: parse reports it at its '^' without
    allocating more than a few kilobytes, and ** refuses it before its
    first product."""
    import tracemalloc

    text = "(u[0,0]+u[1,0]+u[2,0]+u[3,0])^4000"
    tracemalloc.start()
    try:
        with pytest.raises(ExprSyntaxError, match=r"power of up to 10682674001 terms beyond "
                                                  r"the budget of 65536 terms \(at position 29\)"):
            parse(text, SP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    base = parse("u[0,0]+u[1,0]+u[2,0]+u[3,0]", SP)

    def product(a, b):
        pytest.fail("** multiplied before it checked the budget")

    with monkeypatch.context() as patch:
        patch.setattr(DiffExpr, "__mul__", product)
        with pytest.raises(BudgetError):
            base ** 4000
    # the bound C(len + k - 1, k) is the exact term count of a power of
    # distinct variables, and the budget admits it up to equality
    monkeypatch.setattr("jetcalc.algebra._T", 10)
    x = parse("u[0,0]+u[1,0]+u[2,0]", SP)
    assert len(x ** 3) == 10
    with pytest.raises(BudgetError):
        x ** 4


def test_powers_beyond_the_work_budget_fail_before_expanding(monkeypatch):
    """(u + 1)^8192 is within the exponent, coefficient and term budgets,
    but its last squaring multiplies two 4,097-term polynomials of 4,096-bit
    coefficients: parse reports it at its '^' without allocating more than
    a few kilobytes, and ** refuses it before its first product."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ExprSyntaxError, match=r"power of up to \d+ coefficient-word "
                                                  r"products beyond the budget of 1048576 "
                                                  r"\(at position 10\)"):
            parse("(u[0,0]+1)^8192", SP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    base = parse("u[0,0]+1", SP)

    def product(a, b):
        pytest.fail("** multiplied before it checked the budget")

    with monkeypatch.context() as patch:
        patch.setattr(DiffExpr, "__mul__", product)
        with pytest.raises(BudgetError):
            base ** 8192
    # (u + 1)^447 is the highest power of u + 1 within the budget
    assert len(base ** 447) == 448
    with pytest.raises(BudgetError):
        base ** 448


def test_the_work_bound_follows_the_power_chain(monkeypatch):
    """With one term and one-word coefficients every product costs 1, so
    the bound is the number of products ** makes."""
    products = []
    mul = DiffExpr.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(DiffExpr, "__mul__", counting)
    u = SP.jet("u", (0, 0))
    for k in range(2, 70):
        del products[:]
        u ** k
        assert len(products) == _power_work(1, k, 0.0)
    assert _power_work(2, 447, 1.0) <= _P < _power_work(2, 448, 1.0)


def test_render_names_the_digits_of_a_coefficient_it_cannot_print():
    """Python prints an int of at most 4,300 digits; render reports a longer
    numerator or denominator as a BudgetError with its digit count."""
    assert len(render(SP.num(10 ** 4299))) == 4300
    for value, digits in ((2 ** 16000, 4817), (Fraction(1, 2 ** 16000), 4817),
                          (10 ** 4300, 4301), (10 ** 5000 - 1, 5000)):
        for e in (SP.num(value), SP.num(value) * SP.jet("u", (1, 0))):
            with pytest.raises(BudgetError,
                               match=f"^coefficient of {digits} digits is too long to print$"):
                render(e)


def _old_sort_odd(keys):
    out = []
    sign = 1
    for k in keys:
        pos = len(out)
        while pos > 0 and out[pos - 1] > k:
            pos -= 1
        if pos > 0 and out[pos - 1] == k:
            return None
        if k in out[pos:]:
            return None
        sign *= -1 if (len(out) - pos) % 2 else 1
        out.insert(pos, k)
    return tuple(out), sign


def _old_mono_mul(space, m1, m2):
    """The product of two monomials in the former format, sorted tuples of
    (key, exponent) pairs: (mono, sign), or None for an odd square."""
    exps = dict(m1)
    for k, e in m2:
        e += exps.get(k, 0)
        if e:
            exps[k] = e
        else:
            del exps[k]
    odd1 = [k for k, _ in m1 if space.is_odd_key(k)]
    odd2 = [k for k, _ in m2 if space.is_odd_key(k)]
    merged = _old_sort_odd(odd1 + odd2)
    if merged is None:
        return None
    return tuple(sorted(exps.items())), merged[1]


def test_odd_products_match_the_tuple_kernel():
    """The sign of moving odd factors into key order, and the zero of an
    odd square, agree with the tuple format's product on random monomials
    over (x, t; u, v), v odd."""
    space = JetSpace.create(["x", "t"], ["u", "v"], odd=["v"])
    rng = random.Random(67)

    def monomial():
        factors = {}
        for _ in range(rng.randint(0, 5)):
            K = rand_index(rng, 2, 2)
            kind = rng.randrange(3)
            if kind == 0:
                factors[('i', rng.randrange(2))] = rng.randint(1, 3)
            elif kind == 1:
                factors[('j', 0, K)] = rng.choice([-2, -1, 1, 2, 3])
            else:
                factors[('j', 1, K)] = 1
        return tuple(sorted(factors.items()))

    signs, squares = set(), 0
    for _ in range(400):
        m1, m2 = monomial(), monomial()
        got = decoded_terms(from_factors(space, {m1: 1}) * from_factors(space, {m2: 1}))
        want = _old_mono_mul(space, m1, m2)
        if want is None:
            squares += 1
            assert got == {}
        else:
            mono, sign = want
            assert got == {mono: sign}
            signs.add(sign)
    assert signs == {1, -1} and squares > 20


_SLOT_ORDER = """
import ast, contextlib, io, sys
from jetcalc import algebra, cli
keys = ast.literal_eval(sys.stdin.read())
for key in keys:
    algebra._unit(key)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["corpus", "kdv", "--json"])
print(repr((code, out.getvalue(), algebra._KEYS)))
"""


def _kdv_report(keys, seed):
    """(exit code, `corpus kdv --json`, slot keys) of a fresh process under
    the hash seed `seed` that registers `keys` first."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _SLOT_ORDER], input=repr(keys), env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return ast.literal_eval(proc.stdout)


def test_reports_do_not_depend_on_slot_order():
    """Monomial slots are registered in order of first use; under hash
    seeds 0 and 1, a process that registers kdv's variables in the reverse
    order first writes the same report byte for byte.  The report's
    Hamiltonian and equation-Schouten tasks register odd slots, in reverse
    order in the second process."""
    reference = ROOT / "bench" / "reference" / "corpus" / "kdv.json"
    for seed in ("0", "1"):
        code, report, first = _kdv_report([], seed)
        code2, report2, second = _kdv_report(first[::-1], seed)
        assert second[:len(first)] == first[::-1] != first
        assert code == code2 == 0
        assert report == report2 == reference.read_text()


def test_a_tower_is_built_in_apply_order_without_recursion():
    """tower_DI walks down to the tower in one loop and takes the
    derivatives back up in another, so a chain three times the recursion
    limit is built: on node numbers, D_K for K = (1500, 1500) takes every
    x derivative, then every t one, as apply_DI does, each once; a taller
    K takes one more step, and a K below it none."""
    steps = []

    def d(b, i):
        steps.append((b, i))
        return len(steps)
    tower = {}
    assert tower_DI(tower, 0, (1500, 1500), d) == 3000
    assert steps == [(b, 0) for b in range(1500)] + [(b, 1) for b in range(1500, 3000)]
    assert tower_DI(tower, 0, (1500, 1501), d) == 3001 and len(steps) == 3001
    assert tower_DI(tower, 0, (700, 0), d) == 700 and len(steps) == 3001
    assert tower_DI(tower, "e", (0, 0), d) == "e"


_DEEP_JET = """
from jetcalc import JetSpace, make_presentation, parse
sp = JetSpace.create(["x", "t"], ["u"])
pres = make_presentation(sp, [parse("u[0,1] - u[1,0]", sp)], [("u", (0, 1))])
print(pres.jet_image(("j", 0, (0, 3000))) == sp.jet("u", (3000, 0)))
"""


def test_a_jet_far_above_its_rule_is_reduced_without_recursion():
    """Presentation.jet_image takes its rule's tower through tower_DI, which
    walks down to a known image in one loop and takes the D_i back up in
    another: on u_t = u_x, u[0,3000] (built directly, beyond the parser's
    bound) reduces to u[3000,0], three times deeper than the recursion
    limit.  In a fresh process, since it registers some 6,000 jet slots."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _DEEP_JET], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "True\n"
