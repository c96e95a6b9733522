import gc
import random
import re
import weakref
from fractions import Fraction

import pytest

from jetcalc import (
    Ansatz,
    CDiffOp,
    ConfluenceError,
    EquivalenceWitness,
    JetSpace,
    NonSolvableError,
    Presentation,
    ReductionError,
    cotangent_covering,
    make_presentation,
    parse,
    presentations,
    solve_symmetries,
    verify_equivalence,
)
from jetcalc.algebra import ImageTable, apply_DI, mi_iter, mi_order, mi_sub, mi_unit
from jetcalc.cli import Problem
from jetcalc.corpus import corpus
from monomials import decoded_terms

SP = JetSpace.create(["x", "t"], ["u"])
JETS = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))


def rand_expr(space, rng, maxdeg=2, nterms=3, jets=JETS):
    e = space.zero()
    for _ in range(nterms):
        m = space.num(rng.randint(-3, 3))
        for _ in range(rng.randint(0, maxdeg)):
            m = m * space.jet(0, rng.choice(jets))
        e = e + m
    return e


def test_kdv_rules(kdv):
    r = kdv.reduce(SP.jet("u", (0, 1)))
    assert r.normal_form == parse("6*u[0,0]*u[1,0] + u[3,0]", SP)
    assert r.cofactor == CDiffOp(SP, 1, 1, {(0, 0): {(0, 0): SP.one()}})
    r2 = kdv.reduce(SP.jet("u", (1, 1)))
    assert r2.normal_form == parse("6*u[1,0]^2 + 6*u[0,0]*u[2,0] + u[4,0]", SP)
    assert r2.cofactor == CDiffOp(SP, 1, 1, {(0, 0): {(1, 0): SP.one()}})
    r3 = kdv.reduce(SP.jet("u", (0, 0)))
    assert r3.normal_form == SP.jet("u", (0, 0)) and r3.cofactor.is_zero()


def test_cofactor_identity_random(kdv, camassa_holm):
    rng = random.Random(61)
    # Camassa-Holm's leading jet is u[2,1], so give it jets that reduce
    for pres, jets in ((kdv, JETS), (camassa_holm, JETS + ((2, 1), (3, 1)))):
        for _ in range(20):
            e = rand_expr(pres.space, rng, jets=jets)
            red = pres.reduce(e)
            assert red.check(pres)
            # the tagged and untagged reductions agree, and are idempotent
            assert red.normal_form == pres.normal_form(e)
            assert pres.normal_form(red.normal_form) == red.normal_form


def test_cofactor_identity_matches_sympy():
    """An oracle for `reduce`'s cofactors, in sympy alone: e - nf -
    sum_{s,L} lambda_{s,L} D_L(F_s) expands to 0, each D_L being sympy's
    d/dx^L of F_s written as a function of the independents (the total
    derivative oracle of test_algebra).  The inputs are every Theta
    coefficient of the corpus verify-bivector and schouten-equation
    operators, and kdv-3comp's reduce input; a cofactor with one slot
    dropped is a planted wrong one, which the oracle refuses."""
    sympy = pytest.importorskip("sympy")
    from test_algebra import _to_sympy

    checked = 0
    for name in ("kdv", "kdv6", "camassa-holm", "camassa-holm-2comp", "weingarten",
                 "kdv-3comp"):
        data = corpus(name)
        problem = Problem(data)
        pres, space = problem.presentation, problem.space
        xs = sympy.symbols(space.independent)
        funcs = [sympy.Function(f)(*xs) for f in space.dependent]

        def to_sympy(e):
            return _to_sympy(e, sympy, funcs, xs)

        def D(f, L):  # d/dx^L, as _to_sympy writes a jet
            steps = [x for x, k in zip(xs, L) for _ in range(k)]
            return f.diff(*steps) if steps else f

        def residual(e, red, slots):
            return sympy.expand(to_sympy(e) - to_sympy(red.normal_form) - sum(
                to_sympy(lam) * D(F[s], L) for _, s, L, lam in slots))

        F = [to_sympy(c) for c in pres.components]
        ops = {repr(op): op for t in data["tasks"]
               for op in ([t["op"]] if t["kind"] == "verify-bivector" else t.get("ops", []))
               if t["kind"] in ("verify-bivector", "schouten-equation")}
        exprs = [a for op in ops.values() for *_, a in pres.theta(CDiffOp.from_json(
            space, op["rows"], op["cols"], op["entries"])).terms()]
        exprs += [parse(t["expr"], space) for t in data["tasks"] if t["kind"] == "reduce"]
        assert exprs
        for e in exprs:
            red = pres.reduce(e)
            slots = list(red.cofactor.terms())
            assert residual(e, red, slots) == 0
            if slots:
                checked += 1
                assert residual(e, red, slots[1:]) != 0
    assert checked >= 15


def test_reduction_commutes_with_derivatives(kdv, camassa_holm):
    rng = random.Random(67)
    indices = [K for order in range(3) for K in mi_iter(2, order)]
    for pres in (kdv, camassa_holm):
        for _ in range(10):
            e = rand_expr(pres.space, rng)
            for K in indices:
                a = pres.normal_form(apply_DI(e, K))
                b = apply_DI(pres.normal_form(e), K, pres.d_bar)
                assert a == b


def test_zero_section_solves_kdv(kdv):
    F = kdv.components[0]
    subs = {k: SP.zero() for k in F.variables() if k[0] == 'j'}
    assert F.substitute(subs).is_zero()


def test_non_solvable_leading():
    F = parse("u[0,1]^2 - u[1,0]", SP)
    with pytest.raises(NonSolvableError):
        make_presentation(SP, [F], [("u", (0, 1))])
    with pytest.raises(NonSolvableError):
        # rhs contains a derivative of the leading jet
        make_presentation(SP, [parse("u[0,1] - u[1,1]", SP)], [("u", (0, 1))])
    with pytest.raises(NonSolvableError, match="one leading jet per component"):
        make_presentation(SP, [F, F], [("u", (0, 1))])
    with pytest.raises(NonSolvableError, match=re.escape(
            "leading coefficient of ('j', 0, (0, 1)) is not a monomial: 1 + u[0,0]")):
        make_presentation(SP, [parse("(1 + u[0,0])*u[0,1] - u[1,0]", SP)], [("u", (0, 1))])


def test_confluence_failure_reports_pair():
    bad = [parse("u[1,0] - 1", SP), parse("u[0,1] - u[0,0]", SP)]
    with pytest.raises(ConfluenceError) as err:
        make_presentation(SP, bad, [("u", (1, 0)), ("u", (0, 1))])
    assert err.value.jet is not None


def test_confluent_two_rule_system(two_rules):
    u = SP.jet("u", (0, 0))
    assert two_rules.normal_form(SP.jet("u", (3, 2))) == u


def test_weingarten_laurent(weingarten):
    sp = weingarten.space
    rhs = weingarten.rhss[0]
    exps = {e for mono in decoded_terms(rhs) for k, e in mono if k == ('j', 0, (0, 0))}
    assert min(exps) < 0  # genuinely Laurent right-hand side
    red = weingarten.reduce(parse("z[1,2]", sp))
    assert red.check(weingarten)


def test_camassa_holm_lazy_prolongation(camassa_holm):
    sp = camassa_holm.space
    # the classical CH conserved current is closed on the equation
    X = parse("u[0,0] - u[2,0]", sp)
    T = parse("1/2*u[1,0]^2 - 3/2*u[0,0]^2 + u[0,0]*u[2,0]", sp)
    assert (camassa_holm.d_bar(X, 1) - camassa_holm.d_bar(T, 0)).is_zero()
    red = camassa_holm.reduce(parse("u[3,1]", sp))
    assert red.check(camassa_holm)


def test_ch_two_component_confluent():
    sp2 = JetSpace.create(["x", "t"], ["u", "m"])
    G1 = parse("m[0,1] + u[0,0]*m[1,0] + 2*u[1,0]*m[0,0]", sp2)
    G2 = parse("m[0,0] - u[0,0] + u[2,0]", sp2)
    ch2 = make_presentation(sp2, [G1, G2], [("m", (0, 1)), ("u", (2, 0))])
    # u_txx reduces consistently through both rules
    red = ch2.reduce(parse("u[2,1]", sp2))
    assert red.check(ch2)


def _kdv3():
    sp3 = JetSpace.create(["x", "t"], ["u", "v", "w"])
    comps = [parse("u[1,0] - v[0,0]", sp3), parse("v[1,0] - w[0,0]", sp3),
             parse("w[1,0] - u[0,1] + 6*u[0,0]*v[0,0]", sp3)]
    pres = make_presentation(sp3, comps,
                             [("u", (1, 0)), ("v", (1, 0)), ("w", (1, 0))])
    return sp3, pres


def _witness(sp3):
    one = sp3.one()
    alpha = CDiffOp(sp3, 3, 1, {(0, 0): {(0, 0): one}, (1, 0): {(1, 0): one},
                                (2, 0): {(2, 0): one}})
    beta = CDiffOp(sp3, 1, 3, {(0, 0): {(0, 0): one}})
    alpha_p = CDiffOp(sp3, 3, 1, {(2, 0): {(0, 0): -one}})
    beta_p = CDiffOp(sp3, 1, 3, {
        (0, 0): {(2, 0): -one, (0, 0): -6 * sp3.jet("u", (0, 0))},
        (0, 1): {(1, 0): -one}, (0, 2): {(0, 0): -one}})
    s1 = CDiffOp(sp3, 1, 1)
    s2 = CDiffOp(sp3, 3, 3, {(1, 0): {(0, 0): one}, (2, 0): {(1, 0): one},
                             (2, 1): {(0, 0): one}})
    return EquivalenceWitness(alpha, beta, alpha_p, beta_p, s1, s2)


def test_equivalence_witness_passes():
    sp3, pres = _kdv3()
    F1 = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", sp3)
    rep = verify_equivalence(pres, [F1], 1, _witness(sp3))
    assert rep["ok"], rep


def test_equivalence_identity_witness(kdv):
    one = SP.one()
    idw = EquivalenceWitness(
        CDiffOp.identity(SP, 1), CDiffOp.identity(SP, 1),
        CDiffOp.identity(SP, 1), CDiffOp.identity(SP, 1),
        CDiffOp(SP, 1, 1), CDiffOp(SP, 1, 1))
    rep = verify_equivalence(kdv, list(kdv.components), 1, idw)
    assert rep["ok"]


def test_equivalence_perturbed_witness_fails():
    sp3, pres = _kdv3()
    F1 = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", sp3)
    w = _witness(sp3)
    w_bad = EquivalenceWitness(w.alpha, w.beta, w.alpha_p,
                               w.beta_p.scale(-1), w.s1, w.s2)
    rep = verify_equivalence(pres, [F1], 1, w_bad)
    assert not rep["ok"]
    assert any(not v["ok"] for k, v in rep.items() if k != "ok")


def test_restrict_operator_adjoint_commutes(kdv):
    rng = random.Random(71)
    for _ in range(10):
        tab = {}
        for _ in range(rng.randint(1, 3)):
            I = (rng.randint(0, 2), rng.randint(0, 1))
            tab[I] = rand_expr(kdv.space, rng, nterms=2)
        op = CDiffOp.scalar(kdv.space, tab)
        a = kdv.restrict_operator(op).adjoint()
        b = op.adjoint()
        # both routes agree modulo reduction
        assert kdv.restrict_operator(a - b).is_zero()


# -- the one-pass routes against their definitions -----------------------------

@pytest.fixture(scope="module")
def coupled():
    """An evolution system whose u component holds v's leading jet, so that
    l_F has coefficients with reducible jets."""
    sp = JetSpace.create(["x", "t"], ["u", "v"])
    F = [parse("u[0,1] - v[0,1]*u[1,0] - u[2,0]", sp),
         parse("v[0,1] - v[2,0] - u[0,0]*v[1,0]", sp)]
    return make_presentation(sp, F, [("u", (0, 1)), ("v", (0, 1))])


def corpus_presentation(name):
    """The presentation of a bundled problem, without its tasks and coverings."""
    return Problem(dict(corpus(name), tasks=[], coverings={})).presentation


@pytest.fixture(scope="module")
def kdv_3comp():
    return corpus_presentation("kdv-3comp")


@pytest.fixture(scope="module")
def camassa_holm_2comp():
    return corpus_presentation("camassa-holm-2comp")


@pytest.fixture(scope="module")
def kdv6():
    return corpus_presentation("kdv6")


@pytest.fixture(scope="module")
def two_rules():
    """u_x = u and u_t = u: two rules on one dependent, confluent."""
    return make_presentation(SP, [parse("u[1,0] - u[0,0]", SP), parse("u[0,1] - u[0,0]", SP)],
                             [("u", (1, 0)), ("u", (0, 1))])


@pytest.fixture(scope="module")
def kdv_cotangent(kdv):
    """KdV's cotangent covering: the odd p has a rule p_t = ..."""
    return cotangent_covering(kdv).presentation


# factors of random expressions per presentation, reducible jets included;
# Weingarten's right-hand side is Laurent in z, and so are its probes
FACTORS = {
    "kdv": ("u[0,0]", "u[1,0]", "u[2,0]", "u[0,1]", "u[1,1]", "u[0,2]", "x", "t"),
    "heat": ("u[0,0]", "u[1,0]", "u[0,1]", "u[2,1]", "u[0,2]", "x", "t"),
    "boussinesq": ("u[0,0]", "v[0,0]", "v[1,0]", "u[0,1]", "v[0,1]", "v[1,1]",
                   "u[0,2]", "sigma"),
    "camassa_holm": ("u[0,0]", "u[1,0]", "u[2,0]", "u[0,1]", "u[2,1]", "u[3,1]", "x"),
    "coupled": ("u[0,0]", "v[0,0]", "u[1,0]", "u[0,1]", "v[0,1]", "v[1,1]"),
    "weingarten": ("z[0,0]", "z[0,0]^-1", "z[1,0]", "z[0,1]", "z[0,2]", "z[1,2]",
                   "z[0,3]", "y"),
    "kdv_3comp": ("u[0,0]", "u[1,0]", "u[0,1]", "u[1,1]", "v[0,0]", "v[2,0]",
                  "w[0,0]", "w[1,1]"),
    "camassa_holm_2comp": ("u[0,0]", "u[1,0]", "u[2,0]", "u[3,1]", "m[0,0]", "m[0,1]",
                           "m[1,1]", "x"),
    "kdv6": ("v[0,0]", "v[1,0]", "v[0,1]", "v[1,1]", "w[0,0]", "w[2,0]", "w[3,0]",
             "w[4,1]"),
    "wdvv": ("u[0,0]", "u[1,0]", "u[2,1]", "u[0,3]", "u[1,3]", "u[0,4]", "y"),
    "two_rules": ("u[0,0]", "u[1,0]", "u[0,1]", "u[2,1]", "u[1,3]", "x", "t"),
    "kdv_cotangent": ("u[0,0]", "u[0,1]", "u[1,1]", "p[0,0]", "p[1,0]", "p[0,1]",
                      "p[2,1]", "t"),
}


def rand_poly(space, rng, factors, maxdeg=3, nterms=4):
    e = space.zero()
    for _ in range(nterms):
        m = space.num(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(0, maxdeg)):
            m = m * parse(rng.choice(factors), space)
        e = e + m
    return e


def canonical_terms(e):
    """e's terms, after checking each coefficient is canonical: a nonzero
    int, or a Fraction that is not integral."""
    assert all(c and (type(c) is int or c.denominator != 1) for _, c in e.coefficients())
    return dict(e.coefficients())


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_d_bar_matches_its_definition(request, name):
    pres = request.getfixturevalue(name)
    rng = random.Random(73)
    for _ in range(12):
        e = rand_poly(pres.space, rng, FACTORS[name])
        for i in range(pres.space.n):
            expected = pres.normal_form(pres.normal_form(e).total_derivative(i))
            assert canonical_terms(pres.d_bar(e, i)) == dict(expected.coefficients())


@pytest.fixture(scope="module")
def fractional():
    """An evolution equation with a fractional and a parametric right-hand side."""
    sp = JetSpace.create(["x", "t"], ["u"], ["lam"])
    return make_presentation(sp, [parse("u[0,1] - 1/2*u[3,0] - lam*u[0,0]*u[1,0]", sp)],
                             [("u", (0, 1))])


# internal factors, Laurent and parametric ones among them
INTERNAL = {
    "kdv": ("u[0,0]", "u[0,0]^-1", "u[1,0]", "u[3,0]", "u[2,0]^-2", "x", "t"),
    "camassa_holm": ("u[0,0]", "u[0,0]^-1", "u[1,0]", "u[0,1]", "u[1,1]", "u[0,2]",
                     "u[1,0]^-1", "x"),
    "boussinesq": ("u[0,0]", "u[0,0]^-1", "v[0,0]", "u[1,0]", "v[2,0]", "v[1,0]^-1",
                   "sigma", "t"),
    "fractional": ("u[0,0]", "u[0,0]^-1", "u[1,0]", "u[2,0]", "u[1,0]^-2", "lam", "x", "t"),
}


@pytest.mark.parametrize("name", sorted(INTERNAL))
def test_d_internal_matches_a_table_built_per_call(request, name):
    """d_internal reads the presentation's D_i tables, kept between calls; a
    table built for one call from `jet_image` is filled afresh.  Both give
    the same terms in the same order, whatever the order of the calls, and
    the normal form of the free derivative."""
    pres = request.getfixturevalue(name)
    rng = random.Random(97)
    for _ in range(16):
        e = rand_poly(pres.space, rng, INTERNAL[name])
        for i in rng.sample(range(pres.space.n), pres.space.n):
            got = pres.d_internal(e, i)
            fresh = e.total_derivative(i, ImageTable(i, None, pres.jet_image))
            assert list(got.coefficients()) == list(fresh.coefficients())
            assert canonical_terms(got) == dict(
                pres.normal_form(e.total_derivative(i)).coefficients())


def test_inter_reduced_rules_derive_as_rules_given_reduced():
    """u_t = u_x p_tt reduces through the prolonged rule of p_t = v^2, and
    v_t = w_t + v_xx through w's rule; the rule caches built meanwhile are
    emptied, so the presentation derives as one given the reduced rules."""
    sp = JetSpace.create(["x", "t"], ["u", "p", "v", "w"])
    leads = [("u", (0, 1)), ("p", (0, 1)), ("v", (0, 1)), ("w", (0, 1))]
    F = [parse(f, sp) for f in ("u[0,1] - p[0,2]*u[1,0]", "p[0,1] - v[0,0]^2",
                                "v[0,1] - w[0,1] - v[2,0]",
                                "w[0,1] - w[2,0] - w[0,0]*w[1,0]")]
    pres = make_presentation(sp, F, leads)
    raw = [sp.jet(j, K) - f for (j, K), f in zip(leads, F)]
    assert [r != x for r, x in zip(pres.rhss, raw)] == [True, False, True, False]
    given = make_presentation(sp, [sp.jet(j, K) - r for (j, K), r in zip(leads, pres.rhss)],
                              leads)
    assert given.rhss == pres.rhss
    factors = ("u[0,0]", "u[1,0]", "p[0,0]", "p[1,0]", "v[0,0]", "v[1,0]", "w[0,0]",
               "w[0,0]^-1", "x")
    rng = random.Random(101)
    for _ in range(12):
        e = rand_poly(sp, rng, factors)
        for i in range(2):
            assert list(pres.d_internal(e, i).coefficients()) == \
                list(given.d_internal(e, i).coefficients())


EVOLUTION = ("kdv", "boussinesq", "coupled")


@pytest.mark.parametrize("name", EVOLUTION + (
    "camassa_holm", "camassa_holm_2comp", "kdv_3comp", "kdv6", "wdvv", "weingarten"))
def test_determining_operators_match_reduced_free_jets(request, name):
    pres = request.getfixturevalue(name)
    # one route for every presentation: restricted coefficients times D-bar_K;
    # on the non-evolution ones it rests on NF o D_i = NF o D_i o NF alone
    assert pres.is_evolutionary() == (name in EVOLUTION)
    L = pres.linearization()
    rng = random.Random(79)
    for _ in range(6):
        phi = [rand_poly(pres.space, rng, FACTORS[name], maxdeg=2, nterms=3)
               for _ in range(pres.space.m)]
        for vec in (phi, pres.normal_form(phi)):  # not internal, then internal
            for op, route in ((L, pres.lin_apply), (L.adjoint(), pres.adj_apply)):
                expected = [dict(pres.normal_form(x).coefficients()) for x in op.apply(vec)]
                assert [canonical_terms(x) for x in route(vec)] == expected


def normal_form_by_passes(pres, e):
    """The highest-first reduction that one substitution replaced: each pass
    substitutes the highest reducible jet (by total order, then reversed
    multi-index, then family) by its rule's normal form, and a prolonged
    rule is D_i of the normal form below it, reduced by the same passes."""
    rules = {}

    def rule_nf(j, K):
        if (j, K) not in rules:
            s = pres.find_rule(j, K)
            I = pres.leadings[s][1]
            if K == I:
                rules[j, K] = pres.rhss[s]
            else:
                i = max(k for k in range(len(K)) if K[k] > I[k])
                rules[j, K] = by_passes(rule_nf(j, mi_sub(K, mi_unit(len(K), i)))
                                        .total_derivative(i))
        return rules[j, K]

    def by_passes(e):
        while True:
            reducible = [k for k in e.variables()
                         if k[0] == 'j' and pres.find_rule(k[1], k[2]) is not None]
            if not reducible:
                return e
            z = max(reducible, key=lambda k: (mi_order(k[2]), tuple(reversed(k[2])), k[1]))
            e = e.substitute({z: rule_nf(z[1], z[2])})

    return by_passes(e)



@pytest.mark.parametrize("name", ["two_rules", "camassa_holm_2comp", "kdv_3comp",
                                  "weingarten", "kdv_cotangent"])
def test_normal_form_matches_highest_first_passes(request, name):
    pres = request.getfixturevalue(name)
    rng = random.Random(89)
    for _ in range(12):
        e = rand_poly(pres.space, rng, FACTORS[name])
        nf = pres.normal_form(e)
        assert canonical_terms(nf) == dict(normal_form_by_passes(pres, e).coefficients())
        if any(pres.space.is_odd_key(k) and pres.find_rule(k[1], k[2]) is not None
               for k in e.jet_keys()):
            continue  # cofactors are tracked for even reducible jets only
        red = pres.reduce(e)
        assert red.check(pres) and red.normal_form == nf


def test_reduction_errors_name_the_jet(kdv, kdv_cotangent):
    negative = re.escape("reducible jet u[0,1] occurs with negative exponent")
    for route in (kdv.normal_form, kdv.reduce):
        with pytest.raises(ReductionError, match=negative):
            route(parse("u[1,0]*u[0,1]^-1 + u[1,1]", SP))
    with pytest.raises(ReductionError, match=re.escape("even reducible jets: p[1,1]")):
        kdv_cotangent.reduce(parse("u[0,1]*p[1,1] + p[0,0]", kdv_cotangent.space))


def test_adjoint_linearization_is_built_once():
    """l_F* is cached beside l_F, once per presentation."""
    F = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", SP)
    pres = make_presentation(SP, [F], [("u", (0, 1))])
    adjoint = pres.linearization(adjoint=True)
    assert adjoint is pres.linearization(adjoint=True)
    assert adjoint == pres.linearization().adjoint()
    assert pres.linearization() is pres.linearization()


@pytest.mark.parametrize("name", ["kdv", "boussinesq"])
def test_each_derived_operator_is_built_once(request, name, monkeypatch):
    """linearize (l_F, whose adjoint is l_F*), CDiffOp.sum_of_compositions (each
    Theta) and restrict_operator run once per operator value and presentation,
    whatever mix of routes asks for them, and a fresh operator equal in value
    finds the one built; lin_apply and adj_apply are restricted l_F and l_F*."""
    given = request.getfixturevalue(name)
    pres = make_presentation(given.space, given.components, given.leadings)
    sp, m = pres.space, pres.space.m
    calls = []

    def counted(label, fn):
        return lambda *args: calls.append(label) or fn(*args)
    monkeypatch.setattr(presentations, "linearize", counted("l_F", presentations.linearize))
    monkeypatch.setattr(CDiffOp, "sum_of_compositions",
                        counted("Theta", CDiffOp.sum_of_compositions))
    monkeypatch.setattr(Presentation, "restrict_operator",
                        counted("restrict", Presentation.restrict_operator))

    def fresh(op):
        return CDiffOp(sp, op.rows, op.cols, op.terms())
    phi = [rand_poly(sp, random.Random(97), FACTORS[name]) for _ in range(m)]
    delta = CDiffOp(sp, m, m, ((k, k, mi_unit(sp.n, 0), sp.one()) for k in range(m)))
    for _ in range(2):
        L, L_adj = pres.linearization(), pres.linearization(adjoint=True)
        assert pres.lin_apply(phi) == pres.restricted(L)(phi) == pres.restricted(fresh(L))(phi)
        assert pres.adj_apply(phi) == pres.restricted(fresh(L_adj))(phi)
        pres.restricted_columns(pres.linearization())
        pres.restricted_columns(pres.linearization(adjoint=True))
        pres.restricted_columns(fresh(L)), pres.restricted_columns(L_adj)
        for adjoint in (False, True):
            theta = pres.theta(delta, adjoint)
            assert pres.theta(fresh(delta), adjoint) is theta
            pres.restricted(fresh(theta))(phi), pres.restricted_columns(theta)
    assert sorted(calls) == ["Theta"] * 2 + ["l_F"] + ["restrict"] * 4


def test_a_dropped_presentation_is_freed_at_once():
    """No cache of a presentation refers back to it (the D_i tables reach
    it weakly), so with the cycle collector off it is freed on `del`, after
    every kind of use that fills a cache."""
    F = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", SP)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pres = make_presentation(SP, [F], [("u", (0, 1))])
        pres.d_internal(parse("u[0,0]*u[2,0]", SP), 0)
        pres.reduce(parse("u[1,1] + u[0,0]*u[0,2]", SP))
        pres.lin_apply([parse("u[1,0]", SP)])
        pres.adj_apply([parse("u[0,0]^2", SP)])
        solve_symmetries(pres, Ansatz(1, 1))
        freed = weakref.ref(pres)
        del pres
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
