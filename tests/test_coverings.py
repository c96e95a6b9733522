import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from jetcalc import (
    Ansatz,
    CDiffOp,
    HorizontalForm,
    JetSpace,
    NonlocalObstruction,
    NonSolvableError,
    PseudoOp,
    ShapeError,
    cotangent_covering,
    delta_covering,
    make_covering,
    make_presentation,
    parse,
    render,
    schouten_on_equation,
    solve_cosymmetries,
    solve_fiberlinear,
    tangent_covering,
    verify_finite_symmetry,
    verify_flat,
    verify_shadow,
)
from jetcalc.algebra import ImageTable
from jetcalc.cli import Problem
from jetcalc.corpus import corpus, corpus_names
from jetcalc.errors import ConfluenceError, ProblemError
from constructs import (
    abelian_from_current,
    d_h,
    green_form,
    lifted_table,
    reconstruct_step,
    recursion_as_backlund,
)
from spans import is_abelian, rref, same_span

SP = JetSpace.create(["x", "t"], ["u"])
TRAFFIC = Path(__file__).resolve().parent / "traffic"


def potential_covering(kdv):
    return make_covering(kdv, ["w"], {0: [parse("u[0,0]", SP)],
                                      1: [parse("3*u[0,0]^2 + u[2,0]", SP)]})


def test_potential_kdv_flat(kdv):
    cov = potential_covering(kdv)
    assert verify_flat(cov)["ok"]
    assert is_abelian(cov)


def test_field_lists_must_match_the_nonlocals(kdv):
    """A covering takes one field per new nonlocal along each independent
    variable; any other count is a ShapeError, before anything is built."""
    u = parse("u[0,0]", SP)
    with pytest.raises(ShapeError, match="covering fields along x: 1 for 2 nonlocals"):
        make_covering(kdv, ["w", "v"], {0: [u], 1: [u, u]})
    with pytest.raises(ShapeError, match="covering fields along t: 0 for 1 nonlocals"):
        make_covering(kdv, ["w"], {0: [u]})
    with pytest.raises(ShapeError, match="along x: 2 for 1 nonlocals"):
        potential_covering(kdv).extended(["v"], {0: [u, u], 1: [u]}, ())


def test_built_coverings_and_forms_hold_read_only_maps(kdv):
    """A built covering's fields and a form's components cannot be changed
    in place, and the maps they were built from can be changed without
    reaching them."""
    mass = {(0,): parse("u[0,0]", SP), (1,): parse("u[2,0] + 3*u[0,0]^2", SP)}
    form = HorizontalForm(SP, 1, mass)
    cov, _ = abelian_from_current(form, kdv)
    for target, key in ((cov.X, 0), (form.comps, (0,))):
        with pytest.raises(TypeError):
            target[key] = 1
    mass[(0,)] = SP.zero()
    assert form.comps[(0,)] == parse("u[0,0]", SP)
    assert type(dataclasses.replace(cov, X=dict(cov.X)).X) is MappingProxyType


def test_a_covering_reads_its_nonlocals_and_fibers_off_its_spaces(kdv):
    """The nonlocals are the covering space's nonlocal names past the base's,
    in the order of X's fields, and the fiber families its dependents past the
    base's, however the covering is built, over a base with nonlocals too."""
    pot = potential_covering(kdv)
    tk = tangent_covering(kdv)
    sp = tk.space
    lay = tk.extended(["vm1"], {
        0: [sp.jet("v", (0, 0))],
        1: [sp.jet("v", (2, 0)) + 6 * sp.jet("u", (0, 0)) * sp.jet("v", (0, 0))]}, ())
    w = parse("w", pot.space)
    cases = [(pot, ("w",), ()), (tk, (), (1,)), (cotangent_covering(kdv), (), (1,)),
             (lay, ("vm1",), (1,)),
             (reconstruct_step(pot, [parse("u[1,0]", pot.space)]), ("w", "w_r"), ()),
             (make_covering(pot.presentation, ["z"], {0: [w], 1: [w]}), ("z",), ()),
             (tangent_covering(pot.presentation), (), (1,))]
    for cov, nonlocals, fibers in cases:
        assert (cov.nonlocals, tuple(cov.fiber_families)) == (nonlocals, fibers)
        assert all(len(cov.X[i]) == len(nonlocals) for i in range(2) if nonlocals)


def test_lifted_derivatives_commute(kdv):
    cov = potential_covering(kdv)
    probe = parse("w^2*u[1,0] + x*w", cov.space)
    d = cov.presentation.d_bar
    a = d(d(probe, 0), 1)
    b = d(d(probe, 1), 0)
    assert (a - b).is_zero()


def miura_covering():
    sp = JetSpace.create(["x", "t"], ["u"], parameters=["lam"])
    kdvl = make_presentation(sp, [parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", sp)],
                             [("u", (0, 1))])
    ext = sp.extended(nonlocals=["w"])
    X = parse("u[0,0] + w^2 + lam", ext)
    T = parse("u[2,0] + 2*w*u[1,0] + 2*u[0,0]^2 + 2*(w^2 - lam)*u[0,0]"
              " - 4*lam*(w^2 + lam)", ext)
    return make_covering(kdvl, ["w"], {0: [X], 1: [T]})


def test_miura_flat_identically_in_lambda():
    cov = miura_covering()
    rep = verify_flat(cov)
    assert rep["ok"], rep
    assert not is_abelian(cov)


def test_miura_finite_symmetry():
    cov = miura_covering()
    images = {"w": parse("-w", cov.space),
              "u": parse("-u[0,0] - 2*w^2 - 2*lam", cov.space)}
    assert verify_finite_symmetry(cov, images)["ok"]
    assert verify_finite_symmetry(cov, {})["ok"]  # identity substitution


def test_potential_shift_not_symmetry(kdv):
    cov = potential_covering(kdv)
    rep = verify_finite_symmetry(cov, {"w": parse("w + x", cov.space)})
    assert not rep["ok"]


def test_wahlquist_estabrook_flat():
    sp = JetSpace.create(["x", "t"], ["u"], parameters=["gam"])
    pkdv = make_presentation(sp, [parse("u[0,1] - 3*u[1,0]^2 - u[3,0]", sp)],
                             [("u", (0, 1))])
    ext = sp.extended(nonlocals=["w"])
    X = parse("u[0,0]^2 + 2*w*u[0,0] + w^2 + gam", ext)
    T = parse("(2*u[0,0]*u[2,0] - u[1,0]^2 + 2*u[0,0]^2*u[1,0])"
              " + (u[2,0] + 2*u[0,0]*u[1,0])*2*w + u[1,0]*(2*w^2 - 2*gam)"
              " - 4*gam*u[0,0]^2 - 8*gam*u[0,0]*w - 4*gam*(w^2 + gam)", ext)
    cov = make_covering(pkdv, ["w"], {0: [X], 1: [T]})
    assert verify_flat(cov)["ok"]


def test_abelian_from_current(kdv, camassa_holm):
    mass = HorizontalForm(SP, 1, {(0,): parse("u[0,0]", SP),
                                  (1,): parse("u[2,0] + 3*u[0,0]^2", SP)})
    cov, trivial = abelian_from_current(mass, kdv)
    assert verify_flat(cov)["ok"]
    assert not trivial
    spc = camassa_holm.space
    chcur = HorizontalForm(spc, 1, {
        (0,): parse("u[0,0] - u[2,0]", spc),
        (1,): parse("1/2*u[1,0]^2 - 3/2*u[0,0]^2 + u[0,0]*u[2,0]", spc)})
    covch, _ = abelian_from_current(chcur, camassa_holm)
    assert verify_flat(covch)["ok"]
    # exact currents produce trivializable coverings
    f = parse("u[0,0]*u[1,0]", SP)
    exact = HorizontalForm(SP, 1, {(0,): kdv.d_bar(f, 0), (1,): kdv.d_bar(f, 1)})
    assert abelian_from_current(exact, kdv)[1]
    bad = HorizontalForm(SP, 1, {(0,): parse("u[0,0]", SP), (1,): SP.zero()})
    with pytest.raises(NonlocalObstruction):
        abelian_from_current(bad, kdv)


def test_tangent_covering(kdv, heat):
    tk = tangent_covering(kdv)
    rule = tk.presentation.normal_form(tk.space.jet("v", (0, 1)))
    assert rule == parse("6*u[1,0]*v[0,0] + 6*u[0,0]*v[1,0] + v[3,0]", tk.space)
    th = tangent_covering(heat)
    assert th.presentation.normal_form(th.space.jet("v", (0, 1))) == \
        th.space.jet("v", (2, 0))
    assert verify_flat(tk)["ok"]


def test_cotangent_covering(kdv, heat):
    ck = cotangent_covering(kdv)
    assert "p" in ck.space.odd
    rule = ck.presentation.normal_form(ck.space.jet("p", (0, 1)))
    assert rule == parse("6*u[0,0]*p[1,0] + p[3,0]", ck.space)
    # self-adjoint linearization (l = l*): tangent and cotangent rules coincide
    sp = JetSpace.create(["x", "y"], ["u"])
    toy = make_presentation(sp, [parse("u[2,0] + u[0,0]^3", sp)], [("u", (2, 0))])
    tt = tangent_covering(toy)
    cc = cotangent_covering(toy)
    vr = tt.presentation.normal_form(tt.space.jet("v", (2, 0)))
    pr = cc.presentation.normal_form(cc.space.jet("p", (2, 0)))
    assert render(vr).replace("v", "q") == render(pr).replace("p", "q")


@pytest.mark.parametrize("deps, rules", [
    (["u"], [("u[1,0] - u[0,0]", (1, 0)), ("u[0,1] - u[0,0]", (0, 1))]),
    (["u", "v"], [("u[1,0]", (1, 0)), ("u[0,1]", (0, 1))]),
], ids=["one-dependent", "rules-equal-dependents"])
def test_the_cotangent_covering_refuses_a_dependent_that_leads_two_rules(deps, rules):
    """Its one row of l*_F would take two fiber leading jets, so the shape is an
    input error, named before any work, also where there are as many rules as
    dependents."""
    sp = JetSpace.create(["x", "t"], deps)
    base = make_presentation(sp, [parse(e, sp) for e, _ in rules], [("u", I) for _, I in rules])
    with pytest.raises(ProblemError, match=f"u leads 2 of 2 rules on {len(deps)} dependent"):
        cotangent_covering(base)
    assert base._ops == {}  # refused before l_F* is built


@pytest.mark.parametrize("rules", [
    [("u[0,1] - v[1,0]", "u", (0, 1))],
    [("u[1,0] - v[0,0]", "u", (1, 0)), ("v[0,1] - v[2,0]", "v", (0, 1))],
], ids=["fewer-rules", "one-rule-each"])
def test_the_cotangent_covering_builds_where_no_dependent_leads_two_rules(rules):
    sp = JetSpace.create(["x", "t"], ["u", "v"])
    base = make_presentation(sp, [parse(e, sp) for e, _, _ in rules],
                             [(dep, I) for _, dep, I in rules])
    zero = CDiffOp(sp, 2, len(rules))
    assert verify_flat(cotangent_covering(base))["ok"]
    assert schouten_on_equation(zero, zero, base)["trivial"]


def test_the_coverings_solve_for_the_base_leading_indices():
    """Over every bundled equation, row s of l_F(v) = 0 is solved for
    v^{j_s}_{I_s} and row s of l*_F(p) = 0 for p^s_{I_s}, where u^{j_s}_{I_s}
    is the leading jet of F_s."""
    bundled = [corpus(name) for name in corpus_names()]
    presentations = [Problem(data).presentation for data in bundled if data.get("equations")]
    assert presentations
    for p in presentations:
        m, l = p.space.m, len(p.leadings)
        assert list(tangent_covering(p).presentation.leadings[l:]) == \
            [(m + j, I) for j, I in p.leadings]
        assert list(cotangent_covering(p).presentation.leadings[l:]) == \
            [(m + s, I) for s, (_, I) in enumerate(p.leadings)]


def test_the_lifted_derivatives_commute_on_every_fiber_jet():
    """D~_j D~_i v = D~_i D~_j v on each order-0 fiber jet of the tangent
    covering of every bundled and traffic equation, and of each cotangent
    covering that builds: a fiber with one rule takes both sides from one
    tower of that rule, and one with two rules (u_x = u, u_t = u_x) has the
    jet as a critical pair that make_presentation checks."""
    problems = [corpus(name) for name in corpus_names()] + [
        json.loads(path.read_text()) for path in sorted(TRAFFIC.glob("*.json"))]
    for p in [Problem(data).presentation for data in problems if data.get("equations")]:
        coverings = [tangent_covering(p)]
        try:
            coverings.append(cotangent_covering(p))
        except ProblemError:  # a dependent leads two rules
            pass
        for cov in coverings:
            d, n = cov.presentation.d_bar, cov.space.n
            for fam in cov.fiber_families:
                v = cov.space.jet(fam, (0,) * n)
                for i in range(n):
                    for j in range(i + 1, n):
                        assert d(d(v, i), j) == d(d(v, j), i)


@pytest.mark.parametrize("check_order", [0, 4])
def test_fiber_rules_that_do_not_commute_are_refused(check_order):
    """On u_t = u_x, the fiber rules v_x = u v and v_t = v give
    D_t(u v) = (u_x + u) v and D_x(v) = u v at v_xt: a critical pair at
    pad 0, refused by make_presentation whatever the prolongation order."""
    base = make_presentation(SP, [parse("u[0,1] - u[1,0]", SP)], [("u", (0, 1))],
                             check_order=check_order)
    u = parse("u[0,0]", SP)
    op = CDiffOp(SP, 2, 1, [(0, 0, (1, 0), SP.one()), (0, 0, (0, 0), -u),
                            (1, 0, (0, 1), SP.one()), (1, 0, (0, 0), -SP.one())])
    with pytest.raises(ConfluenceError, match=r"critical pair at jet v\[1,1\]:") as err:
        delta_covering(base, op, [(1, (1, 0)), (1, (0, 1))])
    assert err.value.jet == (1, (1, 1))


def test_delta_covering_cases(kdv):
    dc = delta_covering(kdv, CDiffOp.total_derivative(SP), [(1, (1, 0))])
    assert dc.presentation.normal_form(dc.space.jet("v", (1, 0))).is_zero()
    tk = delta_covering(kdv, kdv.linearization(), [(1, (0, 1))])
    assert tk.presentation.normal_form(tk.space.jet("v", (0, 1))) == \
        parse("6*u[1,0]*v[0,0] + 6*u[0,0]*v[1,0] + v[3,0]", tk.space)
    with pytest.raises(NonSolvableError, match="not a monomial: 0"):  # v_x has no v_t
        delta_covering(kdv, CDiffOp.total_derivative(SP), [(1, (0, 1))])


def test_heat_recursion_operators(heat):
    cov = tangent_covering(heat)
    sols = solve_fiberlinear(cov, Ansatz(1, 1))
    sp = cov.space
    expected = [sp.jet("v", (0, 0)), sp.jet("v", (1, 0)),
                parse("2*t*v[1,0] + x*v[0,0]", sp)]
    index = {}
    for e in [s[0] for s in sols] + expected:
        for m, _ in e.coefficients():
            index.setdefault(m, len(index))

    def vec(e):
        v = [Fraction(0)] * len(index)
        for m, c in e.coefficients():
            v[index[m]] = c
        return v

    assert same_span([vec(s[0]) for s in sols], [vec(e) for e in expected])


def test_kdv_lenard_shadow(kdv):
    tk = tangent_covering(kdv)
    sp = tk.space
    lay = tk.extended(["vm1"], {
        0: [sp.jet("v", (0, 0))],
        1: [sp.jet("v", (2, 0)) + 6 * sp.jet("u", (0, 0)) * sp.jet("v", (0, 0))]}, ())
    assert verify_flat(lay)["ok"]
    sols = solve_fiberlinear(lay, Ansatz(2, 1))
    target = parse("v[2,0] + 4*u[0,0]*v[0,0] + 2*u[1,0]*vm1", lay.space)
    assert verify_shadow([target], lay)[0]
    index = {}
    for e in [s[0] for s in sols] + [target]:
        for m, _ in e.coefficients():
            index.setdefault(m, len(index))

    def vec(e):
        v = [Fraction(0)] * len(index)
        for m, c in e.coefficients():
            v[index[m]] = c
        return v

    got = [vec(s[0]) for s in sols]
    assert rref(got) == rref(got + [vec(target)])  # shadow lies in the span


def test_nonlocal_shadow(kdv):
    cov = potential_covering(kdv)
    phi = parse("t*u[5,0] + (10*t*u[0,0] + 1/3*x)*u[3,0]"
                " + 4*(5*t*u[1,0] + 1/3)*u[2,0]"
                " + 2*(15*t*u[0,0]^2 + x*u[0,0] + 1/3*w)*u[1,0]"
                " + 8/3*u[0,0]^2", cov.space)
    assert verify_shadow([phi], cov)[0]
    assert verify_shadow([parse("u[1,0]", cov.space)], cov)[0]
    assert not verify_shadow([cov.space.nonlocal_var("w")], cov)[0]


def test_reconstruct_step(kdv):
    cov = potential_covering(kdv)
    out = reconstruct_step(cov, [parse("u[1,0]", cov.space)])
    assert verify_flat(out)["ok"]
    assert is_abelian(out)  # Abelian input gives an Abelian output
    # gauge freedom: constants solve the gauge equation, shifting w~ by a
    # constant preserves flatness
    shifted = reconstruct_step(cov, [parse("u[1,0]", cov.space)])
    with pytest.raises(dataclasses.FrozenInstanceError):  # built once, with its fields
        shifted.X = {i: tuple(f for f in fields) for i, fields in shifted.X.items()}
    assert verify_flat(shifted)["ok"]


def test_lifted_and_restricted_derivatives_are_not_cached(kdv):
    """Only the free derivative is cached on an expression: coverings with
    other fields lift the same object their own way, and D_t restricted to
    KdV is not the free D_t taken before it."""
    cov = potential_covering(kdv)
    sp = cov.space
    w, u = sp.nonlocal_var("w"), parse("u[0,0]", sp)
    assert cov.presentation.d_bar(w, 0) == u
    e = parse("w^2*u[1,0] + x*w^-1*u[0,1]", sp)
    before = [cov.presentation.d_bar(e, i) for i in range(2)]
    assert make_covering(kdv, ["w"], {0: [u * u], 1: [cov.X[1][0]]}).presentation.d_bar(
        w, 0) == u * u
    # each covering's tables hold its own fields
    for X in ({0: (u * u,), 1: (parse("1/2*u[1,0]^2", sp),)}, cov.X):
        other = make_covering(kdv, ["w"], {i: list(X[i]) for i in range(2)})
        pres = other.presentation
        assert [pres.d_bar(e, i) for i in range(2)] == [
            pres.normal_form(pres.normal_form(e).total_derivative(
                i, lifted_table(i, {"w": X[i][0]})))
            for i in range(2)]
    assert [cov.presentation.d_bar(e, i) for i in range(2)] == before
    assert w.total_derivative(0, lifted_table(0, {"w": u})) == u
    assert w.total_derivative(0, lifted_table(0, {"w": u * u})) == u * u
    assert u.total_derivative(1) == parse("u[0,1]", sp)
    assert u.total_derivative(1, ImageTable(1, None, cov.presentation.jet_image)) == \
        parse("6*u[0,0]*u[1,0] + u[3,0]", sp)
    assert u.total_derivative(1) == parse("u[0,1]", sp)


def test_a_lifted_derivative_lives_on_the_covering_space(kdv):
    """D~_t of a base expression, through the covering presentation's table,
    lies on the covering's space, with the base's value."""
    cov = potential_covering(kdv)
    got = cov.presentation.d_internal(SP.jet("u", (0, 0)), 1)
    assert got.space is cov.space and got == parse("6*u[0,0]*u[1,0] + u[3,0]", SP)


def test_reconstruct_step_leaves_user_names_alone():
    # KdV written in the name reconstruct_step gives the new nonlocal of w
    sp = JetSpace.create(["x", "t"], ["w_r"])
    kdv = make_presentation(sp, [parse("w_r[0,1] - 6*w_r[0,0]*w_r[1,0] - w_r[3,0]", sp)],
                            [("w_r", (0, 1))])
    cov = make_covering(kdv, ["w"], {0: [parse("w_r[0,0]", sp)],
                                     1: [parse("3*w_r[0,0]^2 + w_r[2,0]", sp)]})
    out = reconstruct_step(cov, [parse("w_r[1,0]", cov.space)])
    assert out.space.nonlocals == ("w", "w_r_")
    assert verify_flat(out)["ok"]


def test_recursion_as_backlund(kdv):
    tk = tangent_covering(kdv)
    sp = tk.space
    lay = tk.extended(["vm1"], {
        0: [sp.jet("v", (0, 0))],
        1: [sp.jet("v", (2, 0)) + 6 * sp.jet("u", (0, 0)) * sp.jet("v", (0, 0))]}, ())
    omega = parse("v[2,0] + 4*u[0,0]*v[0,0] + 2*u[1,0]*vm1", lay.space)
    out = recursion_as_backlund(lay, omega, [parse("u[1,0]", SP)])
    assert out == parse("6*u[0,0]*u[1,0] + u[3,0]", SP)
    ident = recursion_as_backlund(lay, parse("v[0,0]", lay.space),
                                  [parse("u[1,0]", SP)])
    assert ident == parse("u[1,0]", SP)
    # agreement with pseudo_apply on the u_t flow
    u = SP.jet("u", (0, 0))
    R = PseudoOp(CDiffOp.scalar(SP, {(2, 0): SP.one(), (0, 0): 4 * u}),
                 [([2 * SP.jet("u", (1, 0))], CDiffOp.identity(SP, 1))])
    flow = parse("6*u[0,0]*u[1,0] + u[3,0]", SP)
    assert (recursion_as_backlund(lay, omega, [flow]) -
            R.apply([flow], kdv)[0]).is_zero()


def test_cosymmetries_are_fiberlinear_currents(kdv):
    # consistency between modules: each cosymmetry pairs with the
    # tautological fiber through the Green formula into a closed
    # fiber-linear current of the tangent covering
    tk = tangent_covering(kdv)
    basis = solve_cosymmetries(kdv, Ansatz(2, 2, whitelist=("u",)))
    for psi in basis:
        g = green_form(kdv.linearization(), [tk.space.jet("v", (0, 0))], psi)
        assert all(tk.presentation.normal_form(x).is_zero() for x in d_h(g).comps.values())


def potential_covering_unreduced(kdv):
    """The potential-KdV covering with w_t given as 3u^2 + u_xx + F, which
    holds only on the equation."""
    T = "3*u[0,0]^2 + u[2,0] + u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]"
    return make_covering(kdv, ["w"], {0: [parse("u[0,0]", SP)], 1: [parse(T, SP)]})


POTENTIAL_FACTORS = ("u[0,0]", "u[1,0]", "u[0,1]", "u[1,1]", "w", "w^-1", "x")


@pytest.mark.parametrize("make, factors", [
    (potential_covering, POTENTIAL_FACTORS),
    (potential_covering_unreduced, POTENTIAL_FACTORS),
    (tangent_covering, ("u[0,0]", "u[1,0]", "u[0,1]", "v[0,0]", "v[1,0]", "v[0,1]",
                        "v[1,1]")),
    (cotangent_covering, ("u[0,0]", "u[0,1]", "p[0,0]", "p[1,0]", "p[0,1]", "p[1,1]",
                          "t")),
], ids=["potential", "potential-unreduced", "tangent", "cotangent"])
def test_lift_d_matches_its_definition(kdv, make, factors):
    """One pass over the normal form with reduced images equals reducing,
    differentiating on free jets with the raw fields X_i, and reducing."""
    from test_presentations import canonical_terms, rand_poly

    cov = make(kdv)
    pres = cov.presentation
    rng = random.Random(83)
    for _ in range(12):
        e = rand_poly(cov.space, rng, factors)
        for i in range(cov.space.n):
            wmap = {name: cov.X[i][k] for k, name in enumerate(cov.nonlocals)}
            expected = pres.normal_form(pres.normal_form(e).total_derivative(
                i, lifted_table(i, wmap)))
            assert canonical_terms(pres.d_bar(e, i)) == dict(expected.coefficients())


def test_a_base_operator_is_restricted_onto_the_covering(kdv):
    """A covering's presentation takes an operator over the base as it is:
    the restricted operator and its values live on the covering's space,
    which knows the fiber family v."""
    pres = tangent_covering(kdv).presentation
    L = kdv.linearization()
    assert L.space is kdv.space and pres.restrict_operator(L).space is pres.space
    (value,) = pres.restricted(L)([parse("v[1,0]", pres.space)])
    assert value.space is pres.space
    assert render(value) == "6*u[1,0]*v[1,0] + 6*u[2,0]*v[0,0]"


@pytest.mark.parametrize("make, factors", [
    (potential_covering, POTENTIAL_FACTORS),
    (potential_covering_unreduced, POTENTIAL_FACTORS),
    (tangent_covering, ("u[0,0]", "u[1,0]", "u[0,1]", "v[0,0]", "v[1,0]", "v[0,1]",
                        "v[1,1]")),
    (cotangent_covering, ("u[0,0]", "u[0,1]", "p[0,0]", "p[1,0]", "p[0,1]", "p[1,1]",
                          "t")),
], ids=["potential", "potential-unreduced", "tangent", "cotangent"])
def test_lifted_operators_match_their_definition(kdv, make, factors):
    """An operator on the covering, restricted once and applied with D~ from
    one tower, equals the normal form of its free application with the raw
    fields X_i; one operator has coefficients off the equation."""
    from test_presentations import canonical_terms, rand_poly

    cov = make(kdv)
    pres = cov.presentation
    L = kdv.linearization()
    off = CDiffOp.scalar(SP, {(1, 0): parse("u[0,1]", SP), (0, 0): parse("u[0,2]", SP),
                              (0, 1): parse("u[0,0]*u[1,1]", SP)})
    rng = random.Random(89)

    def free_lift(e, i):
        return e.total_derivative(i, lifted_table(
            i, {name: cov.X[i][k] for k, name in enumerate(cov.nonlocals)}))

    for op in (L, L.adjoint(), off):
        lifted = pres.restricted(op)
        for _ in range(4):
            vec = [rand_poly(cov.space, rng, factors)]
            expected = pres.normal_form(op.apply(vec, free_lift))
            assert [canonical_terms(x) for x in lifted(vec)] == \
                [dict(x.coefficients()) for x in expected]
