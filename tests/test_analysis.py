import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from pathlib import Path

import pytest

from jetcalc import (
    Ansatz,
    CDiffOp,
    DiffExpr,
    JetSpace,
    NonlocalObstruction,
    PseudoOp,
    conservation_law_from_cosymmetry,
    euler,
    jacobi,
    linearize,
    make_presentation,
    parse,
    render,
    solve_cosymmetries,
    solve_symmetries,
    verify_cosymmetry,
    verify_symmetry,
    verify_symplectic,
)
from jetcalc import analysis
from jetcalc.analysis import AnsatzError, BilinearNabla, ansatz_monomials
from jetcalc.cli import Problem, run_problem
from jetcalc.corpus import corpus, corpus_names
from jetcalc.coverings import delta_covering, fiber_linear_monomials, solve_fiberlinear
from jetcalc.errors import ProblemError
from jetcalc.linalg import nullspace
from jetcalc.presentations import Presentation
from constructs import (
    commutator_local,
    d_h,
    ev,
    green_form,
    lie_on_cosymmetry,
    nijenhuis_torsion,
    subtract,
    verify_conservation_factorization,
)
from monomials import as_raw
from spans import rref, same_span

SP = JetSpace.create(["x", "t"], ["u"])


def span_coords(exprs):
    index = {}
    for e in exprs:
        for m, _ in e.coefficients():
            index.setdefault(m, len(index))
    out = []
    for e in exprs:
        v = [Fraction(0)] * len(index)
        for m, c in e.coefficients():
            v[index[m]] = c
        out.append(v)
    return out


def assert_same_span(got, expected):
    coords = span_coords(got + expected)
    n = len(got)
    assert same_span(coords[:n], coords[n:])


def lenard(space):
    u = space.jet("u", (0, 0))
    return PseudoOp(CDiffOp.scalar(space, {(2, 0): space.one(), (0, 0): 4 * u}),
                    [([2 * space.jet("u", (1, 0))], CDiffOp.identity(space, 1))])


def test_verify_symmetry(kdv):
    assert verify_symmetry([parse("u[1,0]", SP)], kdv)[0]
    assert verify_symmetry([parse("6*t*u[1,0] + 1", SP)], kdv)[0]
    ok, res = verify_symmetry([parse("u[0,0]^2", SP)], kdv)
    assert not ok and not res[0].is_zero()


def test_kdv_symmetries_order1(kdv):
    sols = solve_symmetries(kdv, Ansatz(1, 2))
    assert len(sols) == 2
    assert_same_span([s[0] for s in sols],
                     [parse("u[1,0]", SP), parse("6*t*u[1,0] + 1", SP)])


def test_kdv_symmetries_order3(kdv):
    sols = solve_symmetries(kdv, Ansatz(3, 3))
    expected = [parse("u[1,0]", SP), parse("6*t*u[1,0] + 1", SP),
                parse("6*u[0,0]*u[1,0] + u[3,0]", SP),
                parse("x*u[1,0] + 3*t*(6*u[0,0]*u[1,0] + u[3,0]) + 2*u[0,0]", SP)]
    assert len(sols) == 4
    assert_same_span([s[0] for s in sols], expected)
    for s in sols:
        assert verify_symmetry(s, kdv)[0]


def test_symmetry_algebra_closure(kdv):
    sols = solve_symmetries(kdv, Ansatz(3, 3))
    for a in sols:
        for b in sols:
            bracket = [kdv.normal_form(x) for x in jacobi(a, b)]
            assert verify_symmetry(bracket, kdv)[0]


def test_heat_symmetries(heat):
    sols = solve_symmetries(heat, Ansatz(1, 2))
    members = ["u[0,0]", "u[1,0]", "2*t*u[1,0] + x*u[0,0]"]
    got = span_coords([s[0] for s in sols] + [parse(m, SP) for m in members])
    n = len(sols)
    assert rref(got[:n]) == rref(got)  # claimed members lie in the span
    for m in members:
        assert verify_symmetry([parse(m, SP)], heat)[0]


@pytest.mark.parametrize("name", ["kdv", "camassa_holm"])
def test_solver_bases_do_not_depend_on_term_order(name, request):
    """The raw sums of a slot may come in any order (one accumulator per row
    orders them by first occurrence) and over a denominator that is not
    reduced: the lin_apply residuals, handed over in reverse sorted order
    with every numerator and denominator tripled, give the basis that the
    solver's own columns give."""
    from jetcalc.analysis import ansatz_monomials, solve_determining

    pres = request.getfixturevalue(name)
    monos = ansatz_monomials(pres, Ansatz(2, 2))
    columns = pres.restricted_columns(pres.linearization())

    def reordered(e):
        return [[as_raw(r, 3) for r in pres.lin_apply([e])]]

    assert any([m for m, c in r[0].items() if c] != [m for m, c in e[0].items() if c]
               for m in monos for rs, es in zip(reordered(m), columns(m))
               for r, e in zip(rs, es))
    basis = solve_determining(monos, 1, columns)
    assert basis and solve_determining(monos, 1, reordered) == basis


def _degree_fold_products(pres, ansatz):
    """The pool as each combination of generators, multiplied out one
    generator at a time from 1, with the zero products dropped."""
    space = pres.space
    allowed = (lambda name: True) if ansatz.whitelist is None \
        else (lambda name: name in ansatz.whitelist)
    gens = [space.indep(i) for i, x in enumerate(space.independent) if allowed(x)]
    gens += [space.jet(k[1], k[2]) for k in pres.internal_jets(ansatz.max_jet_order)
             if allowed(space.dependent[k[1]])]
    pool = []
    for deg in range(ansatz.max_degree + 1):
        for combo in combinations_with_replacement(gens, deg):
            m = space.one()
            for g in combo:
                m = m * g
            if not m.is_zero():
                pool.append(m)
    return pool


@pytest.mark.parametrize("case", ["kdv", "odd", "whitelist"])
def test_ansatz_monomials_are_the_degree_fold_products(kdv, case):
    """Built from the previous degree's products, the pool is the same list,
    in the same order; with an odd dependent, the products with a square
    are zero and dropped, and so is every product above one."""
    odd = kdv.space.extended(dependent=["v"], odd=["v"])
    pres, ansatz = {
        "kdv": (kdv, Ansatz(3, 3)),
        "odd": (make_presentation(odd, [F.rename_space(odd) for F in kdv.components],
                                  kdv.leadings), Ansatz(2, 3)),
        "whitelist": (kdv, Ansatz(4, 3, ("x", "u"))),
    }[case]
    want = _degree_fold_products(pres, ansatz)
    got = ansatz_monomials(pres, ansatz)
    assert len(got) == len(want) and all(
        a == b and list(a.coefficients()) == list(b.coefficients()) for a, b in zip(got, want))
    if case == "odd":
        v = pres.space.jet("v", (0, 0))
        assert len(got) < comb(len(pres.internal_jets(2)) + 2 + 3, 3)
        assert v in got and v * pres.space.jet("v", (1, 0)) in got and v * v not in got


def test_ansatz_monomials_take_one_product_each(kdv, monkeypatch):
    """KdV at order 7 and degree 4: 1,001 monomials, one of them 1, and a
    product for each of the other 1,000 (a degree-fold product per monomial
    would take 3,640)."""
    calls = []
    mul = DiffExpr.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(DiffExpr, "__mul__", counted)
    pool = ansatz_monomials(kdv, Ansatz(7, 4))
    assert len(pool) == 1001 and len(calls) == 1000


@pytest.mark.parametrize("solver", [solve_symmetries, solve_cosymmetries])
def test_the_ansatz_is_counted_before_the_scaling_is_read(kdv, solver):
    """KdV at order 12 and degree 5: 15 generators, C(20, 5) = 15,504
    monomials, refused before the scaling weights (a nullspace over the
    variables) are computed."""
    pres = Presentation(kdv.space, kdv.components, kdv.leadings, kdv.rhss, kdv.check_order)
    with pytest.raises(ProblemError, match="^ansatz of 15504 monomials beyond the cap of 10000$"):
        solver(pres, Ansatz(12, 5))
    assert "scaling" not in pres.__dict__


def test_empty_ansatz_errors(kdv):
    with pytest.raises(AnsatzError):
        Ansatz(-1, 2)


def test_cosymmetries(kdv):
    assert verify_cosymmetry([SP.one()], kdv)[0]
    assert verify_cosymmetry([parse("u[2,0] + 3*u[0,0]^2", SP)], kdv)[0]
    assert not verify_cosymmetry([parse("u[1,0]", SP)], kdv)[0]
    sols = solve_cosymmetries(kdv, Ansatz(2, 2, whitelist=("u",)))
    assert len(sols) == 3
    assert_same_span([s[0] for s in sols],
                     [SP.one(), SP.jet("u", (0, 0)),
                      parse("3*u[0,0]^2 + u[2,0]", SP)])


def test_conservation_laws_exact(kdv):
    cur = conservation_law_from_cosymmetry([parse("2*u[0,0]", SP)], kdv)
    assert cur.comps[(0,)] == parse("u[0,0]^2", SP)
    assert cur.comps[(1,)] == \
        parse("2*u[0,0]*u[2,0] - u[1,0]^2 + 4*u[0,0]^3", SP)
    cur1 = conservation_law_from_cosymmetry([SP.one()], kdv)
    assert cur1.comps[(0,)] == SP.jet("u", (0, 0))
    assert cur1.comps[(1,)] == parse("u[2,0] + 3*u[0,0]^2", SP)
    cur3 = conservation_law_from_cosymmetry(
        [-(parse("u[2,0] + 3*u[0,0]^2", SP))], kdv)
    assert cur3.comps[(0,)] == parse("1/2*u[1,0]^2 - u[0,0]^3", SP)
    assert cur3.comps[(1,)] == \
        parse("u[1,0]*u[3,0] - 1/2*u[2,0]^2 - 3*u[0,0]^2*u[2,0]"
              " + 6*u[0,0]*u[1,0]^2 - 9/2*u[0,0]^4", SP)
    # round trip: the generating section is recovered by euler
    assert euler(cur3.comps[(0,)])[0] == \
        -(parse("u[2,0] + 3*u[0,0]^2", SP))
    for c in (cur, cur1, cur3):
        assert all(kdv.normal_form(x).is_zero() for x in d_h(c).comps.values())


def test_conservation_law_checks_its_current(kdv, monkeypatch):
    """A wrong primitive T is caught by a raised error, which `python -O`
    does not drop as it would an assert."""
    from jetcalc import CheckError, analysis

    invert = analysis.invert_total_derivative
    monkeypatch.setattr(analysis, "invert_total_derivative",
                        lambda e: invert(e) + SP.jet("u", (0, 0)))
    with pytest.raises(CheckError, match="not conserved"):
        conservation_law_from_cosymmetry([parse("2*u[0,0]", SP)], kdv)


def test_verify_current_negative(kdv):
    from jetcalc import HorizontalForm
    bad = HorizontalForm(SP, 1, {(0,): SP.jet("u", (0, 0)), (1,): SP.zero()})
    assert not all(kdv.normal_form(x).is_zero() for x in d_h(bad).comps.values())


def test_continuity_equation_current():
    # fluid-dynamics continuity equation in four independent variables
    sp = JetSpace.create(["t", "x1", "x2", "x3"], ["rho", "v1", "v2", "v3"])
    flux = [sp.jet("rho", (0, 0, 0, 0)) * sp.jet(f"v{i}", (0, 0, 0, 0))
            for i in (1, 2, 3)]
    F = sp.jet("rho", (1, 0, 0, 0))
    for i, f in enumerate(flux):
        K = tuple(1 if k == i + 1 else 0 for k in range(4))
        F = F + f.total_derivative(i + 1)
    pres = __import__("jetcalc").make_presentation(
        sp, [F], [("rho", (1, 0, 0, 0))])
    from jetcalc import HorizontalForm
    comps = {
        (1, 2, 3): sp.jet("rho", (0, 0, 0, 0)),
        (0, 2, 3): -flux[0], (0, 1, 3): flux[1], (0, 1, 2): -flux[2]}
    current = HorizontalForm(sp, 3, comps)
    assert all(pres.normal_form(x).is_zero() for x in d_h(current).comps.values())
    assert verify_cosymmetry([sp.one()], pres)[0]


def test_pairing(kdv):
    """The Green-formula pairing of a symmetry with a cosymmetry is a
    current: closed on the equation."""
    cur = green_form(kdv.linearization(), [parse("u[1,0]", SP)], [SP.one()])
    assert all(kdv.normal_form(x).is_zero() for x in d_h(cur).comps.values())
    cur2 = green_form(kdv.linearization(), [parse("6*u[0,0]*u[1,0] + u[3,0]", SP)], [SP.one()])
    assert all(kdv.normal_form(x).is_zero() for x in d_h(cur2).comps.values())
    zero = green_form(kdv.linearization(), [SP.zero()], [SP.one()])
    assert all(c.is_zero() for c in zero.comps.values())


def test_lie_on_cosymmetry(kdv):
    assert all(x.is_zero() for x in
               lie_on_cosymmetry([parse("u[1,0]", SP)], [SP.one()], kdv))
    out = lie_on_cosymmetry([parse("u[1,0]", SP)], [SP.jet("u", (0, 0))], kdv)
    assert verify_cosymmetry(out, kdv)[0]
    assert all(x.is_zero() for x in
               lie_on_cosymmetry([SP.zero()], [SP.jet("u", (0, 0))], kdv))


def test_nijenhuis_torsion(kdv, heat):
    R = lenard(SP)
    flow = parse("6*u[0,0]*u[1,0] + u[3,0]", SP)
    tor = nijenhuis_torsion(R, [parse("u[1,0]", SP)], [flow], kdv)
    assert all(x.is_zero() for x in tor)
    Rh = PseudoOp(CDiffOp.total_derivative(heat.space), [])
    torh = nijenhuis_torsion(Rh, [heat.space.jet("u", (1, 0))],
                             [heat.space.jet("u", (0, 0))], heat)
    assert all(x.is_zero() for x in torh)
    Rc = PseudoOp(CDiffOp.mult(SP, SP.num(7)), [])
    tor0 = nijenhuis_torsion(Rc, [parse("u[1,0]", SP)],
                             [parse("u[0,0]*u[1,0]", SP)], kdv)
    assert all(x.is_zero() for x in tor0)


def test_hereditary_consequence(kdv):
    R = lenard(SP)
    flows = [[parse("u[1,0]", SP)]]
    for _ in range(3):
        flows.append([kdv.normal_form(R.apply(flows[-1], kdv)[0])])
    for a in range(4):
        for b in range(4):
            if a + b <= 3:
                br = [kdv.normal_form(x) for x in jacobi(flows[a], flows[b])]
                assert all(x.is_zero() for x in br), (a, b)


def test_recursion_kernel_invariance(kdv):
    R = lenard(SP)
    for phi in (parse("u[1,0]", SP), parse("6*t*u[1,0] + 1", SP)):
        image = R.apply([phi], kdv)
        assert verify_symmetry(image, kdv)[0]


def test_pseudo_apply_acceptance(kdv):
    R = lenard(SP)
    phi4 = kdv.normal_form(parse("x*u[1,0] + 3*t*u[0,1] + 2*u[0,0]", SP))
    with pytest.raises(NonlocalObstruction):
        R.apply([phi4], kdv)
    got = R.apply([parse("6*t*u[1,0] + 1", SP)], kdv)[0]
    assert (got - kdv.normal_form(2 * phi4)).is_zero()


def test_lie_derivative_recursion(kdv):
    def lie_along(phi, R, pres):
        """L_phi(R) = E_phi(R) - [l_phi, R], kept as a formal pseudo-operator."""
        lphi = linearize([pres.normal_form(p) for p in phi], pres.space)
        return subtract(ev(R, phi), commutator_local(R, lphi)).normalized()

    R = lenard(SP)
    L = lie_along([parse("u[1,0]", SP)], R, kdv)
    assert L.local.is_zero() and not L.tails
    assert L.apply([parse("u[1,0]", SP)], kdv)[0].is_zero()
    assert L.apply([SP.one()], kdv)[0].is_zero()
    ident = PseudoOp(CDiffOp.identity(SP, 1), [])
    L0 = lie_along([parse("6*u[0,0]*u[1,0] + u[3,0]", SP)], ident, kdv)
    assert L0.apply([parse("u[1,0]", SP)], kdv)[0].is_zero()
    Lg = lie_along([parse("6*t*u[1,0] + 1", SP)], R, kdv)
    assert not Lg.apply([parse("u[1,0]", SP)], kdv)[0].is_zero()


def test_conservation_factorization(kdv, wdvv):
    rep = verify_conservation_factorization([parse("2*u[0,0]", SP)],
                                            CDiffOp(SP, 1, 1), kdv)
    assert rep["ok"]
    assert not verify_conservation_factorization(
        [parse("2*u[0,0]", SP)], CDiffOp.identity(SP, 1), kdv)["ok"]
    assert not verify_conservation_factorization(
        [parse("u[1,0]", SP)], CDiffOp(SP, 1, 1), kdv)["ok"]
    # D_x is skew-adjoint: refused before the factorization is tested
    assert verify_conservation_factorization(
        [parse("2*u[0,0]", SP)], CDiffOp.total_derivative(SP), kdv) == \
        {"ok": False, "reason": "delta' is not self-adjoint"}
    spv = wdvv.space
    rep4 = verify_conservation_factorization([spv.one()],
                                             CDiffOp(spv, 1, 1), wdvv)
    assert rep4["ok"]


def test_conservation_factorization_more_rules_than_dependents():
    # two rules on one dependent: l_F*(psi) has one row, F has two components
    pres = make_presentation(SP, [parse("u[1,0] - u[0,0]", SP),
                                  parse("u[0,1] - u[0,0]", SP)],
                             [("u", (1, 0)), ("u", (0, 1))])
    rep = verify_conservation_factorization([SP.one(), -SP.one()],
                                            CDiffOp(SP, 2, 2), pres)
    assert rep["ok"]


def test_symplectic(kdv, wdvv):
    rep = verify_symplectic(CDiffOp.total_derivative(wdvv.space), wdvv,
                            ansatz=Ansatz(2, 1))
    assert rep["ok"]
    repk = verify_symplectic(CDiffOp.total_derivative(SP), kdv)
    assert not repk["ok"] and not repk["membership"]
    assert repk["membership_residual"] != [["0"]]
    assert verify_symplectic(CDiffOp(SP, 1, 1), kdv)["ok"]


def test_symplectic_closedness_takes_each_variation_once(wdvv, monkeypatch):
    """The closedness check pairs every two of its test arguments and takes
    E_p(delta) of each argument p once, not once for each pair it is in: on
    WDVV with D_x, which passes, one build per argument of the default
    ansatz, each on its own argument."""
    built = []
    ell = analysis.ell_delta_op

    def counting(delta, phi):
        built.append(phi)
        return ell(delta, phi)

    monkeypatch.setattr(analysis, "ell_delta_op", counting)
    assert verify_symplectic(CDiffOp.total_derivative(wdvv.space), wdvv)["ok"]
    args = wdvv.space.m * len(ansatz_monomials(wdvv, analysis.SYMPLECTIC_ANSATZ))
    assert len(built) == args == len({id(p) for p in built}) > 1


def test_symplectic_dx_on_potential_kdv():
    """D_x is symplectic on potential KdV, an evolution equation."""
    pkdv = make_presentation(SP, [parse("u[0,1] - 3*u[1,0]^2 - u[3,0]", SP)],
                             [("u", (0, 1))])
    assert pkdv.is_evolutionary()
    rep = verify_symplectic(CDiffOp.total_derivative(SP), pkdv)
    assert rep["membership"] and rep["closed"] and rep["ok"]


@pytest.mark.parametrize("entries, closed", [
    (("w[0,0]", "0", "0"), False), (("w[0,0]", "-v[0,0]", "u[0,0]"), False),
    (("1", "0", "0"), True), (("u[0,0]^2", "0", "0"), True)])
def test_symplectic_closedness_of_a_constant_two_form(entries, closed):
    """On u_t = v_t = w_t = 0 the skew multiplication operator with entries
    (d12, d13, d23) is a 2-form on (u, v, w), closed exactly when
    d_u d23 - d_v d13 + d_w d12 = 0."""
    sp = JetSpace.create(["x", "t"], ["u", "v", "w"])
    pres = make_presentation(sp, [sp.jet(j, (0, 1)) for j in range(3)],
                             [(j, (0, 1)) for j in range(3)])
    d12, d13, d23 = (parse(a, sp) for a in entries)
    delta = CDiffOp(sp, 3, 3, [(0, 1, (0, 0), d12), (0, 2, (0, 0), d13), (1, 2, (0, 0), d23),
                               (1, 0, (0, 0), -d12), (2, 0, (0, 0), -d13), (2, 1, (0, 0), -d23)])
    assert (d23.partial(('j', 0, (0, 0))) - d13.partial(('j', 1, (0, 0)))
            + d12.partial(('j', 2, (0, 0)))).is_zero() == closed
    rep = verify_symplectic(delta, pres, ansatz=Ansatz(1, 1))
    assert rep["membership"]
    assert rep["closed"] == rep["ok"] == closed
    assert len(rep["closed_failures"]) == (0 if closed else 1)


# the benchmark's four reference solves, with its reference bases; every
# presentation takes the one residual route, Presentation.restricted
SOLVE_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "solve.json"


BENCH_SOLVES = [
    ("kdv-symmetries-7-4", ["u"], [],
     [("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", ("u", (0, 1)))],
     solve_symmetries, (7, 4)),
    ("kdv-cosymmetries-5-3", ["u"], [],
     [("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", ("u", (0, 1)))],
     solve_cosymmetries, (5, 3)),
    ("boussinesq-symmetries-5-3", ["u", "v"], ["sigma"],
     [("u[0,1] - u[1,0]*v[0,0] - u[0,0]*v[1,0] - sigma*v[3,0]", ("u", (0, 1))),
      ("v[0,1] - u[1,0] - v[0,0]*v[1,0]", ("v", (0, 1)))],
     solve_symmetries, (5, 3)),
    ("camassa-holm-symmetries-3-3", ["u"], [],
     [("u[0,1] - u[2,1] - u[0,0]*u[3,0] - 2*u[1,0]*u[2,0] + 3*u[0,0]*u[1,0]",
       ("u", (2, 1)))],
     solve_symmetries, (3, 3)),
]


@pytest.mark.parametrize("label, dependent, parameters, equations, solver, bounds",
                         BENCH_SOLVES, ids=["kdv-symmetries", "kdv-cosymmetries",
                                            "boussinesq-symmetries", "camassa-holm-symmetries"])
def test_solver_bases_match_reference(label, dependent, parameters, equations,
                                      solver, bounds):
    space = JetSpace.create(["x", "t"], dependent, parameters)
    pres = make_presentation(space, [parse(e, space) for e, _ in equations],
                             [lead for _, lead in equations])
    basis = solver(pres, Ansatz(*bounds))
    expected = json.loads(SOLVE_REFERENCE.read_text())[label]
    assert [[render(x) for x in vec] for vec in basis] == expected


def _presentation(name):
    return Problem(corpus(name)).presentation


@pytest.mark.parametrize("name", ["boussinesq", "kdv-3comp"])
def test_one_tower_per_monomial_serves_every_slot(name, monkeypatch):
    """solve_symmetries takes d_internal len(monomials) times per step of
    the restricted l_F's shared plan, whatever the number of slots; one
    tower per slot and candidate would take m times as many towers.  The
    jets' images also reach d_internal (through their rules' towers), so a
    first solve fills the image tables and the second is counted."""
    pres = _presentation(name)
    ansatz = Ansatz(3, 2)
    assert solve_symmetries(pres, ansatz)
    calls = []
    d_internal = Presentation.d_internal
    monkeypatch.setattr(Presentation, "d_internal",
                        lambda self, e, i: calls.append(i) or d_internal(self, e, i))
    assert solve_symmetries(pres, ansatz)
    steps, _ = pres.restricted_columns(pres.linearization()).func.__self__._plan[True]
    assert pres.space.m > 1 and steps
    assert len(calls) == len(ansatz_monomials(pres, ansatz)) * len(steps)


@pytest.mark.parametrize("solver, route, bounds", [
    (solve_symmetries, "lin_apply", (3, 3)),
    (solve_cosymmetries, "adj_apply", (3, 2)),
], ids=["symmetries", "cosymmetries"])
def test_column_bases_match_the_per_vector_route(solver, route, bounds):
    """On the 3-component KdV system, the bases equal those of one vector
    per slot and monomial through lin_apply or adj_apply, each residual's
    coefficients a row, then nullspace, to the rendered byte."""
    pres = _presentation("kdv-3comp")
    monos = ansatz_monomials(pres, Ansatz(*bounds))
    zero, slots = pres.space.zero(), 3
    cands = [[m if k == slot else zero for k in range(slots)]
             for slot in range(slots) for m in monos]
    rows = {}
    for j, cand in enumerate(cands):
        for comp, expr in enumerate(getattr(pres, route)(cand)):
            for mono, c in expr.coefficients():
                rows.setdefault((comp, mono), {})[j] = c
    expected = [[sum((cands[j][k] * c for j, c in enumerate(vec) if c), zero)
                 for k in range(slots)] for vec in nullspace(list(rows.values()), len(cands))]
    got = solver(pres, Ansatz(*bounds))
    assert expected and got == expected
    assert [[render(x) for x in vec] for vec in got] == \
        [[render(x) for x in vec] for vec in expected]


@pytest.mark.parametrize("adjoint", [False, True], ids=["bivector", "symplectic"])
def test_bilinear_nabla_records_theta_on_the_equation(kdv, adjoint):
    """Theta of u D_x does not vanish on KdV (u D_x is neither a bivector
    nor symplectic there).  BilinearNabla's one cofactor pass records Theta
    restricted to the equation, equal to restrict_operator's, because each
    coefficient's reduce has its normal form as normal form; and Theta is
    that restriction plus the nabla read off the cofactors."""
    theta = kdv.theta(CDiffOp.scalar(SP, {(1, 0): SP.jet("u", (0, 0))}), adjoint)
    restricted = kdv.restrict_operator(theta)
    assert not restricted.is_zero()
    nabla = BilinearNabla(kdv, theta)
    assert nabla.restricted == restricted
    for *_, coeff in theta.terms():
        assert kdv.reduce(coeff).normal_form == kdv.normal_form(coeff)
    # Theta(arg) = restricted(arg) + nabla(F, arg): pair both sides with chi
    # and compare <nabla(F, arg), chi> with <F, nabla*1(chi, arg)> by Euler
    arg, chi = [parse("u[1,0]*u[0,0]", SP)], [parse("u[2,0] + 1", SP)]
    lhs = (theta - restricted).apply(arg)[0] * chi[0]
    rhs = kdv.components[0] * nabla.star1(chi, arg)[0]
    assert all(e.is_zero() for e in euler(lhs - rhs))


# -- the split by scaling weight ----------------------------------------------


def _fields(w):
    """A packed weight's scalings, one balanced 32-bit field each."""
    out = []
    while w:
        f = (w + (1 << 31)) % (1 << 32) - (1 << 31)
        out.append(f)
        w = (w - f) >> 32
    return out


def _weight(pres, key):
    """The scaling weight of a variable key, a jet u_K weighing w(u) - sum_i K_i w(x^i)."""
    w = pres.scaling
    return w[key[:2]] - sum(d * w['i', i] for i, d in enumerate(key[2] if key[0] == 'j' else ()))


def _residual_rows(apply, monos, slots):
    """{(component, monomial): row} of the determining system, each row
    {column: coefficient} read off the coefficients() of the residual
    expressions apply(vector) on the vector holding monomial i at `slot` and
    0 elsewhere, column slot * len(monos) + i as in the solver."""
    n, rows, zero = len(monos), {}, monos[0].space.zero()
    for i, m in enumerate(monos):
        for slot in range(slots):
            for comp, expr in enumerate(apply([m if k == slot else zero for k in range(slots)])):
                for mono, c in expr.coefficients():
                    rows.setdefault((comp, mono), {})[slot * n + i] = c
    return rows


def _whole_system_basis(pres, bounds, slots, adjoint=False):
    """The solutions from one nullspace over every row of the determining
    system, each read off a residual expression (not the solver's raw
    sums), in the solver's column order, as the solver gave them before
    the split."""
    monos = ansatz_monomials(pres, Ansatz(*bounds))
    rows, n = _residual_rows(pres.adj_apply if adjoint else pres.lin_apply, monos, slots), len(monos)
    zero = pres.space.zero()
    return [[sum((monos[j % n] * c for j, c in enumerate(vec) if c and j // n == k), zero)
             for k in range(slots)] for vec in nullspace(list(rows.values()), slots * n)]


@pytest.mark.parametrize("name, dimension, line", [
    ("kdv", 1, (1, 3, -2)), ("camassa-holm", 1, (0, 1, -1)), ("boussinesq", 2, None),
    ("u[0,1] - u[0,0]^2*u[1,0]", 2, None),
])
def test_scaling_weights_make_every_component_homogeneous(name, dimension, line):
    """KdV has one scaling, (w_x, w_t, w_u) on the line of (1, 3, -2),
    Camassa-Holm one, with w_x = 0, and Boussinesq (with its parameter) and
    u_t = u^2 u_x (whose reduced row echelon basis holds 1/2) a 2-dimensional
    group.  Under the packed weights every monomial of F_s weighs W_s, as it
    does under each scaling apart."""
    if name in corpus_names():
        pres = _presentation(name)
    else:
        space = JetSpace.create(["x", "t"], ["u"])
        pres = make_presentation(space, [parse(name, space)], [("u", (0, 1))])
    space = pres.space
    keys = [('i', i) for i in range(space.n)] + [('j', j, (0,) * space.n) for j in range(space.m)]
    weights = [_weight(pres, k) for k in keys]
    assert max(len(_fields(w)) for w in weights) == dimension
    if line:
        assert any(weights) and all(weights[a] * line[b] == line[a] * weights[b]
                                    for a in range(3) for b in range(3))
    for s, F in enumerate(pres.components):
        for factors in F.exponents():
            assert sum(e * _weight(pres, k) for k, e in factors) == pres.scaling['F', s]


def _scaling_with_component_columns(pres):
    """The weights from one nullspace of a row per monomial of F_s, its weight
    less W_s, over a column per variable and per component, each basis vector
    cleared of denominators and packed as Presentation.scaling packs them."""
    sp = pres.space
    keys = [('i', k) for k in range(sp.n)] + [('j', j) for j in range(sp.m)] + \
        [('q', q) for q in sp.parameters] + [('F', s) for s in range(len(pres.components))]
    col, rows = {k: c for c, k in enumerate(keys)}, []
    for s, F in enumerate(pres.components if not sp.nonlocals else ()):
        for factors in F.exponents():
            row = dict.fromkeys(range(len(keys)), 0)
            row[col['F', s]] = -1
            for key, e in factors:
                row[col[key[:2]]] += e
                for i, d in enumerate(key[2] if key[0] == 'j' else ()):
                    row[i] -= e * d
            rows.append(row)
    basis = nullspace(rows, len(keys)) if rows else []
    basis = [[x * lcm(*(y.denominator for y in vec)) for x in vec] for vec in basis]
    return {key: sum(int(v[c]) << 32 * k for k, v in enumerate(basis))
            for c, key in enumerate(keys)}


def _scaling_cases():
    space = JetSpace.create(["x", "t"], ["u"])
    yield from (_presentation(name) for name in (
        "kdv", "heat", "burgers", "camassa-holm", "boussinesq", "kdv-3comp", "kdv6", "wdvv",
        "weingarten", "camassa-holm-2comp", "potential-kdv-we"))
    for text in ("u[0,1]", "u[0,1] - x*u[1,0]", "u[0,1] - u[2,0] - u[0,0] - u[0,0]^2"):
        yield make_presentation(space, [parse(text, space)], [("u", (0, 1))])
    yield next(iter(Problem(corpus("kdv")).coverings.values())).presentation


def test_scaling_weights_are_those_of_the_system_with_component_columns():
    """Presentation.scaling solves for the variables' weights alone, each
    monomial's weight less its component's first, and reads W_s from the
    first: the same packed weights as the system with a column per
    component, also with an explicit x, a one-monomial component, no scaling
    at all, and nonlocals (all 0)."""
    cases = list(_scaling_cases())
    assert any(p.space.nonlocals for p in cases)
    for pres in cases:
        fresh = Presentation(pres.space, pres.components, pres.leadings, pres.rhss,
                             pres.check_order)
        assert fresh.scaling == _scaling_with_component_columns(pres)
        assert list(fresh.scaling) == list(_scaling_with_component_columns(pres))


def _blocks(monkeypatch):
    """The rows of each block the solver peels, recorded."""
    sizes, peel = [], analysis.peel

    def recorded(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return peel(rows)

    monkeypatch.setattr(analysis, "peel", recorded)
    return sizes


def test_an_equation_without_a_scaling_is_solved_as_one_block(monkeypatch):
    """u_t = u_xx + u + u^2 has only the trivial scaling: every weight is 0,
    the system is peeled as one block, and the basis is the whole-system
    nullspace's."""
    space = JetSpace.create(["x", "t"], ["u"])
    pres = make_presentation(space, [parse("u[0,1] - u[2,0] - u[0,0] - u[0,0]^2", space)],
                             [("u", (0, 1))])
    assert not any(pres.scaling.values())
    sizes = _blocks(monkeypatch)
    basis = solve_symmetries(pres, Ansatz(3, 2))
    assert len(sizes) == 1 and basis == _whole_system_basis(pres, (3, 2), 1)


def test_camassa_holm_splits_into_small_blocks(monkeypatch):
    """Camassa-Holm (3,3): 10,370 rows in all, the largest block at most 15%
    of them, and the basis the whole-system nullspace's."""
    pres = _presentation("camassa-holm")
    sizes = _blocks(monkeypatch)
    basis = solve_symmetries(pres, Ansatz(3, 3))
    assert sum(sizes) == 10370 and max(sizes) <= 0.15 * 10370 and len(sizes) > 1
    assert basis == _whole_system_basis(pres, (3, 3), 1)


@pytest.mark.parametrize("name, solver, bounds, adjoint", [
    ("boussinesq", solve_symmetries, (3, 2), False),
    ("kdv-3comp", solve_cosymmetries, (3, 2), True),
], ids=["boussinesq-symmetries", "kdv-3comp-cosymmetries"])
def test_block_bases_equal_the_whole_system_basis(monkeypatch, name, solver, bounds, adjoint):
    """With a 2-dimensional scaling group, and with cosymmetries' offsets W_s,
    the blocks' survivors, eliminated once, give the whole-system basis."""
    pres = _presentation(name)
    sizes = _blocks(monkeypatch)
    basis = solver(pres, Ansatz(*bounds))
    slots = len(pres.components) if adjoint else pres.space.m
    assert len(sizes) > 1 and basis and basis == _whole_system_basis(pres, bounds, slots, adjoint)


def _odd_lenard_covering(kdv):
    """KdV's tangent covering with an odd fiber p, l_F(p) = 0, and an odd
    nonlocal q with q_x = p, q_t = p_xx + 6 u p."""
    cov = delta_covering(kdv, kdv.linearization(), [(1, (0, 1))], odd=True)
    p = cov.space.jet("p", (0, 0))
    return cov.extended(["q"], {0: [p], 1: [parse("p[2,0] + 6*u[0,0]*p[0,0]", cov.space)]},
                        ["q"])


FRACTIONAL = ["u[0,1] - 1/4*u[3,0] - 3/2*u[0,0]*u[1,0]"]  # KdV with den > 1


def _solve_case(case, kdv):
    """(solve, apply, monos, slots, columns) of a case: the solver call, the
    residual route its rows are read against, its candidates and the
    columns it hands them to."""
    if case == "odd-covering":
        cov = _odd_lenard_covering(kdv)
        ansatz, op = Ansatz(2, 2), cov.base.linearization()
        return (lambda: solve_fiberlinear(cov, ansatz), cov.presentation.restricted(op),
                fiber_linear_monomials(cov, ansatz), cov.base.space.m,
                cov.presentation.restricted_columns(op))
    name, _, kind = case.partition(":")
    if name == "fractional":
        space = JetSpace.create(["x", "t"], ["u"])
        pres = make_presentation(space, [parse(FRACTIONAL[0], space)], [("u", (0, 1))])
    else:
        pres = _presentation(name)
    adjoint = kind == "cosymmetries"
    ansatz = Ansatz(3, 2) if name == "boussinesq" else Ansatz(3, 3)
    return (lambda: (solve_cosymmetries if adjoint else solve_symmetries)(pres, ansatz),
            pres.adj_apply if adjoint else pres.lin_apply, ansatz_monomials(pres, ansatz),
            len(pres.components) if adjoint else pres.space.m,
            pres.restricted_columns(pres.linearization(adjoint)))


def _typed(rows):
    """The rows in a sorted list, each as its sorted (column, type name, entry)."""
    return sorted(sorted((j, type(c).__name__, c) for j, c in row.items()) for row in rows)


@pytest.mark.parametrize("case", [
    "kdv:symmetries", "kdv:cosymmetries", "boussinesq:symmetries", "camassa-holm:symmetries",
    "fractional:symmetries", "fractional:cosymmetries", "odd-covering"])
def test_solver_rows_are_the_residuals_coefficients(case, kdv, monkeypatch):
    """The rows that solve_determining builds from the raw sums of the
    columns are the rows read off the residual expressions of lin_apply,
    adj_apply or the covering's restricted operator, each entry the same
    value of the same type (an int, or a reduced Fraction), on an
    evolution equation, a non-evolution one, two components with a
    parameter, coefficients over a denominator, and a fiber-linear solve
    with odd fibers and an odd nonlocal.  Some raw sums are 0; none
    reaches a row."""
    solve, apply, monos, slots, columns = _solve_case(case, kdv)
    rows, peel = [], analysis.peel

    def recorded(block):
        block = list(block)
        rows.extend(block)
        return peel(block)

    monkeypatch.setattr(analysis, "peel", recorded)
    assert solve()
    expected = list(_residual_rows(apply, monos, slots).values())
    assert _typed(rows) == _typed(expected)
    assert all(c for row in rows for c in row.values())
    assert any(not c for m in monos for col in columns(m) for sums, _, _, _ in col
               for c in sums.values())
    fractions = any(type(c) is Fraction for row in rows for c in row.values())
    assert fractions == case.startswith("fractional")


def test_every_ansatz_monomial_is_its_own_normal_form(monkeypatch):
    """The solvers hand the determining columns each ansatz monomial with no
    normal form taken, which is exact because the pool is built from
    internal jets: on the benchmark's solves and every solve task of the
    bundled problems, each monomial equals its normal form."""
    seen = []
    original = Presentation.restricted_columns

    def checked(self, op):
        columns = original(self, op)

        def check(e):
            seen.append(self.normal_form(e) == e)
            return columns(e)
        return check

    monkeypatch.setattr(Presentation, "restricted_columns", checked)
    for label, dependent, parameters, equations, solver, bounds in BENCH_SOLVES:
        space = JetSpace.create(["x", "t"], dependent, parameters)
        pres = make_presentation(space, [parse(e, space) for e, _ in equations],
                                 [lead for _, lead in equations])
        assert solver(pres, Ansatz(*bounds))
    for name in corpus_names():
        tasks = [t for t in corpus(name)["tasks"]
                 if t["kind"] in ("symmetries", "cosymmetries", "recursion-fiberlinear")]
        if tasks:
            assert run_problem(dict(corpus(name), tasks=tasks))["status"] == "ok"
    assert len(seen) > 2000 and all(seen)
