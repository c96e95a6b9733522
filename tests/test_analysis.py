import json
from fractions import Fraction
from pathlib import Path

import pytest

from jetcalc import (
    Ansatz,
    CDiffOp,
    JetSpace,
    NonlocalObstruction,
    PseudoOp,
    conservation_law_from_cosymmetry,
    euler,
    jacobi,
    lie_derivative_recursion,
    lie_on_cosymmetry,
    nijenhuis_torsion,
    pair_symmetry_cosymmetry,
    make_presentation,
    parse,
    render,
    solve_cosymmetries,
    solve_symmetries,
    verify_cosymmetry,
    verify_current,
    verify_symmetry,
    verify_symplectic,
)
from jetcalc.analysis import AnsatzError
from jetcalc.linalg import rref, same_span

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
    assert cur.form.component((0,)) == parse("u[0,0]^2", SP)
    assert cur.form.component((1,)) == \
        parse("2*u[0,0]*u[2,0] - u[1,0]^2 + 4*u[0,0]^3", SP)
    cur1 = conservation_law_from_cosymmetry([SP.one()], kdv)
    assert cur1.form.component((0,)) == SP.jet("u", (0, 0))
    assert cur1.form.component((1,)) == parse("u[2,0] + 3*u[0,0]^2", SP)
    cur3 = conservation_law_from_cosymmetry(
        [-(parse("u[2,0] + 3*u[0,0]^2", SP))], kdv)
    assert cur3.form.component((0,)) == parse("1/2*u[1,0]^2 - u[0,0]^3", SP)
    assert cur3.form.component((1,)) == \
        parse("u[1,0]*u[3,0] - 1/2*u[2,0]^2 - 3*u[0,0]^2*u[2,0]"
              " + 6*u[0,0]*u[1,0]^2 - 9/2*u[0,0]^4", SP)
    # round trip: the generating section is recovered by euler
    assert euler(cur3.form.component((0,)))[0] == \
        -(parse("u[2,0] + 3*u[0,0]^2", SP))
    for c in (cur, cur1, cur3):
        assert verify_current(c.form, kdv)


def test_conservation_law_checks_its_current(kdv, monkeypatch):
    """A wrong primitive T is caught by a raised error, which `python -O`
    does not drop as it would an assert."""
    from jetcalc import CheckError, analysis

    invert = analysis.invert_total_derivative
    monkeypatch.setattr(analysis, "invert_total_derivative",
                        lambda e, i: invert(e, i) + SP.jet("u", (0, 0)))
    with pytest.raises(CheckError, match="not conserved"):
        conservation_law_from_cosymmetry([parse("2*u[0,0]", SP)], kdv)


def test_verify_current_negative(kdv):
    from jetcalc import HorizontalForm
    bad = HorizontalForm(SP, 1, {(0,): SP.jet("u", (0, 0)), (1,): SP.zero()})
    assert not verify_current(bad, kdv)


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
    from jetcalc import HorizontalForm, d_h
    comps = {
        (1, 2, 3): sp.jet("rho", (0, 0, 0, 0)),
        (0, 2, 3): -flux[0], (0, 1, 3): flux[1], (0, 1, 2): -flux[2]}
    current = HorizontalForm(sp, 3, comps)
    assert pres.reduce_form(d_h(current)).is_zero()
    assert verify_cosymmetry([sp.one()], pres)[0]


def test_pairing(kdv):
    cur = pair_symmetry_cosymmetry([parse("u[1,0]", SP)], [SP.one()], kdv)
    assert verify_current(cur, kdv)
    cur2 = pair_symmetry_cosymmetry(
        [parse("6*u[0,0]*u[1,0] + u[3,0]", SP)], [SP.one()], kdv)
    assert verify_current(cur2, kdv)
    zero = pair_symmetry_cosymmetry([SP.zero()], [SP.one()], kdv)
    assert zero.is_zero()


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
    Rh = PseudoOp(CDiffOp.total_derivative(heat.space, 0), [])
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
    R = lenard(SP)
    L = lie_derivative_recursion([parse("u[1,0]", SP)], R, kdv)
    assert L.local.is_zero() and not L.tails
    assert L.apply1(parse("u[1,0]", SP), kdv).is_zero()
    assert L.apply1(SP.one(), kdv).is_zero()
    ident = PseudoOp(CDiffOp.identity(SP, 1), [])
    L0 = lie_derivative_recursion([parse("6*u[0,0]*u[1,0] + u[3,0]", SP)],
                                  ident, kdv)
    assert L0.apply1(parse("u[1,0]", SP), kdv).is_zero()
    Lg = lie_derivative_recursion([parse("6*t*u[1,0] + 1", SP)], R, kdv)
    assert not Lg.apply1(parse("u[1,0]", SP), kdv).is_zero()


def test_conservation_factorization(kdv, wdvv):
    from jetcalc import verify_conservation_factorization
    rep = verify_conservation_factorization([parse("2*u[0,0]", SP)],
                                            CDiffOp.zero(SP, 1, 1), kdv)
    assert rep["ok"]
    assert not verify_conservation_factorization(
        [parse("2*u[0,0]", SP)], CDiffOp.identity(SP, 1), kdv)["ok"]
    assert not verify_conservation_factorization(
        [parse("u[1,0]", SP)], CDiffOp.zero(SP, 1, 1), kdv)["ok"]
    spv = wdvv.space
    rep4 = verify_conservation_factorization([spv.one()],
                                             CDiffOp.zero(spv, 1, 1), wdvv)
    assert rep4["ok"]


def test_conservation_factorization_more_rules_than_dependents():
    # two rules on one dependent: l_F*(psi) has one row, F has two components
    from jetcalc import make_presentation, verify_conservation_factorization
    pres = make_presentation(SP, [parse("u[1,0] - u[0,0]", SP),
                                  parse("u[0,1] - u[0,0]", SP)],
                             [("u", (1, 0)), ("u", (0, 1))])
    rep = verify_conservation_factorization([SP.one(), -SP.one()],
                                            CDiffOp.zero(SP, 2, 2), pres)
    assert rep["ok"]


def test_symplectic(kdv, wdvv):
    rep = verify_symplectic(CDiffOp.total_derivative(wdvv.space, 0), wdvv,
                            ansatz=Ansatz(2, 1))
    assert rep["ok"]
    repk = verify_symplectic(CDiffOp.total_derivative(SP, 0), kdv)
    assert not repk["ok"] and not repk["membership"]
    assert repk["membership_residual"] != [["0"]]
    assert verify_symplectic(CDiffOp.zero(SP, 1, 1), kdv)["ok"]


# the benchmark's four reference solves, with its reference bases: the
# evolution equations take the internal-coordinate residual route, and
# Camassa-Holm (leading jet u_txx) the route over free jets
SOLVE_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "solve.json"


@pytest.mark.parametrize("label, dependent, parameters, equations, solver, bounds", [
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
], ids=["kdv-symmetries", "kdv-cosymmetries", "boussinesq-symmetries",
        "camassa-holm-symmetries"])
def test_solver_bases_match_reference(label, dependent, parameters, equations,
                                      solver, bounds):
    space = JetSpace.create(["x", "t"], dependent, parameters)
    pres = make_presentation(space, [parse(e, space) for e, _ in equations],
                             [lead for _, lead in equations])
    basis = solver(pres, Ansatz(*bounds))
    expected = json.loads(SOLVE_REFERENCE.read_text())[label]
    assert [[render(x) for x in vec] for vec in basis] == expected
