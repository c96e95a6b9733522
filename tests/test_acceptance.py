"""Acceptance suite: every criterion at its stated tolerance (exact
rational arithmetic throughout, tolerance 0).  Run with `pytest -s` to see
one pass/fail line per criterion."""

import random
from fractions import Fraction

from jetcalc import (
    Ansatz,
    CDiffOp,
    HorizontalForm,
    JetSpace,
    NonlocalObstruction,
    PseudoOp,
    are_compatible,
    conservation_law_from_cosymmetry,
    d_h,
    euler,
    green_form,
    helmholtz,
    is_hamiltonian,
    jacobi,
    magri_hierarchy,
    make_covering,
    make_presentation,
    pairing_density,
    parse,
    poisson_bracket,
    schouten_on_equation,
    solve_cosymmetries,
    solve_fiberlinear,
    solve_symmetries,
    tangent_covering,
    verify_bivector_on_equation,
    verify_equivalence,
    verify_shadow,
    verify_finite_symmetry,
    verify_flat,
    verify_symplectic,
)
from jetcalc.presentations import EquivalenceWitness
from constructs import hamiltonian_on
from spans import rref, same_span

SP = JetSpace.create(["x", "t"], ["u"])
SP1 = JetSpace.create(["x"], ["u"])


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def coords(exprs):
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


def spans_equal(got, expected):
    cs = coords(got + expected)
    return same_span(cs[:len(got)], cs[len(got):])


def lenard(space):
    u = space.jet("u", (0, 0))
    return PseudoOp(CDiffOp.scalar(space, {(2, 0): space.one(), (0, 0): 4 * u}),
                    [([2 * space.jet("u", (1, 0))], CDiffOp.identity(space, 1))])


def test_criterion_1_kdv_symmetries(kdv):
    sols = solve_symmetries(kdv, Ansatz(3, 3))
    expected = [
        parse("u[1,0]", SP),
        parse("6*t*u[1,0] + 1", SP),
        parse("6*u[0,0]*u[1,0] + u[3,0]", SP),
        parse("x*u[1,0] + 3*t*(6*u[0,0]*u[1,0] + u[3,0]) + 2*u[0,0]", SP),
    ]
    ok = len(sols) == 4 and spans_equal([s[0] for s in sols], expected)
    report(1, ok, "KdV solve_symmetries(3,3) is the exact 4-dim classical span")


def test_criterion_2_kdv_cosymmetries_and_currents(kdv):
    sols = solve_cosymmetries(kdv, Ansatz(2, 2, whitelist=("u",)))
    expected = [SP.one(), SP.jet("u", (0, 0)), parse("3*u[0,0]^2 + u[2,0]", SP)]
    ok = len(sols) == 3 and spans_equal([s[0] for s in sols], expected)

    known_currents = [
        ("1", "u[0,0]", "u[2,0] + 3*u[0,0]^2"),
        ("2*u[0,0]", "u[0,0]^2", "2*u[0,0]*u[2,0] - u[1,0]^2 + 4*u[0,0]^3"),
        ("-u[2,0] - 3*u[0,0]^2", "1/2*u[1,0]^2 - u[0,0]^3",
         "u[1,0]*u[3,0] - 1/2*u[2,0]^2 - 3*u[0,0]^2*u[2,0]"
         " + 6*u[0,0]*u[1,0]^2 - 9/2*u[0,0]^4"),
    ]
    for section, X, T in known_currents:
        cur = conservation_law_from_cosymmetry([parse(section, SP)], kdv)
        gx, gt = cur.comps[(0,)], cur.comps[(1,)]
        ex, et = parse(X, SP), parse(T, SP)
        match = (gx == ex and gt == et) or (gx == -ex and gt == -et)
        ok = ok and match
    report(2, ok, "KdV cosymmetry span and the three currents reproduced exactly")


def test_criterion_3_hamiltonian_checks():
    okk = is_hamiltonian(CDiffOp.total_derivative(SP1, 0))
    B = CDiffOp.scalar(SP1, {(3,): SP1.one(), (1,): 4 * SP1.jet("u", (0,)),
                             (0,): 2 * SP1.jet("u", (1,))})
    okk = okk and is_hamiltonian(B)
    okk = okk and are_compatible(CDiffOp.total_derivative(SP1, 0), B)
    sp = JetSpace.create(["x"], ["u", "v"], parameters=["sigma"])
    P = lambda s: parse(s, sp)
    one, sg = sp.one(), sp.param("sigma")
    A = CDiffOp(sp, 2, 2, {(0, 1): {(1,): one}, (1, 0): {(1,): one}})
    Bb = CDiffOp(sp, 2, 2, {
        (0, 0): {(3,): sg, (1,): P("u[0]"), (0,): P("1/2*u[1]")},
        (0, 1): {(1,): P("1/2*v[0]")},
        (1, 0): {(1,): P("1/2*v[0]"), (0,): P("1/2*v[1]")},
        (1, 1): {(1,): one}})
    C = CDiffOp(sp, 2, 2, {
        (0, 0): {(3,): P("sigma*v[0]"), (2,): P("3/2*sigma*v[1]"),
                 (1,): P("u[0]*v[0] + 3/2*sigma*v[2]"),
                 (0,): P("1/2*u[0]*v[1] + 1/2*u[1]*v[0] + 1/2*sigma*v[3]")},
        (0, 1): {(3,): sg, (1,): P("u[0] + 1/4*v[0]^2"), (0,): P("1/2*u[1]")},
        (1, 0): {(3,): sg, (1,): P("u[0] + 1/4*v[0]^2"),
                 (0,): P("1/2*u[1] + 1/2*v[0]*v[1]")},
        (1, 1): {(1,): P("v[0]"), (0,): P("1/2*v[1]")}})
    six = [is_hamiltonian(A), is_hamiltonian(Bb), is_hamiltonian(C),
           are_compatible(A, Bb), are_compatible(A, C), are_compatible(Bb, C)]
    ok = okk and all(six)
    report(3, ok, "KdV pair and Boussinesq triple: all Hamiltonian checks exact")


def test_criterion_4_magri_hierarchy():
    A = CDiffOp.total_derivative(SP1, 0)
    B = CDiffOp.scalar(SP1, {(3,): SP1.one(), (1,): 4 * SP1.jet("u", (0,)),
                             (0,): 2 * SP1.jet("u", (1,))})
    densities, _, flows = magri_hierarchy(A, B, SP1.jet("u", (0,)) * Fraction(1, 2), 3)
    ok = flows[1][0] == parse("u[1]", SP1)
    ok = ok and flows[2][0] == parse("6*u[0]*u[1] + u[3]", SP1)
    ok = ok and flows[3][0] == parse(
        "u[5] + 10*u[0]*u[3] + 20*u[1]*u[2] + 30*u[0]^2*u[1]", SP1)
    for i in range(len(densities)):
        for j in range(len(densities)):
            for op in (A, B):
                _, trivial = poisson_bracket(densities[i], densities[j], op)
                ok = ok and trivial
    report(4, ok, "Magri hierarchy flows exact and densities pairwise in involution")


def test_criterion_5_recursion_operators(kdv, heat):
    cov = tangent_covering(heat)
    sols = solve_fiberlinear(cov, Ansatz(1, 1))
    spv = cov.space
    expected = [spv.jet("v", (0, 0)), spv.jet("v", (1, 0)),
                parse("2*t*v[1,0] + x*v[0,0]", spv)]
    ok = len(sols) == 3 and spans_equal([s[0] for s in sols], expected)

    tk = tangent_covering(kdv)
    sp = tk.space
    lay = tk.extended(["vm1"], {
        0: [sp.jet("v", (0, 0))],
        1: [sp.jet("v", (2, 0)) + 6 * sp.jet("u", (0, 0)) * sp.jet("v", (0, 0))]}, ())
    rsols = solve_fiberlinear(lay, Ansatz(2, 1))
    target = parse("v[2,0] + 4*u[0,0]*v[0,0] + 2*u[1,0]*vm1", lay.space)
    got = coords([s[0] for s in rsols] + [target])
    ok = ok and rref(got[:len(rsols)]) == rref(got)
    ok = ok and verify_shadow([target], lay)[0]

    R = lenard(SP)
    phi4 = kdv.normal_form(parse("x*u[1,0] + 3*t*u[0,1] + 2*u[0,0]", SP))
    try:
        R.apply([phi4], kdv)
        ok = False
    except NonlocalObstruction:
        pass
    got2 = R.apply([parse("6*t*u[1,0] + 1", SP)], kdv)[0]
    ok = ok and (got2 - kdv.normal_form(2 * phi4)).is_zero()
    report(5, ok, "heat/KdV recursion shadows exact; R(phi4) obstructed;"
                  " R(phi2) = 2 phi4")


def test_criterion_6_equation_bivectors(camassa_holm, weingarten):
    sp2 = JetSpace.create(["x", "t"], ["u", "m"])
    ch2 = make_presentation(
        sp2,
        [parse("m[0,1] + u[0,0]*m[1,0] + 2*u[1,0]*m[0,0]", sp2),
         parse("m[0,0] - u[0,0] + u[2,0]", sp2)],
        [("m", (0, 1)), ("u", (2, 0))])
    one = sp2.one()
    A1p = CDiffOp(sp2, 2, 2, {(0, 0): {(1, 0): one},
                              (1, 0): {(1, 0): one, (3, 0): -one}})
    A2p = CDiffOp(sp2, 2, 2, {(0, 1): {(0, 0): -one},
                              (1, 0): {(1, 0): 2 * sp2.jet("m", (0, 0)),
                                       (0, 0): sp2.jet("m", (1, 0))}})
    sp6 = JetSpace.create(["x", "t"], ["v", "w"])
    kdv6 = make_presentation(
        sp6,
        [parse("v[0,1] + v[3,0] + 12*v[0,0]*v[1,0] - w[1,0]", sp6),
         parse("w[3,0] + 8*v[0,0]*w[1,0] + 4*w[0,0]*v[1,0]", sp6)],
        [("v", (0, 1)), ("w", (3, 0))])
    T1 = CDiffOp(sp6, 2, 2, {(0, 1): {(1, 0): sp6.one()},
                             (1, 1): {(0, 1): sp6.one(), (3, 0): sp6.one(),
                                      (1, 0): 12 * sp6.jet("v", (0, 0))}})
    T2 = CDiffOp(sp6, 2, 2, {(0, 0): {(3, 0): sp6.one(),
                                      (1, 0): 8 * sp6.jet("v", (0, 0)),
                                      (0, 0): 4 * sp6.jet("v", (1, 0))},
                             (1, 0): {(1, 0): -4 * sp6.jet("w", (0, 0)),
                                      (0, 0): 4 * sp6.jet("w", (1, 0))}})
    spw = weingarten.space
    D2 = CDiffOp.scalar(spw, {(2, 0): spw.one()})
    Dxy = CDiffOp.scalar(spw, {(1, 1): 2 * spw.jet("z", (0, 0)),
                               (1, 0): -spw.jet("z", (0, 1)),
                               (0, 1): spw.jet("z", (1, 0))})
    six = [verify_bivector_on_equation(op, pres)["ok"]
           for op, pres in ((A1p, ch2), (A2p, ch2), (T1, kdv6), (T2, kdv6),
                            (D2, weingarten), (Dxy, weingarten))]
    spc = camassa_holm.space
    A1 = CDiffOp.total_derivative(spc, 0)
    A2 = CDiffOp.scalar(spc, {(0, 1): -spc.one(),
                              (1, 0): -spc.jet("u", (0, 0)),
                              (0, 0): spc.jet("u", (1, 0))})
    rep = schouten_on_equation(A1, A2, camassa_holm)
    ok = all(six) and rep["ok"] and rep["trivial"]
    report(6, ok, "six equation-level bivector residuals exact zero;"
                  " CH bracket trivial")


def test_criterion_7_coverings(kdv, camassa_holm):
    cov = make_covering(kdv, ["w"], {0: [parse("u[0,0]", SP)],
                                     1: [parse("3*u[0,0]^2 + u[2,0]", SP)]})
    ok = verify_flat(cov)["ok"]

    spl = JetSpace.create(["x", "t"], ["u"], parameters=["lam"])
    kdvl = make_presentation(spl, [parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]",
                                         spl)], [("u", (0, 1))])
    ext = spl.extended(nonlocals=["w"])
    miura = make_covering(kdvl, ["w"], {
        0: [parse("u[0,0] + w^2 + lam", ext)],
        1: [parse("u[2,0] + 2*w*u[1,0] + 2*u[0,0]^2 + 2*(w^2 - lam)*u[0,0]"
                  " - 4*lam*(w^2 + lam)", ext)]})
    ok = ok and verify_flat(miura)["ok"]

    spc = camassa_holm.space
    chcov = make_covering(camassa_holm, ["w"], {
        0: [parse("u[0,0] - u[2,0]", spc)],
        1: [parse("1/2*u[1,0]^2 - 3/2*u[0,0]^2 + u[0,0]*u[2,0]", spc)]})
    ok = ok and verify_flat(chcov)["ok"]

    spp = JetSpace.create(["x", "t"], ["u"], parameters=["gam"])
    pkdv = make_presentation(spp, [parse("u[0,1] - 3*u[1,0]^2 - u[3,0]", spp)],
                             [("u", (0, 1))])
    extp = spp.extended(nonlocals=["w"])
    we = make_covering(pkdv, ["w"], {
        0: [parse("u[0,0]^2 + 2*w*u[0,0] + w^2 + gam", extp)],
        1: [parse("(2*u[0,0]*u[2,0] - u[1,0]^2 + 2*u[0,0]^2*u[1,0])"
                  " + (u[2,0] + 2*u[0,0]*u[1,0])*2*w + u[1,0]*(2*w^2 - 2*gam)"
                  " - 4*gam*u[0,0]^2 - 8*gam*u[0,0]*w - 4*gam*(w^2 + gam)",
                  extp)]})
    ok = ok and verify_flat(we)["ok"]

    sigma = {"w": parse("-w", miura.space),
             "u": parse("-u[0,0] - 2*w^2 - 2*lam", miura.space)}
    ok = ok and verify_finite_symmetry(miura, sigma)["ok"]
    report(7, ok, "potential-KdV/Miura/CH/WE coverings flat (identically in"
                  " parameters); Miura w -> -w certified")


def test_criterion_8_presentation_equivalence():
    sp3 = JetSpace.create(["x", "t"], ["u", "v", "w"])
    pres = make_presentation(
        sp3,
        [parse("u[1,0] - v[0,0]", sp3), parse("v[1,0] - w[0,0]", sp3),
         parse("w[1,0] - u[0,1] + 6*u[0,0]*v[0,0]", sp3)],
        [("u", (1, 0)), ("v", (1, 0)), ("w", (1, 0))])
    one = sp3.one()
    witness = EquivalenceWitness(
        alpha=CDiffOp(sp3, 3, 1, {(0, 0): {(0, 0): one},
                                  (1, 0): {(1, 0): one},
                                  (2, 0): {(2, 0): one}}),
        beta=CDiffOp(sp3, 1, 3, {(0, 0): {(0, 0): one}}),
        alpha_p=CDiffOp(sp3, 3, 1, {(2, 0): {(0, 0): -one}}),
        beta_p=CDiffOp(sp3, 1, 3, {
            (0, 0): {(2, 0): -one, (0, 0): -6 * sp3.jet("u", (0, 0))},
            (0, 1): {(1, 0): -one}, (0, 2): {(0, 0): -one}}),
        s1=CDiffOp(sp3, 1, 1),
        s2=CDiffOp(sp3, 3, 3, {(1, 0): {(0, 0): one}, (2, 0): {(1, 0): one},
                               (2, 1): {(0, 0): one}}))
    F1 = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", sp3)
    rep = verify_equivalence(pres, [F1], 1, witness)
    report(8, rep["ok"], "KdV scalar/3-component witness passes all four"
                         " identities")


def _rand_expr(rng, space=SP, maxord=2, maxdeg=2, nterms=2):
    e = space.zero()
    for _ in range(nterms):
        m = space.num(rng.randint(-3, 3))
        for _ in range(rng.randint(0, maxdeg)):
            k = rng.randint(0, maxord + 1)
            if k <= maxord:
                K = (k, 0) if space.n == 2 else (k,)
                m = m * space.jet(0, K)
            else:
                m = m * space.indep(0)
        e = e + m
    return e


def _rand_op(rng, space=SP, maxorder=3):
    tab = {}
    for _ in range(rng.randint(1, 3)):
        I = (rng.randint(0, maxorder), rng.randint(0, 1)) if space.n == 2 \
            else (rng.randint(0, maxorder),)
        tab[I] = _rand_expr(rng, space)
    return CDiffOp.scalar(space, tab)


def test_criterion_9_property_suites():
    rng = random.Random(2024)
    N = 500

    for _ in range(N):  # adjoint involution
        op = _rand_op(rng)
        assert op.adjoint().adjoint() == op

    for _ in range(N):  # Green identity residual
        op = _rand_op(rng, maxorder=2)
        p, q = [_rand_expr(rng)], [_rand_expr(rng)]
        form = green_form(op, p, q)
        lhs = pairing_density(op.apply(p), q) - \
            pairing_density(p, op.adjoint().apply(q))
        rhs = form.comps[(1,)].total_derivative(0) - \
            form.comps[(0,)].total_derivative(1)
        assert (lhs - rhs).is_zero()

    for _ in range(N):  # Jacobi identity of the Jacobi bracket
        a, b, c = ([_rand_expr(rng, nterms=1)] for _ in range(3))
        cyc = [x + y + z for x, y, z in zip(
            jacobi(a, jacobi(b, c)), jacobi(b, jacobi(c, a)),
            jacobi(c, jacobi(a, b)))]
        assert all(x.is_zero() for x in cyc)

    for _ in range(N):  # euler of a divergence
        f = _rand_expr(rng, nterms=3)
        i = rng.randint(0, 1)
        assert all(x.is_zero() for x in euler(f.total_derivative(i)))

    for _ in range(N):  # helmholtz of a gradient
        L = _rand_expr(rng, maxdeg=3, nterms=3)
        assert helmholtz(euler(L)).is_zero()

    for _ in range(N):  # d_h^2 = 0
        form = HorizontalForm(SP, 0, {(): _rand_expr(rng)})
        assert d_h(d_h(form)).is_zero()

    # route agreement between the direct bracket and the odd-variable test
    gradients = [[SP1.one()], [SP1.jet("u", (0,))],
                 [parse("3*u[0]^2 + u[2]", SP1)], [parse("u[0]^2", SP1)]]

    agreements = 0
    while agreements < N:
        raw = _rand_op(rng, SP1, maxorder=3)
        op = raw.scale(Fraction(1, 2)) - raw.adjoint().scale(Fraction(1, 2))
        if op.is_zero():
            continue
        assert is_hamiltonian(op) == hamiltonian_on(op, gradients)
        agreements += 1
    report(9, True, f"property suites: {6 * N} structural cases and"
                    f" {agreements} route-agreement cases, all exact")


def test_criterion_10_symplectic(kdv, wdvv):
    rep = verify_symplectic(CDiffOp.total_derivative(wdvv.space, 0), wdvv,
                            ansatz=Ansatz(2, 1))
    repk = verify_symplectic(CDiffOp.total_derivative(SP, 0), kdv)
    nonzero = any(entry != "0" for row in repk["membership_residual"]
                  for entry in row)
    ok = rep["ok"] and not repk["ok"] and not repk["membership"] and nonzero
    report(10, ok, "WDVV D_x symplectic; KdV D_x fails membership with a"
                   " nonzero reported residual")
