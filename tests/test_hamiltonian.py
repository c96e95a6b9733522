import functools
import json
import random
from fractions import Fraction

import pytest

from jetcalc import (
    Ansatz,
    AnsatzError,
    CDiffOp,
    JetSpace,
    ShapeError,
    euler,
    are_compatible,
    cotangent_covering,
    is_hamiltonian,
    jacobi,
    magri_hierarchy,
    make_presentation,
    pairing_density,
    parse,
    schouten_direct,
    schouten_on_equation,
    schouten_pairing,
    verify_bivector_on_equation,
)
from jetcalc import cli, hamiltonian
from jetcalc.algebra import DiffExpr, euler_is_zero, sum_of_products
from jetcalc.cli import Problem, main, run_task
from jetcalc.corpus import corpus
from jetcalc.algebra import apply_DI
from jetcalc.hamiltonian import momenta_space
from jetcalc.presentations import Presentation
from constructs import (
    from_superdensity,
    hamiltonian_on,
    poisson_bracket,
    Superdensity,
    to_superdensity,
)
from monomials import decoded_terms

SP1 = JetSpace.create(["x"], ["u"])
U = SP1.jet("u", (0,))
A_KDV = CDiffOp.total_derivative(SP1)
B_KDV = CDiffOp.scalar(SP1, {(3,): SP1.one(), (1,): 4 * U,
                             (0,): 2 * SP1.jet("u", (1,))})


def skew(op):
    return op.scale(Fraction(1, 2)) - op.adjoint().scale(Fraction(1, 2))


def boussinesq_ops():
    sp = JetSpace.create(["x"], ["u", "v"], parameters=["sigma"])
    P = lambda s: parse(s, sp)
    one = sp.one()
    sg = sp.param("sigma")
    A = CDiffOp(sp, 2, 2, {(0, 1): {(1,): one}, (1, 0): {(1,): one}})
    B = CDiffOp(sp, 2, 2, {
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
    return sp, A, B, C


def test_kdv_pair_hamiltonian():
    assert is_hamiltonian(A_KDV)
    assert is_hamiltonian(B_KDV)
    assert are_compatible(A_KDV, B_KDV)
    # any constant-coefficient skew operator
    assert is_hamiltonian(CDiffOp.scalar(SP1, {(3,): SP1.num(5),
                                               (1,): SP1.num(-2)}))
    assert are_compatible(A_KDV, CDiffOp.scalar(SP1, {(3,): SP1.one()}))


def test_boussinesq_tri_hamiltonian():
    sp, A, B, C = boussinesq_ops()
    checks = [is_hamiltonian(A), is_hamiltonian(B), is_hamiltonian(C),
              are_compatible(A, B), are_compatible(A, C), are_compatible(B, C)]
    assert all(checks), checks


def test_boussinesq_jacobi_oracle():
    # independent check: the Poisson bracket of each structure satisfies
    # the cyclic Jacobi identity on nonlinear density triples
    sp, A, B, C = boussinesq_ops()
    ub, vb = sp.jet("u", (0,)), sp.jet("v", (0,))

    def pb(w1, w2, op):
        return pairing_density(op.apply(euler(w1)), euler(w2))

    for op in (B, C):
        for w1, w2, w3 in [(ub * ub, vb * vb, ub * vb),
                           (ub * vb, ub * ub * vb, vb)]:
            s = pb(w1, pb(w2, w3, op), op) + pb(w2, pb(w3, w1, op), op) + \
                pb(w3, pb(w1, w2, op), op)
            assert all(x.is_zero() for x in euler(s))


SP_UV = JetSpace.create(["x"], ["u", "v"])
SP_XT_UV = JetSpace.create(["x", "t"], ["u", "v"])


def rand_coeff(space, rng):
    e = space.zero()
    for _ in range(rng.randint(1, 2)):
        t = space.num(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, 2)):
            t = t * (space.indep(0) if rng.random() < 0.2 else space.jet(
                rng.randrange(space.m), [rng.randint(0, 1) for _ in range(space.n)]))
        e = e + t
    return e


def rand_square_op(space, rng, maxorder=2):
    return CDiffOp(space, space.m, space.m, [
        (rng.randrange(space.m), rng.randrange(space.m),
         tuple(rng.randint(0, maxorder) for _ in range(space.n)), rand_coeff(space, rng))
        for _ in range(rng.randint(1, 4))])


def test_superdensity_roundtrip():
    W = to_superdensity(B_KDV)
    assert from_superdensity(W) == B_KDV
    assert to_superdensity(CDiffOp.identity(SP1, 1)).expr.is_zero()
    sp, A, B, C = boussinesq_ops()
    assert from_superdensity(to_superdensity(B)) == skew(B)
    assert from_superdensity(to_superdensity(C)) == skew(C)
    rng = random.Random(3)
    for space in (SP_UV, SP_XT_UV):
        for _ in range(20):
            op = rand_square_op(space, rng)
            assert from_superdensity(to_superdensity(op)) == skew(op)


def test_superdensity_up_to_a_divergence():
    """Terms whose two momenta both carry derivatives are integrated by
    parts first, so a divergence added to W_A leaves the operator alone."""
    sp = JetSpace.create(["x", "t"], ["u"])
    ext = momenta_space(sp)
    # p_x p_tt = p_xtt p + D_x(p p_tt): lowering p_x puts p ahead of p_tt
    W = ext.jet(1, (1, 0)) * ext.jet(1, (0, 2))
    assert from_superdensity(Superdensity(sp, W)) == \
        CDiffOp.scalar(sp, {(1, 2): sp.one()})
    rng = random.Random(5)
    for space in (SP_UV, SP_XT_UV):
        for _ in range(20):
            op = rand_square_op(space, rng)
            W = to_superdensity(op)
            ext, m = W.expr.space, space.m
            p1, p2 = (ext.jet(m + rng.randrange(m), [rng.randint(0, 2) for _ in range(space.n)])
                      for _ in range(2))
            G = rand_coeff(space, rng).rename_space(ext) * p1 * p2
            W = Superdensity(space, W.expr + G.total_derivative(rng.randrange(space.n)))
            assert from_superdensity(W) == skew(op)


@pytest.mark.parametrize("text", ["u[1]*p_u[0] + p_u[0]*p_u[1]", "p_u[0]*p_u[1]*p_u[2]"],
                         ids=["one-momentum", "three-momenta"])
def test_superdensity_of_another_degree_is_rejected(text):
    """A term with one momentum, or with three, is not fiber-quadratic."""
    ext = momenta_space(SP1)
    with pytest.raises(ShapeError, match="superdensity is not fiber-quadratic"):
        from_superdensity(Superdensity(SP1, parse(text, ext)))


def test_schouten_direct_clauses():
    phi = [SP1.jet("u", (1,))]
    psi = [parse("6*u[0]*u[1] + u[3]", SP1)]
    assert schouten_direct(phi, psi) == jacobi(phi, psi)
    om = U * U * Fraction(1, 2)
    assert schouten_direct(A_KDV, om) == A_KDV.apply([U])
    # [[A, phi]] = -[[phi, A]]
    lhs = schouten_direct(A_KDV, phi, [[U]])
    rhs = schouten_direct(phi, A_KDV, [[U]])
    assert all((a + b).is_zero() for a, b in zip(lhs, rhs))
    # KdV's flow psi preserves B, so [[B, psi]] vanishes on a gradient g, while
    # each of its terms E_{B g}(psi), E_g(B)(psi) and B(l_psi*(g)) is nonzero:
    # a sign flipped in the sum shows
    gradient = [U * U + SP1.jet("u", (2,))]
    assert all(x.is_zero() for x in schouten_direct(B_KDV, psi, [gradient]))
    with pytest.raises(ShapeError, match="bracket of two densities"):
        schouten_direct(om, om)
    for args in ((A_KDV, tuple(phi)), ({}, om)):
        with pytest.raises(ShapeError, match="no bracket with a (tuple|dict)"):
            schouten_direct(*args)
    # a result of degree r is taken on r - 1 gradients
    for args, want in (((A_KDV, A_KDV), "degrees 2 and 2 takes 2 gradients, not 0"),
                       ((A_KDV, A_KDV, [[U]]), "degrees 2 and 2 takes 2 gradients, not 1"),
                       ((A_KDV, [SP1.one()]), "degrees 2 and 1 takes 1 gradient, not 0"),
                       ((phi, A_KDV), "degrees 1 and 2 takes 1 gradient, not 0"),
                       ((phi, psi, [[U]]), "degrees 1 and 1 takes 0 gradients, not 1")):
        with pytest.raises(ShapeError, match=want):
            schouten_direct(*args)


def test_schouten_direct_with_a_density():
    """[[phi, omega]] = E_phi(omega), d/d eps at eps = 0 of omega with u_K
    replaced by u_K + eps*D_K(phi), which differs from <phi, delta omega>
    by a divergence; by graded antisymmetry [[omega, phi]] = -[[phi, omega]]
    and [[omega, A]] = [[A, omega]] = A(delta omega), summed term by term."""
    sp = JetSpace.create(["x"], ["u", "v"], parameters=["eps"])
    eps = sp.param("eps")
    rng = random.Random(109)
    for _ in range(8):
        omega = rand_coeff(sp, rng) * rand_coeff(sp, rng)
        phi = [rand_coeff(sp, rng) for _ in range(sp.m)]
        A = rand_square_op(sp, rng)
        flow = schouten_direct(phi, omega)
        moved = omega.substitute({k: sp.jet(k[1], k[2]) + eps * apply_DI(phi[k[1]], k[2])
                                  for k in omega.jet_keys()})
        assert flow == moved.partial(('q', 'eps')).substitute({('q', 'eps'): sp.zero()})
        assert all(e.is_zero() for e in euler(flow - pairing_density(phi, euler(omega))))
        assert schouten_direct(omega, phi) == -flow
        delta = euler(omega)
        want = [sp.zero() for _ in range(A.rows)]
        for r, c, I, a in A.terms():
            want[r] += a * apply_DI(delta[c], I)
        assert schouten_direct(omega, A) == schouten_direct(A, omega) == want


def test_bivector_bracket_takes_each_variation_once(monkeypatch):
    """[[A, B]](psi1, psi2) takes E_psi1 and E_psi2 of each bivector once:
    E_psi1(A) serves both the l* correction and the bracket's half.  An
    equal but distinct copy of A takes the two-operator path and gives
    the same bracket."""
    built = []
    ell = hamiltonian.ell_delta_op

    def counting(delta, phi):
        built.append(delta)
        return ell(delta, phi)

    monkeypatch.setattr(hamiltonian, "ell_delta_op", counting)
    psis = [[U], [parse("3*u[0]^2 + u[2]", SP1)]]
    copy = B_KDV.scale(1)
    same = schouten_direct(B_KDV, B_KDV, psis)
    assert len(built) == 2 and all(b is B_KDV for b in built)
    del built[:]
    assert schouten_direct(B_KDV, copy, psis) == same
    assert len(built) == 4 and sum(b is copy for b in built) == 2


def grads():
    return [[SP1.one()], [U], [parse("3*u[0]^2 + u[2]", SP1)],
            [euler(U ** 4 + SP1.jet("u", (1,)) ** 2 * U)[0]]]


def test_route_agreement_small():
    rng = random.Random(97)
    checked = 0
    for _ in range(12):
        tab = {}
        for _ in range(rng.randint(1, 3)):
            I = (rng.randint(0, 3),)
            coeff = SP1.zero()
            for _ in range(2):
                m = SP1.num(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2)):
                    m = m * SP1.jet("u", (rng.randint(0, 2),))
                coeff = coeff + m
            tab[I] = coeff
        op = skew(CDiffOp.scalar(SP1, tab))
        if op.is_zero():
            continue
        assert is_hamiltonian(op) == hamiltonian_on(op, grads())
        checked += 1
    assert checked >= 8
    g1, g2, g3 = grads()[1:]
    assert schouten_pairing(op, op, g1, g2, g3) == \
        pairing_density(schouten_direct(op, op, [g1, g2]), g3)


def test_self_bracket_reuses_its_mirror_half(monkeypatch):
    """[[A, A]] computes one half of the bracket and uses it twice; an equal
    but distinct copy of A takes the two-half path.  Both give the same
    terms, on the random skew operators of criterion 9."""
    from test_acceptance import _rand_op

    applied = []
    apply = CDiffOp.apply

    def counting(self, vec, d=None):
        applied.append(self)
        return apply(self, vec, d)

    monkeypatch.setattr(CDiffOp, "apply", counting)
    rng = random.Random(2024)
    gs = grads()
    checked = 0
    while checked < 12:
        op = skew(_rand_op(rng, SP1))
        if op.is_zero():
            continue
        twin = op.scale(1)
        assert twin == op and twin is not op
        for g1, g2 in ((gs[1], gs[2]), (gs[2], gs[3]), (gs[3], gs[0])):
            del applied[:]
            same = schouten_direct(op, op, [g1, g2])
            once = len(applied)
            del applied[:]
            both = schouten_direct(op, twin, [g1, g2])
            assert [dict(x.coefficients()) for x in same] == \
                [dict(x.coefficients()) for x in both]
            assert once < len(applied)
        checked += 1


def test_magri_chain_kdv():
    densities, _, flows = magri_hierarchy(A_KDV, B_KDV, U * Fraction(1, 2), 3)
    assert flows[1][0] == parse("u[1]", SP1)
    assert flows[2][0] == parse("6*u[0]*u[1] + u[3]", SP1)
    assert flows[3][0] == parse("u[5] + 10*u[0]*u[3] + 20*u[1]*u[2]"
                                " + 30*u[0]^2*u[1]", SP1)
    for i in range(len(densities)):
        for j in range(len(densities)):
            for op in (A_KDV, B_KDV):
                _, trivial = poisson_bracket(densities[i], densities[j], op)
                assert trivial


def test_magri_step_solves_for_an_operator_other_than_d_x():
    """A = 2 D_x goes through solve_linear: from the same seed, each density
    is the D_x chain's over a power of 2."""
    densities = magri_hierarchy(A_KDV, B_KDV, U * Fraction(1, 2), 2)[0]
    halved = magri_hierarchy(A_KDV.scale(2), B_KDV, U * Fraction(1, 2), 2)[0]
    assert halved == [w * Fraction(1, 2**k) for k, w in enumerate(densities)]


def test_magri_step_without_a_solution_is_an_ansatz_error():
    """A = 0 takes no psi to B(delta omega) != 0, so no step is taken."""
    with pytest.raises(AnsatzError, match="no ansatz solution"):
        magri_hierarchy(CDiffOp(SP1, 1, 1), B_KDV, U * Fraction(1, 2), 1)


def test_solve_linear_reads_every_row_of_the_target():
    """A(psi) = target with one row more in the target than in A: its last
    row, 1, asks 0 = 1, so there is no solution, though A(u) is the first
    row; without the extra row, u solves it."""
    A = CDiffOp.scalar(SP1, {(1,): U})
    first = U * parse("u[1]", SP1)
    assert hamiltonian.solve_linear(A, [first], Ansatz(2, 2)) == [U]
    assert hamiltonian.solve_linear(A, [first, SP1.one()], Ansatz(2, 2)) is None


def test_solve_linear_reads_every_row_of_the_operator():
    """A(psi) = (D_x psi, psi) against a one-row target u u_x: the row A has
    beyond the target asks psi = 0, so there is no solution, though
    D_x(u^2/2) is the target; with u^2/2 as a second row, u^2/2 solves it."""
    A = CDiffOp(SP1, 2, 1, [(0, 0, (1,), SP1.one()), (1, 0, (0,), SP1.one())])
    first, half = U * parse("u[1]", SP1), U * U * Fraction(1, 2)
    assert hamiltonian.solve_linear(A, [first], Ansatz(2, 2)) is None
    assert hamiltonian.solve_linear(A, [first, half], Ansatz(2, 2)) == [half]


def test_d_x_is_inverted_exactly_up_the_hierarchy(monkeypatch):
    """A = D_x takes no ansatz solve: five KdV steps from u/2 reach a gradient
    whose top jet is u_8, though the ansatz (jet order 4, degree 3) has no
    solution of A(psi) = B(delta w_3), so only the D_x rule reaches step 4."""
    solves, solve = [], hamiltonian.solve_linear
    monkeypatch.setattr(hamiltonian, "solve_linear", lambda *args: solves.append(args))
    _, grads, _ = magri_hierarchy(A_KDV, B_KDV, U * Fraction(1, 2), 5)
    assert solves == []
    assert max(K for _, _, K in grads[-1][0].jet_keys()) == (8,)
    assert solve(A_KDV, B_KDV.apply(grads[3]), Ansatz(4, 3)) is None


def test_magri_step_values():
    w1 = magri_hierarchy(A_KDV, B_KDV, U * Fraction(1, 2), 1)[0][1]
    assert euler(w1)[0] == U  # density class of u^2/2
    w2 = magri_hierarchy(A_KDV, B_KDV, w1, 1)[0][1]
    assert euler(w2)[0] == parse("3*u[0]^2 + u[2]", SP1)


def test_poisson_antisymmetry_and_leibniz():
    rng = random.Random(101)
    for _ in range(10):
        w = SP1.zero()
        for _ in range(2):
            m = SP1.num(rng.randint(-2, 3))
            for _ in range(rng.randint(1, 2)):
                m = m * SP1.jet("u", (rng.randint(0, 2),))
            w = w + m
        wp = U ** 3
        d1, t1 = poisson_bracket(w, wp, A_KDV)
        d2, t2 = poisson_bracket(wp, w, A_KDV)
        assert all(e.is_zero() for e in euler(d1 + d2))
        _, selftriv = poisson_bracket(w, w, A_KDV)
        assert selftriv
    # Leibniz: A(delta {w,w'}) = jacobi(A delta w, A delta w')
    w, wp = U * U * Fraction(1, 2), U ** 3 - SP1.jet("u", (1,)) ** 2 * Fraction(1, 2)
    dens, _ = poisson_bracket(w, wp, A_KDV)
    lhs = A_KDV.apply(euler(dens))
    rhs = jacobi(A_KDV.apply(euler(w)), A_KDV.apply(euler(wp)))
    assert all((a - b).is_zero() for a, b in zip(lhs, rhs))


def test_partial_A_squared_zero():
    # d_A(d_A w) = [[A, [[A, w]]]] vanishes as a symmetry class for
    # Hamiltonian A and random densities
    rng = random.Random(103)
    for _ in range(6):
        w = SP1.zero()
        for _ in range(2):
            m = SP1.num(rng.randint(-2, 3))
            for _ in range(rng.randint(1, 3)):
                m = m * SP1.jet("u", (rng.randint(0, 1),))
            w = w + m
        phi = schouten_direct(B_KDV, w)      # [[B, w]] in D_1
        lv = schouten_direct(B_KDV, phi, [[U]])
        lv2 = schouten_direct(B_KDV, phi, [[SP1.one()]])
        # [[B, [[B, w]]]] is a bivector; evaluate on gradients and pair
        for val, g in ((lv, [U]), (lv2, [SP1.one()])):
            dens = pairing_density(val, g)
            # trivial as a bivector evaluation up to divergence
        # weaker downstream check: the flow of w is a symmetry of itself
        assert all(x.is_zero() for x in jacobi(phi, phi))


# -- equation level -----------------------------------------------------------


def test_kdv_equation_bivectors(kdv):
    sp = kdv.space
    A = CDiffOp.total_derivative(sp)
    B = CDiffOp.scalar(sp, {(3, 0): sp.one(), (1, 0): 4 * sp.jet("u", (0, 0)),
                            (0, 0): 2 * sp.jet("u", (1, 0))})
    assert verify_bivector_on_equation(A, kdv)["ok"]
    assert verify_bivector_on_equation(B, kdv)["ok"]
    assert schouten_on_equation(A, B, kdv)["trivial"]
    assert schouten_on_equation(B, B, kdv)["trivial"]
    # Burgers admits no such bivector: D_x fails membership there
    spb = JetSpace.create(["x", "t"], ["u"])
    burgers = make_presentation(
        spb, [parse("u[0,1] - u[0,0]*u[1,0] - u[2,0]", spb)], [("u", (0, 1))])
    assert not verify_bivector_on_equation(
        CDiffOp.total_derivative(spb), burgers)["ok"]


def test_camassa_holm_pair(camassa_holm):
    sp = camassa_holm.space
    A1 = CDiffOp.total_derivative(sp)
    A2 = CDiffOp.scalar(sp, {(0, 1): -sp.one(), (1, 0): -sp.jet("u", (0, 0)),
                             (0, 0): sp.jet("u", (1, 0))})
    assert verify_bivector_on_equation(A1, camassa_holm)["ok"]
    assert verify_bivector_on_equation(A2, camassa_holm)["ok"]
    rep = schouten_on_equation(A1, A2, camassa_holm)
    assert rep["ok"] and rep["trivial"]
    assert schouten_on_equation(A2, A2, camassa_holm)["trivial"]


def test_ch_two_component_bivectors():
    sp2 = JetSpace.create(["x", "t"], ["u", "m"])
    G1 = parse("m[0,1] + u[0,0]*m[1,0] + 2*u[1,0]*m[0,0]", sp2)
    G2 = parse("m[0,0] - u[0,0] + u[2,0]", sp2)
    ch2 = make_presentation(sp2, [G1, G2], [("m", (0, 1)), ("u", (2, 0))])
    one = sp2.one()
    A1p = CDiffOp(sp2, 2, 2, {(0, 0): {(1, 0): one},
                              (1, 0): {(1, 0): one, (3, 0): -one}})
    A2p = CDiffOp(sp2, 2, 2, {(0, 1): {(0, 0): -one},
                              (1, 0): {(1, 0): 2 * sp2.jet("m", (0, 0)),
                                       (0, 0): sp2.jet("m", (1, 0))}})
    assert verify_bivector_on_equation(A1p, ch2)["ok"]
    assert verify_bivector_on_equation(A2p, ch2)["ok"]


def test_kdv6_bivectors():
    sp = JetSpace.create(["x", "t"], ["v", "w"])
    F1 = parse("v[0,1] + v[3,0] + 12*v[0,0]*v[1,0] - w[1,0]", sp)
    F2 = parse("w[3,0] + 8*v[0,0]*w[1,0] + 4*w[0,0]*v[1,0]", sp)
    kdv6 = make_presentation(sp, [F1, F2], [("v", (0, 1)), ("w", (3, 0))])
    T1 = CDiffOp(sp, 2, 2, {(0, 1): {(1, 0): sp.one()},
                            (1, 1): {(0, 1): sp.one(), (3, 0): sp.one(),
                                     (1, 0): 12 * sp.jet("v", (0, 0))}})
    T2 = CDiffOp(sp, 2, 2, {(0, 0): {(3, 0): sp.one(),
                                     (1, 0): 8 * sp.jet("v", (0, 0)),
                                     (0, 0): 4 * sp.jet("v", (1, 0))},
                            (1, 0): {(1, 0): -4 * sp.jet("w", (0, 0)),
                                     (0, 0): 4 * sp.jet("w", (1, 0))}})
    assert verify_bivector_on_equation(T1, kdv6)["ok"]
    assert verify_bivector_on_equation(T2, kdv6)["ok"]
    rep = schouten_on_equation(T1, T2, kdv6)
    assert rep["ok"] and rep["trivial"]


def transport_pair():
    """u_t = u_x, v_t = v_x, and delta = [[u v D_x + (u_x v + u v_x)/2,
    -u^2/2], [u^2/2, 0]], an equation bivector whose [[delta, delta]] is not
    trivial there."""
    sp = JetSpace.create(["x", "t"], ["u", "v"])
    P = lambda s: parse(s, sp)
    pres = make_presentation(sp, [P("u[0,1] - u[1,0]"), P("v[0,1] - v[1,0]")],
                             [("u", (0, 1)), ("v", (0, 1))])
    delta = CDiffOp(sp, 2, 2, {
        (0, 0): {(1, 0): P("u[0,0]*v[0,0]"), (0, 0): P("1/2*u[1,0]*v[0,0] + 1/2*u[0,0]*v[1,0]")},
        (0, 1): {(0, 0): P("-1/2*u[0,0]^2")},
        (1, 0): {(0, 0): P("1/2*u[0,0]^2")}})
    return pres, delta


def test_a_nontrivial_two_component_bracket_pairs_each_component_with_its_fiber():
    """On u_t = u_x, v_t = v_x every skew operator with coefficients in the
    jets of u and v is an equation bivector.  [[delta, delta]] for delta =
    [[u v D_x + (u_x v + u v_x)/2, -u^2/2], [u^2/2, 0]] is not trivial, and
    its superdensity pairs component j of the bracket with the odd fiber
    p_j: a trivector density, so its Euler residual along u and v is cubic
    in p1, p2, and along p1 and p2 quadratic."""
    pres, delta = transport_pair()
    sp = pres.space
    assert verify_bivector_on_equation(delta, pres)["ok"]
    rep = schouten_on_equation(delta, delta, pres)
    assert rep["ok"] and not rep["trivial"]
    cspace = cotangent_covering(pres).space
    # an odd jet occurs with exponent 1: the fiber exponents sum to its degree
    degrees = [{sum(e for k, e in factors if k[0] == 'j' and k[1] >= sp.m)
                for factors in parse(r, cspace).exponents()} for r in rep["residual"]]
    assert degrees == [{3}, {3}, {2}, {2}]


def test_weingarten_bivectors(weingarten):
    sp = weingarten.space
    D2 = CDiffOp.scalar(sp, {(2, 0): sp.one()})
    Dxy = CDiffOp.scalar(sp, {(1, 1): 2 * sp.jet("z", (0, 0)),
                              (1, 0): -sp.jet("z", (0, 1)),
                              (0, 1): sp.jet("z", (1, 0))})
    assert verify_bivector_on_equation(D2, weingarten)["ok"]
    assert verify_bivector_on_equation(Dxy, weingarten)["ok"]


def test_schouten_on_equation_reports_an_operator_that_is_not_a_bivector(kdv):
    """u D_x fails membership on KdV: as either argument, the report names
    it and carries the residual verify_bivector_on_equation gives."""
    sp = kdv.space
    A = CDiffOp.total_derivative(sp)
    bad = CDiffOp.scalar(sp, {(1, 0): sp.jet("u", (0, 0))})
    membership = verify_bivector_on_equation(bad, kdv)
    assert not membership["ok"]
    for pair, name in (((bad, A), "first"), ((A, bad), "second")):
        assert schouten_on_equation(*pair, kdv) == {
            "ok": False, "trivial": False,
            "reason": f"{name} operator is not an equation bivector",
            "residual": membership["residual"]}


def test_schouten_on_equation_rejects_a_bracket_that_is_not_bilinear(kdv, monkeypatch):
    """Each term of the bracket on the dummy families must be of degree one
    in each family: with D_x and the second KdV operator, both equation
    bivectors, a term quadratic in the first family is a ShapeError, both
    with two distinct jets of it (a_x a b) and with one jet squared (a^2 b),
    which a count of distinct jets would pass; so is a term with no jet of
    the second family (a_x)."""
    sp = kdv.space
    A = CDiffOp.total_derivative(sp)
    B = CDiffOp.scalar(sp, {(3, 0): sp.one(), (1, 0): 4 * sp.jet("u", (0, 0)),
                            (0, 0): 2 * sp.jet("u", (1, 0))})
    bracket = hamiltonian._eq_bracket_on_dummies
    for planted in ("a_x*a*b", "a*a*b", "a_x"):
        def quadratic(*args, planted=planted):  # a and b: the dummies after u
            T = bracket(*args)
            ext = T[0].space
            a, a_x, b = ext.jet(1, (0, 0)), ext.jet(1, (1, 0)), ext.jet(2, (0, 0))
            term = {"a_x*a*b": a_x * a * b, "a*a*b": a * a * b, "a_x": a_x}[planted]
            return [T[0] + term, *T[1:]]

        monkeypatch.setattr(hamiltonian, "_eq_bracket_on_dummies", quadratic)
        with pytest.raises(ShapeError, match="not bilinear in the arguments"):
            schouten_on_equation(A, B, kdv)


def test_schouten_on_equation_builds_each_theta_once(kdv, monkeypatch):
    """Theta = l_F o delta - delta* o l_F* is built once per operator, as one
    sum of two compositions, and one cofactor pass over it gives both the
    membership residual and nabla.  The presentation keeps each Theta, so
    the test takes a fresh one of KdV, which holds none yet."""
    kdv = make_presentation(kdv.space, kdv.components, [("u", (0, 1))])
    sp = kdv.space
    A = CDiffOp.total_derivative(sp)
    B = CDiffOp.scalar(sp, {(3, 0): sp.one(), (1, 0): 4 * sp.jet("u", (0, 0)),
                            (0, 0): 2 * sp.jet("u", (1, 0))})
    composed, builds = [], []
    build = CDiffOp.sum_of_compositions

    def counting(cls, parts):
        composed.extend(parts)
        builds.append(parts)
        return build(parts)

    monkeypatch.setattr(CDiffOp, "sum_of_compositions", classmethod(counting))
    assert schouten_on_equation(A, B, kdv)["trivial"]
    assert len(composed) == 4
    assert len(builds) == 2


@pytest.mark.parametrize("case", ["transport", "kdv"])
def test_a_self_bracket_on_an_equation_shares_one_nabla_and_one_half(case, kdv, monkeypatch):
    """[[delta, delta]] on an equation takes one cofactor pass over Theta
    (one BilinearNabla) and one half of the bracket (E_a and E_b of one
    operator: two ell_delta_op builds, not four), for the nontrivial
    delta of transport_pair and for D_x on KdV.  A value-equal copy as the
    second argument gives the same report the same way, and the shared
    half gives the bracket on the dummies that two distinct copies give
    with both halves."""
    if case == "kdv":
        pres, delta = kdv, CDiffOp.total_derivative(kdv.space)
    else:
        pres, delta = transport_pair()
    nablas, ells, brackets = [], [], []
    nabla, ell, bracket = (hamiltonian.BilinearNabla, hamiltonian.ell_delta_op,
                           hamiltonian._eq_bracket_on_dummies)

    def counting_nabla(*args):
        nablas.append(nabla(*args))
        return nablas[-1]

    def counting_ell(*args):
        ells.append(args[0])
        return ell(*args)

    def kept_bracket(*args):
        brackets.append(bracket(*args))
        return brackets[-1]

    monkeypatch.setattr(hamiltonian, "BilinearNabla", counting_nabla)
    monkeypatch.setattr(hamiltonian, "ell_delta_op", counting_ell)
    monkeypatch.setattr(hamiltonian, "_eq_bracket_on_dummies", kept_bracket)
    copy = delta.scale(1)
    assert copy == delta and copy is not delta
    reports = []
    for second in (delta, copy):
        del nablas[:], ells[:]
        reports.append(schouten_on_equation(delta, second, pres))
        assert len(nablas) == 1 and len(ells) == 2
    assert reports[0] == reports[1] and reports[0]["ok"]
    assert reports[0]["trivial"] is (case == "kdv")
    # both halves, from two distinct copies on the same dummies
    (n,), shared = nablas, brackets[0]
    ext, m, l = shared[0].space, pres.space.m, len(pres.components)
    avec, bvec = ([ext.jet(m + s, (0, 0)) for s in range(k, k + l)] for k in (0, l))
    del ells[:]
    both = hamiltonian._bivector_bracket(delta, copy, avec, bvec,
                                         lambda X: n.star1(bvec, avec))
    assert len(ells) == 4 and both == shared


def test_the_equation_schouten_pass_splits_each_expression_once(monkeypatch):
    """Work counted on kdv6's schouten-equation task, with a fresh
    presentation.  In `reduce`, every substitution but the rules' own puts
    D_K(F) for the tags still in one cofactor slot's quotient, once per
    such slot; none maps a tag to 0 to read off the normal form.  The
    superdensity is one sum_of_products, over at most one product per
    component and b-jet of the bracket on the dummies."""
    data = corpus("kdv6")
    problem = Problem(data)
    task = next(t for t in data["tasks"] if t["kind"] == "schouten-equation")
    m = problem.space.m
    substitute, reduce = DiffExpr.substitute, Presentation.reduce
    products, brackets, passes = [], [], []  # passes: (substituted, result) of each reduce

    def counting_substitute(self, mapping):
        tagged = any(k[0] == 'j' and k[1] >= m for k in mapping)
        if passes and passes[-1][1] is None and (tagged or not mapping):
            passes[-1][0].append((self, mapping))
        return substitute(self, mapping)

    def counting_reduce(self, e):
        passes.append(([], None))
        red = reduce(self, e)
        passes[-1] = (passes[-1][0], red)
        return red

    def counting_bracket(*args):
        brackets.append(bracket(*args))
        return brackets[-1]

    def counting_products(space, pairs):
        products.append(list(pairs))
        return sum_of_products(space, products[-1])

    bracket = hamiltonian._eq_bracket_on_dummies
    monkeypatch.setattr(DiffExpr, "substitute", counting_substitute)
    monkeypatch.setattr(Presentation, "reduce", counting_reduce)
    monkeypatch.setattr(hamiltonian, "_eq_bracket_on_dummies", counting_bracket)
    monkeypatch.setattr(hamiltonian, "sum_of_products", counting_products)
    assert run_task(problem, task)["status"] == "ok"
    assert len(passes) >= 8
    for substituted, red in passes:
        assert len(substituted) <= len(list(red.cofactor.terms()))
        assert len({id(e) for e, _ in substituted}) == len(substituted)
        for e, mapping in substituted:
            assert mapping and all(not x.is_zero() for x in mapping.values())
            assert set(mapping) <= {k for k in e.variables() if k[0] == 'j' and k[1] >= m}
    (T,), (pairs,) = brackets, products
    l = len(T)
    assert len(pairs) <= sum(len({k for k in comp.variables() if k[0] == 'j' and k[1] >= m + l})
                             for comp in T)


def test_is_hamiltonian_is_the_polarized_test_with_b_equal_to_a():
    """is_hamiltonian(A) is are_compatible(A, A), which builds one W and
    half the bracket density; an equal but distinct copy of A takes the
    two-W path with the full density, and the verdicts agree.  The seeded
    skew operators include the route universe's non-Hamiltonian
    -u D^3 - 3/2 u_x D^2 - 1/2 u_xx D."""
    from test_acceptance import _rand_op

    rng = random.Random(71)
    ops = [op for op in (skew(_rand_op(rng, SP1)) for _ in range(24)) if not op.is_zero()]
    ops.append(CDiffOp.scalar(SP1, {(3,): -U, (2,): Fraction(-3, 2) * SP1.jet("u", (1,)),
                                    (1,): Fraction(-1, 2) * SP1.jet("u", (2,))}))
    verdicts = [is_hamiltonian(op) for op in ops]
    assert verdicts == [are_compatible(op, op) for op in ops]
    assert verdicts == [are_compatible(op, op.scale(1)) for op in ops]
    assert verdicts[-1] is False and True in verdicts


def test_parity_records_are_shared_and_bounded():
    """Each `is_hamiltonian` call asks for the momenta space afresh, and gets
    the one live space with those fields; spaces with the same dependents,
    nonlocals and odd names share one parity record, whose sign table holds
    an entry per pair of odd parts met, not one per monomial: after the first
    40 skew operators of criterion 9 it stays below 1,000 entries."""
    from test_acceptance import _rand_op

    first, second = momenta_space(SP1), momenta_space(SP1)
    assert first is second and first._parity is second._parity
    assert momenta_space(JetSpace.create(["x"], ["v"]))._parity is not first._parity
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        op = skew(_rand_op(rng, SP1))
        if not op.is_zero():
            is_hamiltonian(op)
            checked += 1
    assert 0 < len(first._parity) < 1000


NOT_SKEW = {"identity": {(0,): "1"}, "D_x^2": {(2,): "1"}, "u*D_x": {(1,): "u[0]"}}


@pytest.mark.parametrize("name", NOT_SKEW)
def test_operators_that_are_not_skew_are_not_hamiltonian(tmp_path, capsys, name):
    """<A(p), p> sees only A's skew part: 0 for the identity and D_x^2, and
    u D_x + 1/2 u_x, a Hamiltonian operator, for u D_x.  None of the three
    is skew-adjoint, so `verify-hamiltonian` fails on each and `compatible`
    fails on each with D_x, while their skew parts pass."""
    op = CDiffOp.scalar(SP1, {K: parse(c, SP1) for K, c in NOT_SKEW[name].items()})
    assert not is_hamiltonian(op) and not are_compatible(A_KDV, op)
    assert is_hamiltonian(skew(op)) and are_compatible(A_KDV, skew(op))
    data = corpus("kdv")
    data["hamiltonian"]["operators"]["N"] = {"rows": 1, "cols": 1, "entries": [
        {"row": 0, "col": 0, "terms": [{"D": list(K), "coef": c}
                                       for K, c in NOT_SKEW[name].items()]}]}
    data["tasks"] = [{"kind": "verify-hamiltonian", "op": "N"},
                     {"kind": "compatible", "ops": ["A", "N"]},
                     {"kind": "verify-hamiltonian", "op": "B"}]
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(data))
    assert main(["run", str(f), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [t["status"] for t in report["tasks"]] == ["fail", "fail", "ok"]


def test_hamiltonian_verdicts_match_a_sympy_poisson_bracket():
    """An oracle above the kernels: A is Hamiltonian iff {F, G} = int dF . A dG
    is skew and satisfies the Jacobi identity modulo divergences (Olver,
    Applications of Lie Groups to Differential Equations, 2nd ed., Ch. 7).
    Both are checked in sympy alone, with `euler_equations` as the
    variational derivative, on random densities c x^a u^b.  Where
    `is_hamiltonian` says True every sampled triple passes both; where it says
    False one of them fails on some sampled triple.  The operators are D_x,
    KdV's B, the three of NOT_SKEW, the route universe's -u D^3 - 3/2 u_x D^2
    - 1/2 u_xx D (skew, not Hamiltonian, yet criterion 9's 27 pairings pass it)
    and skew operators from criterion 9's generator."""
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations
    from test_acceptance import _rand_op
    from test_algebra import _to_sympy

    x, s = sympy.symbols("x s")
    u = sympy.Function("u")(x)
    jets = sympy.symbols("u0:24")  # u_k as a symbol; euler_equations sees d^k u/dx^k
    as_function = {j: u.diff(x, k) for k, j in enumerate(jets)}
    as_symbol = {d: j for j, d in as_function.items()}

    def total_derivative(f, times):
        for _ in range(times):
            f = sympy.expand(f.diff(x) + sum(b * f.diff(a) for a, b in zip(jets, jets[1:])
                                             if a in f.free_symbols))
        return f

    @functools.cache
    def delta_monomial(m):  # s*u keeps a constant gradient from collapsing the Eq to a bool
        (eq,) = euler_equations(m.xreplace(as_function) + s * u, [u], [x])
        return sympy.expand(eq.lhs.xreplace(as_symbol) - s)

    def delta(density):  # term by term, each monomial's once
        return sympy.expand(sum(c * delta_monomial(m) for m, c in
                                sympy.expand(density).as_coefficients_dict().items()))

    rng = random.Random(7)
    ops = [A_KDV, B_KDV] + [CDiffOp.scalar(SP1, {K: parse(c, SP1) for K, c in table.items()})
                            for table in NOT_SKEW.values()]
    ops.append(CDiffOp.scalar(SP1, {(3,): -U, (2,): Fraction(-3, 2) * SP1.jet("u", (1,)),
                                    (1,): Fraction(-1, 2) * SP1.jet("u", (2,))}))
    while len(ops) < 8:
        op = skew(_rand_op(rng, SP1))
        if not op.is_zero():
            ops.append(op)
    passes = []
    for op in ops:
        coeffs = [(K[0], _to_sympy(a, sympy, [u], [x]).xreplace(as_symbol))
                  for K, a in op.entry(0, 0).items()]

        def bracket(dF, dG):  # the density dF . A dG
            return sympy.expand(dF * sum(a * total_derivative(dG, k) for k, a in coeffs))

        def holds(dF, dG, dH):  # skew, then Jacobi, on three gradients
            return delta(bracket(dF, dG) + bracket(dG, dF)) == 0 and delta(
                bracket(delta(bracket(dF, dG)), dH) + bracket(delta(bracket(dG, dH)), dF)
                + bracket(delta(bracket(dH, dF)), dG)) == 0

        triples = ([delta(rng.choice([-2, -1, 1, 3]) * x ** rng.randint(0, 1)
                          * jets[0] ** rng.randint(2, 4)) for _ in range(3)] for _ in range(2))
        passes.append(all(holds(*triple) for triple in triples))
    assert passes == [is_hamiltonian(op) for op in ops]
    assert passes[:6] == [True, True, False, False, False, False]


def test_bivector_vector_bracket_is_minus_the_lie_derivative_in_sympy():
    """[[A, phi]](psi) = -(L_phi A)(psi) = l_phi(A psi) - E_phi(A)(psi)
    + A(l*_phi psi): A is invariant under the flow u_t = phi when L_phi A
    vanishes (Olver, Applications of Lie Groups to Differential Equations,
    2nd ed., Ch. 7).  Each piece is taken in sympy alone, on u(x):
    l_phi(eta) = d/de phi[u + e eta], E_phi(A)(psi) = d/de A[u + e phi](psi),
    both at e = 0, and l*_phi(psi) = sum_k (-D)^k (dphi/du_k psi).  On KdV's
    A = D_x and B = D^3 + 4u D + 2u_x and three gradients psi, the bracket
    vanishes along the KdV flow, which preserves both, and not along u^2."""
    sympy = pytest.importorskip("sympy")
    from test_algebra import _to_sympy

    x, e = sympy.symbols("x e")
    u = sympy.Function("u")(x)
    jets = sympy.symbols("u0:4")
    as_symbol = {u.diff(x, k): j for k, j in enumerate(jets)}
    as_function = {j: d for d, j in as_symbol.items()}

    def at(f, w=u):  # f as sympy reads it, with u replaced by the expression w
        return _to_sympy(f, sympy, [w], [x])

    def apply(op, f, w=u):  # op with its coefficients at u = w, applied to f
        return sum(at(a, w) * f.diff(x, K[0]) for K, a in op.entry(0, 0).items())

    def at_zero(f):  # d/de at e = 0
        return f.diff(e).subs(e, 0).doit()

    def l_star(f, psi):  # sum_k (-D)^k (df/du_k psi)
        g = f.xreplace(as_symbol)
        return sum((-1) ** k * (g.diff(j).xreplace(as_function) * psi).diff(x, k)
                   for k, j in enumerate(jets))

    for phi in (parse("6*u[0]*u[1] + u[3]", SP1), U * U):
        f = at(phi)
        for A in (A_KDV, B_KDV):
            for psi in (parse(text, SP1) for text in ("1", "u[0]", "3*u[0]^2 + u[2]")):
                p = at(psi)
                oracle = sympy.expand(at_zero(at(phi, u + e * apply(A, p)))
                                      - at_zero(apply(A, p, u + e * f)) + apply(A, l_star(f, p)))
                (ours,) = schouten_direct(A, [phi], [[psi]])
                assert sympy.expand(at(ours) - oracle) == 0
                assert (oracle == 0) is (phi != U * U)


def test_matrix_hamiltonian_verdicts_match_a_sympy_poisson_bracket():
    """The Poisson-bracket oracle on 2 x 2 operators and vector densities:
    with dF = (delta_u F, delta_v F), A is Hamiltonian iff {F, G} = int
    dF . A dG is skew and satisfies the Jacobi identity modulo divergences,
    and skew A and B are compatible iff the cross term of the Jacobi
    identity of A + B, the cyclic sum of {{F, G}_A, H}_B + {{F, G}_B, H}_A,
    is a divergence (Olver, Ch. 7).  Both are checked in a sympy polynomial
    ring alone, with delta = sum_k (-D)^k d/du_k and D the total derivative
    on its jet generators, on random densities c x^a u^b v^c (u + v).  The
    operators are Boussinesq's A, B and C and a mutant of each, which adds
    a D + a_x/2 to a diagonal entry: a = 2u in A's (v, v) entry keeps it
    Hamiltonian but compatible with neither B nor C, a = u in B's (u, u)
    entry and a = v in C's (v, v) entry leave them skew, not Hamiltonian.
    The sampled verdicts equal `is_hamiltonian` on every operator and
    `are_compatible` on every pair of the Hamiltonian ones."""
    sympy = pytest.importorskip("sympy")
    sp, A, B, C = boussinesq_ops()

    def plus(op, j, a):  # op with a D + a_x/2 added to entry (j, j)
        a = parse(a, sp)
        return op + CDiffOp(sp, 2, 2, {(j, j): {(1,): a, (0,): a.total_derivative(0) * Fraction(1, 2)}})

    ops = [A, B, C, plus(A, 1, "2*u[0]"), plus(B, 0, "u[0]"), plus(C, 1, "v[0]")]
    order = 16  # jet generators u0..u15 and v0..v15
    R, x, sigma, *flat = sympy.ring(["x", "sigma"] + [f"{name}{k}" for name in sp.dependent
                                                      for k in range(order)], sympy.QQ)
    jets = [flat[:order], flat[order:]]
    slot = {g: k for k, g in enumerate(R.gens)}

    def present(f):  # the generators f mentions
        return {R.gens[k] for m in f.itermonoms() for k, e in enumerate(m) if e}

    def D(f, times):
        for _ in range(times):
            here = present(f)
            assert not here & {js[-1] for js in jets}
            f = f.diff(x) + sum((b * f.diff(a) for js in jets for a, b in zip(js, js[1:])
                                 if a in here), R.zero)
        return f

    def delta(f):
        here = present(f)
        return [sum(((-1) ** k * D(f.diff(j), k) for k, j in enumerate(js) if j in here),
                    R.zero) for js in jets]

    def coefficient(a):
        out = R.zero
        for factors, c in decoded_terms(a).items():
            term = R(sympy.Rational(c.numerator, c.denominator))
            for key, e in factors:
                base = jets[key[1]][key[2][0]] if key[0] == 'j' else {'i': x, 'q': sigma}[key[0]]
                term *= base ** e
            out += term
        return out

    def bracket(X, dF, dG):  # the density dF . X dG
        return sum((dF[r] * a * D(dG[c], k) for r, c, k, a in X), R.zero)

    def jacobi_cross(X, Y, triple):  # X is Y: the Jacobi identity itself
        total = R.zero
        for f, g, h in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            total += bracket(Y, delta(bracket(X, f, g)), h)
            if Y is not X:
                total += bracket(X, delta(bracket(Y, f, g)), h)
        return not any(delta(total))

    tables = [[(r, c, I[0], coefficient(a)) for r, c, I, a in op.terms()] for op in ops]
    rng = random.Random(7)
    u, v = jets[0][0], jets[1][0]
    triples = [[delta(rng.choice([-2, -1, 1, 3]) * x ** rng.randint(0, 1) * u ** rng.randint(0, 2)
                      * v ** rng.randint(0, 2) * (u + v)) for _ in range(3)] for _ in range(3)]
    skew = [all(not any(delta(bracket(X, f, g) + bracket(X, g, f))) for f, g, _ in triples)
            for X in tables]
    hamiltonian = [s and all(jacobi_cross(X, X, t) for t in triples)
                   for s, X in zip(skew, tables)]
    assert hamiltonian == [is_hamiltonian(op) for op in ops] == [True] * 4 + [False] * 2
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]  # the Hamiltonian ones
    compatible = [all(jacobi_cross(tables[i], tables[j], t) for t in triples) for i, j in pairs]
    assert compatible == [are_compatible(ops[i], ops[j]) for i, j in pairs] == \
        [True] * 4 + [False] * 2


def test_an_operator_on_other_dependents_has_no_superdensity():
    """A 2 x 2 operator on the one dependent of (x; u) would pair momenta of
    dependents the space does not have: a ShapeError, as for a non-square one."""
    two = CDiffOp(SP1, 2, 2, [(0, 1, (1,), SP1.one()), (1, 0, (1,), SP1.one())])
    for op in (two, CDiffOp(SP1, 1, 2, [])):
        with pytest.raises(ShapeError):
            is_hamiltonian(op)


# -- the involution of a Magri hierarchy ---------------------------------------


def _magri_pairings(data, monkeypatch):
    """(the magri task's involution verdict, the pairings it tested) on a
    fresh Problem that runs only that task."""
    pairings, test = [], cli.euler_is_zero

    def counted(density):
        pairings.append(density)
        return test(density)

    monkeypatch.setattr(cli, "euler_is_zero", counted)
    problem = Problem(data)
    (task,) = [t for t in data["tasks"] if t["kind"] == "magri"]
    return run_task(problem, task)["involution"], len(pairings), problem, task


def _full_involution(A, B, omega, steps):
    """Every one of the 2 n^2 pairings <X(delta w_i), delta w_j>, X = A and B,
    of magri_hierarchy's n densities w_i, a divergence."""
    densities, _, flows = magri_hierarchy(A, B, omega, steps)
    grads = [euler(w) for w in densities]
    assert flows == [A.apply(g) for g in grads]
    return all(euler_is_zero(pairing_density(X.apply(g), h))
               for X in (A, B) for g in grads for h in grads)


def test_the_involution_of_skew_operators_tests_half_the_pairs(monkeypatch):
    """KdV's magri task has n = 4 densities and skew A and B: 2 * 6 pairings
    j > i, not 32, and the verdict of all 2 n^2."""
    involution, pairings, problem, task = _magri_pairings(corpus("kdv"), monkeypatch)
    A, B = problem.ham_ops["A"], problem.ham_ops["B"]
    assert involution is True and pairings == 2 * 6
    assert _full_involution(A, B, parse(task["seed"], problem.ham_space), task["steps"])


def test_a_matrix_operator_takes_its_magri_step_through_the_ansatz(monkeypatch):
    """Boussinesq's A is 2 x 2, not D_x, so each step solves A(psi) = B(delta w)
    in the ansatz: two slots and the target.  One step from u."""
    solves, solve = [], hamiltonian.solve_linear

    def counted(A, target, ansatz):
        solves.append((A.cols, len(target)))
        return solve(A, target, ansatz)

    monkeypatch.setattr(hamiltonian, "solve_linear", counted)
    data = dict(corpus("boussinesq"),
                tasks=[{"kind": "magri", "steps": 1, "A": "A", "B": "B", "seed": "u[0]"}])
    assert run_task(Problem(data), data["tasks"][0]) == {
        "task": "magri", "densities": ["u[0]", "1/2*u[0]*v[0]"],
        "flows": [["0", "0"], ["1/2*u[1]", "1/2*v[1]"]], "involution": True, "status": "ok"}
    assert solves == [(2, 2)]


def test_the_ansatz_stops_boussinesq_at_its_second_step(tmp_path, capsys):
    """Boussinesq's second step needs the coefficient sigma/2, and the ansatz
    solves over Q with no parameter among its generators: the task is an error."""
    data = dict(corpus("boussinesq"),
                tasks=[{"kind": "magri", "steps": 2, "A": "A", "B": "B", "seed": "u[0]"}])
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(data))
    assert main(["run", str(f), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["tasks"] == [{
        "task": "magri", "status": "error",
        "detail": "no ansatz solution of A(psi) = B(delta omega)"}]


def test_an_operator_that_is_not_skew_keeps_every_pair(monkeypatch):
    """A = D_x and B = D_x o u = u D_x + u_x, which is not skew, from w_0 = u:
    A(psi) = B(delta w_k) gives w_k = u^(k+1)/(k+1), and every pairing is a
    divergence.  A takes its 6 pairs j > i, B all 16: 22 of 32."""
    data = corpus("kdv")
    data["hamiltonian"]["operators"]["N"] = {"rows": 1, "cols": 1, "entries": [
        {"row": 0, "col": 0, "terms": [{"D": [1], "coef": "u[0]"}, {"D": [0], "coef": "u[1]"}]}]}
    data["tasks"] = [{"kind": "magri", "steps": 3, "A": "A", "B": "N", "seed": "u[0]"}]
    involution, pairings, problem, _ = _magri_pairings(data, monkeypatch)
    A, N = problem.ham_ops["A"], problem.ham_ops["N"]
    assert problem.gradient("A")[1] and not problem.gradient("N")[1]
    assert involution is True and pairings == 6 + 16
    densities = magri_hierarchy(A, N, U, 3)[0]
    assert densities == [U ** (k + 1) * Fraction(1, k + 1) for k in range(4)]
    assert _full_involution(A, N, U, 3)


def test_an_operator_that_is_not_square_keeps_every_pair(monkeypatch):
    """A 2 x 1 B on the one dependent of (x; u) has no momentum gradient, so
    no skew verdict: the magri task tests all its n^2 pairings, as it tests
    them for any operator that is not skew, and reads no gradient of it."""
    data = corpus("kdv")
    data["hamiltonian"]["operators"]["W"] = {"rows": 2, "cols": 1, "entries": [
        {"row": r, "col": 0, "terms": [{"D": [1], "coef": "1"}]} for r in range(2)]}
    data["tasks"] = [{"kind": "magri", "steps": 2, "A": "A", "B": "W", "seed": "1/2*u[0]"}]
    involution, pairings, problem, _ = _magri_pairings(data, monkeypatch)
    assert involution is True and pairings == 3 + 9
    assert list(problem._gradients) == ["A"]
