import dataclasses
import random
from fractions import Fraction
from itertools import chain, product
from math import comb, prod

import pytest

from jetcalc import (
    CDiffOp,
    DiffExpr,
    JetSpace,
    PseudoOp,
    ev_apply,
    euler,
    green_form,
    helmholtz,
    jacobi,
    linearize,
    make_presentation,
    pairing_density,
    parse,
)
from jetcalc import operators
from jetcalc.algebra import apply_DI, mi_add, mi_order, mi_sub, sum_of_products, sum_of_terms
from jetcalc.hamiltonian import momenta_space
from jetcalc.errors import NonlocalObstruction, ShapeError
from monomials import entries, raw_entries

SP = JetSpace.create(["x", "t"], ["u"])


def rand_expr(space, rng, maxord=2, maxdeg=2, nterms=2):
    e = space.zero()
    for _ in range(nterms):
        m = space.num(rng.randint(-3, 3))
        for _ in range(rng.randint(0, maxdeg)):
            k = rng.randint(0, maxord + 1)
            m = m * (space.jet(0, (k, 0)) if k <= maxord else space.indep(0))
        e = e + m
    return e


def rand_op(space, rng, maxorder=3):
    tab = {}
    for _ in range(rng.randint(1, 3)):
        I = (rng.randint(0, maxorder), rng.randint(0, 1))
        tab[I] = rand_expr(space, rng)
    return CDiffOp.scalar(space, tab)


def test_terms_on_one_slot_are_summed_and_zeros_dropped():
    u = SP.jet("u", (0, 0))
    Dx = (1, 0)
    op = CDiffOp(SP, 2, 2, [(0, 0, Dx, u), (1, 1, Dx, u), (0, 0, Dx, 2 * u),
                            (1, 1, Dx, -u), (0, 1, (0, 0), SP.zero())])
    assert list(op.terms()) == [(0, 0, Dx, 3 * u)]
    assert op == CDiffOp(SP, 2, 2, {(0, 0): {Dx: 3 * u}, (1, 1): {Dx: SP.zero()}})


def test_terms_build_the_operator_their_table_gives():
    rng = random.Random(61)
    for _ in range(25):
        terms = [(rng.randint(0, 1), rng.randint(0, 2), (rng.randint(0, 2), rng.randint(0, 1)),
                  rand_expr(SP, rng, nterms=1)) for _ in range(rng.randint(0, 12))]
        table = {}
        for r, c, I, a in terms:
            tab = table.setdefault((r, c), {})
            tab[I] = tab.get(I, SP.zero()) + a
        op = CDiffOp(SP, 2, 3, terms)
        assert op == CDiffOp(SP, 2, 3, table)
        assert CDiffOp(SP, 2, 3, op.terms()) == op
        assert all(not a.is_zero() for *_, a in op.terms())


def test_compose_leibniz():
    u = SP.jet("u", (0, 0))
    Dx = CDiffOp.total_derivative(SP, 0)
    comp = Dx.compose(CDiffOp.mult(SP, u))
    assert comp == CDiffOp.scalar(SP, {(0, 0): SP.jet("u", (1, 0)), (1, 0): u})
    ident = CDiffOp.identity(SP, 1)
    assert Dx.compose(ident) == Dx
    assert Dx.compose(Dx).apply([u])[0] == SP.jet("u", (2, 0))


def test_compose_shape_mismatch():
    Dx = CDiffOp.total_derivative(SP, 0)
    wide = CDiffOp(SP, 1, 2, {(0, 0): {(0, 0): SP.one()}})
    with pytest.raises(ShapeError):
        wide.compose(wide)
    assert Dx.compose(wide).cols == 2


def test_adjoint_examples():
    u = SP.jet("u", (0, 0))
    ux = SP.jet("u", (1, 0))
    Dx = CDiffOp.total_derivative(SP, 0)
    assert Dx.adjoint() == Dx.scale(-1)
    A = CDiffOp.scalar(SP, {(1, 0): u})
    # (u D_x)* = -u D_x - u_x, term-by-term integration by parts
    assert A.adjoint() == CDiffOp.scalar(SP, {(1, 0): -u, (0, 0): -ux})
    F = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", SP)
    lFs = linearize([F]).adjoint()
    assert lFs == CDiffOp.scalar(SP, {(0, 1): SP.num(-1), (3, 0): SP.one(),
                                      (1, 0): 6 * u})


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(23)
    for _ in range(40):
        A = rand_op(SP, rng, maxorder=4)
        B = rand_op(SP, rng, maxorder=2)
        assert A.adjoint().adjoint() == A
        assert A.compose(B).adjoint() == B.adjoint().compose(A.adjoint())


def test_adjoint_skips_vanishing_derivatives(monkeypatch):
    """(5 D_x^3 + u D_x)*: D_x^k(5) = 0 for k > 0 costs no term, so the
    adjoint hands its slots' accumulator 1 + 2 terms, not 4 + 2."""
    u = SP.jet("u", (0, 0))
    op = CDiffOp.scalar(SP, {(3, 0): SP.num(5), (1, 0): u})
    expected = CDiffOp.scalar(SP, {(3, 0): SP.num(-5), (1, 0): -u,
                                   (0, 0): -SP.jet("u", (1, 0))})
    handed = []

    def counting(space, terms):
        handed.extend(terms)
        return sum_of_terms(space, terms)

    monkeypatch.setattr(operators, "sum_of_terms", counting)
    assert op.adjoint() == expected
    assert len(handed) == 3


# -- the operator algebra against its term-by-term definition ---------------


def by_terms(space, rows, cols, terms):
    """The operator of (r, c, I, a) terms added one by one with +, each
    product already formed: the construction the accumulator replaces."""
    table = {}
    for r, c, I, a in terms:
        if not a.is_zero():
            tab = table.setdefault((r, c), {})
            tab[I] = tab[I] + a if I in tab else a
    return CDiffOp(space, rows, cols, {rc: {I: a for I, a in tab.items() if not a.is_zero()}
                                       for rc, tab in table.items()})


def compose_by_terms(A, B):
    return by_terms(A.space, A.rows, B.cols,
                    ((r, c, mi_add(mi_sub(I, Jp), J), a * apply_DI(b, Jp) * prod(map(comb, I, Jp)))
                     for r, k, I, a in A.terms() for c in range(B.cols)
                     for J, b in B.entry(k, c).items()
                     for Jp in product(*(range(e + 1) for e in I))))


def adjoint_by_terms(A):
    return by_terms(A.space, A.cols, A.rows,
                    ((c, r, mi_sub(I, Jp),
                      apply_DI(a, Jp) * ((-1) ** mi_order(I) * prod(map(comb, I, Jp))))
                     for r, c, I, a in A.terms() for Jp in product(*(range(e + 1) for e in I))))


def sub_by_terms(A, B):
    return by_terms(A.space, A.rows, A.cols,
                    chain(A.terms(), ((r, c, I, -a) for r, c, I, a in B.terms())))


def rand_coefficient(space, rng):
    """A sum of up to three Fraction multiples of products of up to two jets
    of any family, odd ones included, or of the first independent variable."""
    e = space.zero()
    for _ in range(rng.randint(1, 3)):
        m = space.num(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2)):
            K = tuple(rng.randint(0, 2 if i == 0 else 1) for i in range(space.n))
            m = m * (space.indep(0) if rng.random() < 0.1 else space.jet(rng.randrange(space.m), K))
        e = e + m
    return e


def rand_matrix_op(space, rng, rows, cols, maxorder=2):
    return CDiffOp(space, rows, cols, [
        (rng.randrange(rows), rng.randrange(cols),
         tuple(rng.randint(0, maxorder if i == 0 else 1) for i in range(space.n)),
         rand_coefficient(space, rng)) for _ in range(rng.randint(1, 6))])


ORACLE_SPACES = {"x;u": JetSpace.create(["x"], ["u"]),
                 "x,t;u,v": JetSpace.create(["x", "t"], ["u", "v"]),
                 "x;u,p_u odd": momenta_space(JetSpace.create(["x"], ["u"]))}


@pytest.mark.parametrize("name", list(ORACLE_SPACES))
def test_operator_algebra_matches_the_term_by_term_sum(name):
    """compose, adjoint, +, - and negation equal the operators built by forming each
    product and adding term by term, on seeded random operators with
    Fraction coefficients, more than one column, and odd coefficients."""
    space = ORACLE_SPACES[name]
    rng = random.Random(83)
    for _ in range(30):
        m = rng.randint(1, 3)
        A, B = (rand_matrix_op(space, rng, 2, m) for _ in range(2))
        C = rand_matrix_op(space, rng, m, rng.randint(1, 3))
        assert A.compose(C) == compose_by_terms(A, C)
        assert A.adjoint() == adjoint_by_terms(A)
        assert A + B == by_terms(space, 2, m, chain(A.terms(), B.terms()))
        assert A - B == sub_by_terms(A, B)
        assert A - A == CDiffOp(space, 2, m)
        assert -A == sub_by_terms(CDiffOp(space, 2, m), A)


@pytest.mark.parametrize("name", ["kdv", "boussinesq"])
def test_theta_matches_the_term_by_term_sum(name, request):
    """Theta, for a bivector and with adjoint for a symplectic operator, is
    l o delta - delta* o l* by the term-by-term construction."""
    pres = request.getfixturevalue(name)
    rng = random.Random(89)
    L = pres.linearization()
    for _ in range(8):
        delta = rand_matrix_op(pres.space, rng, pres.space.m, pres.space.m)
        assert pres.theta(delta) == sub_by_terms(
            compose_by_terms(L, delta), compose_by_terms(adjoint_by_terms(delta),
                                                         adjoint_by_terms(L)))
        assert pres.theta(delta, adjoint=True) == sub_by_terms(
            compose_by_terms(adjoint_by_terms(L), delta), compose_by_terms(
                adjoint_by_terms(delta), L))


def apply_by_terms(op, vec, d=None):
    """op(vec) by its definition, one apply_DI per term."""
    out = [op.space.zero() for _ in range(op.rows)]
    for r, c, I, a in op.terms():
        out[r] = out[r] + a * apply_DI(vec[c], I, d)
    return out


@pytest.mark.parametrize("name", ["kdv", "camassa_holm", "boussinesq"])
def test_apply_towers_match_the_term_by_term_sum(name, request):
    """The per-call derivative towers give the same dicts, in the same
    order, as one apply_DI per term summed into one accumulator per row,
    with restricted and free derivatives; and the same terms as the
    row-by-row sum, whose order differs where terms cancel midway."""
    pres = request.getfixturevalue(name)
    space = pres.space
    rng = random.Random(67)
    L = pres.linearization()
    for op in (pres.restrict_operator(L), pres.restrict_operator(L.adjoint()), L):
        for _ in range(3):
            vec = [pres.normal_form(rand_expr(space, rng, maxord=3) * space.jet(
                rng.randrange(space.m), (0, rng.randint(0, 1))))
                for _ in range(op.cols)]
            for d in (pres.d_bar, None):
                got = op.apply(vec, d)
                fused = [sum_of_products(space, [(a, apply_DI(vec[c], I, d))
                                                 for row, c, I, a in op.terms() if row == r])
                         for r in range(op.rows)]
                assert [list(x.coefficients()) for x in got] == \
                    [list(x.coefficients()) for x in fused]
                assert [dict(x.coefficients()) for x in got] == \
                    [dict(x.coefficients()) for x in apply_by_terms(op, vec, d)]


def test_apply_takes_each_derivative_once(camassa_holm):
    """The restricted l_F of Camassa-Holm has terms in D_t, D_xxt, D_xxx,
    D_xx, D_x and 1: ten derivatives one term at a time, five distinct."""
    pres = camassa_holm
    op = pres.restrict_operator(pres.linearization())
    assert sorted(I for *_, I, _ in op.terms()) == \
        [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0)]
    calls = []

    def d(e, i):
        calls.append(i)
        return pres.d_bar(e, i)

    vec = [parse("u[0,0]*u[1,0] + x*u[2,0]", pres.space)]
    assert op.apply(vec, d) == apply_by_terms(op, vec, pres.d_bar)
    assert len(calls) == 5


def _chain(K):
    """K, K - e_i, ... down to the zero multi-index (left out), i each
    time the last nonzero slot."""
    while any(K):
        yield K
        i = max(k for k, x in enumerate(K) if x)
        K = K[:i] + (K[i] - 1,) + K[i + 1:]


def test_apply_plan_serves_every_vector(boussinesq, monkeypatch):
    """An operator plans its derivatives once: applied to two different
    vectors, free and restricted, it gives the term-by-term sums, and each
    apply takes one total derivative per nonzero node of the plan."""
    pres = boussinesq
    space = pres.space
    ops = [pres.linearization(), pres.restrict_operator(pres.linearization().adjoint())]
    vecs = [[parse("u[0,0]*v[1,0] + x*u[2,0]", space), parse("sigma*v[0,1]", space)],
            [parse("v[0,0]^2", space), parse("u[1,0] - 3*u[0,0]*v[0,0]", space)]]
    calls = []

    def d_bar(e, i):
        calls.append(i)
        return pres.d_bar(e, i)
    free = DiffExpr.total_derivative
    for op in ops:
        nodes = {(c, J) for _, c, K, _ in op.terms() for J in _chain(K)}
        assert len(nodes) > len({(c, K) for _, c, K, _ in op.terms() if any(K)})
        for vec in vecs:
            for d in (None, d_bar):
                if d is None:  # counted on the free D_i itself
                    monkeypatch.setattr(DiffExpr, "total_derivative",
                                        lambda e, i: calls.append(i) or free(e, i))
                got = op.apply([x.rename_space(space) for x in vec], d)
                monkeypatch.undo()
                assert len(calls) == len(nodes)
                del calls[:]
                assert got == apply_by_terms(op, vec, pres.d_bar if d else None)


def test_columns_are_apply_on_unit_slot_vectors(boussinesq, monkeypatch):
    """columns(e, d)[c] is apply on the vector holding e at c and 0
    elsewhere, free and restricted: its raw sums hold the coefficients of
    apply's rows, each of the same type.  It takes one total derivative per
    node of one tower over every column's K: each D_J(e) once, whatever
    the number of columns that need it."""
    pres = boussinesq
    space = pres.space
    ops = [pres.linearization(), pres.restrict_operator(pres.linearization().adjoint())]
    exprs = [parse("u[0,0]*v[1,0] + x*u[2,0]", space), parse("sigma*v[0,0]^2", space)]
    calls = []

    def d_bar(e, i):
        calls.append(i)
        return pres.d_bar(e, i)
    free = DiffExpr.total_derivative
    for op in ops:
        nodes = {J for _, _, K, _ in op.terms() for J in _chain(K)}
        assert len(nodes) < len({(c, J) for _, c, K, _ in op.terms() for J in _chain(K)})
        for e in exprs:
            for d in (None, d_bar):
                if d is None:  # counted on the free D_i itself
                    monkeypatch.setattr(DiffExpr, "total_derivative",
                                        lambda x, i: calls.append(i) or free(x, i))
                got = op.columns(e, d)
                monkeypatch.undo()
                assert len(calls) == len(nodes)
                del calls[:]
                units = [[e if k == c else space.zero() for k in range(op.cols)]
                         for c in range(op.cols)]
                assert [[raw_entries(raw) for raw in col] for col in got] == [
                    [entries(x) for x in op.apply(vec, pres.d_bar if d else None)]
                    for vec in units]


def test_an_applied_operator_table_refuses_writes():
    """The plan that the first apply builds from an operator's table cannot
    go stale: neither the table nor an entry of it can be written."""
    sp = JetSpace.create(["x"], ["u"])
    u, ux = sp.jet("u", (0,)), sp.jet("u", (1,))
    op = CDiffOp.total_derivative(sp, 0)
    assert op.apply([u * u]) == [2 * u * ux]
    with pytest.raises(TypeError):
        op.entries[(0, 0)] = {(2,): sp.one()}
    with pytest.raises(TypeError):
        op.entries[(0, 0)][(2,)] = sp.one()
    assert op.apply([u * u]) == [2 * u * ux]
    assert op == CDiffOp.total_derivative(sp, 0)


def test_an_applied_operator_refuses_rebinding():
    """Nor can a field be rebound or deleted, as on a frozen dataclass: the
    D_x^2 table put in place of D_x's after a first apply would leave that
    apply's plan behind it."""
    sp = JetSpace.create(["x"], ["u"])
    u, ux = sp.jet("u", (0,)), sp.jet("u", (1,))
    op = CDiffOp.total_derivative(sp, 0)
    assert op.apply([u * u]) == [2 * u * ux]
    other = CDiffOp.scalar(sp, {(2,): sp.one()})
    for name, value in [("space", JetSpace.create(["x"], ["v"])), ("rows", 2), ("cols", 2),
                        ("entries", other.entries), ("_plan", None)]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field {name!r}"):
            setattr(op, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field {name!r}"):
            delattr(op, name)
    assert op.apply([u * u]) == [2 * u * ux]
    assert (op.rows, op.cols, op.space) == (1, 1, sp)
    assert op == CDiffOp.total_derivative(sp, 0) and repr(op) != repr(other)


def test_linearize_kdv():
    F = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", SP)
    lF = linearize([F])
    expect = CDiffOp.scalar(SP, {
        (0, 1): SP.one(), (3, 0): SP.num(-1),
        (1, 0): -6 * SP.jet("u", (0, 0)), (0, 0): -6 * SP.jet("u", (1, 0))})
    assert lF == expect
    assert linearize([SP.jet("u", (0, 0))]) == CDiffOp.identity(SP, 1)


def test_linearize_3component():
    sp3 = JetSpace.create(["x", "t"], ["u", "v", "w"])
    F = [parse("u[1,0] - v[0,0]", sp3), parse("v[1,0] - w[0,0]", sp3),
         parse("w[1,0] - u[0,1] + 6*u[0,0]*v[0,0]", sp3)]
    L = linearize(F)
    one = sp3.one()
    assert L.entry(0, 0) == {(1, 0): one}
    assert L.entry(0, 1) == {(0, 0): -one}
    assert L.entry(2, 0) == {(0, 1): -one, (0, 0): 6 * sp3.jet("v", (0, 0))}
    assert L.entry(2, 1) == {(0, 0): 6 * sp3.jet("u", (0, 0))}
    assert L.entry(2, 2) == {(1, 0): one}


@pytest.mark.parametrize("space", [SP, JetSpace.create(["x", "t"], ["u", "v"])],
                         ids=["x,t;u", "x,t;u,v"])
def test_linearize_matches_sympy(space):
    """l_F(phi) is d/d(eps) of F[u + eps*phi] at eps = 0."""
    sympy = pytest.importorskip("sympy")
    from test_algebra import _to_sympy, rand_density

    xs = sympy.symbols(space.independent)
    eps = sympy.Symbol("eps")
    funcs = [sympy.Function(name)(*xs) for name in space.dependent]
    rng = random.Random(53)
    fams = list(range(space.m))
    laurent = space.jet(0, (0, 0)).inverse_monomial()
    for _ in range(5):
        F = [rand_density(space, rng, fams, maxord=3, nterms=3) for _ in fams]
        phi = [rand_density(space, rng, fams, maxord=2, nterms=2) for _ in fams]
        shifted = [f + eps * _to_sympy(p, sympy, funcs, xs) for f, p in zip(funcs, phi)]
        for G in (F, [f * laurent for f in F]):
            ours = linearize(G).apply(phi)
            for g, lg in zip(G, ours):
                theirs = sympy.diff(_to_sympy(g, sympy, shifted, xs), eps).subs(eps, 0)
                assert sympy.expand(theirs - _to_sympy(lg, sympy, funcs, xs)) == 0


def _rand_matrix_op(space, rng, rows, cols, maxorder=2):
    """rows x cols operator with one or two random terms in every entry,
    coefficients random densities in the jets of u and the independents."""
    from test_algebra import rand_density, rand_index

    return CDiffOp(space, rows, cols, [
        (r, c, rand_index(rng, space.n, maxorder),
         rand_density(space, rng, [0], maxord=2, maxdeg=2, nterms=2))
        for r in range(rows) for c in range(cols) for _ in range(rng.randint(1, 2))])


def _sympy_apply(op, fs, sympy, funcs, xs):
    """op applied to sympy expressions fs, by sympy's diff."""
    from test_algebra import _to_sympy

    rows = [sympy.Integer(0)] * op.rows
    for r, c, I, a in op.terms():
        steps = [x for x, k in zip(xs, I) for _ in range(k)]
        rows[r] += _to_sympy(a, sympy, funcs, xs) * (sympy.diff(fs[c], *steps)
                                                     if steps else fs[c])
    return rows


@pytest.mark.parametrize("space, shape", [
    (JetSpace.create(["x"], ["u"]), (1, 1)), (JetSpace.create(["x"], ["u"]), (2, 2)),
    (SP, (1, 1))], ids=["x;u-1x1", "x;u-2x2", "x,t;u-1x1"])
def test_adjoint_satisfies_the_green_identity_in_sympy(space, shape):
    """<A p, q> - <p, A* q> is a total divergence for arbitrary functions p,
    q: sympy's Euler-Lagrange operator, in u, p and q, annihilates it."""
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    xs = sympy.symbols(space.independent)
    funcs = [sympy.Function("u")(*xs)]
    rows, cols = shape
    ps = [sympy.Function(f"p{c}")(*xs) for c in range(cols)]
    qs = [sympy.Function(f"q{r}")(*xs) for r in range(rows)]
    rng = random.Random(97)
    for _ in range(3):
        A = _rand_matrix_op(space, rng, rows, cols)
        Ap = _sympy_apply(A, ps, sympy, funcs, xs)
        Aq = _sympy_apply(A.adjoint(), qs, sympy, funcs, xs)
        density = sum(q * a for q, a in zip(qs, Ap)) - sum(p * a for p, a in zip(ps, Aq))
        for eq in euler_equations(density, funcs + ps + qs, xs):
            assert sympy.expand(eq.lhs) == 0


@pytest.mark.parametrize("space", [JetSpace.create(["x"], ["u"]), SP], ids=["x;u", "x,t;u"])
def test_compose_matches_sympy(space):
    """(A o B)(f) is A(B(f)) for an arbitrary f, differentiated by sympy."""
    sympy = pytest.importorskip("sympy")

    xs = sympy.symbols(space.independent)
    funcs = [sympy.Function("u")(*xs)]
    fs = [sympy.Function(f"f{c}")(*xs) for c in range(2)]
    rng = random.Random(101)
    for _ in range(3):
        A, B = _rand_matrix_op(space, rng, 2, 2), _rand_matrix_op(space, rng, 2, 2)
        ours = _sympy_apply(A.compose(B), fs, sympy, funcs, xs)
        theirs = _sympy_apply(A, _sympy_apply(B, fs, sympy, funcs, xs), sympy, funcs, xs)
        assert all(sympy.expand(a - b) == 0 for a, b in zip(ours, theirs))


def test_ev_apply():
    ux = SP.jet("u", (1, 0))
    assert ev_apply([ux], SP.jet("u", (0, 0))) == ux
    rng = random.Random(31)
    for _ in range(20):
        f = rand_expr(SP, rng)
        # E_{u_x}(f) = D_x f - df/dx
        lhs = ev_apply([ux], f)
        rhs = f.total_derivative(0) - f.partial(('i', 0))
        assert (lhs - rhs).is_zero()
        assert ev_apply([rand_expr(SP, rng)], SP.num(5)).is_zero()


def test_ev_commutes_with_total_derivatives():
    rng = random.Random(37)
    for _ in range(25):
        phi = [rand_expr(SP, rng)]
        e = rand_expr(SP, rng)
        for i in range(2):
            a = ev_apply(phi, e.total_derivative(i))
            b = ev_apply(phi, e).total_derivative(i)
            assert (a - b).is_zero()


def test_jacobi_examples():
    ux = SP.jet("u", (1, 0))
    phi2 = parse("6*t*u[1,0] + 1", SP)
    assert all(x.is_zero() for x in jacobi([ux], [phi2]))
    flow = parse("6*u[0,0]*u[1,0] + u[3,0]", SP)
    assert all(x.is_zero() for x in jacobi([ux], [flow]))
    rng = random.Random(41)
    phi = [rand_expr(SP, rng)]
    assert all(x.is_zero() for x in jacobi(phi, phi))


def test_jacobi_identity():
    rng = random.Random(43)
    for _ in range(15):
        a = [rand_expr(SP, rng, nterms=2)]
        b = [rand_expr(SP, rng, nterms=2)]
        c = [rand_expr(SP, rng, nterms=2)]
        total = [x + y + z for x, y, z in zip(
            jacobi(a, jacobi(b, c)), jacobi(b, jacobi(c, a)),
            jacobi(c, jacobi(a, b)))]
        assert all(x.is_zero() for x in total)


def test_helmholtz():
    assert helmholtz([parse("3*u[0,0]^2 + u[2,0]", SP)]).is_zero()
    assert helmholtz([SP.jet("u", (0, 0))]).is_zero()
    h = helmholtz([SP.jet("u", (1, 0))])
    assert h == CDiffOp.scalar(SP, {(1, 0): SP.num(2)})


def test_helmholtz_of_euler_is_zero():
    rng = random.Random(47)
    for _ in range(30):
        L = rand_expr(SP, rng, maxdeg=3, nterms=3)
        assert helmholtz(euler(L)).is_zero()


def test_green_form_examples():
    sp1 = JetSpace.create(["x"], ["u"])
    p = sp1.jet("u", (1,))
    q = sp1.jet("u", (0,)) * sp1.jet("u", (2,))
    Dx = CDiffOp.total_derivative(sp1, 0)
    assert green_form(Dx, [p], [q]).component(()) == p * q
    D2 = CDiffOp.scalar(sp1, {(2,): sp1.one()})
    g2 = green_form(D2, [p], [q]).component(())
    assert g2 == p.total_derivative(0) * q - p * q.total_derivative(0)
    assert green_form(CDiffOp.identity(sp1, 1), [p], [q]).component(()).is_zero()


def test_green_identity_random():
    rng = random.Random(53)
    for _ in range(25):
        op = rand_op(SP, rng)
        p = [rand_expr(SP, rng)]
        q = [rand_expr(SP, rng)]
        form = green_form(op, p, q)
        lhs = pairing_density(op.apply(p), q) - \
            pairing_density(p, op.adjoint().apply(q))
        rhs = form.component((1,)).total_derivative(0) - \
            form.component((0,)).total_derivative(1)
        assert (lhs - rhs).is_zero()


def test_operator_json_roundtrip():
    rng = random.Random(59)
    op = rand_op(SP, rng)
    data = op.to_json()
    back = CDiffOp.from_json(SP, 1, 1, data)
    assert back == op


@pytest.mark.parametrize("row, col, D, message", [
    (3, 0, [1, 0], "operator entry (row 3, col 0) lies outside its 1x1 shape"),
    (0, 1, [1, 0], "operator entry (row 0, col 1) lies outside its 1x1 shape"),
    (0, 0, [1], "operator entry (row 0, col 0): multi-index [1] needs 2 entries"),
], ids=["row", "col", "D"])
def test_operator_json_rejects_malformed_entries(row, col, D, message):
    data = [{"row": row, "col": col, "terms": [{"D": D, "coef": "1"}]}]
    with pytest.raises(ShapeError) as info:
        CDiffOp.from_json(SP, 1, 1, data)
    assert message in str(info.value)


def test_operator_json_reads_integral_floats():
    data = [{"row": 0.0, "col": 0, "terms": [{"D": [1.0, 0], "coef": "u[0,0]"}]}]
    as_ints = [{"row": 0, "col": 0, "terms": [{"D": [1, 0], "coef": "u[0,0]"}]}]
    op = CDiffOp.from_json(SP, 1, 1, data)
    assert op == CDiffOp.from_json(SP, 1, 1, as_ints)
    assert op.apply([SP.jet("u", (1, 0))])[0] == parse("u[0,0]*u[2,0]", SP)


def lenard(space):
    u = space.jet("u", (0, 0))
    ux = space.jet("u", (1, 0))
    return PseudoOp(CDiffOp.scalar(space, {(2, 0): space.one(), (0, 0): 4 * u}),
                    [([2 * ux], CDiffOp.identity(space, 1))])


FREE = make_presentation(SP, [], [])  # free jets: a presentation without rules


def test_pseudo_apply_free():
    R = lenard(SP)
    ux = SP.jet("u", (1, 0))
    flow = R.apply([ux], FREE)[0]
    assert flow == parse("6*u[0,0]*u[1,0] + u[3,0]", SP)
    flow2 = R.apply([flow], FREE)[0]
    assert flow2 == parse("u[5,0] + 10*u[0,0]*u[3,0] + 20*u[1,0]*u[2,0]"
                          " + 30*u[0,0]^2*u[1,0]", SP)


def test_pseudo_json_roundtrip():
    R = lenard(SP)
    data = R.to_json()
    back = PseudoOp.from_json(SP, 1, 1, data)
    assert back.local == R.local
    assert back.apply([SP.jet("u", (1, 0))], FREE)[0] == R.apply([SP.jet("u", (1, 0))], FREE)[0]


def test_pseudo_json_with_a_tail_over_several_rows():
    """A one-row tail's a is one expression; over several rows, a list."""
    u = SP.jet("u", (0, 0))
    two = CDiffOp(SP, 2, 1, ((r, 0, (0, 0), SP.one()) for r in range(2)))
    P = PseudoOp(two, [([u, 2 * u], CDiffOp.identity(SP, 1))])
    data = P.to_json()
    assert data["tail"][0]["a"] == ["u[0,0]", "2*u[0,0]"]
    back = PseudoOp.from_json(SP, 2, 1, data)
    assert back.local == P.local and back.tails == P.tails


def test_pseudo_tails_must_fit_the_local_part():
    """Each tail's a has one entry per row of the local part, and its b is
    one row over the local part's columns; a short a would drop rows of
    the image and a long one be cut.  A built tail's a is a tuple."""
    u = SP.jet("u", (0, 0))
    one = CDiffOp.identity(SP, 1)
    two = CDiffOp(SP, 2, 1, ((r, 0, (0, 0), SP.one()) for r in range(2)))
    for local, a, b in [(two, [u], one), (one, [u, u], one), (two, [u, u, u], one),
                        (one, [u], CDiffOp.identity(SP, 2)), (two, [u, u], two)]:
        with pytest.raises(ShapeError, match="pseudo-operator tail"):
            PseudoOp(local, [(a, b)])
    P = PseudoOp(two, [([u, u], one)])
    assert P.tails[0][0] == (u, u)
    assert len(P.apply([SP.jet("u", (1, 0))], FREE)) == 2


def test_pseudo_ev_matches_the_derivative_along_phi():
    """On free jets, E_phi(R)(chi) is d/d eps at eps = 0 of R(chi) with
    u_K replaced by u_K + eps*D_K(phi) in R's coefficients, eps a
    parameter.  R's b depends on u, so E_phi(b) is a tail of its own;
    chi is chosen so that every D_x^{-1} exists."""
    sp = JetSpace.create(["x"], ["u"], parameters=["eps"])
    free = make_presentation(sp, [], [])
    eps = sp.param("eps")
    P = lambda text: parse(text, sp)
    R = PseudoOp(CDiffOp.scalar(sp, {(2,): sp.one(), (0,): P("u[0]^2")}),
                 [([P("u[1]")], CDiffOp.mult(sp, P("u[0]")))])
    for phi, chi in [("u[2]", "u[1]"), ("u[0]^2", "u[1]"), ("3*u[0]", "u[0]*u[1]")]:
        phi, chi = [P(phi)], [P(chi)]
        E = R.ev(phi)
        assert len(E.tails) == 2 and not E.tails[1][1].is_zero()

        def moved(a):
            return a.substitute({k: sp.jet(0, k[2]) + eps * apply_DI(phi[0], k[2])
                                 for k in a.jet_keys()})
        R_eps = PseudoOp(R.local.map_coefficients(moved),
                         [([moved(a) for a in av], b.map_coefficients(moved))
                          for av, b in R.tails])
        slope = R_eps.apply(chi, free)[0].partial(('q', 'eps'))
        assert E.apply(chi, free) == [slope.substitute({('q', 'eps'): sp.zero()})]
        assert not slope.is_zero()


def _kdv_ops():
    u = SP.jet("u", (0, 0))
    return {"D_x": CDiffOp.total_derivative(SP, 0),
            "D_x^2+4u": CDiffOp.scalar(SP, {(2, 0): SP.one(), (0, 0): 4 * u}),
            "u_x": CDiffOp.mult(SP, SP.jet("u", (1, 0))),
            "u*D_x": CDiffOp.scalar(SP, {(1, 0): u})}


def _value(route):
    """The route's value, or NonlocalObstruction when it needs a nonlocal
    primitive."""
    try:
        return route()
    except NonlocalObstruction:
        return NonlocalObstruction


@pytest.mark.parametrize("phi", ["u[1,0]", "6*t*u[1,0] + 1"])
@pytest.mark.parametrize("name", list(_kdv_ops()))
def test_compose_local_left_is_op_after_pseudo(kdv, name, phi):
    R, op, phi = lenard(SP), _kdv_ops()[name], [parse(phi, SP)]
    got = R.compose_local_left(op).apply(phi, kdv)
    assert got == kdv.normal_form(op.apply(R.apply(phi, kdv)))


# a constant in phi is lost on the direct route: D_x^{-1} D_x(1) = 0
@pytest.mark.parametrize("phi", ["u[1,0]", "6*t*u[1,0]", "u[0,0]"])
@pytest.mark.parametrize("name", list(_kdv_ops()))
def test_compose_local_right_is_pseudo_after_op(kdv, name, phi):
    R, op, phi = lenard(SP), _kdv_ops()[name], [parse(phi, SP)]
    got = _value(lambda: R.compose_local_right(op).apply(phi, kdv))
    assert got == _value(lambda: R.apply(kdv.normal_form(op.apply(phi)), kdv))


def test_formal_commutator():
    R = lenard(SP)
    Dx = CDiffOp.total_derivative(SP, 0)
    L = (R.ev([SP.jet("u", (1, 0))]) - R.commutator_local(Dx)).normalized()
    assert L.local.is_zero() and not L.tails
