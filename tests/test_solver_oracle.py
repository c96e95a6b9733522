"""An oracle for the solver bases from outside the engine: the symmetry and
cosymmetry determining systems of scalar evolution equations u_t = K in
(x, t), built in sympy alone and solved with Matrix.nullspace, span the
bases that solve_symmetries and solve_cosymmetries return.

The jets u_k = u_{x^k} are the sympy symbols u0, u1, ...; D_x is sympy's
differentiation of a Poly, and D_t on the equation puts D_x^k(K) in for
each u_{k,t}.  A symmetry phi solves D_t(phi) - sum_k dK/du_k D_x^k(phi) = 0
and a cosymmetry psi solves D_t(psi) + sum_k (-D_x)^k(dK/du_k psi) = 0.
The ansatz is jetcalc's: every product of at most `degree` of x, t and
u_0, ..., u_order, one unknown coefficient each; the coefficients of the
residual, collected by Poly, are the rows.

The normal forms have an oracle of their own: on heat, Burgers, KdV and
Camassa-Holm, with u a sympy Function of x and t and each jet u_{a,b} its
derivative, every reducible jet is replaced by sympy's diff of the rule's
right-hand side, until none is left."""

import functools
import random
import re
from fractions import Fraction

import pytest

from jetcalc import Ansatz, JetSpace, make_presentation, parse, render
from jetcalc import solve_cosymmetries, solve_symmetries

sympy = pytest.importorskip("sympy")
from sympy.polys.monomials import itermonomials  # noqa: E402

TOP = 12  # jets u0 .. u11: beyond the highest order any case below reaches
X, T = sympy.symbols("x t")
U = sympy.symbols(f"u0:{TOP}")
GENS = (X, T, *U)
NAMES = {"x": X, "t": T, **{f"u{k}": U[k] for k in range(TOP)}}


def _poly(e):
    return sympy.Poly(e, *GENS)


def _dx(p):
    """D_x of a Poly in x, t and the jets."""
    out = p.diff(X)
    for k in range(TOP - 1):
        if p.degree(U[k]) > 0:
            out += _poly(U[k + 1]) * p.diff(U[k])
    return out


def _sympy_basis(rhs, order, degree, adjoint):
    """The determining system's solutions, as sympy expressions in x, t and
    the jets, from Matrix.nullspace over the residual coefficients."""
    K = _poly(sympy.sympify(rhs, locals=NAMES))
    flows = [K]  # D_x^k(K), what u_{k,t} is on the equation

    def dt(p):
        out = p.diff(T)
        for k in range(TOP):
            if p.degree(U[k]) > 0:
                while len(flows) <= k:
                    flows.append(_dx(flows[-1]))
                out += flows[k] * p.diff(U[k])
        return out

    lin = [(k, K.diff(U[k])) for k in range(TOP) if K.degree(U[k]) > 0]

    def residual(m):
        out = dt(m)
        for k, a in lin:
            g = a * m if adjoint else m
            for _ in range(k):
                g = -_dx(g) if adjoint else _dx(g)
            out = out + g if adjoint else out - a * g
        return out

    monos = sorted(itermonomials([X, T, *U[:order + 1]], degree), key=sympy.default_sort_key)
    rows = {}
    for i, m in enumerate(monos):
        for key, c in residual(_poly(m)).as_dict().items():
            rows.setdefault(key, {})[i] = c
    matrix = sympy.zeros(len(rows), len(monos))
    for r, row in enumerate(rows.values()):
        for i, c in row.items():
            matrix[r, i] = c
    return [sum(c * m for c, m in zip(vec, monos)) for vec in matrix.nullspace()]


def _jetcalc_basis(equation, order, degree, adjoint):
    """The solver's basis, each vector's one component read into sympy from
    its rendering."""
    space = JetSpace.create(["x", "t"], ["u"])
    pres = make_presentation(space, [parse(equation, space)], [("u", (0, 1))])
    solve = solve_cosymmetries if adjoint else solve_symmetries
    return [sympy.sympify(re.sub(r"u\[(\d+),0\]", r"u\1", render(vec[0])).replace("^", "**"),
                          locals=NAMES) for vec in solve(pres, Ansatz(order, degree))]


def _rank(exprs, keys):
    return sympy.Matrix([[p.get(k, 0) for k in keys] for p in exprs]).rank()


@pytest.mark.parametrize("adjoint", [False, True], ids=["symmetries", "cosymmetries"])
@pytest.mark.parametrize("rhs, equation, order, degree", [
    ("u2", "u[0,1] - u[2,0]", 2, 2),
    ("u0*u1 + u2", "u[0,1] - u[0,0]*u[1,0] - u[2,0]", 1, 2),
    ("u0*u1 + u2", "u[0,1] - u[0,0]*u[1,0] - u[2,0]", 2, 3),
    ("6*u0*u1 + u3", "u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", 3, 3),
], ids=["heat-2-2", "burgers-1-2", "burgers-2-3", "kdv-3-3"])
def test_solver_bases_span_the_sympy_nullspace(rhs, equation, order, degree, adjoint):
    """Both bases are independent and span the same space: each has the
    rank of the two together."""
    expected = [_poly(e).as_dict() for e in _sympy_basis(rhs, order, degree, adjoint)]
    got = [_poly(e).as_dict() for e in _jetcalc_basis(equation, order, degree, adjoint)]
    keys = sorted({k for p in expected + got for k in p})
    assert expected and len(got) == len(expected) == _rank(got, keys) == _rank(expected, keys)
    assert _rank(got + expected, keys) == len(expected)


U_XT = sympy.Function("u")(X, T)


@functools.cache
def _d(f, a, b):
    """D_x^a D_t^b f, by sympy's diff."""
    return f.diff(*[(v, k) for v, k in ((X, a), (T, b)) if k]) if a or b else f


def _jet(a, b):
    return _d(U_XT, a, b)


def _orders(d):
    """(a, b) of the jet u_{a,b} that d is."""
    counts = dict(d.variable_count) if isinstance(d, sympy.Derivative) else {}
    return counts.get(X, 0), counts.get(T, 0)


def _sympy_normal_form(expr, rhs, lead):
    """expr with each reducible jet u_K, K >= lead, replaced by
    D_x^a D_t^b(rhs), (a, b) = K - lead, by sympy's own diff, until no
    reducible jet is left; then u_{a,b} is the symbol u_a_b."""
    while True:
        reducible = [d for d in expr.atoms(sympy.Derivative)
                     if all(k >= i for k, i in zip(_orders(d), lead))]
        if not reducible:
            break
        expr = expr.xreplace({
            d: _d(rhs, *(k - i for k, i in zip(_orders(d), lead))) for d in reducible})
    jets = expr.atoms(sympy.Derivative) | {U_XT}
    return sympy.expand(expr.xreplace({d: sympy.Symbol("u_%d_%d" % _orders(d)) for d in jets}))


@pytest.mark.parametrize("equation, lead, jets", [
    ("u[0,1] - u[2,0]", (0, 1), [(a, b) for a in range(4) for b in range(3)]),
    ("u[0,1] - u[0,0]*u[1,0] - u[2,0]", (0, 1), [(a, b) for a in range(3) for b in range(3)]),
    ("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", (0, 1), [(a, b) for a in range(3) for b in range(3)]),
    ("u[0,1] - u[2,1] - u[0,0]*u[3,0] - 2*u[1,0]*u[2,0] + 3*u[0,0]*u[1,0]", (2, 1),
     [(a, b) for a in range(5) for b in range(3)]),
], ids=["heat", "burgers", "kdv", "camassa-holm"])
def test_normal_forms_match_sympy_rewriting(equation, lead, jets):
    """Presentation.normal_form of random jets, and of products and powers of
    them with rational coefficients, equals the sympy rewriting."""
    space = JetSpace.create(["x", "t"], ["u"])
    pres = make_presentation(space, [parse(equation, space)], [("u", lead)])
    F = sympy.sympify(re.sub(r"u\[(\d+),(\d+)\]", r"J(\1,\2)", equation), locals={"J": _jet})
    rhs = sympy.expand(_jet(*lead) - F / F.diff(_jet(*lead)))  # F solved for u_lead
    rng = random.Random(equation)
    for _ in range(12):
        c = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        e, expected = space.num(c), sympy.Rational(c.numerator, c.denominator)
        for a, b in rng.choices(jets, k=rng.randint(1, 3)):
            e, expected = e * space.jet("u", (a, b)), expected * _jet(a, b)
        got = sympy.sympify(re.sub(r"u\[(\d+),(\d+)\]", r"u_\1_\2",
                                   render(pres.normal_form(e))).replace("^", "**"))
        assert sympy.expand(got - _sympy_normal_form(expected, rhs, lead)) == 0, render(e)
