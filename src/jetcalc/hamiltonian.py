"""Variational multivectors and the Schouten bracket by two routes, the
Magri scheme, and equation-level bivector verification.

The odd-variable route encodes a bivector A = ||sum a_sigma^{ij} D_sigma||
as the superdensity  W_A = sum a_sigma^{ij} p^i_sigma p^j  on the space
extended by one odd momentum family per dependent variable; A is a
Hamiltonian structure iff the density  sum_i (dW/du^i)(dW/dp^i)  has
vanishing variational derivative in every even and odd variable, and two
structures are compatible iff the polarized density passes the same test.
The momentum gradient delta W_A / delta p is (A* - A)(p), whatever
divergence W_A carries, so it is -2 A(p) exactly when A is skew-adjoint.
The direct route evaluates the graded un-shuffle bracket on supplied
gradients; agreement of the two routes pins all sign conventions."""

from __future__ import annotations

from .algebra import (
    DiffExpr,
    JetSpace,
    euler,
    euler_is_zero,
    homotopy_density,
    invert_total_derivative,
    mi_zero,
    raw_sum,
    render,
    sum_of_products,
)
from .errors import AnsatzError, ShapeError, VariationalityError
from .analysis import (
    Ansatz,
    BilinearNabla,
    ansatz_monomials,
    ell_delta_op,
    solve_determining,
)
from .coverings import cotangent_covering
from .operators import CDiffOp, ev_apply, helmholtz, jacobi, linearize, pairing_density
from .presentations import Presentation


# -- superdensities ----------------------------------------------------------


def momenta_space(space: JetSpace) -> JetSpace:
    """Extend by one odd momentum family p_<name> per dependent variable."""
    names = space.fresh(f"p_{name}" for name in space.dependent)
    return space.extended(dependent=names, odd=names)


def _on_momenta(op: CDiffOp):  # (p, A(p)) on the momenta space
    if op.rows != op.cols or op.cols != op.space.m:
        raise ShapeError("superdensity encoding needs a square operator on the dependents")
    ext = momenta_space(op.space)
    p = [ext.jet(op.space.m + c, mi_zero(ext.n)) for c in range(op.cols)]
    return p, op.apply(p)


def momentum_gradient(op: CDiffOp):
    """(delta W_A / delta (u, p), whether A is skew-adjoint): the momentum part of
    the gradient is (A* - A)(p), which is -2 A(p) exactly when A* = -A."""
    p, image = _on_momenta(op)
    grad = euler(pairing_density(image, p))
    return grad, all(g == a * -2 for g, a in zip(grad[op.space.m:], image))


def gradients_compatible(g1, g2) -> bool:
    """[[A, B]] = 0 from momentum_gradient g1 of A and g2 of B: both skew, and the Euler
    operator kills sum_i dW1/du^i dW2/dp^i + dW2/du^i dW1/dp^i over (W1, W2) and (W2, W1);
    for g2 is g1, (W, W) once: half the sum, vanishing exactly when the sum does."""
    grads, m = (g1[0],) if g2 is g1 else (g1[0], g2[0]), len(g1[0]) // 2
    return g1[1] and g2[1] and euler_is_zero(sum_of_products(grads[-1][0].space, [
        (g[i], h[m + i]) for g, h in zip(grads, grads[::-1]) for i in range(m)]))


def is_hamiltonian(op: CDiffOp) -> bool:
    """[[A, A]] = 0 for a skew-adjoint A: the polarized criterion with B = A."""
    return are_compatible(op, op)


def are_compatible(op1: CDiffOp, op2: CDiffOp) -> bool:
    """[[A, B]] = 0 for skew-adjoint A and B, via the polarized odd-variable criterion."""
    g1 = momentum_gradient(op1)
    return gradients_compatible(g1, g1 if op2 is op1 else momentum_gradient(op2))


# -- direct (un-shuffle) bracket ----------------------------------------------


def schouten_direct(A, B, psis=()):
    """Eq.-style literal un-shuffle bracket for small degrees p, q, read
    from the argument types; for p < q, graded antisymmetry gives
    [[A, B]] = -(-1)^((p-1)(q-1)) [[B, A]].  Returns a vector for results
    in degree 1, a density for degree 0; a result of degree r > 1 is taken
    on the r - 1 gradients `psis`, a ShapeError for any other count."""
    degree = {DiffExpr: 0, list: 1, CDiffOp: 2}  # a density, a vector, a bivector
    p, q = degree.get(type(A)), degree.get(type(B))
    if p is None or q is None:
        raise ShapeError(f"no bracket with a {type(A if p is None else B).__name__}")
    need = max(p + q - 2, 0)  # the arguments of the degree p + q - 1 result, but one
    if len(psis) != need:
        raise ShapeError(f"a bracket of degrees {p} and {q} takes {need} "
                         f"gradient{'s' * (need != 1)}, not {len(psis)}")
    if p < q:
        out = schouten_direct(B, A, psis)
        if (p - 1) * (q - 1) % 2:
            return out
        return [-x for x in out] if isinstance(out, list) else -out
    if q == 0:
        if p == 0:
            raise ShapeError("bracket of two densities is not defined")
        # [[A, omega]] = A(delta omega), [[phi, omega]] = [E_phi(omega)]
        return A.apply(euler(B)) if p == 2 else ev_apply(A, B)
    if p == 1:
        return jacobi(A, B)
    if q == 1:
        # [[A, phi]](psi) = E_{A psi}(phi) - E_phi(A)(psi) + A(l_phi*(psi))
        (psi,) = psis
        t1 = [ev_apply(A.apply(psi), comp) for comp in B]
        t2 = ell_delta_op(A, psi).apply(B)
        t3 = A.apply(linearize(B).adjoint().apply(psi))
        return [a - b + c for a, b, c in zip(t1, t2, t3)]
    return _bivector_bracket(A, B, *psis)  # bivector-bivector: corrections from l*


def _bivector_bracket(A, B, psi1, psi2, correction=None):
    """[[A, B]](psi1, psi2) for bivectors A and B, varied along their space's
    dependents: the kernel takes E_psi1 of each distinct operator once, and
    X's adjoint correction is correction(X) (the nabla *1-adjoint on an
    equation), or E_psi1(X)*(psi2), the l* correction on free jets, when
    correction is None.  Swapping A and B swaps the two halves of the sum,
    so [[A, A]] computes one half and uses it twice."""
    def variations(X):  # E_psi1(X) and X's correction
        ell = ell_delta_op(X, psi1)
        return ell, correction(X) if correction else ell.adjoint().apply(psi2)

    def half(X, Y, corr_X, ell_Y):
        return (ell_Y.apply(X.apply(psi2)),
                ell_delta_op(Y, psi2).apply(X.apply(psi1)),
                Y.apply(corr_X))

    (ell_A, corr_A), (ell_B, corr_B) = [variations(A)] * 2 if B is A else map(variations, (A, B))
    t1, t2, t5 = half(A, B, corr_A, ell_B)
    t3, t4, t6 = (t1, t2, t5) if B is A else half(B, A, corr_B, ell_A)
    return [a - b + c - d + e + f
            for a, b, c, d, e, f in zip(t1, t2, t3, t4, t5, t6)]


def schouten_pairing(A, B, psi1, psi2, psi3) -> DiffExpr:
    """Density <[[A,B]](psi1, psi2), psi3>; trivial iff euler = 0."""
    return pairing_density(schouten_direct(A, B, [psi1, psi2]), psi3)


# -- the Magri scheme ------------------------------------------------------------


def solve_linear(A: CDiffOp, target, ansatz: Ansatz):
    """One solution psi of A(psi) = target within the ansatz, or None.

    The unknowns take one more, the coefficient t of the target in
    A(psi) + t * target = 0; a solution with t != 0 gives psi / -t."""
    monos = ansatz_monomials(Presentation(A.space, (), (), (), check_order=0), ansatz)
    target = [raw_sum(A.space, [(1, x, None)]) for x in target]
    for *psi, t in solve_determining(monos, A.cols, A.columns, target):
        if t:
            return [x * (-1 / t) for x in psi]
    return None


def magri_hierarchy(A: CDiffOp, B: CDiffOp, omega: DiffExpr, steps: int):
    """The Magri scheme from omega: each step solves A(psi) = B(delta omega_k),
    exactly when A is D_x and in the ansatz otherwise, checks the Helmholtz
    condition and takes omega_{k+1}, the homotopy density of psi.  Returns
    (densities, their variational derivatives, flows) with
    flows[k] = A(delta densities[k]), each euler taken once."""
    is_dx = A == CDiffOp.total_derivative(A.space)
    densities, grads = [omega], [euler(omega)]
    for _ in range(steps):
        phi = B.apply(grads[-1])
        psi = [invert_total_derivative(phi[0])] if is_dx else solve_linear(A, phi, Ansatz(4, 3))
        if psi is None:
            raise AnsatzError("no ansatz solution of A(psi) = B(delta omega)")
        if not helmholtz(psi).is_zero():
            raise VariationalityError(
                "psi fails the Helmholtz condition: the hierarchy terminates")
        densities.append(homotopy_density(psi))
        grads.append(euler(densities[-1]))
    return densities, grads, [A.apply(g) for g in grads]


# -- equation-level bivectors ----------------------------------------------


def verify_bivector_on_equation(delta: CDiffOp, pres: Presentation) -> dict:
    """Membership  l_F delta = delta* l_F*  modulo reduction."""
    residual = pres.restrict_operator(pres.theta(delta))
    return {"ok": residual.is_zero(), "residual": residual.render_matrix()}


def _eq_bracket_on_dummies(nablas: dict, pres: Presentation):
    """[[d1, d2]](a, b) on two fresh even dummy families, d1 and d2 the first
    and last keys of `nablas`, with the nabla corrections read off the
    cofactors of each Theta (`nablas`, one per operator value); unreduced,
    over the presentation's space extended by the dummies.  Value-equal
    operators are one key, which the kernel gets for both, so it takes one half."""
    space = pres.space
    l = len(pres.components)
    ext = space.extended(
        dependent=space.fresh([f"_a{s}" for s in range(l)] + [f"_b{s}" for s in range(l)]))
    m = space.m
    avec = [ext.jet(m + s, mi_zero(ext.n)) for s in range(l)]
    bvec = [ext.jet(m + l + s, mi_zero(ext.n)) for s in range(l)]
    keys = list(nablas)
    return _bivector_bracket(keys[0], keys[-1], avec, bvec,
                             lambda X: nablas[X].star1(bvec, avec))


def schouten_on_equation(d1: CDiffOp, d2: CDiffOp, pres: Presentation) -> dict:
    """Triviality of [[d1, d2]] on the equation: one cofactor pass over each
    Theta gives its membership residual and nabla, and value-equal operators
    share one pass and one half of the bracket; the bracket is encoded as
    a fiber-cubic superdensity on the cotangent covering (odd fibers),
    reduced modulo its rules, and tested by the internal Euler operator.
    The dummy a^s_K and the fiber jet p^s_K share a key, so a bracket term
    base a^s_K b^r_L is the product base p^s_K * p^r_L p^j.  The covering
    comes first, so that an equation shape it refuses is refused before any work."""
    cot = cotangent_covering(pres)
    nablas = {d: BilinearNabla(pres, pres.theta(d)) for d in dict.fromkeys((d1, d2))}
    for d, name in ((d1, "first"), (d2, "second")):
        if not (restricted := nablas[d].restricted).is_zero():
            return {"ok": False, "trivial": False,
                    "reason": f"{name} operator is not an equation bivector",
                    "residual": restricted.render_matrix()}
    T = _eq_bracket_on_dummies(nablas, pres)
    cspace = cot.space
    m = pres.space.m
    l = len(pres.components)

    def dummies(factors):  # (whether an a-jet, exponent) of each dummy factor
        return [(k[1] < m + l, e) for k, e in factors if k[0] == 'j' and k[1] >= m]
    products = []
    for j, comp in enumerate(T):
        pj = cspace.jet(m + j, mi_zero(cspace.n))
        rest, by_b = comp.by_least(lambda k: k[0] == 'j' and k[1] >= m + l)
        if rest or any(dummies(f) != [(True, 1)] for q in by_b.values() for f in q.exponents()):
            raise ShapeError("bracket term is not bilinear in the arguments")
        products += [(q.rename_space(cspace), cspace.jet(r - l, L) * pj)
                     for (_, r, L), q in by_b.items()]
    density = sum_of_products(cspace, products)
    cpres = cot.presentation
    # the sweep stays internal: one normal form, of the density
    residues = euler(cpres.normal_form(density), None, cpres.d_internal)
    trivial = all(r.is_zero() for r in residues)
    return {"ok": True, "trivial": trivial,
            "residual": [render(r) for r in residues if not r.is_zero()]}

