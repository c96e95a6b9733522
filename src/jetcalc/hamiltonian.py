"""Variational multivectors and the Schouten bracket by two routes, the
Magri scheme, and equation-level bivector verification.

The odd-variable route encodes a bivector A = ||sum a_sigma^{ij} D_sigma||
as the superdensity  W_A = sum a_sigma^{ij} p^i_sigma p^j  on the space
extended by one odd momentum family per dependent variable; A is a
Hamiltonian structure iff the density  sum_i (dW/du^i)(dW/dp^i)  has
vanishing variational derivative in every even and odd variable, and two
structures are compatible iff the polarized density passes the same test.
The direct route evaluates the graded un-shuffle bracket on supplied
gradients; agreement of the two routes pins all sign conventions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    DiffExpr,
    JetSpace,
    euler,
    homotopy_density,
    invert_total_derivative,
    mi_order,
    mi_unit,
    mi_zero,
    render,
)
from .errors import AnsatzError, ShapeError, VariationalityError
from .analysis import (
    Ansatz,
    BilinearNabla,
    ansatz_monomials,
    ell_delta_op,
    slot_candidates,
    solve_determining,
)
from .coverings import cotangent_covering
from .operators import CDiffOp, ev_apply, jacobi, linearize, pairing_density
from .presentations import Presentation


# -- superdensities ----------------------------------------------------------


def momenta_space(space: JetSpace) -> JetSpace:
    """Extend by one odd momentum family p_<name> per dependent variable."""
    names = space.fresh(f"p_{name}" for name in space.dependent)
    return space.extended(dependent=names, odd=names)


@dataclass
class Superdensity:
    """Multivector as a density multilinear in the odd momentum families."""

    space: JetSpace          # extended space (momenta_space of the base)
    base_m: int              # number of even dependents
    expr: DiffExpr


def to_superdensity(op: CDiffOp) -> Superdensity:
    """W_A = <A(p), p> = sum a_sigma^{ij} p^j_sigma p^i for a square
    operator (the undifferentiated momentum carries the row index; for one
    dependent variable this is the familiar  sum a_sigma p_sigma p)."""
    if op.rows != op.cols:
        raise ShapeError("superdensity encoding needs a square operator")
    ext = momenta_space(op.space)
    m = op.space.m
    p = [ext.jet(m + c, mi_zero(ext.n)) for c in range(op.cols)]
    return Superdensity(ext, m, pairing_density(op.rename_space(ext).apply(p), p))


def from_superdensity(sd: Superdensity) -> CDiffOp:
    """Skew operator recovered from a fiber-quadratic superdensity:
    integrate by parts until every monomial carries an undifferentiated
    momentum, then read the coefficients and project to the skew part."""
    ext = sd.space
    m = sd.base_m
    W = sd.expr

    def momenta(t):
        odd = sorted(k for k in t.variables() if k[0] == 'j' and k[1] >= m)
        if len(odd) != 2:
            raise ShapeError("superdensity is not fiber-quadratic")
        return odd

    # strip derivatives from the lower-order slot until one factor is plain:
    # with p_key = D_i(p_down),  t = p_key * dt/dp_key
    #                              = D_i(p_down * dt/dp_key) - p_down * D_i(dt/dp_key)
    while True:
        target = None
        for t in W.summands():
            odd = momenta(t)
            if all(mi_order(k[2]) > 0 for k in odd):
                target = (t, min(odd, key=lambda k: (mi_order(k[2]), k)))
                break
        if target is None:
            break
        t, key = target
        _, j, K = key
        i = max(k for k in range(ext.n) if K[k] > 0)
        piece = ext.jet(j, K[:i] + (K[i] - 1,) + K[i + 1:]) * t.partial(key)
        W = W - piece.total_derivative(i)
    # the operator lives on the base space: coefficients mention no momentum
    carrier = JetSpace.create(ext.independent, ext.dependent[:m], ext.parameters,
                              ext.nonlocals,
                              [n for n in ext.odd
                               if n in ext.dependent[:m] or n in ext.nonlocals])
    terms = []
    for t in W.summands():
        odd = momenta(t)
        k0 = [k for k in odd if mi_order(k[2]) == 0][-1]
        ks = odd[0] if odd[1] == k0 else odd[1]
        # coefficient of the slot-ordered product p^j_sigma p^i
        coeff = t.partial(ks).partial(k0).rename_space(carrier)
        terms.append((k0[1] - m, ks[1] - m, ks[2], coeff))
    op = CDiffOp(carrier, m, m, terms)
    return op.scale(Fraction(1, 2)) - op.adjoint().scale(Fraction(1, 2))


def _bracket_density(op1: CDiffOp, op2: CDiffOp) -> DiffExpr:
    """sum_i dW1/du^i dW2/dp^i + dW2/du^i dW1/dp^i on the momentum space."""
    W1 = to_superdensity(op1)
    W2 = to_superdensity(op2)
    ext = W1.space
    m = W1.base_m
    out = ext.zero()
    for i in range(m):
        du1 = euler(W1.expr, [i])[0]
        du2 = euler(W2.expr, [i])[0]
        dp1 = euler(W1.expr, [m + i])[0]
        dp2 = euler(W2.expr, [m + i])[0]
        out = out + du1 * dp2 + du2 * dp1
    return out


def is_hamiltonian(op: CDiffOp) -> bool:
    """[[A, A]] = 0 via the odd-variable criterion."""
    W = to_superdensity(op)
    ext = W.space
    m = W.base_m
    density = ext.zero()
    for i in range(m):
        density = density + euler(W.expr, [i])[0] * euler(W.expr, [m + i])[0]
    return all(e.is_zero() for e in euler(density))


def are_compatible(op1: CDiffOp, op2: CDiffOp) -> bool:
    """[[A, B]] = 0 via the polarized odd-variable criterion."""
    return all(e.is_zero() for e in euler(_bracket_density(op1, op2)))


# -- direct (un-shuffle) bracket ----------------------------------------------


def schouten_direct(A, B, psis=()):
    """Eq.-style literal un-shuffle bracket for small degrees.

    Degrees are inferred from the argument types: CDiffOp = bivector,
    list of expressions = vector, DiffExpr = density.  Returns a vector
    for results in degree 1, a density for degree 0."""
    psis = list(psis)
    if isinstance(B, DiffExpr) and isinstance(A, DiffExpr):
        raise ShapeError("bracket of two densities is not defined")
    if isinstance(B, DiffExpr):
        if isinstance(A, CDiffOp):
            return A.apply(euler(B))      # [[A, omega]] = A(delta omega)
        return ev_apply(A, B)             # [[phi, omega]] = [E_phi(omega)]
    if isinstance(A, DiffExpr):
        out = schouten_direct(B, A, psis)
        # graded antisymmetry: [[omega, B]] = -(-1)^(q-1) [[B, omega]]
        if isinstance(B, list):
            return -out
        return out
    if isinstance(A, list) and isinstance(B, list):
        return jacobi(A, B)
    if isinstance(A, CDiffOp) and isinstance(B, list):
        # [[A, phi]](psi) = E_{A psi}(phi) - E_phi(A)(psi) + A(l_phi*(psi))
        (psi,) = psis
        t1 = [ev_apply(A.apply(psi), comp) for comp in B]
        t2 = ell_delta_op(A, psi).apply(B)
        t3 = A.apply(linearize(B).adjoint().apply(psi))
        return [a - b + c for a, b, c in zip(t1, t2, t3)]
    if isinstance(A, list) and isinstance(B, CDiffOp):
        out = schouten_direct(B, A, psis)
        return [-x for x in out]
    # bivector-bivector: two gradient arguments, corrections from l*
    psi1, psi2 = psis
    corr_A = ell_delta_op(A, psi1).adjoint().apply(psi2)
    corr_B = corr_A if B is A else ell_delta_op(B, psi1).adjoint().apply(psi2)
    return _bivector_bracket(A, B, psi1, psi2, corr_A, corr_B)


def _bivector_bracket(A, B, psi1, psi2, corr_A, corr_B, ncols=None):
    """[[A, B]](psi1, psi2) for bivectors A and B, whose variations along
    the first ncols dependents enter through ell_delta_op; corr_A and
    corr_B are the adjoint correction vectors (l* on free jets, the nabla
    *1-adjoint on an equation).  Swapping A and B swaps the two halves of
    the sum, so [[A, A]] computes one half and uses it twice."""
    def half(X, Y, corr_X):
        return (ell_delta_op(Y, psi1, ncols).apply(X.apply(psi2)),
                ell_delta_op(Y, psi2, ncols).apply(X.apply(psi1)),
                Y.apply(corr_X))

    t1, t2, t5 = half(A, B, corr_A)
    t3, t4, t6 = (t1, t2, t5) if B is A and corr_B is corr_A else half(B, A, corr_B)
    return [a - b + c - d + e + f
            for a, b, c, d, e, f in zip(t1, t2, t3, t4, t5, t6)]


def schouten_pairing(A, B, psi1, psi2, psi3) -> DiffExpr:
    """Density <[[A,B]](psi1, psi2), psi3>; trivial iff euler = 0."""
    return pairing_density(schouten_direct(A, B, [psi1, psi2]), psi3)


# -- Poisson brackets and the Magri scheme -------------------------------------


def poisson_bracket(omega1: DiffExpr, omega2: DiffExpr, A: CDiffOp):
    """<A(delta w1), delta w2> as a density with a triviality verdict."""
    density = pairing_density(A.apply(euler(omega1)), euler(omega2))
    return density, all(e.is_zero() for e in euler(density))


def solve_linear(A: CDiffOp, target, ansatz: Ansatz):
    """One solution psi of A(psi) = target within the ansatz, or None.

    The candidates carry one extra slot, the coefficient t of the target in
    A(psi) + t * target = 0; a solution with t != 0 gives psi / -t."""
    space = A.space
    monos = ansatz_monomials(Presentation(space, (), (), (), (), check_order=0), ansatz)
    zero = space.zero()
    cands = [vec + [zero] for vec in slot_candidates(monos, A.cols, space)]
    cands.append([zero] * A.cols + [space.one()])

    def residual(v):
        return [a + v[-1] * b for a, b in zip(A.apply(v[:-1]), target)]

    for sol in solve_determining(cands, residual, A.cols + 1):
        if sol[-1]:
            scale = -sol[-1] ** -1
            return [x * scale for x in sol[:-1]]
    return None


def _is_single_dx(A: CDiffOp) -> bool:
    if A.rows != 1 or A.cols != 1:
        return False
    tab = A.entry(0, 0)
    unit = mi_unit(A.space.n, 0)
    return set(tab) == {unit} and tab[unit] == A.space.one()


def magri_step(A: CDiffOp, B: CDiffOp, omega: DiffExpr) -> DiffExpr:
    """Next density up the hierarchy: solve A(psi) = B(delta omega), check
    the Helmholtz condition, return its homotopy density."""
    phi = B.apply(euler(omega))
    if _is_single_dx(A):
        psi = [invert_total_derivative(phi[0], 0)]
    else:
        psi = solve_linear(A, phi, Ansatz(4, 3))
        if psi is None:
            raise AnsatzError("no ansatz solution of A(psi) = B(delta omega)")
    h = linearize(psi)
    if not (h - h.adjoint()).is_zero():
        raise VariationalityError(
            "psi fails the Helmholtz condition: the hierarchy terminates")
    return homotopy_density(psi)


def magri_chain(A: CDiffOp, B: CDiffOp, omega: DiffExpr, steps: int):
    """Iterated Magri steps; returns (densities, flows) with
    flows[k] = A(delta densities[k])."""
    densities = [omega]
    for _ in range(steps):
        densities.append(magri_step(A, B, densities[-1]))
    flows = [A.apply(euler(w)) for w in densities]
    return densities, flows


# -- equation-level bivectors ----------------------------------------------


def verify_bivector_on_equation(delta: CDiffOp, pres: Presentation) -> dict:
    """Membership  l_F delta = delta* l_F*  modulo reduction."""
    L = pres.linearization()
    theta = L.compose(delta) - delta.adjoint().compose(L.adjoint())
    residual = pres.restrict_operator(theta)
    return {"ok": residual.is_zero(), "residual": residual.render_matrix()}


def _eq_bracket_on_dummies(d1: CDiffOp, d2: CDiffOp, pres: Presentation):
    """[[d1, d2]](a, b) on two fresh even dummy families, with the nabla
    corrections extracted from cofactors; reduced modulo the presentation."""
    space = pres.space
    l = len(pres.components)
    dummies = space.fresh([f"_a{s}" for s in range(l)] + [f"_b{s}" for s in range(l)])
    ext_pres = pres.extend_space(dependent=dummies)
    ext = ext_pres.space
    m = space.m
    avec = [ext.jet(m + s, mi_zero(ext.n)) for s in range(l)]
    bvec = [ext.jet(m + l + s, mi_zero(ext.n)) for s in range(l)]
    L = pres.linearization()
    D1, D2 = (d.rename_space(ext) for d in (d1, d2))
    n1, n2 = (BilinearNabla(pres, L.compose(d) - d.adjoint().compose(L.adjoint()))
              for d in (d1, d2))
    total = _bivector_bracket(D1, D2, avec, bvec, n1.star1(bvec, avec),
                              n2.star1(bvec, avec), m)
    return ext_pres.normal_form(total)


def schouten_on_equation(d1: CDiffOp, d2: CDiffOp, pres: Presentation) -> dict:
    """Triviality of [[d1, d2]] on the equation: the bracket is encoded as
    a fiber-cubic superdensity on the cotangent covering (odd fibers),
    reduced modulo its rules, and tested by the internal Euler operator."""
    for d, name in ((d1, "first"), (d2, "second")):
        chk = verify_bivector_on_equation(d, pres)
        if not chk["ok"]:
            return {"ok": False, "trivial": False,
                    "reason": f"{name} operator is not an equation bivector",
                    "residual": chk["residual"]}
    T = _eq_bracket_on_dummies(d1, d2, pres)
    cot = cotangent_covering(pres)
    cspace = cot.space
    m = pres.space.m
    l = len(pres.components)
    density = cspace.zero()
    for j, comp in enumerate(T):
        pj = cspace.jet(m + j, mi_zero(cspace.n))
        for t in comp.summands():
            a = [k for k in t.variables() if k[0] == 'j' and m <= k[1] < m + l]
            b = [k for k in t.variables() if k[0] == 'j' and k[1] >= m + l]
            if len(a) != 1 or len(b) != 1:
                raise ShapeError("bracket term is not bilinear in the arguments")
            base = t.partial(a[0]).partial(b[0]).rename_space(cspace)
            pa = cspace.jet(a[0][1], a[0][2])
            pb = cspace.jet(b[0][1] - l, b[0][2])
            density = density + base * pa * pb * pj
    cpres = cot.presentation
    # the sweep stays internal: one normal form, of the density
    residues = euler(cpres.normal_form(density), None, cpres.d_internal)
    trivial = all(r.is_zero() for r in residues)
    return {"ok": True, "trivial": trivial,
            "residual": [render(r) for r in residues if not r.is_zero()]}

