"""The paper's recursion-operator and current calculus (arXiv:1002.0077)
that no jetcalc task runs, kept beside its tests: the horizontal
differential d_h and Green forms, the Lie action of a symmetry on
cosymmetries, the factorization test of a conservation law, the Nijenhuis
torsion of a recursion operator, Abelian coverings from currents, one-step
shadow reconstruction, the Bäcklund evaluation of a recursion operator, and
the formal algebra of one-layer D_x^{-1} pseudo-operators (E_phi, scaling,
sums, composition with a local operator on either side, the commutator and
the JSON form) that their Lie derivatives are taken in; the superdensity
encoding of a bivector and its inverse, Poisson brackets, and the direct
route of the Hamiltonian test that is_hamiltonian is checked against; and
D_K in a setting's total derivatives, one at a time, that tower_DI and the
restricted walks are checked against, and a free table lifted to nonlocals."""

from dataclasses import dataclass
from fractions import Fraction

from jetcalc import (
    CDiffOp,
    Covering,
    DiffExpr,
    HorizontalForm,
    JetSpace,
    NonlocalObstruction,
    Presentation,
    PseudoOp,
    ShapeError,
    ev_apply,
    euler,
    invert_total_derivative,
    jacobi,
    linearize,
    pairing_density,
    render,
    schouten_direct,
    verify_flat,
)
from jetcalc.algebra import (
    ImageTable,
    MultiIndex,
    apply_DI,
    euler_is_zero,
    mi_order,
    mi_sub,
    mi_unit,
    mi_zero,
    sum_of_products,
    tower_DI,
)
from jetcalc.hamiltonian import _on_momenta


# -- D_K in a setting ----------------------------------------------------------


def apply_DI_in(e: DiffExpr, K: MultiIndex, d=None) -> DiffExpr:
    """D_K(e) in apply_DI's order, with d(e, i) the total derivative of a
    setting (restricted to an equation, say; free jets when None)."""
    for i, k in enumerate(K):
        for _ in range(k):
            e = e.total_derivative(i) if d is None else d(e, i)
    return e


def lifted_table(i: int, wmap: dict, jets=None) -> ImageTable:
    """The free D_i table (jets read through `jets` when given) with each
    nonlocal's image in `wmap`, assigned as a covering's presentation does."""
    table = ImageTable(i, None, jets)
    table.wmap = wmap
    return table


# -- horizontal forms ----------------------------------------------------------


def d_h(form: HorizontalForm) -> HorizontalForm:
    """Horizontal differential: d_h(a dx^S) = sum_i D_i(a) dx^i ^ dx^S."""
    space = form.space
    n = space.n
    if form.degree >= n:
        raise ValueError("d_h on a top-degree form")
    comps = {}
    for S, a in form.comps.items():
        for i in (i for i in range(n) if i not in S):
            newS = tuple(sorted(S + (i,)))
            comps[newS] = comps.get(newS, space.zero())._sum(
                a.total_derivative(i), (-1) ** sum(s < i for s in S))
    comps = {k: v for k, v in comps.items() if not v.is_zero()}
    return HorizontalForm(space, form.degree + 1, comps)


def green_form(op: CDiffOp, ps, qs) -> HorizontalForm:
    """Horizontal (n-1)-form with <op p, q> - <p, op* q> = d_h(form),
    constructed by iterated integration by parts (n <= 2).

    Orientation: n=1 volume dx, form is the 0-form theta_x; n=2 volume
    dx^dt, form X dx + T dt with the identity equal to D_x T - D_t X."""
    space = op.space
    n = space.n
    if n > 2:
        raise ShapeError("green_form implemented for n <= 2")
    theta = [space.zero() for _ in range(n)]

    def split(coeff: DiffExpr, I: MultiIndex, target: DiffExpr):
        # coeff * D_I(target): peel derivatives one at a time
        while mi_order(I):
            i = next(k for k in range(n) if I[k])
            I = mi_sub(I, mi_unit(n, i))
            theta[i] += coeff * apply_DI(target, I)
            coeff = -coeff.total_derivative(i)

    for r, c, I, a in sorted(op.terms(), key=lambda t: t[:3]):
        split(qs[r] * a, I, ps[c])
    if n == 1:
        return HorizontalForm(space, 0, {(): theta[0]})
    return HorizontalForm(space, 1, {(0,): -theta[1], (1,): theta[0]})


# -- currents and cosymmetries ------------------------------------------------


def _cofactor_operator(image, pres: Presentation):
    """(op, normal forms) from one pres.reduce per component of `image`:
    image = normal forms + op(F) on free jets, op (one row per component of
    `image`, one column per component of F) read off the cofactors."""
    terms, nfs = [], []
    for r, comp in enumerate(image):
        red = pres.reduce(comp)
        nfs.append(red.normal_form)
        terms.extend((r, s, K, a) for _, s, K, a in red.cofactor.terms())
    return CDiffOp(pres.space, len(image), len(pres.components), terms), nfs


def verify_conservation_factorization(psi, delta_prime: CDiffOp,
                                      pres: Presentation) -> dict:
    """General (non-evolution) conservation-law test, verification only:
    with l_F*(psi) = nabla(F) read off the cofactors, check that
    l_psi + nabla* = delta' l_F modulo reduction for the supplied
    self-adjoint delta'."""
    nabla, nfs = _cofactor_operator(pres.linearization(adjoint=True).apply(psi), pres)
    leftover = [nf for nf in nfs if not nf.is_zero()]
    if leftover:
        return {"ok": False, "reason": "psi is not a cosymmetry",
                "residual": [render(leftover[0])]}
    if not pres.restrict_operator(delta_prime - delta_prime.adjoint()).is_zero():
        return {"ok": False, "reason": "delta' is not self-adjoint"}
    lhs = linearize(psi, pres.space) + nabla.adjoint()
    rhs = delta_prime.compose(pres.linearization())
    residual = pres.restrict_operator(lhs - rhs)
    return {"ok": residual.is_zero(), "residual": residual.render_matrix()}


def lie_on_cosymmetry(phi, psi, pres: Presentation):
    """L_phi(psi) = E_phi(psi) + box*(psi), box read off the cofactors of
    l_F(phi)."""
    box, nfs = _cofactor_operator(pres.linearization().apply(phi), pres)
    if any(not nf.is_zero() for nf in nfs):
        raise ShapeError("lie_on_cosymmetry needs a symmetry argument")
    correction = box.adjoint().apply(psi)
    return [pres.normal_form(ev_apply(phi, p) + c)
            for p, c in zip(psi, correction)]


# -- recursion operators -------------------------------------------------------


def nijenhuis_torsion(R: PseudoOp, phi1, phi2, pres: Presentation):
    """(1/2)[[R, R]](phi1, phi2) by direct evaluation through the bracket
    form  {R p1, R p2} - R{R p1, p2} - R{p1, R p2} + R^2{p1, p2};  every
    D_x^{-1} is taken in internal coordinates."""
    def jac(a, b):
        return pres.normal_form(jacobi(a, b))

    # R.apply gives internal vectors, so only the free brackets are reduced
    r1 = R.apply(phi1, pres)
    r2 = R.apply(phi2, pres)
    t1 = jac(r1, r2)
    t2 = R.apply(jac(r1, phi2), pres)
    t3 = R.apply(jac(phi1, r2), pres)
    t4 = R.apply(R.apply(jac(phi1, phi2), pres), pres)
    return [a - b - c + d for a, b, c, d in zip(t1, t2, t3, t4)]


# -- coverings -----------------------------------------------------------------


def abelian_from_current(form: HorizontalForm, base: Presentation):
    """(covering, trivial): the one-dimensional Abelian covering w_x = X,
    w_t = T of a closed current (n = 2), and whether it is trivializable
    (the current is exact)."""
    if base.space.n != 2:
        raise ShapeError("current coverings implemented for n = 2")
    if not all(base.normal_form(c).is_zero() for c in d_h(form).comps.values()):
        raise NonlocalObstruction("current is not closed on the equation")
    X, T = (form.comps.get((i,), form.space.zero()) for i in range(2))
    try:
        f = invert_total_derivative(base.normal_form(X))
        trivial = (base.d_bar(f, 1) - base.normal_form(T)).is_zero()
    except NonlocalObstruction:
        trivial = False
    cov = Covering(base, base).extended(["w"], {0: [X], 1: [T]}, ())
    flat = verify_flat(cov)
    if not flat["ok"]:  # pragma: no cover - closedness implies flatness
        raise NonlocalObstruction(f"covering is not flat: {flat['residuals']}")
    return cov, trivial


def reconstruct_step(cov: Covering, phi) -> Covering:
    """One-step shadow reconstruction: adjoin w~ with
    d w~^j / dx^i = l~_{X_i^j}(phi) + sum_a (dX_i^j/dw^a) w~^a."""
    names = cov.space.fresh(f"{name}_r" for name in cov.nonlocals)
    space = cov.space.extended(nonlocals=names)
    m = cov.base.space.m

    def field(Xij):
        # l~_{X_i^j}(phi): lifted linearization along the base dependents
        val = cov.presentation.restricted(linearize([Xij], columns=range(m)))(phi[:m])[0]
        return val.rename_space(space) + sum_of_products(space, [
            (Xij.partial(('w', wa)).rename_space(space), space.nonlocal_var(wr))
            for wa, wr in zip(cov.nonlocals, names)])

    fields = {i: [field(Xij) for Xij in cov.X.get(i, ())] for i in range(space.n)}
    out = cov.extended(names, fields, ())
    flat = verify_flat(out)
    if not flat["ok"]:
        raise NonlocalObstruction(
            f"reconstruction produced a non-flat covering: {flat['residuals']}")
    return out


def recursion_as_backlund(cov: Covering, omega_R, phi):
    """Evaluate the Backlund realization of a recursion operator: substitute
    the jets of the symmetry phi for the fiber variables of the shadow
    omega_R (nonlocal layers resolved by D_x^{-1}) and reduce."""
    base = cov.base
    space = cov.space
    phi0 = base.normal_form(phi[0])
    # the fiber jets v_K take D-bar_K(phi^0), all from one tower
    keys = sorted(k for k in omega_R.variables()
                  if k[0] == 'j' and k[1] in cov.fiber_families)
    tower = {}
    mapping = {k: tower_DI(tower, phi0, k[2], base.d_internal).rename_space(space)
               for k in keys}
    for key in omega_R.variables():
        if key[0] == 'w':
            mapping[key] = invert_total_derivative(phi0).rename_space(space)
    value = omega_R.substitute(mapping)
    return base.normal_form(value.rename_space(base.space))


# -- the formal algebra of pseudo-operators ------------------------------------


def ev(R: PseudoOp, phi) -> PseudoOp:
    """E_phi acting on all coefficients (Leibniz over both tail slots)."""
    def along(op):
        return op.map_coefficients(lambda a: ev_apply(phi, a))

    tails = []
    for a_vec, b in R.tails:
        ea = [ev_apply(phi, a) for a in a_vec]
        if any(not x.is_zero() for x in ea):
            tails.append((ea, b))
        eb = along(b)
        if not eb.is_zero():
            tails.append((a_vec, eb))
    return PseudoOp(along(R.local), tails)


def scale(R: PseudoOp, factor) -> PseudoOp:
    return PseudoOp(R.local.scale(factor),
                    [([a * factor for a in av], b) for av, b in R.tails])


def add(P: PseudoOp, Q: PseudoOp) -> PseudoOp:
    return PseudoOp(P.local + Q.local, P.tails + Q.tails)


def subtract(P: PseudoOp, Q: PseudoOp) -> PseudoOp:
    return add(P, scale(Q, -1))


def compose_local_right(R: PseudoOp, op: CDiffOp) -> PseudoOp:
    """R o op for a local scalar operator in x."""
    local, tails = list(R.local.compose(op).terms()), []
    for a_vec, b in R.tails:
        loc_row, tail_row = _absorb_inverse(b.compose(op))
        if not tail_row.is_zero():
            tails.append((a_vec, tail_row))
        local.extend((r, c, I, (1, a, coeff)) for r, a in enumerate(a_vec)
                     for _, c, I, coeff in loc_row.terms())
    return PseudoOp(CDiffOp(R.space, R.local.rows, op.cols, local), tails)


def compose_local_left(R: PseudoOp, op: CDiffOp) -> PseudoOp:
    """op o R for a local scalar operator in x:
    op o a D^{-1} b = sum_K p_K D^K o D^{-1} b over the terms p_K D^K of
    op o a, where D^k o D^{-1} = D^{k-1} for k >= 1."""
    space = R.space
    unit = mi_unit(space.n, 0)
    local = op.compose(R.local)
    tails = []
    for a_vec, b in R.tails:
        column = CDiffOp(space, len(a_vec), 1,
                         ((r, 0, mi_zero(space.n), a) for r, a in enumerate(a_vec)))
        lowered, tail = [], [space.zero()] * op.rows
        for r, _, K, p in op.compose(column).terms():
            if mi_order(K) != K[0]:
                raise ShapeError("pseudo composition needs x-only operators")
            if K[0]:
                lowered.append((r, 0, mi_sub(K, unit), p))
            else:
                tail[r] = p
        local = local + CDiffOp(space, op.rows, 1, lowered).compose(b)
        if any(not x.is_zero() for x in tail):
            tails.append((tail, b))
    return PseudoOp(local, tails)


def commutator_local(R: PseudoOp, op: CDiffOp) -> PseudoOp:
    """[op, R] = op o R - R o op, kept formal."""
    return subtract(compose_local_left(R, op), compose_local_right(R, op))


def pseudo_to_json(R: PseudoOp) -> dict:
    """R in the problem file's pseudo-operator form, which PseudoOp.from_json reads."""
    tail = []
    for a_vec, b in R.tails:
        a = render(a_vec[0]) if len(a_vec) == 1 \
            else [render(x) for x in a_vec]
        tail.append({"a": a, "b": b.to_json()})
    return {"local": R.local.to_json(), "tail": tail}


def _absorb_inverse(row: CDiffOp):
    """Rewrite D^{-1} o (row) as local + D^{-1} o (order-0 row) using
    D^{-1} c D^k = c D^{k-1} - D^{-1} c' D^{k-1} (x-derivatives only)."""
    unit = mi_unit(row.space.n, 0)
    local, tail = [], []
    work = [(I, c, col) for _, col, I, c in row.terms()]
    while work:
        I, c, col = work.pop()
        if mi_order(I) != I[0]:
            raise ShapeError("pseudo composition needs x-only operators")
        if I[0] == 0:
            tail.append((0, col, I, c))
            continue
        Idown = mi_sub(I, unit)
        local.append((0, col, Idown, c))
        dc = -c.total_derivative(0)
        if not dc.is_zero():
            work.append((Idown, dc, col))
    return CDiffOp(row.space, 1, row.cols, local), CDiffOp(row.space, 1, row.cols, tail)


# -- superdensities and Poisson brackets ----------------------------------------


@dataclass(frozen=True)
class Superdensity:
    """Multivector as a density on momenta_space(base), multilinear in the momenta."""

    base: JetSpace
    expr: DiffExpr


def to_superdensity(op: CDiffOp) -> Superdensity:
    """W_A = <A(p), p> = sum a_sigma^{ij} p^j_sigma p^i (the undifferentiated momentum
    carries the row index; for one dependent variable, sum a_sigma p_sigma p)."""
    p, image = _on_momenta(op)
    return Superdensity(op.space, pairing_density(image, p))


def from_superdensity(sd: Superdensity) -> CDiffOp:
    """Skew part of the operator A of a fiber-quadratic superdensity
    W = <A(p), p>: its momentum gradient delta W / delta p is (A* - A)(p),
    whatever divergence W carries, so the skew part is -1/2 times the
    linearization of that gradient in the momenta."""
    momenta = range(sd.base.m, sd.expr.space.m)
    if any(sum(e for k, e in factors if k[0] == 'j' and k[1] in momenta) != 2
           for factors in sd.expr.exponents()):
        raise ShapeError("superdensity is not fiber-quadratic")
    a_star_minus_a = linearize(euler(sd.expr, momenta), columns=momenta)
    return CDiffOp(sd.base, a_star_minus_a.rows, a_star_minus_a.cols,
                   ((r, c, I, a.rename_space(sd.base) * Fraction(-1, 2))
                    for r, c, I, a in a_star_minus_a.terms()))


def poisson_bracket(omega1: DiffExpr, omega2: DiffExpr, A: CDiffOp):
    """<A(delta w1), delta w2> as a density with a triviality verdict."""
    density = pairing_density(A.apply(euler(omega1)), euler(omega2))
    return density, euler_is_zero(density)


# -- the direct route of the Hamiltonian test --------------------------------


def hamiltonian_on(op: CDiffOp, gradients) -> bool:
    """Whether the density of <[[A, A]](g1, g2), g3> has zero Euler derivative
    for all g1, g2, g3 in `gradients`: one bracket per pair (g1, g2), paired
    with every g3."""
    for g1 in gradients:
        for g2 in gradients:
            bracket = schouten_direct(op, op, [g1, g2])
            for g3 in gradients:
                if not all(e.is_zero() for e in euler(pairing_density(bracket, g3))):
                    return False
    return True
