"""Symmetries, cosymmetries, conservation laws, recursion calculus and
symplectic verification on equation presentations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .algebra import (
    HorizontalForm,
    apply_DI,
    canonical_density,
    homotopy_density,
    invert_total_derivative,
    mi_order,
    render,
)
from .errors import AnsatzError, CheckError, ShapeError, VariationalityError
from .linalg import nullspace
from .operators import CDiffOp, PseudoOp, ev_apply, green_form, helmholtz, linearize
from .presentations import Presentation


@dataclass(frozen=True)
class Ansatz:
    """Bounded polynomial ansatz: jets up to max_jet_order, total degree up
    to max_degree in jets, base variables and nonlocals; optional name
    whitelist restricting the generators."""

    max_jet_order: int
    max_degree: int
    whitelist: tuple = None

    def __post_init__(self):
        if self.max_jet_order < 0 or self.max_degree < 0:
            raise AnsatzError("ansatz bounds must be non-negative")


def ansatz_monomials(pres: Presentation, ansatz: Ansatz):
    """Monomial pool in internal coordinates, deterministic order."""
    space = pres.space
    gens = []
    for i, name in enumerate(space.independent):
        if ansatz.whitelist is None or name in ansatz.whitelist:
            gens.append(space.indep(i))
    for key in pres.internal_jets(ansatz.max_jet_order):
        name = space.dependent[key[1]]
        if ansatz.whitelist is None or name in ansatz.whitelist:
            gens.append(space.jet(key[1], key[2]))
    monos = [space.one()]
    for deg in range(1, ansatz.max_degree + 1):
        for combo in combinations_with_replacement(range(len(gens)), deg):
            m = space.one()
            for k in combo:
                m = m * gens[k]
            if not m.is_zero():
                monos.append(m)
    return monos


def solve_determining(candidates, apply_fn, ncomps):
    """Common linear solver: candidates are vectors, apply_fn maps a vector
    to the reduced residual vector.  Returns the echelonized solution basis
    as vectors of expressions."""
    if not candidates:
        raise AnsatzError("ansatz generates no unknowns")
    space = candidates[0][0].space
    row_index, rows = {}, []  # row of each (component, monomial) of a residual
    for j, cand in enumerate(candidates):
        for comp, expr in enumerate(apply_fn(cand)):
            for mono, c in expr.coefficients():
                r = row_index.setdefault((comp, mono), len(rows))
                if r == len(rows):
                    rows.append({})
                rows[r][j] = c
    basis = nullspace(rows, len(candidates))
    out = []
    for vec in basis:
        sol = [space.zero() for _ in range(ncomps)]
        for j, c in enumerate(vec):
            if c:
                sol = [s + candidates[j][k] * c for k, s in enumerate(sol)]
        out.append(sol)
    return out


def slot_candidates(monos, ncomps, space):
    out = []
    for slot in range(ncomps):
        for m in monos:
            vec = [space.zero()] * ncomps
            vec[slot] = m
            out.append(vec)
    return out


# -- symmetries and cosymmetries --------------------------------------------


def verify_symmetry(phi, pres: Presentation):
    residual = pres.lin_apply(phi)
    return all(r.is_zero() for r in residual), residual


def solve_symmetries(pres: Presentation, ansatz: Ansatz):
    monos = ansatz_monomials(pres, ansatz)
    cands = slot_candidates(monos, pres.space.m, pres.space)
    return solve_determining(cands, pres.lin_apply, pres.space.m)


def verify_cosymmetry(psi, pres: Presentation):
    residual = pres.adj_apply(psi)
    return all(r.is_zero() for r in residual), residual


def solve_cosymmetries(pres: Presentation, ansatz: Ansatz):
    monos = ansatz_monomials(pres, ansatz)
    ncomps = len(pres.components)
    cands = slot_candidates(monos, ncomps, pres.space)
    return solve_determining(cands, pres.adj_apply, ncomps)


def _cofactor_operator(image, pres: Presentation):
    """(op, None) with image = op(F) on free jets, op (one row per
    component of `image`, one column per component of F) read off the
    cofactors; (None, normal form) for the first component that does not
    vanish on the equation."""
    terms = []
    for r, comp in enumerate(image):
        red = pres.reduce(comp)
        if not red.normal_form.is_zero():
            return None, red.normal_form
        terms.extend((r, s, K, a) for _, s, K, a in red.cofactor.terms())
    return CDiffOp(pres.space, len(image), len(pres.components), terms), None


# -- conservation laws --------------------------------------------------------


@dataclass
class ConservedCurrent:
    form: HorizontalForm     # degree n-1 on the equation
    section: list            # generating section (evolution convention)

    def components(self):
        return {k: render(v) for k, v in sorted(self.form.comps.items())}


def verify_current(form: HorizontalForm, pres: Presentation) -> bool:
    from .algebra import d_h
    return pres.reduce_form(d_h(form)).is_zero()


def conservation_law_from_cosymmetry(psi, pres: Presentation) -> ConservedCurrent:
    """Evolution shortcut: X = homotopy density of psi, T the x-primitive of
    its reduced t-derivative; the generating section of the result is psi."""
    if not pres.is_evolutionary():
        raise ShapeError("conservation-law shortcut requires an evolution presentation")
    space = pres.space
    psi = [pres.normal_form(p) for p in psi]
    if not helmholtz(psi).map_coefficients(pres.normal_form).is_zero():
        raise VariationalityError(
            "cosymmetry fails the Helmholtz condition: not a generating section")
    X = canonical_density(homotopy_density(psi), 0)
    t_index = space.n - 1
    DtX = pres.d_bar(X, t_index)
    T = invert_total_derivative(DtX, 0)
    if not (DtX - pres.d_bar(T, 0)).is_zero():
        raise CheckError("D_t X != D_x T on the equation: the current is not conserved")
    form = HorizontalForm(space, space.n - 1, {(0,): X, (1,): T})
    return ConservedCurrent(form, psi)


def verify_conservation_factorization(psi, delta_prime: CDiffOp,
                                      pres: Presentation) -> dict:
    """General (non-evolution) conservation-law test, verification only:
    with l_F*(psi) = nabla(F) read off the cofactors, check that
    l_psi + nabla* = delta' l_F modulo reduction for the supplied
    self-adjoint delta'."""
    nabla, leftover = _cofactor_operator(pres.linearization().adjoint().apply(psi), pres)
    if nabla is None:
        return {"ok": False, "reason": "psi is not a cosymmetry",
                "residual": [render(leftover)]}
    if not pres.restrict_operator(delta_prime - delta_prime.adjoint()).is_zero():
        return {"ok": False, "reason": "delta' is not self-adjoint"}
    lhs = linearize(psi, pres.space) + nabla.adjoint()
    rhs = delta_prime.compose(pres.linearization())
    residual = pres.restrict_operator(lhs - rhs)
    return {"ok": residual.is_zero(), "residual": residual.render_matrix()}


def pair_symmetry_cosymmetry(phi, psi, pres: Presentation) -> HorizontalForm:
    """Conserved current from the Green-formula pairing of a symmetry with a
    cosymmetry."""
    form = green_form(pres.linearization(), phi, psi)
    return pres.reduce_form(form)


def lie_on_cosymmetry(phi, psi, pres: Presentation):
    """L_phi(psi) = E_phi(psi) + box*(psi), box read off the cofactors of
    l_F(phi)."""
    box, _ = _cofactor_operator(pres.linearization().apply(phi), pres)
    if box is None:
        raise ShapeError("lie_on_cosymmetry needs a symmetry argument")
    correction = box.adjoint().apply(psi)
    return [pres.normal_form(ev_apply(phi, p) + c)
            for p, c in zip(psi, correction)]


# -- recursion operators -------------------------------------------------------


def ell_delta_op(delta: CDiffOp, phi, ncols: int = None) -> CDiffOp:
    """Operator chi -> E_chi(delta)(phi) (derivative of delta along chi,
    evaluated on phi).  chi ranges over the first ncols dependents."""
    if ncols is None:
        ncols = delta.space.m

    def terms():
        for r, c, tau, a in delta.terms():
            dphi = apply_DI(phi[c], tau)
            for key in a.jet_keys():
                if key[1] < ncols:
                    yield r, key[1], key[2], a.partial(key) * dphi
    return CDiffOp(delta.space, delta.rows, ncols, terms())


def nijenhuis_torsion(R: PseudoOp, phi1, phi2, pres: Presentation):
    """(1/2)[[R, R]](phi1, phi2) by direct evaluation through the bracket
    form  {R p1, R p2} - R{R p1, p2} - R{p1, R p2} + R^2{p1, p2};  every
    D_x^{-1} is taken in internal coordinates."""
    from .operators import jacobi

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


def lie_derivative_recursion(phi, R: PseudoOp, pres: Presentation) -> PseudoOp:
    """L_phi(R) = E_phi(R) - [l_phi, R], kept as a formal pseudo-operator;
    expose it by evaluating on test arguments."""
    lphi = linearize([pres.normal_form(p) for p in phi], pres.space)
    return (R.ev(phi) - R.commutator_local(lphi)).normalized()


# -- symplectic structures -----------------------------------------------------


class BilinearNabla:
    """nabla with  Theta(arg) = nabla(F, arg)  on free jets, extracted from
    the cofactors of Theta's coefficients; supports the *1-adjoint used by
    the closedness conditions."""

    def __init__(self, pres: Presentation, theta: CDiffOp):
        self.l = len(pres.components)
        self.data = []  # (r, c, J, s, K, lam)
        for r, c, J, coeff in theta.terms():
            red = pres.reduce(coeff)
            if not red.normal_form.is_zero():
                raise ShapeError("operator does not vanish on the equation")
            self.data.extend((r, c, J, s, K, lam) for _, s, K, lam in red.cofactor.terms())

    def star1(self, chi, arg):
        """Adjoint in the F-slot, applied to (chi, arg), unreduced, over the
        space of the arguments (which may extend the presentation's)."""
        space = arg[0].space
        out = [space.zero() for _ in range(self.l)]
        for (r, c, J, s, K, lam) in self.data:
            coeff = lam.rename_space(space) * apply_DI(arg[c], J)
            piece = apply_DI(coeff * chi[r], K)
            if mi_order(K) % 2:
                piece = -piece
            out[s] = out[s] + piece
        return out


def verify_symplectic(delta: CDiffOp, pres: Presentation, ansatz: Ansatz = None) -> dict:
    """Membership l_F* delta = delta* l_F modulo reduction, then closedness
    on a generating family of arguments (evolution shortcut when the
    presentation is evolutionary, cofactor nabla otherwise)."""
    space = pres.space
    L = pres.linearization()
    theta = L.adjoint().compose(delta) - delta.adjoint().compose(L)
    membership = pres.restrict_operator(theta)
    report = {"membership": membership.is_zero(),
              "membership_residual": membership.render_matrix()}
    if not report["membership"]:
        report["closed"] = False
        report["ok"] = False
        return report
    test_args = slot_candidates(ansatz_monomials(pres, ansatz or Ansatz(2, 1)), space.m, space)
    failures = []
    if pres.is_evolutionary():
        if not pres.restrict_operator(delta + delta.adjoint()).is_zero():
            failures.append("delta* != -delta")

        def defect(p1, p2):
            return [a - b - c for a, b, c in zip(
                ell_delta_op(delta, p1).apply(p2), ell_delta_op(delta, p2).apply(p1),
                ell_delta_op(delta, p1).adjoint().apply(p2))]
    else:
        nabla = BilinearNabla(pres, theta)

        def defect(p1, p2):
            return [a - b + c for a, b, c in zip(
                ell_delta_op(delta, p2).apply(p1), ell_delta_op(delta, p1).apply(p2),
                nabla.star1(p1, p2))]
    for p1, p2 in combinations_with_replacement(test_args, 2):
        res = [pres.normal_form(x) for x in defect(p1, p2)]
        if any(not x.is_zero() for x in res):
            failures.append([render(x) for x in res])
            break
    report["closed"] = not failures
    report["closed_failures"] = failures
    report["ok"] = report["membership"] and report["closed"]
    return report
