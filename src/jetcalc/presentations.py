"""Equation presentations as orthonomic rewrite systems.

A presentation solves each component F_s for a designated leading jet,
u_{I_s}^{j_s} = g_s, with internal-coordinate right-hand sides.  Derived
rules are prolonged on demand and cached.  Reduction optionally tracks
cofactors Delta_s with  input = normal_form + sum_s Delta_s(F_s)  exactly
on the free jet space; the cofactors feed every construction downstream
that the source theory states existentially (box operators, the nabla of
the bivector calculus, generating sections)."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DiffExpr,
    HorizontalForm,
    JetSpace,
    apply_DI,
    mi_add,
    mi_iter,
    mi_leq,
    mi_order,
    mi_sub,
    mi_unit,
    mi_zero,
    render,
)
from .errors import ConfluenceError, NonSolvableError, ReductionError
from .operators import CDiffOp, linearize


@dataclass
class Reduction:
    """Result of reducing an expression modulo a presentation."""

    input: DiffExpr
    normal_form: DiffExpr
    cofactor: CDiffOp  # 1 x l row with input = nf + sum_s cofactor[0,s](F_s)

    def check(self, pres: "Presentation") -> bool:
        total = self.normal_form + self.cofactor.apply(list(pres.components))[0]
        return (total - self.input).is_zero()


class Presentation:
    """Equation E = {F = 0} with user-designated leading jets; critical
    pairs are checked up to order `check_order`, and so are those of the
    coverings built over it."""

    def __init__(self, space: JetSpace, components, leadings, lead_coeffs, rhss,
                 check_order: int):
        self.space = space
        self.components = tuple(components)
        self.leadings = tuple(leadings)          # (dep index, multi-index)
        self.lead_coeffs = tuple(lead_coeffs)    # monomial DiffExpr per rule
        self.rhss = list(rhss)
        self.check_order = check_order
        self._rules_by_dep = {}
        for s, (j, I) in enumerate(self.leadings):
            self._rules_by_dep.setdefault(j, []).append((I, s))
        self._jet_nfs, self._determining_ops = {}, {}
        self._lin = None
        self._tag_space = space.extended(
            dependent=space.fresh(f"_F{s}" for s in range(len(self.components))))

    # -- rule machinery ------------------------------------------------------

    def find_rule(self, j, K):
        for I, s in self._rules_by_dep.get(j, ()):
            if mi_leq(I, K):
                return s
        return None

    def internal_jets(self, max_order: int):
        """All internal jet keys up to the given total order."""
        out = []
        for j in range(self.space.m):
            for order in range(max_order + 1):
                for K in mi_iter(self.space.n, order):
                    if self.find_rule(j, K) is None:
                        out.append(('j', j, K))
        return out

    def jet_image(self, key) -> DiffExpr:
        """The jet's normal form, the image D_i takes for it in d_bar and
        lift_d."""
        image = self._jet_nfs.get((False, key))
        return self._image(key, False) if image is None else image

    def _image(self, key, tagged) -> DiffExpr:
        """The jet's normal form, cached per (tagged, jet): the jet itself
        when no rule applies, else _rule_nf.  Tagged images live on the tag
        space (tag families have no rules)."""
        image = self._jet_nfs.get((tagged, key))
        if image is None:
            _, j, K = key
            sp = self._tag_space if tagged else self.space
            image = sp.jet(j, K) if self.find_rule(j, K) is None \
                else self._rule_nf(j, K, tagged)
            self._jet_nfs[tagged, key] = image
        return image

    def _rule_nf(self, j, K, tagged) -> DiffExpr:
        """Normal form of the reducible jet u_K^j.  At a rule's leading jet it
        is the right-hand side; when tagged, plus the rule's tag _F<s> over
        its leading coefficient, so the cofactors ride along.  Above it, it
        is D_i of the normal form of u_{K-e_i}, one pass reading each jet
        u_{L+e_i} as its normal form: that normal form is internal, and D_i
        of it is linear in the u_{L+e_i}, so nothing is left to reduce."""
        s = self.find_rule(j, K)
        I = self.leadings[s][1]
        sp = self._tag_space if tagged else self.space
        if K != I:
            i = max(k for k in range(self.space.n) if K[k] > I[k])
            base = self._image(('j', j, mi_sub(K, mi_unit(self.space.n, i))), tagged)
            return base.total_derivative(i, jets=lambda key: self._image(key, tagged))
        if not tagged:
            return self.rhss[s]
        tag = sp.jet(self.space.m + s, mi_zero(sp.n))
        inv = self.lead_coeffs[s].rename_space(sp).inverse_monomial()
        return self.rhss[s].rename_space(sp) + inv * tag

    def _reduce(self, e: DiffExpr, tagged) -> DiffExpr:
        """Substitute every reducible jet by its normal form in one pass.
        The normal forms are internal, so this is the polynomial that
        substituting them one jet at a time gives."""
        reducible = {k for k in e.variables()
                     if k[0] == 'j' and self.find_rule(k[1], k[2]) is not None}
        if not reducible:
            return e
        negative = e.negative_keys() & reducible
        if negative:
            raise ReductionError(f"reducible jet {self._jet_name(min(negative))} "
                                 "occurs with negative exponent")
        return e.substitute({z: self._image(z, tagged) for z in reducible})

    def _jet_name(self, key) -> str:
        return render(self.space.jet(key[1], key[2]))

    def normal_form(self, e: DiffExpr) -> DiffExpr:
        """The expression with every reducible jet replaced by its normal
        form, in one substitution; elementwise on a list."""
        def nf(x):
            return self._reduce(x if x.space is self.space else x.rename_space(self.space),
                                False)
        return [nf(x) for x in e] if isinstance(e, (list, tuple)) else nf(e)

    def d_bar(self, e: DiffExpr, i: int) -> DiffExpr:
        """Restricted total derivative: one pass of D_i over the normal form
        of e, reading each jet u_{K+e_i} as its normal form.  Exact: NF is a
        ring homomorphism fixing internal polynomials, so for internal Z,
        NF(D_i Z) = dZ/dx^i + sum_K dZ/du_K * NF(u_{K+e_i})."""
        return self.d_internal(self.normal_form(e), i)

    def d_internal(self, e: DiffExpr, i: int) -> DiffExpr:
        """d_bar on an internal e, taking no normal form; internal too."""
        return e.total_derivative(i, jets=self.jet_image)

    # -- cofactor-tracking reduction ------------------------------------------

    def reduce(self, e: DiffExpr) -> Reduction:
        """Normal form together with exact cofactors."""
        for key in e.jet_keys():
            if self.space.is_odd_key(key) and self.find_rule(key[1], key[2]) is not None:
                raise ReductionError("cofactor tracking is limited to even "
                                     f"reducible jets: {self._jet_name(key)}")
        sp = self._tag_space
        m, l = self.space.m, len(self.components)
        full = self._reduce(e.rename_space(sp), True)
        tags = {k for k in full.variables() if k[0] == 'j' and k[1] >= m}
        cofactor = []
        for t in full.summands():
            mine = t.variables() & tags
            if not mine:
                continue
            _, s, L = min(mine)
            # tags are even: dividing by the least one leaves its coefficient
            coeff = t * sp.jet(s, L) ** -1
            coeff = coeff.substitute({
                k: apply_DI(self.components[k[1] - m].rename_space(sp), k[2])
                for k in coeff.variables() & tags})
            cofactor.append((0, s - m, L, coeff.rename_space(self.space)))
        nf = full.substitute({k: sp.zero() for k in tags}).rename_space(self.space)
        return Reduction(e, nf, CDiffOp(self.space, 1, l, cofactor))

    # -- operators on the equation ---------------------------------------------

    def restrict_operator(self, op: CDiffOp) -> CDiffOp:
        return op.map_coefficients(self.normal_form)

    def linearization(self) -> CDiffOp:
        """l_F, built once: the solvers apply it to every candidate."""
        if self._lin is None:
            self._lin = linearize(list(self.components), self.space)
        return self._lin

    def restricted(self, op: CDiffOp, d=None):
        """op on the equation, as the function vec -> sum_K NF(a_K) *
        D_K(NF vec): the coefficients are restricted here, once, each
        argument is normalized once, and each column's D_K comes from one
        tower (CDiffOp.apply) of d, the total derivative on internal
        expressions: d_internal by default, D~ on a covering
        (Covering.lifted).  The result is internal, so nothing reduces it.
        It equals NF(op vec) wherever NF o D_i = NF o D_i o NF, which
        confluent rules give: NF is a ring homomorphism, so NF(a_K D_K phi)
        = NF(a_K) NF(D_K NF phi)."""
        op = self.restrict_operator(op)
        d = d or self.d_internal
        return lambda vec: op.apply(self.normal_form(vec), d)

    def lin_apply(self, phi) -> list:
        """l_F(phi) reduced (the symmetry determining operator), computed as
        l_E, l_F restricted to the equation once per presentation."""
        return self._determining(False, phi)

    def adj_apply(self, psi) -> list:
        """l_F*(psi) reduced (the cosymmetry determining operator), computed
        as lin_apply is, from the adjoint."""
        return self._determining(True, psi)

    def _determining(self, adjoint, vec) -> list:
        apply = self._determining_ops.get(adjoint)
        if apply is None:
            op = self.linearization().adjoint() if adjoint else self.linearization()
            apply = self._determining_ops[adjoint] = self.restricted(op)
        return apply(vec)

    def reduce_form(self, form: HorizontalForm) -> HorizontalForm:
        return form.map_components(self.normal_form)

    def extend_space(self, dependent=(), nonlocals=(), odd=()) -> "Presentation":
        """Same rules over a space with extra (ruleless) variables."""
        space = self.space.extended(dependent, nonlocals, odd)
        return Presentation(space,
                            [c.rename_space(space) for c in self.components],
                            self.leadings,
                            [c.rename_space(space) for c in self.lead_coeffs],
                            [c.rename_space(space) for c in self.rhss],
                            self.check_order)

    def is_evolutionary(self) -> bool:
        """One rule per dependent with a first-order pure-t leading jet."""
        if len(self.components) != self.space.m:
            return False
        seen = set()
        t = self.space.n - 1
        for j, I in self.leadings:
            if mi_order(I) != 1 or I[t] != 1:
                return False
            seen.add(j)
        return len(seen) == self.space.m


def make_presentation(space: JetSpace, components, leadings,
                      check_order=4) -> Presentation:
    """Build and validate an orthonomic presentation.

    components: DiffExpr vector F; leadings: list of (dep, multi-index),
    dep by name or index.  Each component must be solvable for its leading
    jet with a Laurent-monomial coefficient; the rule set is inter-reduced
    and all critical pairs up to `check_order` are tested for confluence."""
    comps = list(components)
    leads = []
    for dep, K in leadings:
        j = space.dep_index(dep) if isinstance(dep, str) else dep
        leads.append((j, tuple(K)))
    if len(comps) != len(leads):
        raise NonSolvableError("one leading jet per component is required")
    coeffs, rhss = [], []
    for F, (j, I) in zip(comps, leads):
        key = ('j', j, I)
        if not F.is_linear_in(key):
            raise NonSolvableError(f"component is not linear in its leading jet {key}")
        a = F.partial(key)
        if len(a) != 1:
            raise NonSolvableError(
                f"leading coefficient of {key} is not a monomial: {render(a)}")
        if key in a.variables():
            raise NonSolvableError(f"leading coefficient depends on {key}")
        z = space.jet(j, I)
        rhs = (a * z - F) * a.inverse_monomial()
        for other in rhs.variables():
            if other[0] == 'j' and other[1] == j and mi_leq(I, other[2]):
                raise NonSolvableError(
                    f"right-hand side contains a derivative {other} of the leading jet")
        coeffs.append(a)
        rhss.append(rhs)
    # orthonomicity: leading jets pairwise non-divisible
    for s1 in range(len(leads)):
        for s2 in range(len(leads)):
            if s1 != s2 and leads[s1][0] == leads[s2][0] \
                    and mi_leq(leads[s1][1], leads[s2][1]):
                raise NonSolvableError(
                    f"leading jets {leads[s1]} and {leads[s2]} are not orthonomic")
    pres = Presentation(space, comps, leads, coeffs, rhss, check_order)
    # inter-reduce right-hand sides to a fixpoint
    for _ in range(20):
        changed = False
        for s in range(len(rhss)):
            new = pres.normal_form(pres.rhss[s])
            if not (new - pres.rhss[s]).is_zero():
                pres.rhss[s] = new
                pres._jet_nfs.clear()
                changed = True
        if not changed:
            break
    else:  # pragma: no cover
        raise NonSolvableError("inter-reduction did not stabilize")
    _check_confluence(pres, check_order)
    for s, F in enumerate(comps):
        if not pres.normal_form(F).is_zero():
            raise ConfluenceError(f"component {s} does not reduce to zero")
    return pres


def _check_confluence(pres: Presentation, check_order: int):
    """All jets divisible by two leading jets reduce identically."""
    n = pres.space.n
    for j, rules in pres._rules_by_dep.items():
        for a in range(len(rules)):
            for b in range(a + 1, len(rules)):
                Ia, sa = rules[a]
                Ib, sb = rules[b]
                lcm = tuple(max(x, y) for x, y in zip(Ia, Ib))
                pads = [mi_zero(n)]
                for extra in range(1, max(0, check_order - mi_order(lcm)) + 1):
                    pads.extend(mi_iter(n, extra))
                for pad in pads:
                    K = mi_add(lcm, pad)
                    via_a = pres.normal_form(apply_DI(pres.rhss[sa], mi_sub(K, Ia)))
                    via_b = pres.normal_form(apply_DI(pres.rhss[sb], mi_sub(K, Ib)))
                    if not (via_a - via_b).is_zero():
                        raise ConfluenceError(
                            f"critical pair at jet ({pres.space.dependent[j]}, {K}): "
                            f"{render(via_a)} != {render(via_b)}", jet=(j, K))


@dataclass
class EquivalenceWitness:
    """Operators relating two presentations of the same equation, all
    expressed over the host (larger) presentation's space."""

    alpha: CDiffOp
    beta: CDiffOp
    alpha_p: CDiffOp
    beta_p: CDiffOp
    s1: CDiffOp
    s2: CDiffOp


def verify_equivalence(host: Presentation, other_components, m1: int,
                       w: EquivalenceWitness) -> dict:
    """Check the four compatibility identities between the host presentation
    and a second presentation of the same equation given by
    `other_components` (expressed on the host space, depending on the first
    m1 dependents).  Every identity is an operator identity modulo the host
    reduction."""
    space = host.space
    L2 = host.linearization()
    L1 = linearize(list(other_components), space, columns=range(m1))
    checks = {}

    def record(name, lhs, rhs):
        diff = host.restrict_operator(lhs - rhs)
        checks[name] = {"ok": diff.is_zero(),
                        "residual": diff.render_matrix()}

    record("lF1.beta = beta'.lF2", L1.compose(w.beta), w.beta_p.compose(L2))
    record("lF2.alpha = alpha'.lF1", L2.compose(w.alpha), w.alpha_p.compose(L1))
    record("beta.alpha = id + s1.lF1", w.beta.compose(w.alpha),
           CDiffOp.identity(space, m1) + w.s1.compose(L1))
    record("alpha.beta = id + s2.lF2", w.alpha.compose(w.beta),
           CDiffOp.identity(space, space.m) + w.s2.compose(L2))
    checks["ok"] = all(v["ok"] for k, v in checks.items() if k != "ok")
    return checks
