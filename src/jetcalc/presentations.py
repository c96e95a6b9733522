"""Equation presentations as orthonomic rewrite systems.

A presentation solves each component F_s for a designated leading jet,
u_{I_s}^{j_s} = g_s, with internal-coordinate right-hand sides, and does
not change once built (a covering's also holds D_i of its nonlocals, so
its restricted derivatives are the lifted ones).  Derived rules are
prolonged on demand and cached.
Reduction optionally tracks cofactors Delta_s with  input = normal_form +
sum_s Delta_s(F_s)  exactly on the free jet space, by reducing modulo a
second presentation, of F - _F = 0 with one tag _F<s> per component; the
cofactors feed every construction downstream that the source theory
states existentially (box operators, the nabla of the bivector calculus,
generating sections)."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, permutations
from math import lcm

from .algebra import (
    DiffExpr,
    ImageTable,
    JetSpace,
    _meet,
    apply_DI,
    mi_add,
    mi_iter,
    mi_leq,
    mi_order,
    mi_sub,
    mi_unit,
    mi_zero,
    render,
    tower_DI,
)
from .errors import ConfluenceError, NonSolvableError, ReductionError
from .linalg import eliminate, peel
from .operators import CDiffOp, linearize


@dataclass(frozen=True)
class Reduction:
    """Result of reducing an expression modulo a presentation."""

    input: DiffExpr
    normal_form: DiffExpr
    cofactor: CDiffOp  # 1 x l row with input = nf + sum_s cofactor[0,s](F_s)

    def check(self, pres: "Presentation") -> bool:
        total = self.normal_form + self.cofactor.apply(list(pres.components))[0]
        return (total - self.input).is_zero()


def _integral(row):
    """The row times the lcm of its denominators: int entries."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


class Presentation:
    """Equation E = {F = 0} with user-designated leading jets, whose monomial coefficients
    are read from the components; critical pairs are checked up to order `check_order`, and
    so are those of the coverings built over it.  Its rules and `fields` (D_i of nonlocals)
    do not change once it is built; the caches built from them are filled on first use."""

    def __init__(self, space: JetSpace, components, leadings, rhss,
                 check_order: int, fields=None):
        self.space = space
        self.components = tuple(components)
        self.leadings = tuple(leadings)          # (dep index, multi-index)
        self.rhss = tuple(rhss)
        self.check_order = check_order
        self._rules_by_dep = {}
        for s, (j, I) in enumerate(self.leadings):
            self._rules_by_dep.setdefault(j, []).append((I, s))
        # every operator derived here, built once: l_F and l_F* under False and
        # True, each Theta under (delta, adjoint), each restricted op under op;
        # and reduce's tagged presentation per space that extends this one's
        self._ops, self._cofactors = {}, {}
        # a jet's rule (the first of its dependent's below it, or None), one
        # tower {K - I_s: normal form of u_K} per rule s, and the D_i table per
        # i, reading each jet as its normal form; none holds the presentation (a
        # table reaches it weakly, which a proxy's bound method would not), so a
        # dropped one is freed at once
        by_dep = self._rules_by_dep
        self._jet_rules = cache(lambda key: next(
            (s for I, s in by_dep.get(key[1], ()) if mi_leq(I, key[2])), None))
        self._towers = [{} for _ in self.rhss]
        image = partial(Presentation.jet_image, weakref.proxy(self))
        self._d_tables = [ImageTable(i, space, image) for i in range(space.n)]
        # a nonlocal's D_i image: its field, reduced once (reading jets only)
        for i, named in (fields or {}).items():
            self._d_tables[i].wmap = {w: self.normal_form(f) for w, f in named.items()}

    # -- rule machinery ------------------------------------------------------

    def find_rule(self, j, K):
        return self._jet_rules(('j', j, K))

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
        """The jet's normal form, the image D_i takes for it in d_bar: the jet
        itself when no rule applies, else D_{K-I_s} of its rule's right-hand
        side in d_internal, through the rule's tower.  Each step reads every
        jet u_{L+e_i} as its normal form, which is internal, and D_i of it is
        linear in the u_{L+e_i}, so nothing is left to reduce."""
        _, j, K = key
        s = self._jet_rules(key)
        if s is None:
            return self.space.jet(j, K)
        return tower_DI(self._towers[s], self.rhss[s], mi_sub(K, self.leadings[s][1]),
                        self.d_internal)

    def _reduce(self, e: DiffExpr) -> DiffExpr:
        """Substitute every reducible jet by its normal form in one pass.
        The normal forms are internal, so this is the polynomial that
        substituting them one jet at a time gives.  `_meet` refuses a space
        unrelated to the presentation's, reducible jets or not."""
        if e.space is not self.space:
            _meet(e.space, self.space)
        rules = self._jet_rules
        reducible = {k for k in e.variables() if k[0] == 'j' and rules(k) is not None}
        if not reducible:
            return e
        negative = e.negative_keys() & reducible
        if negative:
            raise ReductionError(f"reducible jet {self._jet_name(min(negative))} "
                                 "occurs with negative exponent")
        return e.substitute({z: self.jet_image(z) for z in reducible})

    def _jet_name(self, key) -> str:
        return render(self.space.jet(key[1], key[2]))

    def normal_form(self, e: DiffExpr) -> DiffExpr:
        """The expression with every reducible jet replaced by its normal
        form, in one substitution; elementwise on a list.  An expression over
        a wider space keeps it."""
        return [self._reduce(x) for x in e] if isinstance(e, (list, tuple)) else self._reduce(e)

    def d_bar(self, e: DiffExpr, i: int) -> DiffExpr:
        """Restricted total derivative: one pass of D_i over the normal form
        of e, reading each jet u_{K+e_i} as its normal form.  Exact: NF is a
        ring homomorphism fixing internal polynomials, so for internal Z,
        NF(D_i Z) = dZ/dx^i + sum_K dZ/du_K * NF(u_{K+e_i})."""
        return self.d_internal(self.normal_form(e), i)

    def d_internal(self, e: DiffExpr, i: int) -> DiffExpr:
        """d_bar on an internal e, taking no normal form; internal too."""
        return e.total_derivative(i, table=self._d_tables[i])

    # -- cofactor-tracking reduction ------------------------------------------

    def reduce(self, e: DiffExpr) -> Reduction:
        """Normal form together with exact cofactors, over the space where e's
        and the presentation's meet, as for normal_form: any extension of the
        presentation's space.  e is reduced modulo F - _F = 0 over that space
        and one tag family _F<s> per component (tags have no rules), built once
        per space, solved and inter-reduced as make_presentation does, with no
        confluence check; its normal form of e is NF(e) + sum_s Delta_s(_F<s>).
        That is split by each term's least tag in one pass: the untagged rest
        is the normal form, and the quotient of tag _F<s>_L is the cofactor of
        D_L(F_s), once each tag still in it is replaced by its D_K(F)."""
        for key in e.jet_keys():
            if self.space.is_odd_key(key) and self._jet_rules(key) is not None:
                raise ReductionError("cofactor tracking is limited to even "
                                     f"reducible jets: {self._jet_name(key)}")
        space = self.space if e.space is self.space else _meet(e.space, self.space)
        m, l = space.m, len(self.components)
        rules = self._cofactors.get(space)
        if rules is None:
            sp = space.extended(dependent=space.fresh(f"_F{s}" for s in range(l)))
            rules = self._cofactors[space] = _solved(sp, [
                F - sp.jet(m + s, mi_zero(sp.n)) for s, F in enumerate(self.components)],
                self.leadings, self.check_order)

        def is_tag(key):
            return key[0] == 'j' and key[1] >= m
        nf, slots = rules._reduce(e).by_least(is_tag)
        cofactor = []
        for (_, s, L), coeff in slots.items():
            if tags := {k for k in coeff.variables() if is_tag(k)}:
                coeff = coeff.substitute(
                    {k: apply_DI(self.components[k[1] - m], k[2]) for k in tags})
            cofactor.append((0, s - m, L, coeff.rename_space(space)))
        return Reduction(e, nf.rename_space(space), CDiffOp(space, 1, l, cofactor))

    # -- operators on the equation ---------------------------------------------

    def restrict_operator(self, op: CDiffOp) -> CDiffOp:
        """op with each coefficient in normal form, over this presentation's space,
        built once per value of op."""
        return self._ops.get(op) or self._ops.setdefault(op, CDiffOp(
            self.space, op.rows, op.cols,
            ((r, c, I, self.normal_form(a)) for r, c, I, a in op.terms())))

    def linearization(self, adjoint=False) -> CDiffOp:
        """l_F, or l_F* when adjoint, each built once per presentation."""
        return self._ops.get(adjoint) or self._ops.setdefault(adjoint, (
            self.linearization().adjoint() if adjoint
            else linearize(list(self.components), self.space)))

    def theta(self, delta: CDiffOp, adjoint=False) -> CDiffOp:
        """l_F o delta - delta* o l_F*, zero on the equation iff delta is a bivector there
        (with adjoint, l_F* o delta - delta* o l_F), built once per value of delta."""
        lin, key = self.linearization, (delta, adjoint)
        return self._ops.get(key) or self._ops.setdefault(key, CDiffOp.sum_of_compositions(
            ((1, lin(adjoint), delta), (-1, delta.adjoint(), lin(not adjoint)))))

    def restricted(self, op: CDiffOp):
        """op on the equation, as the function vec -> sum_K NF(a_K) *
        D_K(NF vec): the coefficients are restricted once per value of op,
        each argument is normalized once, and each column's D_K comes from
        one tower (CDiffOp.apply) of d_internal, which is D~ on a covering's
        presentation.  The result is internal, so nothing reduces it.
        It equals NF(op vec) wherever NF o D_i = NF o D_i o NF, which
        confluent rules give: NF is a ring homomorphism, so NF(a_K D_K phi)
        = NF(a_K) NF(D_K NF phi)."""
        op = self.restrict_operator(op)
        return lambda vec: op.apply(self.normal_form(vec), d=self.d_internal)

    def restricted_columns(self, op: CDiffOp):
        """restricted(op) on every unit-slot vector of an internal e, no normal form taken:
        e -> CDiffOp.columns of the restricted op, one tower of d_internal for every column."""
        return partial(self.restrict_operator(op).columns, d=self.d_internal)

    def lin_apply(self, phi) -> list:
        """l_F(phi) reduced (the symmetry determining operator): restricted l_F."""
        return self.restricted(self.linearization())(phi)

    def adj_apply(self, psi) -> list:
        """l_F*(psi) reduced (the cosymmetry determining operator): restricted l_F*."""
        return self.restricted(self.linearization(True))(psi)

    @cached_property
    def scaling(self) -> dict:
        """Scaling weights (Goktas & Hereman, J. Symb. Comput. 24, 1997), an
        int per ('i', k), ('j', j), ('q', name) and ('F', s): a jet u_K weighs
        w(u) - sum_i K_i w(x^i), and each monomial of F_s weighs that of its first,
        ('F', s).  Basis vector k of the weights' nullspace fills bits 32k up; all
        0 on a space with nonlocals, whose weights the system does not cover."""
        sp = self.space
        keys = [('i', k) for k in range(sp.n)] + [('j', j) for j in range(sp.m)] + \
            [('q', q) for q in sp.parameters]
        col, rows, firsts = {k: c for c, k in enumerate(keys)}, [], []
        for F in self.components if not sp.nonlocals else ():
            for t, factors in enumerate(F.exponents()):  # less the first monomial's weight
                row = {c: -v for c, v in firsts[-1].items()} if t else {}
                for key, e in factors:
                    row[col[key[:2]]] = row.get(col[key[:2]], 0) + e
                    for i, d in enumerate(key[2] if key[0] == 'j' else ()):
                        row[i] = row.get(i, 0) - e * d  # x^i is column i
                (rows if t else firsts).append(row)
        basis = [_integral(v) for v in eliminate(*peel(
            {c: v for c, v in row.items() if v} for row in rows), len(keys))] if firsts else []
        w = {key: sum(v.get(c, 0) << 32 * k for k, v in enumerate(basis))
             for c, key in enumerate(keys)}
        return w | {('F', s): sum(e * w[keys[c]] for c, e in first.items())
                    for s, first in enumerate(firsts or [{}] * len(self.components))}

    def extend_space(self, nonlocals, odd, fields) -> "Presentation":
        """Same rules over a space with extra (ruleless) nonlocals, D_i of
        each given by fields {i: {name: field}} (Covering.extended)."""
        return Presentation(self.space.extended(nonlocals=nonlocals, odd=odd), self.components,
                            self.leadings, self.rhss, self.check_order, fields)

    def is_evolutionary(self) -> bool:
        """One rule per dependent with a first-order pure-t leading jet."""
        t = mi_unit(self.space.n, self.space.n - 1)
        return len(self.components) == self.space.m == len({j for j, _ in self.leadings}) \
            and all(I == t for _, I in self.leadings)


CHECK_ORDER = 4  # the default prolongation order of the confluence check


def make_presentation(space: JetSpace, components, leadings,
                      check_order=CHECK_ORDER) -> Presentation:
    """Build and validate an orthonomic presentation.

    components: DiffExpr vector F; leadings: list of (dep, multi-index),
    dep by name or index.  Each component must be solvable for its leading
    jet with a Laurent-monomial coefficient; the rule set is inter-reduced
    and all critical pairs up to `check_order` are tested for confluence."""
    comps = list(components)
    leads = [(space.dep_index(j) if isinstance(j, str) else j, tuple(K)) for j, K in leadings]
    if len(comps) != len(leads):
        raise NonSolvableError("one leading jet per component is required")
    try:  # rules that reduce a jet through itself, or to ever higher jets, recurse without end
        pres = _solved(space, comps, leads, check_order)
        _check_confluence(pres, check_order)
    except RecursionError:
        raise NonSolvableError("the rules reduce without end: no ranking orders them") from None
    for s, F in enumerate(comps):
        if not pres.normal_form(F).is_zero():
            raise ConfluenceError(f"component {s} does not reduce to zero")
    return pres


def _solved(space: JetSpace, comps, leads, check_order: int) -> Presentation:
    """The presentation of comps, each solved for its leading jet (dep index,
    multi-index) in `leads`, the right-hand sides inter-reduced to a fixpoint;
    its confluence is not checked."""
    rhss = []
    for F, (j, I) in zip(comps, leads):  # each jet named in a refusal as the user writes it
        key, z = ('j', j, I), space.jet(j, I)
        if not F.is_linear_in(key):
            raise NonSolvableError(f"component is not linear in its leading jet {render(z)}")
        a = F.partial(key)
        if len(a) != 1:
            raise NonSolvableError(
                f"leading coefficient of {render(z)} is not a monomial: {render(a)}")
        rhs = (a * z - F) * a.inverse_monomial()
        for other in rhs.variables():
            if other[0] == 'j' and other[1] == j and mi_leq(I, other[2]):
                raise NonSolvableError(f"right-hand side contains a derivative "
                                       f"{render(space.jet(j, other[2]))} of the leading jet")
        rhss.append(rhs)
    for (j1, I1), (j2, I2) in permutations(leads, 2):  # leading jets pairwise non-divisible
        if j1 == j2 and mi_leq(I1, I2):
            raise NonSolvableError(f"leading jets {render(space.jet(j1, I1))} and "
                                   f"{render(space.jet(j2, I2))} are not orthonomic")
    pres = Presentation(space, comps, leads, rhss, check_order)
    # inter-reduce right-hand sides to a fixpoint, one round at a time, with a
    # new presentation after each round that changes one
    for _ in range(20):
        new = pres.normal_form(rhss)
        if new == rhss:
            return pres
        rhss = new
        pres = Presentation(space, comps, leads, rhss, check_order)
    raise NonSolvableError("inter-reduction did not stabilize")


def _check_confluence(pres: Presentation, check_order: int):
    """All jets divisible by two leading jets reduce identically."""
    n = pres.space.n
    for j, rules in pres._rules_by_dep.items():
        for (Ia, sa), (Ib, sb) in combinations(rules, 2):
            top = tuple(max(x, y) for x, y in zip(Ia, Ib))
            for extra in range(max(0, check_order - mi_order(top)) + 1):
                for pad in mi_iter(n, extra):
                    K = mi_add(top, pad)
                    via_a = pres.normal_form(apply_DI(pres.rhss[sa], mi_sub(K, Ia)))
                    via_b = pres.normal_form(apply_DI(pres.rhss[sb], mi_sub(K, Ib)))
                    if not (via_a - via_b).is_zero():
                        raise ConfluenceError(
                            f"critical pair at jet {render(pres.space.jet(j, K))}: "
                            f"{render(via_a)} != {render(via_b)}", jet=(j, K))


@dataclass(frozen=True)
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
