"""Differential coverings: flatness, tangent/cotangent/Delta-coverings,
lifted operators, shadows and finite covering symmetries, each covering
built once."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .algebra import (
    DiffExpr,
    JetSpace,
    mi_zero,
    render,
    tower_DI,
)
from .errors import ProblemError, ShapeError
from .analysis import Ansatz, ansatz_monomials, solve_determining
from .operators import CDiffOp
from .presentations import Presentation, make_presentation


@dataclass(frozen=True)
class Covering:
    """A presentation (possibly with fiber jet families appended to the
    base) plus derivative-free nonlocal variables with extension fields.

    The lifted derivatives D~_i = D-bar_i + sum_j X_i^j d/dw^j are the
    restricted derivatives of its presentation (`presentation.d_bar`, and
    `presentation.restricted` for an operator), which holds the fields
    reduced; nonlocal variables never carry jet indices."""

    presentation: Presentation
    base: Presentation
    X: dict = field(default_factory=dict)  # i -> tuple of DiffExpr per nonlocal

    def __post_init__(self):  # a read-only map, over a copy
        object.__setattr__(self, "X", MappingProxyType(dict(self.X)))

    @property
    def space(self) -> JetSpace:
        return self.presentation.space

    @property
    def nonlocals(self) -> tuple:
        """The nonlocal names over the base's, in the order of X's fields."""
        return self.space.nonlocals[len(self.base.space.nonlocals):]

    @property
    def fiber_families(self) -> range:
        """The dependent indices added over the base."""
        return range(self.base.space.m, self.space.m)

    def extended(self, names, fields: dict, odd) -> "Covering":
        """This covering with the nonlocals `names` (the `odd` ones odd)
        appended, D~_i of each new one given by the list fields[i], kept as is;
        ShapeError unless each list has one field per new nonlocal."""
        for i, x in enumerate(self.space.independent):
            if (k := len(fields.get(i, ()))) != len(names):
                raise ShapeError(f"covering fields along {x}: {k} for {len(names)} nonlocals")
        nonlocals = self.nonlocals + tuple(names)
        merged = {i: (*self.X.get(i, ()), *fields[i]) for i in range(self.space.n)}
        return Covering(self.presentation.extend_space(
            nonlocals=names, odd=odd,
            fields={i: dict(zip(nonlocals, fs)) for i, fs in merged.items()}), self.base, merged)


def verify_flat(cov: Covering) -> dict:
    """Residuals D~_i(X_j) - D~_j(X_i) per (i, j, nonlocal)."""
    residuals = {}
    n = cov.space.n
    for i in range(n):
        for j in range(i + 1, n):
            for k, name in enumerate(cov.nonlocals):
                lhs = cov.presentation.d_bar(cov.X[j][k], i)
                rhs = cov.presentation.d_bar(cov.X[i][k], j)
                residuals[(i, j, name)] = lhs - rhs
    ok = all(r.is_zero() for r in residuals.values())
    return {"ok": ok,
            "residuals": {k: render(v) for k, v in residuals.items() if not v.is_zero()}}


def make_covering(base: Presentation, nonlocals, X, odd=()) -> Covering:
    """Nonlocal-variable covering over a presentation.  `nonlocals` is a
    list of names, X maps independent index -> list of extension fields."""
    return Covering(base, base).extended(nonlocals, X, odd)


def delta_covering(base: Presentation, op: CDiffOp, leadings, odd=False) -> Covering:
    """Covering cut out by  op(v) = 0  on new fiber variables v^1..v^cols,
    row r solved for the fiber jet leadings[r], one per row as in
    make_presentation; its critical pairs are checked to the base's order."""
    space = base.space
    stem = "p" if odd else "v"
    names = space.fresh(stem if op.cols == 1 else f"{stem}{c + 1}" for c in range(op.cols))
    ext = space.extended(dependent=names, odd=names if odd else ())
    fiber_exprs = op.apply([ext.jet(space.m + c, mi_zero(ext.n)) for c in range(op.cols)])
    pres = make_presentation(ext, list(base.components) + fiber_exprs,
                             list(base.leadings) + list(leadings), base.check_order)
    return Covering(pres, base)


def tangent_covering(base: Presentation) -> Covering:
    """Covering cut out by l_F(v) = 0, row s solved for v^{j_s}_{I_s} where
    u^{j_s}_{I_s} is the base's leading jet of F_s."""
    m = base.space.m
    return delta_covering(base, base.linearization(), [(m + j, I) for j, I in base.leadings])


def cotangent_covering(base: Presentation) -> Covering:
    """Covering cut out by l*_F(p) = 0 on odd fibers p^1..p^l: the rows of
    l*_F taken in the order j_s, row s solved for p^s_{I_s} where
    u^{j_s}_{I_s} is the base's leading jet of F_s.  A dependent that leads
    more than one rule would take one fiber leading jet per rule for its one
    row of l*_F, so such a presentation is refused, before any work."""
    m, leaders = base.space.m, [j for j, _ in base.leadings]
    if len(set(leaders)) < len(leaders):
        j = max(leaders, key=leaders.count)
        raise ProblemError(
            f"the cotangent covering needs each dependent to lead at most one rule: "
            f"{base.space.dependent[j]} leads {leaders.count(j)} of {len(leaders)} rules "
            f"on {m} dependent{'s' * (m != 1)}")
    adj = base.linearization(adjoint=True)
    adj = adj.submatrix(leaders, list(range(adj.cols)))
    return delta_covering(base, adj, [(m + s, I) for s, (_, I) in enumerate(base.leadings)],
                          odd=True)


# -- shadows and fiber-linear solving ----------------------------------------


def verify_shadow(phi, cov: Covering):
    """l~_F(phi): the base linearization with the lifted derivatives."""
    residual = cov.presentation.restricted(cov.base.linearization())(phi)
    return all(r.is_zero() for r in residual), residual


def fiber_linear_monomials(cov: Covering, ansatz: Ansatz):
    """The ansatz of a fiber-linear solution: base-coefficient monomials
    times one fiber slot (fiber jets up to the ansatz order, plus nonlocal
    fiber variables)."""
    space, m = cov.space, cov.base.space.m
    base_monos = [b for b in ansatz_monomials(cov.presentation, ansatz)
                  if all(k[0] != 'j' or k[1] < m for k in b.variables())]
    slots = []
    for fam in cov.fiber_families:
        for key in cov.presentation.internal_jets(ansatz.max_jet_order):
            if key[1] == fam:
                slots.append(space.jet(key[1], key[2]))
    for name in cov.nonlocals:
        slots.append(space.nonlocal_var(name))
    return [b * s for s in slots for b in base_monos]


def solve_fiberlinear(cov: Covering, ansatz: Ansatz):
    """All fiber-linear solutions of the lifted base linearization within
    the ansatz."""
    return solve_determining(fiber_linear_monomials(cov, ansatz), cov.base.space.m,
                             cov.presentation.restricted_columns(cov.base.linearization()))


# -- finite symmetries ---------------------------------------------------------


def verify_finite_symmetry(cov: Covering, images: dict) -> dict:
    """Whether the substitution sigma, given by the images of order-0
    dependents and nonlocals (unlisted ones map to themselves, jets
    prolong through the lifted derivatives), preserves the covering: it
    does iff sigma commutes with the lifted derivatives, i.e. the covering
    rules D~_i w = X_i and the base equation are stable under it."""
    space, pres = cov.space, cov.presentation
    dep_images, w_images = {}, {}
    for name, expr in images.items():
        if name in space.dependent:
            dep_images[space.dep_index(name)] = expr
        elif name in space.nonlocals:
            w_images[('w', name)] = expr
        else:
            raise ShapeError(f"substitution target {name!r} is not a variable")
    # per dependent: its image's normal form and the tower of its D~_K
    towers = [(pres.normal_form(dep_images.get(j, space.jet(j, mi_zero(space.n)))), {})
              for j in range(space.m)]

    def sigma(e: DiffExpr) -> DiffExpr:
        e = pres.normal_form(e)
        mapping = {}
        for key in e.variables():
            if key[0] == 'j':
                image, tower = towers[key[1]]
                mapping[key] = tower_DI(tower, image, key[2], pres.d_internal)
            elif key in w_images:
                mapping[key] = w_images[key]
        return pres.normal_form(e.substitute(mapping))

    residuals = {}
    for i in range(space.n):
        for j, name in enumerate(cov.nonlocals):
            img = w_images.get(('w', name), space.nonlocal_var(name))
            residuals[(space.independent[i], name)] = pres.d_bar(img, i) - sigma(cov.X[i][j])
    for s, F in enumerate(pres.components):
        residuals[("component", s)] = sigma(F)
    ok = all(r.is_zero() for r in residuals.values())
    return {"ok": ok, "residuals": {f"{k}": render(v)
                                    for k, v in residuals.items() if not v.is_zero()}}
