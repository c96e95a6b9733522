"""Differential coverings: flatness, tangent/cotangent/Delta-coverings,
lifted operators, shadows, one-step reconstruction and finite covering
symmetries, each covering built once."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .algebra import (
    DiffExpr,
    JetSpace,
    mi_order,
    mi_zero,
    render,
    sum_of_products,
    tower_DI,
)
from .errors import NonlocalObstruction, NonSolvableError, ShapeError
from .analysis import Ansatz, ansatz_monomials, solve_determining
from .operators import CDiffOp, linearize
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
        appended, D~_i of each new one given by the list fields[i];
        ShapeError unless each list has one field per new nonlocal."""
        for i, x in enumerate(self.space.independent):
            if (k := len(fields.get(i, ()))) != len(names):
                raise ShapeError(f"covering fields along {x}: {k} for {len(names)} nonlocals")
        nonlocals = self.nonlocals + tuple(names)
        merged = {i: (*self.X.get(i, ()), *fields[i]) for i in range(self.space.n)}
        pres = self.presentation.extend_space(
            nonlocals=names, odd=odd,
            fields={i: dict(zip(nonlocals, fs)) for i, fs in merged.items()})
        X = {i: tuple(f.rename_space(pres.space) for f in fs) for i, fs in merged.items()}
        return Covering(pres, self.base, X)


def verify_flat(cov: Covering) -> dict:
    """Residuals D~_i(X_j) - D~_j(X_i) per (i, j, nonlocal); plus sampled
    commutation of the lifted derivatives on the fiber jets."""
    residuals = {}
    n = cov.space.n
    for i in range(n):
        for j in range(i + 1, n):
            for k, name in enumerate(cov.nonlocals):
                lhs = cov.presentation.d_bar(cov.X[j][k], i)
                rhs = cov.presentation.d_bar(cov.X[i][k], j)
                residuals[(i, j, name)] = lhs - rhs
    for fam in cov.fiber_families:
        v = cov.space.jet(fam, mi_zero(n))
        for i in range(n):
            for j in range(i + 1, n):
                lhs = cov.presentation.d_bar(cov.presentation.d_bar(v, i), j)
                rhs = cov.presentation.d_bar(cov.presentation.d_bar(v, j), i)
                residuals[(i, j, cov.space.dependent[fam])] = lhs - rhs
    ok = all(r.is_zero() for r in residuals.values())
    return {"ok": ok,
            "residuals": {k: render(v) for k, v in residuals.items() if not v.is_zero()}}


def make_covering(base: Presentation, nonlocals, X, odd=()) -> Covering:
    """Nonlocal-variable covering over a presentation.  `nonlocals` is a
    list of names, X maps independent index -> list of extension fields."""
    return Covering(base, base).extended(nonlocals, X, odd)


def delta_covering(base: Presentation, op: CDiffOp, odd=False,
                   leadings=None) -> Covering:
    """Covering cut out by  op(v) = 0  on new fiber variables v^1..v^cols,
    oriented along the supplied fiber leading jets (defaults mirror the
    base leading jets when shapes match); its critical pairs are checked
    to the base's order."""
    space = base.space
    stem = "p" if odd else "v"
    names = space.fresh(stem if op.cols == 1 else f"{stem}{c + 1}" for c in range(op.cols))
    ext = space.extended(dependent=names, odd=names if odd else ())
    fiber0 = space.m
    fiber_exprs = op.rename_space(ext).apply(
        [ext.jet(fiber0 + c, mi_zero(ext.n)) for c in range(op.cols)])
    if leadings is None:
        leadings = []
        for r, expr in enumerate(fiber_exprs):
            lead = None
            if op.rows == len(base.leadings) and op.cols == space.m:
                # mirror the base leading jet when the rule supports it
                j, I = base.leadings[r]
                key = ('j', fiber0 + j, I)
                coeff = expr.partial(key)
                if len(coeff) == 1 and expr.is_linear_in(key):
                    lead = (fiber0 + j, I)
            if lead is None:
                keys = [k for k in expr.variables() if k[0] == 'j' and k[1] >= fiber0]
                if not keys:
                    raise NonSolvableError("fiber rule contains no fiber jet")
                key = max(keys, key=lambda k: (mi_order(k[2]), k[2], k[1]))
                lead = (key[1], key[2])
            leadings.append(lead)
    comps = [c.rename_space(ext) for c in base.components] + fiber_exprs
    leads = list(base.leadings) + list(leadings)
    pres = make_presentation(ext, comps, leads, base.check_order)
    return Covering(pres, base)


def tangent_covering(base: Presentation) -> Covering:
    return delta_covering(base, base.linearization(), odd=False)


def cotangent_covering(base: Presentation) -> Covering:
    """Covering cut out by the adjoint linearization on odd fibers."""
    adj = base.linearization(adjoint=True)
    ext_leads = None
    if adj.rows == base.space.m and len(base.leadings) == adj.cols:
        # orient the rule read off component j_s along p^s at the base leading index
        ext_leads = [(base.space.m + s, I) for s, (_, I) in enumerate(base.leadings)]
        # reorder fiber component rows to match: row of adj giving p^s rule is j_s
        rows = [j for (j, _) in base.leadings]
        adj = adj.submatrix(rows, list(range(adj.cols)))
    return delta_covering(base, adj, odd=True, leadings=ext_leads)


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


# -- reconstruction and finite symmetries --------------------------------------


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
