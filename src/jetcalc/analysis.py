"""Symmetries, cosymmetries, conservation laws and symplectic verification
on equation presentations."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations_with_replacement
from math import comb

from .algebra import (
    HorizontalForm,
    apply_DI,
    canonical_density,
    homotopy_density,
    invert_total_derivative,
    mi_order,
    raw_coefficients,
    render,
    sum_of_terms,
)
from .errors import AnsatzError, CheckError, ProblemError, ShapeError, VariationalityError
from .linalg import eliminate, peel
from .operators import CDiffOp, helmholtz
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


# about ten times the largest pool of a bundled, benchmarked or tested
# problem (1,001: KdV at order 7, degree 4)
MAX_MONOMIALS = 10_000
# completed weight blocks are peeled together until they hold this many
# rows: any value up to 128 bounds memory the same, and at 32 the heat and
# burgers corpus solves peel once, not 9 times
PEEL_ROWS = 32
# the test arguments of the symplectic closedness check, by default
SYMPLECTIC_ANSATZ = Ansatz(2, 1)


def ansatz_monomials(pres: Presentation, ansatz: Ansatz):
    """Monomial pool in internal coordinates, deterministic order: the
    products of up to max_degree generators, at most C(g + max_degree,
    max_degree) of them for g generators.  A ProblemError (an input error)
    when that count is beyond MAX_MONOMIALS, before any product is built."""
    return [m for _, m in _pool(pres, ansatz)[1]]


def _pool(pres: Presentation, ansatz: Ansatz):
    """(the generators' variable keys, ('i', i) or ('j', j, K), and the pool as
    (generator indices, monomial) pairs): the generators are counted before
    any product is built, and no weight is read."""
    space = pres.space
    keys = [('i', i) for i, name in enumerate(space.independent)
            if ansatz.whitelist is None or name in ansatz.whitelist]
    keys += [key for key in pres.internal_jets(ansatz.max_jet_order)
             if ansatz.whitelist is None or space.dependent[key[1]] in ansatz.whitelist]
    count = comb(len(keys) + ansatz.max_degree, ansatz.max_degree)
    if count > MAX_MONOMIALS:
        raise ProblemError(f"ansatz of {count} monomials beyond the cap of {MAX_MONOMIALS}")
    gens = [space.indep(k[1]) if k[0] == 'i' else space.jet(k[1], k[2]) for k in keys]
    # one product per monomial: the previous degree's product of all but the
    # last generator (zeros kept), times the last
    pool, prev = [((), space.one())], {(): space.one()}
    for deg in range(1, ansatz.max_degree + 1):
        prev = {combo: prev[combo[:-1]] * gens[combo[-1]]
                for combo in combinations_with_replacement(range(len(gens)), deg)}
        pool.extend(p for p in prev.items() if not p[1].is_zero())
    return keys, pool


def solve_determining(monos, slots: int, columns, target=None, weights=None):
    """The ansatz solver.  Its unknowns are one coefficient per monomial and slot, column
    j = slot * len(monos) + i for monos[i] in that slot, and a last one for `target`, a
    residual of its own, when one is given.  columns(e) gives, per slot, the residual of the
    vector holding e in that slot and 0 elsewhere, a raw_sum per row (CDiffOp.columns), so
    each monomial takes one call: one derivative tower serves every slot, each nonzero sum
    enters its row as raw_coefficients gives it, and nothing outlives the solve.  `weights`
    (w(m) per monomial, an offset per slot) weigh the candidate (m, slot), and every row of
    its residual, w(m) + offset under a scaling: in weight order, a weight's rows are peeled
    after its last candidate (with other closed ones, up to PEEL_ROWS), and the survivors
    eliminated once; a target weighs 0, so a solve with one takes no weights.  Returns the
    echelonized solution basis as vectors of `slots` expressions, with the target's
    coefficient (a Fraction) last if given."""
    if not monos or not slots and target is None:
        raise AnsatzError("ansatz generates no unknowns")
    zero, n = monos[0].space.zero(), len(monos)
    ncols = slots * n + (target is not None)
    mono_w, offsets = weights or ([0] * n, [0] * slots)
    order = sorted(range(n), key=mono_w.__getitem__)
    cands = [(slot * n + i, mono_w[i] + offsets[slot]) for i in order for slot in range(slots)]
    cands += [(ncols - 1, 0)] * (target is not None)
    last = {w: j for j, w in cands}
    residuals = chain(chain.from_iterable(columns(monos[i]) for i in order), [target])
    blocks, closed, survivors, forced = {}, [], [], set()  # a row per weight, component, monomial
    for (j, w), residual in zip(cands, residuals):
        block = blocks.setdefault(w, {})
        for comp, (sums, den, _, _) in enumerate(residual):
            index = block.setdefault(comp, {})
            for mono, c in raw_coefficients(sums, den):
                row = index.get(mono)
                if row is None:
                    row = index[mono] = {}
                row[j] = c
        if last[w] == j:  # no later candidate weighs w
            closed += (r for index in blocks.pop(w).values() for r in index.values())
            if len(closed) >= PEEL_ROWS or j == cands[-1][0]:
                rows, cols = peel(closed)
                survivors += rows
                forced |= cols
                closed = []
    out = []
    for vec in eliminate(survivors, forced, ncols):
        sol = [zero] * slots
        for j in sorted(vec):
            if j < slots * n:
                sol[j // n] += monos[j % n] * vec[j]
        out.append(sol + [vec.get(j, Fraction(0)) for j in range(slots * n, ncols)])
    return out


# -- symmetries and cosymmetries --------------------------------------------


def verify_symmetry(phi, pres: Presentation):
    residual = pres.lin_apply(phi)
    return all(r.is_zero() for r in residual), residual


def _solve(pres: Presentation, ansatz: Ansatz, adjoint):
    """solve_determining on the ansatz, (m, slot) weighing w(m) - w(u^j) for symmetries
    (row s of l_F(m in slot j) weighs that + W_s) and w(m) + W_s for cosymmetries, the
    weights read once the ansatz is counted."""
    keys, pool = _pool(pres, ansatz)
    w = pres.scaling
    gen_w = [w[k[:2]] - sum(d * w['i', i] for i, d in enumerate(k[2] if k[0] == 'j' else ()))
             for k in keys]
    weights = [sum(map(gen_w.__getitem__, combo)) for combo, _ in pool]
    offsets = [w['F', s] for s in range(len(pres.components))] if adjoint \
        else [-w['j', j] for j in range(pres.space.m)]
    columns = pres.restricted_columns(pres.linearization(adjoint))
    return solve_determining([m for _, m in pool], len(offsets), columns, None, (weights, offsets))


def solve_symmetries(pres: Presentation, ansatz: Ansatz):
    return _solve(pres, ansatz, False)


def verify_cosymmetry(psi, pres: Presentation):
    residual = pres.adj_apply(psi)
    return all(r.is_zero() for r in residual), residual


def solve_cosymmetries(pres: Presentation, ansatz: Ansatz):
    return _solve(pres, ansatz, True)


# -- conservation laws --------------------------------------------------------


def conservation_law_from_cosymmetry(psi, pres: Presentation) -> HorizontalForm:
    """The current X dx + T dt with generating section psi, by the evolution shortcut
    in (x, t): X = homotopy density of psi, T the x-primitive of its reduced
    t-derivative."""
    if not pres.is_evolutionary() or pres.space.n != 2:
        raise ShapeError("conservation-law shortcut requires an evolution equation in (x, t)")
    psi = [pres.normal_form(p) for p in psi]
    if not pres.restrict_operator(helmholtz(psi)).is_zero():
        raise VariationalityError(
            "cosymmetry fails the Helmholtz condition: not a generating section")
    X = canonical_density(homotopy_density(psi))
    DtX = pres.d_bar(X, 1)
    T = invert_total_derivative(DtX)
    if not (DtX - pres.d_bar(T, 0)).is_zero():
        raise CheckError("D_t X != D_x T on the equation: the current is not conserved")
    return HorizontalForm(pres.space, 1, {(0,): X, (1,): T})


# -- variations of operators ---------------------------------------------------


def ell_delta_op(delta: CDiffOp, phi) -> CDiffOp:
    """Operator chi -> E_chi(delta)(phi) (derivative of delta along chi,
    evaluated on phi).  chi ranges over the dependents of delta's space."""
    m = delta.space.m
    return CDiffOp(delta.space, delta.rows, m,
                   ((r, key[1], key[2], (1, a.partial(key), dphi))
                    for r, c, tau, a in delta.terms() for dphi in (apply_DI(phi[c], tau),)
                    for key in a.jet_keys() if key[1] < m))


# -- symplectic structures -----------------------------------------------------


class BilinearNabla:
    """Theta = restricted + nabla(F, .) on free jets, read off one cofactor
    pass over Theta's coefficients: `restricted` is Theta on the equation,
    and nabla supports the *1-adjoint used by the closedness conditions."""

    def __init__(self, pres: Presentation, theta: CDiffOp):
        self.l = len(pres.components)
        slots = [(r, c, J, pres.reduce(a)) for r, c, J, a in theta.terms()]
        self.restricted = CDiffOp(pres.space, theta.rows, theta.cols,
                                  ((r, c, J, red.normal_form) for r, c, J, red in slots))
        self.data = [(r, c, J, s, K, lam)
                     for r, c, J, red in slots for _, s, K, lam in red.cofactor.terms()]

    def star1(self, chi, arg):
        """Adjoint in the F-slot, applied to (chi, arg), unreduced, over the
        space of the arguments (which may extend the presentation's)."""
        space = arg[0].space
        out = [[] for _ in range(self.l)]
        for (r, c, J, s, K, lam) in self.data:
            coeff = lam * apply_DI(arg[c], J)
            out[s].append(((-1) ** mi_order(K), apply_DI(coeff * chi[r], K), None))
        return [sum_of_terms(space, terms) for terms in out]


def verify_symplectic(delta: CDiffOp, pres: Presentation, ansatz: Ansatz = None) -> dict:
    """Membership l_F* delta = delta* l_F modulo reduction, then closedness
    on a generating family of arguments through the cofactor nabla."""
    space = pres.space
    nabla = BilinearNabla(pres, pres.theta(delta, adjoint=True))
    membership = nabla.restricted
    report = {"membership": membership.is_zero(),
              "membership_residual": membership.render_matrix()}
    if not report["membership"]:
        return dict(report, closed=False, ok=False)
    monos = ansatz_monomials(pres, ansatz or SYMPLECTIC_ANSATZ)
    test_args = [tuple(m if k == slot else space.zero() for k in range(space.m))
                 for slot in range(space.m) for m in monos]
    ell = cache(lambda p: ell_delta_op(delta, p))  # E_p(delta), once per argument p
    failures = []
    for p1, p2 in combinations_with_replacement(test_args, 2):
        res = pres.normal_form([a - b + c for a, b, c in zip(
            ell(p2).apply(p1), ell(p1).apply(p2), nabla.star1(p1, p2))])
        if any(not x.is_zero() for x in res):
            failures.append([render(x) for x in res])
            break
    return dict(report, closed=not failures, closed_failures=failures, ok=not failures)
