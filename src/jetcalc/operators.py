"""Matrix operators in total derivatives, each slot summed once from its
unmultiplied terms: composition, formal adjoint, linearization, Green forms,
Jacobi bracket, Helmholtz test, and the one-layer D_x^{-1} pseudo-operators."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass
from functools import cache
from itertools import chain, product
from math import comb, prod
from types import MappingProxyType

from .algebra import (
    DiffExpr,
    HorizontalForm,
    JetSpace,
    MultiIndex,
    apply_DI,
    invert_total_derivative,
    mi_add,
    mi_order,
    mi_sub,
    mi_unit,
    mi_zero,
    parse,
    raw_sum,
    render,
    sum_of_products,
    sum_of_terms,
    tower_DI,
)
from .errors import ShapeError


@cache
def _leibniz(I: MultiIndex) -> tuple:
    """The (Jp, I - Jp, C(I, Jp)) of every Jp <= I, once per process: the
    distinct I are the few operator orders of a problem."""
    return tuple((Jp, mi_sub(I, Jp), prod(map(comb, I, Jp)))
                 for Jp in product(*(range(e + 1) for e in I)))


class CDiffOp:
    """rows x cols matrix with entries  sum_I a_I D_I  (coefficients left
    of the derivatives; equality is equality of this normal form), each
    a_I summed once, by sum_of_terms, from the terms that land on its slot.
    It applies to a vector (`apply`, a tower of derivatives per column) or to
    one expression in every column at once (`columns`, one tower for all)."""

    __slots__ = ("space", "rows", "cols", "entries", "_plan")

    def __init__(self, space: JetSpace, rows: int, cols: int, entries=()):
        """entries: {(row, col): {I: a_I}} or (row, col, I, a_I) terms, a_I also an unmultiplied
        (k, a, b) of sum_of_terms; zero sums are dropped.  Frozen: `apply` and `columns`
        plan from it, and its hash is taken once."""
        if isinstance(entries, dict):
            entries = ((r, c, I, a) for (r, c), tab in entries.items() for I, a in tab.items())
        table = defaultdict(dict)
        for r, c, I, a in entries:
            table[r, c].setdefault(I, []).append(a if type(a) is tuple else (1, a, None))
        entries = {rc: MappingProxyType(clean) for rc, tab in table.items()
                   if (clean := {I: a for I, terms in tab.items()
                                 if not (a := sum_of_terms(terms[0][1].space, terms)).is_zero()})}
        for name, value in (("space", space), ("rows", rows), ("cols", cols),
                            ("entries", MappingProxyType(entries)), ("_plan", {})):
            object.__setattr__(self, name, value)  # once: the operator is frozen

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign a {type(value).__name__} to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, space, size):
        return cls.mult(space, space.one(), size)

    @classmethod
    def scalar(cls, space, table: dict):
        """1x1 operator from {multi-index: coefficient}."""
        return cls(space, 1, 1, {(0, 0): table})

    @classmethod
    def total_derivative(cls, space, i: int):
        return cls(space, 1, 1, ((0, 0, mi_unit(space.n, i), space.one()),))

    @classmethod
    def mult(cls, space, expr: DiffExpr, size: int = 1):
        z = mi_zero(space.n)
        return cls(space, size, size, ((k, k, z, expr) for k in range(size)))

    @classmethod
    def sum_of_compositions(cls, parts) -> "CDiffOp":
        """The sum of k * (A o B) over the (k, A, B) parts, built once from
        their Leibniz terms, unmultiplied: a D_I in A and b D_J in B give
        k * C(I, Jp) * a * D_Jp(b) on D_{I-Jp+J} for each Jp <= I."""
        _, A0, B0 = parts[0]
        for _, A, B in parts:
            if A.cols != B.rows:
                raise ShapeError(f"cannot compose {A.rows}x{A.cols} with {B.rows}x{B.cols}")
            if (A.rows, B.cols) != (A0.rows, B0.cols):
                raise ShapeError("operator shapes differ in addition")
        # D_Jp(b) vanishes for constant b and Jp != 0: no term for those
        return cls(A0.space, A0.rows, B0.cols,
                   ((r, c, mi_add(rest, J), (k * C, a, db))
                    for k, A, B in parts for r, m, I, a in A.terms() for c in range(B.cols)
                    for J, b in B.entry(m, c).items() for Jp, rest, C in _leibniz(I)
                    if not (db := apply_DI(b, Jp)).is_zero()))

    def terms(self):
        """The operator as (row, col, I, a_I) terms, one per nonzero slot."""
        for (r, c), tab in self.entries.items():
            for I, a in tab.items():
                yield r, c, I, a

    def entry(self, r, c) -> dict:
        return self.entries.get((r, c), {})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, CDiffOp) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):  # taken once and kept with the plans: the table is frozen
        plan = self._plan
        return plan.get("hash") or plan.setdefault("hash", hash(frozenset(self.terms())))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("operator shapes differ in addition")
        return CDiffOp(self.space, self.rows, self.cols,
                       chain(self.terms(), other.terms()))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("operator shapes differ in addition")
        return CDiffOp(self.space, self.rows, self.cols, chain(
            self.terms(), ((r, c, I, (-1, a, None)) for r, c, I, a in other.terms())))

    def scale(self, factor):
        return self.map_coefficients(lambda a: a * factor)

    def map_coefficients(self, fn):
        return CDiffOp(self.space, self.rows, self.cols,
                       ((r, c, I, fn(a)) for r, c, I, a in self.terms()))

    def compose(self, other: "CDiffOp") -> "CDiffOp":
        """(self o other)(p) = self(other(p))."""
        return CDiffOp.sum_of_compositions(((1, self, other),))

    def adjoint(self) -> "CDiffOp":
        """Formal adjoint: transpose of entrywise sum (-1)^|I| D_I o a_I."""
        # linear terms (-1)^|I| C(I, Jp) D_Jp(a) D_{I-Jp}; none for constant a, Jp != 0
        return CDiffOp(self.space, self.cols, self.rows,
                       ((c, r, rest, ((-1) ** mi_order(I) * k, da, None))
                        for r, c, I, a in self.terms() for Jp, rest, k in _leibniz(I)
                        if not (da := apply_DI(a, Jp)).is_zero()))

    def _walk(self, args, d, shared: bool):
        """(nodes, groups) of the derivative plan, which tower_DI builds on
        node numbers on first use, one per kind of call.  The arguments are
        the first nodes (one per column, or one expression for all columns
        when shared), and each step (b, i) appends D_i(node b), taken with d
        as in apply_DI; groups[c][r] lists slot (r, c)'s (a_K, node of D_K
        of its argument) pairs in entry order, with every column in groups[0]
        unless shared.  The towers are per column, or one when shared."""
        plan = self._plan.get(shared)
        if plan is None:
            bases = 1 if shared else self.cols
            steps, towers = [], [{} for _ in range(bases)]
            groups = [[[] for _ in range(self.rows)] for _ in range(self.cols if shared else 1)]

            def step(b, i):
                steps.append((b, i))
                return bases + len(steps) - 1
            for (r, c), tab in self.entries.items():
                b = 0 if shared else c
                groups[c if shared else 0][r].extend(
                    (a, tower_DI(towers[b], b, K, step)) for K, a in tab.items())
            plan = self._plan[shared] = (steps, groups)
        steps, groups = plan
        nodes = list(args)
        for b, i in steps:
            nodes.append(nodes[b].total_derivative(i) if d is None else d(nodes[b], i))
        return nodes, groups

    def apply(self, vec, d=None) -> list:
        """The operator on a vector, with total derivatives d as in apply_DI:
        each row summed by one sum_of_terms over the plan's nodes of vec."""
        if len(vec) != self.cols:
            raise ShapeError(f"operator takes {self.cols} arguments, got {len(vec)}")
        nodes, (rows,) = self._walk(vec, d, False)
        return [sum_of_terms(self.space, [(1, a, nodes[k]) for a, k in pairs]) for pairs in rows]

    def columns(self, e: DiffExpr, d=None) -> list:
        """The ansatz solver's row source, not expressions: out[c][r] = sum_K a^{rc}_K D_K(e) as
        a raw_sum (sums may be 0; read them with raw_coefficients), apply on the vector holding
        e at c and 0 elsewhere.  One tower of e over every column's K serves them all."""
        nodes, cols = self._walk((e,), d, True)
        return [[raw_sum(self.space, [(1, a, nodes[k]) for a, k in pairs
                                      if not nodes[k].is_zero()]) for pairs in rows]
                for rows in cols]

    def submatrix(self, rows, cols) -> "CDiffOp":
        return CDiffOp(self.space, len(rows), len(cols),
                       ((ri, ci, I, a) for ri, r in enumerate(rows)
                        for ci, c in enumerate(cols) for I, a in self.entry(r, c).items()))

    def rename_space(self, space: JetSpace) -> "CDiffOp":
        return CDiffOp(space, self.rows, self.cols,
                       ((r, c, I, a.rename_space(space)) for r, c, I, a in self.terms()))

    def render_matrix(self):
        return [[" + ".join(f"({render(a)})*D{list(I)}"
                            for I, a in sorted(self.entry(r, c).items())) or "0"
                 for c in range(self.cols)] for r in range(self.rows)]

    def __repr__(self):
        return f"CDiffOp({self.render_matrix()})"

    # -- serialization (wire format) ----------------------------------------

    def to_json(self):
        return [{"row": r, "col": c, "terms": [{"D": list(I), "coef": render(a)}
                                               for I, a in sorted(tab.items())]}
                for (r, c), tab in sorted(self.entries.items())]

    @classmethod
    def from_json(cls, space, rows, cols, data):
        def terms():
            for item in data:
                # int(): JSON may give an integral float such as 1.0
                r, c = int(item["row"]), int(item["col"])
                where = f"operator entry (row {r}, col {c})"
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ShapeError(f"{where} lies outside its {rows}x{cols} shape")
                for t in item["terms"]:
                    I = tuple(map(int, t["D"]))
                    if len(I) != space.n:
                        raise ShapeError(f"{where}: multi-index {list(I)} needs "
                                         f"{space.n} entries")
                    yield r, c, I, parse(t["coef"], space)
        return cls(space, rows, cols, terms())


# -- linearization and evolutionary action ---------------------------------


def linearize(psis, space: JetSpace = None, columns=None) -> CDiffOp:
    """Linearization matrix: entry (j, a) = sum_I dpsi^j/du_I^a D_I."""
    if space is None:
        space = psis[0].space
    if columns is None:
        columns = range(space.m)
    columns = list(columns)
    return CDiffOp(space, len(psis), len(columns),
                   ((j, columns.index(key[1]), key[2], psi.partial(key))
                    for j, psi in enumerate(psis) for key in psi.jet_keys()
                    if key[1] in columns))


def ev_apply(phi, e: DiffExpr) -> DiffExpr:
    """Evolutionary derivation: E_phi(e) = sum_{I,j} D_I(phi^j) de/du_I^j;
    families j >= len(phi) are left out."""
    return sum_of_products(e.space, [(apply_DI(phi[key[1]], key[2]), e.partial(key))
                                     for key in e.jet_keys() if key[1] < len(phi)])


def ev_apply_op(phi, op: CDiffOp) -> CDiffOp:
    """E_phi applied to an operator's coefficients."""
    return op.map_coefficients(lambda a: ev_apply(phi, a))


def jacobi(phi, psi) -> list:
    """Jacobi bracket {phi, psi} = l_psi(phi) - l_phi(psi), componentwise."""
    return [ev_apply(phi, q) - ev_apply(psi, p) for p, q in zip(phi, psi)]


def helmholtz(psis) -> CDiffOp:
    """l_psi - l_psi*; zero iff psi is a variational gradient."""
    L = linearize(psis)
    return L - L.adjoint()


# -- Green forms ------------------------------------------------------------


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


def pairing_density(ps, qs) -> DiffExpr:
    return sum_of_products(ps[0].space, zip(ps, qs))


# -- pseudo-differential operators with one D_x^{-1} layer -------------------


@dataclass(frozen=True)
class PseudoOp:
    """local + sum_a  a * D_x^{-1} o b  with one inversion layer in the
    first independent variable x."""

    local: CDiffOp
    tails: tuple  # (a: one DiffExpr per row, b: CDiffOp row 1 x cols) pairs

    def __post_init__(self):  # tuples, each tail of the local part's shape
        tails = tuple((tuple(a), b) for a, b in self.tails)
        for a, b in tails:
            if len(a) != self.local.rows or (b.rows, b.cols) != (1, self.local.cols):
                raise ShapeError(f"pseudo-operator tail: a has {len(a)} entries and b is "
                                 f"{b.rows}x{b.cols}, for a {self.local.rows}x"
                                 f"{self.local.cols} local part")
        object.__setattr__(self, "tails", tails)

    @property
    def space(self):
        return self.local.space

    def normalized(self) -> "PseudoOp":
        """Merge tails sharing the same b-row so cancellations are structural."""
        merged = {}
        for a_vec, b in self.tails:
            old = merged.get(b)
            merged[b] = a_vec if old is None else [x + y for x, y in zip(old, a_vec)]
        tails = [(a_vec, b) for b, a_vec in merged.items()
                 if any(not x.is_zero() for x in a_vec) and not b.is_zero()]
        return PseudoOp(self.local, tails)

    def apply(self, phi, pres) -> list:
        """Evaluate on a vector on the equation `pres` (a presentation
        without rules for free jets).  The local part and the tails' rows
        are applied there as one stacked operator (Presentation.restricted),
        so every D_x^{-1} is taken in internal coordinates and the result
        is internal: a primitive of an internal integrand is internal."""
        norm = self.normalized()
        rows = norm.local.rows
        stacked = CDiffOp(self.space, rows + len(norm.tails), norm.local.cols, chain(
            norm.local.terms(), ((rows + k, c, I, a) for k, (_, b) in enumerate(norm.tails)
                                 for _, c, I, a in b.terms())))
        image = pres.restricted(stacked)(phi)
        out = image[:rows]
        for (a_vec, _), integrand in zip(norm.tails, image[rows:]):
            if integrand.is_zero():
                continue
            prim = invert_total_derivative(integrand, 0)
            out = [x + a * prim for x, a in zip(out, pres.normal_form(a_vec))]
        return out

    def ev(self, phi) -> "PseudoOp":
        """E_phi acting on all coefficients (Leibniz over both tail slots)."""
        tails = []
        for a_vec, b in self.tails:
            ea = [ev_apply(phi, a) for a in a_vec]
            if any(not x.is_zero() for x in ea):
                tails.append((ea, b))
            eb = ev_apply_op(phi, b)
            if not eb.is_zero():
                tails.append((a_vec, eb))
        return PseudoOp(ev_apply_op(phi, self.local), tails)

    def scale(self, factor):
        return PseudoOp(self.local.scale(factor),
                        [([a * factor for a in av], b) for av, b in self.tails])

    def __add__(self, other: "PseudoOp") -> "PseudoOp":
        return PseudoOp(self.local + other.local, self.tails + other.tails)

    def __sub__(self, other: "PseudoOp") -> "PseudoOp":
        return self + other.scale(-1)

    def compose_local_right(self, op: CDiffOp) -> "PseudoOp":
        """self o op for a local scalar operator in x."""
        local, tails = list(self.local.compose(op).terms()), []
        for a_vec, b in self.tails:
            loc_row, tail_row = _absorb_inverse(b.compose(op))
            if not tail_row.is_zero():
                tails.append((a_vec, tail_row))
            local.extend((r, c, I, (1, a, coeff)) for r, a in enumerate(a_vec)
                         for _, c, I, coeff in loc_row.terms())
        return PseudoOp(CDiffOp(self.space, self.local.rows, op.cols, local), tails)

    def compose_local_left(self, op: CDiffOp) -> "PseudoOp":
        """op o self for a local scalar operator in x:
        op o a D^{-1} b = sum_K p_K D^K o D^{-1} b over the terms p_K D^K of
        op o a, where D^k o D^{-1} = D^{k-1} for k >= 1."""
        space = self.space
        unit = mi_unit(space.n, 0)
        local = op.compose(self.local)
        tails = []
        for a_vec, b in self.tails:
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

    def commutator_local(self, op: CDiffOp) -> "PseudoOp":
        """[op, self] = op o self - self o op, kept formal."""
        return self.compose_local_left(op) - self.compose_local_right(op)

    def to_json(self):
        tail = []
        for a_vec, b in self.tails:
            a = render(a_vec[0]) if len(a_vec) == 1 \
                else [render(x) for x in a_vec]
            tail.append({"a": a, "b": b.to_json()})
        return {"local": self.local.to_json(), "tail": tail}

    @classmethod
    def from_json(cls, space, rows, cols, data):
        local = CDiffOp.from_json(space, rows, cols, data.get("local", []))
        tails = []
        for t in data.get("tail", []):
            a = t["a"]
            a_vec = [parse(a, space)] if isinstance(a, str) \
                else [parse(s, space) for s in a]
            b = CDiffOp.from_json(space, 1, cols, t["b"])
            tails.append((a_vec, b))
        return cls(local, tails)


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
