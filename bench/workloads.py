"""The benchmark's workloads: seeded inputs, the cases a timed pass runs, and
the check of every case's output against its reference.

A case is `(label, run, check)`: `run()` calls into jetcalc and returns an
output that compares byte for byte (strings, lists of strings, booleans);
`check(output)` says whether that output is correct.  `build(seed, index)`
returns the cases of one pass; it is called outside the timed region and
returns fresh engine objects every time, because users pay for rule-cache
filling on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


# -- corpus ---------------------------------------------------------------


def corpus_report(name):
    """`jetcalc corpus <name> --json` in-process: (exit code, stdout)."""
    from jetcalc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus", name, "--json"])
    return [code, out.getvalue()]


class Corpus:
    """All bundled problems through the CLI, order shuffled per pass."""

    def __init__(self):
        self.reference = {p.stem: p.read_text()
                          for p in sorted((REFERENCE / "corpus").glob("*.json"))}

    def build(self, seed, index):
        from jetcalc import corpus_names

        names = corpus_names()
        if sorted(names) != sorted(self.reference):
            raise RuntimeError("bundled corpus does not match bench/reference/corpus")
        random.Random(seed * 1_000_003 + index).shuffle(names)
        return [(name, lambda name=name: corpus_report(name),
                 lambda out, name=name: out == [0, self.reference[name]])
                for name in names]


# -- ansatz solvers ---------------------------------------------------------

# label -> (independent, dependent, parameters, [(equation, leading)], solver, ansatz)
SOLVES = {
    "kdv-symmetries-7-4": (
        ["x", "t"], ["u"], [],
        [("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", "u[0,1]")], "symmetries", (7, 4)),
    "kdv-cosymmetries-5-3": (
        ["x", "t"], ["u"], [],
        [("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", "u[0,1]")], "cosymmetries", (5, 3)),
    "boussinesq-symmetries-5-3": (
        ["x", "t"], ["u", "v"], ["sigma"],
        [("u[0,1] - u[1,0]*v[0,0] - u[0,0]*v[1,0] - sigma*v[3,0]", "u[0,1]"),
         ("v[0,1] - u[1,0] - v[0,0]*v[1,0]", "v[0,1]")], "symmetries", (5, 3)),
    "camassa-holm-symmetries-3-3": (
        ["x", "t"], ["u"], [],
        [("u[0,1] - u[2,1] - u[0,0]*u[3,0] - 2*u[1,0]*u[2,0] + 3*u[0,0]*u[1,0]",
          "u[2,1]")], "symmetries", (3, 3)),
}


def solve_case(label):
    """Parse and present the equation; return the call that solves it."""
    from jetcalc import (Ansatz, JetSpace, make_presentation, parse, render,
                         solve_cosymmetries, solve_symmetries)

    indep, dep, params, equations, kind, (order, degree) = SOLVES[label]
    space = JetSpace.create(indep, dep, params)
    leads = []
    for _, lead in equations:
        name, idx = lead.rstrip("]").split("[")
        leads.append((name, tuple(int(k) for k in idx.split(","))))
    pres = make_presentation(space, [parse(e, space) for e, _ in equations], leads)
    solver = solve_symmetries if kind == "symmetries" else solve_cosymmetries
    return lambda: [[render(x) for x in vec] for vec in solver(pres, Ansatz(order, degree))]


class Solve:
    """Fixed ansatz solves; the seed only orders them within a pass."""

    def __init__(self, labels):
        self.labels = labels
        reference = json.loads((REFERENCE / "solve.json").read_text())
        self.reference = {label: reference[label] for label in labels}

    def build(self, seed, index):
        labels = list(self.labels)
        random.Random(seed * 1_000_003 + index).shuffle(labels)
        return [(label, solve_case(label),
                 lambda out, label=label: out == self.reference[label])
                for label in labels]


# -- route agreement --------------------------------------------------------


def rand_expr(rng, space, maxord=2, maxdeg=2, nterms=2):
    """The acceptance suite's random differential polynomial (criterion 9)."""
    e = space.zero()
    for _ in range(nterms):
        m = space.num(rng.randint(-3, 3))
        for _ in range(rng.randint(0, maxdeg)):
            k = rng.randint(0, maxord + 1)
            if k <= maxord:
                m = m * space.jet(0, (k,))
            else:
                m = m * space.indep(0)
        e = e + m
    return e


def rand_op(rng, space, maxorder=3):
    """The acceptance suite's random scalar operator on (x; u)."""
    from jetcalc import CDiffOp

    tab = {}
    for _ in range(rng.randint(1, 3)):
        tab[(rng.randint(0, maxorder),)] = rand_expr(rng, space)
    return CDiffOp.scalar(space, tab)


def skew_ops(rng, space, count):
    """`count` nonzero skew-symmetrized random operators, as criterion 9."""
    ops = []
    while len(ops) < count:
        raw = rand_op(rng, space)
        op = raw.scale(Fraction(1, 2)) - raw.adjoint().scale(Fraction(1, 2))
        if not op.is_zero():
            ops.append(op)
    return ops


def route_checker(space):
    """The case of `route_agreement`: op -> [is_hamiltonian(op), oracle verdict].

    The oracle is criterion 9's direct route: every pairing of the Schouten
    bracket [[A, A]] on three test gradients must vanish modulo divergences.
    Three gradients cannot expose every non-Hamiltonian operator (operator
    107 of the universe below is one), so when the routes disagree that way
    the oracle tries the pairings again with u^2 added as a fourth gradient."""
    from jetcalc import euler, is_hamiltonian, parse, schouten_pairing

    gradients = [[space.one()], [space.jet("u", (0,))],
                 [parse("3*u[0]^2 + u[2]", space)]]
    wider = gradients + [[parse("u[0]^2", space)]]

    def direct(op, tests):
        for g1 in tests:
            for g2 in tests:
                for g3 in tests:
                    dens = schouten_pairing(op, op, g1, g2, g3)
                    if not all(e.is_zero() for e in euler(dens)):
                        return False
        return True

    def case(op):
        verdict = is_hamiltonian(op)
        oracle = direct(op, gradients)
        if oracle and not verdict:
            oracle = direct(op, wider)
        return [verdict, oracle]

    return case


# criterion 9's seed; the operators a run can draw from
UNIVERSE_SEED = 2024
UNIVERSE_SIZE = 560


def route_universe(space):
    return skew_ops(random.Random(UNIVERSE_SEED), space, UNIVERSE_SIZE)


class RouteAgreement:
    """`is_hamiltonian` against the direct Schouten bracket on random skew
    operators.

    One case costs from a few milliseconds to about a second.  A plain draw
    of 140 operators from the generator moves a run's total by about 11%
    and its p90 by about 20% from seed to seed, more than the benchmark's
    bounds allow on top of machine noise.  So the operators come from a
    fixed universe drawn by the same generator, ranked once by measured cost
    (reference/route_order.json).  A run of n operators cuts the ranking
    into n bands of equal width and the seed picks one operator from each
    band: another seed gives other operators, with the same spread of cheap
    and costly ones."""

    def __init__(self, count):
        self.count = min(count, UNIVERSE_SIZE)
        self.order = json.loads((REFERENCE / "route_order.json").read_text())

    def build(self, seed, index):
        from jetcalc import JetSpace

        space = JetSpace.create(["x"], ["u"])
        universe = route_universe(space)
        check = route_checker(space)
        n, rng = len(self.order), random.Random(seed)
        picks = [self.order[rng.randrange(i * n // self.count, (i + 1) * n // self.count)]
                 for i in range(self.count)]
        rng.shuffle(picks)
        return [(f"op{k}", lambda op=universe[k]: check(op), lambda out: out[0] == out[1])
                for k in picks]


NAMES = ["corpus", "solve_evolution", "solve_nonevolution", "route_agreement"]


def make(name, seconds):
    """The workload `name` and its number of passes in a run of `seconds`.

    Pass lengths were measured on the hardware named in bench/README.md."""
    if name == "corpus":
        workload, pass_s = Corpus(), 0.4
    elif name == "solve_evolution":
        workload, pass_s = Solve(["kdv-symmetries-7-4", "kdv-cosymmetries-5-3",
                                  "boussinesq-symmetries-5-3"]), 5.8
    elif name == "solve_nonevolution":
        workload, pass_s = Solve(["camassa-holm-symmetries-3-3"]), 11.0
    elif name == "route_agreement":
        # one pass of about eight operators per second
        return RouteAgreement(max(1, round(seconds * 8.0))), 1
    else:
        raise KeyError(name)
    return workload, max(1, round(seconds / pass_s))
