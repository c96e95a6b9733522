"""Seeded small presentations through every task kind that works on the
problem's equation: each `jetcalc run` ends with exit 0, with exit 1 and a
verdict for each task, or with exit 2 and one `input error:` line, and never
with a traceback.

Random testing of the exit contract (Zeller et al., *The Fuzzing Book*),
standard library `random` only: 1-2 dependents over (x, t), 1-3 rules each
solved for a jet of order up to 3, with a right-hand side of up to two terms,
each a jet of order up to the leading jet's, times another jet or not."""

import contextlib
import io
import json
import random
from collections import Counter

from jetcalc.cli import _TASKS, main

NAMES = ("u", "v")
PRESENTATIONS = 400
EQUATION_KINDS = sorted(kind for kind, (on_equation, _, _) in _TASKS.items() if on_equation)


def _jet(rng, m, top):
    order = rng.randint(0, top)
    t = rng.randint(0, order)
    return f"{NAMES[rng.randrange(m)]}[{order - t},{t}]"


def _operator(rng, rows, cols):
    """A rows x cols operator, each entry D_x or 1 times 1, -1 or u, or none."""
    return {"rows": rows, "cols": cols, "entries": [
        {"row": r, "col": c, "terms": [{"D": [rng.randint(0, 1), 0],
                                        "coef": rng.choice(["1", "-1", "u[0,0]"])}]}
        for r in range(rows) for c in range(cols) if rng.random() < 0.6]}


def _problem(rng) -> dict:
    """A presentation of m dependents and l rules, with one task of each kind
    that works on the equation, every operator of the shape its task needs."""
    m, l = rng.randint(1, 2), rng.randint(1, 3)
    equations = []
    for _ in range(l):
        lead = _jet(rng, m, 3)
        order = sum(map(int, lead[2:-1].split(",")))
        rhs = " + ".join(rng.choice(["", "2*", "-1*", "1/2*"]) + _jet(rng, m, max(order, 1))
                         + (f"*{_jet(rng, m, 1)}" if rng.random() < 0.4 else "")
                         for _ in range(rng.randint(0, 2))) or "0"
        equations.append({"expr": f"{lead} - ({rhs})", "leading": lead})
    zero = {name: {"rows": rows, "cols": cols, "entries": []} for name, rows, cols in (
        ("alpha", m, m), ("beta", m, m), ("alpha_p", l, l), ("beta_p", l, l), ("s1", m, l),
        ("s2", m, l))}
    tasks = [
        {"kind": "symmetries", "order": 1, "degree": 1},
        {"kind": "cosymmetries", "order": 1, "degree": 1},
        {"kind": "verify-symmetry", "exprs": [f"{NAMES[j]}[1,0]" for j in range(m)]},
        {"kind": "verify-cosymmetry", "exprs": ["1"] * l},
        {"kind": "conservation-laws", "sections": [["1"] * m]},
        {"kind": "reduce", "expr": f"{_jet(rng, m, 3)}*{_jet(rng, m, 2)}"},
        {"kind": "recursion-fiberlinear", "order": 1, "degree": 1},
        {"kind": "verify-symplectic", "op": _operator(rng, l, m), "order": 1, "degree": 1},
        {"kind": "verify-bivector", "op": _operator(rng, m, l)},
        {"kind": "schouten-equation", "ops": [_operator(rng, m, l), _operator(rng, m, l)]},
        {"kind": "verify-equivalence", "witness": dict(
            zero, components=[eq["expr"] for eq in equations], m1=m)},
    ]
    return {"space": {"independent": ["x", "t"], "dependent": list(NAMES[:m])},
            "equations": equations, "tasks": tasks}


def test_small_presentations_keep_the_exit_contract(tmp_path):
    """Every presentation is refused with one input-error line, or built and
    each of its tasks reported with a verdict; both happen, and so does
    every verdict."""
    rng, path, seen = random.Random(15), tmp_path / "problem.json", Counter()
    for _ in range(PRESENTATIONS):
        data = _problem(rng)
        assert sorted(task["kind"] for task in data["tasks"]) == EQUATION_KINDS
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--json", "--max-prolong", "2"])
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("input error: "), err.getvalue()
            seen["refused"] += 1
            continue
        report = json.loads(out.getvalue())
        assert err.getvalue() == "" and code == (report["status"] != "ok")
        assert [task["task"] for task in report["tasks"]] == [t["kind"] for t in data["tasks"]]
        seen.update(task["status"] for task in report["tasks"])
    assert set(seen) == {"refused", "ok", "fail", "error", "obstruction"}, seen
