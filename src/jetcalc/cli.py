"""Batch front end: parse problem files, dispatch tasks, emit deterministic
reports.  Exit codes: 0 all tasks ok, 1 any fail/obstruction, 2 input error."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import jsonschema

from . import __version__
from .algebra import JetSpace, parse, render
from .analysis import (
    Ansatz,
    conservation_law_from_cosymmetry,
    solve_cosymmetries,
    solve_symmetries,
    verify_cosymmetry,
    verify_symmetry,
    verify_symplectic,
)
from .coverings import (
    add_abelian_layer,
    make_covering,
    solve_fiberlinear,
    tangent_covering,
    verify_finite_symmetry,
    verify_flat,
    verify_shadow,
)
from .errors import ExprSyntaxError, JetCalcError, NonlocalObstruction, ProblemError
from .hamiltonian import (
    are_compatible,
    is_hamiltonian,
    magri_chain,
    poisson_bracket,
    schouten_on_equation,
    verify_bivector_on_equation,
)
from .operators import CDiffOp, PseudoOp
from .presentations import EquivalenceWitness, make_presentation, verify_equivalence

_SPACE_SCHEMA = {
    "type": "object",
    "properties": {
        "independent": {"type": "array", "items": {"type": "string"},
                        "minItems": 1},
        "dependent": {"type": "array", "items": {"type": "string"},
                      "minItems": 1},
        "parameters": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["independent", "dependent"],
}

_BOUND = {"type": "integer", "minimum": 0}  # an ansatz bound

PROBLEM_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "space": _SPACE_SCHEMA,
        "independent": {"type": "array", "items": {"type": "string"}},
        "dependent": {"type": "array", "items": {"type": "string"}},
        "parameters": {"type": "array", "items": {"type": "string"}},
        "equations": {"type": "array", "items": {
            "type": "object",
            "properties": {"expr": {"type": "string"},
                           "leading": {"type": "string"}},
            "required": ["expr", "leading"]}},
        "normal": {"type": "boolean"},
        "covering": {"type": "object"},
        "coverings": {"type": "object"},
        "hamiltonian": {"type": "object"},
        "pseudo_operators": {"type": "object"},
        "tasks": {"type": "array", "items": {
            "type": "object",
            "properties": {"kind": {"type": "string"},
                           "order": _BOUND, "degree": _BOUND},
            "required": ["kind"],
            "if": {"properties": {"kind": {"enum": [
                "symmetries", "cosymmetries", "recursion-fiberlinear"]}}},
            "then": {"required": ["order", "degree"]}}},
    },
    "required": ["tasks"],
    "anyOf": [{"required": ["space"]}, {"required": ["independent", "dependent"]}],
}

# task kinds that work on the problem's equation
_ON_EQUATION = frozenset({
    "symmetries", "cosymmetries", "verify-symmetry", "verify-cosymmetry",
    "conservation-laws", "reduce", "recursion-fiberlinear", "verify-symplectic",
    "verify-bivector", "schouten-equation", "verify-equivalence"})

# task kind -> the fields it reads, each mapped to the namespace whose entry
# it names, to a list of namespaces for a list of that many names, or to None
# when the field is only required
_TASK_FIELDS = {
    "verify-symmetry": {"exprs": None},
    "verify-cosymmetry": {"exprs": None},
    "conservation-laws": {"sections": None},
    "reduce": {"expr": None},
    "verify-flat": {"covering": "covering"},
    "verify-finite-symmetry": {"covering": "covering", "map": None},
    "verify-shadow": {"covering": "covering", "exprs": None},
    "pseudo-apply": {"op": "pseudo-operator", "exprs": None},
    "verify-hamiltonian": {"op": "operator"},
    "compatible": {"ops": ["operator", "operator"]},
    "magri": {"A": "operator", "B": "operator", "seed": None, "steps": None},
    "verify-symplectic": {"op": None},
    "verify-bivector": {"op": None},
    "schouten-equation": {"ops": None},
    "verify-equivalence": {"witness": None},
}


def _parse_leading(text: str, space: JetSpace):
    """(dependent index, multi-index) of a leading jet written as one bare
    jet token such as ``u[0,1]``."""
    e = parse(text, space)
    keys = e.jet_keys()
    if len(keys) != 1 or e != space.jet(keys[0][1], keys[0][2]):
        raise ExprSyntaxError(f"leading {text!r} is not a single jet", 0)
    _, j, K = keys[0]
    return (j, K)


def _load_operator(data: dict, space: JetSpace) -> CDiffOp:
    return CDiffOp.from_json(space, data["rows"], data["cols"], data["entries"])


def _load_pseudo(data: dict, space: JetSpace) -> PseudoOp:
    return PseudoOp.from_json(space, data["rows"], data["cols"],
                              {"local": data["local"], "tail": data.get("tail", [])})


class Problem:
    """A validated problem file with its constructed objects."""

    def __init__(self, data: dict, max_prolong: int = 4):
        jsonschema.validate(data, PROBLEM_SCHEMA)
        self.data = data
        sp = data.get("space") or data  # spec fragment keeps space fields flat
        self.space = JetSpace.create(sp["independent"], sp["dependent"],
                                     sp.get("parameters", ()))
        self.presentation = None
        if data.get("equations"):
            comps = [parse(eq["expr"], self.space) for eq in data["equations"]]
            leads = [_parse_leading(eq["leading"], self.space)
                     for eq in data["equations"]]
            self.presentation = make_presentation(
                self.space, comps, leads,
                declared_normal=data.get("normal", True),
                check_order=max_prolong)
        self.coverings = {}
        named = dict(data.get("coverings", {}))
        if "covering" in data:  # single-covering spec fragment
            named.setdefault("covering", data["covering"])
        if self.presentation is None:
            users = sorted({t["kind"] for t in data["tasks"] if t["kind"] in _ON_EQUATION})
            if named:
                users.insert(0, "coverings")
            if users:
                raise ProblemError(f"no equations given, but {', '.join(users)} "
                                   "work on one")
        # lists, so that an unhashable name is unknown rather than a TypeError
        namespaces = {
            "covering": list(named),
            "operator": list((data.get("hamiltonian") or {}).get("operators", {})),
            "pseudo-operator": list(data.get("pseudo_operators", {})),
        }
        for task in data["tasks"]:
            kind = task["kind"]
            for field, namespace in _TASK_FIELDS.get(kind, {}).items():
                if field not in task:
                    raise ProblemError(f"task {kind!r} needs {field!r}")
                if namespace is None:
                    continue
                value = task[field]
                if isinstance(namespace, str):
                    namespace, value = [namespace], [value]
                elif not isinstance(value, list) or len(value) != len(namespace):
                    raise ProblemError(f"task {kind!r} needs {len(namespace)} "
                                       f"names in {field!r}")
                for ns, name in zip(namespace, value):
                    if name not in namespaces[ns]:
                        raise ProblemError(f"task {kind!r} names unknown {ns} {name!r}")
        for name, cdata in sorted(named.items()):
            names = [w["name"] for w in cdata["nonlocal"]]
            odd = [w["name"] for w in cdata["nonlocal"] if w.get("odd")]
            ext = self.space.extended(nonlocals=names, odd=odd)
            X = {}
            for i, iname in enumerate(self.space.independent):
                fields = cdata["X"].get(iname, ["0"] * len(names))
                X[i] = [parse(f, ext) for f in fields]
            self.coverings[name] = make_covering(self.presentation, names, X,
                                                 odd=odd)
        self.ham_space = None
        self.ham_ops = {}
        ham = data.get("hamiltonian")
        if ham:
            hs = ham["space"]
            self.ham_space = JetSpace.create(hs["independent"], hs["dependent"],
                                             hs.get("parameters", ()))
            for name, op in sorted(ham.get("operators", {}).items()):
                self.ham_ops[name] = _load_operator(op, self.ham_space)
        self.pseudo_ops = {}
        for name, op in sorted(data.get("pseudo_operators", {}).items()):
            self.pseudo_ops[name] = _load_pseudo(op, self.space)


def _task_ansatz(task: dict) -> Ansatz:
    # the schema requires both bounds on the solver kinds (verify-symplectic
    # defaults to 2/1) and admits integral floats such as 2.0 as integers
    return Ansatz(int(task.get("order", 2)), int(task.get("degree", 1)),
                  tuple(task["whitelist"]) if task.get("whitelist") else None)


def _status(ok: bool) -> str:
    return "ok" if ok else "fail"


def run_task(problem: Problem, task: dict) -> dict:
    kind = task["kind"]
    pres = problem.presentation
    space = problem.space
    out = {"task": kind}

    if kind == "symmetries" or kind == "cosymmetries":
        solver = solve_symmetries if kind == "symmetries" else solve_cosymmetries
        basis = solver(pres, _task_ansatz(task))
        out["basis"] = [[render(x) for x in vec] for vec in basis]
        out["dimension"] = len(basis)
        out["status"] = "ok"
    elif kind == "verify-symmetry" or kind == "verify-cosymmetry":
        vec = [parse(e, space) for e in task["exprs"]]
        fn = verify_symmetry if kind == "verify-symmetry" else verify_cosymmetry
        ok, residual = fn(vec, pres)
        out["residuals"] = [render(r) for r in residual]
        out["status"] = _status(ok)
    elif kind == "conservation-laws":
        currents = []
        for text in task["sections"]:
            psi = [parse(text, space)]
            cur = conservation_law_from_cosymmetry(psi, pres)
            labels = {}
            for idxs, comp in sorted(cur.form.comps.items()):
                label = "d" + "^d".join(space.independent[i] for i in idxs)
                labels[label] = render(comp)
            currents.append(labels)
        out["currents"] = currents
        out["status"] = "ok"
    elif kind == "reduce":
        red = pres.reduce(parse(task["expr"], space))
        out["normal_form"] = render(red.normal_form)
        out["cofactor"] = red.cofactor.to_json()
        out["status"] = "ok" if red.check(pres) else "fail"
    elif kind == "verify-flat":
        rep = verify_flat(problem.coverings[task["covering"]])
        out["residuals"] = {str(k): v for k, v in rep["residuals"].items()}
        out["status"] = _status(rep["ok"])
    elif kind == "verify-finite-symmetry":
        cov = problem.coverings[task["covering"]]
        images = {nm: parse(txt, cov.space) for nm, txt in sorted(task["map"].items())}
        rep = verify_finite_symmetry(cov, images)
        out["residuals"] = rep["residuals"]
        out["status"] = _status(rep["ok"])
    elif kind == "verify-shadow":
        cov = problem.coverings[task["covering"]]
        ok, residual = verify_shadow([parse(e, cov.space) for e in task["exprs"]], cov)
        out["residuals"] = [render(r) for r in residual]
        out["status"] = _status(ok)
    elif kind == "recursion-fiberlinear":
        cov = tangent_covering(pres)
        for layer in task.get("layers", ()):
            fields = {i: parse(layer["X"][nm], cov.space)
                      for i, nm in enumerate(space.independent)}
            cov = add_abelian_layer(cov, layer["name"], fields)
        basis = solve_fiberlinear(cov, _task_ansatz(task))
        out["basis"] = [[render(x) for x in vec] for vec in basis]
        out["dimension"] = len(basis)
        out["status"] = "ok"
    elif kind == "pseudo-apply":
        op = problem.pseudo_ops[task["op"]]
        vec = [parse(e, space) for e in task["exprs"]]
        try:
            image = op.apply(vec, pres)
            out["image"] = [render(x) for x in image]
            out["status"] = "ok"
        except NonlocalObstruction as exc:
            out["status"] = "obstruction"
            out["detail"] = str(exc)
    elif kind == "verify-hamiltonian":
        op = problem.ham_ops[task["op"]]
        out["status"] = _status(is_hamiltonian(op))
    elif kind == "compatible":
        a, b = (problem.ham_ops[nm] for nm in task["ops"])
        out["status"] = _status(are_compatible(a, b))
    elif kind == "magri":
        A = problem.ham_ops[task["A"]]
        B = problem.ham_ops[task["B"]]
        seed = parse(task["seed"], problem.ham_space)
        densities, flows = magri_chain(A, B, seed, task["steps"])
        out["densities"] = [render(d) for d in densities]
        out["flows"] = [[render(x) for x in f] for f in flows]
        involution = True
        for i in range(len(densities)):
            for j in range(len(densities)):
                for op in (A, B):
                    _, trivial = poisson_bracket(densities[i], densities[j], op)
                    involution = involution and trivial
        out["involution"] = involution
        out["status"] = _status(involution)
    elif kind == "verify-symplectic":
        op = _load_operator(task["op"], space)
        rep = verify_symplectic(op, pres, ansatz=_task_ansatz(task))
        out["membership"] = rep["membership"]
        out["closed"] = rep["closed"]
        if not rep["membership"]:
            out["residual"] = rep["membership_residual"]
        out["status"] = _status(rep["ok"])
    elif kind == "verify-bivector":
        op = _load_operator(task["op"], space)
        rep = verify_bivector_on_equation(op, pres)
        out["residual"] = rep["residual"]
        out["status"] = _status(rep["ok"])
    elif kind == "schouten-equation":
        d1, d2 = (_load_operator(o, space) for o in task["ops"])
        rep = schouten_on_equation(d1, d2, pres)
        out["trivial"] = rep.get("trivial")
        out["residual"] = rep.get("residual")
        out["status"] = _status(bool(rep["ok"] and rep.get("trivial")))
    elif kind == "verify-equivalence":
        w = task["witness"]
        comps = [parse(e, space) for e in w["components"]]
        witness = EquivalenceWitness(
            alpha=_load_operator(w["alpha"], space),
            beta=_load_operator(w["beta"], space),
            alpha_p=_load_operator(w["alpha_p"], space),
            beta_p=_load_operator(w["beta_p"], space),
            s1=_load_operator(w["s1"], space),
            s2=_load_operator(w["s2"], space))
        rep = verify_equivalence(pres, comps, w["m1"], witness)
        out["identities"] = {k: v["ok"] for k, v in rep.items() if k != "ok"}
        out["status"] = _status(rep["ok"])
    else:
        raise JetCalcError(f"unknown task kind {kind!r}")
    return out


def run_problem(data: dict, max_prolong: int = 4, timings: list = None) -> dict:
    """Execute all tasks.  Wall-clock timings go to the optional `timings`
    list (human report only) so the machine report stays byte-deterministic."""
    import time

    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()
    problem = Problem(data, max_prolong)
    results = []
    for task in data["tasks"]:
        t0 = time.perf_counter()
        try:
            results.append(run_task(problem, task))
        except NonlocalObstruction as exc:
            results.append({"task": task["kind"], "status": "obstruction",
                            "detail": str(exc)})
        except JetCalcError as exc:
            results.append({"task": task["kind"], "status": "error",
                            "detail": str(exc)})
        if timings is not None:
            timings.append(time.perf_counter() - t0)
    status = "ok" if all(r["status"] == "ok" for r in results) else "fail"
    return {
        "engine": "jetcalc",
        "version": __version__,
        "input_digest": digest,
        "name": data.get("name", ""),
        "tasks": results,
        "status": status,
    }


def _print_human(report: dict, timings=None, file=None):
    file = file or sys.stdout
    print(f"jetcalc {report['version']}  problem={report['name'] or '<unnamed>'}"
          f"  digest={report['input_digest'][:12]}", file=file)
    for k, r in enumerate(report["tasks"]):
        extra = ""
        if "dimension" in r:
            extra = f"  dim={r['dimension']}: " + \
                "; ".join(", ".join(vec) for vec in r["basis"])
        elif "densities" in r:
            extra = "  densities: " + "; ".join(r["densities"])
        elif "image" in r:
            extra = "  image: " + "; ".join(r["image"])
        elif "currents" in r:
            extra = "  " + "; ".join(str(c) for c in r["currents"])
        elif r["status"] != "ok" and "detail" in r:
            extra = "  " + r["detail"]
        stamp = f" ({timings[k]:.2f}s)" if timings else ""
        print(f"  [{r['status']:11s}] {r['task']}{stamp}{extra}", file=file)
    print(f"overall: {report['status']}", file=file)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="jetcalc",
                                 description="symbolic jet-space calculus")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a problem file")
    runp.add_argument("file")
    runp.add_argument("--json", action="store_true", dest="as_json")
    runp.add_argument("--max-prolong", type=int, default=4)
    corp = sub.add_parser("corpus", help="run or emit a bundled problem")
    corp.add_argument("name")
    corp.add_argument("--emit", action="store_true")
    corp.add_argument("--json", action="store_true", dest="as_json")
    corp.add_argument("--max-prolong", type=int, default=4)
    args = ap.parse_args(argv)

    from .corpus import corpus

    try:
        if args.command == "run":
            with open(args.file) as fh:
                data = json.load(fh)
        else:
            data = corpus(args.name)
            if args.emit:
                print(json.dumps(data, indent=2, sort_keys=True))
                return 0
    except (OSError, json.JSONDecodeError, JetCalcError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    timings = []
    try:
        report = run_problem(data, args.max_prolong, timings)
    except (jsonschema.ValidationError, JetCalcError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_human(report, timings)
    return 0 if report["status"] == "ok" else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
