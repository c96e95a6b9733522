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
from .errors import (
    ExprSyntaxError,
    JetCalcError,
    NonlocalObstruction,
    ProblemError,
    ShapeError,
)
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


def _object(properties: dict, optional=()) -> dict:
    """Schema of an object whose properties are required unless `optional`."""
    return {"type": "object", "properties": properties,
            "required": [k for k in properties if k not in optional]}


def _array(items: dict, **bounds) -> dict:
    return {"type": "array", "items": items, **bounds}


def _mapping(values: dict) -> dict:
    return {"type": "object", "additionalProperties": values}


_NAT = {"type": "integer", "minimum": 0}  # admits integral floats such as 2.0
_TEXT = {"type": "string"}  # a name or an expression
_EXPRS = _array(_TEXT)
_SPACE_SCHEMA = _object({"independent": _array(_TEXT, minItems=1),
                         "dependent": _array(_TEXT, minItems=1),
                         "parameters": _array(_TEXT)}, optional=("parameters",))

# the objects `Problem` and the handlers read by key
_ENTRIES = _array(_object({"row": _NAT, "col": _NAT, "terms": _array(
    _object({"D": _array(_NAT), "coef": _TEXT}))}))
_OPERATOR = _object({"rows": _NAT, "cols": _NAT, "entries": _ENTRIES})
_PSEUDO_OPERATOR = _object({
    "rows": _NAT, "cols": _NAT, "local": _ENTRIES,
    "tail": _array(_object({"a": {"anyOf": [_TEXT, _EXPRS]}, "b": _ENTRIES}))},
    optional=("tail",))
_COVERING = _object({
    "nonlocal": _array(_object({"name": _TEXT, "odd": {"type": "boolean"}},
                               optional=("odd",))),
    "X": _mapping(_EXPRS)})
_HAMILTONIAN = _object({"space": _SPACE_SCHEMA, "operators": _mapping(_OPERATOR)},
                       optional=("operators",))
_WITNESS_OPERATORS = ("alpha", "beta", "alpha_p", "beta_p", "s1", "s2")
_WITNESS = _object({"components": _EXPRS, "m1": _NAT,
                    **dict.fromkeys(_WITNESS_OPERATORS, _OPERATOR)})


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
    try:
        return CDiffOp.from_json(space, int(data["rows"]), int(data["cols"]),
                                 data["entries"])
    except ShapeError as exc:  # an input error, also inline in a task
        raise ProblemError(str(exc)) from None


def _task_ansatz(task: dict) -> Ansatz:
    return Ansatz(int(task["order"]), int(task["degree"]),
                  tuple(task["whitelist"]) or None)


def _status(ok: bool) -> str:
    return "ok" if ok else "fail"


def _basis(basis) -> dict:
    return {"basis": [[render(x) for x in vec] for vec in basis],
            "dimension": len(basis), "status": "ok"}


def _residuals(ok: bool, residual) -> dict:
    return {"residuals": [render(r) for r in residual], "status": _status(ok)}


# Task handlers: (problem, task with its defaults) -> result fields.  Engine
# functions that bench/tracer.py wraps are looked up by name at call time.
def _solver(solve):
    return lambda p, t: _basis(solve(p.presentation, _task_ansatz(t)))


def _verifier(verify):
    return lambda p, t: _residuals(*verify([parse(e, p.space) for e in t["exprs"]],
                                           p.presentation))


def _report(rep: dict, *keys) -> dict:
    return dict({k: rep.get(k) for k in keys}, status=_status(rep["ok"]))


def _conservation_laws(problem, task):
    space = problem.space
    currents = []
    for text in task["sections"]:
        cur = conservation_law_from_cosymmetry([parse(text, space)], problem.presentation)
        currents.append({"d" + "^d".join(space.independent[i] for i in idxs): comp
                         for idxs, comp in cur.components().items()})
    return {"currents": currents, "status": "ok"}


def _reduce(problem, task):
    red = problem.presentation.reduce(parse(task["expr"], problem.space))
    return {"normal_form": render(red.normal_form), "cofactor": red.cofactor.to_json(),
            "status": _status(red.check(problem.presentation))}


def _verify_flat(problem, task):
    rep = verify_flat(problem.coverings[task["covering"]])
    return dict(_report(rep), residuals={str(k): v for k, v in rep["residuals"].items()})


def _verify_finite_symmetry(problem, task):
    cov = problem.coverings[task["covering"]]
    images = {nm: parse(txt, cov.space) for nm, txt in sorted(task["map"].items())}
    return _report(verify_finite_symmetry(cov, images), "residuals")


def _verify_shadow(problem, task):
    cov = problem.coverings[task["covering"]]
    return _residuals(*verify_shadow([parse(e, cov.space) for e in task["exprs"]], cov))


def _recursion_fiberlinear(problem, task):
    cov = tangent_covering(problem.presentation)
    for layer in task["layers"]:
        fields = {i: parse(layer["X"].get(nm, "0"), cov.space)
                  for i, nm in enumerate(problem.space.independent)}
        cov = add_abelian_layer(cov, layer["name"], fields)
    return _basis(solve_fiberlinear(cov, _task_ansatz(task)))


def _pseudo_apply(problem, task):
    # a NonlocalObstruction is reported by run_problem
    image = problem.pseudo_ops[task["op"]].apply(
        [parse(e, problem.space) for e in task["exprs"]], problem.presentation)
    return {"image": [render(x) for x in image], "status": "ok"}


def _magri(problem, task):
    A, B = problem.ham_ops[task["A"]], problem.ham_ops[task["B"]]
    densities, flows = magri_chain(A, B, parse(task["seed"], problem.ham_space),
                                   int(task["steps"]))
    involution = all(poisson_bracket(f, g, op)[1]
                     for f in densities for g in densities for op in (A, B))
    return {"densities": [render(d) for d in densities],
            "flows": [[render(x) for x in f] for f in flows],
            "involution": involution, "status": _status(involution)}


def _verify_symplectic(problem, task):
    rep = verify_symplectic(_load_operator(task["op"], problem.space),
                            problem.presentation, ansatz=_task_ansatz(task))
    out = _report(rep, "membership", "closed")
    if not rep["membership"]:
        out["residual"] = rep["membership_residual"]
    return out


def _schouten_equation(problem, task):
    d1, d2 = (_load_operator(o, problem.space) for o in task["ops"])
    rep = schouten_on_equation(d1, d2, problem.presentation)
    return dict(_report(rep, "trivial", "residual"),
                status=_status(bool(rep["ok"] and rep.get("trivial"))))


def _verify_equivalence(problem, task):
    w = task["witness"]
    witness = EquivalenceWitness(**{k: _load_operator(w[k], problem.space)
                                    for k in _WITNESS_OPERATORS})
    comps = [parse(e, problem.space) for e in w["components"]]
    rep = verify_equivalence(problem.presentation, comps, int(w["m1"]), witness)
    return dict(_report(rep), identities={k: v["ok"] for k, v in rep.items() if k != "ok"})


_NAMES = dict(_EXPRS, default=[])
# an ansatz of degree-fold products of the jets up to order outgrows memory
# long before its bounds do; every bundled and tested problem is inside these
MAX_ORDER, MAX_DEGREE, MAX_PROLONG = 8, 5, 12
_ORDER, _DEGREE = dict(_NAT, maximum=MAX_ORDER), dict(_NAT, maximum=MAX_DEGREE)
_ANSATZ = {"order": _ORDER, "degree": _DEGREE, "whitelist": _NAMES}
_LAYERS = dict(_array(_object({"name": _TEXT, "X": _mapping(_TEXT)})), default=[])

# task kind -> (whether it works on the problem's equation, its handler, its
# fields); each field maps to the namespace whose entry it names, to a list of
# namespaces for a list of that many names, or to a schema for its value
_TASKS = {
    "symmetries": (True, _solver(solve_symmetries), _ANSATZ),
    "cosymmetries": (True, _solver(solve_cosymmetries), _ANSATZ),
    "verify-symmetry": (True, _verifier(verify_symmetry), {"exprs": _EXPRS}),
    "verify-cosymmetry": (True, _verifier(verify_cosymmetry), {"exprs": _EXPRS}),
    "conservation-laws": (True, _conservation_laws, {"sections": _EXPRS}),
    "reduce": (True, _reduce, {"expr": _TEXT}),
    "verify-flat": (False, _verify_flat, {"covering": "covering"}),
    "verify-finite-symmetry": (False, _verify_finite_symmetry,
                               {"covering": "covering", "map": _mapping(_TEXT)}),
    "verify-shadow": (False, _verify_shadow, {"covering": "covering", "exprs": _EXPRS}),
    "recursion-fiberlinear": (True, _recursion_fiberlinear, dict(_ANSATZ, layers=_LAYERS)),
    "pseudo-apply": (False, _pseudo_apply, {"op": "pseudo-operator", "exprs": _EXPRS}),
    "verify-hamiltonian": (False, lambda p, t: {"status": _status(is_hamiltonian(
        p.ham_ops[t["op"]]))}, {"op": "operator"}),
    "compatible": (False, lambda p, t: {"status": _status(are_compatible(
        *(p.ham_ops[nm] for nm in t["ops"])))}, {"ops": ["operator", "operator"]}),
    "magri": (False, _magri, {"A": "operator", "B": "operator", "seed": _TEXT,
                              "steps": _NAT}),
    "verify-symplectic": (True, _verify_symplectic, {
        "op": _OPERATOR, "order": dict(_ORDER, default=2),
        "degree": dict(_DEGREE, default=1), "whitelist": _NAMES}),
    "verify-bivector": (True, lambda p, t: _report(verify_bivector_on_equation(
        _load_operator(t["op"], p.space), p.presentation), "residual"), {"op": _OPERATOR}),
    "schouten-equation": (True, _schouten_equation,
                          {"ops": _array(_OPERATOR, minItems=2, maxItems=2)}),
    "verify-equivalence": (True, _verify_equivalence, {"witness": _WITNESS}),
}

PROBLEM_SCHEMA = {
    "type": "object",
    "properties": {
        "name": _TEXT,
        "space": _SPACE_SCHEMA,
        "independent": _array(_TEXT),
        "dependent": _array(_TEXT),
        "parameters": _array(_TEXT),
        "equations": _array(_object({"expr": _TEXT, "leading": _TEXT})),
        "normal": {"type": "boolean"},
        "covering": _COVERING,
        "coverings": _mapping(_COVERING),
        "hamiltonian": _HAMILTONIAN,
        "pseudo_operators": _mapping(_PSEUDO_OPERATOR),
        # each task's fields are checked by Problem, against its kind's row
        "tasks": _array(_object({"kind": _TEXT})),
    },
    "required": ["tasks"],
    "anyOf": [{"required": ["space"]}, {"required": ["independent", "dependent"]}],
}

# built once: jsonschema.validate would check the schema itself on every call
_VALIDATOR = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
# each kind's typed fields, and the values of those that have a default
_TYPED = {kind: {f: of for f, of in fields.items() if isinstance(of, dict)}
          for kind, (_, _, fields) in _TASKS.items()}
_CHECKS = {kind: (jsonschema.Draft202012Validator({"properties": typed}),
                  {f: of["default"] for f, of in typed.items() if "default" in of})
           for kind, typed in _TYPED.items()}


class Problem:
    """A validated problem file with its constructed objects."""

    def __init__(self, data: dict, max_prolong: int = 4):
        error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
        if error is not None:
            raise error
        if max_prolong < 0:  # would check fewer critical pairs, not fail
            raise ProblemError(f"--max-prolong must be at least 0, not {max_prolong}")
        if max_prolong > MAX_PROLONG:  # the critical pairs grow as its n-th power
            raise ProblemError(f"--max-prolong must be at most {MAX_PROLONG}, "
                               f"not {max_prolong}")
        named = dict(data.get("coverings", {}))
        if "covering" in data:  # single-covering spec fragment
            named.setdefault("covering", data["covering"])
        # lists, so that an unhashable name is unknown rather than a TypeError
        namespaces = {
            "covering": list(named),
            "operator": list((data.get("hamiltonian") or {}).get("operators", {})),
            "pseudo-operator": list(data.get("pseudo_operators", {})),
        }
        on_equation_kinds = set()
        for i, task in enumerate(data["tasks"]):
            kind = task["kind"]
            if kind not in _TASKS:
                continue  # reported by run_task
            on_equation, _, fields = _TASKS[kind]
            validator, defaults = _CHECKS[kind]
            error = jsonschema.exceptions.best_match(validator.iter_errors(task))
            if error is not None:
                error.path.extendleft((i, "tasks"))  # its path in the problem
                raise error
            if on_equation:
                on_equation_kinds.add(kind)
            for field, of in fields.items():
                if field not in task and field not in defaults:
                    raise ProblemError(f"task {kind!r} needs {field!r}")
                if field not in task or isinstance(of, dict):
                    continue  # optional and absent, or typed by the validator
                names = task[field]
                if isinstance(of, str):
                    of, names = [of], [names]
                elif not isinstance(names, list) or len(names) != len(of):
                    raise ProblemError(f"task {kind!r} needs {len(of)} names in {field!r}")
                for ns, name in zip(of, names):
                    if name not in namespaces[ns]:
                        raise ProblemError(f"task {kind!r} names unknown {ns} {name!r}")
        if not data.get("equations"):
            users = (["coverings"] if named else []) + sorted(on_equation_kinds)
            if users:
                raise ProblemError(f"no equations given, but {', '.join(users)} "
                                   "work on one")
        sp = data.get("space") or data  # spec fragment keeps space fields flat
        self.space = JetSpace.create(sp["independent"], sp["dependent"],
                                     sp.get("parameters", ()))
        self.presentation = None
        if data.get("equations"):
            comps = [parse(eq["expr"], self.space) for eq in data["equations"]]
            leads = [_parse_leading(eq["leading"], self.space)
                     for eq in data["equations"]]
            self.presentation = make_presentation(self.space, comps, leads,
                                                  check_order=max_prolong)
        self.coverings = {}
        for name, cdata in sorted(named.items()):
            names = [w["name"] for w in cdata["nonlocal"]]
            odd = [w["name"] for w in cdata["nonlocal"] if w.get("odd")]
            ext = self.space.extended(nonlocals=names, odd=odd)
            X = {i: [parse(f, ext) for f in cdata["X"].get(iname, ["0"] * len(names))]
                 for i, iname in enumerate(self.space.independent)}
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
            self.pseudo_ops[name] = PseudoOp.from_json(self.space, int(op["rows"]),
                                                       int(op["cols"]), op)


def run_task(problem: Problem, task: dict) -> dict:
    kind = task["kind"]
    if kind not in _TASKS:
        raise JetCalcError(f"unknown task kind {kind!r}")
    return {"task": kind, **_TASKS[kind][1](problem, {**_CHECKS[kind][1], **task})}


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
        except (ProblemError, ExprSyntaxError):
            raise  # malformed input met by a task: an inline operator, an expression
        except JetCalcError as exc:
            status = "obstruction" if isinstance(exc, NonlocalObstruction) else "error"
            results.append({"task": task["kind"], "status": status, "detail": str(exc)})
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


def _print_human(report: dict, timings=None):
    print(f"jetcalc {report['version']}  problem={report['name'] or '<unnamed>'}"
          f"  digest={report['input_digest'][:12]}")
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
        print(f"  [{r['status']:11s}] {r['task']}{stamp}{extra}")
    print(f"overall: {report['status']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="jetcalc",
                                 description="symbolic jet-space calculus")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a problem file")
    runp.add_argument("file")
    corp = sub.add_parser("corpus", help="run or emit a bundled problem")
    corp.add_argument("name")
    corp.add_argument("--emit", action="store_true")
    for parser in (runp, corp):
        parser.add_argument("--json", action="store_true", dest="as_json")
        parser.add_argument("--max-prolong", type=int, default=4)
    args = ap.parse_args(argv)

    from .corpus import corpus

    timings = []
    try:
        if args.command == "run":
            with open(args.file) as fh:
                data = json.load(fh)
        else:
            data = corpus(args.name)
            if args.emit:
                print(json.dumps(data, indent=2, sort_keys=True))
                return 0
        report = run_problem(data, args.max_prolong, timings)
    except (OSError, json.JSONDecodeError, jsonschema.ValidationError, JetCalcError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_human(report, timings)
    return 0 if report["status"] == "ok" else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
