"""Batch front end: parse problem files, dispatch tasks, emit deterministic
reports.  Exit codes: 0 all tasks ok, 1 any fail/obstruction or closed stdout, 2 input error.
One walk over a problem (`_errors`) accepts it, or lists its errors for `_reject` to word."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import cache

from . import __version__
from .algebra import JetSpace, euler_is_zero, parse, render
from .analysis import (
    SYMPLECTIC_ANSATZ,
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
from .corpus import corpus
from .errors import ExprSyntaxError, JetCalcError, NonlocalObstruction, ProblemError, ShapeError
from .hamiltonian import (
    gradients_compatible,
    magri_hierarchy,
    momentum_gradient,
    schouten_on_equation,
    verify_bivector_on_equation,
)
from .operators import CDiffOp, PseudoOp, pairing_density
from .presentations import CHECK_ORDER, EquivalenceWitness, make_presentation, verify_equivalence


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

# each entry of a term's D: on kdv6 a bivector's D_t^10 term takes 0.9 s to verify, D_t^12 5.2 s
MAX_D = 10
# the objects `Problem` and the handlers read by key
_ENTRIES = _array(_object({"row": _NAT, "col": _NAT, "terms": _array(
    _object({"D": _array(dict(_NAT, maximum=MAX_D)), "coef": _TEXT}))}))
MAX_SHAPE = 100  # rows, cols, m1: 10^6 columns take 2 s, an m1 of 10^8 1.4 GB; bundled <= 3
_SHAPE = dict(_NAT, maximum=MAX_SHAPE)
_OPERATOR = _object({"rows": _SHAPE, "cols": _SHAPE, "entries": _ENTRIES})
_PSEUDO_OPERATOR = _object({
    "rows": _SHAPE, "cols": _SHAPE, "local": _ENTRIES,
    "tail": _array(_object({"a": {"anyOf": [_TEXT, _EXPRS]}, "b": _ENTRIES}))},
    optional=("tail",))
_COVERING = _object({
    "nonlocal": _array(_object({"name": _TEXT, "odd": {"type": "boolean"}},
                               optional=("odd",))),
    "X": _mapping(_EXPRS)})
_HAMILTONIAN = _object({"space": _SPACE_SCHEMA, "operators": _mapping(_OPERATOR)},
                       optional=("operators",))
_WITNESS_OPERATORS = ("alpha", "beta", "alpha_p", "beta_p", "s1", "s2")
_WITNESS = _object({"components": _EXPRS, "m1": _SHAPE,
                    **dict.fromkeys(_WITNESS_OPERATORS, _OPERATOR)})


def _parse_leading(text: str, space: JetSpace):
    """(dependent index, multi-index) of a leading jet written as one bare
    jet token such as ``u[0,1]``."""
    e = parse(text, space)
    keys = e.jet_keys()
    if len(keys) != 1 or e != space.jet(keys[0][1], keys[0][2]):
        raise ExprSyntaxError(f"leading {text!r} is not a single jet", 0)
    return keys[0][1:]


def _space(sp: dict) -> JetSpace:
    return JetSpace.create(sp["independent"], sp["dependent"], sp.get("parameters", ()))


def _along(fields: dict, space: JetSpace, where: str, absent) -> dict:
    """{i: the field along x^i, or `absent`}; a ProblemError for any other key."""
    for key in fields:
        if key not in space.independent:
            raise ProblemError(f"{where} has a field along {key!r}, not an independent variable")
    return {i: fields.get(x, absent) for i, x in enumerate(space.independent)}


def _load_operator(data: dict, space: JetSpace) -> CDiffOp:
    try:
        return CDiffOp.from_json(space, int(data["rows"]), int(data["cols"]), data["entries"])
    except ShapeError as exc:  # an input error, also inline in a task
        raise ProblemError(str(exc)) from None


def _task_ansatz(task: dict) -> Ansatz:
    return Ansatz(int(task["order"]), int(task["degree"]), tuple(task["whitelist"]) or None)


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
    if bad := [k for k in task["map"] if k not in cov.space.dependent + cov.space.nonlocals]:
        raise ProblemError(f"map key {bad[0]!r} is neither a dependent nor a nonlocal "
                           f"of covering {task['covering']!r}")
    images = {nm: parse(txt, cov.space) for nm, txt in sorted(task["map"].items())}
    return _report(verify_finite_symmetry(cov, images), "residuals")


def _verify_shadow(problem, task):
    cov = problem.coverings[task["covering"]]
    return _residuals(*verify_shadow([parse(e, cov.space) for e in task["exprs"]], cov))


def _recursion_fiberlinear(problem, task):
    cov = tangent_covering(problem.presentation)
    for layer in task["layers"]:
        fields = _along(layer["X"], problem.space, f"layer {layer['name']!r}", "0")
        cov = add_abelian_layer(cov, layer["name"],
                                {i: parse(f, cov.space) for i, f in fields.items()})
    return _basis(solve_fiberlinear(cov, _task_ansatz(task)))


def _pseudo_apply(problem, task):
    # a NonlocalObstruction is reported by run_problem
    image = problem.pseudo_ops[task["op"]].apply(
        [parse(e, problem.space) for e in task["exprs"]], problem.presentation)
    return {"image": [render(x) for x in image], "status": "ok"}


def _magri(problem, task):
    A, B = problem.ham_ops[task["A"]], problem.ham_ops[task["B"]]
    densities, grads, flows = magri_hierarchy(A, B, parse(task["seed"], problem.ham_space),
                                              int(task["steps"]))
    # <X psi_i, psi_j>, X = A, B: all n^2, or j > i for a square skew X (the sum with j, i
    # is exact); an operator that is not square has no momentum gradient
    n, pairs = len(grads), ((A, flows, task["A"]), (B, map(B.apply, grads), task["B"]))
    involution = all(euler_is_zero(pairing_density(image, grads[j]))
                     for X, images, name in pairs
                     for skew in [X.rows == X.cols == X.space.m and problem.gradient(name)[1]]
                     for i, image in zip(range(n - skew), images)
                     for j in range(i + 1 if skew else 0, n))
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
# long before its bounds do, and each magri step costs about 2.4 times the
# last; every bundled and tested problem is inside these
MAX_ORDER, MAX_DEGREE, MAX_PROLONG, MAX_STEPS = 8, 5, 12, 6
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
    "verify-hamiltonian": (False, lambda p, t: {"status": _status(gradients_compatible(
        *[p.gradient(t["op"])] * 2))}, {"op": "operator"}),
    "compatible": (False, lambda p, t: {"status": _status(gradients_compatible(
        *map(p.gradient, t["ops"])))}, {"ops": ["operator", "operator"]}),
    "magri": (False, _magri, {"A": "operator", "B": "operator", "seed": _TEXT,
                              "steps": dict(_NAT, maximum=MAX_STEPS)}),
    "verify-symplectic": (True, _verify_symplectic, {
        "op": _OPERATOR, "order": dict(_ORDER, default=SYMPLECTIC_ANSATZ.max_jet_order),
        "degree": dict(_DEGREE, default=SYMPLECTIC_ANSATZ.max_degree), "whitelist": _NAMES}),
    "verify-bivector": (True, lambda p, t: _report(verify_bivector_on_equation(
        _load_operator(t["op"], p.space), p.presentation), "residual"), {"op": _OPERATOR}),
    "schouten-equation": (True, _schouten_equation,
                          {"ops": _array(_OPERATOR, minItems=2, maxItems=2)}),
    "verify-equivalence": (True, _verify_equivalence, {"witness": _WITNESS}),
}

_TASK = _object({"kind": _TEXT})  # its other fields by its kind's row, in _ROWS
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
        "tasks": _array(_TASK),
    },
    "required": ["tasks"],
    "anyOf": [{"required": ["space"]}, {"required": ["independent", "dependent"]}],
}

# each kind's typed fields, and the values of those that have a default
_TYPED = {kind: {f: of for f, of in fields.items() if isinstance(of, dict)}
          for kind, (_, _, fields) in _TASKS.items()}
_DEFAULTS = {kind: {f: of["default"] for f, of in typed.items() if "default" in of}
             for kind, typed in _TYPED.items()}
# what the walk checks: PROBLEM_SCHEMA, and each task of a known kind against its row
_ROWS = dict(_TASK, kinds={kind: {"properties": typed} for kind, typed in _TYPED.items()})
_ACCEPT = dict(PROBLEM_SCHEMA, properties=dict(PROBLEM_SCHEMA["properties"], tasks=_array(_ROWS)))
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}
MAX_NESTING = 64  # levels of objects and arrays; the bundled problems have up to 10


def _errors(x, schema: dict, depth, path=()) -> list:
    """[] if `x`, at `path` in the problem, fits `schema` as JSON Schema Draft 2020-12 reads
    its keywords (a task its row in `kinds`), else each error as (path, message as the Python
    JSON Schema validator 4 words it, an `anyOf`'s branch errors or None).  Too deep a
    container is a ProblemError; depth None walks only what `schema` types, uncounted."""
    if depth is not None and (depth := depth + 1) > MAX_NESTING and isinstance(x, (dict, list)):
        raise ProblemError(f"problem nested deeper than {MAX_NESTING} levels")
    errors, of = [], schema.get("type")  # x's own errors in the schemas' keyword order
    if of and not (type(x) is int or type(x) is float and x.is_integer() if of == "integer"
                   else isinstance(x, _TYPES[of])):  # an integral float is an integer
        errors.append((path, f"{x!r} is not of type {of!r}", None))
    if isinstance(x, dict):
        if "kinds" in schema and isinstance(x.get("kind"), str):
            schema = schema["kinds"].get(x["kind"], schema)
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        for k in schema.get("required", ()):
            if k not in x:
                errors.append((path, f"{k!r} is a required property", None))
        if depth is not None or props or extra:  # else only x is checked
            for k, v in x.items():
                errors += _errors(v, props.get(k, extra), depth, (*path, k))
    elif isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            message = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            errors.append((path, f"{x!r} {message}", None))
        if len(x) > schema.get("maxItems", len(x)):
            errors.append((path, f"{x!r} is too long", None))
        if depth is not None or "items" in schema:
            for i, v in enumerate(x):
                errors += _errors(v, schema.get("items", {}), depth, (*path, i))
    elif type(x) is int or type(x) is float:  # bool is not a number
        low, high = schema.get("minimum", x), schema.get("maximum", x)
        if x < low:
            errors.append((path, f"{x!r} is less than the minimum of {low!r}", None))
        if x > high:
            errors.append((path, f"{x!r} is greater than the maximum of {high!r}", None))
    if "anyOf" in schema and all(branches := [_errors(x, s, None, path) for s in schema["anyOf"]]):
        errors.append((path, f"{x!r} is not valid under any of the given schemas",
                       [error for branch in branches for error in branch]))
    return errors


def _reject(x, schema: dict, path=()):
    """Raise the error of `x` at `path` that the validator's best_match picks, if any: the
    first of the highest rank, then from an `anyOf` its lowest branch error unless two tie."""
    def rank(error):  # the shallowest, the greatest path among siblings, an `anyOf` last
        return -len(error[0]), error[0], error[2] is None

    if errors := _errors(x, schema, None, path):
        path, message, context = max(errors, key=rank)
        while context and [*map(rank, context)].count(min(map(rank, context))) == 1:
            path, message, context = min(context, key=rank)
        raise ProblemError(f"{message} (at problem{''.join(f'[{p!r}]' for p in path)})")


class Problem:
    """A validated problem file with its constructed objects."""

    def __init__(self, data: dict, max_prolong: int = CHECK_ORDER):
        if rejected := bool(_errors(data, _ACCEPT, 0)):  # word its first error: the problem's,
            _reject(data, PROBLEM_SCHEMA)  # then, task by task, its row's
        if max_prolong < 0:  # would check fewer critical pairs, not fail
            raise ProblemError(f"--max-prolong must be at least 0, not {max_prolong}")
        if max_prolong > MAX_PROLONG:  # the critical pairs grow as its n-th power
            raise ProblemError(f"--max-prolong must be at most {MAX_PROLONG}, not {max_prolong}")
        named = dict(data.get("coverings", {}))
        if "covering" in data:  # single-covering spec fragment
            named.setdefault("covering", data["covering"])
        # lists, so that an unhashable name is unknown rather than a TypeError
        namespaces = {"covering": list(named),
                      "operator": list((data.get("hamiltonian") or {}).get("operators", {})),
                      "pseudo-operator": list(data.get("pseudo_operators", {}))}
        known = [(i, task, task["kind"]) for i, task in enumerate(data["tasks"])
                 if task["kind"] in _TASKS]  # an unknown kind is reported by run_task
        for i, task, kind in known:
            if rejected:
                _reject(task, _ROWS, ("tasks", i))
            for field, of in _TASKS[kind][2].items():
                if field not in task and field not in _DEFAULTS[kind]:
                    raise ProblemError(f"task {kind!r} needs {field!r}")
                if field not in task or isinstance(of, dict):
                    continue  # optional and absent, or checked by the walk
                names = task[field]
                if isinstance(of, str):
                    of, names = [of], [names]
                elif not isinstance(names, list) or len(names) != len(of):
                    raise ProblemError(f"task {kind!r} needs {len(of)} names in {field!r}")
                for ns, name in zip(of, names):
                    if name not in namespaces[ns]:
                        raise ProblemError(f"task {kind!r} names unknown {ns} {name!r}")
        users = (["coverings"] if named else []) + sorted({k for _, _, k in known if _TASKS[k][0]})
        if users and not data.get("equations"):
            raise ProblemError(f"no equations given, but {', '.join(users)} work on one")
        self.space = _space(data.get("space") or data)  # a spec fragment keeps it flat
        self.presentation = None
        if data.get("equations"):
            comps = [parse(eq["expr"], self.space) for eq in data["equations"]]
            leads = [_parse_leading(eq["leading"], self.space) for eq in data["equations"]]
            self.presentation = make_presentation(self.space, comps, leads,
                                                  check_order=max_prolong)
        self.coverings = {}
        for name, cdata in sorted(named.items()):
            names = [w["name"] for w in cdata["nonlocal"]]
            odd = [w["name"] for w in cdata["nonlocal"] if w.get("odd")]
            ext = self.space.extended(nonlocals=names, odd=odd)
            along = _along(cdata["X"], self.space, f"covering {name!r}", ["0"] * len(names))
            X = {i: [parse(f, ext) for f in fs] for i, fs in along.items()}
            self.coverings[name] = make_covering(self.presentation, names, X, odd=odd)
        ham = data.get("hamiltonian") or {}  # with a space if given at all
        self.ham_space = _space(ham["space"]) if ham else None
        self.ham_ops = {name: _load_operator(op, self.ham_space)
                        for name, op in sorted(ham.get("operators", {}).items())}
        self._gradients = {}
        self.pseudo_ops = {
            name: PseudoOp.from_json(self.space, int(op["rows"]), int(op["cols"]), op)
            for name, op in sorted(data.get("pseudo_operators", {}).items())}

    def gradient(self, name):  # momentum_gradient of the named operator, once per problem
        got = self._gradients  # a (gradient, skew) pair is never falsy
        return got.get(name) or got.setdefault(name, momentum_gradient(self.ham_ops[name]))


def run_task(problem: Problem, task: dict) -> dict:
    kind = task["kind"]
    if kind not in _TASKS:
        raise JetCalcError(f"unknown task kind {kind!r}")
    return {"task": kind, **_TASKS[kind][1](problem, {**_DEFAULTS[kind], **task})}


MAX_MESSAGE = 400  # UTF-8 bytes of an input-error message, beyond which its middle is cut


def run_problem(data: dict, max_prolong: int = CHECK_ORDER, timings: list = None) -> dict:
    """Execute all tasks.  Wall-clock timings go to the optional `timings`
    list (human report only) so the machine report stays byte-deterministic."""
    problem = Problem(data, max_prolong)
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()
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
    return {"engine": "jetcalc", "version": __version__, "input_digest": digest,
            "name": data.get("name", ""), "tasks": results,
            "status": "ok" if all(r["status"] == "ok" for r in results) else "fail"}


def _print_human(report: dict, timings=None):
    print(f"jetcalc {report['version']}  problem={report['name'] or '<unnamed>'}"
          f"  digest={report['input_digest'][:12]}")
    for k, r in enumerate(report["tasks"]):
        extra = ""
        if "dimension" in r:
            extra = f"  dim={r['dimension']}: " + "; ".join(", ".join(vec) for vec in r["basis"])
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


def _output(write, code: int) -> int:
    """write() and flush stdout: exit `code`, or 1 if the reader has gone
    (stdout then goes to os.devnull, so the flush at shutdown is silent)."""
    try:
        write()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call, not at import or per call."""
    ap = argparse.ArgumentParser(prog="jetcalc", description="symbolic jet-space calculus")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a problem file")
    runp.add_argument("file")
    corp = sub.add_parser("corpus", help="run or emit a bundled problem")
    corp.add_argument("name")
    corp.add_argument("--emit", action="store_true")
    for parser in (runp, corp):
        parser.add_argument("--json", action="store_true", dest="as_json")
        parser.add_argument("--max-prolong", type=int, default=CHECK_ORDER)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    timings = []
    try:
        if args.command == "run":
            try:
                with open(args.file, encoding="utf-8") as fh:
                    data = json.load(fh)
            except RecursionError:  # json.load recurses once per nesting level
                raise ProblemError("problem file is nested too deeply") from None
            except ValueError as exc:  # not JSON or not UTF-8, or an int beyond 4,300 digits
                raise ProblemError(str(exc)) from None
        else:
            data = corpus(args.name)
            if args.emit:
                return _output(lambda: print(json.dumps(data, indent=2, sort_keys=True)), 0)
        report = run_problem(data, args.max_prolong, timings)
    except (OSError, JetCalcError) as exc:
        message, half = str(exc), MAX_MESSAGE // 2
        if len(raw := message.encode()) > MAX_MESSAGE:  # keep its head and where it is
            message = " ... ".join(p.decode(errors="ignore") for p in (raw[:half], raw[-half:]))
        print(f"input error: {message}", file=sys.stderr)
        return 2
    return _output(lambda: print(json.dumps(report, sort_keys=True, indent=2))
                   if args.as_json else _print_human(report, timings),
                   0 if report["status"] == "ok" else 1)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
