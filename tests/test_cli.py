import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from jetcalc import Ansatz, algebra, make_presentation, operators, presentations, solve_cosymmetries
from jetcalc.algebra import _D, _J, JetSpace, parse, render
from jetcalc.analysis import MAX_MONOMIALS, conservation_law_from_cosymmetry
from jetcalc import cli
from jetcalc.cli import (
    _TASKS,
    MAX_D,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_ORDER,
    MAX_PROLONG,
    MAX_STEPS,
    PROBLEM_SCHEMA,
    Problem,
    _parser,
    main,
    run_problem,
    run_task,
)
from jetcalc.corpus import corpus, corpus_names
from jetcalc.errors import ProblemError
from jetcalc.operators import CDiffOp
from test_mutations import PROBLEM, ROWS, _refusal
import traffic

ROOT = Path(__file__).resolve().parents[1]

# every corpus report, as `jetcalc corpus <name> --json` prints it, in one
# process; written to stdout as a JSON object name -> [exit code, text]
_CORPUS_REPORTS = """
import contextlib, io, json, sys
from jetcalc.cli import main
from jetcalc.corpus import corpus_names
reports = {}
for name in corpus_names():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["corpus", name, "--json"])
    reports[name] = [code, out.getvalue()]
sys.stdout.write(json.dumps(reports))
"""


def test_corpus_names_complete():
    assert set(corpus_names()) == {
        "kdv", "kdv-3comp", "boussinesq", "heat", "burgers", "camassa-holm",
        "camassa-holm-2comp", "wdvv", "kdv6", "weingarten",
        "potential-kdv-we", "miura"}
    with pytest.raises(Exception):
        corpus("unknown")


def test_run_heat_corpus(capsys):
    rc = main(["corpus", "heat", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    kinds = [t["task"] for t in report["tasks"]]
    assert kinds == ["symmetries", "recursion-fiberlinear"]


def test_report_determinism():
    data = corpus("miura")
    a = json.dumps(run_problem(data), sort_keys=True)
    b = json.dumps(run_problem(data), sort_keys=True)
    assert a == b


def test_json_report_roundtrips():
    report = run_problem(corpus("weingarten"))
    assert json.loads(json.dumps(report)) == report
    assert report["input_digest"]
    assert report["version"]


def test_exit_codes(tmp_path, capsys):
    # schema violation -> 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"no": "space"}')
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()
    # unknown corpus -> 2
    assert main(["corpus", "nope"]) == 2
    capsys.readouterr()
    # failing verification -> 1
    broken = {
        "name": "broken",
        "space": {"independent": ["x", "t"], "dependent": ["u"]},
        "equations": [{"expr": "u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]",
                       "leading": "u[0,1]"}],
        "coverings": {"bad": {
            "nonlocal": [{"name": "w", "odd": False}],
            "X": {"x": ["u[0,0]"], "t": ["3*u[0,0]^2 + u[2,0] + w"]}}},
        "tasks": [{"kind": "verify-flat", "covering": "bad"}],
    }
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(broken))
    assert main(["run", str(f)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_emit_roundtrip(capsys, tmp_path):
    assert main(["corpus", "burgers", "--emit"]) == 0
    text = capsys.readouterr().out
    f = tmp_path / "burgers.json"
    f.write_text(text)
    assert main(["run", str(f)]) == 0
    capsys.readouterr()


def test_successive_calls_print_what_fresh_processes_print(tmp_path, capsys):
    """main builds its parser on the first call and reuses it: a `corpus`
    call and then a `run` call in one process each print, and exit with,
    what each prints in a process of its own."""
    f = tmp_path / "heat.json"
    f.write_text(json.dumps(corpus("heat")))
    argvs = [["corpus", "heat", "--json"], ["run", str(f), "--json"]]
    inside = []
    for argv in argvs:
        code = main(argv)
        inside.append((code, capsys.readouterr().out))
    assert _parser() is _parser()
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    fresh = [subprocess.run([sys.executable, "-m", "jetcalc.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=600)
             for argv in argvs]
    assert inside == [(p.returncode, p.stdout) for p in fresh]
    assert inside[0][0] == 0 and json.loads(inside[0][1])["status"] == "ok"


def test_human_and_json_agree(tmp_path, capsys):
    """Each task's line of the human report holds its status and what the
    JSON report gives of its basis, densities, image, currents or, for a
    task that did not succeed, detail: on every corpus problem, and on a
    reduce task that fails."""
    failing = tmp_path / "problem.json"
    failing.write_text(json.dumps(dict(corpus("kdv"), tasks=[{"kind": "reduce",
                                                              "expr": "u[0,1]^-1"}])))
    for argv in [*(["corpus", name] for name in corpus_names()), ["run", str(failing)]]:
        code = main([*argv, "--json"])
        asjson = json.loads(capsys.readouterr().out)
        assert main(argv) == code
        _, *lines, overall = capsys.readouterr().out.splitlines()
        assert overall == f"overall: {asjson['status']}" and len(lines) == len(asjson["tasks"])
        for task, line in zip(asjson["tasks"], lines):
            assert line.startswith(f"  [{task['status']:11s}] {task['task']} (")
            shown = [expr for vec in task.get("basis", ()) for expr in vec]
            shown += [*task.get("densities", ()), *task.get("image", ())]
            shown += [f"{k!r}: {v!r}" for c in task.get("currents", ()) for k, v in c.items()]
            if task["status"] != "ok" and "detail" in task:
                shown.append(task["detail"])
            assert all(part in line for part in shown), (argv, line)
    (line,) = lines  # of the failing reduce
    assert line.startswith("  [error      ] reduce (")
    assert line.endswith(")  reducible jet u[0,1] occurs with negative exponent")


def test_spec_fragment_layout():
    # flat space fields and a single unnamed covering are accepted
    frag = {
        "independent": ["x", "t"], "dependent": ["u"], "parameters": [],
        "equations": [{"expr": "u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]",
                       "leading": "u[0,1]"}],
        "normal": True,
        "covering": {"nonlocal": [{"name": "w", "odd": False}],
                     "X": {"x": ["u[0,0]"], "t": ["3*u[0,0]^2 + u[2,0]"]}},
        "tasks": [{"kind": "verify-flat", "covering": "covering"},
                  {"kind": "reduce", "expr": "u[1,1]"}],
    }
    rep = run_problem(frag)
    assert rep["status"] == "ok"


def test_unknown_task_kind():
    data = {
        "name": "x",
        "space": {"independent": ["x", "t"], "dependent": ["u"]},
        "equations": [{"expr": "u[0,1] - u[2,0]", "leading": "u[0,1]"}],
        "tasks": [{"kind": "mystery"}],
    }
    report = run_problem(data)
    assert report["tasks"][0]["status"] == "error"
    assert report["status"] == "fail"


@pytest.mark.parametrize("leading", ["u01", "u[a,1]", "v[0,1]"])
def test_bad_leading_is_an_input_error(tmp_path, capsys, leading):
    data = {
        "space": {"independent": ["x", "t"], "dependent": ["u"]},
        "equations": [{"expr": "u[0,1] - u[2,0]", "leading": leading}],
        "tasks": [{"kind": "reduce", "expr": "u[1,1]"}],
    }
    f = tmp_path / "leading.json"
    f.write_text(json.dumps(data))
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("task", [
    {"kind": "symmetries", "degree": 2},
    {"kind": "cosymmetries", "order": 2},
    {"kind": "recursion-fiberlinear", "order": -1, "degree": 1},
], ids=["missing-order", "missing-degree", "negative-order"])
def test_bad_ansatz_bounds_are_input_errors(tmp_path, capsys, task):
    data = {
        "space": {"independent": ["x", "t"], "dependent": ["u"]},
        "equations": [{"expr": "u[0,1] - u[2,0]", "leading": "u[0,1]"}],
        "tasks": [task],
    }
    f = tmp_path / "bounds.json"
    f.write_text(json.dumps(data))
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_integral_float_bounds_are_integers():
    data = corpus("heat")
    floats = dict(data, tasks=[dict(t, order=float(t["order"]), degree=float(t["degree"]))
                               for t in data["tasks"]])
    assert run_problem(floats)["tasks"] == run_problem(data)["tasks"]


def _input_error(tmp_path, capsys, data):
    """Exit code and stderr of `jetcalc run` on a problem file."""
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(data))
    code = main(["run", str(f)])
    return code, capsys.readouterr().err


UNSOLVABLE = {
    "leading-jet-not-linear": "component is not linear in its leading jet u[0,1]",
    "derivative-of-the-leading-jet": "right-hand side contains a derivative u[1,1] of the "
                                     "leading jet",
    "leading-jets-not-orthonomic": "leading jets u[1,0] and u[2,0] are not orthonomic",
    "leading-coefficient-not-a-monomial": "leading coefficient of u[0,1] is not a monomial: "
                                          "1 + u[0,0]",
    "non-confluent": "critical pair at jet u[1,1]: u[0,0]^2 != 2*u[0,0]^2"}


@pytest.mark.parametrize("name", UNSOLVABLE)
def test_an_unsolvable_equation_is_refused_in_the_users_names(tmp_path, capsys, name):
    """make_presentation's refusals of tests/refused.json, and its confluence
    check's, name each jet as the problem writes it."""
    case, = [c for c in json.loads((ROOT / "tests" / "refused.json").read_text())
             if c["name"] == name]
    assert _input_error(tmp_path, capsys, case["problem"]) == (
        2, f"input error: {UNSOLVABLE[name]}\n")


def test_covering_fields_short_of_its_nonlocals_are_an_input_error(tmp_path, capsys):
    """A second nonlocal without fields of its own is refused as input."""
    data = corpus("miura")
    data["coverings"]["miura"]["nonlocal"].append({"name": "v"})
    code, err = _input_error(tmp_path, capsys, data)
    assert (code, err) == (2, "input error: covering fields along x: 1 for 2 nonlocals\n")


def _kdv_potential_along_T():
    data = corpus("kdv")
    X = data["coverings"]["potential"]["X"]
    X["T"] = X.pop("t")
    return dict(data, tasks=[t for t in data["tasks"] if t["kind"] == "verify-flat"])


@pytest.mark.parametrize("data, where", [
    (_kdv_potential_along_T(), "covering 'potential' has a field along 'T'"),
    (dict(corpus("heat"), tasks=[{"kind": "recursion-fiberlinear", "order": 1, "degree": 1,
                                  "layers": [{"name": "vm1", "X": {"y": "v[0,0]"}}]}]),
     "layer 'vm1' has a field along 'y'"),
], ids=["covering", "layer"])
def test_a_field_along_an_unknown_name_is_an_input_error(tmp_path, capsys, data, where):
    """A field under a key that is not an independent variable would be
    dropped, and the covering or layer taken with 0 along that variable."""
    code, err = _input_error(tmp_path, capsys, data)
    assert (code, err) == (2, f"input error: {where}, not an independent variable\n")


@pytest.mark.parametrize("key", ["x", "lam", "v"], ids=["independent", "parameter", "unknown"])
def test_a_finite_symmetry_of_a_name_that_is_not_a_variable_is_an_input_error(
        tmp_path, capsys, key):
    """A map key must name a dependent or a nonlocal of the covering's space:
    the map is input, as an operator's shape is."""
    data = corpus("miura")
    data["tasks"] = [{"kind": "verify-finite-symmetry", "covering": "miura",
                      "map": {"w": "-w", key: "x + 1"}}]
    code, err = _input_error(tmp_path, capsys, data)
    assert (code, err) == (2, f"input error: map key {key!r} is neither a dependent nor a "
                              "nonlocal of covering 'miura'\n")


def test_a_pseudo_operator_tail_short_of_its_rows_is_an_input_error(tmp_path, capsys):
    """A second row of the local part with the tail's one-entry a kept: the
    image would lose that row, so the file is refused as input."""
    data = corpus("kdv")
    op = data["pseudo_operators"]["lenard"]
    op["rows"] = 2
    op["local"].append({"row": 1, "col": 0, "terms": [{"D": [0, 0], "coef": "1"}]})
    data["tasks"] = [{"kind": "pseudo-apply", "op": "lenard", "exprs": ["u[1,0]"]}]
    code, err = _input_error(tmp_path, capsys, data)
    assert (code, err) == (2, "input error: pseudo-operator tail: a has 1 entries and b "
                              "is 1x1, for a 2x1 local part\n")


_TWO_RULES = [{"expr": "u[1,0] - u[0,0]", "leading": "u[1,0]"},
              {"expr": "u[0,1] - u[0,0]", "leading": "u[0,1]"}]


@pytest.mark.parametrize("kind, rules, shape, need", [
    ("verify-bivector", 1, (2, 2), (1, 1)), ("schouten-equation", 1, (2, 2), (1, 1)),
    ("verify-symplectic", 1, (2, 2), (1, 1)), ("verify-bivector", 2, (2, 1), (1, 2)),
    ("schouten-equation", 2, (2, 1), (1, 2)), ("verify-symplectic", 2, (1, 2), (2, 1)),
])
def test_an_operator_of_the_wrong_shape_is_an_input_error(tmp_path, capsys, kind, rules,
                                                          shape, need):
    """verify-bivector and schouten-equation compose their operators with
    l_F, so each must be m x l (m dependents, l components), and
    verify-symplectic composes with l_F*, so l x m: on KdV a 2 x 2
    operator, and on u_x = u, u_t = u (one dependent, two rules) the
    transposed shape, is refused as input, with both shapes named.  An
    operator of the shape asked for gets a report, but for schouten-equation
    on the two rules, whose cotangent covering is refused as input too."""
    def op(rows, cols):
        return {"rows": rows, "cols": cols, "entries": []}

    def problem(rows, cols):
        task = {"kind": kind, **({"ops": [op(rows, cols)] * 2} if kind == "schouten-equation"
                                 else {"op": op(rows, cols)})}
        data = dict(corpus("kdv"), tasks=[task])
        if rules == 2:
            data["equations"] = _TWO_RULES
        return data

    code, err = _input_error(tmp_path, capsys, problem(*shape))
    assert (code, err) == (2, f"input error: operator is {shape[0]}x{shape[1]}, "
                              f"but the task needs {need[0]}x{need[1]}\n")
    if (kind, rules) == ("schouten-equation", 2):
        assert _input_error(tmp_path, capsys, problem(*need)) == (
            2, "input error: the cotangent covering needs each dependent to lead at most "
               "one rule: u leads 2 of 2 rules on 1 dependent\n")
        return
    code, report = _run_json(tmp_path, capsys, problem(*need))  # a report: no input error
    assert code in (0, 1) and report["tasks"][0]["task"] == kind


def test_unknown_covering_is_an_input_error(tmp_path, capsys):
    data = corpus("potential-kdv-we")
    data["tasks"] = [dict(data["tasks"][0], covering="nope")]
    assert data["tasks"][0]["kind"] in ("verify-flat", "verify-shadow",
                                        "verify-finite-symmetry")
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("input error: ") and "'nope'" in err


@pytest.mark.parametrize("extra", [
    {"coverings": {"c": {"nonlocal": [{"name": "w"}], "X": {"x": ["u[0,0]"]}}},
     "tasks": [{"kind": "verify-flat", "covering": "c"}]},
    {"tasks": [{"kind": "symmetries", "order": 2, "degree": 1}]},
], ids=["coverings", "solver"])
def test_missing_equations_is_an_input_error(tmp_path, capsys, extra):
    data = dict({"space": {"independent": ["x", "t"], "dependent": ["u"]}}, **extra)
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("input error: no equations given")


def test_symplectic_bounds_are_checked(tmp_path, capsys):
    data = corpus("wdvv")
    (task,) = data["tasks"]
    floats = dict(data, tasks=[dict(task, order=2.0, degree=1.0)])
    assert run_problem(floats)["tasks"] == run_problem(data)["tasks"]
    negative = dict(data, tasks=[dict(task, order=-1)])
    code, err = _input_error(tmp_path, capsys, negative)
    assert code == 2
    assert err.startswith("input error: ")


@pytest.mark.parametrize("task, message", [
    ({"kind": "verify-hamiltonian", "op": "nope"}, "unknown operator 'nope'"),
    ({"kind": "pseudo-apply", "op": "nope", "exprs": ["u[1,0]"]},
     "unknown pseudo-operator 'nope'"),
    ({"kind": "compatible", "ops": ["A", "nope"]}, "unknown operator 'nope'"),
    ({"kind": "magri", "steps": 1, "A": "nope", "B": "B", "seed": "u[0]"},
     "unknown operator 'nope'"),
    ({"kind": "magri", "steps": 1, "A": "A", "B": ["B"], "seed": "u[0]"},
     "unknown operator ['B']"),
    ({"kind": "compatible", "ops": ["A", "B", "A"]}, "needs 2 names in 'ops'"),
    ({"kind": "verify-flat"}, "needs 'covering'"),
    ({"kind": "verify-symmetry"}, "needs 'exprs'"),
], ids=["hamiltonian-op", "pseudo-op", "compatible-ops", "magri-A", "magri-B-list",
        "compatible-arity",
        "flat-covering", "symmetry-exprs"])
def test_task_references_are_checked(tmp_path, capsys, task, message):
    data = dict(corpus("kdv"), tasks=[task])
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("input error: ") and message in err


def _changed(name, change):
    """Corpus problem `name` with `change` applied: a dict of top-level
    fields to set, or a key path whose last key is deleted."""
    data = corpus(name)
    if isinstance(change, dict):
        return dict(data, **change)
    *path, key = change
    obj = data
    for k in path:
        obj = obj[k]
    del obj[key]
    return data


def _operator(row, D, coef="1"):
    """A 1x1 operator with one entry at (row, 0) holding coef * D^D."""
    return {"rows": 1, "cols": 1,
            "entries": [{"row": row, "col": 0, "terms": [{"D": D, "coef": coef}]}]}


def _kdv_hamiltonian(A):
    """kdv's `hamiltonian` section with operator A replaced."""
    ham = corpus("kdv")["hamiltonian"]
    return {"hamiltonian": dict(ham, operators=dict(ham["operators"], A=A))}


@pytest.mark.parametrize("name, change", [
    ("kdv", {"tasks": [{"kind": "magri", "steps": "3", "A": "A", "B": "B",
                        "seed": "u[0]"}]}),
    ("miura", {"tasks": [{"kind": "verify-finite-symmetry", "covering": "miura",
                          "map": ["x"]}]}),
    ("kdv", {"tasks": [{"kind": "conservation-laws", "sections": 3}]}),
    ("kdv", {"tasks": [{"kind": "reduce", "expr": ["u[1,1]"]}]}),
    ("kdv", {"tasks": [{"kind": "verify-symmetry", "exprs": "u[1,0]"}]}),
    ("kdv", {"tasks": [{"kind": "symmetries", "order": 1, "degree": 1,
                        "whitelist": "u"}]}),
    ("kdv", ("coverings", "potential", "X")),
    ("kdv", ("pseudo_operators", "lenard", "local")),
    ("kdv", ("hamiltonian", "operators", "A", "entries")),
    ("kdv", ("hamiltonian", "space")),
    ("kdv", {"tasks": [{"kind": "verify-bivector", "op": {"rows": 2}}]}),
    ("kdv", _kdv_hamiltonian(_operator(3, [1]))),
    ("kdv", _kdv_hamiltonian(_operator(0, [1, 0]))),
    ("kdv", {"tasks": [{"kind": "verify-bivector", "op": _operator(3, [1, 0])}]}),
    ("kdv", {"tasks": [{"kind": "verify-bivector", "op": _operator(0, [1])}]}),
    # a parse error inside a task is an input error too
    ("heat", {"tasks": [{"kind": "verify-symmetry", "exprs": ["u[1,0"]}]}),
    ("heat", {"tasks": [{"kind": "reduce", "expr": "u[1"}]}),
    ("kdv", {"tasks": [{"kind": "verify-bivector", "op": _operator(0, [1, 0], "u[1")}]}),
], ids=["magri-steps", "finite-symmetry-map", "conservation-sections", "reduce-expr",
        "symmetry-exprs", "symmetries-whitelist", "covering-X", "pseudo-local",
        "operator-entries", "hamiltonian-space", "bivector-op",
        "operator-row", "operator-D", "bivector-row", "bivector-D",
        "symmetry-exprs-syntax", "reduce-expr-syntax", "bivector-coef-syntax"])
def test_malformed_fields_are_input_errors(tmp_path, capsys, name, change):
    code, err = _input_error(tmp_path, capsys, _changed(name, change))
    assert code == 2
    assert err.startswith("input error: ")


def test_negative_max_prolong_is_an_input_error(capsys):
    assert main(["corpus", "kdv", "--max-prolong", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "input error: --max-prolong must be at least 0, not -3\n"


def test_max_prolong_beyond_its_maximum_is_an_input_error(capsys):
    assert main(["corpus", "kdv", "--max-prolong", str(MAX_PROLONG + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("input error: --max-prolong must be at most "
                                 f"{MAX_PROLONG}, not {MAX_PROLONG + 1}\n")


@pytest.mark.parametrize("kind, field, value", [
    ("symmetries", "order", MAX_ORDER + 1),
    ("symmetries", "degree", MAX_DEGREE + 1),
    ("cosymmetries", "order", 1000000),
    ("recursion-fiberlinear", "degree", 1000000),
    ("verify-symplectic", "order", MAX_ORDER + 1),
    ("verify-symplectic", "degree", MAX_DEGREE + 1),
])
def test_ansatz_bounds_beyond_their_maximum_are_input_errors(tmp_path, capsys, kind,
                                                              field, value):
    """Rejected by the schema, before any ansatz is built; every bundled
    task is inside the bounds."""
    task = {"kind": kind, "order": 1, "degree": 1, field: value}
    if kind == "verify-symplectic":
        task["op"] = _operator(0, [1, 0])
    tracemalloc.start()
    try:
        code, err = _input_error(tmp_path, capsys, _changed("kdv", {"tasks": [task]}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith(f"input error: {value} is greater than the maximum of ")
    assert peak < 10 * 2**20
    bundled = [t for name in corpus_names() for t in corpus(name)["tasks"]]
    assert all(t.get("order", 0) <= MAX_ORDER and t.get("degree", 0) <= MAX_DEGREE
               for t in bundled)


def test_magri_steps_beyond_their_maximum_are_an_input_error(tmp_path, capsys,
                                                              monkeypatch):
    """Rejected by the schema, before the chain starts; every bundled magri
    task is inside the bound."""
    def never(*args):
        raise AssertionError("magri_hierarchy ran")

    monkeypatch.setattr("jetcalc.cli.magri_hierarchy", never)
    task = {"kind": "magri", "steps": MAX_STEPS + 1, "A": "A", "B": "B", "seed": "u[0]"}
    code, err = _input_error(tmp_path, capsys, _changed("kdv", {"tasks": [task]}))
    assert code == 2
    assert err.startswith(f"input error: {MAX_STEPS + 1} is greater than the maximum of ")
    bundled = [t for name in corpus_names() for t in corpus(name)["tasks"]]
    assert all(t["steps"] <= MAX_STEPS for t in bundled if t["kind"] == "magri")


def _derivative_entries(x, path=()):
    """(path, value) of every entry of every `D` in a problem."""
    if isinstance(x, dict):
        for k, v in x.items():
            if k == "D":
                yield from (((*path, k, i), e) for i, e in enumerate(v))
            else:
                yield from _derivative_entries(v, (*path, k))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _derivative_entries(v, (*path, i))


def _with_entry(name, path, value):
    data = corpus(name)
    obj = data
    for k in path[:-1]:
        obj = obj[k]
    obj[path[-1]] = value
    return data


@pytest.mark.parametrize("name, path, value", [
    ("kdv6", ("tasks", 0, "op", "entries", 0, "terms", 0, "D", 1), 10**30),
    ("kdv6", ("tasks", 0, "op", "entries", 0, "terms", 0, "D", 1), 1e308),
    ("kdv6", ("tasks", 1, "op", "entries", 0, "terms", 0, "D", 0), 2**64 + 1),
    ("boussinesq", ("hamiltonian", "operators", "A", "entries", 0, "terms", 0, "D", 0), 5000),
    ("kdv", ("pseudo_operators", "lenard", "local", 0, "terms", 0, "D", 0), MAX_D + 1),
    ("kdv", ("pseudo_operators", "lenard", "tail", 0, "b", 0, "terms", 0, "D", 0), MAX_D + 1),
    ("kdv-3comp", ("tasks", 0, "witness", "alpha", "entries", 0, "terms", 0, "D", 0),
     MAX_D + 1),
], ids=["kdv6-10^30", "kdv6-1e308", "kdv6-2^64+1", "boussinesq-5000", "pseudo-local",
        "pseudo-tail", "witness"])
def test_operator_orders_beyond_their_maximum_are_input_errors(tmp_path, capsys, name,
                                                               path, value):
    """An operator term's D entry beyond MAX_D, in an operator, a
    pseudo-operator's local part or tail, or a witness, is refused by the
    schema before any operator is built; every bundled entry is inside it."""
    code, err = _input_error(tmp_path, capsys, _with_entry(name, path, value))
    assert code == 2
    assert err.startswith(f"input error: {value} is greater than the maximum of {MAX_D} ")
    assert all(e <= MAX_D for n in corpus_names() for _, e in _derivative_entries(corpus(n)))


@pytest.mark.parametrize("name, task", [
    ("kdv", {"kind": "verify-symmetry", "exprs": ["u[0,3000]"]}),
    ("kdv", {"kind": "reduce", "expr": f"u[{_J + 1},0]"}),
    ("boussinesq", {"kind": "verify-cosymmetry", "exprs": ["u[0,0]", f"v[0,{10**30}]"]}),
], ids=["kdv-3000", "just-beyond", "10^30"])
def test_jet_orders_beyond_their_maximum_are_input_errors(tmp_path, capsys, name, task):
    """A jet whose multi-index has an entry beyond algebra._J is refused by
    the parser at that entry, before its task's work; every bundled jet is
    inside it."""
    code, err = _input_error(tmp_path, capsys, _changed(name, {"tasks": [task]}))
    assert code == 2
    assert re.fullmatch(rf"input error: multi-index entries must be at most {_J} "
                        r"\(at position \d+\)\n", err)
    texts = json.dumps([corpus(n) for n in corpus_names()])
    assert all(int(k) <= _J for index in re.findall(r"\w\[([\d,]+)\]", texts)
               for k in index.split(","))


@pytest.mark.parametrize("name, kind, order, degree, count", [
    ("kdv6", "symmetries", 8, 5, 658008),
    ("kdv-3comp", "cosymmetries", 8, 5, 278256),
    ("camassa-holm-2comp", "verify-symplectic", 8, 4, 35960),
])
def test_ansatz_beyond_the_monomial_cap_is_an_input_error(tmp_path, capsys, name, kind,
                                                          order, degree, count):
    """Within the per-field bounds, but C(generators + degree, degree)
    monomials is beyond MAX_MONOMIALS: counted before any is built."""
    task = {"kind": kind, "order": order, "degree": degree}
    if kind == "verify-symplectic":
        task["op"] = {"rows": 2, "cols": 2, "entries": []}
    tracemalloc.start()
    try:
        code, err = _input_error(tmp_path, capsys, _changed(name, {"tasks": [task]}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == (f"input error: ansatz of {count} monomials beyond the cap of "
                   f"{MAX_MONOMIALS}\n")
    assert peak < 10 * 2**20


def test_reduce_error_names_the_jet():
    report = run_problem(dict(corpus("kdv"), tasks=[{"kind": "reduce", "expr": "u[0,1]^-1"}]))
    assert report["tasks"] == [{"task": "reduce", "status": "error", "detail":
                                "reducible jet u[0,1] occurs with negative exponent"}]


def test_recursion_layer_missing_variable_is_zero():
    def tasks(X):
        layer = {"name": "vm1", "X": X}
        task = {"kind": "recursion-fiberlinear", "order": 1, "degree": 1, "layers": [layer]}
        return run_problem(dict(corpus("heat"), tasks=[task]))["tasks"]

    omitted = tasks({"x": "v[0,0]"})
    assert omitted == tasks({"x": "v[0,0]", "t": "0"})
    assert omitted[0]["status"] != "error"


def _run_json(tmp_path, capsys, data):
    """Exit code and JSON report of `jetcalc run --json` on a problem file."""
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(data))
    code = main(["run", str(f), "--json"])
    return code, json.loads(capsys.readouterr().out)


def _heat_in(name, task):
    """The heat equation written in the dependent `name`, with one task."""
    return dict(corpus("heat"), space={"independent": ["x", "t"], "dependent": [name]},
                equations=[{"expr": f"{name}[0,1] - {name}[2,0]",
                            "leading": f"{name}[0,1]"}],
                tasks=[task])


def test_cofactor_tags_leave_user_names_alone(tmp_path, capsys):
    code, report = _run_json(tmp_path, capsys,
                             _heat_in("_F0", {"kind": "reduce", "expr": "_F0[0,2]"}))
    assert code == 0
    assert report["tasks"][0]["normal_form"] == "_F0[4,0]"


def test_fiber_names_leave_user_names_alone(tmp_path, capsys):
    task = {"kind": "recursion-fiberlinear", "order": 1, "degree": 1}
    code, in_v = _run_json(tmp_path, capsys, _heat_in("v", task))
    assert code == 0
    _, in_u = _run_json(tmp_path, capsys, _heat_in("u", task))
    assert in_v["tasks"][0]["dimension"] == in_u["tasks"][0]["dimension"] == 3


def test_momentum_names_leave_user_names_alone(tmp_path, capsys):
    def problem(second):
        # D_x on u, and KdV's second structure on the dependent `second`
        lenard = [{"D": [3], "coef": "1"}, {"D": [1], "coef": f"4*{second}[0]"},
                  {"D": [0], "coef": f"2*{second}[1]"}]
        op = {"rows": 2, "cols": 2, "entries": [
            {"row": 0, "col": 0, "terms": [{"D": [1], "coef": "1"}]},
            {"row": 1, "col": 1, "terms": lenard}]}
        return dict(corpus("kdv"), hamiltonian={
            "space": {"independent": ["x"], "dependent": ["u", second]},
            "operators": {"A": op}}, tasks=[{"kind": "verify-hamiltonian", "op": "A"}])

    code, report = _run_json(tmp_path, capsys, problem("p_u"))
    assert code == 0
    assert report["tasks"] == _run_json(tmp_path, capsys, problem("v"))[1]["tasks"]
    assert report["tasks"][0]["status"] == "ok"


def test_problem_schema_is_valid():
    Draft202012Validator.check_schema(PROBLEM_SCHEMA)


def test_schema_is_not_rechecked_per_problem(monkeypatch):
    """An accepted problem costs one walk of the whole schema (`_errors` over
    `_ACCEPT`) and no `_reject`, which walks `PROBLEM_SCHEMA` again only to
    word a refusal."""
    roots, rejects = [], []
    errors, reject = cli._errors, cli._reject

    def counted(x, schema, depth, path=()):
        if schema is cli._ACCEPT or schema is PROBLEM_SCHEMA:
            roots.append(schema)
        return errors(x, schema, depth, path)

    monkeypatch.setattr(cli, "_errors", counted)
    monkeypatch.setattr(cli, "_reject", lambda *args: rejects.append(args) or reject(*args))
    for name in corpus_names():
        del roots[:]
        assert run_problem(corpus(name))["status"] == "ok"
        assert roots == [cli._ACCEPT] and rejects == []
    del roots[:]
    with pytest.raises(ProblemError, match="is not of type 'array'"):
        run_problem(dict(corpus("heat"), tasks="none"))
    assert roots == [cli._ACCEPT, PROBLEM_SCHEMA] and len(rejects) == 1


def test_readme_lists_every_task_kind():
    text = (ROOT / "README.md").read_text()
    cli = text[text.index("## CLI"):text.index("## Library example")]
    assert sorted(re.findall(r"^\| `([a-z-]+)` \|", cli, re.M)) == sorted(_TASKS)


def test_corpus_reports_match_reference_under_two_hash_seeds():
    outputs = []
    for seed in ("0", "4242"):
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", _CORPUS_REPORTS], env=env,
                              capture_output=True, timeout=600, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    reports = json.loads(outputs[0])
    assert sorted(reports) == sorted(corpus_names())
    for name, (code, text) in reports.items():
        reference = ROOT / "bench" / "reference" / "corpus" / f"{name}.json"
        assert code == 0, name
        assert text == reference.read_text(), name


@pytest.mark.parametrize("expr, caret", [("(u[0,0]^60000)^60000", 14),
                                         ("u[0,0]^3000000000", 6)],
                         ids=["power-of-power", "huge-power"])
def test_exponents_beyond_the_budget_are_input_errors(tmp_path, capsys, expr, caret):
    data = _changed("heat", {"tasks": [{"kind": "reduce", "expr": expr}]})
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("input error: ") and "beyond the budget of 65536" in err
    assert err.rstrip().endswith(f"(at position {caret})")


def _typed_fields():
    """(kind, field, value of the wrong JSON type) for every typed field of
    every task kind."""
    for kind, (_, _, fields) in sorted(_TASKS.items()):
        for field, of in sorted(fields.items()):
            if isinstance(of, dict):
                yield kind, field, 0 if of["type"] == "string" else "x"


@pytest.mark.parametrize("kind, field, value", list(_typed_fields()),
                         ids=[f"{k}-{f}" for k, f, _ in _typed_fields()])
def test_each_typed_field_is_checked(tmp_path, capsys, kind, field, value):
    data = dict(corpus("kdv"), tasks=[{"kind": kind, field: value}])
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("input error: ") and f"['tasks'][0][{field!r}]" in err


def test_schema_errors_are_one_line(tmp_path, capsys):
    """A schema error prints its message and where it is, not the schema and
    the instance."""
    for data, message in [
            ({"no": "space"}, "'tasks' is a required property (at problem)"),
            (dict(corpus("kdv"), tasks=[{"kind": "reduce", "expr": 0}]),
             "0 is not of type 'string' (at problem['tasks'][0]['expr'])")]:
        code, err = _input_error(tmp_path, capsys, data)
        assert code == 2
        assert err == f"input error: {message}\n" and len(err.encode()) < 300


def _kdv_with(change):
    """KdV with `change` applied in place to a copy of it."""
    data = corpus("kdv")
    change(data)
    return data


def _kdv_task(kind, **fields):
    """KdV with only its first task of kind `kind`, with `fields` set."""
    task = next(t for t in corpus("kdv")["tasks"] if t["kind"] == kind)
    return dict(corpus("kdv"), tasks=[dict(task, **fields)])


def _tail_a(a):
    return _kdv_with(lambda d: d["pseudo_operators"]["lenard"]["tail"][0].update(a=a))


@pytest.mark.parametrize("data, words", [
    (dict(corpus("potential-kdv-we"), coverings={"a": 1, "b": 1}),
     "1 is not of type 'object' (at problem['coverings']['b'])"),
    ({"name": "no tasks, no space"}, "'tasks' is a required property (at problem)"),
    (_tail_a(["u", 3]), "3 is not of type 'string' "
                        "(at problem['pseudo_operators']['lenard']['tail'][0]['a'][1])"),
    (_tail_a(3), "3 is not valid under any of the given schemas "
                 "(at problem['pseudo_operators']['lenard']['tail'][0]['a'])"),
    (_kdv_task("magri", steps=7.5),
     "7.5 is not of type 'integer' (at problem['tasks'][0]['steps'])"),
    (_kdv_task("magri", steps=math.inf),
     "inf is not of type 'integer' (at problem['tasks'][0]['steps'])"),
    (_kdv_with(lambda d: d["space"].update(independent=[])),
     "[] should be non-empty (at problem['space']['independent'])"),
    (_kdv_task("schouten-equation", ops=[_operator(0, [1, 0])]),
     "is too short (at problem['tasks'][0]['ops'])"),
    (_kdv_task("schouten-equation", ops=[_operator(0, [1, 0])] * 3),
     "is too long (at problem['tasks'][0]['ops'])"),
], ids=["sibling-paths", "required-before-anyOf", "anyOf-descends", "anyOf-ties",
        "type-before-maximum", "infinity", "non-empty", "too-short", "too-long"])
def test_the_reported_schema_error_is_the_one_best_match_picks(data, words):
    """The shallowest error; of siblings, the greatest path; an `anyOf` after
    another error at its place, and from an `anyOf` its deepest, earliest branch
    error unless two tie.  A library caller gets it as a ProblemError."""
    refusal = _refusal(PROBLEM, data) or next(filter(None, (
        _refusal(ROWS[t["kind"]], t, ("tasks", i)) for i, t in enumerate(data["tasks"]))))
    assert refusal.endswith(words)
    with pytest.raises(ProblemError) as exc:
        Problem(data)
    assert str(exc.value) == refusal


# every bundled problem through `main`, from the top of a fresh process;
# prints the exit codes and whether jsonschema was imported
_CORPUS_IMPORTS = """
import contextlib, io, sys
from jetcalc.cli import main
from jetcalc.corpus import corpus_names
codes = []
for name in corpus_names():
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(["corpus", name, "--json"]))
print(repr((codes, "jsonschema" in sys.modules)))
"""


def test_accepted_problems_leave_jsonschema_unimported(tmp_path):
    """The CLI never imports jsonschema: neither a fresh process that runs all
    12 bundled problems nor one that reads rejected files, which prints the
    messages the schema errors above pin."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _CORPUS_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    assert proc.stdout == repr(([0] * len(corpus_names()), False)) + "\n"
    files = []
    for k, data in enumerate([{"no": "space"},
                              dict(corpus("kdv"), tasks=[{"kind": "reduce", "expr": 0}])]):
        files.append(tmp_path / f"rejected{k}.json")
        files[-1].write_text(json.dumps(data))
    script = _RUN_FILES + 'print("jsonschema" in sys.modules)'
    proc = subprocess.run([sys.executable, "-c", script, *map(str, files)], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    assert proc.stdout.splitlines() == [
        repr((2, "input error: 'tasks' is a required property (at problem)\n")),
        repr((2, "input error: 0 is not of type 'string' (at problem['tasks'][0]['expr'])\n")),
        "False"]


_DEEP = {"k": [[[[]]]]}
for _ in range(MAX_NESTING):
    _DEEP = [_DEEP]


@pytest.mark.parametrize("change, args, message", [
    ({"normal": 1, "deep": _DEEP}, [], f"problem nested deeper than {MAX_NESTING} levels"),
    ({"normal": 1, "tasks": [{"kind": "verify-flat", "covering": "nope"}]}, ["-1"],
     "1 is not of type 'boolean' (at problem['normal'])"),
    ({"tasks": [{"kind": "reduce", "expr": 0}]}, ["-1"],
     "--max-prolong must be at least 0, not -1"),
    ({"tasks": [{"kind": "verify-flat", "covering": "nope"}, {"kind": "reduce", "expr": 0}]},
     [], "task 'verify-flat' names unknown covering 'nope'"),
    ({"tasks": [{"kind": "reduce", "expr": 0}, {"kind": "verify-flat", "covering": "nope"}]},
     [], "0 is not of type 'string' (at problem['tasks'][0]['expr'])"),
    ({"tasks": [{"kind": "verify-flat"}, {"kind": "reduce", "expr": 0}]}, [],
     "task 'verify-flat' needs 'covering'"),
], ids=["depth", "problem-schema", "max-prolong", "names", "task-schema", "needs"])
def test_the_first_of_several_input_errors_is_reported(tmp_path, capsys, change, args,
                                                       message):
    """Depth, then the problem's schema, then --max-prolong, then each task
    in order: its schema, then the fields it needs and the names it gives."""
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(dict(corpus("kdv"), **change)))
    assert main(["run", str(f), *(["--max-prolong", *args] if args else [])]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def _flat_task(covering):
    data = corpus("potential-kdv-we")
    return dict(data, tasks=[dict(data["tasks"][0], covering=covering)])


@pytest.mark.parametrize("data, head, tail", [
    ({"tasks": "x" * 100000}, "{'tasks': 'xxx", "given schemas (at problem)"),
    (dict(corpus("potential-kdv-we"), coverings={"k" * 30000: 1}),
     "1 is not of type 'object' (at problem['coverings']['kkk", "kkk'])"),
    (dict(corpus("potential-kdv-we"), coverings={"\u20ac" * 30000: 1}),
     "1 is not of type 'object' (at problem['coverings']['\u20ac\u20ac", "\u20ac\u20ac'])"),
    (_flat_task("c" * 50000), "task 'verify-flat' names unknown covering 'ccc", "ccc'"),
    (_changed("heat", {"tasks": [{"kind": "reduce", "expr": "n" * 50000}]}),
     "unknown name 'nnn", "nnn' (at position 0)")],
    ids=["schema-value", "schema-path", "schema-path-utf8", "covering", "expression"])
def test_input_errors_are_bounded(tmp_path, capsys, data, head, tail):
    """A long message keeps its head and where it is, and loses its middle."""
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith(f"input error: {head}") and err.endswith(f"{tail}\n")
    assert err.count("\n") == 1 and " ... " in err and len(err.encode()) < 500


_DIGITS = "9" * 5000  # beyond Python's 4,300-digit limit on int conversion


@pytest.mark.parametrize("expr, position", [
    (f"{_DIGITS}*u[0,0]", 0), (f"u[0,0]^{_DIGITS}", 7), (f"u[{_DIGITS},0]", 2),
    (f"1/{_DIGITS}*u[0,0]", 0)], ids=["coefficient", "exponent", "multi-index",
                                      "denominator"])
def test_numbers_beyond_the_digit_limit_are_input_errors(tmp_path, capsys, expr,
                                                         position):
    data = _changed("heat", {"tasks": [{"kind": "reduce", "expr": expr}]})
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err == (f"input error: number of 5000 digits is too long "
                   f"(at position {position})\n")


def test_zero_denominator_is_an_input_error(tmp_path, capsys):
    data = _changed("heat", {"tasks": [{"kind": "reduce", "expr": "u[1,0]*1/0"}]})
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err == "input error: division by zero (at position 7)\n"


@pytest.mark.parametrize("expr", ["(" * 2000 + "u[0,0]" + ")" * 2000, "-" * 3000 + "u[0,0]"],
                         ids=["parentheses", "minus-signs"])
def test_deep_expressions_are_input_errors(tmp_path, capsys, expr):
    """Each '(' and each unary '-' is one level of the parser's recursion;
    the first token past the nesting budget is the error's position."""
    data = _changed("heat", {"tasks": [{"kind": "reduce", "expr": expr}]})
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err == (f"input error: expression nested deeper than {_D} levels "
                   f"(at position {_D})\n")
    sp = JetSpace.create(["x", "t"], ["u"])
    within = "-(" * (_D // 2) + "u[0,0]" + ")" * (_D // 2)
    assert parse(within, sp) == parse("u[0,0]", sp)


def test_deeply_nested_problem_file_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text('{"tasks": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err == "input error: problem file is nested too deeply\n"


def test_an_integer_beyond_the_digit_limit_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_text('{"tasks": [], "n": ' + "9" * 5000 + "}")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: Exceeds the limit (4300 digits)") and err.count("\n") == 1


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "utf16.json"
    f.write_bytes(b"\xff\xfe{")
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err == ("input error: 'utf-8' codec can't decode byte 0xff "
                                       "in position 0: invalid start byte\n")


# `jetcalc run` on each file named in argv, from the top of a fresh process
# as the command runs it; prints repr((exit code, stderr)) a line per file
_RUN_FILES = """
import contextlib, io, sys
from jetcalc.cli import main
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", path])
    print(repr((code, err.getvalue())))
"""


def test_problems_nested_beyond_the_bound_are_input_errors(tmp_path):
    """A problem that loads but nests beyond MAX_NESTING is refused before
    validation, whose message would echo the instance and, from about 500
    levels, recurse through it."""
    files = []
    for depth in (300, 600, 985):
        files.append(tmp_path / f"deep{depth}.json")
        files[-1].write_text('{"tasks": ' + "[" * depth + "]" * depth + "}")
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _RUN_FILES, *map(str, files)], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    message = f"input error: problem nested deeper than {MAX_NESTING} levels\n"
    assert proc.stdout.splitlines() == [repr((2, message))] * 3


def test_problems_nested_to_the_bound_reach_validation():
    def nested(levels):
        x = []
        for _ in range(levels - 1):
            x = [x]
        return x

    space = {"independent": ["x"], "dependent": ["u"]}
    with pytest.raises(ProblemError, match="is not of type 'object'"):
        run_problem({"space": space, "tasks": nested(MAX_NESTING - 1)})
    with pytest.raises(ProblemError, match=f"^problem nested deeper than {MAX_NESTING} levels$"):
        run_problem({"space": space, "tasks": nested(MAX_NESTING)})


@pytest.mark.parametrize("expr, caret", [("2^3000000000", 1), ("(2^65536)^65536", 2),
                                         ("2^8000*2^8000*u[0,0]", 6)],
                         ids=["huge-power", "power-of-power", "product"])
def test_constant_powers_beyond_the_budget_are_input_errors(tmp_path, capsys, expr,
                                                            caret):
    data = _changed("heat", {"tasks": [{"kind": "reduce", "expr": expr}]})
    tracemalloc.start()
    try:
        code, err = _input_error(tmp_path, capsys, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith("input error: coefficients of up to ")
    assert err.rstrip().endswith(f"beyond the budget of 8192 bits (at position {caret})")
    assert peak < 10 * 2**20  # no coefficient was built


def test_powers_beyond_the_term_budget_are_input_errors(tmp_path, capsys):
    expr = "(u[0,0]+u[1,0]+u[2,0]+u[3,0])^4000"
    data = _changed("heat", {"tasks": [{"kind": "reduce", "expr": expr}]})
    tracemalloc.start()
    try:
        code, err = _input_error(tmp_path, capsys, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == ("input error: power of up to 10682674001 terms beyond the budget "
                   "of 65536 terms (at position 29)\n")
    assert peak < 10 * 2**20  # no power was expanded


def test_products_beyond_the_pair_budget_are_input_errors(tmp_path, capsys):
    """Each power has 3,003 terms and is within every power budget; their
    product would have 9,018,009, and is refused at the `*` before any of
    them is built."""
    expr = "(u[0,0]+u[1,0]+u[2,0]+u[3,0]+u[4,0]+1)^10*(u[5,0]+u[6,0]+u[7,0]+u[8,0]+u[9,0]+1)^10"
    data = _changed("heat", {"tasks": [{"kind": "reduce", "expr": expr}]})
    start = time.perf_counter()
    code, err = _input_error(tmp_path, capsys, data)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert err == ("input error: product of 3003 by 3003 terms beyond the budget of "
                   f"1048576 term pairs (at position {expr.index(')^10*') + 4})\n")


TRAFFIC = ROOT / "tests" / "traffic"
# each problem file that tests/traffic.py runs as product traffic: its exit code
# and each task's status with its densities (magri) or normal form (reduce); or
# its input error
_TRAFFIC = {
    "boussinesq-magri": (1, [("ok", ["u[0]", "1/2*u[0]*v[0]"]), ("error", None)]),
    "camassa-holm-conservation": (1, [("error", None)]),
    "constant-two-form": (1, [("fail", None)]),
    "fresh-names": (0, [("ok", "u[0,0]*_F0^2 + 2*u[2,0]*_F0*v + u[4,0]*v^2"), ("ok", None),
                        ("ok", None)]),
    "kdv": (1, [("ok", None), ("fail", None), ("ok", None),
                ("ok", "12*u[0,0]*u[1,0]*u[3,0] + 36*u[0,0]^2*u[1,0]^2 + u[3,0]^2"),
                ("fail", None), ("fail", None)]),
    "kdv-fractions": (0, [("ok", "3/2*u[0,0]*u[1,0]^2 + 1/4*u[0,0]*u[4,0] + 3/4*u[0,0]^2*u[2,0]"
                                 " + 5/8*u[1,0]*u[3,0] + 3/8*u[2,0]^2 + 1/48*u[6,0]"),
                          ("ok", None), ("ok", None), ("ok", None)]),
    "two-rules": (0, [("ok", "u[0,0]"), ("ok", "u[0,0]"), ("ok", "u[0,0]^2"), ("ok", "u[0,0]^2")]),
    "two-rules-conservation": (1, [("error", None)]),
    "two-rules-cotangent": (2, "input error: the cotangent covering needs each dependent to "
                               "lead at most one rule: u leads 2 of 2 rules on 1 dependent\n"),
    "wave-system-conservation": (0, [("ok", None)]),
    "xyt": (0, [("ok", None), ("ok", "-2*u[0,0,0]"), ("ok", "u[0,0,0]^40000*u[1,0,0]^40000")]),
}


def test_every_traffic_problem_is_pinned():
    assert sorted(path.stem for path in TRAFFIC.glob("*.json")) == sorted(_TRAFFIC)


@pytest.mark.parametrize("name", sorted(_TRAFFIC))
def test_a_traffic_problem_keeps_its_report(capsys, name):
    """On KdV, u is a cosymmetry and u_x is not, the nonlocal R(scaling) of
    the Lenard operator is a shadow on the potential covering, and the
    identity is no equation bivector and no symplectic operator; Boussinesq's
    magri solves its first step in the ansatz and stops at its second; on
    u_x = u, u_t = u_x, whose second rule inter-reduces to u_t = u, each
    reduction's cofactors check; the cotangent covering of u_x = u,
    u_t = u is refused as input; the conservation-law shortcut refuses
    u_x = u, u_t = u_x and Camassa-Holm; on u_t = v_t = w_t = 0 the 2-form
    w du^dv is no closed one; the engine's names move off a problem's `v`,
    `_F0` and `p_u`; KdV with fractional coefficients reduces, has u_x and
    its flow as symmetries and a pseudo-operator whose tail integrand
    vanishes; u_t = v_x, v_t = u_x has a current per two-component
    section; and the heat equation in (x, y, t) has the 9 symmetries of
    order 2 and degree 1, reads 2*-u and keeps u^40000*u_x^40000."""
    code, expected = _TRAFFIC[name]
    got = main(["run", str(TRAFFIC / f"{name}.json"), "--json"])
    out = capsys.readouterr()
    if code == 2:
        assert (got, out.err) == (code, expected)
        return
    tasks = json.loads(out.out)["tasks"]
    assert got == code
    assert [(t["status"], t.get("densities", t.get("normal_form"))) for t in tasks] == expected


def test_verify_shadow_task_reports_ok_and_fail(tmp_path, capsys):
    """u_x is a shadow on KdV's potential covering; the nonlocal w is not:
    l~_F(w) = D~_t w - 6u D~_x w - 6u_x w - D~_x^3 w = -3u^2 - 6u_x w."""
    data = dict(corpus("kdv"), tasks=[
        {"kind": "verify-shadow", "covering": "potential", "exprs": [e]}
        for e in ("u[1,0]", "w")])
    code, report = _run_json(tmp_path, capsys, data)
    assert code == 1
    assert [(t["status"], t["residuals"]) for t in report["tasks"]] == [
        ("ok", ["0"]), ("fail", ["-3*u[0,0]^2 - 6*u[1,0]*w"])]


def test_verify_symplectic_reports_the_residual_of_a_non_member(tmp_path, capsys):
    """The identity is no symplectic operator of KdV: l_F* o 1 - 1 o l_F is
    not 0 modulo the equation, so at order 1 and degree 1 the task reports
    membership and closedness false with the residual matrix, and exits 1."""
    identity = {"rows": 1, "cols": 1, "entries": [
        {"row": 0, "col": 0, "terms": [{"D": [0, 0], "coef": "1"}]}]}
    code, report = _run_json(tmp_path, capsys, dict(corpus("kdv"), tasks=[
        {"kind": "verify-symplectic", "op": identity, "order": 1, "degree": 1}]))
    assert code == 1
    assert report["tasks"] == [{
        "task": "verify-symplectic", "membership": False, "closed": False, "status": "fail",
        "residual": [["(6*u[1,0])*D[0, 0] + (-2)*D[0, 1] + (12*u[0,0])*D[1, 0] + (2)*D[3, 0]"]]}]


def test_constant_powers_within_the_budget_are_exact():
    report = run_problem(dict(corpus("heat"), tasks=[{"kind": "reduce", "expr": "2^1000"}]))
    assert report["tasks"][0]["normal_form"] == str(2**1000)


def test_max_prolong_reaches_the_coverings_of_tasks(monkeypatch):
    bounds = []
    check = presentations._check_confluence

    def recording(pres, check_order):
        bounds.append(check_order)
        return check(pres, check_order)

    monkeypatch.setattr(presentations, "_check_confluence", recording)
    data = corpus("kdv")
    tasks = [t for t in data["tasks"]
             if t["kind"] in ("recursion-fiberlinear", "schouten-equation")]
    assert sorted({t["kind"] for t in tasks}) == ["recursion-fiberlinear",
                                                   "schouten-equation"]
    report = run_problem(dict(data, tasks=tasks), max_prolong=2)
    assert report["status"] == "ok"
    assert len(bounds) == 3 and set(bounds) == {2}


def test_coefficients_beyond_the_print_limit_are_task_errors(tmp_path, capsys):
    """Reducing u_tt on u_t = 2^8000 u_x builds the coefficient 2^16000, of
    4,817 digits, more than Python prints: the task ends in an error that
    names the digit count, with exit 1 and no traceback."""
    data = {"space": {"independent": ["x", "t"], "dependent": ["u"]},
            "equations": [{"expr": "u[0,1] - 2^8000*u[1,0]", "leading": "u[0,1]"}],
            "tasks": [{"kind": "reduce", "expr": "u[0,2]"}]}
    code, report = _run_json(tmp_path, capsys, data)
    assert code == 1
    assert report["tasks"] == [{"task": "reduce", "status": "error",
                                "detail": "coefficient of 4817 digits is too long to print"}]
    assert capsys.readouterr().err == ""


def test_schouten_equation_reports_an_operator_that_is_not_a_bivector(tmp_path, capsys):
    """u D_x is not a bivector on KdV: as either operator of a
    schouten-equation task the task fails with the residual that a
    verify-bivector task on it reports."""
    def op(coef):
        return {"rows": 1, "cols": 1, "entries": [
            {"row": 0, "col": 0, "terms": [{"D": [1, 0], "coef": coef}]}]}

    u_dx, dx = op("u[0,0]"), op("1")
    code, report = _run_json(tmp_path, capsys, dict(corpus("kdv"), tasks=[
        {"kind": "verify-bivector", "op": u_dx},
        {"kind": "schouten-equation", "ops": [u_dx, dx]},
        {"kind": "schouten-equation", "ops": [dx, u_dx]}]))
    assert code == 1
    membership, first, second = report["tasks"]
    assert membership["status"] == "fail"
    assert first == second == {"task": "schouten-equation", "status": "fail",
                               "trivial": False, "residual": membership["residual"]}


@pytest.mark.parametrize("args", [["corpus", "kdv", "--emit"], ["corpus", "heat"],
                                  ["corpus", "heat", "--json"]], ids=["emit", "human", "json"])
def test_a_closed_output_pipe_exits_1_quietly(args):
    """Writing to a pipe that has no reader ends the command with exit 1 and
    nothing on stderr: no traceback, no `input error:` line and no
    `Exception ignored` line at shutdown.  The read end is closed before
    the process starts, so the pipe is already broken at its first write."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from jetcalc.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *args],
            env=env, stdout=write, stderr=subprocess.PIPE, timeout=600)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (1, "")


def test_a_closed_output_pipe_leaves_no_descriptor_open():
    """Five in-process runs into a pipe whose reader has gone each exit 1 and
    leave the lowest free descriptor where it was: the descriptor opened on
    os.devnull for stdout is closed once it is duplicated there."""
    def lowest_free():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd
    before = lowest_free()
    assert [traffic.closed_stdout(cli) for _ in range(5)] == [1] * 5
    assert lowest_free() == before


# -- derived objects, built once per problem ---------------------------------


def test_a_problem_builds_one_momentum_gradient_per_operator(monkeypatch):
    """Boussinesq's three verify-hamiltonian and three compatible tasks name
    three operators, A, B and C: three momentum gradients with their skew
    verdicts, not one per operator and task (nine).  A second Problem of the
    same file builds its own three: nothing is carried across problems."""
    built, gradient = [], cli.momentum_gradient

    def counted(op):
        built.append(op)
        return gradient(op)

    monkeypatch.setattr(cli, "momentum_gradient", counted)
    data = corpus("boussinesq")
    for total in (3, 6):
        problem = Problem(data)
        assert [run_task(problem, t)["status"] for t in data["tasks"]] == ["ok"] * 6
        assert len(built) == total
        assert built[-3:] == [problem.ham_ops[name] for name in "ABC"]


def test_a_presentation_builds_one_theta_per_bivector(monkeypatch):
    """kdv6's two verify-bivector tasks and its schouten-equation task name
    two operators, each parsed anew by every task: two Thetas (the only sums
    of two compositions), not four, because equal operators share one.  A
    second Problem of the same file builds its own two."""
    thetas, build = [], CDiffOp.sum_of_compositions

    def counted(cls, parts):
        if len(parts) == 2:
            thetas.append(parts)
        return build(parts)

    monkeypatch.setattr(CDiffOp, "sum_of_compositions", classmethod(counted))
    data = corpus("kdv6")
    for total in (2, 4):
        problem = Problem(data)
        assert [run_task(problem, t)["status"] for t in data["tasks"]] == ["ok"] * 3
        assert len(thetas) == total


@pytest.mark.parametrize("name", corpus_names())
def test_tasks_in_reverse_order_give_the_same_results(name):
    """A task that finds a shared object built reads it as the task that
    built it would have: each problem's task results, run in reverse order,
    are its results in reverse order."""
    data = corpus(name)
    forward = run_problem(data)["tasks"]
    assert run_problem(dict(data, tasks=data["tasks"][::-1]))["tasks"] == forward[::-1]


@pytest.mark.parametrize("independent, expr, leading, sections", [
    (["x", "y", "t"], "u[0,0,1] - u[3,0,0] - 6*u[0,0,0]*u[1,0,0]", "u[0,0,1]",
     ["1", "u[0,0,0]"]),
    (["x"], "u[1] - u[0]", "u[1]", ["1", "u[0]"]),
], ids=["x-y-t", "x"])
def test_conservation_laws_need_an_equation_in_x_and_t(tmp_path, capsys, independent, expr,
                                                       leading, sections):
    """The shortcut's current is X dx + T dt: in (x, y, t) its t-flux would
    be labelled dy, and in (x) alone there is no t."""
    data = {"space": {"independent": independent, "dependent": ["u"]},
            "equations": [{"expr": expr, "leading": leading}],
            "tasks": [{"kind": "conservation-laws", "sections": sections}]}
    code, report = _run_json(tmp_path, capsys, data)
    assert code == 1
    assert report["tasks"] == [{
        "task": "conservation-laws", "status": "error",
        "detail": "conservation-law shortcut requires an evolution equation in (x, t)"}]


@pytest.mark.parametrize("name", ["two-rules-conservation", "camassa-holm-conservation"])
def test_conservation_laws_need_an_evolution_equation(capsys, name):
    """In (x, t), the shortcut refuses a presentation with more rules than
    dependents (u_x = u, u_t = u_x) and one whose leading jet is not a first
    t-derivative (Camassa-Holm's u_txx): Presentation.is_evolutionary's two
    refusals, in the traffic problems that reach them."""
    code = main(["run", str(TRAFFIC / f"{name}.json"), "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["tasks"] == [{
        "task": "conservation-laws", "status": "error",
        "detail": "conservation-law shortcut requires an evolution equation in (x, t)"}]


def test_conservation_laws_take_one_expression_per_dependent(tmp_path, capsys):
    """On u_t = v_x, v_t = u_x a section lists one expression per dependent,
    and each current is the library's; a string is a one-dependent section,
    so on this system it is an input error that names both counts, and on
    KdV it reads as its one-entry list."""
    data = json.loads((TRAFFIC / "wave-system-conservation.json").read_text())
    code, report = _run_json(tmp_path, capsys, data)
    assert code == 0
    assert report["tasks"][0]["currents"] == [
        {"dx": "u[0,0]", "dt": "v[0,0]"},
        {"dx": "u[0,0]*v[0,0]", "dt": "1/2*u[0,0]^2 + 1/2*v[0,0]^2"}]
    problem = Problem(data)
    for section, current in zip(data["tasks"][0]["sections"], report["tasks"][0]["currents"]):
        form = conservation_law_from_cosymmetry([parse(e, problem.space) for e in section],
                                                problem.presentation)
        assert current == {"dx": render(form.comps[(0,)]), "dt": render(form.comps[(1,)])}
    wrong = dict(data, tasks=[{"kind": "conservation-laws", "sections": [["1"], "1"]}])
    assert _input_error(tmp_path, capsys, wrong) == (
        2, "input error: section 0 has 1 expressions, but the task needs 2\n")
    kdv = corpus("kdv")
    as_lists = [dict(t, sections=[[x] for x in t["sections"]])
                if t["kind"] == "conservation-laws" else t for t in kdv["tasks"]]
    assert run_problem(dict(kdv, tasks=as_lists))["tasks"] == run_problem(kdv)["tasks"]


@pytest.mark.parametrize("operand, shape, wrong", [
    ("alpha", "3x1", (3, 2)), ("beta", "1x3", (3, 1)), ("alpha_p", "3x1", (1, 3)),
    ("beta_p", "1x3", (1, 1)), ("s1", "1x1", (1, 3)), ("s2", "3x3", (3, 1)),
])
def test_a_witness_operator_of_the_wrong_shape_is_an_input_error(tmp_path, capsys, operand,
                                                                 shape, wrong):
    """kdv-3comp's witness operators are alpha m x m1, beta m1 x m, alpha_p
    l2 x l1, beta_p l1 x l2, s1 m1 x l1 and s2 m x l2 (m = 3 dependents and
    l2 = 3 components of the host, m1 = 1 and l1 = 1 of the witness); any
    other shape is refused before verify_equivalence composes it."""
    data = corpus("kdv-3comp")
    task = next(t for t in data["tasks"] if t["kind"] == "verify-equivalence")
    op = task["witness"][operand]
    assert f"{op['rows']}x{op['cols']}" == shape
    op.update(rows=wrong[0], cols=wrong[1], entries=[])
    assert _input_error(tmp_path, capsys, data) == (
        2, f"input error: witness operator {operand} is {wrong[0]}x{wrong[1]}, "
           f"but the task needs {shape}\n")


@pytest.mark.parametrize("task", [
    {"kind": "verify-hamiltonian", "op": "C"}, {"kind": "compatible", "ops": ["A", "C"]},
], ids=["verify-hamiltonian", "compatible"])
@pytest.mark.parametrize("rows, cols", [(1, 2), (2, 1)])
def test_a_non_square_hamiltonian_operator_is_an_input_error(tmp_path, capsys, task, rows,
                                                             cols):
    """A Hamiltonian operator is tested through its superdensity, which needs
    it square on its space's dependents."""
    data = corpus("kdv")
    data["hamiltonian"]["operators"]["C"] = {"rows": rows, "cols": cols, "entries": []}
    data["tasks"] = [task]
    assert _input_error(tmp_path, capsys, data) == (
        2, f"input error: operator 'C' is {rows}x{cols}, but the task needs 1x1\n")


@pytest.mark.parametrize("name, task, count", [
    ("kdv-3comp", {"kind": "verify-symmetry", "exprs": ["u[1,0]"]}, 3),
    ("kdv", {"kind": "verify-cosymmetry", "exprs": ["1", "u[0,0]"]}, 1),
    ("kdv", {"kind": "verify-shadow", "covering": "potential", "exprs": []}, 1),
    ("kdv", {"kind": "pseudo-apply", "op": "lenard", "exprs": ["u[1,0]", "1"]}, 1),
], ids=["verify-symmetry", "verify-cosymmetry", "verify-shadow", "pseudo-apply"])
def test_an_expression_list_of_the_wrong_count_is_an_input_error(tmp_path, capsys, name,
                                                                task, count):
    """A symmetry or shadow takes one expression per dependent, a cosymmetry
    one per component and a pseudo-operator one per column."""
    n = len(task["exprs"])
    assert _input_error(tmp_path, capsys, dict(corpus(name), tasks=[task])) == (
        2, f"input error: exprs has {n} expressions, but the task needs {count}\n")


def test_the_readme_problem_runs(tmp_path, capsys):
    """README's json problem, in the flat independent/dependent layout with
    one covering: KdV's symmetries and the potential covering's flatness,
    exit 0 (tests/traffic.py runs it as product traffic)."""
    problem, = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    code, report = _run_json(tmp_path, capsys, json.loads(problem))
    assert code == 0
    assert [(t["task"], t["status"]) for t in report["tasks"]] == [
        ("symmetries", "ok"), ("verify-flat", "ok")]


def test_a_thousand_independent_variables_reach_the_monomial_cap(tmp_path, capsys):
    """The jets of 1,000 independents are enumerated without recursion, so the
    symmetry task gets as far as counting its ansatz, beyond the cap."""
    n = 1000

    def jet(i):
        return "u[" + ",".join("1" if k == i else "0" for k in range(n)) + "]"

    data = {"space": {"independent": [f"x{k}" for k in range(n)], "dependent": ["u"]},
            "equations": [{"expr": f"{jet(n - 1)} - {jet(0)}", "leading": jet(n - 1)}],
            "tasks": [{"kind": "symmetries", "order": 1, "degree": 2}]}
    code, err = _input_error(tmp_path, capsys, data)
    assert code == 2
    assert err == f"input error: ansatz of 2003001 monomials beyond the cap of {MAX_MONOMIALS}\n"


def _cache_sizes():
    """The sizes of every process-wide cache of algebra and operators, the
    live interned spaces among them once unreachable cycles are collected."""
    gc.collect()
    return (len(algebra._FACTORS), len(algebra._KEYS), len(algebra._UNITS),
            {key: len(record) for key, record in algebra._PARITIES.items()},
            len(algebra._SPACES),
            {i: len(table) for i, table in algebra._FREE_TABLES.items()},
            operators._leibniz.cache_info().currsize)


def test_the_process_wide_caches_stop_growing_after_the_first_run():
    """Each corpus problem and a KdV cosymmetry solve, run twice in one
    process: the second pass adds nothing to any process-wide cache."""
    space = JetSpace.create(["x", "t"], ["u"])
    kdv = make_presentation(space, [parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", space)],
                            [("u", (0, 1))])
    sizes = []
    for _ in range(2):
        for name in corpus_names():
            run_problem(corpus(name))
        solve_cosymmetries(kdv, Ansatz(5, 3))
        sizes.append(_cache_sizes())
    assert sizes[1] == sizes[0]


def test_every_space_meet_in_a_corpus_pass_is_between_different_spaces(monkeypatch):
    """Equal spaces are one object, so in one pass over the 12 corpus problems
    every `_meet` call either gets one space twice or two spaces that differ:
    covering fields parsed over `extended` land on the covering's own space."""
    calls, meet = [], algebra._meet

    def counting(a, b):
        calls.append((a, b))
        return meet(a, b)
    for module in (algebra, presentations):
        monkeypatch.setattr(module, "_meet", counting)
    for name in corpus_names():
        run_problem(corpus(name))

    def fields(sp):
        return sp.independent, sp.dependent, sp.parameters, sp.nonlocals, sp.odd
    assert len(calls) > 100
    assert [(a, b) for a, b in calls if a is not b and fields(a) == fields(b)] == []
