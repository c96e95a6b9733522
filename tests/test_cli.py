import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from jetcalc import presentations
from jetcalc.cli import (
    _TASKS,
    MAX_DEGREE,
    MAX_ORDER,
    MAX_PROLONG,
    PROBLEM_SCHEMA,
    main,
    run_problem,
)
from jetcalc.corpus import corpus, corpus_names

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


def test_human_and_json_agree(capsys):
    main(["corpus", "heat", "--json"])
    asjson = json.loads(capsys.readouterr().out)
    main(["corpus", "heat"])
    human = capsys.readouterr().out
    for task in asjson["tasks"]:
        for vec in task.get("basis", []):
            for expr in vec:
                assert expr in human


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
    def refuse(*args, **kwargs):
        raise AssertionError("PROBLEM_SCHEMA checked against its metaschema again")
    monkeypatch.setattr(Draft202012Validator, "check_schema", refuse)
    assert run_problem(corpus("heat"))["status"] == "ok"


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
