"""Seeded mutants of the bundled problems: the walk that accepts a problem
file agrees with jsonschema, its oracle, on every one and words each refusal
as jsonschema's best_match does, and building a `Problem` from a mutant either
succeeds or stops with an input error.

Mutation-based fuzzing with a crash oracle (Zeller et al., *The Fuzzing
Book*, "Mutation-Based Fuzzing"), standard library `random` only."""

import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from jetcalc.cli import (_ACCEPT, _TASKS, _TYPED, MAX_D, MAX_NESTING, MAX_SHAPE, PROBLEM_SCHEMA,
                         Problem, _errors, main)
from jetcalc.corpus import corpus, corpus_names
from jetcalc.errors import JetCalcError, ProblemError

ROOT = Path(__file__).resolve().parents[1]
PROBLEM = Draft202012Validator(PROBLEM_SCHEMA)
ROWS = {kind: Draft202012Validator({"properties": typed}) for kind, typed in _TYPED.items()}
EDGES = [2.0, True, math.nan, math.inf, -0.0]
EDITS = ["delete", "retype", "number", "truncate", "nest", "rename", "duplicate", "edge"]
MUTANTS_PER_PROBLEM = 40


def _paths(x, path=()):
    """Every path into `x`, `x` itself first."""
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _at(x, path):
    for k in path:
        x = x[k]
    return x


def _references(data):
    """Paths of the names a task gives for a covering or an operator, and of
    the keys that the namespaces give them."""
    found = [("coverings", k) for k in data.get("coverings", {})]
    found += [("hamiltonian", "operators", k)
              for k in data.get("hamiltonian", {}).get("operators", {})]
    found += [("pseudo_operators", k) for k in data.get("pseudo_operators", {})]
    for i, task in enumerate(data["tasks"]):
        for field, of in _TASKS[task["kind"]][2].items():
            if isinstance(of, str) and field in task:
                found.append(("tasks", i, field))
            elif isinstance(of, list) and field in task:
                found += [("tasks", i, field, j) for j in range(len(task[field]))]
    return found


def _mutant(data, edit, rng):
    """A copy of `data` with one edit of kind `edit` made at a random place."""
    data = copy.deepcopy(data)
    paths = list(_paths(data))
    path = rng.choice(paths[1:])
    parent, key = _at(data, path[:-1]), path[-1]
    value = parent[key]
    if edit == "delete":
        del parent[key]
    elif edit == "retype":
        parent[key] = rng.choice(["x", 3, 2.5, ["u[0,0]"], {"k": 1}, False])
    elif edit == "number":
        numbers = [p for p in paths if type(_at(data, p)) in (int, float)] or [path]
        path = rng.choice(numbers)
        _at(data, path[:-1])[path[-1]] = rng.choice([-1, -7, 10**30, 1e308, 2**64 + 1])
    elif edit == "truncate":
        if isinstance(value, (str, list)):
            parent[key] = value[:len(value) // 2]
        elif isinstance(value, dict):
            parent[key] = dict(list(value.items())[:len(value) // 2])
        else:
            del parent[key]
    elif edit == "nest":
        for _ in range(rng.choice([1, 3, 40, MAX_NESTING + 5])):
            value = rng.choice([[value], {"k": value}])
        parent[key] = value
    elif edit == "rename":
        refs = _references(data)
        if refs:
            path = rng.choice(refs)
            parent, key = _at(data, path[:-1]), path[-1]
            new = rng.choice(["renamed", "A", "B", "potential", "covering", ""])
            if isinstance(parent, dict) and path[0] != "tasks":
                parent[new] = parent.pop(key)  # the namespace's own key
            else:
                parent[key] = new
    elif edit == "duplicate":
        lists = [p for p in paths if isinstance(_at(data, p), list) and _at(data, p)]
        target = _at(data, rng.choice(lists))
        target.append(copy.deepcopy(rng.choice(target)))
    else:  # "edge"
        parent[key] = rng.choice(EDGES)
    return data


def _refusal(validator, instance, where=()):
    """jsonschema's best_match error of `instance` at `where` in the problem, worded
    as the CLI words a schema error, or None."""
    error = best_match(validator.iter_errors(instance))
    if error is not None:
        path = "".join(f"[{p!r}]" for p in (*where, *error.absolute_path))
        return f"{error.message} (at problem{path})"


def _verdict(mutant):
    """The walk's verdicts on a mutant, each checked against jsonschema's,
    and how building its Problem ends: one line, the same on every run.  A
    refusal by a schema prints best_match's error, the problem's own first,
    then each task's row in turn."""
    try:
        fits = not _errors(mutant, PROBLEM_SCHEMA, 0)
    except ProblemError as exc:  # refused before any schema is read
        assert str(exc) == f"problem nested deeper than {MAX_NESTING} levels"
        try:
            Problem(mutant)
        except ProblemError as again:
            assert str(again) == str(exc)
            return "deep"
        raise AssertionError("a problem beyond MAX_NESTING was built")
    refusals = [_refusal(PROBLEM, mutant)]
    assert fits == (refusals[0] is None)
    rows = []
    if fits:
        for i, task in enumerate(mutant["tasks"]):
            if task["kind"] in _TASKS:
                rows.append(not _errors(task, {"properties": _TYPED[task["kind"]]}, 0))
                refusals.append(_refusal(ROWS[task["kind"]], task, ("tasks", i)))
                assert rows[-1] == (refusals[-1] is None)
    assert (not _errors(mutant, _ACCEPT, 0)) == (fits and all(rows))
    refusal = next(filter(None, refusals), None)
    try:
        Problem(mutant)
        outcome = "built"
    except JetCalcError as exc:  # anything else is a crash
        outcome = "schema" if str(exc) == refusal else type(exc).__name__
        # a task's row is read after the fields and names of the tasks before it
        assert refusal in (None, str(exc)) or fits and str(exc).startswith("task "), \
            (str(exc), refusal)
    assert outcome != "built" or refusal is None
    return f"{int(fits)} {''.join(str(int(r)) for r in rows) or '-'} {outcome}"


def _mutation_report(seed):
    """A line per mutant of every bundled problem, for seed `seed`."""
    lines = []
    for name in corpus_names():
        data = corpus(name)
        verdict = _verdict(data)
        assert verdict.startswith("1 ") and verdict.endswith(" built"), name
        rng = random.Random(f"{seed}:{name}")
        for i in range(MUTANTS_PER_PROBLEM):
            edit = EDITS[i % len(EDITS)]
            lines.append(f"{name} {i} {edit} {_verdict(_mutant(data, edit, rng))}")
    return lines


def test_the_walk_accepts_what_jsonschema_accepts():
    """In-process, on the corpus and one seed of mutants."""
    verdicts = [line.split()[3:] for line in _mutation_report(1)]
    outcomes = [v[-1] for v in verdicts]
    # the mutants reach every verdict: built, refused by a schema, refused
    # further in, refused for their depth, and a task row refused in a
    # problem whose own schema accepts it
    assert {"built", "schema", "deep"} <= set(outcomes)
    assert any(o not in ("built", "schema", "deep") for o in outcomes)
    assert any(v[0] == "1" and "0" in v[1] for v in verdicts if len(v) == 3)


def test_mutant_verdicts_do_not_depend_on_the_hash_seed():
    """Fresh processes under PYTHONHASHSEED 0 and 1 pass every check above
    on another seed of mutants, and print the same line for each."""
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import json, test_mutations; "
              "print(json.dumps(test_mutations._mutation_report(2)))")
    outputs = []
    for hash_seed in ("0", "1"):
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "tests")], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == MUTANTS_PER_PROBLEM * len(corpus_names())


# seeds whose mutants set operator terms' D entries beyond MAX_D
D_CASES = [(61, "kdv6"), (231, "boussinesq")]


def _mutants(seed, name):
    """The seeded mutants of a bundled problem, in order, without end."""
    data, rng = corpus(name), random.Random(f"{seed}:{name}")
    for i in itertools.count():
        yield _mutant(data, EDITS[i % len(EDITS)], rng)


@pytest.mark.parametrize("seed, name", D_CASES + [(1, name) for name in corpus_names()])
def test_mutants_run_end_to_end(tmp_path, capsys, seed, name):
    """Every mutant of one seed of a problem through `jetcalc run`: each exit
    is 0, 1 or 2, an exit of 2 prints `input error:`, and none ends in a
    traceback (main would raise it).  Seed 1 runs every bundled problem; the
    D_CASES seeds set operator terms' D entries to 10^30, 1e308 and
    2^64 + 1, which the schema refuses."""
    beyond = 0
    for i, mutant in zip(range(MUTANTS_PER_PROBLEM), _mutants(seed, name)):
        f = tmp_path / f"{i}.json"
        f.write_text(json.dumps(mutant))
        code, err = main(["run", str(f)]), capsys.readouterr().err
        assert code in (0, 1, 2) and (code == 2) == err.startswith("input error: "), (i, err)
        beyond += f"is greater than the maximum of {MAX_D} " in err
    assert beyond >= 2 or (seed, name) not in D_CASES


@pytest.mark.parametrize("seed, name, index, value", [
    (6, "kdv-3comp", 10, 10**30), (4, "kdv", 26, 1e308), (8, "kdv-3comp", 34, 10**30),
], ids=["witness-m1", "hamiltonian-rows", "witness-cols"])
def test_operator_shapes_beyond_their_maximum_are_input_errors(tmp_path, capsys, seed, name,
                                                               index, value):
    """Mutants that set a witness's m1 (range(m1) overflowed), a Hamiltonian
    operator's rows or a witness operator's cols (one list per row, without
    end) beyond MAX_SHAPE are refused by the schema, before any operator is
    built; every bundled shape is inside it."""
    f = tmp_path / "mutant.json"
    f.write_text(json.dumps(next(itertools.islice(_mutants(seed, name), index, None))))
    code, err = main(["run", str(f)]), capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"input error: {value} is greater than the maximum of {MAX_SHAPE} ")
    shapes = [_at(data, p) for data in map(corpus, corpus_names()) for p in _paths(data)
              if p and p[-1] in ("rows", "cols", "m1")]
    assert shapes and max(shapes) <= 3
