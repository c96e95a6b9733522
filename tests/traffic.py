"""Statement reach of product traffic: the statements of src/jetcalc that
nothing a user or the benchmark runs ever executes.

    python3 tests/traffic.py

traces, with the standard library's sys.settrace alone, the 12 bundled
problems through `jetcalc.cli.main` (each with and without --json, and one
--emit), the problem files of tests/traffic through `jetcalc run` (with and
without --json), every ansatz solve of bench/workloads.SOLVES, one pass of
the benchmark's RouteAgreement(40), README's python blocks, and the refused
traffic: README's json problem and each case of tests/refused.json through
`jetcalc`, `jetcalc corpus kdv --emit` into a pipe whose reader has gone
and `python -m jetcalc.cli`.  It compares the statements that none of them
executes, `raise` statements like any other, with tests/unreached.txt, one
`module:scope: statement text` line each (scope the dotted name of the
functions and classes around it, `<module>` at the top) under a `#` line
that gives its reason, prints the unreached ones missing from the list, the
listed ones now reached or gone and the cases that end otherwise than they
record, and exits 1 if there are any: so the list only shrinks.  On stderr
it prints its wall time and how many of the raise statements the traffic
reaches.  It imports bench/ and only reads it.  A statement counts as
executed when the interpreter reports a line of it (the header lines alone
for a compound statement) or runs a statement in its body.  pytest does
not collect this file; test_hygiene.py runs it and checks `unreached` on a
planted function."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTED = ROOT / "tests" / "unreached.txt"
PROBLEMS = sorted((ROOT / "tests" / "traffic").glob("*.json"))
REFUSED = ROOT / "tests" / "refused.json"


def statements(path: Path):
    """(first line, last line, [direct child statements], scope) of every
    statement of the file but docstrings and the declarations that compile to
    no code; a compound statement's lines are those of its header, and its
    scope is the dotted name of the functions and classes around it."""
    out = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.stmt) and not _declaration(child):
                children = [c for field in ("body", "orelse", "finalbody", "handlers")
                            for c in getattr(child, field, ())]
                children = [s for c in children
                            for s in (c.body if isinstance(c, ast.ExceptHandler) else [c])]
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", ())])
                last = child.end_lineno if not children else min(c.lineno for c in children) - 1
                out[child] = (first, max(first, last), children, scope)
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), "")
    return out


def _declaration(node):
    """A global or nonlocal declaration, a docstring or a string left as a comment."""
    return isinstance(node, (ast.Global, ast.Nonlocal)) or isinstance(node, ast.Expr) \
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def missed(paths, run):
    """(path, statement node, first line, text, scope) of each statement of the
    files `paths` that `run()`, called under sys.settrace, does not execute."""
    files = {str(Path(p).resolve()): Path(p) for p in paths}
    seen = {name: set() for name in files}

    def local(frame, event, _):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, *_):
        return local if frame.f_code.co_filename in seen else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    found = []
    for name, path in files.items():
        stmts, lines = statements(path), seen[name]
        text = path.read_text().splitlines()

        def reached(node):
            first, last, children, _ = stmts[node]
            return any(k in lines for k in range(first, last + 1)) \
                or any(reached(c) for c in children if c in stmts)

        found += ((path, node, first, text[first - 1].strip(), scope)
                  for node, (first, _, _, scope) in stmts.items() if not reached(node))
    return sorted(found, key=lambda f: (str(f[0]), f[2]))


def unreached(paths, run):
    """(path, line, text) of each statement of the files `paths` that `run()`,
    called under sys.settrace, does not execute."""
    return [(path, line, text) for path, _, line, text, _ in missed(paths, run)]


def entries(found) -> list:
    """The list line of each statement of `missed`."""
    return [f"{path.stem}:{scope or '<module>'}: {text}" for path, _, _, text, scope in found]


def listed() -> list:
    """The entries of tests/unreached.txt, each line but the `#` reasons."""
    return [line for line in LISTED.read_text().splitlines() if not line.startswith("#")]


def differences(found, listed):
    """(the entries `found` that `listed` lacks, the listed ones not found),
    each sorted and counted with its repeats."""
    found, listed = Counter(found), Counter(listed)
    return sorted((found - listed).elements()), sorted((listed - found).elements())


def run_cases(cases) -> list:
    """Run each case through `jetcalc`: {"name", "code", "argv"} as the
    command line, or {"name", "code", "args"} as `jetcalc run` of a temporary
    file holding its "problem" as JSON or its "text", [piece, count] pairs
    each repeated count times.  The line of each that exits with another
    code than its `code`, at exit 2 prints anything but one `input error:
    ...` line or another line than its "stderr", or at another exit prints
    no "detail" it gives."""
    from jetcalc import cli

    wrong, trace = [], sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            argv = case.get("argv")
            if argv is None:
                path = Path(tmp) / "problem.json"
                path.write_text("".join(piece * count for piece, count in case["text"])
                                if "text" in case else json.dumps(case["problem"]))
                argv = ["run", str(path), *case["args"]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            sys.settrace(trace)  # a RecursionError that reaches the tracer unsets it
            lines = err.getvalue().splitlines()
            if code != case["code"] or (code == 2 and not (
                    len(lines) == 1 and lines[0].startswith("input error: ")
                    and lines[0] == case.get("stderr", lines[0]))) \
                    or case.get("detail", "") not in out.getvalue():
                wrong.append(f"{case['name']}: exit {code}, expected {case['code']}, "
                             f"stderr {err.getvalue()!r}")
    return wrong


def closed_stdout(cli) -> int:
    """`jetcalc corpus kdv --emit` into a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as pipe, contextlib.redirect_stdout(pipe):
        return cli.main(["corpus", "kdv", "--emit"])


def _as_module(argv) -> int:
    """`python -m jetcalc.cli *argv`, in this process."""
    saved = sys.argv
    sys.argv = ["jetcalc", *argv]
    try:
        runpy.run_module("jetcalc.cli", run_name="__main__")
    except SystemExit as done:
        return done.code
    finally:
        sys.argv = saved


def traffic() -> list:
    """The product traffic: the CLI on the corpus and on the traffic problems,
    the benchmark's solves and route-agreement pass, README's python blocks,
    and the refused traffic; the line of each case that ends otherwise than
    it records, as run_cases."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from jetcalc import cli, corpus_names

    import workloads

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name in corpus_names():
            for flags in ([], ["--json"]):
                cli.main(["corpus", name, *flags])
        cli.main(["corpus", "kdv", "--emit"])
        for path in PROBLEMS:
            for flags in ([], ["--json"]):
                cli.main(["run", str(path), *flags])
    for label in workloads.SOLVES:
        workloads.solve_case(label)()
    for _, case, check in workloads.RouteAgreement(40).build(0, 0):
        check(case())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        exec(compile(block, "README.md", "exec"), {})
    problem, = re.findall(r"```json\n(.*?)```", readme, re.S)
    wrong = run_cases([{"name": "README.md", "args": [], "code": 0,
                        "problem": json.loads(problem)}, *json.loads(REFUSED.read_text())])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name, code, got in (("closed stdout", 1, closed_stdout(cli)),
                                ("python -m jetcalc.cli", 0, _as_module(["corpus", "heat"]))):
            if got != code:
                wrong.append(f"{name}: exit {got}, expected {code}")
    return wrong


def report(new, stale, wrong) -> int:
    """Print the unreached statements not listed, the listed ones reached or
    gone and the cases that ended otherwise; exit code 1 if there are any."""
    for title, lines in ((f"unreached, not listed in {LISTED.relative_to(ROOT)}", new),
                         (f"listed in {LISTED.relative_to(ROOT)}, but reached or gone", stale),
                         ("cases that ended otherwise than recorded", wrong)):
        if lines:
            print(f"{title}:", *lines, sep="\n  ")
    return 1 if new or stale or wrong else 0


def main():
    start, wrong = time.perf_counter(), []
    sources = sorted((ROOT / "src" / "jetcalc").glob("*.py"))
    found = missed(sources, lambda: wrong.extend(traffic()))
    known = listed()
    new, stale = differences(entries(found), known)
    raises = sum(isinstance(node, ast.Raise) for path in sources for node in statements(path))
    unreached_raises = sum(isinstance(node, ast.Raise) for _, node, *_ in found)
    print(f"{len(found)} statements unreached, {len(known)} listed; "
          f"{raises - unreached_raises} of {raises} raise statements reached; "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return report(new, stale, wrong)


if __name__ == "__main__":
    sys.exit(main())
