"""Statement reach of product traffic: the statements of src/jetcalc that
nothing a user or the benchmark runs ever executes.

    python3 tests/traffic.py

traces, with the standard library's sys.settrace alone, the 12 bundled
problems through `jetcalc.cli.main` (each with and without --json), every
ansatz solve of bench/workloads.SOLVES, one pass of the benchmark's
RouteAgreement(40) and README's python blocks, and prints each statement of
src/jetcalc that none of them executes, as `path:line: text`.  It imports
bench/ and only reads it.  A statement counts as executed when the
interpreter reports a line of it (the header lines alone for a compound
statement) or runs a statement in its body.  pytest does not collect this
file; test_hygiene.py checks `unreached` on a planted function."""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def statements(path: Path):
    """(first line, last line, [direct child statements]) of every statement
    of the file but docstrings and the declarations that compile to no code;
    a compound statement's lines are those of its header."""
    tree = ast.parse(path.read_text(), str(path))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring, or a string left as a comment
        children = [c for field in ("body", "orelse", "finalbody", "handlers")
                    for c in getattr(node, field, ())]
        children = [s for c in children
                    for s in (c.body if isinstance(c, ast.ExceptHandler) else [c])]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = node.end_lineno if not children else min(c.lineno for c in children) - 1
        out[node] = (first, max(first, last), children)
    return out


def unreached(paths, run):
    """(path, line, text) of each statement of the files `paths` that `run()`,
    called under sys.settrace, does not execute."""
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
            first, last, children = stmts[node]
            return any(k in lines for k in range(first, last + 1)) \
                or any(reached(c) for c in children if c in stmts)

        found += ((path, first, text[first - 1].strip())
                  for node, (first, _, _) in stmts.items() if not reached(node))
    return sorted(found, key=lambda f: (str(f[0]), f[1]))


def traffic():
    """The product traffic: the CLI on the corpus, the benchmark's solves and
    route-agreement pass, README's python blocks."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from jetcalc import cli, corpus_names

    import workloads

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name in corpus_names():
            for flags in ([], ["--json"]):
                cli.main(["corpus", name, *flags])
    for label in workloads.SOLVES:
        workloads.solve_case(label)()
    for _, case, check in workloads.RouteAgreement(40).build(0, 0):
        check(case())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        exec(compile(block, "README.md", "exec"), {})


def main():
    paths = sorted((ROOT / "src" / "jetcalc").glob("*.py"))
    found = unreached(paths, traffic)
    for path, line, text in found:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(found)} statements unreached", file=sys.stderr)


if __name__ == "__main__":
    main()
