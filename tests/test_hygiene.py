"""Source hygiene of the jetcalc package, checked with the stdlib ast module:
no definition that nothing references, no unused import, no parameter
that its function never reads, and no module but operators.py that touches
an operator's coefficient table."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jetcalc"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Module-level names and the functions and methods defined anywhere."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _references(tree):
    """Every name read, attribute taken or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_definition_is_referenced():
    used = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests"):
        used.update(_references(tree))
    dead = [f"{path.name}: {name}" for path, tree in _trees(PACKAGE)
            for name in _definitions(tree)
            if not _is_dunder(name) and name not in used]
    assert dead == []


def test_every_import_is_used():
    unused = []
    for path, tree in _trees(PACKAGE):
        if path.name == "__init__.py":  # re-exports the public interface
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend(f"{path.name}: {name}" for name in names if name not in read)
    assert unused == []


def test_every_parameter_is_read():
    unread = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(f"{path.name}:{node.lineno}: {a.arg}" for a in params
                          if a.arg not in read and a.arg not in ("self", "cls"))
    assert unread == []


def test_only_operators_touches_the_operator_table():
    """CDiffOp's {(row, col): {I: a_I}} table is read and written in
    operators.py alone; other modules build operators from terms."""
    touching = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
                if path.name != "operators.py" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert touching == []
