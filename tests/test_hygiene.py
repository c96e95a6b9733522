"""Source hygiene of the jetcalc package, checked with the stdlib ast module:
no unused import, no parameter that its function never reads, no default
that no product caller (the package, the benchmark, README's python blocks;
not the tests) overrides, no parameter that every product call passes the
same literal, no local that its function never reads, no module
but operators.py that touches an operator's coefficient table, no module but
algebra.py (and, among the tests, the monomials helper) that knows the
monomial format, no write to an expression's terms, no Fraction in the inner
kernels, no import inside a function, none from outside jetcalc and the
standard library, a presentation's rule caches assigned only when it is
built, rename_space called only where RENAMES says, incompatible spaces
refused by one raise, every dataclass frozen, no self-recursion but a few of
bounded depth, no export that the CLI does not reach, the benchmark does not import and
README's python blocks do not read, and one reach check of what is unused:
no module-level function or assignment, class or method that none of them
reaches; on built objects, no dataclass or operator table holding a plain
dict or list at any depth; README's python blocks run as printed; the
statement-reach tracer of tests/traffic.py reports only what a run leaves
unexecuted, and product traffic leaves unreached only the statements listed
in tests/unreached.txt; every task kind has an oracle in ORACLES; and every
third-party module that a test imports is in pyproject.toml's test extra."""

import ast
import copy
import dataclasses
import importlib
import pkgutil
import re
import subprocess
import sys
from functools import cache
from pathlib import Path
from types import MappingProxyType

import pytest

import jetcalc
from jetcalc import cli
from jetcalc import (
    Ansatz,
    CDiffOp,
    EquivalenceWitness,
    HorizontalForm,
    PseudoOp,
    conservation_law_from_cosymmetry,
    corpus_names,
    cotangent_covering,
    parse,
)
from constructs import abelian_from_current, d_h, scale, Superdensity, to_superdensity
import traffic

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jetcalc"


@cache
def _parsed(path):
    """The file's tree, parsed once per session: no check changes a tree
    (`_repeated_runs` renames in a deep copy)."""
    return ast.parse(path.read_text(), str(path))


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, _parsed(path)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _references(tree, walk=ast.walk):
    """(name, whether it is taken as an attribute) of every name read,
    attribute taken or name imported among the nodes `walk(tree)`."""
    for node in walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, False) for alias in node.names)


def _is_method(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(node.name)


def _defined(tree):
    """(dotted name, node, whether it is a method) of each module-level
    function and assignment, each class at any depth and each non-dunder
    method of one, in source order."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                dotted = scope + child.name
                if isinstance(child, ast.ClassDef) or node is tree:
                    yield dotted, child, False
                elif isinstance(node, ast.ClassDef) and _is_method(child):
                    yield dotted, child, True
                yield from visit(child, f"{dotted}.")
            else:
                if node is tree and isinstance(child, (ast.Assign, ast.AnnAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    yield from ((t.id, child, False) for t in targets if isinstance(t, ast.Name))
                yield from visit(child, scope)
    return visit(tree, "")


def _reached(trees, roots):
    """The (name, whether taken as an attribute) pairs reached from `roots`,
    such pairs, through the name graph of the modules `trees`: a definition
    of `_defined` reaches each name it reads or imports and each attribute
    it takes, but for those in the non-dunder methods of its classes, each a
    definition of its own; a name reaches each definition of that name but
    the methods, and an attribute reaches those and the methods too."""
    def walk(node):
        yield node
        for child in ast.iter_child_nodes(node):
            if not (isinstance(node, ast.ClassDef) and _is_method(child)):
                yield from walk(child)

    defs = {}
    for tree in trees:
        for dotted, node, method in _defined(tree):
            defs.setdefault(dotted.rpartition(".")[2], []).append((node, method))
    reached, work = set(), list(roots)
    while work:
        key = work.pop()
        if key not in reached:
            reached.add(key)
            name, attribute = key
            work.extend(ref for node, method in defs.get(name, ()) if attribute or not method
                        for ref in _references(node, walk))
    return reached


def _readme_blocks(text):
    """The trees of README's python blocks, which tests/traffic.py runs; its
    prose names nothing that counts."""
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def _unreached_exports(package, outside, readme):
    """Names that the package's __init__ (`package["jetcalc"]`, of the modules
    {name: tree} in `package`) imports and that nothing uses: not reached from
    the `main` of `package["cli"]` by the name graph of the package's modules,
    imported from jetcalc by none of the trees `outside`, and read by none of
    README's python blocks `readme`."""
    reached = {name for name, _ in _reached(package.values(), [("main", False)])}
    imported = {alias.name for tree in outside for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "jetcalc" for alias in node.names}
    read = {name for tree in readme for name, _ in _references(tree)}
    exported = [alias.asname or alias.name for node in package["jetcalc"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    return [name for name in exported if name not in reached | imported | read]


def test_every_export_is_used():
    """What the package exports is what the CLI runs, the benchmark imports or
    README's python blocks run: a construct that only the tests reach lives
    beside them (tests/spans.py, tests/constructs.py)."""
    package = {_module_name(path): tree for path, tree in _trees(PACKAGE)}
    bench = [tree for _, tree in _trees(ROOT / "bench")]
    readme = _readme_blocks((ROOT / "README.md").read_text())
    assert _unreached_exports(package, bench, readme) == []


def test_the_export_check_sees_a_planted_export():
    package = {
        "jetcalc": ast.parse("from .lib import Expr, LIMIT, documented, planted, solve, timed\n"
                             "from .corpus import corpus\n"),
        "cli": ast.parse("""
from .lib import solve

def main(argv=None):
    return solve(argv).render()
"""),
        "lib": ast.parse("""
LIMIT = 3

class Expr:
    def __init__(self):
        self.n = helper(LIMIT)

    def render(self):
        return str(self.n)

    def planted(self):
        return planted() + corpus()

def helper(n):
    return n

def solve(argv):
    return Expr()

def planted():
    pass

def timed():
    pass

def documented():
    pass
"""),
        "corpus": ast.parse("def corpus():\n    pass\n"),
    }
    bench = [ast.parse("def run():\n    from jetcalc.lib import timed\n    return timed()\n")]
    readme = _readme_blocks("`planted` is named\n```python\ndocumented()\n```\n")
    assert _unreached_exports(package, bench, readme) == ["planted", "corpus"]
    readme += _readme_blocks("```python\nfrom jetcalc import *\n\ncorpus()\n```")
    assert _unreached_exports(package, [], readme) == ["planted", "timed"]


def _unreached_definitions(package, outside, readme):
    """The definitions of `_defined` in the modules {name: tree} in `package`
    that nothing reaches by the name graph from the `main` of
    `package["cli"]`, from the names and attributes the trees `outside` and
    README's python blocks `readme` read, or from each dotted string in a
    `LAYERS` table of `outside`, read as an attribute of its last part."""
    layers = [node.value for tree in outside for node in tree.body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "LAYERS"]
    roots = [("main", False)]
    roots += (ref for tree in [*outside, *readme] for ref in _references(tree))
    roots += ((node.value.rpartition(".")[2], True) for table in layers
              for node in ast.walk(table)
              if isinstance(node, ast.Constant) and isinstance(node.value, str))
    reached = _reached(package.values(), roots)
    return [f"{module}: {dotted}" for module, tree in package.items()
            for dotted, _, method in _defined(tree)
            if (name := dotted.rpartition(".")[2], True) not in reached
            and (method or (name, False) not in reached)]


def test_every_definition_is_reached():
    """Each module-level function and assignment, class and method of the
    package is reached from what the CLI runs, the benchmark reads or README's
    python blocks run, not only from the tests; a method only as an attribute,
    so a function, local or field of the same name does not hide it."""
    package = {_module_name(path): tree for path, tree in _trees(PACKAGE)}
    bench = [tree for _, tree in _trees(ROOT / "bench")]
    readme = _readme_blocks((ROOT / "README.md").read_text())
    assert _unreached_definitions(package, bench, readme) == []


def test_the_reach_check_sees_a_planted_definition():
    """What only the tests would reach is reported: a method, a function, a
    constant, a nested class, and a method whose name only a same-named
    function's call reads."""
    package = {
        "cli": ast.parse("""
from .lib import solve

def main(argv=None):
    return solve(argv).render()
"""),
        "lib": ast.parse("""
LIMIT = 3
UNUSED = 4

class Expr:
    class Cache:
        pass

    def __init__(self):
        self.n = helper(LIMIT)

    def render(self):
        return str(self.n)

    def planted(self):
        return timed()

    def documented(self):
        pass

    def helper(self):
        pass

def helper(n):
    return n

def solve(argv):
    return Expr()

def timed():
    pass

def wrapped():
    pass

def planted():
    pass
"""),
    }
    bench = [ast.parse("""
LAYERS = {"lib.wrapped": ("jetcalc.lib", "wrapped")}

def run():
    from jetcalc.lib import timed
    return timed()
""")]
    readme = _readme_blocks("`planted` is named\n```python\nExpr().documented()\n```\n")
    planted = ["lib: UNUSED", "lib: Expr.Cache", "lib: Expr.planted", "lib: Expr.helper"]
    assert _unreached_definitions(package, bench, readme) == planted + ["lib: planted"]
    assert _unreached_definitions(package, bench[:0], readme) == planted + [
        "lib: timed", "lib: wrapped", "lib: planted"]


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


def _third_party_imports(trees, local):
    """The top-level names of the modules that the trees import or
    `importorskip`, but for the standard library's, jetcalc's and those
    named in `local`."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module)
            elif isinstance(node, ast.Call) and _callee(node) == "importorskip" and node.args \
                    and isinstance(node.args[0], ast.Constant):
                found.add(node.args[0].value)
    return {name.split(".")[0] for name in found} - set(sys.stdlib_module_names) \
        - {"jetcalc"} - local


def test_every_third_party_test_import_is_in_the_test_extra():
    """`pip install .[test]` installs what the tests import, so that no
    `importorskip` oracle is skipped on a fresh install."""
    tomllib = pytest.importorskip("tomllib")
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "optional-dependencies"]["test"]
    named = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
             for req in extra}
    local = {path.stem for d in (ROOT / "tests", ROOT / "bench") for path in d.glob("*.py")}
    trees = [tree for _, tree in _trees(ROOT / "tests")]
    assert sorted(_third_party_imports(trees, local) - named) == []


def test_the_extra_check_sees_a_planted_import():
    tree = ast.parse("import os, numpy.linalg\nfrom scipy import sparse\nfrom . import x\n"
                     "import jetcalc.cli\nimport helper\npd = pytest.importorskip('pandas')\n")
    assert _third_party_imports([tree], {"helper"}) == {"numpy", "scipy", "pandas"}


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


def _unread_locals(tree):
    """(line, name) of each name assigned in a function, alone or inside a
    tuple target, that nothing in the function (nested functions included)
    reads; a name that starts with '_' is exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in ast.walk(node):
            if not (isinstance(n, ast.Assign) and len(n.targets) == 1):
                continue
            for t in ast.walk(n.targets[0]):
                if isinstance(t, ast.Name) and not t.id.startswith("_") and t.id not in read:
                    yield n.lineno, t.id


def test_every_local_is_read():
    unread = sorted({f"{path.name}:{line}: {name}" for path, tree in _trees(PACKAGE)
                     for line, name in _unread_locals(tree)})
    assert unread == []


def test_the_locals_check_sees_an_unread_name():
    source = """
def f(a):
    kept = a + 1
    dead = [a]
    x, y = a, a
    (_, z), w = a
    k = z

    def g():
        return kept
    return g
"""
    assert list(_unread_locals(ast.parse(source))) == [
        (4, "dead"), (5, "x"), (5, "y"), (6, "w"), (7, "k")]


def _monomial_readers(tree):
    """Nodes that read a DiffExpr's term dict (`x.terms`, but not a call of
    CDiffOp's `terms()` method) or build a DiffExpr from one."""
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "terms" \
                and id(node) not in calls:
            yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "DiffExpr":
            yield node


def test_only_algebra_knows_the_monomial_format():
    """A monomial's layout and the {monomial: coefficient} dict are known
    in algebra.py alone; other modules use the JetSpace constructors, the
    ring operations and DiffExpr's accessors.  The tests do the same, but
    for tests/monomials.py, which decodes monomials for the tests that
    spell them out."""
    readers = [f"{path.name}:{node.lineno}"
               for path, tree in _trees(PACKAGE, ROOT / "tests")
               if path.name not in ("algebra.py", "monomials.py")
               for node in _monomial_readers(tree)]
    assert readers == []


def test_the_monomial_check_spares_the_operator_terms_method():
    source = """
def f(space, e, op):
    for r, c, I, a in op.terms():
        pass
    return e.terms, len(e.terms), DiffExpr(space, {}), e.terms.items()
"""
    lines = [node.lineno for node in _monomial_readers(ast.parse(source))]
    assert lines == [5, 5, 5, 5]


def test_only_operators_touches_the_operator_table():
    """CDiffOp's {(row, col): {I: a_I}} table is read and written in
    operators.py alone; other modules build operators from terms."""
    touching = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
                if path.name != "operators.py" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert touching == []


def _terms_writes(tree):
    """Nodes that change a DiffExpr's term dict in place: `x.terms[k] = v`,
    `del x.terms[k]`, `x.terms.update(...)` and the like, or an assignment
    to `x.terms` anywhere but DiffExpr.__init__."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "DiffExpr":
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    allowed.update(map(id, ast.walk(f)))

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_terms(node.value) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and is_terms(node.func.value) and node.func.attr in (
                    "update", "pop", "popitem", "clear", "setdefault", "__setitem__",
                    "__delitem__"):
            yield node
        elif is_terms(node) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and id(node) not in allowed:
            yield node


def test_no_module_writes_an_expression_in_place():
    """A DiffExpr is immutable, which is what lets it cache its free total
    derivatives: no module writes its term dict after construction."""
    writes = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
              for node in _terms_writes(tree)]
    assert writes == []


def test_the_terms_check_sees_every_kind_of_write():
    source = """
class DiffExpr:
    def __init__(self, space, terms):
        self.terms = terms

def f(e, m):
    e.terms[m] = 1
    del e.terms[m]
    e.terms.update({})
    e.terms.pop(m)
    e.terms.setdefault(m, 0)
    e.terms.clear()
    e.terms = {}
    e.terms |= {}
    return e.terms.get(m), e.terms[m], len(e.terms)
"""
    lines = [node.lineno for node in _terms_writes(ast.parse(source))]
    assert sorted(lines) == [7, 8, 9, 10, 11, 12, 13, 14]


# the kernels that run on int numerators over one denominator
INT_KERNELS = ("total_derivative", "_mul_into", "raw_sum", "sum_of_terms", "sum_of_products",
               "partial", "substitute", "__add__", "_sum", "euler")


def _fraction_uses(tree):
    """(function, line) of each `Fraction(...)` call and each read of the
    old per-coefficient helper `_q` inside a function named in INT_KERNELS."""
    for f in ast.walk(tree):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name in INT_KERNELS:
            for node in ast.walk(f):
                if isinstance(node, ast.Call) and _callee(node) == "Fraction" \
                        or isinstance(node, ast.Name) and node.id == "_q":
                    yield f.name, node.lineno


def test_the_kernels_build_no_fraction():
    """Coefficients are int numerators over one denominator per expression;
    a Fraction is built only at the boundary, never in an inner kernel."""
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    defined = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert set(INT_KERNELS) <= defined
    assert list(_fraction_uses(tree)) == []


def test_the_fraction_check_sees_a_planted_fraction():
    source = """
class DiffExpr:
    def __add__(self, other):
        return Fraction(1, 2)

    def render(self):
        return Fraction(3)

def total_derivative(e):
    c = _q(e)
    return fractions.Fraction(c)

def euler(e):
    def inner(x):
        return _q
    return inner
"""
    found = sorted(_fraction_uses(ast.parse(source)), key=lambda use: use[1])
    assert found == [("__add__", 4), ("total_derivative", 10), ("total_derivative", 11),
                     ("euler", 15)]


def _callee(call):
    """The name a call is made by: `f(...)`, `x.f(...)` or `C(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _signatures(tree):
    """(callee name, function, skip, qualified name) of each function and
    method: a method skips its self or cls argument, is qualified by its
    class's name, and __init__ is called by that name."""
    owner = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        skip = 1 if id(f) in owner and not static else 0
        cls = owner.get(id(f))
        yield cls if f.name == "__init__" and cls else f.name, f, skip, \
            f.name if cls is None else cls if f.name == "__init__" else f"{cls}.{f.name}"


def _defaulted_parameters(f, skip):
    """(positional index or None, parameter) of each parameter of the
    function f that has a default, the index counted after `skip`
    arguments."""
    args = f.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for k, a in enumerate(positional[first:], first):
        yield k - skip, a.arg
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield None, a.arg


def _module_name(path):
    return path.parent.name if path.stem == "__init__" else path.stem


def _product_calls(defining, calling):
    """(call, its positional arguments, the ids of the definitions it
    reaches, whether its arguments are a partial's) of each call in the
    modules `calling`, among the functions and methods of `_signatures` in
    the modules `defining` and `calling` ({module name: tree}).  `f(...)`
    reaches the module-level f of its own module, or of the module it
    imports f from, followed through re-exports (else every f); `m.f(...)`,
    m a module imported by name, the module-level f of m; `C.f(...)`, C a
    class of its own module or imported, C's method f alone, its explicit
    self dropped from the arguments of a plain method; and `x.f(...)` every
    function and method named f.  `partial(f, ...)` is a call of f."""
    modules = {**calling, **defining}
    every, top, members, imported, stars = {}, {}, {}, {}, {}
    for module, tree in modules.items():
        for name, f, _, _ in _signatures(tree):
            every.setdefault(name, set()).add(id(f))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                inits = [f for f in node.body if getattr(f, "name", None) == "__init__"]
                top[module, node.name] = {id(f) for f in inits or [node]}
                members[module, node.name] = {
                    f.name: (id(f), not {getattr(d, "id", None) for d in f.decorator_list}
                             & {"staticmethod", "classmethod"})
                    for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                top[module, node.name] = {id(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                for a in node.names:
                    if a.name == "*":
                        stars.setdefault(module, []).append(source)
                    else:
                        imported[module, a.asname or a.name] = source, a.name

    def resolve(key):  # through imports, star imports too, to a definition if any
        while key not in top:
            module, name = key
            via = [(s, name) for s in stars.get(module, ())
                   if (s, name) in top or (s, name) in imported]
            key = imported.get(key) or (via[0] if via else None)
            if key is None:
                return module, name
        return key

    def reach(module, func):  # (ids reached, whether an explicit self comes first)
        name = getattr(func, "id", getattr(func, "attr", None))
        if isinstance(func, ast.Name) and ((key := resolve((module, name))) in top
                                           or key != (module, name)):
            return top.get(key, set()), False
        owner = getattr(func, "value", None)
        if isinstance(owner, ast.Name):
            key = resolve((module, owner.id))
            if name in members.get(key, {}):
                target, plain = members[key][name]
                return {target}, plain
            if (module, owner.id) in imported and key not in top and key[1] in modules:
                return top.get(resolve((key[1], name)), set()), False
        return every.get(name, set()), False

    for module, tree in calling.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            deferred = _callee(call) == "partial" and bool(args)
            if deferred:
                func, args = args[0], args[1:]
            targets, explicit_self = reach(module, func)
            yield call, args[explicit_self:], targets, deferred


def _unpassed_defaults(defining, calling):
    """`module: name(parameter)` of each defaulted parameter of a function
    in the modules `defining` ({module name: tree}) that no call in the
    modules `calling` passes, calls reaching definitions as
    `_product_calls` says.  A call passes a parameter by keyword to each
    definition it reaches (**kwargs passes every one), and by position
    (*args passes every one) only when it reaches one definition."""
    most, keywords = {}, {}
    for call, args, targets, _ in _product_calls(defining, calling):
        n = len(args)
        if any(isinstance(a, ast.Starred) for a in args):
            n = float("inf")
        for target in targets:
            if len(targets) == 1:
                most[target] = max(most.get(target, 0), n)
            keywords.setdefault(target, set()).update(k.arg for k in call.keywords)
    for module, tree in defining.items():
        for name, f, skip, _ in _signatures(tree):
            kws = keywords.get(id(f), set())
            for k, param in _defaulted_parameters(f, skip):
                if param not in kws and None not in kws \
                        and (k is None or most.get(id(f), 0) <= k):
                    yield f"{module}: {name}({param})"


def _literal(node):
    """The node's dump when it is a literal (what ast.literal_eval reads),
    else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def _passed_values(f, skip, call, args, deferred):
    """{parameter: the literal dump that the call passes it, or None when it
    passes something else or the call does not say} of the function f,
    whose first `skip` parameters the call does not pass: an omitted
    parameter takes its default, but *args, **kwargs or a partial's later
    call may pass it."""
    a = f.args
    every = a.posonlyargs + a.args
    defaults = {p.arg: d for p, d in zip(every[len(every) - len(a.defaults):], a.defaults)}
    defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    names = [p.arg for p in every[skip:]]
    starred = next((k for k, x in enumerate(args) if isinstance(x, ast.Starred)), len(names))
    given = dict(zip(names, args[:starred]))
    given.update((k.arg, k.value) for k in call.keywords if k.arg)
    spread = any(k.arg is None for k in call.keywords)
    out = {}
    for k, name in enumerate(names + [p.arg for p in a.kwonlyargs]):
        node = given.get(name)
        if node is None and not (deferred or spread or starred <= k < len(names)):
            node = defaults.get(name)
        out[name] = node and _literal(node)
    return out


def _constant_parameters(defining, calling):
    """`module: name(parameter)` of each parameter of a function in the
    modules `defining` that at least two calls in the modules `calling`
    reach and that every one of them passes the same literal (an omitted
    parameter passes its default), calls reaching definitions as
    `_product_calls` says.  Only a call that reaches one definition counts:
    one that reaches several cannot tell which receives its arguments."""
    signatures = {id(f): (module, name, f, skip) for module, tree in defining.items()
                  for _, f, skip, name in _signatures(tree)}
    values = {}
    for call, args, targets, deferred in _product_calls(defining, calling):
        if len(targets) == 1 and (target := next(iter(targets))) in signatures:
            _, _, f, skip = signatures[target]
            values.setdefault(target, []).append(_passed_values(f, skip, call, args, deferred))
    for target, (module, name, f, skip) in signatures.items():
        passed = values.get(target, [])
        for param in passed[0] if len(passed) > 1 else ():
            seen = {v[param] for v in passed}
            if len(seen) == 1 and None not in seen:
                yield f"{module}: {name}({param})"


@cache
def _product_modules():
    """(defining, calling): the package's modules, and those with the
    benchmark's and README's python blocks (as one module), the product
    callers; the tests are not among them."""
    trees = list(_trees(PACKAGE, ROOT / "bench"))
    calling = {_module_name(path): tree for path, tree in trees}
    assert len(calling) == len(trees)  # no two modules share a name
    blocks = _readme_blocks((ROOT / "README.md").read_text())
    calling["README"] = ast.Module([s for b in blocks for s in b.body], [])
    package = {_module_name(path) for path in PACKAGE.glob("*.py")}
    return {module: tree for module, tree in calling.items() if module in package}, calling


def test_every_default_is_passed_somewhere():
    """A default that no product caller overrides is a constant in
    disguise: an argument that only a test passes does not keep it."""
    assert list(_unpassed_defaults(*_product_modules())) == []


def test_no_parameter_is_passed_one_literal_by_every_call():
    """A parameter that every product call passes the same literal is a
    constant in disguise too, whatever the tests pass."""
    assert list(_constant_parameters(*_product_modules())) == []


def test_the_constant_check_sees_a_planted_parameter():
    """Two calls of one literal report a parameter, through an imported
    class's method too (a plain method's explicit self dropped) and with an
    omitted default; one call, two literals, a non-literal, *args, a
    partial or a call that reaches two definitions keeps it."""
    defining = ast.parse("""
def f(a, b, c=0, *, d=None):
    pass

def g(x, y):
    pass

class Op:
    def __init__(self, n, table):
        pass

    @classmethod
    def unit(cls, space, i):
        pass

    def apply(self, v, w):
        pass

class Other:
    def apply(self, v, w):
        pass
""")
    calling = ast.parse("""
from functools import partial
from lib import *
f(1, 0, d=None)
f(k, 0, c=0)
g(0, 1)
Op(2, None)
Op(n, None)
Op.unit(sp, 0)
Op.unit(sp, 0)
Op.apply(op, 1, v)
Op.apply(op, 1, w)
op.apply(1, 1)
op.apply(1, 1)
partial(g, 2)
g(*args)
""")
    assert list(_constant_parameters({"lib": defining}, {"user": calling})) == [
        "lib: f(b)", "lib: f(c)", "lib: f(d)", "lib: Op(table)", "lib: Op.unit(i)",
        "lib: Op.apply(v)"]


def test_the_default_check_sees_an_unpassed_parameter():
    defining = ast.parse("""
def f(a, b=1, c=2, *, d=3, e=4):
    pass

class C:
    def __init__(self, x=0, y=0):
        pass

    def m(self, p=0, q=0):
        pass

    @staticmethod
    def s(r=0):
        pass
""")
    calling = ast.parse("""
from lib import f, C
f(0, 1, d=5)
C(1)
obj.m(**opts)
C.s(*args)
""")
    assert list(_unpassed_defaults({"lib": defining}, {"user": calling})) == [
        "lib: f(c)", "lib: f(e)", "lib: C(y)"]


def test_the_default_check_tells_same_named_definitions_apart():
    """A call that reaches two definitions of its name passes neither's
    defaults by position; a keyword passes the parameter of that name, and
    an imported function is told apart from another module's."""
    defining = ast.parse("""
class A:
    def m(self, p=0):
        pass

class B:
    def m(self, a, b=0):
        pass

    def n(self, c=0):
        pass

def main(argv=None):
    pass
""")
    other = ast.parse("""
from lib import main as run

def main(argv=None):
    run(["x"])
""")
    calling = ast.parse("""
from other import run
obj.m(1, b=2)
obj.n(1)
run(["y"])
""")
    assert list(_unpassed_defaults({"lib": defining, "other": other},
                                   {"user": calling, "other": other})) == [
        "lib: m(p)", "other: main(argv)"]


def test_the_default_check_follows_a_module_and_a_partial():
    """`m.f(...)` through a module imported by name reaches that module's f
    alone, so it passes f's defaults by position, and `partial(f, ...)`
    passes what a call of f with those arguments passes."""
    defining = {"lib": ast.parse("""
def main(argv=None):
    pass

def helper(a, b=0, c=0):
    pass

class Op:
    def columns(self, e, d=None):
        pass
"""), "run": ast.parse("def main(argv=None):\n    pass\n")}
    calling = ast.parse("""
from functools import partial
from jetcalc import lib
lib.main(["x"])
partial(lib.helper, 1, 2)
partial(op.columns, d=step)
""")
    assert list(_unpassed_defaults(defining, {"user": calling})) == [
        "lib: helper(c)", "run: main(argv)"]


def _linearization_rebuilds(tree):
    """Nodes that rebuild what a Presentation caches: `.adjoint()` of a
    `linearization(...)` call, made directly or through a name that the same
    function assigns one, and `linearize(...)` of an argument that reads
    `.components`."""
    def calls(node, name):
        return isinstance(node, ast.Call) and _callee(node) == name

    found = {}
    for scope in [tree] + [f for f in ast.walk(tree)
                           if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        named = {t.id for n in ast.walk(scope)
                 if isinstance(n, ast.Assign) and calls(n.value, "linearization")
                 for t in n.targets if isinstance(t, ast.Name)}
        for node in ast.walk(scope):
            if calls(node, "adjoint") and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if calls(owner, "linearization") or getattr(owner, "id", None) in named:
                    found[id(node)] = node
            elif calls(node, "linearize") and any(
                    isinstance(a, ast.Attribute) and a.attr == "components"
                    for arg in node.args for a in ast.walk(arg)):
                found[id(node)] = node
    return sorted(found.values(), key=lambda node: node.lineno)


def test_only_presentations_builds_the_linearizations():
    """l_F and l_F* are built once per presentation, by
    Presentation.linearization(adjoint=...); other modules read them there
    instead of taking an adjoint or a linearization of their own."""
    rebuilds = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
                if path.name != "presentations.py" for node in _linearization_rebuilds(tree)]
    assert rebuilds == []


def test_the_linearization_check_sees_every_rebuild():
    source = """
def f(pres, delta, psi):
    L = pres.linearization()
    a = L.adjoint()
    b = pres.linearization().adjoint()
    c = linearize(list(pres.components), pres.space)
    d = pres.linearization(adjoint=True)
    e = delta.adjoint().compose(d)
    g = linearize(psi)

    def h():
        return L.adjoint()
    return a, b, c, e, g, h
"""
    lines = [node.lineno for node in _linearization_rebuilds(ast.parse(source))]
    assert lines == [4, 5, 6, 12]


RULE_CACHES = ("_jet_rules", "_towers", "_d_tables", "_ops", "_cofactors")


def _rule_cache_resets(tree):
    """(line, function, cache) of each place that empties, replaces or
    deletes from one of a Presentation's rule caches: an assignment to it,
    a `del` of it or of an entry, or a call of its `clear`, `pop` or
    `popitem`; the function is the innermost one around it."""
    def cache(node):
        return node.attr if isinstance(node, ast.Attribute) and node.attr in RULE_CACHES \
            else None

    owner = {}
    for f in ast.walk(tree):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(f):
                owner[id(node)] = f.name  # inner functions are walked later
    found = []
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            name = cache(node)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Del):
            name = cache(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("clear", "pop", "popitem"):
            name = cache(node.func.value)
        if name:
            found.append((node.lineno, owner.get(id(node), "<module>"), name))
    return sorted(found)


def test_the_rule_caches_are_emptied_in_one_place():
    """The jets' rules, their normal forms' towers, the D_i tables, the
    memo of derived operators and reduce's tagged presentations are built
    from the rules and components, which do not change once a presentation
    is built, so each is assigned once, in Presentation.__init__, and never
    emptied."""
    sites = [(path.name, function, name) for path, tree in _trees(PACKAGE)
             for _, function, name in _rule_cache_resets(tree)]
    assert sorted(sites) == [("presentations.py", "__init__", name)
                             for name in sorted(RULE_CACHES)]


def test_the_rule_cache_check_sees_every_reset():
    source = """
class P:
    def __init__(self):
        self._towers = []

    def forget(self):
        self._towers, self._d_tables = [], {}
        self._ops.clear()

def f(pres):
    pres._towers.clear()
    del pres._d_tables[0, 1]
    pres._towers[0] = pres._d_tables.get((0, 1))

    def g():
        pres._d_tables.pop((0, 1))
    return g
"""
    assert _rule_cache_resets(ast.parse(source)) == [
        (4, "__init__", "_towers"), (7, "forget", "_d_tables"), (7, "forget", "_towers"),
        (8, "forget", "_ops"), (11, "f", "_towers"), (12, "f", "_d_tables"),
        (16, "g", "_d_tables")]


# Each rename_space call left in the package, by the function around it, with
# why it narrows or reinterprets.  Expressions over a space and its extension
# meet on the extending space, and a derivative meets its table's space, so no
# ring operation, derivative or normal form needs an operand widened first.
RENAMES = [
    ("hamiltonian.py:schouten_on_equation",
     "reinterprets: a dummy jet a^s_K is read as the fiber jet p^s_K of the same key"),
    ("presentations.py:Presentation.reduce",
     "narrows: a cofactor holds no tag once its tags are replaced, so it leaves the tag space"),
    ("presentations.py:Presentation.reduce",
     "narrows: the untagged rest of the tagged normal form leaves the tag space"),
]


def _sites(tree, hit):
    """The innermost function or method around each node for which hit(node)
    holds, as Class.method.inner, in line order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, where + (child.name,))
                continue
            if hit(child):
                found.append((child.lineno, ".".join(where) or "<module>"))
            visit(child, where)
    visit(tree, ())
    return [where for _, where in sorted(found)]


def _is_rename(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "rename_space"


def _raises(text):
    """hit for _sites: a raise whose message holds text, in a string or in
    the literal part of an f-string."""
    return lambda node: isinstance(node, ast.Raise) and any(
        isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value
        for c in ast.walk(node))


def test_no_rename_space_widens_an_operand():
    """The package calls rename_space only where RENAMES says: a new call
    fails this test, so that widening by hand does not come back."""
    sites = [f"{path.name}:{where}" for path, tree in _trees(PACKAGE)
             for where in _sites(tree, _is_rename)]
    assert sorted(sites) == [site for site, _ in RENAMES]


def test_the_rename_check_sees_every_call():
    source = """
def f(e, sp):
    return e.rename_space(sp)

class P:
    def g(self, e):
        def h(x):
            return x.rename_space(self.space)
        return h(e).rename_space(self.space) + rename_space(e)

y = f(1, 2).rename_space(3)
"""
    assert _sites(ast.parse(source), _is_rename) == ["f", "P.g.h", "P.g", "<module>"]


def test_one_raise_refuses_incompatible_spaces():
    """Spaces that neither extends are refused in one place, `_meet`, which
    every ring operation, derivative and normal form reaches: a second copy
    of the refusal fails this test."""
    sites = [f"{path.name}:{where}" for path, tree in _trees(PACKAGE)
             for where in _sites(tree, _raises("incompatible jet spaces"))]
    assert sites == ["algebra.py:_meet"]


def test_the_raise_check_sees_every_copy():
    source = """
def _meet(a, b):
    raise ShapeError(f"incompatible jet spaces: {a} and {b}")

class E:
    def coerce(self, other):
        if other is None:
            raise ShapeError("incompatible jet spaces")
        raise ShapeError(f"other jet spaces: {other}")
"""
    assert _sites(ast.parse(source), _raises("incompatible jet spaces")) == ["_meet", "E.coerce"]


def _function_imports(tree):
    """Line of each import statement made inside a function or method."""
    return sorted({node.lineno for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(f) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_import_inside_a_function():
    """Each module imports at its top, so its head lists what it depends on."""
    found = [f"{path.name}:{line}" for path, tree in _trees(PACKAGE)
             for line in _function_imports(tree)]
    assert found == []


def test_the_import_check_sees_every_nested_import():
    source = """
import os
from .algebra import d_h

def f():
    import time
    return time

class C:
    def m(self):
        from .corpus import corpus

        def inner():
            from . import operators
            return operators
        return corpus, inner

async def g():
    import json
"""
    assert _function_imports(ast.parse(source)) == [6, 11, 14, 19]


def _foreign_imports(tree):
    """Sorted (line, module) of each import of a module that is neither
    jetcalc's own (relative, or under `jetcalc`) nor in the standard library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] not in sys.stdlib_module_names | {"jetcalc"})
    return sorted(found)


def test_the_package_has_no_runtime_dependency():
    """Every import in src/jetcalc is of jetcalc itself or of Python's
    standard library, so the package installs with no dependency."""
    found = [f"{path.name}:{line} {name}" for path, tree in _trees(PACKAGE)
             for line, name in _foreign_imports(tree)]
    assert found == []


def test_the_dependency_check_sees_a_planted_import():
    source = """
from __future__ import annotations
import os, sympy.core
from . import algebra
from .errors import ProblemError
from jetcalc.algebra import parse
from jsonschema import Draft202012Validator
from collections.abc import Mapping

def f():
    import numpy as np
    return np
"""
    assert _foreign_imports(ast.parse(source)) == [(3, "sympy.core"), (7, "jsonschema"),
                                                   (11, "numpy")]


def _repeated_runs(trees, length=3, least=40):
    """(where first written, where again, AST nodes) of each run of `length`
    consecutive statements, of at least `least` nodes, that dumps the same as
    an earlier run once every name and argument is one placeholder."""
    seen, found = {}, []
    for name, tree in trees:
        tree = copy.deepcopy(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                node.id = "_"
            elif isinstance(node, ast.arg):
                node.arg = "_"
        for node in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                if not isinstance(stmts, list) or not stmts or not isinstance(stmts[0], ast.stmt):
                    continue
                sizes = [sum(1 for _ in ast.walk(stmt)) for stmt in stmts]
                dumps = [ast.dump(stmt) for stmt in stmts]
                for k in range(len(stmts) - length + 1):
                    size = sum(sizes[k:k + length])
                    if size >= least:
                        where = f"{name}:{stmts[k].lineno}"
                        first = seen.setdefault("\n".join(dumps[k:k + length]), where)
                        if first != where:
                            found.append((first, where, size))
    return found


def test_no_statement_run_is_written_twice():
    """No three consecutive statements of 40 or more AST nodes are a copy of
    three others, whatever their names: a step written twice is one function.
    corpus.py is problem data, not code."""
    trees = [(path.name, tree) for path, tree in _trees(PACKAGE) if path.name != "corpus.py"]
    assert _repeated_runs(trees) == []


def test_the_repeated_run_check_sees_a_planted_copy():
    source = """
def f(row, piv, lead):
    g = gcd(piv[lead], row[lead])
    a, b = piv[lead] // g, row[lead] // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    return row

class C:
    def m(self, other):
        try:
            x = 1
        finally:
            h = gcd(self[other], other[self])
            p, q = self[other] // h, other[self] // h
            if p != 1:
                other = {k: p * w for k, w in other.items()}

def short(a):
    b = a + 1
    c = b + 1
    return c

def shorter(x):
    y = x + 1
    z = y + 1
    return z
"""
    planted, again = ast.parse(source), ast.parse(source.split("class C")[0])
    assert _repeated_runs([("planted.py", planted)]) == [("planted.py:3", "planted.py:14", 77)]
    assert sorted(_repeated_runs([("planted.py", planted), ("again.py", again)])) == [
        ("planted.py:3", "again.py:3", 77), ("planted.py:3", "planted.py:14", 77),
        ("planted.py:4", "again.py:4", 62)]
    assert sorted(_repeated_runs([("planted.py", planted)], least=10)) == [
        ("planted.py:20", "planted.py:25", 19), ("planted.py:3", "planted.py:14", 77)]


def _unfrozen_dataclasses(tree):
    """(line, class) of each class decorated `@dataclass` or
    `@dataclass(...)`, plain or as `dataclasses.dataclass`, without
    `frozen=True`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for d in cls.decorator_list:
            func = d.func if isinstance(d, ast.Call) else d
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            keywords = d.keywords if isinstance(d, ast.Call) else []
            if not any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                       for k in keywords):
                yield cls.lineno, cls.name


def test_every_dataclass_is_frozen():
    """No engine object changes after it is built: a covering's fields
    live in its presentation's tables, reduced once, and every dataclass
    is frozen."""
    found = [f"{path.name}:{line}: {name}" for path, tree in _trees(PACKAGE)
             for line, name in _unfrozen_dataclasses(tree)]
    assert found == []


def _engine_dataclasses():
    """Every dataclass that a jetcalc module defines."""
    modules = [importlib.import_module(f"jetcalc.{m.name}")
               for m in pkgutil.iter_modules(jetcalc.__path__)]
    return {obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__}


def _plain_containers(value, where):
    """The paths below `value` that hold a plain dict or list, looking into
    tuples, the values of read-only maps, dataclass fields and operator
    tables; an expression's term dict is its own (no module writes it)."""
    if isinstance(value, (dict, list)):
        yield where
    elif isinstance(value, tuple):
        for k, x in enumerate(value):
            yield from _plain_containers(x, f"{where}[{k}]")
    elif isinstance(value, MappingProxyType):
        for k, x in value.items():
            yield from _plain_containers(x, f"{where}[{k!r}]")
    elif isinstance(value, CDiffOp):
        yield from _plain_containers(value.entries, f"{where}.entries")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _plain_containers(getattr(value, f.name), f"{where}.{f.name}")


def test_no_dataclass_holds_a_plain_dict_or_list(kdv):
    """One object of each engine dataclass, and of the superdensity kept
    beside the tests, built as the engine builds it: a map is read-only and a
    sequence a tuple, in its fields and in the values and operator tables
    they hold, so a frozen object's contents cannot change either."""
    sp = kdv.space
    u = sp.jet("u", (0, 0))
    mass = HorizontalForm(sp, 1, {(0,): u, (1,): parse("u[2,0] + 3*u[0,0]^2", sp)})
    one = CDiffOp.identity(sp, 1)
    built = [sp, Ansatz(2, 2), mass, d_h(mass), abelian_from_current(mass, kdv)[0],
             cotangent_covering(kdv), conservation_law_from_cosymmetry([sp.one()], kdv),
             to_superdensity(CDiffOp.total_derivative(sp)), kdv.reduce(parse("u[0,1]", sp)),
             scale(PseudoOp(one, [([u], one)]), 2), EquivalenceWitness(*[one] * 6)]
    assert {type(x) for x in built} == _engine_dataclasses() | {Superdensity}
    plain = [path for x in built for path in _plain_containers(x, type(x).__name__)]
    assert plain == []


def test_the_container_check_sees_nested_plain_values(kdv):
    sp = kdv.space
    u = sp.jet("u", (0, 0))
    one = CDiffOp.identity(sp, 1)
    unsafe = CDiffOp(sp, 1, 1)
    object.__setattr__(unsafe, "entries", {(0, 0): MappingProxyType({(0, 0): u})})
    inner = CDiffOp(sp, 1, 1)
    object.__setattr__(inner, "entries", MappingProxyType({(0, 0): {(0, 0): u}}))
    form = HorizontalForm(sp, 1, {(0,): u})
    object.__setattr__(form, "comps", MappingProxyType({(0,): [u]}))
    pseudo = PseudoOp(one, [([u], one)])
    object.__setattr__(pseudo, "tails", (([u], one),))
    found = [path for x in (form, pseudo, EquivalenceWitness(one, unsafe, inner, *[one] * 3))
             for path in _plain_containers(x, type(x).__name__)]
    assert found == ["HorizontalForm.comps[(0,)]", "PseudoOp.tails[0][0]",
                     "EquivalenceWitness.beta.entries",
                     "EquivalenceWitness.alpha_p.entries[(0, 0)]"]


def test_the_frozen_check_sees_every_unfrozen_dataclass():
    source = """
@dataclass
class A:
    x: int

@dataclass(frozen=True)
class B:
    x: int

@dataclass(eq=False)
class C:
    x: int

@dataclasses.dataclass(frozen=False)
class D:
    x: int

@dataclasses.dataclass(eq=False, frozen=True)
class E:
    x: int

@total_ordering
class F:
    x: int
"""
    assert list(_unfrozen_dataclasses(ast.parse(source))) == [
        (3, "A"), (11, "C"), (15, "D")]


# every direct self-recursion in src/jetcalc, with what bounds its depth; one
# that recurses once per item of its input (an independent variable, say)
# fails on a large enough input and is written as a loop instead
BOUNDED_RECURSIONS = {
    "cli._errors": "MAX_NESTING",
    "hamiltonian.schouten_direct": "one swap of its arguments",
    "presentations.Presentation.linearization": "the adjoint is built on l_F once",
}


def _self_recursions(tree):
    """Each module-level function that calls its own name, and each method
    (as `Class.method`) that calls its own name on `self` or `cls`."""
    def by_itself(func, method):
        if method:
            return isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
        return isinstance(func, ast.Name)

    for node in tree.body:
        owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for f in node.body if owner else [node]:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call) and _callee(call) == f.name
                    and by_itself(call.func, owner) for call in ast.walk(f)):
                yield owner + f.name


def test_every_self_recursion_has_a_bounded_depth():
    found = {f"{path.stem}.{name}" for path, tree in _trees(PACKAGE)
             for name in _self_recursions(tree)}
    assert found == set(BOUNDED_RECURSIONS)


def test_the_recursion_check_sees_a_planted_recursion():
    source = """
def mi_iter(n, order):
    if n == 1:
        yield (order,)
        return
    for first in range(order, -1, -1):
        for rest in mi_iter(n - 1, order - first):
            yield (first,) + rest

def once(x):
    return x.once() + x.y.once()

def outer(x):
    def inner(y):
        return inner(y)
    return inner(x)

class C:
    def m(self, k):
        return self.m(k - 1) if k else 0

    @classmethod
    def c(cls, k):
        return cls.c(k - 1) if k else 0

    def other(self, x):
        return x.other() + other(x)

    async def a(self):
        return await self.a()
"""
    assert list(_self_recursions(ast.parse(source))) == ["mi_iter", "C.m", "C.c", "C.a"]


def test_every_readme_python_block_runs():
    """Each python block of README as printed, in a fresh namespace: the
    library example and the Schouten bracket on each pair of degrees, whose
    asserts check each value (tests/traffic.py runs them as product traffic)."""
    blocks = _readme_blocks((ROOT / "README.md").read_text())
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_the_readme_library_example_runs():
    """The example as README prints it: KdV's 4-dimensional classical symmetry
    algebra and three Magri steps from u/2, four densities."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["basis"]) == 4 and len(namespace["densities"]) == 4


def test_the_traffic_tracer_reports_only_an_untaken_branch(tmp_path):
    """traffic.unreached on a planted module whose function takes one of its
    two branches reports the other branch and nothing else: not the module
    and function docstrings, the import, the decorated def, the test, nor
    the taken branch, a statement over two lines."""
    planted = (tmp_path / "planted.py").resolve()
    planted.write_text('''"""A planted module."""
from functools import cache


@cache
def pick(flag):
    """One of two branches."""
    if flag:
        return (
            "taken")
    else:
        return "untaken"
''')

    def run():
        namespace = {}
        exec(compile(planted.read_text(), str(planted), "exec"), namespace)
        namespace["pick"](True)

    assert traffic.unreached([planted], run) == [(planted, 12, 'return "untaken"')]


def test_traffic_leaves_unreached_only_the_listed_statements():
    """python3 tests/traffic.py in a fresh process (a cache that earlier tests
    filled would hide the statements that fill it): each statement of
    src/jetcalc that product traffic leaves unreached, a raise like any
    other, is listed in tests/unreached.txt, and each listed one still is
    unreached, so the list only shrinks."""
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "traffic.py")],
                         capture_output=True, text=True, timeout=600)
    assert (run.returncode, run.stdout) == (0, "")


def test_the_traffic_list_sees_a_new_and_a_stale_statement(tmp_path):
    """traffic.entries keys each unreached statement by module, the functions
    and classes around it and its text, a raise like any other; a statement
    missing from the list is new, and a listed one that a run reaches is
    stale."""
    planted = (tmp_path / "planted.py").resolve()
    planted.write_text('''class Pick:
    def pick(self, flag):
        if flag:
            return "taken"
        if flag is None:
            raise ValueError("no flag")
        return "untaken"
''')

    def run():
        namespace = {}
        exec(compile(planted.read_text(), str(planted), "exec"), namespace)
        namespace["Pick"]().pick(True)

    found = traffic.entries(traffic.missed([planted], run))
    assert found == ["planted:Pick.pick: if flag is None:",
                     'planted:Pick.pick: raise ValueError("no flag")',
                     'planted:Pick.pick: return "untaken"']
    listed = ['planted:Pick.pick: return "untaken"', "planted:Pick.pick: return \"taken\"",
              "planted:Pick.pick: if flag is None:"]
    assert traffic.differences(found, listed) == (
        ['planted:Pick.pick: raise ValueError("no flag")'], ['planted:Pick.pick: return "taken"'])
    assert traffic.differences(found, found) == ([], [])


def test_the_traffic_check_sees_a_wrong_exit_code(capsys):
    """A refused case that records exit 0 for an unclosed parenthesis, an
    input error, is reported with what it printed, and the traffic check
    exits 1; recorded as exit 2 it passes."""
    case = {"name": "planted", "args": [], "code": 0, "problem": {
        "space": {"independent": ["x", "t"], "dependent": ["u"]},
        "equations": [{"expr": "u[0,1] - u[2,0]", "leading": "u[0,1]"}],
        "tasks": [{"kind": "reduce", "expr": "(u[0,0]"}]}}
    wrong = traffic.run_cases([case])
    assert wrong == ["planted: exit 2, expected 0, stderr \"input error: expected ')', "
                     "found end of input (at position 7)\\n\""]
    assert traffic.report([], [], wrong) == 1
    assert "planted: exit 2" in capsys.readouterr().out
    assert traffic.run_cases([dict(case, code=2)]) == []
    assert traffic.report([], [], []) == 0


def test_the_traffic_check_pins_a_line_a_detail_a_text_and_a_command_line():
    """A case gives its problem file as text pieces, each repeated, or its
    command line, and pins its one stderr line at exit 2 or a detail of its
    report at another exit: a case that prints another line, or lacks its
    detail, is reported."""
    text = {"name": "text", "code": 2, "args": [], "text": [["[", 3], ["]", 2]],
            "stderr": "input error: Expecting ',' delimiter: line 1 column 6 (char 5)"}
    argv = {"name": "argv", "code": 2, "argv": ["corpus", "nosuch"],
            "stderr": "input error: unknown corpus problem 'nosuch'; available: "
                      + ", ".join(corpus_names())}
    detail = {"name": "detail", "code": 1, "args": [], "detail": "unknown task kind 'x'",
              "problem": {"space": {"independent": ["x"], "dependent": ["u"]},
                          "tasks": [{"kind": "x"}]}}
    assert traffic.run_cases([text, argv, detail]) == []
    wrong = traffic.run_cases([dict(text, stderr="input error: other"),
                               dict(detail, detail="unknown task kind 'y'")])
    assert [line.split(":")[0] for line in wrong] == ["text", "detail"]


# Each task kind and the tests that check its verdict against what the engine
# does not compute: a sympy computation of the same object, or the paper's and
# the literature's closed forms in the acceptance criteria.  A kind that needs
# none of its own would map to a one-line reason instead.  verify-symmetry has
# a sympy oracle of its own verdict; verify-cosymmetry is l_F*(psi) on the
# equation, whose parts, the linearization, the adjoint and the normal form,
# each have a sympy oracle.
ORACLES = {
    "symmetries": ("test_solver_oracle.py::test_solver_bases_span_the_sympy_nullspace",
                   "test_acceptance.py::test_criterion_1_kdv_symmetries"),
    "cosymmetries": ("test_solver_oracle.py::test_solver_bases_span_the_sympy_nullspace",
                     "test_acceptance.py::test_criterion_2_kdv_cosymmetries_and_currents"),
    "verify-symmetry": ("test_solver_oracle.py::test_symmetry_verdicts_match_sympy",
                        "test_operators.py::test_linearize_matches_sympy",
                        "test_solver_oracle.py::test_normal_forms_match_sympy_rewriting"),
    "verify-cosymmetry": ("test_operators.py::test_linearize_matches_sympy",
                          "test_operators.py::test_adjoint_satisfies_the_green_identity_in_sympy",
                          "test_solver_oracle.py::test_normal_forms_match_sympy_rewriting"),
    "conservation-laws": ("test_acceptance.py::test_criterion_2_kdv_cosymmetries_and_currents",
                          "test_solver_oracle.py::test_conserved_currents_are_conserved_in_sympy"),
    "reduce": ("test_presentations.py::test_cofactor_identity_matches_sympy",),
    "verify-flat": ("test_acceptance.py::test_criterion_7_coverings",
                    "test_solver_oracle.py::test_corpus_coverings_are_flat_in_sympy"),
    "verify-finite-symmetry": ("test_acceptance.py::test_criterion_7_coverings",),
    "verify-shadow": ("test_acceptance.py::test_criterion_5_recursion_operators",),
    "recursion-fiberlinear": ("test_acceptance.py::test_criterion_5_recursion_operators",),
    "pseudo-apply": ("test_acceptance.py::test_criterion_5_recursion_operators",),
    "verify-hamiltonian": (
        "test_hamiltonian.py::test_hamiltonian_verdicts_match_a_sympy_poisson_bracket",
        "test_hamiltonian.py::test_matrix_hamiltonian_verdicts_match_a_sympy_poisson_bracket"),
    "compatible": (
        "test_hamiltonian.py::test_hamiltonian_verdicts_match_a_sympy_poisson_bracket",
        "test_hamiltonian.py::test_matrix_hamiltonian_verdicts_match_a_sympy_poisson_bracket"),
    "magri": ("test_acceptance.py::test_criterion_4_magri_hierarchy",),
    "verify-symplectic": ("test_acceptance.py::test_criterion_10_symplectic",),
    "verify-bivector": ("test_acceptance.py::test_criterion_6_equation_bivectors",),
    "schouten-equation": ("test_acceptance.py::test_criterion_6_equation_bivectors",),
    "verify-equivalence": ("test_acceptance.py::test_criterion_8_presentation_equivalence",),
}


def _missing_oracles(kinds, table, tests):
    """The kinds without an entry in `table`, the entries of no kind, and the
    test ids (`file::function`) that an entry names and `tests` lacks."""
    named = [t for entry in table.values() if not isinstance(entry, str) for t in entry]
    return [k for k in kinds if k not in table] + [k for k in table if k not in kinds] \
        + [t for t in dict.fromkeys(named) if t not in tests]


def test_every_task_kind_has_an_oracle():
    tests = {f"{path.name}::{node.name}" for path, tree in _trees(ROOT / "tests")
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _missing_oracles(cli._TASKS, ORACLES, tests) == []


def test_the_oracle_check_sees_a_planted_kind():
    tests = {"test_presentations.py::test_cofactor_identity_matches_sympy"}
    table = {"reduce": tuple(tests), "gone": "no kind of this name"}
    assert _missing_oracles(["reduce", "planted"], table, tests) == ["planted", "gone"]
    table = {"reduce": ("test_presentations.py::test_gone",), "planted": "needs none: a reason"}
    assert _missing_oracles(["reduce", "planted"], table, tests) == [
        "test_presentations.py::test_gone"]
